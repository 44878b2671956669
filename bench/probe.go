package main

import (
	"fmt"
	"path/filepath"
	"time"

	"hps/internal/blockio"
	"hps/internal/cluster"
	"hps/internal/dataset"
	"hps/internal/hbmps"
	"hps/internal/interconnect"
	"hps/internal/keys"
	"hps/internal/memps"
	"hps/internal/metrics"
	"hps/internal/nn"
	"hps/internal/optimizer"
	"hps/internal/ps"
	"hps/internal/simtime"
	"hps/internal/ssdps"
	"hps/internal/tensor"
)

// The layer probe. After the timed window of a traced run, a bench-owned set
// of tiers — built with the public constructors trainer.buildNode uses —
// replays the workload's first seeded batches through each layer's entry
// points in the trainer's order, one thread, one span per call. The trainer
// itself is not instrumented, so this is where per-call layer times come
// from. For multi-process workloads the MEM-PS calls become block RPCs from
// a fresh TCPTransport to the still-warm shards.

// probeNode is one node's worth of bench-owned tiers.
type probeNode struct {
	gen   *dataset.Generator
	store *ssdps.Store // nil, like mem, when the MEM-PS is remote
	mem   *memps.MemPS
	hbm   *hbmps.HBMPS
}

// probe carries the replay's state and accumulators.
type probe struct {
	shape  shape
	rec    *recorder
	nodes  []*probeNode
	remote *cluster.TCPTransport // nil for in-process workloads
	topo   cluster.Topology

	net        *nn.Network
	denseState *nn.DenseState
	denseOpt   optimizer.Dense
	sparseOpt  optimizer.Sparse
	acts       *nn.Activations
	grads      *nn.Gradients
	loss       metrics.LogLossAccumulator

	fwdBwd, applyDense, applySparse time.Duration
	examples, sparseRows            int64
	keyRefs, uniqueKeys             int64
	pullRTT, pushRTT                []time.Duration
	keysPulled, keysPushed          int64
	ssdLoad, ssdDump                time.Duration
	ssdLoadKeys, ssdDumpKeys        int64
}

// timed runs fn inside a span named name under parent.
func (p *probe) timed(name string, parent int, batch int, fn func() error) error {
	var err error
	p.span(name, parent, batch, func() { err = fn() })
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// span is timed for a call that cannot fail.
func (p *probe) span(name string, parent int, batch int, fn func()) {
	sp := p.rec.begin(name, parent, int64(batch), laneProbe)
	fn()
	p.rec.end(sp)
}

// newProbe builds the bench-owned tiers for the running workload's shape.
func newProbe(e *env, r *running, rec *recorder) (*probe, error) {
	s, cfg := r.shape, r.cfg
	dim := s.spec.EmbeddingDim
	clock := simtime.NewClock()
	fabric := interconnect.NewFabric(cfg.Profile, clock)
	p := &probe{
		shape: s, rec: rec, topo: cfg.Topology,
		denseOpt:  optimizer.Adagrad{LR: 0.01, InitialAccumulator: 0.1},
		sparseOpt: optimizer.Adagrad{LR: 0.05, InitialAccumulator: 0.1},
	}
	p.net = nn.New(nn.Config{InputDim: dim, Hidden: s.spec.HiddenLayers, Seed: e.seed})
	p.denseState = p.net.NewDenseState(p.denseOpt)
	p.acts, p.grads = p.net.NewActivations(), p.net.NewGradients()

	var local *cluster.LocalTransport
	if s.shards > 0 {
		p.remote = cluster.NewTCPTransport(cfg.RemoteShards, dim)
	} else {
		local = cluster.NewLocalTransport(dim)
	}
	for id := 0; id < s.nodes; id++ {
		n := &probeNode{gen: dataset.NewGenerator(cfg.Data, cfg.Seed+int64(id)*7919)}
		if p.remote == nil {
			dev, err := blockio.NewDevice(filepath.Join(r.dir, "probe", fmt.Sprintf("node-%d", id)), cfg.Profile.SSD, clock)
			if err != nil {
				return nil, err
			}
			n.store, err = ssdps.Open(dev, ssdps.Config{Dim: dim, DiskUsageThresholdBytes: cfg.SSDThresholdBytes})
			if err != nil {
				return nil, err
			}
			var transport cluster.Transport
			if s.nodes > 1 {
				transport = local
			}
			n.mem, err = memps.New(memps.Config{
				NodeID: id, Dim: dim, Topology: cfg.Topology, Transport: transport, Store: n.store,
				Fabric: fabric, Clock: clock, LRUEntries: cfg.LRUEntries, LFUEntries: cfg.LFUEntries, Seed: cfg.Seed,
			})
			if err != nil {
				return nil, err
			}
			local.Register(id, n.mem)
		}
		var err error
		n.hbm, err = hbmps.New(hbmps.Config{NodeID: id, NumGPUs: s.gpus, Dim: dim,
			GPUProfile: cfg.Profile.GPU, NVLink: cfg.Profile.NVLink, Fabric: fabric, Clock: clock})
		if err != nil {
			return nil, err
		}
		p.nodes = append(p.nodes, n)
	}
	return p, nil
}

func (p *probe) close() {
	if p.remote != nil {
		p.remote.Close()
	}
}

// pull assembles node n's working set into blk: MemPS.PrepareInto in-process,
// one PullBlock per owning shard otherwise.
func (p *probe) pull(n *probeNode, parent, batch int, ks []keys.Key, blk *ps.ValueBlock) (*memps.WorkingSet, error) {
	if p.remote == nil {
		var ws *memps.WorkingSet
		err := p.timed("memps.PrepareInto", parent, batch, func() (err error) {
			ws, err = n.mem.PrepareInto(ks, blk)
			return err
		})
		return ws, err
	}
	blk.Reset(p.shape.spec.EmbeddingDim, ks)
	for shard, part := range p.topo.SplitByNode(ks) {
		if len(part) == 0 {
			continue
		}
		sub := ps.GetBlock(p.shape.spec.EmbeddingDim, part)
		t0 := time.Now()
		err := p.timed("cluster.PullBlock", parent, batch, func() error {
			_, err := p.remote.PullBlock(shard, part, sub)
			return err
		})
		p.pullRTT = append(p.pullRTT, time.Since(t0))
		p.keysPulled += int64(len(part))
		if err == nil {
			blk.ScatterRows(sub)
		}
		ps.PutBlock(sub)
		if err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// mergeDeltas sums the nodes' delta blocks (each sorted by key, every row a
// changed key) into one block by sorted-key union — the all-reduce
// trainer.stagePush performs before it pushes. One block is returned as is.
func mergeDeltas(dim int, blocks []*ps.ValueBlock) *ps.ValueBlock {
	if len(blocks) == 1 {
		return blocks[0]
	}
	out := ps.GetBlock(dim, nil)
	cur := make([]int, len(blocks))
	for {
		var best keys.Key
		found := false
		for bi, b := range blocks {
			if cur[bi] < b.Len() {
				if k := b.Keys[cur[bi]]; !found || k < best {
					best, found = k, true
				}
			}
		}
		if !found {
			return out
		}
		row := out.GrowRow(best)
		for bi, b := range blocks {
			if i := cur[bi]; i < b.Len() && b.Keys[i] == best {
				tensor.Add(b.WeightsRow(i), out.WeightsRow(row))
				tensor.Add(b.G2Row(i), out.G2Row(row))
				out.Freq[row] += b.Freq[i]
				cur[bi]++
			}
		}
	}
}

// push applies the batch's merged delta block to the authoritative copies:
// every in-process MEM-PS takes the rows it owns out of the block, a remote
// shard gets its partition as one stamped block RPC.
func (p *probe) push(parent, batch int, deltas *ps.ValueBlock) error {
	if p.remote == nil {
		for _, owner := range p.nodes {
			if err := p.timed("memps.PushBlock", parent, batch, func() error {
				return owner.mem.PushBlock(ps.PushBlockRequest{Shard: ps.NoShard, Block: deltas})
			}); err != nil {
				return err
			}
		}
		return nil
	}
	dim := p.shape.spec.EmbeddingDim
	for _, shard := range p.topo.MemberIDs() {
		sub := ps.GetBlock(dim, nil)
		for i, k := range deltas.Keys {
			if deltas.Present[i] && p.topo.NodeOf(k) == shard {
				sub.AppendRow(k, deltas.WeightsRow(i), deltas.G2Row(i), deltas.Freq[i])
			}
		}
		var err error
		if sub.Len() > 0 {
			t0 := time.Now()
			err = p.timed("cluster.PushBlockStamped", parent, batch, func() error {
				client, seq := p.remote.Stamp()
				_, err := p.remote.PushBlockStamped(shard, client, seq, sub)
				return err
			})
			p.pushRTT = append(p.pushRTT, time.Since(t0))
			p.keysPushed += int64(sub.Len())
		}
		ps.PutBlock(sub)
		if err != nil {
			return err
		}
	}
	return nil
}

// trainShard is trainer.trainShard's sequence for one GPU's mini-batch:
// dedup, one PullInto, the per-example dense and sparse updates against the
// block, one CommitBlock. The per-example calls are too many for one span
// each; their time is accumulated and the loop gets a single span.
func (p *probe) trainShard(n *probeNode, parent, batch, gpuID int, shard *dataset.Batch) error {
	if shard.Len() == 0 {
		return nil
	}
	var kb []keys.Key
	for i := range shard.Examples {
		kb = append(kb, shard.Examples[i].Features...)
	}
	var uniq []keys.Key
	p.span("keys.Dedup", parent, batch, func() { uniq = keys.Dedup(kb) })

	dim := p.shape.spec.EmbeddingDim
	work, orig := ps.GetBlock(dim, uniq), ps.GetBlock(dim, uniq)
	defer ps.PutBlock(work)
	defer ps.PutBlock(orig)
	if err := p.timed("hbmps.PullInto", parent, batch, func() error {
		return n.hbm.PullInto(ps.PullRequest{Shard: gpuID, Keys: uniq}, work)
	}); err != nil {
		return err
	}
	orig.CopyFrom(work)

	loop := p.rec.begin("nn.train_examples", parent, int64(batch), laneProbe)
	var vecs [][]float32
	var offs []int
	for e := range shard.Examples {
		ex := &shard.Examples[e]
		vecs, offs = vecs[:0], offs[:0]
		for _, k := range ex.Features {
			row, _ := work.Row(k)
			offs = append(offs, row)
			vecs = append(vecs, work.WeightsRow(row))
		}
		t0 := time.Now()
		nn.PoolSum(p.acts.Input(), vecs)
		pred := p.net.Forward(p.acts)
		p.grads.Zero()
		inputGrad := p.net.Backward(p.acts, pred, ex.Label, p.grads)
		t1 := time.Now()
		p.net.Apply(p.denseOpt, p.denseState, p.grads)
		t2 := time.Now()
		// Features are distinct within a generated example, so no stamp
		// dedup is needed here.
		for _, off := range offs {
			p.sparseOpt.ApplySparse(work.WeightsRow(off), work.G2Row(off), inputGrad)
			work.Freq[off]++
		}
		t3 := time.Now()
		p.fwdBwd += t1.Sub(t0)
		p.applyDense += t2.Sub(t1)
		p.applySparse += t3.Sub(t2)
		p.sparseRows += int64(len(offs))
		p.examples++
		p.loss.Add(float64(pred), float64(ex.Label))
	}
	p.rec.end(loop)
	return p.timed("hbmps.CommitBlock", parent, batch, func() error { return n.hbm.CommitBlock(gpuID, orig, work) })
}

// replay runs one batch index through every layer in the trainer's order.
func (p *probe) replay(parent, batch int) error {
	s := p.shape
	dim := s.spec.EmbeddingDim
	sp := p.rec.begin("probe.batch", parent, int64(batch), laneProbe)
	defer p.rec.end(sp)

	type state struct {
		b      *dataset.Batch
		ks     []keys.Key
		ws     *memps.WorkingSet
		blk    *ps.ValueBlock
		deltas *ps.ValueBlock
	}
	st := make([]state, len(p.nodes))
	for i, n := range p.nodes { // read
		p.span("dataset.NextBatch", sp, batch, func() { st[i].b = n.gen.NextBatch(s.batchSize) })
		var all []keys.Key
		for e := range st[i].b.Examples {
			all = append(all, st[i].b.Examples[e].Features...)
		}
		p.keyRefs += int64(len(all))
		p.span("keys.Dedup", sp, batch, func() { st[i].ks = keys.Dedup(all) })
		p.uniqueKeys += int64(len(st[i].ks))
		p.span("keys.PartitionByShard", sp, batch, func() { keys.PartitionByShard(st[i].ks, s.nodes*s.gpus) })
	}
	for i, n := range p.nodes { // pull
		st[i].blk = ps.GetBlock(dim, nil)
		ws, err := p.pull(n, sp, batch, st[i].ks, st[i].blk)
		if err != nil {
			return err
		}
		st[i].ws = ws
	}
	for i, n := range p.nodes { // train
		if err := p.timed("hbmps.LoadBlock", sp, batch, func() error { return n.hbm.LoadBlock(st[i].blk) }); err != nil {
			return err
		}
		ps.PutBlock(st[i].blk)
		for g, shard := range st[i].b.Shard(s.gpus) {
			if err := p.trainShard(n, sp, batch, g, shard); err != nil {
				return err
			}
		}
		st[i].deltas = ps.GetBlock(dim, nil)
		p.span("hbmps.CollectBlock", sp, batch, func() { n.hbm.CollectBlock(st[i].deltas) })
		if _, err := n.hbm.Evict(nil); err != nil {
			return err
		}
	}
	blocks := make([]*ps.ValueBlock, len(st)) // push
	for i := range st {
		blocks[i] = st[i].deltas
	}
	var merged *ps.ValueBlock
	p.span("probe.mergeDeltas", sp, batch, func() { merged = mergeDeltas(dim, blocks) })
	err := p.push(sp, batch, merged)
	if len(blocks) > 1 {
		ps.PutBlock(merged)
	}
	for _, b := range blocks {
		ps.PutBlock(b)
	}
	if err != nil {
		return err
	}
	for i, n := range p.nodes { // complete
		if n.mem == nil {
			continue
		}
		if err := p.timed("memps.CompleteBatch", sp, batch, func() error { return n.mem.CompleteBatch(st[i].ws) }); err != nil {
			return err
		}
		// The SSD-PS read path, directly: load the batch's keys the store
		// holds a copy of (a read-only replay of the miss path's key sets).
		var held []keys.Key
		for _, k := range st[i].ws.LocalKeys {
			if n.store.Contains(k) {
				held = append(held, k)
			}
		}
		if len(held) > 0 {
			t0 := time.Now()
			if err := p.timed("ssdps.LoadTimed", sp, batch, func() error {
				_, _, err := n.store.LoadTimed(held)
				return err
			}); err != nil {
				return err
			}
			p.ssdLoad += time.Since(t0)
			p.ssdLoadKeys += int64(len(held))
		}
	}
	return nil
}

// dumpProbe times the SSD-PS write path directly: re-dump rows the store
// already holds, one parameter file's worth at a time.
func (p *probe) dumpProbe(parent int) error {
	const chunk, chunks = 256, 16
	for _, n := range p.nodes {
		if n.store == nil {
			continue
		}
		all := n.store.Keys()
		for c := 0; c < chunks && (c+1)*chunk <= len(all); c++ {
			vals, err := n.store.Load(all[c*chunk : (c+1)*chunk])
			if err != nil {
				return err
			}
			t0 := time.Now()
			if err := p.timed("ssdps.Dump", parent, -1, func() error { return n.store.Dump(vals) }); err != nil {
				return err
			}
			p.ssdDump += time.Since(t0)
			p.ssdDumpKeys += int64(len(vals))
		}
	}
	return nil
}

// probeLayers runs the probe pass and records its per-layer metrics.
func probeLayers(e *env, r *running, rec *recorder, parent int, layers metricSet) error {
	p, err := newProbe(e, r, rec)
	if err != nil {
		return err
	}
	defer p.close()
	first := len(rec.spans)
	for b := 0; b < e.probeBatches; b++ {
		if err := p.replay(parent, b); err != nil {
			return fmt.Errorf("batch %d: %w", b, err)
		}
	}
	if err := p.dumpProbe(parent); err != nil {
		return err
	}

	// A layer's time is the self time of its spans: span minus children.
	self := selfByName(rec.spans, first)
	batches := float64(e.probeBatches)
	perBatchUs := func(span string) float64 {
		return float64(self[span]) / float64(time.Microsecond) / batches
	}
	layers.set("dataset.next_batch_us", perBatchUs("dataset.NextBatch")/float64(len(p.nodes)), e.probeBatches*len(p.nodes))
	layers.set("keys.dedup_us_per_batch", perBatchUs("keys.Dedup"), e.probeBatches)
	layers.set("keys.partition_us_per_batch", perBatchUs("keys.PartitionByShard"), e.probeBatches)
	layers.set("keys.unique_share", ratio(float64(p.uniqueKeys), float64(p.keyRefs)), 0)
	layers.set("hbmps.load_block_us_per_batch", perBatchUs("hbmps.LoadBlock"), e.probeBatches)
	layers.set("hbmps.pull_into_us_per_batch", perBatchUs("hbmps.PullInto"), e.probeBatches)
	layers.set("hbmps.commit_block_us_per_batch", perBatchUs("hbmps.CommitBlock"), e.probeBatches)
	layers.set("hbmps.collect_block_us_per_batch", perBatchUs("hbmps.CollectBlock"), e.probeBatches)
	layers.set("hbmps.working_set_keys", float64(p.uniqueKeys)/batches/float64(len(p.nodes)), 0)
	layers.set("nn.fwd_bwd_us_per_example", ratio(float64(p.fwdBwd)/float64(time.Microsecond), float64(p.examples)), int(p.examples))
	layers.set("nn.apply_dense_us_per_batch", float64(p.applyDense)/float64(time.Microsecond)/batches, e.probeBatches)
	layers.set("nn.probe_mean_loss", p.loss.Mean(), int(p.loss.Count()))
	layers.set("optimizer.sparse_apply_ns_per_row", ratio(float64(p.applySparse), float64(p.sparseRows)), int(p.sparseRows))

	if p.remote != nil {
		sortDurations(p.pullRTT)
		sortDurations(p.pushRTT)
		layers.set("cluster.pull_rtt_us_p50", 1000*percentileMs(p.pullRTT, 0.50), len(p.pullRTT))
		layers.set("cluster.pull_rtt_us_p99", 1000*percentileMs(p.pullRTT, 0.99), len(p.pullRTT))
		layers.set("cluster.push_rtt_us_p50", 1000*percentileMs(p.pushRTT, 0.50), len(p.pushRTT))
		layers.set("cluster.push_rtt_us_p99", 1000*percentileMs(p.pushRTT, 0.99), len(p.pushRTT))
		// Exact counts: the replayed batches are the seed's, whatever the
		// shards hold, so these repeat from run to run.
		ts := p.remote.Stats()
		layers.set("cluster.probe_wire_bytes_per_batch", float64(ts.WireOut+ts.WireIn)/batches, e.probeBatches)
		layers.set("cluster.probe_keys_per_batch", float64(p.keysPulled+p.keysPushed)/batches, e.probeBatches)
		return nil
	}
	layers.set("memps.prepare_us_per_batch", perBatchUs("memps.PrepareInto"), e.probeBatches)
	layers.set("memps.push_us_per_batch", perBatchUs("memps.PushBlock"), e.probeBatches)
	layers.set("memps.complete_us_per_batch", perBatchUs("memps.CompleteBatch"), e.probeBatches)
	layers.set("ssdps.load_us_per_key", ratio(float64(p.ssdLoad)/float64(time.Microsecond), float64(p.ssdLoadKeys)), int(p.ssdLoadKeys))
	layers.set("ssdps.dump_us_per_key", ratio(float64(p.ssdDump)/float64(time.Microsecond), float64(p.ssdDumpKeys)), int(p.ssdDumpKeys))
	return nil
}
