package trainer

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"hps/internal/blockio"
	"hps/internal/cluster"
	"hps/internal/dataset"
	"hps/internal/hbmps"
	"hps/internal/hdfs"
	"hps/internal/hw"
	"hps/internal/keys"
	"hps/internal/memps"
	"hps/internal/pipeline"
	"hps/internal/ps"
	"hps/internal/ssdps"
)

// node bundles the per-node pieces of the hierarchy. In multi-process mode
// the MEM-PS/SSD-PS pieces live in the shard-server processes, so dev, store
// and local are nil.
type node struct {
	id     int
	gen    *dataset.Generator
	stream *hdfs.Stream
	dev    *blockio.Device
	store  *ssdps.Store
	local  *memps.MemPS
	hbm    *hbmps.HBMPS
	// indexer builds each batch's key index in stageRead (one goroutine per
	// node, one batch at a time); indexes recycles the indexes themselves:
	// stageRead takes one (or makes one when none is free), stageTrain hands
	// it back once the batch is trained. The source admits at most
	// MaxInFlight+readAhead batches, so that many slots keep every index in
	// circulation.
	indexer keys.IndexBuilder
	indexes chan *keys.Index
	// workers[g] is GPU g's training state. stageTrain runs on one pipeline
	// goroutine and trainOnGPUs gives each GPU one goroutine, so a worker is
	// only ever used by one goroutine at a time.
	workers []*gpuWorker
}

// nodeBatch carries one node's view of a batch through the pipeline.
type nodeBatch struct {
	batch *dataset.Batch
	// index is the batch's key partition, built by the read stage and read by
	// the pull stage (Unique) and the GPU workers (Rows) until the batch has
	// trained.
	index *keys.Index
	// block holds the working-set values (flat rows, sorted unique-key
	// order) between the pull and train stages; it is returned to the block
	// pool as soon as the HBM-PS has loaded it.
	block *ps.ValueBlock
	// deltas holds the node's collected update deltas (flat rows, changed
	// keys only, in working-set order) between the train and push stages;
	// pooled like block.
	deltas *ps.ValueBlock
}

// job is one batch index flowing through the pipeline (all nodes process
// their own batch of that index in parallel, as in data-parallel training).
type job struct {
	index int
	nodes []*nodeBatch
	// pull is the batch's pull dealt over the owners, from stagePull until
	// the push has completed it.
	pull []ownedPull
}

// buildNode builds node id's tiers: its own MEM-PS and SSD-PS under root
// when withMem (in process), and always its HBM-PS, data stream and GPU
// workers.
func (t *Trainer) buildNode(id int, root string, withMem bool) (_ *node, err error) {
	cfg := t.cfg
	var (
		dev   *blockio.Device
		store *ssdps.Store
		local *memps.MemPS
	)
	defer func() {
		if err != nil && dev != nil {
			dev.Close()
		}
	}()
	if withMem {
		dev, err = blockio.NewDevice(filepath.Join(root, fmt.Sprintf("node-%d", id)), cfg.Profile.SSD, t.work)
		if err != nil {
			return nil, fmt.Errorf("trainer: node %d device: %w", id, err)
		}
		store, err = ssdps.Open(dev, ssdps.Config{
			Dim:                     cfg.Spec.EmbeddingDim,
			ParamsPerFile:           cfg.ParamsPerFile,
			DiskUsageThresholdBytes: cfg.SSDThresholdBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("trainer: node %d ssd-ps: %w", id, err)
		}
		local, err = memps.New(memps.Config{
			NodeID:   id,
			Dim:      cfg.Spec.EmbeddingDim,
			Topology: cfg.Topology,
			// Every owner copies the keys it owns into the blocks of the
			// nodes that want them (stagePull), so no MEM-PS pulls from a
			// peer.
			Transport:         cluster.NoRoute{},
			Store:             store,
			Fabric:            t.fabric,
			MemoryBudgetBytes: cfg.Profile.MainMemoryBytes,
			LRUEntries:        cfg.LRUEntries,
			LFUEntries:        cfg.LFUEntries,
			Seed:              cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("trainer: node %d mem-ps: %w", id, err)
		}
	}
	hbm, err := hbmps.New(hbmps.Config{
		NodeID:     id,
		NumGPUs:    cfg.Topology.GPUsPerNode,
		Dim:        cfg.Spec.EmbeddingDim,
		GPUProfile: cfg.Profile.GPU,
		Clock:      t.work,
	})
	if err != nil {
		return nil, fmt.Errorf("trainer: node %d hbm-ps: %w", id, err)
	}
	// Every node streams its own shard of the click log: distinct seeds give
	// distinct (but identically distributed) example streams. Node 0 uses the
	// base seed so a single-node trainer sees exactly the stream the
	// reference oracle trains on.
	gen := dataset.NewGenerator(cfg.Data, cfg.Seed+int64(id)*7919)
	stream := hdfs.NewStream(gen, hdfs.Config{
		BatchSize:  cfg.BatchSize,
		MaxBatches: cfg.Batches,
	})
	workers := make([]*gpuWorker, cfg.Topology.GPUsPerNode)
	for g := range workers {
		workers[g] = &gpuWorker{acts: t.net.NewActivations(), grads: t.net.NewGradients()}
	}
	return &node{id: id, gen: gen, stream: stream, dev: dev, store: store, local: local, hbm: hbm,
		indexes: make(chan *keys.Index, cfg.MaxInFlight+readAhead), workers: workers}, nil
}

func (t *Trainer) addStageModelled(stage string, d time.Duration) {
	t.mu.Lock()
	t.stageModelled[stage] += d
	t.mu.Unlock()
}

// model prices w on the run's hardware profile.
func (t *Trainer) model(w hw.Work) hw.Times { return hw.Model(t.cfg.Profile, w) }

// slowest runs fn for every i in [0, n) (see each) and returns the largest
// modelled time an fn returned: parallel parties — nodes, owners — finish
// with the slowest.
func (t *Trainer) slowest(n int, fn func(i int) (time.Duration, error)) (time.Duration, error) {
	var mu sync.Mutex
	var d time.Duration
	err := t.each(n, func(i int) error {
		di, err := fn(i)
		mu.Lock()
		d = max(d, di)
		mu.Unlock()
		return err
	})
	return d, err
}

func (t *Trainer) maybeDelay(stage string) {
	if d := t.stageDelay[stage]; d > 0 {
		time.Sleep(d)
	}
}

// Run trains cfg.Batches batches through the 4-stage pipeline. It can be
// called once.
func (t *Trainer) Run(ctx context.Context) error {
	if t.cfg.Batches <= 0 {
		return fmt.Errorf("trainer: Batches must be positive, have %d", t.cfg.Batches)
	}
	// The depth gate guards parameters, not data: a batch takes a slot as it
	// enters the pull stage (the stage's Admit wait, outside its timing) and
	// the sink gives it back, so at most MaxInFlight batches lie between pull
	// and push and the parameters a batch trains on are at most
	// MaxInFlight-1 batches stale. At depth 1 the parameter stages keep
	// Algorithm 1's strict sequential ordering. The source admits
	// MaxInFlight+readAhead batches, so the read stage — which touches no
	// parameter — works one batch ahead of the gate instead of idling behind
	// it.
	gate := newDepthGate(t.cfg.MaxInFlight)
	event := t.stageEvent
	if event == nil {
		event = func(string, int, bool) {}
	}

	// A restored run's committed watermark starts at the restore cursor, not
	// zero, so the staleness accounting (job index minus committed) measures
	// this run's lag rather than the checkpoint's age.
	if t.committer != nil {
		t.committer.committed.Store(int64(t.restored))
	}

	// A restored run trains only the batches the checkpoint does not cover;
	// job indices continue from the cursor so serve epochs stay monotonic.
	remaining := t.cfg.Batches - t.restored
	if remaining <= 0 {
		return nil // the checkpoint already covers the whole run
	}
	next := 0
	source := func(ctx context.Context) (*job, bool, error) {
		if next >= remaining {
			return nil, false, nil
		}
		if err := gate.admit(ctx); err != nil {
			return nil, false, err
		}
		j := &job{index: next + t.restored, nodes: make([]*nodeBatch, len(t.nodes))}
		next++
		event("admit", j.index, true)
		return j, true, nil
	}
	sink := func(ctx context.Context, j *job) error {
		event("sink", j.index, true)
		gate.release()
		t.mu.Lock()
		t.batchesDone++
		done := t.batchesDone
		for _, nb := range j.nodes {
			t.examples += int64(nb.batch.Len())
		}
		t.mu.Unlock()
		if iv := int64(t.cfg.CheckpointInterval); iv > 0 && t.cfg.CheckpointPath != "" && done%iv == 0 {
			// Periodic durability point: flush every shard, then publish the
			// manifest. Batches still in the pipeline re-train after a
			// restore from this cut (see checkpoint.go).
			if err := t.Flush(); err != nil {
				return fmt.Errorf("trainer: checkpoint at batch %d: %w", done, err)
			}
		}
		if t.cfg.BatchPause > 0 {
			select {
			case <-time.After(t.cfg.BatchPause):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	}

	stage := func(name string, fn func(context.Context, *job) (*job, error)) pipeline.Stage[*job] {
		return pipeline.Stage[*job]{Name: name, Fn: func(ctx context.Context, j *job) (*job, error) {
			event(name, j.index, true)
			defer event(name, j.index, false)
			return fn(ctx, j)
		}}
	}
	pull := stage(StagePull, t.stagePull)
	pull.Admit = func(ctx context.Context, _ *job) error { return gate.acquire(ctx) }
	t.pipe = pipeline.New(stage(StageRead, t.stageRead), pull, stage(StageTrain, t.stageTrain), stage(StagePush, t.stagePush))
	err := t.pipe.Run(ctx, source, sink)
	if t.committer != nil {
		// Settle the committer before returning — on errors too, so a caller
		// that evaluates or checkpoints after a failed run still sees every
		// acked push applied.
		if derr := t.committer.drain(); err == nil {
			err = derr
		}
	}
	return err
}

// stageRead streams every node's batch of this index from HDFS and partitions
// its keys (Algorithm 1 lines 3-5, the CPU's one job between the read and the
// SSD): the later stages read the index instead of sorting again. The nodes
// stream in parallel, so the stage takes the slowest node's read.
func (t *Trainer) stageRead(_ context.Context, j *job) (*job, error) {
	t.maybeDelay(StageRead)
	modelled, err := t.slowest(len(t.nodes), func(i int) (time.Duration, error) {
		n := t.nodes[i]
		b, w, err := n.stream.NextBatch()
		if err != nil {
			return 0, err
		}
		if b == nil {
			return 0, fmt.Errorf("trainer: node %d stream exhausted at batch %d", n.id, j.index)
		}
		t.work.Add(w)
		var idx *keys.Index
		select {
		case idx = <-n.indexes:
		default:
			idx = new(keys.Index)
		}
		b.IndexInto(&n.indexer, idx)
		j.nodes[n.id] = &nodeBatch{batch: b, index: idx}
		return t.model(w).Sum(), nil
	})
	if err != nil {
		return nil, err
	}
	t.addStageModelled(StageRead, modelled)
	return j, nil
}

// stagePull assembles every node's working parameters and has their owners
// pin them (Algorithm 1 lines 3-4): cache hits from memory, misses from the
// SSD-PS, peer-owned keys from their owners. The batch's key union is dealt
// over the current owners once (splitByOwner), and every owner resolves its
// share for all nodes at once (owner.resolve); the stage pays the slowest,
// and an owner the slower of its SSD-PS reads and its network transfers,
// which overlap.
func (t *Trainer) stagePull(_ context.Context, j *job) (*job, error) {
	t.maybeDelay(StagePull)
	t.ownersMu.Lock()
	owners := t.owners
	err := t.splitByOwner(j, owners)
	t.ownersMu.Unlock()
	if err != nil {
		return nil, err
	}
	modelled, err := t.slowest(len(owners), func(i int) (time.Duration, error) {
		if owners[i] == nil {
			return 0, nil
		}
		w, err := owners[i].resolve(j.pull, t.pullBlocks)
		return t.model(w).Max(), err
	})
	if err != nil {
		return nil, err
	}
	t.addStageModelled(StagePull, modelled)
	return j, nil
}
