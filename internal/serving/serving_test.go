package serving_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hps/internal/blockio"
	"hps/internal/cluster"
	"hps/internal/dataset"
	"hps/internal/hw"
	"hps/internal/keys"
	"hps/internal/loadgen"
	"hps/internal/memps"
	"hps/internal/model"
	"hps/internal/ps"
	"hps/internal/serving"
	"hps/internal/ssdps"
	"hps/internal/trainer"
)

// servingShard is one in-test shard server with the serving tier armed:
// exactly what `hps serve` runs, minus the process boundary.
type servingShard struct {
	mem   *memps.MemPS
	serve *serving.Server
	srv   *cluster.TCPServer
}

// startServingShards brings up one TCP shard server per node, each wrapping
// its MEM-PS in a serving.Handler.
func startServingShards(t *testing.T, topo cluster.Topology, spec model.Spec, seed int64) ([]*servingShard, map[int]string) {
	t.Helper()
	shards := make([]*servingShard, topo.Nodes)
	addrs := make(map[int]string, topo.Nodes)
	for i := 0; i < topo.Nodes; i++ {
		dev, err := blockio.NewDevice(t.TempDir(), hw.DefaultGPUNode().SSD, hw.NewCounter())
		if err != nil {
			t.Fatal(err)
		}
		store, err := ssdps.Open(dev, ssdps.Config{Dim: spec.EmbeddingDim, ParamsPerFile: 64})
		if err != nil {
			t.Fatal(err)
		}
		mem, err := memps.New(memps.Config{
			NodeID:    i,
			Dim:       spec.EmbeddingDim,
			Topology:  topo,
			Transport: cluster.NoRoute{},
			Store:     store,
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		serveSrv, err := serving.New(serving.Config{
			NodeID:   i,
			Topology: topo,
			Dim:      spec.EmbeddingDim,
			Hidden:   spec.HiddenLayers,
			Local:    mem,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := cluster.ServeTCPOptions("127.0.0.1:0", serving.NewHandler(mem, serveSrv), cluster.ServerOptions{Seqs: cluster.NewSeqTracker()})
		if err != nil {
			t.Fatal(err)
		}
		sh := &servingShard{mem: mem, serve: serveSrv, srv: srv}
		t.Cleanup(func() { sh.srv.Close(); sh.serve.Close() })
		shards[i] = sh
		addrs[i] = srv.Addr()
	}
	return shards, addrs
}

// TestServeWhileTraining is the serving-under-training race pass (run under
// -race in CI): loadgen-style Predict traffic overlaps a full training run
// against the same two shard servers. Every score must be a finite
// probability, the replica cache must actually absorb the zipfian stream,
// and push-epoch invalidation must keep the reported staleness within one
// push epoch.
func TestServeWhileTraining(t *testing.T) {
	spec := model.TinySpec()
	data := dataset.ForModel(spec.SparseParams, spec.NonZerosPerExample)
	topo := cluster.Topology{Nodes: 2, GPUsPerNode: 1}
	const seed = 11

	_, addrs := startServingShards(t, topo, spec, seed)
	tr, err := trainer.New(trainer.Config{
		Spec:         spec,
		Data:         data,
		Topology:     topo,
		BatchSize:    64,
		Batches:      25,
		MaxInFlight:  2,
		Seed:         seed,
		RemoteShards: addrs,
		Serve:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Query clients get their own transport, like a real front-end would.
	qt := cluster.NewTCPTransport(addrs, spec.EmbeddingDim)
	defer qt.Close()

	stop := make(chan struct{})
	var served atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			gen := dataset.NewGenerator(data, int64(1000+client))
			target := client % topo.Nodes
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := cluster.PredictRequest{Counts: make([]uint32, 0, 8)}
				for e := 0; e < 8; e++ {
					ex := gen.NextExample()
					req.Counts = append(req.Counts, uint32(len(ex.Features)))
					req.Keys = append(req.Keys, ex.Features...)
				}
				scores, err := qt.Predict(target, req)
				target = (target + 1) % topo.Nodes
				if err != nil {
					if cluster.Retryable(err) {
						continue // overload shedding is fine mid-training
					}
					t.Errorf("predict: %v", err)
					return
				}
				for _, s := range scores {
					if math.IsNaN(float64(s)) || math.IsInf(float64(s), 0) || s < 0 || s > 1 {
						t.Errorf("score %v is not a probability", s)
						return
					}
				}
				served.Add(int64(len(scores)))
			}
		}(c)
	}

	if err := tr.Run(context.Background()); err != nil {
		t.Fatalf("training under serving load failed: %v", err)
	}
	close(stop)
	wg.Wait()

	if served.Load() == 0 {
		t.Fatal("no example was served during training")
	}
	clusterStats := func() cluster.ServingStats {
		var agg cluster.ServingStats
		for id := 0; id < topo.Nodes; id++ {
			st, err := qt.ServingStats(id)
			if err != nil {
				t.Fatal(err)
			}
			agg = agg.Add(st)
		}
		return agg
	}
	agg := clusterStats()
	if agg.Requests == 0 {
		t.Fatal("shards report zero served requests")
	}
	// Push-epoch invalidation bounds freshness: the dense replica (and the
	// replica cache) may lag the authoritative parameters by at most the one
	// push applied since the driver's last republish.
	if agg.StalenessMax > 1 {
		t.Fatalf("staleness %d push epochs, want <= 1", agg.StalenessMax)
	}
	if agg.PushEpoch != 25 || agg.DenseEpoch != 25 {
		t.Fatalf("epochs: push %d dense %d, want 25/25", agg.PushEpoch, agg.DenseEpoch)
	}

	// Agreement phase: serving and evaluation read the same authoritative
	// rows and the same dense parameters, so a served score equals
	// Trainer.Predict's bit for bit — on both target shards, the first time
	// through the peer fetch, the second through the replica cache.
	agree := dataset.NewGenerator(data, 777)
	for target := 0; target < topo.Nodes; target++ {
		req := cluster.PredictRequest{Counts: make([]uint32, 0, 8)}
		var examples [][]keys.Key
		for e := 0; e < 8; e++ {
			ex := agree.NextExample()
			examples = append(examples, ex.Features)
			req.Counts = append(req.Counts, uint32(len(ex.Features)))
			req.Keys = append(req.Keys, ex.Features...)
		}
		want := make([]float32, len(examples))
		for e, f := range examples {
			if want[e], err = tr.Predict(f); err != nil {
				t.Fatal(err)
			}
		}
		for pass, path := range []string{"peer fetch", "replica cache"} {
			st0, err := qt.ServingStats(target)
			if err != nil {
				t.Fatal(err)
			}
			got, err := qt.Predict(target, req)
			if err != nil {
				t.Fatal(err)
			}
			st1, err := qt.ServingStats(target)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case pass == 0 && st1.PeerFetches == st0.PeerFetches:
				t.Fatalf("shard %d: first predict made no peer fetch", target)
			case pass == 1 && (st1.CacheMisses != st0.CacheMisses || st1.CacheHits == st0.CacheHits):
				t.Fatalf("shard %d: second predict missed the replica cache", target)
			}
			for e := range want {
				if math.Float32bits(got[e]) != math.Float32bits(want[e]) {
					t.Fatalf("shard %d via %s: example %d served %v, Trainer.Predict %v", target, path, e, got[e], want[e])
				}
			}
		}
	}

	// Hit-rate phase: during training this fast, every batch's push
	// invalidates the replica cache (deliberately — freshness wins), so the
	// mid-training hit rate tells us nothing. With training finished the
	// push epoch is stable, and the zipfian stream must now be absorbed by
	// the hot-key cache.
	before := clusterStats()
	gen := dataset.NewGenerator(data, 4242)
	for i := 0; i < 150; i++ {
		req := cluster.PredictRequest{Counts: make([]uint32, 0, 8)}
		for e := 0; e < 8; e++ {
			ex := gen.NextExample()
			req.Counts = append(req.Counts, uint32(len(ex.Features)))
			req.Keys = append(req.Keys, ex.Features...)
		}
		if _, err := qt.Predict(i%topo.Nodes, req); err != nil {
			t.Fatal(err)
		}
	}
	after := clusterStats()
	hits := after.CacheHits - before.CacheHits
	misses := after.CacheMisses - before.CacheMisses
	if hits+misses == 0 {
		t.Fatal("post-training queries never touched the replica cache")
	}
	if rate := float64(hits) / float64(hits+misses); rate < 0.5 {
		t.Fatalf("replica cache hit rate %.2f on a zipfian stream, want > 0.5", rate)
	}
}

// slowReader is a local cluster.LookupHandler whose lookups block until
// released, to pin scoring workers down while the admission queue saturates.
type slowReader struct {
	dim     int
	release chan struct{}
}

func (r *slowReader) HandleLookupBlock(ks []keys.Key, dst *ps.ValueBlock) error {
	<-r.release
	dst.Reset(r.dim, ks)
	for i := range ks {
		dst.Present[i] = true
	}
	return nil
}

// TestOverloadBehavior saturates the admission queue and asserts the
// degradation contract: excess requests are rejected immediately with the
// typed, retryable overload error, nothing deadlocks, and once the queue
// drains every admitted request completes.
func TestOverloadBehavior(t *testing.T) {
	const dim = 4
	reader := &slowReader{dim: dim, release: make(chan struct{})}
	srv, err := serving.New(serving.Config{
		NodeID:   0,
		Topology: cluster.Topology{Nodes: 1, GPUsPerNode: 1},
		Dim:      dim,
		Hidden:   []int{4},
		Local:    reader,
		Workers:  1,
		MaxQueue: 1,
		// One example per pass: the second queued request must wait, not
		// merge into the first worker pass.
		CoalesceBatch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dense := make([]float32, (dim+1)*4+4+1)
	if err := srv.HandleServeConfig(cluster.ServeConfig{Dense: dense, Epoch: 0}); err != nil {
		t.Fatal(err)
	}

	req := cluster.PredictRequest{Counts: []uint32{1}, Keys: []keys.Key{1}}
	// Saturate from goroutines: admitted requests park on the blocked worker
	// (one busy, one queued), so the probes themselves must never run on the
	// test's main goroutine. Keep launching until a rejection is observed —
	// once the worker and queue slots are taken, every further request is
	// rejected immediately.
	var wg sync.WaitGroup
	var admitted, rejected atomic.Int64
	launch := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := srv.HandlePredict(req)
			if err == nil {
				admitted.Add(1)
				return
			}
			var oe *cluster.OverloadError
			if !errors.As(err, &oe) {
				t.Errorf("want *cluster.OverloadError, got %T: %v", err, err)
			}
			if !cluster.Retryable(err) {
				t.Error("overload rejection must be retryable")
			}
			rejected.Add(1)
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for rejected.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never saturated")
		}
		launch()
		time.Sleep(2 * time.Millisecond)
	}

	// Release the reader: every admitted request must complete — rejecting
	// the overflow is exactly what guarantees the admitted work drains.
	close(reader.release)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("admitted requests deadlocked")
	}
	if admitted.Load() == 0 {
		t.Fatal("no request was admitted")
	}
	st := srv.ServingStats()
	if st.Rejected == 0 {
		t.Fatal("rejection not counted")
	}
	if st.Requests != admitted.Load() {
		t.Fatalf("served %d, admitted %d", st.Requests, admitted.Load())
	}
}

// TestTrainingThroughputUnderServingLoad guards the isolation promise: a
// training run with serving traffic hammering the same shards must not be
// materially slower than the no-serving baseline. Remote-mode stage times
// are wall-derived and CI machines are noisy, so the bound is deliberately
// lenient — the 10%-budget intent of the check plus generous absolute slack;
// it fails on a genuine stall (serving blocking the push path), not on
// scheduler noise.
func TestTrainingThroughputUnderServingLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	spec := model.TinySpec()
	data := dataset.ForModel(spec.SparseParams, spec.NonZerosPerExample)
	topo := cluster.Topology{Nodes: 2, GPUsPerNode: 1}

	run := func(serve, load bool) time.Duration {
		t.Helper()
		_, addrs := startServingShards(t, topo, spec, 5)
		tr, err := trainer.New(trainer.Config{
			Spec:         spec,
			Data:         data,
			Topology:     topo,
			BatchSize:    64,
			Batches:      20,
			MaxInFlight:  2,
			Seed:         5,
			RemoteShards: addrs,
			Serve:        serve,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		done := make(chan struct{})
		if load {
			qt := cluster.NewTCPTransport(addrs, spec.EmbeddingDim)
			defer qt.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				defer close(done)
				loadgen.Run(ctx, loadgen.Config{
					Transport:   qt,
					Nodes:       topo.Nodes,
					Data:        data,
					Seed:        31,
					Duration:    time.Minute, // cancelled when training ends
					Concurrency: 2,
					BatchSize:   8,
				})
			}()
		} else {
			close(done)
		}
		start := time.Now()
		if err := tr.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		return elapsed
	}

	base := run(false, false)
	loaded := run(true, true)
	budget := base + base/10 + 2*time.Second
	if loaded > budget {
		t.Fatalf("training took %v under serving load, budget %v (baseline %v)", loaded, budget, base)
	}
}
