package trainer

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"hps/internal/blockio"
	"hps/internal/cluster"
	"hps/internal/dataset"
	"hps/internal/hw"
	"hps/internal/memps"
	"hps/internal/simtime"
	"hps/internal/ssdps"
)

// shardServer is one in-test MEM-PS shard process stand-in: real TCP server,
// real SSD-PS directory, restartable with its state and dedup tracker.
type shardServer struct {
	mem  *memps.MemPS
	seqs *cluster.SeqTracker
	srv  *cluster.TCPServer
}

// startShards brings up one TCP shard server per member of topo, each
// hosting the MEM-PS (backed by an SSD-PS under t.TempDir) of its parameter
// shard. shards[i] is member i's server.
func startShards(t *testing.T, topo cluster.Topology, dim int, seed int64, lru, lfu int) ([]*shardServer, map[int]string) {
	t.Helper()
	ids := topo.MemberIDs()
	shards := make([]*shardServer, len(ids))
	addrs := make(map[int]string, len(ids))
	for _, i := range ids {
		dev, err := blockio.NewDevice(t.TempDir(), hw.DefaultGPUNode().SSD, simtime.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		store, err := ssdps.Open(dev, ssdps.Config{Dim: dim, ParamsPerFile: 64})
		if err != nil {
			t.Fatal(err)
		}
		mem, err := memps.New(memps.Config{
			NodeID:     i,
			Dim:        dim,
			Topology:   topo,
			Transport:  cluster.NoRoute{}, // a shard server never proxies peers
			Store:      store,
			LRUEntries: lru,
			LFUEntries: lfu,
			Seed:       seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		seqs := cluster.NewSeqTracker()
		srv, err := cluster.ServeTCPOptions("127.0.0.1:0", mem, cluster.ServerOptions{Seqs: seqs})
		if err != nil {
			t.Fatal(err)
		}
		sh := &shardServer{mem: mem, seqs: seqs, srv: srv}
		t.Cleanup(func() { sh.srv.Close() })
		shards[i] = sh
		addrs[i] = srv.Addr()
	}
	return shards, addrs
}

// TestRemoteShardsMatchLocalAUC is the acceptance check for multi-process
// training: the same Table-3-style workload trained against two MEM-PS shard
// processes over real TCP sockets must converge within 0.5% AUC of the
// in-process LocalTransport run.
func TestRemoteShardsMatchLocalAUC(t *testing.T) {
	data := testData()
	spec := testSpec()
	const seed = 7
	// One GPU per node and sequential node visits remove scheduling
	// nondeterminism (worker interleaving on the shared dense tower moves a
	// run's AUC by a few tenths of a percent either way), so the 0.5% band
	// measures the transport substitution and nothing else. The concurrent
	// paths are covered by the fault-injection tests below and by
	// TestMultiNodeMultiGPU.
	topo := cluster.Topology{Nodes: 2, GPUsPerNode: 1}
	batches, batchSize, evalN := 30, 128, 1500

	base := Config{
		Spec:        spec,
		Data:        data,
		Topology:    topo,
		BatchSize:   batchSize,
		Batches:     batches,
		MaxInFlight: 1,
		Seed:        seed,
	}
	runDeterministic := func(cfg Config) *Trainer {
		t.Helper()
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		tr.sequential = true
		if err := tr.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return tr
	}

	local := runDeterministic(base)
	localAUC := evalAUC(t, local, dataset.NewGenerator(data, 999), evalN)

	shards, addrs := startShards(t, topo, spec.EmbeddingDim, seed, 0, 0)
	remoteCfg := base
	remoteCfg.RemoteShards = addrs
	remote := runDeterministic(remoteCfg)
	remoteAUC := evalAUC(t, remote, dataset.NewGenerator(data, 999), evalN)

	t.Logf("local AUC = %.4f, remote AUC = %.4f", localAUC, remoteAUC)
	if localAUC < 0.6 {
		t.Fatalf("in-process run failed to learn (AUC %.4f)", localAUC)
	}
	if diff := math.Abs(localAUC - remoteAUC); diff > 0.005 {
		t.Fatalf("multi-process run diverged: |%.4f - %.4f| = %.4f > 0.005", remoteAUC, localAUC, diff)
	}

	r := remote.Report()
	if r.Remote == nil {
		t.Fatal("multi-process run must report real network activity")
	}
	if r.Remote.Pulls == 0 || r.Remote.Pushes == 0 || r.Remote.PullWall <= 0 {
		t.Fatalf("remote network report empty: %+v", r.Remote)
	}
	if len(r.Tiers) != 2 {
		t.Fatalf("remote run reports %d tiers, want hbm + mem", len(r.Tiers))
	}
	if r.Tiers[1].Name != "mem-ps" || r.Tiers[1].Stats.Pushes == 0 {
		t.Fatalf("remote mem-ps stats not fetched over the wire: %+v", r.Tiers[1])
	}
	// The shard servers did the parameter work: their MEM-PS must have seen
	// every batch's pushes.
	for i, sh := range shards {
		if sh.mem.TierStats().Pushes == 0 {
			t.Fatalf("shard %d never saw a push", i)
		}
	}
}

// quantBand is how far the mean held-out AUC of a quantized-wire
// configuration, averaged over aucSeeds, may land from the fp32-wire mean.
// The runs are deterministic (sequential hook, one RPC in flight), so what a
// single seed shows is not noise but where rounding happened to push that
// trajectory — and it is as large as the 0.001 a single seed-7 pair used to
// be held to. Measured over seeds 1–12, same-seed difference from fp32
// (30 batches of 128, 6,000 held-out examples):
//
//	           rms      range
//	fp16       0.0009   -0.0012 … +0.0023
//	int8       0.0008   -0.0011 … +0.0014
//	fp16+push  0.0010   -0.0008 … +0.0028
//	int8+push  0.0008   -0.0013 … +0.0015
//
// with no codec pulling one way (the twelve-seed means lie between -0.0000
// and +0.0004). A three-seed mean therefore has an rms of ≈0.0006; the band is
// four of those. A codec that loses information training needs moves every
// seed the same way, by percents.
const quantBand = 0.0025

// TestQuantizedWireMatchesFP32AUC is the accuracy gate of the quantized
// transport: the same multi-process workload trained with fp16 and int8 wire
// rows — on pulls only, or on pushed deltas as well — must converge to the
// fp32-wire run's AUC, compared as means over aucSeeds (see quantBand).
func TestQuantizedWireMatchesFP32AUC(t *testing.T) {
	data := testData()
	spec := testSpec()
	topo := cluster.Topology{Nodes: 2, GPUsPerNode: 1}

	runAUC := func(seed int64, prec string, quantPush bool) float64 {
		t.Helper()
		_, addrs := startShards(t, topo, spec.EmbeddingDim, seed, 0, 0)
		tr, err := New(Config{
			Spec:          spec,
			Data:          data,
			Topology:      topo,
			BatchSize:     128,
			Batches:       30,
			MaxInFlight:   1,
			Seed:          seed,
			RemoteShards:  addrs,
			WirePrecision: prec,
			QuantizePush:  quantPush,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		tr.sequential = true
		if err := tr.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if r := tr.Report(); r.Remote == nil || r.Remote.WireBytes == 0 {
			t.Fatalf("run reported no raw wire traffic: %+v", r.Remote)
		}
		return evalAUC(t, tr, dataset.NewGenerator(data, 999), 6000)
	}
	meanAUC := func(prec string, quantPush bool) float64 {
		var aucs []float64
		for _, seed := range aucSeeds {
			aucs = append(aucs, runAUC(seed, prec, quantPush))
		}
		return mean(aucs)
	}

	fp32 := meanAUC("fp32", false)
	if fp32 < 0.6 {
		t.Fatalf("fp32-wire runs failed to learn (mean AUC %.4f)", fp32)
	}
	for _, tc := range []struct {
		prec      string
		quantPush bool
	}{
		{"fp16", false},
		{"int8", false},
		{"fp16", true},
		{"int8", true},
	} {
		name := tc.prec
		if tc.quantPush {
			name += "+push"
		}
		auc := meanAUC(tc.prec, tc.quantPush)
		t.Logf("mean fp32 AUC = %.4f, mean %s AUC = %.4f", fp32, name, auc)
		if diff := math.Abs(fp32 - auc); diff > quantBand {
			t.Fatalf("%s wire diverged: |%.4f - %.4f| = %.4f > %g", name, auc, fp32, diff, quantBand)
		}
	}
}

// TestRemoteShardFailureRecovers kills a shard server mid-epoch and restarts
// it on the same address with the same shard state: the trainer's transport
// must reconnect and training must complete and converge, with no corrupted
// parameters. The run uses quantized frames, so the reconnect tears down a
// raw-negotiated connection and negotiates its replacement.
func TestRemoteShardFailureRecovers(t *testing.T) {
	data := testData()
	spec := testSpec()
	topo := cluster.Topology{Nodes: 2, GPUsPerNode: 1}
	shards, addrs := startShards(t, topo, spec.EmbeddingDim, 3, 96, 96)

	tr, err := New(Config{
		Spec:          spec,
		Data:          data,
		Topology:      topo,
		BatchSize:     128,
		Batches:       20,
		MaxInFlight:   2,
		Seed:          3,
		RemoteShards:  addrs,
		RemoteRetry:   cluster.RetryPolicy{Attempts: 8, Backoff: 10 * time.Millisecond},
		WirePrecision: "fp16",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	// Stretch the run so the outage lands mid-epoch.
	tr.stageDelay = map[string]time.Duration{StageTrain: 10 * time.Millisecond}

	runDone := make(chan error, 1)
	go func() { runDone <- tr.Run(context.Background()) }()

	// Kill shard 0 mid-run, then bring it back on the same address with the
	// same MEM-PS state and dedup tracker — a crash-restart with durable
	// shard state.
	time.Sleep(50 * time.Millisecond)
	sh := shards[0]
	addr := sh.srv.Addr()
	if err := sh.srv.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	srv2, err := cluster.ServeTCPOptions(addr, sh.mem, cluster.ServerOptions{Seqs: sh.seqs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })

	if err := <-runDone; err != nil {
		t.Fatalf("training did not survive the shard restart: %v", err)
	}
	r := tr.Report()
	if r.Remote == nil || r.Remote.Redials == 0 {
		t.Fatalf("run must have reconnected at least once: %+v", r.Remote)
	}
	auc := evalAUC(t, tr, dataset.NewGenerator(data, 999), 1000)
	if auc < 0.6 {
		t.Fatalf("post-recovery AUC = %.4f: parameters corrupted by the outage", auc)
	}
}

// TestRemoteShardFailureSurfacesTypedError checks the no-recovery path: when
// a shard dies for good, the pipeline drains and Run surfaces a retryable
// transport error the caller can classify, rather than hanging or panicking.
func TestRemoteShardFailureSurfacesTypedError(t *testing.T) {
	data := testData()
	spec := testSpec()
	topo := cluster.Topology{Nodes: 2, GPUsPerNode: 1}
	shards, addrs := startShards(t, topo, spec.EmbeddingDim, 3, 0, 0)

	tr, err := New(Config{
		Spec:         spec,
		Data:         data,
		Topology:     topo,
		BatchSize:    64,
		Batches:      50,
		MaxInFlight:  2,
		Seed:         3,
		RemoteShards: addrs,
		RemoteRetry:  cluster.RetryPolicy{Attempts: 2, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.stageDelay = map[string]time.Duration{StageTrain: 5 * time.Millisecond}

	runDone := make(chan error, 1)
	go func() { runDone <- tr.Run(context.Background()) }()
	time.Sleep(30 * time.Millisecond)
	if err := shards[1].srv.Close(); err != nil {
		t.Fatal(err)
	}

	runErr := <-runDone
	if runErr == nil {
		t.Fatal("training against a dead shard must fail")
	}
	var te *cluster.TransportError
	if !errors.As(runErr, &te) {
		t.Fatalf("run error = %v, want a *cluster.TransportError in the chain", runErr)
	}
	if !cluster.Retryable(runErr) {
		t.Fatal("a dead-shard failure must classify as retryable")
	}
	// The surviving shard's parameters must still be readable and sane: the
	// failure tore down the run, not the parameter server state.
	if shards[0].mem.TierStats().Pulls == 0 {
		t.Fatal("surviving shard should have served pulls")
	}
	_ = tr.Close() // flush to the dead shard fails; Close must not hang or panic
}
