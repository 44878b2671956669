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
		dev, err := blockio.NewDevice(t.TempDir(), hw.DefaultGPUNode().SSD, hw.NewCounter())
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

// TestRemoteShardFailureRecovers kills a shard server mid-epoch and restarts
// it on the same address with the same shard state: the trainer's transport
// must reconnect and training must complete and converge, with no corrupted
// parameters: the reconnect tears down a connection and hellos its
// replacement.
func TestRemoteShardFailureRecovers(t *testing.T) {
	data := testData()
	spec := testSpec()
	topo := cluster.Topology{Nodes: 2, GPUsPerNode: 1}
	shards, addrs := startShards(t, topo, spec.EmbeddingDim, 3, 96, 96)

	tr, err := New(Config{
		Spec:         spec,
		Data:         data,
		Topology:     topo,
		BatchSize:    128,
		Batches:      20,
		MaxInFlight:  2,
		Seed:         3,
		RemoteShards: addrs,
		RemoteRetry:  cluster.RetryPolicy{Attempts: 8, Backoff: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	// Stretch the run so the outage lands mid-epoch.
	tr.stageDelay = map[string]time.Duration{StageTrain: 10 * time.Millisecond}

	runDone := make(chan error, 1)
	go func() { runDone <- tr.Run(context.Background()) }()

	// Kill shard 0 mid-run — once it has applied a push — then bring it back
	// on the same address with the same MEM-PS state and dedup tracker: a
	// crash-restart with durable shard state.
	sh := shards[0]
	waitFirstPush(t, sh)
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
	waitFirstPush(t, shards[1])
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

// waitFirstPush returns once sh has applied a push — the run is under way,
// so an outage lands mid-epoch — and fails the test after 30 s without one.
func waitFirstPush(t *testing.T, sh *shardServer) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); sh.mem.TierStats().Pushes == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the shard applied no push within 30 s")
		}
	}
}
