package trainer

import (
	"context"
	"math"
	"path/filepath"
	"testing"
	"time"

	"hps/internal/blockio"
	"hps/internal/cluster"
	"hps/internal/dataset"
	"hps/internal/hw"
	"hps/internal/memps"
	"hps/internal/serving"
	"hps/internal/simtime"
	"hps/internal/ssdps"
)

// durableShard brings up one shard server whose durable state — SSD-PS
// parameter files and the push-dedup seq log — lives in dir, exactly as
// `hps serve -dir` arranges it. It returns the server and how many persisted
// (client, seq) records were replayed into the dedup tracker, so a restart
// over a previous incarnation's directory can assert its dedup state came
// back. addr is "127.0.0.1:0" for a first start, or the previous address for
// a restart.
func durableShard(t *testing.T, dir string, topo cluster.Topology, id, dim int, seed int64, lru, lfu int, addr string) (*shardServer, int) {
	t.Helper()
	dev, err := blockio.NewDevice(dir, hw.DefaultGPUNode().SSD, simtime.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	store, err := ssdps.Open(dev, ssdps.Config{Dim: dim, ParamsPerFile: 64})
	if err != nil {
		t.Fatal(err)
	}
	if dropped, err := store.Recover(); err != nil || len(dropped) != 0 {
		t.Fatalf("recover: dropped %v, err %v", dropped, err)
	}
	mem, err := memps.New(memps.Config{
		NodeID:     id,
		Dim:        dim,
		Topology:   topo,
		Transport:  cluster.NoRoute{},
		Store:      store,
		LRUEntries: lru,
		LFUEntries: lfu,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	seqs := cluster.NewSeqTracker()
	seqLog, replayed, err := cluster.OpenSeqLog(filepath.Join(dir, "seqlog"), seqs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seqLog.Close() })
	seqs.AttachLog(seqLog)
	srv, err := cluster.ServeTCPOptions(addr, mem, cluster.ServerOptions{Seqs: seqs})
	if err != nil {
		t.Fatal(err)
	}
	sh := &shardServer{mem: mem, seqs: seqs, srv: srv}
	t.Cleanup(func() { sh.srv.Close() })
	return sh, replayed
}

// replTestShard is one replicated shard server: the full serve-side stack —
// MEM-PS, serving handler, replicator, push-dedup tracker — wired the way
// `hps serve -members ... -replicas 2` arranges it, with the shard's own
// membership view updated over the wire by membership broadcasts.
type replTestShard struct {
	mem  *memps.MemPS
	repl *memps.Replicator
	srv  *cluster.TCPServer
}

func replShard(t *testing.T, dir string, id, nodes, dim int, seed int64, members []int) *replTestShard {
	t.Helper()
	dev, err := blockio.NewDevice(dir, hw.DefaultGPUNode().SSD, simtime.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	store, err := ssdps.Open(dev, ssdps.Config{Dim: dim, ParamsPerFile: 64})
	if err != nil {
		t.Fatal(err)
	}
	ms := cluster.NewMembership(cluster.NewRing(members))
	topo := cluster.Topology{Nodes: nodes, GPUsPerNode: 1, Members: ms, Replicas: 2}
	mem, err := memps.New(memps.Config{
		NodeID:     id,
		Dim:        dim,
		Topology:   topo,
		Transport:  cluster.NoRoute{},
		Store:      store,
		LRUEntries: 96,
		LFUEntries: 96,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	peerTr := cluster.NewTCPTransport(map[int]string{}, dim)
	t.Cleanup(peerTr.Close)
	serveSrv, err := serving.New(serving.Config{
		NodeID:   id,
		Topology: topo,
		Dim:      dim,
		Hidden:   []int{8},
		Local:    mem,
		Peers:    peerTr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(serveSrv.Close)
	h := serving.NewHandler(mem, serveSrv)
	repl := memps.NewReplicator(mem, peerTr, memps.ReplicatorConfig{TransferPause: time.Millisecond})
	t.Cleanup(repl.Close)
	h.Replicator = repl
	h.Peers = peerTr
	seqs := cluster.NewSeqTracker()
	seqLog, _, err := cluster.OpenSeqLog(filepath.Join(dir, "seqlog"), seqs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seqLog.Close() })
	seqs.AttachLog(seqLog)
	h.Seqs = seqs
	srv, err := cluster.ServeTCPOptions("127.0.0.1:0", h, cluster.ServerOptions{Seqs: seqs})
	if err != nil {
		t.Fatal(err)
	}
	sh := &replTestShard{mem: mem, repl: repl, srv: srv}
	t.Cleanup(func() { sh.srv.Close() })
	return sh
}

// TestKillPrimaryMidEpochPromotesBackup is the replicated counterpart of the
// crash drill below: a primary is killed mid-epoch with R=2 and is NEVER
// restarted or restored from disk. The supervisor's response is a membership
// broadcast that removes the dead shard — promoting, for every key it owned,
// the backup that already holds every acked delta — after which the
// survivors re-replicate among themselves back to R=2. Training must ride
// the outage on pull/push failover and land within the same AUC tolerance as
// the restore-based drill, with the origin dedup stamps keeping retried
// in-flight pushes from being applied twice.
func TestKillPrimaryMidEpochPromotesBackup(t *testing.T) {
	data := testData()
	spec := testSpec()
	const seed = 5
	members := []int{0, 1, 2}
	batches, batchSize, evalN := 20, 128, 1500

	base := Config{
		Spec:        spec,
		Data:        data,
		BatchSize:   batchSize,
		Batches:     batches,
		MaxInFlight: 2,
		Seed:        seed,
		RemoteRetry: cluster.RetryPolicy{Attempts: 10, Backoff: 10 * time.Millisecond},
	}

	// run brings up a full replicated deployment — three shard servers, a
	// driver-side membership view, a control transport for broadcasts — and
	// trains over it, killing shard 1 mid-epoch when kill is set. It returns
	// the held-out AUC and the surviving shards.
	run := func(kill bool) (float64, map[int]*replTestShard) {
		t.Helper()
		shards := map[int]*replTestShard{}
		addrs := map[int]string{}
		for _, id := range members {
			shards[id] = replShard(t, t.TempDir(), id, len(members), spec.EmbeddingDim, seed, members)
			addrs[id] = shards[id].srv.Addr()
		}
		ms := cluster.NewMembership(cluster.NewRing(members))
		ctl := cluster.NewTCPTransport(addrs, spec.EmbeddingDim)
		t.Cleanup(ctl.Close)

		cfg := base
		cfg.Topology = cluster.Topology{Nodes: len(members), GPUsPerNode: 1, Members: ms, Replicas: 2}
		cfg.RemoteShards = addrs
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })

		applyRing := func(next *cluster.Ring) {
			u := cluster.MembershipUpdate{
				Epoch: next.Epoch(), Members: next.Members(),
				Replicas: 2, Addrs: addrs,
			}
			for _, id := range next.Members() {
				if err := ctl.UpdateMembership(id, u); err != nil {
					t.Errorf("membership epoch %d to shard %d: %v", u.Epoch, id, err)
				}
			}
			if err := tr.UpdateMembership(u); err != nil {
				t.Errorf("membership epoch %d to trainer: %v", u.Epoch, err)
			}
		}
		// The driver's first broadcast: one epoch above the shards' boot rings.
		applyRing(ms.Ring().WithEpoch(ms.Ring().Epoch() + 1))

		if !kill {
			if err := tr.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			return evalAUC(t, tr, dataset.NewGenerator(data, 999), evalN), shards
		}

		// Stretch the run so the kill lands mid-epoch with work in flight.
		tr.stageDelay = map[string]time.Duration{StageTrain: 10 * time.Millisecond}
		runDone := make(chan error, 1)
		go func() { runDone <- tr.Run(context.Background()) }()

		// Mid-epoch by progress, not by the clock: a race build trains several
		// times slower, and a kill during the first batches finds nothing
		// replicated yet. Eight of the twenty batches are through.
		for deadline := time.Now().Add(30 * time.Second); tr.Examples() < int64(8*batchSize*len(members)); {
			if time.Now().After(deadline) {
				t.Fatal("training made no progress before the kill")
			}
			time.Sleep(time.Millisecond)
		}
		// kill -9: the process image — cache, dedup map, sockets — is gone.
		// Nothing is flushed, and nothing will ever be restored from dir 1.
		if err := shards[1].srv.Close(); err != nil {
			t.Fatal(err)
		}
		// The supervisor needs time to observe the death; training meanwhile
		// rides per-key failover to the backups on the OLD ring.
		time.Sleep(80 * time.Millisecond)
		applyRing(ms.Ring().Leave(1))
		delete(shards, 1)

		if err := <-runDone; err != nil {
			t.Fatalf("training did not survive the kill + promotion: %v", err)
		}
		return evalAUC(t, tr, dataset.NewGenerator(data, 999), evalN), shards
	}

	baseAUC, _ := run(false)
	if baseAUC < 0.6 {
		t.Fatalf("undisturbed replicated run failed to learn (AUC %.4f)", baseAUC)
	}

	auc, survivors := run(true)
	t.Logf("undisturbed AUC = %.4f, kill-promotion AUC = %.4f", baseAUC, auc)
	if auc < 0.6 {
		t.Fatalf("post-promotion AUC = %.4f: parameters corrupted", auc)
	}
	if diff := math.Abs(baseAUC - auc); diff > 0.03 {
		t.Fatalf("kill-promotion run diverged from undisturbed run: |%.4f - %.4f| = %.4f > 0.03", auc, baseAUC, diff)
	}

	// Re-replication restored R=2: the Leave broadcast made the survivors
	// reconcile, so the dead shard's keys — whose only fresh copy was the
	// promoted backup — must be held by BOTH survivors again.
	transferred := int64(0)
	for _, sh := range survivors {
		if !sh.repl.Drain(2 * time.Second) {
			t.Fatal("survivor replication queue did not drain")
		}
		transferred += sh.repl.Stats().TransferredKeys
	}
	if transferred == 0 {
		t.Fatal("survivors transferred nothing: re-replication after the promotion never ran")
	}
	oldRing := cluster.NewRing(members)
	checked := 0
	for _, k := range survivors[0].mem.LocalKeys() {
		if oldRing.Owner(k) != 1 || checked >= 64 {
			continue
		}
		checked++
		for id, sh := range survivors {
			if sh.mem.Lookup(k) == nil {
				t.Fatalf("key %d (owned by the dead shard) missing from survivor %d: R=2 not restored", k, id)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no promoted keys found on the survivors")
	}
}

// TestCrashRestartRecoversDurableState is the end-to-end crash drill behind
// the driver's supervision path: a shard dies mid-run WITHOUT flushing (the
// in-process equivalent of kill -9 — its entire MEM-PS cache and dedup map
// are discarded), and a brand-new incarnation is rebuilt on the same address
// purely from the directory the old one left behind: SSD-PS recovery for the
// parameters it had dumped, seq-log replay for the dedup records it had
// committed. Training must ride the outage on retries and converge next to
// an undisturbed in-process run; the replayed seq records are what keep the
// trainer's retried in-flight pushes from being applied twice.
func TestCrashRestartRecoversDurableState(t *testing.T) {
	data := testData()
	spec := testSpec()
	const seed = 3
	topo := cluster.Topology{Nodes: 2, GPUsPerNode: 1}
	batches, batchSize, evalN := 20, 128, 1500

	base := Config{
		Spec:        spec,
		Data:        data,
		Topology:    topo,
		BatchSize:   batchSize,
		Batches:     batches,
		MaxInFlight: 2,
		Seed:        seed,
	}

	// The undisturbed baseline: same workload, in-process transport.
	baseline, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { baseline.Close() })
	if err := baseline.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	baseAUC := evalAUC(t, baseline, dataset.NewGenerator(data, 999), evalN)
	if baseAUC < 0.6 {
		t.Fatalf("baseline failed to learn (AUC %.4f)", baseAUC)
	}

	// Small caches force frequent eviction dumps, which is what bounds how
	// much un-flushed state a crash can destroy (the durability design: loss
	// is capped by the cache, not the run length).
	dir0 := t.TempDir()
	sh0, replayed := durableShard(t, dir0, topo, 0, spec.EmbeddingDim, seed, 96, 96, "127.0.0.1:0")
	if replayed != 0 {
		t.Fatalf("fresh shard replayed %d seq records from an empty dir", replayed)
	}
	sh1, _ := durableShard(t, t.TempDir(), topo, 1, spec.EmbeddingDim, seed, 96, 96, "127.0.0.1:0")
	addrs := map[int]string{0: sh0.srv.Addr(), 1: sh1.srv.Addr()}

	cfg := base
	cfg.RemoteShards = addrs
	cfg.RemoteRetry = cluster.RetryPolicy{Attempts: 10, Backoff: 10 * time.Millisecond}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	// Stretch the run so the crash lands mid-epoch with work in flight.
	tr.stageDelay = map[string]time.Duration{StageTrain: 10 * time.Millisecond}

	runDone := make(chan error, 1)
	go func() { runDone <- tr.Run(context.Background()) }()

	// Crash once the shard has applied a push and dumped a parameter to its
	// SSD-PS, so there is a seq record to replay and a file to recover: the
	// server stops answering and the whole process image is discarded — no
	// flush, no handoff. Only dir0 survives.
	for deadline := time.Now().Add(30 * time.Second); sh0.mem.TierStats().Pushes == 0 || sh0.mem.Store().Len() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("shard 0 applied no push or dumped no parameter within 30 s")
		}
	}
	addr := sh0.srv.Addr()
	if err := sh0.srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The death also stops the shard's background SSD-PS write where it
	// stands: close the device under it, and let the write run out against
	// the closed device, so nothing of the dead shard reaches dir0 once the
	// new incarnation has opened it. The flush fails; it is only the wait.
	sh0.mem.Store().Device().Close()
	sh0.mem.Flush()
	preCrashPushes := sh0.mem.TierStats().Pushes

	// Restart from the directory alone, on the same address.
	restarted, replayed := durableShard(t, dir0, topo, 0, spec.EmbeddingDim, seed, 96, 96, addr)
	if replayed == 0 {
		t.Fatal("restart replayed no persisted seq records: the dedup log did not survive the crash")
	}
	if int64(replayed) < preCrashPushes {
		t.Errorf("seq log replayed %d records but the dead shard had applied %d pushes — committed applies are missing",
			replayed, preCrashPushes)
	}
	if restarted.mem.Store().Len() == 0 {
		t.Fatal("restarted shard recovered no parameters from the SSD-PS")
	}

	if err := <-runDone; err != nil {
		t.Fatalf("training did not survive the crash restart: %v", err)
	}
	r := tr.Report()
	if r.Remote == nil || r.Remote.Redials == 0 {
		t.Fatalf("run must have reconnected at least once: %+v", r.Remote)
	}
	if restarted.mem.TierStats().Pushes == 0 {
		t.Fatal("restarted shard never saw a push")
	}

	// The crash loses whatever the dead cache had not yet dumped, so exact
	// parity is impossible — but the loss is cache-bounded, and the run must
	// land next to the undisturbed baseline, not in a corrupted-parameter
	// regime. (The tighter 0.005 transport-parity gate lives in
	// TestRemoteShardsMatchLocalAUC, where nothing crashes.)
	auc := evalAUC(t, tr, dataset.NewGenerator(data, 999), evalN)
	t.Logf("baseline AUC = %.4f, crash-restart AUC = %.4f (replayed %d seq records)", baseAUC, auc, replayed)
	if auc < 0.6 {
		t.Fatalf("post-crash AUC = %.4f: parameters corrupted by the restart", auc)
	}
	if diff := math.Abs(baseAUC - auc); diff > 0.03 {
		t.Fatalf("crash-restart run diverged from baseline: |%.4f - %.4f| = %.4f > 0.03", auc, baseAUC, diff)
	}
}
