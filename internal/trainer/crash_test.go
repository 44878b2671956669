package trainer

import (
	"cmp"
	"context"
	"math"
	"testing"
	"time"

	"hps/internal/cluster"
	"hps/internal/dataset"
	"hps/internal/keys"
	"hps/internal/ps"
	"hps/internal/serving"
)

// openShard opens a shard server over cfg.Dir (default a fresh t.TempDir),
// restoring whatever a previous incarnation left there, on cfg.Addr (default
// a free loopback port) — exactly what `hps serve -dir ... -restore` runs,
// minus the process boundary — and closes it when the test ends. The model
// shape is testSpec's. No restore in these drills may drop an extent.
func openShard(t *testing.T, cfg serving.ShardConfig) *serving.Shard {
	t.Helper()
	spec := testSpec()
	cfg.Dim, cfg.Hidden, cfg.Restore = spec.EmbeddingDim, spec.HiddenLayers, true
	cfg.Addr = cmp.Or(cfg.Addr, "127.0.0.1:0")
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	sh, err := serving.OpenShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	if len(sh.Dropped) != 0 {
		t.Fatalf("shard %d restore dropped %v", cfg.NodeID, sh.Dropped)
	}
	return sh
}

// failovers is Report().Remote.Failovers without the report's stats RPCs,
// which would spend their retries on a dead shard.
func failovers(tr *Trainer) int64 {
	tr.remoteNet.mu.Lock()
	defer tr.remoteNet.mu.Unlock()
	return tr.remoteNet.failovers
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
	run := func(kill bool) (float64, map[int]*serving.Shard) {
		t.Helper()
		shards := map[int]*serving.Shard{}
		addrs := map[int]string{}
		for _, id := range members {
			// Each shard holds its own membership view, which the broadcasts
			// below move.
			topo := cluster.Topology{Nodes: len(members), GPUsPerNode: 1, Replicas: 2,
				Members: cluster.NewMembership(cluster.NewRing(members))}
			shards[id] = openShard(t, serving.ShardConfig{NodeID: id, Topology: topo,
				LRUEntries: 96, LFUEntries: 96, Seed: seed})
			addrs[id] = shards[id].TCP.Addr()
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
		if err := shards[1].TCP.Close(); err != nil {
			t.Fatal(err)
		}
		// The supervisor observes the death only after training has met it:
		// an operation on the dead primary was served by its backups on the
		// OLD ring.
		for deadline := time.Now().Add(30 * time.Second); failovers(tr) == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("training made no failover within 30 s of the kill")
			}
		}
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
		if !sh.Replicator.Drain(2 * time.Second) {
			t.Fatal("survivor replication queue did not drain")
		}
		transferred += sh.Replicator.Stats().TransferredKeys
	}
	if transferred == 0 {
		t.Fatal("survivors transferred nothing: re-replication after the promotion never ran")
	}
	oldRing := cluster.NewRing(members)
	checked := 0
	for _, k := range survivors[0].Mem.LocalKeys() {
		if oldRing.Owner(k) != 1 || checked >= 64 {
			continue
		}
		checked++
		for id, sh := range survivors {
			blk := ps.NewValueBlock(sh.Mem.Dim())
			if err := sh.Mem.HandleLookupBlock([]keys.Key{k}, blk); err != nil || !blk.Present[0] {
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
	sh0 := openShard(t, serving.ShardConfig{NodeID: 0, Topology: topo, LRUEntries: 96, LFUEntries: 96, Seed: seed})
	if sh0.Replayed != 0 {
		t.Fatalf("fresh shard replayed %d seq records from an empty dir", sh0.Replayed)
	}
	sh1 := openShard(t, serving.ShardConfig{NodeID: 1, Topology: topo, LRUEntries: 96, LFUEntries: 96, Seed: seed})
	addrs := map[int]string{0: sh0.TCP.Addr(), 1: sh1.TCP.Addr()}

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
	// flush, no handoff. Only its directory survives.
	for deadline := time.Now().Add(30 * time.Second); sh0.Mem.TierStats().Pushes == 0 || sh0.Mem.Store().Len() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("shard 0 applied no push or dumped no parameter within 30 s")
		}
	}
	addr := sh0.TCP.Addr()
	if err := sh0.TCP.Close(); err != nil {
		t.Fatal(err)
	}
	// The death also stops the shard's background SSD-PS write where it
	// stands: close the device under it, and let the write run out against
	// the closed device, so nothing of the dead shard reaches its directory
	// once the new incarnation has opened it. The flush fails; it is only the
	// wait.
	sh0.Mem.Store().Device().Close()
	sh0.Mem.Flush()
	preCrashPushes := sh0.Mem.TierStats().Pushes

	// Restart from the directory alone, on the same address.
	restarted := openShard(t, serving.ShardConfig{Addr: addr, NodeID: 0, Topology: topo, Dir: sh0.Dir,
		LRUEntries: 96, LFUEntries: 96, Seed: seed})
	replayed := restarted.Replayed
	if replayed == 0 {
		t.Fatal("restart replayed no persisted seq records: the dedup log did not survive the crash")
	}
	if int64(replayed) < preCrashPushes {
		t.Errorf("seq log replayed %d records but the dead shard had applied %d pushes — committed applies are missing",
			replayed, preCrashPushes)
	}
	if restarted.Mem.Store().Len() == 0 {
		t.Fatal("restarted shard recovered no parameters from the SSD-PS")
	}

	if err := <-runDone; err != nil {
		t.Fatalf("training did not survive the crash restart: %v", err)
	}
	r := tr.Report()
	if r.Remote == nil || r.Remote.Redials == 0 {
		t.Fatalf("run must have reconnected at least once: %+v", r.Remote)
	}
	if restarted.Mem.TierStats().Pushes == 0 {
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
