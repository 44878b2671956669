package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"hps/internal/dataset"
	"hps/internal/keys"
)

func ringKeys(n int, seed int64) []keys.Key {
	rng := rand.New(rand.NewSource(seed))
	ks := make([]keys.Key, n)
	for i := range ks {
		ks[i] = keys.Key(rng.Uint64())
	}
	return ks
}

// TestRingPlacementDeterministic proves placement is a pure function of the
// member set: two rings built independently — from differently ordered and
// duplicated member lists — agree on every owner and every replica set. This
// is what lets the driver, the shards, the trainer, and the load generator
// each rebuild the ring from a MembershipUpdate's member list.
func TestRingPlacementDeterministic(t *testing.T) {
	a := NewRing([]int{0, 1, 2, 3})
	b := NewRing([]int{3, 1, 0, 2, 1, 3})
	for _, k := range ringKeys(5000, 1) {
		if ao, bo := a.Owner(k), b.Owner(k); ao != bo {
			t.Fatalf("key %d: owners disagree across identical member sets (%d vs %d)", k, ao, bo)
		}
		ar, br := a.Replicas(k, 2), b.Replicas(k, 2)
		if len(ar) != 2 || len(br) != 2 || ar[0] != br[0] || ar[1] != br[1] {
			t.Fatalf("key %d: replica sets disagree (%v vs %v)", k, ar, br)
		}
	}
}

// idsUpTo returns the member ids 0..n-1.
func idsUpTo(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// TestRingReplicaDisjoint proves a replica set never places two copies on the
// same member, that the primary equals Owner and the first backup Backup, and
// that ReplicaRank (the allocation-free hot-path form) is each member's index
// in Replicas for every n up to the member count — past 8 too.
func TestRingReplicaDisjoint(t *testing.T) {
	for _, size := range []int{2, 5, 12} {
		r := NewRing(idsUpTo(size))
		for _, k := range ringKeys(1000, 2) {
			all := r.Replicas(k, size+1)
			if len(all) != size {
				t.Fatalf("size %d key %d: want %d replicas, got %v", size, k, size, all)
			}
			if all[0] != r.Owner(k) || all[1] != r.Backup(k) {
				t.Fatalf("size %d key %d: replicas %v, Owner %d, Backup %d", size, k, all, r.Owner(k), r.Backup(k))
			}
			seen := map[int]bool{}
			for _, m := range all {
				if seen[m] {
					t.Fatalf("size %d key %d: member %d appears twice in %v", size, k, m, all)
				}
				seen[m] = true
			}
			if r.ReplicaRank(k, size, size) != -1 {
				t.Fatalf("size %d key %d: non-member %d has a rank", size, k, size)
			}
			for n := 1; n <= size; n++ {
				reps := r.Replicas(k, n)
				if !slices.Equal(reps, all[:n]) {
					t.Fatalf("size %d key %d: Replicas(%d) = %v, not a prefix of %v", size, k, n, reps, all)
				}
				for _, m := range all {
					if got, want := r.ReplicaRank(k, m, n), slices.Index(reps, m); got != want {
						t.Fatalf("size %d key %d: ReplicaRank(%d, %d) = %d, want %d", size, k, m, n, got, want)
					}
				}
			}
		}
	}
}

// TestRingBoundedMovement is the property resharding rests on: adding one
// member to N moves keys only to the joiner, and about 1/(N+1) of them.
// Modulo placement would move (N-1)/N of all keys on any size change.
func TestRingBoundedMovement(t *testing.T) {
	ks := ringKeys(20000, 3)
	for _, n := range []int{1, 2, 3, 4, 8} {
		before := NewRing(idsUpTo(n))

		join := before.Join(n)
		moved := 0
		for _, k := range ks {
			was, is := before.Owner(k), join.Owner(k)
			if was != is {
				moved++
				if is != n {
					t.Fatalf("n=%d join: key %d moved %d->%d, not to the joining member", n, k, was, is)
				}
			}
		}
		frac := float64(moved) / float64(len(ks))
		if bound := 1.5 / float64(n+1); frac > bound {
			t.Errorf("n=%d join moved %.3f of keys, want <= %.3f", n, frac, bound)
		}
		if moved == 0 {
			t.Errorf("n=%d join moved no keys: the new member owns nothing", n)
		}
	}
}

// TestRingLeavePromotesBackup proves the failover identity: when any one of
// N members leaves, every key it owned goes to what was its first backup and
// no other key moves. Promotion is therefore nothing more than installing
// the post-Leave ring — the backup already holds the replicated data.
func TestRingLeavePromotesBackup(t *testing.T) {
	ks := ringKeys(10000, 4)
	for _, n := range []int{2, 3, 4, 8} {
		before := NewRing(idsUpTo(n))
		for leaver := 0; leaver < n; leaver++ {
			after := before.Leave(leaver)
			for _, k := range ks {
				was, is := before.Owner(k), after.Owner(k)
				switch {
				case was == leaver && is != before.Backup(k):
					t.Fatalf("n=%d leave of %d: key %d went to %d, not its first backup %d", n, leaver, k, is, before.Backup(k))
				case was != leaver && is != was:
					t.Fatalf("n=%d leave of %d: key %d moved %d->%d", n, leaver, k, was, is)
				}
			}
		}
	}
}

// TestRingBalancesPerBatchUniqueKeys pins the balance that lets one placement
// serve every run: a shard's pull and push work is its share of a batch's
// unique keys, and the busiest member's share, averaged over batches and over
// 20 re-salted key-id maps, stays within 2 points of an even split at N=2 and
// N=3 on the bench's hot (20k keys, 20 non-zeros) and cold (60k keys, 50
// non-zeros) shapes at 256 examples per batch. A 64-virtual-node ring put
// about 54% on one of two members.
func TestRingBalancesPerBatchUniqueKeys(t *testing.T) {
	const batches, batchSize, maps = 20, 256, 20
	for _, shape := range []struct {
		name     string
		features int64
		nnz      int
	}{{"hot", 20000, 20}, {"cold", 60000, 50}} {
		gen := dataset.NewGenerator(dataset.ForModel(shape.features, shape.nnz), 1)
		unique := make([][]keys.Key, batches)
		for b := range unique {
			unique[b] = keys.Dedup(gen.NextBatch(batchSize).Keys())
		}
		for _, c := range []struct {
			n     int
			bound float64
		}{{2, 0.52}, {3, 0.355}} {
			r := NewRing(idsUpTo(c.n))
			var sum float64
			for salt := range maps {
				mask := keys.Mix64(uint64(salt))
				for _, ks := range unique {
					counts := make([]int, c.n)
					for _, k := range ks {
						counts[r.Owner(keys.Key(uint64(k)^mask))]++
					}
					sum += float64(slices.Max(counts)) / float64(len(ks))
				}
			}
			share := sum / (maps * batches)
			t.Logf("%s N=%d: busiest member %.1f%%", shape.name, c.n, 100*share)
			if share > c.bound {
				t.Errorf("%s N=%d: busiest member takes %.1f%% of per-batch unique keys, want <= %.1f%%",
					shape.name, c.n, 100*share, 100*c.bound)
			}
		}
	}
}

// TestMembershipEpochOrdering proves a membership view only moves forward:
// stale or replayed updates are rejected, so out-of-order control-plane
// delivery cannot roll placement back.
func TestMembershipEpochOrdering(t *testing.T) {
	r0 := NewRing([]int{0, 1})
	m := NewMembership(r0)
	r1 := r0.Join(2) // epoch 1
	if !m.Update(r1) {
		t.Fatal("newer epoch rejected")
	}
	if m.Update(r0) {
		t.Fatal("stale epoch accepted")
	}
	if m.Update(r1.WithEpoch(1)) {
		t.Fatal("equal epoch accepted")
	}
	if m.Epoch() != 1 || !m.Ring().Contains(2) {
		t.Fatalf("view rolled back: epoch %d members %v", m.Epoch(), m.Ring().Members())
	}

	u := MembershipUpdate{Epoch: 2, Members: []int{0, 1, 2, 3}, Replicas: 2}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	if !m.Update(u.BuildRing()) {
		t.Fatal("rebuilt update rejected")
	}
	if got := m.Ring().Members(); len(got) != 4 {
		t.Fatalf("members after update: %v", got)
	}
	if err := (MembershipUpdate{Epoch: 3}).Validate(); err == nil {
		t.Fatal("empty member list validated")
	}
}

// TestTopologyRingFallback proves a topology without a membership view
// places exactly like one holding a view over 0..Nodes-1, for every key and
// without allocating per call, and that the Topology surface follows an
// attached view's ring, replicas and changes.
func TestTopologyRingFallback(t *testing.T) {
	ks := ringKeys(2000, 5)

	bare := Topology{Nodes: 3, GPUsPerNode: 1}
	viewed := Topology{Nodes: 3, GPUsPerNode: 1, Members: NewMembership(NewRing([]int{0, 1, 2}))}
	for _, k := range ks {
		if bare.NodeOf(k) != viewed.NodeOf(k) {
			t.Fatalf("key %d: no view places on %d, a view over 0..2 on %d", k, bare.NodeOf(k), viewed.NodeOf(k))
		}
		if !bare.HoldsKey(k, bare.NodeOf(k)) || bare.HoldsKey(k, (bare.NodeOf(k)+1)%3) {
			t.Fatal("unreplicated HoldsKey broken")
		}
		if bare.BackupOf(k) != -1 {
			t.Fatal("unreplicated topology reports a backup")
		}
	}
	if !slices.Equal(bare.MemberIDs(), []int{0, 1, 2}) {
		t.Fatalf("MemberIDs without a view: %v", bare.MemberIDs())
	}
	if a := testing.AllocsPerRun(100, func() { bare.NodeOf(ks[0]); bare.HoldsKey(ks[1], 2); bare.MemberIDs() }); a != 0 {
		t.Fatalf("placement without a view allocates %.0f times per call", a)
	}

	ring := NewRing([]int{0, 1, 2})
	rt := Topology{Nodes: 3, GPUsPerNode: 1, Members: NewMembership(ring), Replicas: 2}
	split := rt.SplitByNode(ks)
	total := 0
	for node, part := range split {
		total += len(part)
		for _, k := range part {
			if ring.Owner(k) != node {
				t.Fatalf("key %d split to %d, ring owner %d", k, node, ring.Owner(k))
			}
		}
	}
	if total != len(ks) {
		t.Fatalf("split dropped keys: %d != %d", total, len(ks))
	}
	for _, k := range ks[:200] {
		reps := rt.Ring().Replicas(k, rt.Replicas)
		if len(reps) != 2 || reps[0] == reps[1] {
			t.Fatalf("replica set %v", reps)
		}
		if rt.BackupOf(k) != reps[1] {
			t.Fatal("BackupOf disagrees with the ring's replica list")
		}
		if !rt.HoldsKey(k, reps[0]) || !rt.HoldsKey(k, reps[1]) {
			t.Fatal("replica not recognized as holder")
		}
	}

	// A membership change re-points the shared view in place.
	if !rt.Members.Update(ring.Join(3)) {
		t.Fatal("join rejected")
	}
	found := false
	for _, k := range ks {
		if rt.NodeOf(k) == 3 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("joined member owns nothing through Topology")
	}
}
