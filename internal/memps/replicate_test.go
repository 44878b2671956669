package memps

import (
	"slices"
	"testing"
	"time"

	"hps/internal/cluster"
	"hps/internal/hw"
	"hps/internal/keys"
	"hps/internal/ps"
)

// replCluster is an in-process replicated deployment: one MemPS per member,
// all sharing a single membership view and wired through a LocalTransport.
type replCluster struct {
	ms       *cluster.Membership
	lt       *cluster.LocalTransport
	nodes    map[int]*MemPS
	reps     map[int]*Replicator
	replicas int
}

func newReplCluster(t *testing.T, members []int) *replCluster {
	return newReplClusterR(t, members, 2)
}

func newReplClusterR(t *testing.T, members []int, replicas int) *replCluster {
	t.Helper()
	const dim = 4
	c := &replCluster{
		ms:       cluster.NewMembership(cluster.NewRing(members)),
		lt:       cluster.NewLocalTransport(dim),
		nodes:    map[int]*MemPS{},
		reps:     map[int]*Replicator{},
		replicas: replicas,
	}
	for _, id := range members {
		c.addNode(t, id)
	}
	return c
}

func (c *replCluster) topo() cluster.Topology {
	return cluster.Topology{Nodes: 3, GPUsPerNode: 1, Members: c.ms, Replicas: c.replicas}
}

func (c *replCluster) addNode(t *testing.T, id int) *MemPS {
	t.Helper()
	clock := hw.NewCounter()
	m, err := New(Config{
		NodeID:     id,
		Dim:        4,
		Topology:   c.topo(),
		Transport:  c.lt,
		Store:      newStore(t, 4, clock),
		Clock:      clock,
		LRUEntries: 256,
		LFUEntries: 256,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.lt.Register(id, m)
	c.nodes[id] = m
	r := NewReplicator(m, c.lt, ReplicatorConfig{TransferPause: time.Microsecond})
	t.Cleanup(r.Close)
	c.reps[id] = r
	return m
}

// deltaBlock builds a push block of ones-deltas for ks.
func deltaBlock(ks []keys.Key) *ps.ValueBlock {
	blk := ps.GetBlock(4, nil)
	w := []float32{1, 1, 1, 1}
	for _, k := range ks {
		blk.AppendRow(k, w, w, 1)
	}
	return blk
}

// keysOwnedBy returns n test keys whose ring primary is node.
func keysOwnedBy(r *cluster.Ring, node, n int) []keys.Key {
	var ks []keys.Key
	for k := keys.Key(1); len(ks) < n; k++ {
		if r.Owner(k) == node {
			ks = append(ks, k)
		}
	}
	return ks
}

func value(t *testing.T, m *MemPS, k keys.Key) []float32 {
	t.Helper()
	vals := lookupAll(t, m, []keys.Key{k})
	v, ok := vals[k]
	if !ok {
		t.Fatalf("node %d does not hold key %d", m.NodeID(), k)
	}
	return v.Weights
}

func sameWeights(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestForwardReplicatesToBackup proves the forward path end to end: a primary
// applies a push, forwards it, and the backup converges to the exact same
// value — including a key the backup had never seen, which it must initialize
// identically to the primary (node-independent keyed init).
func TestForwardReplicatesToBackup(t *testing.T) {
	c := newReplCluster(t, []int{0, 1, 2})
	ring := c.ms.Ring()
	ks := keysOwnedBy(ring, 0, 8)

	blk := deltaBlock(ks)
	defer ps.PutBlock(blk)
	if err := c.nodes[0].HandlePushBlock(blk); err != nil {
		t.Fatal(err)
	}
	c.reps[0].Forward(9, 1, blk)
	if !c.reps[0].Drain(time.Second) {
		t.Fatal("forward queue did not drain")
	}

	for _, k := range ks {
		b := ring.Backup(k)
		if b == 0 {
			t.Fatalf("key %d: backup is the primary", k)
		}
		if !sameWeights(value(t, c.nodes[0], k), value(t, c.nodes[b], k)) {
			t.Fatalf("key %d: backup %d diverged from primary", k, b)
		}
	}
	st := c.reps[0].Stats()
	if st.Forwarded == 0 || st.ForwardedKeys != int64(len(ks)) || st.Errors != 0 || st.Pending != 0 {
		t.Fatalf("forward stats: %+v", st)
	}

	// The symmetric failover path: a push applied by the backup (the primary
	// is down, the trainer repointed) flows back so a recovered primary is
	// not missing the failover-era deltas.
	k := ks[0]
	b := ring.Backup(k)
	fo := deltaBlock([]keys.Key{k})
	defer ps.PutBlock(fo)
	if err := c.nodes[b].HandlePushBlock(fo); err != nil {
		t.Fatal(err)
	}
	c.reps[b].Forward(9, 2, fo)
	if !c.reps[b].Drain(time.Second) {
		t.Fatal("failover forward did not drain")
	}
	if !sameWeights(value(t, c.nodes[0], k), value(t, c.nodes[b], k)) {
		t.Fatalf("key %d: primary missed the failover-era delta", k)
	}
}

// TestReconcileAfterJoin proves re-replication: after a member joins, the
// designated senders transfer exactly the keys whose replica set the joiner
// entered, and the joiner ends up holding them with the senders' values.
func TestReconcileAfterJoin(t *testing.T) {
	c := newReplCluster(t, []int{0, 1, 2})
	old := c.ms.Ring()

	// Seed every shard with applied, replicated state.
	for _, id := range []int{0, 1, 2} {
		ks := keysOwnedBy(old, id, 12)
		blk := deltaBlock(ks)
		if err := c.nodes[id].HandlePushBlock(blk); err != nil {
			t.Fatal(err)
		}
		c.reps[id].Forward(uint64(10+id), 1, blk)
		ps.PutBlock(blk)
	}
	for _, id := range []int{0, 1, 2} {
		if !c.reps[id].Drain(time.Second) {
			t.Fatal("seed forwards did not drain")
		}
	}

	joined := old.Join(3)
	c.addNode(t, 3)
	if !c.ms.Update(joined) {
		t.Fatal("join rejected")
	}
	total := 0
	for _, id := range []int{0, 1, 2} {
		for _, n := range c.reps[id].Reconcile(old, joined) {
			total += n
		}
	}
	if total == 0 {
		t.Fatal("reconcile transferred nothing to the joiner")
	}

	topo := c.topo()
	for _, id := range []int{0, 1, 2} {
		for _, k := range keysOwnedBy(old, id, 12) {
			if !topo.HoldsKey(k, 3) {
				continue
			}
			if !sameWeights(value(t, c.nodes[3], k), value(t, c.nodes[joined.Owner(k)], k)) {
				t.Fatalf("key %d: joiner's copy diverges from primary %d", k, joined.Owner(k))
			}
		}
	}
}

// TestReconcileHandoffOnLeave proves the graceful-leave path: a shard absent
// from the new ring hands off every row it holds to the new replica sets, so
// even with R=1 — where nobody else holds its rows and the surviving senders'
// rule could never cover them — a planned removal loses nothing.
func TestReconcileHandoffOnLeave(t *testing.T) {
	c := newReplClusterR(t, []int{0, 1, 2}, 1)
	old := c.ms.Ring()
	ks := keysOwnedBy(old, 2, 12)

	blk := deltaBlock(ks)
	defer ps.PutBlock(blk)
	if err := c.nodes[2].HandlePushBlock(blk); err != nil {
		t.Fatal(err)
	}
	want := make(map[keys.Key][]float32, len(ks))
	for _, k := range ks {
		want[k] = value(t, c.nodes[2], k)
	}

	left := old.Leave(2)
	if !c.ms.Update(left) {
		t.Fatal("leave rejected")
	}
	moved := 0
	for _, n := range c.reps[2].Reconcile(old, left) {
		moved += n
	}
	if moved == 0 {
		t.Fatal("leaver handed off nothing")
	}
	for _, k := range ks {
		// Note: the leaver never replicated these rows (no Forward calls), so
		// the survivors hold them only because of the handoff.
		if !sameWeights(value(t, c.nodes[left.Owner(k)], k), want[k]) {
			t.Fatalf("key %d: new primary %d missing the leaver's value", k, left.Owner(k))
		}
	}
}

// TestImportBlockSkipsPresent proves the set-semantics import never rolls
// back a value the shard already holds: only holes are filled, which is what
// makes a state transfer safely reorderable against live replication.
func TestImportBlockSkipsPresent(t *testing.T) {
	c := newReplCluster(t, []int{0, 1, 2})
	ring := c.ms.Ring()
	ks := keysOwnedBy(ring, 0, 2)
	held, hole := ks[0], ks[1]

	blk := deltaBlock([]keys.Key{held})
	defer ps.PutBlock(blk)
	if err := c.nodes[0].HandlePushBlock(blk); err != nil {
		t.Fatal(err)
	}
	before := value(t, c.nodes[0], held)

	stale := ps.GetBlock(4, nil)
	defer ps.PutBlock(stale)
	w := []float32{99, 99, 99, 99}
	stale.AppendRow(held, w, w, 5)
	stale.AppendRow(hole, w, w, 5)
	if got := c.nodes[0].ImportBlock(stale); got != 1 {
		t.Fatalf("accepted %d rows, want 1 (the hole)", got)
	}
	if !sameWeights(value(t, c.nodes[0], held), before) {
		t.Fatal("import rolled back a held value")
	}
	if !sameWeights(value(t, c.nodes[0], hole), w) {
		t.Fatal("import did not fill the hole")
	}
}

// TestImportBlockBeforeRingInstall is the membership-broadcast race: member 1
// dies, the Leave ring reaches the survivors one after another, and the first
// to install it transfers the dead member's rows to the other before that one
// has the ring that makes it their holder. The rows must be kept, so that they
// are there once the ring arrives.
func TestImportBlockBeforeRingInstall(t *testing.T) {
	c := newReplCluster(t, []int{0, 1, 2})
	old := c.ms.Ring()
	left := old.Leave(1)
	var k keys.Key // a key member 2 holds only after the leave
	for k = 1; slices.Contains(old.Replicas(k, 2), 2) || !slices.Contains(left.Replicas(k, 2), 2); k++ {
	}
	blk := ps.GetBlock(4, nil)
	defer ps.PutBlock(blk)
	w := []float32{1, 2, 3, 4}
	blk.AppendRow(k, w, w, 1)
	if got := c.nodes[2].ImportBlock(blk); got != 1 {
		t.Fatalf("a transfer that outran the ring was dropped: accepted %d rows, want 1", got)
	}
	c.ms.Update(left)
	if !sameWeights(value(t, c.nodes[2], k), w) {
		t.Fatal("the transferred row is not served after the ring arrived")
	}
}
