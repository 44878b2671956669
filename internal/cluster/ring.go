package cluster

import (
	"fmt"
	"slices"
	"sync/atomic"

	"hps/internal/keys"
)

// MemberLimit bounds member ids: every id is in [0, MemberLimit). Placement
// results index slices by member id (Topology.SplitByNode), so an id from a
// membership frame must not size one arbitrarily.
const MemberLimit = 1024

// Ring places keys on members by rendezvous (highest-random-weight) hashing:
// member m's weight for key k is Mix64(k.Hash() ^ Mix64(m)), k's primary is
// the member with the highest weight, and its replica list is the members in
// falling weight order, ties going to the lower id. Per-batch key traffic
// splits as evenly as under the paper's modulo policy, yet adding or removing
// one member moves only that member's share of the keys, and a leaver's keys
// go to what was their first backup.
//
// A Ring is immutable; Join and Leave return a new Ring with the epoch
// advanced. Placement is a pure function of the member set, so two processes
// that build rings from the same member list agree on every key.
type Ring struct {
	epoch   uint64
	members []int // sorted member ids
}

// NewRing builds a ring over the given member ids (deduplicated, order
// irrelevant). The returned ring is at epoch 0; use WithEpoch to pin a
// driver-assigned epoch.
func NewRing(members []int) *Ring {
	ms := slices.Clone(members)
	slices.Sort(ms)
	return &Ring{members: slices.Compact(ms)}
}

// weight is member m's weight for a key hashing to h. Computing the member's
// seed inline is faster than loading it from a table.
func weight(h uint64, m int) uint64 { return keys.Mix64(h ^ keys.Mix64(uint64(m))) }

// WithEpoch returns a copy of the ring stamped with the given epoch. The
// member table is shared (rings are immutable).
func (r *Ring) WithEpoch(epoch uint64) *Ring {
	nr := *r
	nr.epoch = epoch
	return &nr
}

// Epoch returns the membership epoch this ring was stamped with.
func (r *Ring) Epoch() uint64 { return r.epoch }

// Members returns the sorted member ids. The slice is shared; do not mutate.
func (r *Ring) Members() []int { return r.members }

// Contains reports whether node is a member of the ring.
func (r *Ring) Contains(node int) bool {
	_, ok := slices.BinarySearch(r.members, node)
	return ok
}

// Owner returns the member that owns k as primary: the one with the highest
// weight. An empty ring places everything on 0.
func (r *Ring) Owner(k keys.Key) int {
	switch len(r.members) {
	case 0:
		return 0
	case 1:
		return r.members[0]
	}
	h := k.Hash()
	owner := r.members[0]
	best := weight(h, owner)
	for _, m := range r.members[1:] {
		if w := weight(h, m); w > best {
			best, owner = w, m
		}
	}
	return owner
}

// rank returns how many members outweigh member m for hash h: 0 for the
// primary, 1 for the first backup, and so on.
func (r *Ring) rank(h uint64, m int) int {
	w := weight(h, m)
	n := 0
	for _, o := range r.members {
		if o == m {
			continue
		}
		if v := weight(h, o); v > w || (v == w && o < m) {
			n++
		}
	}
	return n
}

// Replicas returns the first n members of k's replica list: index 0 is the
// primary, the rest are backups in promotion order. Fewer than n members
// yields all of them.
func (r *Ring) Replicas(k keys.Key, n int) []int {
	n = min(n, len(r.members))
	if n <= 0 {
		return nil
	}
	out := make([]int, n)
	h := k.Hash()
	for _, m := range r.members {
		if rank := r.rank(h, m); rank < n {
			out[rank] = m
		}
	}
	return out
}

// Backup returns k's first backup — the member with the second-highest
// weight — or -1 when the ring has fewer than two members. It does not
// allocate, so the replication forwarder can partition a push block's rows
// per backup on the hot path.
func (r *Ring) Backup(k keys.Key) int {
	if len(r.members) < 2 {
		return -1
	}
	h := k.Hash()
	first, second := -1, -1
	var w1, w2 uint64
	for _, m := range r.members {
		switch w := weight(h, m); {
		case first < 0 || w > w1:
			second, w2 = first, w1
			first, w1 = m, w
		case second < 0 || w > w2:
			second, w2 = m, w
		}
	}
	return second
}

// ReplicaRank returns node's position in k's replica list limited to n
// replicas (0 = primary, 1 = first backup, ...) or -1 if node is not among
// them. It does not allocate, so ownership checks can run per key on the
// push/pull hot path.
func (r *Ring) ReplicaRank(k keys.Key, node, n int) int {
	if n <= 0 || !r.Contains(node) {
		return -1
	}
	if n == 1 { // the unreplicated ownership check: one pass over the weights
		if r.Owner(k) == node {
			return 0
		}
		return -1
	}
	if rank := r.rank(k.Hash(), node); rank < n {
		return rank
	}
	return -1
}

// Join returns a new ring with node added and the epoch advanced by one.
// Joining an existing member only advances the epoch.
func (r *Ring) Join(node int) *Ring {
	return NewRing(append(slices.Clone(r.members), node)).WithEpoch(r.epoch + 1)
}

// Leave returns a new ring with node removed and the epoch advanced by one.
// Every key the node owned as primary is inherited by its first backup,
// which is what makes promotion a pure membership change. Removing the last
// member is refused (the ring would place nothing); the caller gets the same
// membership back at a new epoch.
func (r *Ring) Leave(node int) *Ring {
	ms := slices.Clone(r.members)
	if i := slices.Index(ms, node); i >= 0 && len(ms) > 1 {
		ms = slices.Delete(ms, i, i+1)
	}
	return NewRing(ms).WithEpoch(r.epoch + 1)
}

// baseRings caches, per node count n, the epoch-0 ring over 0..n-1 that a
// topology without a membership view places by.
var baseRings [MemberLimit + 1]atomic.Pointer[Ring]

// baseRing returns the epoch-0 ring over 0..n-1, built once per n.
func baseRing(n int) *Ring {
	if uint(n) <= MemberLimit {
		if r := baseRings[n].Load(); r != nil {
			return r
		}
	}
	ids := make([]int, max(n, 0))
	for i := range ids {
		ids[i] = i
	}
	r := NewRing(ids)
	if uint(n) <= MemberLimit {
		baseRings[n].Store(r) // a racing call stores an equal ring
	}
	return r
}

// Membership is an epoch-versioned, atomically swappable view of the ring
// shared by every component of one process (trainer nodes, serving tier,
// MEM-PS ownership checks, load generator). A membership update installs a
// new ring for all of them in one atomic store; stale updates (epoch not
// newer than the installed one) are rejected, so out-of-order delivery can
// never roll the view backwards.
type Membership struct {
	ring atomic.Pointer[Ring]
}

// NewMembership returns a membership view holding the given initial ring.
func NewMembership(r *Ring) *Membership {
	m := &Membership{}
	m.ring.Store(r)
	return m
}

// Ring returns the currently installed ring. Never nil.
func (m *Membership) Ring() *Ring { return m.ring.Load() }

// Epoch returns the installed ring's epoch.
func (m *Membership) Epoch() uint64 { return m.Ring().Epoch() }

// Update installs r if its epoch is newer than the installed ring's,
// reporting whether the swap happened.
func (m *Membership) Update(r *Ring) bool {
	for {
		cur := m.ring.Load()
		if cur != nil && r.Epoch() <= cur.Epoch() {
			return false
		}
		if m.ring.CompareAndSwap(cur, r) {
			return true
		}
	}
}

// MembershipUpdate is the control-plane payload that moves a membership
// change between processes: the member list (from which every receiver
// rebuilds an identical ring), the epoch that orders it, and the shard
// addresses so receivers can (re)point their transports.
type MembershipUpdate struct {
	// Epoch orders updates; receivers drop anything not newer than what they
	// have installed.
	Epoch uint64
	// Members are the shard ids in the ring after the change.
	Members []int
	// Replicas is the replication factor R (0 or 1 = unreplicated).
	Replicas int
	// Addrs maps member ids to their listen addresses.
	Addrs map[int]string
}

// BuildRing reconstructs the ring this update describes.
func (u MembershipUpdate) BuildRing() *Ring {
	return NewRing(u.Members).WithEpoch(u.Epoch)
}

// Validate rejects structurally broken updates before they reach a
// membership view: no members, a member id outside [0, MemberLimit), or a
// negative replication factor.
func (u MembershipUpdate) Validate() error {
	if len(u.Members) == 0 {
		return fmt.Errorf("cluster: membership update at epoch %d has no members", u.Epoch)
	}
	for _, m := range u.Members {
		if m < 0 || m >= MemberLimit {
			return fmt.Errorf("cluster: membership update at epoch %d has member id %d outside [0, %d)", u.Epoch, m, MemberLimit)
		}
	}
	if u.Replicas < 0 {
		return fmt.Errorf("cluster: membership update has negative replicas %d", u.Replicas)
	}
	return nil
}
