package trainer

import (
	"fmt"
	"sync"
	"time"

	"hps/internal/cluster"
	"hps/internal/hw"
	"hps/internal/keys"
	"hps/internal/memps"
	"hps/internal/ps"
)

// owner is what a key's owner does for one batch (Algorithm 1 lines 3-4 and
// 16-18), in both deployments: in process it is a node's MEM-PS (localOwner),
// in multi-process mode one shard server process per ring member
// (remoteShard). stagePull deals the sorted union of the nodes' keys over the
// current owners (splitByOwner), and each owner
//
//   - resolves the batch's keys it holds, for every node, into each node's
//     block rows;
//   - applies its share of the batch's merged deltas;
//   - completes the batch.
//
// Pins are an in-process property: a MEM-PS keeps the keys it resolved pinned
// until complete, so the push never misses its cache. A shard server pins
// nothing for the driver, so a remote owner's complete does nothing.
//
// TierStats, HandleLookupBlock and Flush are the trainer's calls outside a
// batch: reports, Predict and checkpoints.
type owner interface {
	// resolve copies the values of the owner's share of a batch's pull —
	// shares[id] for owner id — into the nodes' blocks dsts, at the rows the
	// share names, and returns the work it did: in process the SSD-PS reads
	// and the peer transfers into the owner's node, over TCP the RPC's
	// payload on the network.
	resolve(shares []ownedPull, dsts []*ps.ValueBlock) (hw.Work, error)
	// apply merges the owner's share of a batch's merged deltas into its
	// authoritative copies and returns the work it did, counted like
	// resolve's. shares is the batch's pull, which resolve pinned the rows of.
	apply(d deltas, shares []ownedPull) (hw.Work, error)
	// complete releases what resolve pinned for shares and runs the owner's
	// batch-completion housekeeping.
	complete(shares []ownedPull) error
	// TierStats returns the owner's uniform MEM-PS statistics.
	TierStats() ps.Stats
	// HandleLookupBlock reads the current values of keys the owner holds
	// into dst without materializing missing ones: a missing key is an
	// absent row, an error means the values could not be read at all (an
	// unreachable shard, an unreadable SSD-PS).
	cluster.LookupHandler
	// Flush persists the owner's in-memory parameters to its SSD-PS.
	Flush() error
}

// ownedPull is one owner's share of a batch pull: the batch's keys the owner
// holds — the sorted union of every node's references to them — with the row
// each lands in of every node's block, and (in process) the working set they
// stay pinned under until the batch's push has completed it. A batch's pull
// is one share per owner id; it travels with the batch from stagePull to the
// push that completes it, and is then recycled through Trainer.pulls.
type ownedPull struct {
	keys []keys.Key
	// rows[r][x] is keys[x]'s row in node r's block, -1 when node r does not
	// reference it; wants[r] counts node r's rows.
	rows  [][]int32
	wants []int
	ws    memps.WorkingSet
}

// deltas is a batch's merged deltas as the owners apply them: the merged
// block, or — on stagePush's fused two-node path — the pair merge, from which
// each MEM-PS sums its share on the fly.
type deltas struct {
	global *ps.ValueBlock
	pair   *pairMerge
}

// pairMerge is the fused two-node push's merge of the nodes' delta blocks a
// and b: per owning node, the merged keys plus each key's source row in
// either block (-1 when that node did not touch it) — the inputs
// MemPS.PushBlockPair applies without a materialized global block.
type pairMerge struct {
	a, b         *ps.ValueBlock
	keys         [2][]keys.Key
	rowsA, rowsB [2][]int32
}

// splitByOwner readies a batch's pull: every node's block, shaped by its
// index.Unique, and every owner's share in j.pull. One merge of the nodes'
// sorted key sets deals the union out over the owners the ring names now; a
// key's row in node r's block is its position in node r's Unique, which is
// where node r's cursor stands when the merge reaches the key. The caller
// holds ownersMu, so every owner the ring names has an entry in owners.
func (t *Trainer) splitByOwner(j *job, owners []owner) error {
	dim := t.cfg.Spec.EmbeddingDim
	nodes := len(t.nodes)
	t.pullBlocks = t.pullBlocks[:0]
	cur := ps.Resize(t.pullCursors, nodes)
	t.pullCursors = cur
	for r, nb := range j.nodes {
		// Uninitialized: every row is written by the owner of its key.
		nb.block = ps.GetBlock(dim, nil)
		nb.block.ResetUninit(dim, nb.index.Unique)
		t.pullBlocks = append(t.pullBlocks, nb.block)
		cur[r] = 0
	}
	var shares []ownedPull
	select {
	case shares = <-t.pulls:
	default:
	}
	shares = ps.Resize(shares, len(owners))
	for i := range shares {
		op := &shares[i]
		op.keys = op.keys[:0]
		op.rows = ps.Resize(op.rows, nodes)
		for r := range op.rows {
			op.rows[r] = op.rows[r][:0]
		}
		op.wants = ps.Resize(op.wants, nodes)
		clear(op.wants)
	}
	j.pull = shares
	ring := t.cfg.Topology.Ring()
	for {
		var k keys.Key
		found := false
		for r, nb := range j.nodes {
			if c := cur[r]; c < len(nb.index.Unique) && (!found || nb.index.Unique[c] < k) {
				k, found = nb.index.Unique[c], true
			}
		}
		if !found {
			return nil
		}
		o := ring.Owner(k)
		if o < 0 || o >= len(owners) || owners[o] == nil {
			return fmt.Errorf("trainer: key %d is owned by %d, which is not an owner of this trainer", k, o)
		}
		op := &shares[o]
		op.keys = append(op.keys, k)
		for r, nb := range j.nodes {
			row := int32(-1)
			if c := cur[r]; c < len(nb.index.Unique) && nb.index.Unique[c] == k {
				row = int32(c)
				cur[r]++
				op.wants[r]++
			}
			op.rows[r] = append(op.rows[r], row)
		}
	}
}

// localOwner is the owner contract in process: node id's MEM-PS.
type localOwner struct {
	*memps.MemPS
	id int
}

// resolve has the MEM-PS resolve and pin the batch's keys it owns for every
// node, copying each value into the blocks that want it (PrepareOwnedInto),
// and then counts the network transfers of the rows its peers copied into
// its node's block.
func (o localOwner) resolve(shares []ownedPull, dsts []*ps.ValueBlock) (hw.Work, error) {
	op := &shares[o.id]
	ws, err := o.PrepareOwnedInto(op.keys, dsts, op.rows)
	if err != nil {
		return hw.Work{}, err
	}
	op.ws = ws
	w := ws.Stats.Work
	for p := range shares {
		if rows := shares[p].wants[o.id]; p != o.id && rows > 0 {
			w.Add(o.ReceivePeerRows(rows))
		}
	}
	return w, nil
}

// apply pushes the MEM-PS's share of the deltas — it ignores the rows of keys
// it does not own — and returns the push's work. The rows the batch's pull
// pinned are reached through its working set, without a cache probe.
func (o localOwner) apply(d deltas, shares []ownedPull) (hw.Work, error) {
	ws := &shares[o.id].ws
	if p := d.pair; p != nil {
		return o.PushBlockPair(ws, p.a, p.b, p.keys[o.id], p.rowsA[o.id], p.rowsB[o.id])
	}
	return o.PushBatch(ws, d.global)
}

// complete unpins the keys resolve pinned and runs the MEM-PS's
// batch-completion housekeeping (CompleteBatch).
func (o localOwner) complete(shares []ownedPull) error {
	return o.CompleteBatch(&shares[o.id].ws)
}

// each runs fn(i) for every i in [0, n) concurrently — in order when n is 1
// or under the sequential hook — and returns the first error.
func (t *Trainer) each(n int, fn func(i int) error) error {
	if n == 1 || t.sequential {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// eachOwner runs fn for every owner of owners, skipping the ids no owner
// holds (see each).
func (t *Trainer) eachOwner(owners []owner, fn func(o owner) error) error {
	return t.each(len(owners), func(i int) error {
		if owners[i] == nil {
			return nil
		}
		return fn(owners[i])
	})
}

// memberOwners returns the owners of the current ring members — every node's
// MEM-PS in process. A member that left keeps its table entry, but the ring
// gives it no keys, and reports and flushes skip it.
func (t *Trainer) memberOwners() []owner {
	t.ownersMu.Lock()
	defer t.ownersMu.Unlock()
	ids := t.cfg.Topology.MemberIDs()
	out := make([]owner, 0, len(ids))
	for _, id := range ids {
		if id < len(t.owners) && t.owners[id] != nil {
			out = append(out, t.owners[id])
		}
	}
	return out
}

// applyPush has every owner apply its share of a batch's merged deltas and
// complete the batch's pull, then recycles the pull. It returns the slowest
// owner's modelled push time. The owners are the table's at push time: a
// member that joined since the pull receives its rows.
func (t *Trainer) applyPush(d deltas, pull []ownedPull) (time.Duration, error) {
	t.ownersMu.Lock()
	owners := t.owners
	t.ownersMu.Unlock()
	slowest, err := t.slowest(len(owners), func(i int) (time.Duration, error) {
		o := owners[i]
		if o == nil {
			return 0, nil
		}
		w, err := o.apply(d, pull)
		if err != nil {
			return 0, err
		}
		return t.model(w).Sum(), o.complete(pull)
	})
	if err != nil {
		return 0, err
	}
	select {
	case t.pulls <- pull:
	default:
	}
	return slowest, nil
}

// UpdateMembership installs a membership change into the trainer's shared
// topology view and (re)points the remote transport at the member addresses
// it carries: the next batch's pulls and pushes follow the new ring. Stale
// epochs are dropped by the membership view itself, so out-of-order delivery
// is harmless.
func (t *Trainer) UpdateMembership(u cluster.MembershipUpdate) error {
	if err := u.Validate(); err != nil {
		return err
	}
	// The owner table grows before the ring that names a new member is
	// installed, under ownersMu, so no batch is dealt over a member without
	// an owner.
	t.ownersMu.Lock()
	defer t.ownersMu.Unlock()
	if t.remote != nil {
		for id, addr := range u.Addrs {
			t.remote.SetAddr(id, addr)
		}
		t.owners = t.newRemoteShards(t.owners, u.Members)
	}
	t.cfg.Topology.Members.Update(u.BuildRing())
	return nil
}
