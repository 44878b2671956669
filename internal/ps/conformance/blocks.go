package conformance

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"hps/internal/keys"
	"hps/internal/ps"
)

// blockPullAgrees: a pull into a reused block — pooled blocks arrive dirty,
// sized for another batch and possibly another dimension — agrees row for
// row with a pull into a fresh one.
func (h Harness) blockPullAgrees(t *testing.T) {
	ks := suiteKeys()
	tier := h.New(t, ks)
	want := h.pull(t, tier, ks)
	dirty := ps.NewValueBlock(h.Dim + 3)
	dirty.Reset(h.Dim+3, append(slices.Clone(ks), ks...))
	for i := range dirty.Weights {
		dirty.Weights[i], dirty.G2Sum[i] = -7, -7
	}
	for i := range dirty.Freq {
		dirty.Freq[i], dirty.Present[i] = 99, true
	}
	if err := tier.PullInto(ps.PullRequest{Shard: h.Shard, Keys: ks}, dirty); err != nil {
		t.Fatalf("PullInto(reused block): %v", err)
	}
	if dirty.Dim != h.Dim || !slices.Equal(dirty.Keys, ks) {
		t.Fatalf("reused block reshaped to %d rows of dim %d, want %d of dim %d", dirty.Len(), dirty.Dim, len(ks), h.Dim)
	}
	for i, k := range ks {
		if !sameRow(want, i, dirty, i) {
			t.Fatalf("key %d: reused-block row differs from a fresh pull", k)
		}
	}
}

// blockPullUnsortedOrder: request-key order is the contract even when the
// request is not sorted — a tier that assembles sorted internally must
// scatter back, because wire replies bind rows to the requester's key order
// positionally.
func (h Harness) blockPullUnsortedOrder(t *testing.T) {
	ks := suiteKeys()
	tier := h.New(t, ks)
	want := h.pull(t, tier, ks)
	rev := slices.Clone(ks)
	slices.Reverse(rev)
	blk := h.pull(t, tier, rev)
	for i, k := range rev {
		if !blk.Present[i] {
			t.Fatalf("preloaded key %d absent", k)
		}
		if !sameRow(blk, i, want, len(ks)-1-i) {
			t.Fatalf("key %d: reversed-request row holds the wrong value", k)
		}
	}
}

// blockPullDuplicates: an unsorted request with repeated keys gets one row
// per request position, in request order, and every copy of a key holds the
// same value.
func (h Harness) blockPullDuplicates(t *testing.T) {
	ks := suiteKeys()
	tier := h.New(t, ks)
	want := h.pull(t, tier, ks)
	req := []keys.Key{ks[5], ks[1], ks[5], ks[9], ks[1], ks[1], ks[0]}
	blk := h.pull(t, tier, req)
	for i, k := range req {
		j := slices.Index(ks, k)
		if !sameRow(blk, i, want, j) {
			t.Fatalf("row %d (key %d) differs from the key's value", i, k)
		}
	}
}

// blockPullMissing: a missing key among present ones follows the tier's
// missing-key policy without disturbing the rows around it.
func (h Harness) blockPullMissing(t *testing.T) {
	ks := suiteKeys()
	tier := h.New(t, ks)
	want := h.pull(t, tier, ks[:2])
	req := []keys.Key{ks[0], missingKey, ks[1]}
	blk, err := h.tryPull(tier, req)
	if h.PullMissingErrors {
		if err == nil {
			t.Fatal("a request naming a key outside the loaded set should error")
		}
		return
	}
	if err != nil {
		t.Fatalf("PullInto(%v): %v", req, err)
	}
	if !sameRow(blk, 0, want, 0) || !sameRow(blk, 2, want, 1) {
		t.Fatal("a missing key disturbed the present rows around it")
	}
	if blk.Present[1] != h.PullCreates {
		t.Fatalf("missing key's row present = %v, want %v", blk.Present[1], h.PullCreates)
	}
}

// blockPushAgrees: a push block with masked rows (Present false, garbage
// values) moves exactly the present rows, as if the masked ones were not
// there — callers reuse blocks and mask rows instead of compacting them.
func (h Harness) blockPushAgrees(t *testing.T) {
	ks := suiteKeys()
	tier := h.New(t, ks)
	before := h.pull(t, tier, ks)
	basePushed := tier.TierStats().KeysPushed
	d := h.deltas(ks)
	for i := 0; i < len(ks); i += 2 {
		d.Present[i] = false
		d.WeightsRow(i)[0] = math.MaxFloat32
	}
	h.push(t, tier, d)
	checkMoved(t, before, h.pull(t, tier, ks), d)
	if got := tier.TierStats().KeysPushed; got < basePushed+int64(d.PresentCount()) {
		t.Fatalf("block push advanced KeysPushed by %d, want >= %d", got-basePushed, d.PresentCount())
	}
}

// blockPullIsolation: a pulled block is a snapshot — later writes to the
// tier must not show through it, and a pushed block is not retained by the
// tier after PushBlock returns.
func (h Harness) blockPullIsolation(t *testing.T) {
	ks := suiteKeys()[:4]
	tier := h.New(t, ks)
	snap := h.pull(t, tier, ks)
	keep := ps.NewValueBlock(h.Dim)
	keep.CopyFrom(snap)
	d := h.deltas(ks)
	h.push(t, tier, d)
	for i, k := range ks {
		if !sameRow(snap, i, keep, i) {
			t.Fatalf("key %d: a push showed through a previously pulled block", k)
		}
	}
	after := h.pull(t, tier, ks)
	for i := range d.Weights {
		d.Weights[i] = math.MaxFloat32
	}
	again := h.pull(t, tier, ks)
	for i, k := range ks {
		if !sameRow(after, i, again, i) {
			t.Fatalf("key %d: the tier retained the pushed block", k)
		}
	}
}

// concurrentPulls: tiers declared concurrent serve parallel readers without
// races or corruption (run under -race).
func (h Harness) concurrentPulls(t *testing.T) {
	if !h.Concurrent {
		t.Skip("tier is not safe for concurrent use")
	}
	ks := suiteKeys()
	tier := h.New(t, ks)
	want := h.pull(t, tier, ks)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			blk := ps.NewValueBlock(h.Dim)
			for i := 0; i < 20; i++ {
				if err := tier.PullInto(ps.PullRequest{Shard: h.Shard, Keys: ks}, blk); err != nil {
					errs[w] = err
					return
				}
				for r, k := range ks {
					if !sameRow(blk, r, want, r) {
						errs[w] = fmt.Errorf("concurrent pull returned a corrupt value for key %d", k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
