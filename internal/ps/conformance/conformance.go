// Package conformance is a reusable test suite for ps.Tier implementations.
//
// Every tier answers the same PullInto/PushBlock/Evict/TierStats contract
// with tier-specific policies around missing keys and eviction (the HBM-PS
// errors on keys outside the loaded working set, the MEM-PS materializes
// first references, a plain store leaves them absent). The suite checks the
// invariants every implementation must share — request-order rows, value
// isolation, delta arithmetic, statistics monotonicity — and lets a Harness
// declare the per-tier policies it should expect. Stores that read and write
// whole values by key rather than blocks (the SSD-PS, the MPI baseline's
// in-memory model) run the same suite through the Store adapter.
//
// Usage, from a tier's own test package:
//
//	func TestTierConformance(t *testing.T) {
//		conformance.Run(t, conformance.Harness{
//			Dim: 8,
//			New: func(t *testing.T, ks []keys.Key) ps.Tier { ... },
//			...policy flags...
//		})
//	}
package conformance

import (
	"math"
	"slices"
	"sync"
	"testing"

	"hps/internal/embedding"
	"hps/internal/keys"
	"hps/internal/ps"
)

// Harness describes one ps.Tier implementation to the suite.
type Harness struct {
	// New returns a fresh tier in which every key of ks is already present
	// (pullable). Each invariant gets its own tier, so New must be cheap and
	// side-effect free across calls.
	New func(t *testing.T, ks []keys.Key) ps.Tier
	// Dim is the embedding dimension the tier was built for.
	Dim int
	// Shard is the shard id to stamp on requests (a valid GPU id for the
	// HBM-PS, ps.NoShard for tiers that ignore it).
	Shard int
	// PullCreates marks tiers that materialize a missing key on first pull
	// (the MEM-PS contract).
	PullCreates bool
	// PullMissingErrors marks tiers where pulling a key outside the loaded
	// set is a bug, not a miss (the HBM-PS contract).
	PullMissingErrors bool
	// PushCreates marks tiers where pushing a delta to a missing key
	// materializes it as the delta (plain stores). Tiers without it ignore
	// such deltas (HBM-PS) or create-then-merge (MEM-PS).
	PushCreates bool
	// EvictDurable marks tiers whose eviction demotes to a tier below, so
	// evicted keys remain readable afterwards (the MEM-PS over its SSD-PS).
	// Without it, evicted keys are retired.
	EvictDurable bool
	// Concurrent marks tiers that are safe for concurrent use.
	Concurrent bool
}

// suiteKeys is the fixed key set the suite preloads. The values span several
// node/GPU shards under both modulo and hash sharding.
func suiteKeys() []keys.Key {
	ks := make([]keys.Key, 0, 16)
	for i := 1; i <= 16; i++ {
		ks = append(ks, keys.Key(i*37))
	}
	return ks
}

// missingKey is a key never preloaded by the suite.
const missingKey = keys.Key(1 << 40)

// Run executes the conformance suite against the harness.
func Run(t *testing.T, h Harness) {
	if h.New == nil || h.Dim <= 0 {
		t.Fatal("conformance: Harness needs New and a positive Dim")
	}
	t.Run("PullPresent", h.pullPresent)
	t.Run("PullEmpty", h.pullEmpty)
	t.Run("PullIsolation", h.pullIsolation)
	t.Run("PullMissing", h.pullMissing)
	t.Run("PushAccumulates", h.pushAccumulates)
	t.Run("PushMissing", h.pushMissing)
	t.Run("PushEmpty", h.pushEmpty)
	t.Run("Evict", h.evict)
	t.Run("Stats", h.stats)
	t.Run("ConcurrentPulls", h.concurrentPulls)
	t.Run("BlockPullAgrees", h.blockPullAgrees)
	t.Run("BlockPullUnsortedOrder", h.blockPullUnsortedOrder)
	t.Run("BlockPullDuplicates", h.blockPullDuplicates)
	t.Run("BlockPullMissing", h.blockPullMissing)
	t.Run("BlockPushAgrees", h.blockPushAgrees)
	t.Run("BlockPullIsolation", h.blockPullIsolation)
}

// tryPull pulls ks into a fresh block.
func (h Harness) tryPull(tier ps.Tier, ks []keys.Key) (*ps.ValueBlock, error) {
	blk := ps.NewValueBlock(h.Dim)
	err := tier.PullInto(ps.PullRequest{Shard: h.Shard, Keys: ks}, blk)
	return blk, err
}

// pull pulls ks into a fresh block and checks the shape every pull shares:
// one row per requested key, in request order, at the tier's dimension.
func (h Harness) pull(t *testing.T, tier ps.Tier, ks []keys.Key) *ps.ValueBlock {
	t.Helper()
	blk, err := h.tryPull(tier, ks)
	if err != nil {
		t.Fatalf("PullInto(%v): %v", ks, err)
	}
	if !slices.Equal(blk.Keys, ks) {
		t.Fatalf("pulled rows hold keys %v, want request order %v", blk.Keys, ks)
	}
	if blk.Len() > 0 && blk.Dim != h.Dim {
		t.Fatalf("block dim = %d, want %d", blk.Dim, h.Dim)
	}
	return blk
}

// push pushes blk's rows, failing the test on error.
func (h Harness) push(t *testing.T, tier ps.Tier, blk *ps.ValueBlock) {
	t.Helper()
	if err := tier.PushBlock(ps.PushBlockRequest{Shard: h.Shard, Block: blk}); err != nil {
		t.Fatalf("PushBlock: %v", err)
	}
}

// delta builds a push delta with a recognizable per-element value.
func (h Harness) delta(base float32) *embedding.Value {
	v := embedding.NewValue(h.Dim)
	for i := range v.Weights {
		v.Weights[i] = base + float32(i)
		v.G2Sum[i] = base / 2
	}
	v.Freq = 1
	return v
}

// deltas builds a block with row i of ks holding delta(i+1).
func (h Harness) deltas(ks []keys.Key) *ps.ValueBlock {
	blk := ps.NewValueBlock(h.Dim)
	blk.Reset(h.Dim, ks)
	for i := range ks {
		blk.Set(i, h.delta(float32(i+1)))
	}
	return blk
}

// sameRow reports whether row i of a and row j of b hold identical values.
func sameRow(a *ps.ValueBlock, i int, b *ps.ValueBlock, j int) bool {
	return a.Present[i] == b.Present[j] && a.Freq[i] == b.Freq[j] &&
		slices.Equal(a.WeightsRow(i), b.WeightsRow(j)) && slices.Equal(a.G2Row(i), b.G2Row(j))
}

// checkMoved asserts that row i of after equals row i of before plus row i of
// d, for every row d holds present.
func checkMoved(t *testing.T, before, after, d *ps.ValueBlock) {
	t.Helper()
	for i, k := range d.Keys {
		if !d.Present[i] {
			if !sameRow(before, i, after, i) {
				t.Fatalf("key %d changed by a masked delta row", k)
			}
			continue
		}
		for j := 0; j < d.Dim; j++ {
			want := before.WeightsRow(i)[j] + d.WeightsRow(i)[j]
			if diff := math.Abs(float64(after.WeightsRow(i)[j] - want)); diff > 1e-4 {
				t.Fatalf("key %d weight[%d] = %g after push, want %g", k, j, after.WeightsRow(i)[j], want)
			}
			wantG2 := before.G2Row(i)[j] + d.G2Row(i)[j]
			if diff := math.Abs(float64(after.G2Row(i)[j] - wantG2)); diff > 1e-4 {
				t.Fatalf("key %d g2sum[%d] = %g after push, want %g", k, j, after.G2Row(i)[j], wantG2)
			}
		}
	}
}

// pullPresent: every preloaded key is pullable, as a present row of the
// right shape, and repeated pulls agree.
func (h Harness) pullPresent(t *testing.T) {
	ks := suiteKeys()
	tier := h.New(t, ks)
	first := h.pull(t, tier, ks)
	for i, k := range ks {
		if !first.Present[i] {
			t.Fatalf("preloaded key %d absent", k)
		}
	}
	second := h.pull(t, tier, ks)
	for i, k := range ks {
		if !sameRow(first, i, second, i) {
			t.Fatalf("key %d unstable across pulls without writes", k)
		}
	}
}

// pullEmpty: an empty request succeeds with an empty block.
func (h Harness) pullEmpty(t *testing.T) {
	tier := h.New(t, suiteKeys())
	if blk := h.pull(t, tier, nil); blk.Len() != 0 {
		t.Fatalf("empty pull returned %d rows", blk.Len())
	}
}

// pullIsolation: pulled rows are private copies — mutating them must not
// leak into the tier's stored state.
func (h Harness) pullIsolation(t *testing.T) {
	ks := suiteKeys()[:4]
	tier := h.New(t, ks)
	before := h.pull(t, tier, ks)
	for i := range before.Weights {
		before.Weights[i] = math.MaxFloat32
	}
	after := h.pull(t, tier, ks)
	for i, k := range ks {
		for _, w := range after.WeightsRow(i) {
			if w == math.MaxFloat32 {
				t.Fatalf("key %d: pulled row aliases tier storage", k)
			}
		}
	}
}

// pullMissing: the tier's declared missing-key policy holds.
func (h Harness) pullMissing(t *testing.T) {
	tier := h.New(t, suiteKeys())
	blk, err := h.tryPull(tier, []keys.Key{missingKey})
	switch {
	case h.PullMissingErrors:
		if err == nil {
			t.Fatal("pulling a key outside the loaded set should error")
		}
	case h.PullCreates:
		if err != nil {
			t.Fatalf("pull of a fresh key should materialize it: %v", err)
		}
		if !blk.Present[0] {
			t.Fatal("tier declared PullCreates but left the key absent")
		}
		again := h.pull(t, tier, []keys.Key{missingKey})
		if !sameRow(blk, 0, again, 0) {
			t.Fatal("materialized key not stable across pulls")
		}
	default:
		if err != nil {
			t.Fatalf("missing keys must be absent rows, not an error: %v", err)
		}
		if blk.Present[0] {
			t.Fatal("missing key materialized by a tier without PullCreates")
		}
		for _, w := range blk.WeightsRow(0) {
			if w != 0 {
				t.Fatal("absent row is not zeroed")
			}
		}
	}
}

// pushAccumulates: pushing a delta block moves every stored value by exactly
// its delta row, regardless of how the tier initialized it.
func (h Harness) pushAccumulates(t *testing.T) {
	ks := suiteKeys()
	tier := h.New(t, ks)
	before := h.pull(t, tier, ks)
	d := h.deltas(ks)
	h.push(t, tier, d)
	checkMoved(t, before, h.pull(t, tier, ks), d)
}

// pushMissing: the tier's declared policy for deltas on absent keys holds.
func (h Harness) pushMissing(t *testing.T) {
	tier := h.New(t, suiteKeys())
	d := h.deltas([]keys.Key{missingKey})
	if err := tier.PushBlock(ps.PushBlockRequest{Shard: h.Shard, Block: d}); err != nil {
		t.Fatalf("pushing a delta for an absent key must not fail: %v", err)
	}
	if h.PullMissingErrors {
		// The tier has no way to read the key back; ignoring the delta
		// (HBM-PS: authoritative copies live below) is the whole contract.
		return
	}
	blk := h.pull(t, tier, []keys.Key{missingKey})
	switch {
	case h.PushCreates:
		if !sameRow(blk, 0, d, 0) {
			t.Fatal("tier declared PushCreates but the key does not hold the delta")
		}
	case h.PullCreates:
		// Create-then-merge (MEM-PS): the key now exists; its exact value
		// folds the delta into a fresh initialization, checked by
		// pushAccumulates on preloaded keys.
		if !blk.Present[0] {
			t.Fatal("tier with PullCreates lost the pushed key")
		}
	default:
		if blk.Present[0] {
			t.Fatal("delta on an absent key materialized it without PushCreates")
		}
	}
}

// pushEmpty: a push with no rows is a no-op, not an error.
func (h Harness) pushEmpty(t *testing.T) {
	tier := h.New(t, suiteKeys())
	h.push(t, tier, ps.NewValueBlock(h.Dim))
}

// evict: evicting preloaded keys reports them all, and readability
// afterwards follows the declared durability.
func (h Harness) evict(t *testing.T) {
	ks := suiteKeys()
	tier := h.New(t, ks)
	victims := ks[:8]
	n, err := tier.Evict(victims)
	if err != nil {
		t.Fatalf("Evict: %v", err)
	}
	if n != len(victims) {
		t.Fatalf("evicted %d of %d held keys", n, len(victims))
	}
	if h.EvictDurable {
		if got := h.pull(t, tier, victims).PresentCount(); got != len(victims) {
			t.Fatalf("durable evict lost keys: %d of %d readable", got, len(victims))
		}
	} else {
		blk, err := h.tryPull(tier, victims)
		switch {
		case h.PullMissingErrors:
			if err == nil {
				t.Fatal("pulling retired keys should error for this tier")
			}
		case h.PullCreates:
			// Retired keys re-materialize on pull; nothing further to assert.
		default:
			if err != nil {
				t.Fatalf("pull after evict: %v", err)
			}
			if got := blk.PresentCount(); got != 0 {
				t.Fatalf("retired keys still readable: %d", got)
			}
		}
		// Re-evicting retired keys finds nothing (unless pulling them back
		// above re-created them).
		if !h.PullCreates && !h.PullMissingErrors {
			if n, err := tier.Evict(victims); err != nil || n != 0 {
				t.Fatalf("second evict = (%d, %v), want (0, nil)", n, err)
			}
		}
	}
	// The untouched keys must be unaffected.
	if got := h.pull(t, tier, ks[8:]).PresentCount(); got != len(ks)-8 {
		t.Fatalf("evict disturbed unrelated keys: %d of %d readable", got, len(ks)-8)
	}
}

// stats: the uniform statistics track operations monotonically.
func (h Harness) stats(t *testing.T) {
	ks := suiteKeys()
	tier := h.New(t, ks)
	if tier.Name() == "" {
		t.Fatal("tier has no name")
	}
	base := tier.TierStats()
	h.pull(t, tier, ks)
	afterPull := tier.TierStats()
	if afterPull.Pulls <= base.Pulls {
		t.Fatalf("Pulls did not advance: %d -> %d", base.Pulls, afterPull.Pulls)
	}
	if afterPull.KeysPulled < base.KeysPulled+int64(len(ks)) {
		t.Fatalf("KeysPulled advanced by %d, want >= %d", afterPull.KeysPulled-base.KeysPulled, len(ks))
	}
	h.push(t, tier, h.deltas(ks[:2]))
	afterPush := tier.TierStats()
	if afterPush.Pushes <= afterPull.Pushes {
		t.Fatalf("Pushes did not advance: %d -> %d", afterPull.Pushes, afterPush.Pushes)
	}
	if afterPush.KeysPushed < afterPull.KeysPushed+2 {
		t.Fatalf("KeysPushed advanced by %d, want >= 2", afterPush.KeysPushed-afterPull.KeysPushed)
	}
	if _, err := tier.Evict(ks[:2]); err != nil {
		t.Fatalf("Evict: %v", err)
	}
	afterEvict := tier.TierStats()
	if afterEvict.Evictions <= afterPush.Evictions {
		t.Fatalf("Evictions did not advance: %d -> %d", afterPush.Evictions, afterEvict.Evictions)
	}
	if afterEvict.KeysEvicted < afterPush.KeysEvicted+2 {
		t.Fatalf("KeysEvicted advanced by %d, want >= 2", afterEvict.KeysEvicted-afterPush.KeysEvicted)
	}
}

// Store adapts a store that reads and writes whole values by key — the
// SSD-PS, the MPI baseline's in-memory model — to ps.Tier, so the suite can
// hold it to the policies of a plain store: missing keys pull as absent rows,
// a push is a read-modify-write that materializes an unknown key as its
// delta, and eviction retires keys. The adapter keeps its own statistics.
type Store struct {
	// Label is the reported tier name.
	Label string
	// Dim is the embedding dimension of the stored values.
	Dim int
	// Load returns private copies of the values of ks, position by position,
	// nil where the store holds no value.
	Load func(ks []keys.Key) ([]*embedding.Value, error)
	// Save writes whole values, replacing the ones held.
	Save func(vals map[keys.Key]*embedding.Value) error
	// Delete retires keys and returns how many the store held.
	Delete func(ks []keys.Key) int

	mu  sync.Mutex // serializes the read-modify-write of PushBlock
	rec ps.Recorder
}

// Name implements ps.Tier.
func (s *Store) Name() string { return s.Label }

// TierStats implements ps.Tier.
func (s *Store) TierStats() ps.Stats { return s.rec.TierStats() }

// PullInto implements ps.Tier over Load.
func (s *Store) PullInto(req ps.PullRequest, dst *ps.ValueBlock) error {
	vals, err := s.Load(req.Keys)
	if err != nil {
		return err
	}
	dst.Reset(s.Dim, req.Keys)
	found := 0
	for i, v := range vals {
		if v != nil {
			dst.Set(i, v)
			found++
		}
	}
	s.rec.RecordPull(found)
	return nil
}

// PushBlock implements ps.Tier as Load, add, Save.
func (s *Store) PushBlock(req ps.PushBlockRequest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	blk := req.Block
	vals, err := s.Load(blk.Keys)
	if err != nil {
		return err
	}
	merged := make(map[keys.Key]*embedding.Value, len(blk.Keys))
	for i, k := range blk.Keys {
		if !blk.Present[i] {
			continue
		}
		v := merged[k]
		if v == nil {
			if v = vals[i]; v == nil {
				v = embedding.NewValue(s.Dim)
			}
			merged[k] = v
		}
		v.AddFlat(blk.WeightsRow(i), blk.G2Row(i), blk.Freq[i])
	}
	if len(merged) > 0 {
		if err := s.Save(merged); err != nil {
			return err
		}
	}
	s.rec.RecordPush(len(merged))
	return nil
}

// Evict implements ps.Tier over Delete: a plain store has no tier below, so
// eviction retires keys.
func (s *Store) Evict(ks []keys.Key) (int, error) {
	n := s.Delete(ks)
	s.rec.RecordEvict(n)
	return n, nil
}
