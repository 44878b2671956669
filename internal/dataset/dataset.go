// Package dataset generates synthetic click-through-rate training data with
// the statistical profile of the paper's production workloads.
//
// The paper trains on Baidu's user click history logs, which are not
// available. The generator substitutes them with a stream that preserves the
// properties the system's behaviour depends on:
//
//   - each example has a fixed number of non-zero sparse features
//     (Table 3's "#Non-zeros" column),
//   - feature popularity is heavily skewed (a Zipf distribution), which is
//     what makes the MEM-PS cache effective (Fig 4c) and gives batches the
//     working-set sizes the hierarchy is designed around,
//   - labels come from a planted teacher model, so trained models have a
//     measurable AUC that improves with training (Fig 3b, Tables 1–2).
package dataset

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"hps/internal/keys"
)

// Example is a single training example: a multi-hot sparse feature vector and
// a binary click label.
type Example struct {
	// Features are the non-zero sparse feature keys.
	Features []keys.Key
	// Label is 1 for a click and 0 otherwise.
	Label float32
}

// Batch is a set of examples streamed together (the paper uses batches of
// roughly 4x10^6 examples; scaled configurations use smaller batches).
type Batch struct {
	// Index is the sequence number of the batch within its stream.
	Index int
	// Examples are the batch's training examples.
	Examples []Example
}

// Len returns the number of examples in the batch.
func (b *Batch) Len() int { return len(b.Examples) }

// ByteSize estimates the serialized size of the batch as streamed from HDFS:
// 8 bytes per feature key plus 4 bytes of label per example.
func (b *Batch) ByteSize() int64 {
	var n int64
	for i := range b.Examples {
		n += int64(len(b.Examples[i].Features))*8 + 4
	}
	return n
}

// Keys returns the deduplicated, sorted union of feature keys referenced by
// the batch — the "working parameters" of Algorithm 1.
func (b *Batch) Keys() []keys.Key {
	var out []keys.Key
	for i := range b.Examples {
		out = append(out, b.Examples[i].Features...)
	}
	return keys.Dedup(out)
}

// IndexInto rebuilds x as the batch's key partition, using (and keeping) b's
// scratch: x.Unique equals Keys() and x.Rows follows the examples' features in
// batch order. Unlike Keys it reuses storage, so a caller that keeps its
// builder and recycles its indexes allocates nothing.
func (b *Batch) IndexInto(sc *keys.IndexBuilder, x *keys.Index) {
	sc.Reset()
	for i := range b.Examples {
		sc.Add(b.Examples[i].Features)
	}
	sc.Build(x)
}

// ShardBounds returns the example range [lo, hi) of mini-batch i when a batch
// of n examples is split into shards >= 1 near-equal parts in order: every
// part but the last non-empty one holds ⌈n/shards⌉ examples.
func ShardBounds(n, shards, i int) (lo, hi int) {
	per := (n + shards - 1) / shards
	return min(i*per, n), min((i+1)*per, n)
}

// Shard splits the batch into n mini-batches of near-equal size, preserving
// example order (Algorithm 1 line 5). Every returned mini-batch is non-nil;
// trailing mini-batches may be empty when len(Examples) < n.
func (b *Batch) Shard(n int) []*Batch {
	if n < 1 {
		n = 1
	}
	out := make([]*Batch, n)
	for i := range out {
		lo, hi := ShardBounds(len(b.Examples), n, i)
		out[i] = &Batch{Index: b.Index, Examples: b.Examples[lo:hi]}
	}
	return out
}

// Config describes a synthetic data distribution.
type Config struct {
	// NumFeatures is the size of the sparse feature universe.
	NumFeatures int64
	// NonZerosPerExample is the number of features sampled per example.
	NonZerosPerExample int
	// ZipfS is the Zipf skew exponent (> 1); 1.2 when zero.
	ZipfS float64
	// TeacherSeed seeds the planted ground-truth model that labels examples.
	TeacherSeed int64
	// TeacherScale controls the signal strength of the teacher (default 2.0);
	// higher values make the dataset more separable (higher attainable AUC).
	TeacherScale float64
	// NoiseStd adds Gaussian noise to the teacher logit (default 0.5).
	NoiseStd float64
}

func (c Config) withDefaults() Config {
	if c.NumFeatures <= 0 {
		c.NumFeatures = 1 << 20
	}
	if c.NonZerosPerExample <= 0 {
		c.NonZerosPerExample = 100
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.TeacherScale <= 0 {
		c.TeacherScale = 2.0
	}
	if c.NoiseStd < 0 {
		c.NoiseStd = 0
	} else if c.NoiseStd == 0 {
		c.NoiseStd = 0.5
	}
	return c
}

// Generator produces a deterministic stream of batches for one node.
// A Generator is not safe for concurrent use; create one per node/stream.
type Generator struct {
	cfg   Config
	rng   *rand.Rand
	ranks *rankSampler
	index int
	// seen is the set of keys the example being drawn already holds.
	seen keySet
}

// keySet is an open-addressing set of the keys of one example, emptied in
// O(1) per example: a slot belongs to the set only while its stamp is the
// current one.
type keySet struct {
	slots []keySlot
	stamp uint32
}

type keySlot struct {
	key   keys.Key
	stamp uint32
}

// reset empties the set and sizes it for n keys at a load factor of at most
// one half.
func (s *keySet) reset(n int) {
	if size := 2 << bits.Len(uint(n)); len(s.slots) < size {
		s.slots, s.stamp = make([]keySlot, size), 0
	}
	s.stamp++
	if s.stamp == 0 { // wrapped: stamps of 2^32 examples ago would read live
		clear(s.slots)
		s.stamp = 1
	}
}

// add inserts k and reports whether it was absent.
func (s *keySet) add(k keys.Key) bool {
	mask := uint64(len(s.slots) - 1)
	for i := keys.Mix64(uint64(k)) & mask; ; i = (i + 1) & mask {
		switch slot := &s.slots[i]; {
		case slot.stamp != s.stamp:
			*slot = keySlot{k, s.stamp}
			return true
		case slot.key == k:
			return false
		}
	}
}

// NewGenerator returns a generator seeded with seed. Two generators with the
// same configuration and seed produce identical streams.
func NewGenerator(cfg Config, seed int64) *Generator {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	return &Generator{cfg: cfg, rng: rng, ranks: newRankSampler(rng, cfg.ZipfS, cfg.NumFeatures)}
}

// Config returns the generator's (defaulted) configuration.
func (g *Generator) Config() Config { return g.cfg }

// teacherWeight returns the planted ground-truth weight for a feature. It is
// a deterministic pseudo-random value in roughly N(0, 1), derived from the
// key so the 10^11-parameter "true model" never has to be materialized.
func (g *Generator) teacherWeight(k keys.Key) float64 {
	h := keys.Mix64(uint64(k) ^ uint64(g.cfg.TeacherSeed)*0x9e3779b97f4a7c15)
	// Map two 32-bit halves to a normal-ish value via a sum of uniforms.
	u1 := float64(uint32(h)) / float64(1<<32)
	u2 := float64(uint32(h>>32)) / float64(1<<32)
	return (u1 + u2 - 1.0) * 3.46 // variance ≈ 1
}

// TeacherLogit returns the planted model's logit for a set of features. It is
// exported so experiments can compute the Bayes-optimal AUC of a dataset.
func (g *Generator) TeacherLogit(features []keys.Key) float64 {
	if len(features) == 0 {
		return 0
	}
	var sum float64
	for _, k := range features {
		sum += g.teacherWeight(k)
	}
	return g.cfg.TeacherScale * sum / math.Sqrt(float64(len(features)))
}

// NextExample generates one example.
func (g *Generator) NextExample() Example {
	return g.fill(make([]keys.Key, 0, g.cfg.NonZerosPerExample))
}

// fill draws one example's distinct features into feats, which must be empty
// with capacity for NonZerosPerExample keys, then labels it.
func (g *Generator) fill(feats []keys.Key) Example {
	nnz := g.cfg.NonZerosPerExample
	g.seen.reset(nnz)
	for len(feats) < nnz {
		// Scatter the zipf rank across the key space so that modulo sharding
		// stays balanced while popularity remains skewed.
		k := keys.Key(keys.Mix64(g.ranks.next()) % uint64(g.cfg.NumFeatures))
		if g.seen.add(k) {
			feats = append(feats, k)
		}
	}
	logit := g.TeacherLogit(feats)
	if g.cfg.NoiseStd > 0 {
		logit += g.rng.NormFloat64() * g.cfg.NoiseStd
	}
	p := 1.0 / (1.0 + math.Exp(-logit))
	var label float32
	if g.rng.Float64() < p {
		label = 1
	}
	return Example{Features: feats, Label: label}
}

// NextBatch generates a batch of n examples. Their features share one backing
// array; each example's slice is capacity-limited to its own part of it, so
// appending to one example's Features reallocates instead of overwriting its
// neighbour's.
func (g *Generator) NextBatch(n int) *Batch {
	if n < 0 {
		n = 0
	}
	nnz := g.cfg.NonZerosPerExample
	b := &Batch{Index: g.index, Examples: make([]Example, n)}
	slab := make([]keys.Key, n*nnz)
	for i := range b.Examples {
		b.Examples[i] = g.fill(slab[i*nnz : i*nnz : (i+1)*nnz])
	}
	g.index++
	return b
}

// ForModel builds a Config matching a model specification: the feature
// universe equals the model's sparse parameter count and the per-example
// non-zero count matches Table 3.
func ForModel(sparseParams int64, nonZeros int) Config {
	return Config{
		NumFeatures:        sparseParams,
		NonZerosPerExample: nonZeros,
	}
}

// Validate returns an error when the configuration cannot generate the
// requested examples (more distinct non-zeros than features exist).
func (c Config) Validate() error {
	cc := c.withDefaults()
	if int64(cc.NonZerosPerExample) > cc.NumFeatures {
		return fmt.Errorf("dataset: %d non-zeros per example exceeds universe of %d features",
			cc.NonZerosPerExample, cc.NumFeatures)
	}
	return nil
}
