package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"hps/internal/keys"
	"hps/internal/metrics"
)

func testConfig() Config {
	return Config{NumFeatures: 10000, NonZerosPerExample: 20}
}

func TestGeneratorDeterministic(t *testing.T) {
	g1 := NewGenerator(testConfig(), 42)
	g2 := NewGenerator(testConfig(), 42)
	b1 := g1.NextBatch(50)
	b2 := g2.NextBatch(50)
	if b1.Len() != b2.Len() {
		t.Fatal("lengths differ")
	}
	for i := range b1.Examples {
		if b1.Examples[i].Label != b2.Examples[i].Label {
			t.Fatal("labels differ for identical seeds")
		}
		if len(b1.Examples[i].Features) != len(b2.Examples[i].Features) {
			t.Fatal("feature counts differ")
		}
		for j := range b1.Examples[i].Features {
			if b1.Examples[i].Features[j] != b2.Examples[i].Features[j] {
				t.Fatal("features differ for identical seeds")
			}
		}
	}
}

func TestGeneratorDifferentSeedsDiffer(t *testing.T) {
	g1 := NewGenerator(testConfig(), 1)
	g2 := NewGenerator(testConfig(), 2)
	b1 := g1.NextBatch(10)
	b2 := g2.NextBatch(10)
	same := true
	for i := range b1.Examples {
		for j := range b1.Examples[i].Features {
			if b1.Examples[i].Features[j] != b2.Examples[i].Features[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds should produce different streams")
	}
}

func TestExampleShape(t *testing.T) {
	g := NewGenerator(testConfig(), 7)
	for i := 0; i < 100; i++ {
		ex := g.NextExample()
		if len(ex.Features) != 20 {
			t.Fatalf("example has %d features, want 20", len(ex.Features))
		}
		seen := make(map[keys.Key]bool)
		for _, k := range ex.Features {
			if uint64(k) >= 10000 {
				t.Fatalf("feature %d outside universe", k)
			}
			if seen[k] {
				t.Fatal("duplicate feature within example")
			}
			seen[k] = true
		}
		if ex.Label != 0 && ex.Label != 1 {
			t.Fatalf("label = %v", ex.Label)
		}
	}
}

// TestGeneratorsAreIndependent interleaves two generators' draws: each stream
// is what it would have been alone (the sampler's state is per generator).
func TestGeneratorsAreIndependent(t *testing.T) {
	cfg := Config{NumFeatures: 60000, NonZerosPerExample: 50} // table and tail
	alone := NewGenerator(cfg, 42).NextBatch(40)
	a, other := NewGenerator(cfg, 42), NewGenerator(cfg, 43)
	for i := 0; i < 40; i++ {
		ex := a.NextExample()
		other.NextBatch(3)
		if ex.Label != alone.Examples[i].Label || !slices.Equal(ex.Features, alone.Examples[i].Features) {
			t.Fatalf("example %d changed when another generator drew in between", i)
		}
	}
}

// TestNextBatchExamplesAreDistinctAndIsolated checks the slab layout: every
// example holds exactly nnz distinct in-universe features, and appending to
// one example's Features cannot reach its neighbour's.
func TestNextBatchExamplesAreDistinctAndIsolated(t *testing.T) {
	for _, cfg := range []Config{
		{NumFeatures: 60000, NonZerosPerExample: 50},
		{NumFeatures: 1000, NonZerosPerExample: 100}, // collisions are common
		{NumFeatures: 1 << 40, NonZerosPerExample: 30},
	} {
		b := NewGenerator(cfg, 7).NextBatch(64)
		for i, ex := range b.Examples {
			if len(ex.Features) != cfg.NonZerosPerExample || cap(ex.Features) != cfg.NonZerosPerExample {
				t.Fatalf("example %d: %d features (cap %d), want %d", i, len(ex.Features), cap(ex.Features), cfg.NonZerosPerExample)
			}
			seen := make(map[keys.Key]bool)
			for _, k := range ex.Features {
				if uint64(k) >= uint64(cfg.NumFeatures) || seen[k] {
					t.Fatalf("example %d: feature %d repeated or outside the universe", i, k)
				}
				seen[k] = true
			}
		}
		next := slices.Clone(b.Examples[1].Features)
		grown := append(b.Examples[0].Features, 12345)
		if !slices.Equal(b.Examples[1].Features, next) || &grown[0] == &b.Examples[0].Features[0] {
			t.Fatal("append to one example's Features wrote into the batch's shared backing array")
		}
	}
}

func TestLabelsBothClassesPresent(t *testing.T) {
	g := NewGenerator(testConfig(), 11)
	b := g.NextBatch(2000)
	pos := 0
	for _, ex := range b.Examples {
		if ex.Label == 1 {
			pos++
		}
	}
	if pos == 0 || pos == b.Len() {
		t.Fatalf("degenerate label distribution: %d/%d positive", pos, b.Len())
	}
}

func TestTeacherIsLearnableSignal(t *testing.T) {
	// The teacher's own logit must rank the labels well above chance —
	// otherwise no trained model could show AUC gains (Tables 1-2, Fig 3b).
	g := NewGenerator(testConfig(), 13)
	b := g.NextBatch(4000)
	scores := make([]float64, b.Len())
	labels := make([]float64, b.Len())
	for i, ex := range b.Examples {
		scores[i] = g.TeacherLogit(ex.Features)
		labels[i] = float64(ex.Label)
	}
	auc := metrics.AUC(scores, labels)
	if auc < 0.75 {
		t.Fatalf("teacher AUC = %v, want > 0.75 (separable dataset)", auc)
	}
}

func TestFeaturePopularitySkewed(t *testing.T) {
	// The generator must produce a skewed popularity distribution: the top 1%
	// of observed features should cover a disproportionate share of
	// occurrences. This is what gives the MEM-PS cache its ~46% hit rate.
	g := NewGenerator(Config{NumFeatures: 100000, NonZerosPerExample: 50}, 3)
	counts := make(map[keys.Key]int)
	total := 0
	for i := 0; i < 2000; i++ {
		ex := g.NextExample()
		for _, k := range ex.Features {
			counts[k]++
			total++
		}
	}
	// Count occurrences covered by features seen 10+ times.
	hot := 0
	hotFeatures := 0
	for _, c := range counts {
		if c >= 10 {
			hot += c
			hotFeatures++
		}
	}
	if hotFeatures == 0 {
		t.Fatal("no hot features at all — distribution not skewed")
	}
	frac := float64(hot) / float64(total)
	hotFrac := float64(hotFeatures) / float64(len(counts))
	if frac < 2*hotFrac {
		t.Fatalf("popularity not skewed: %.1f%% of occurrences from %.1f%% of features",
			frac*100, hotFrac*100)
	}
}

func TestBatchKeysDedupSorted(t *testing.T) {
	g := NewGenerator(testConfig(), 5)
	b := g.NextBatch(100)
	ks := b.Keys()
	for i := 1; i < len(ks); i++ {
		if ks[i] <= ks[i-1] {
			t.Fatal("Keys must be sorted and deduplicated")
		}
	}
	if len(ks) == 0 || len(ks) > 100*20 {
		t.Fatalf("unexpected key count %d", len(ks))
	}
}

func TestBatchByteSize(t *testing.T) {
	b := &Batch{Examples: []Example{
		{Features: []keys.Key{1, 2, 3}, Label: 1},
		{Features: []keys.Key{4}, Label: 0},
	}}
	// 3*8+4 + 1*8+4 = 40
	if got := b.ByteSize(); got != 40 {
		t.Fatalf("ByteSize = %d, want 40", got)
	}
	var empty Batch
	if empty.ByteSize() != 0 {
		t.Fatal("empty batch should have zero size")
	}
}

func TestBatchShard(t *testing.T) {
	g := NewGenerator(testConfig(), 9)
	b := g.NextBatch(10)
	shards := b.Shard(3)
	if len(shards) != 3 {
		t.Fatalf("want 3 shards, got %d", len(shards))
	}
	total := 0
	for _, s := range shards {
		total += s.Len()
		if s.Index != b.Index {
			t.Fatal("shard must keep batch index")
		}
	}
	if total != 10 {
		t.Fatalf("shards lost examples: %d", total)
	}
	// More shards than examples: empty shards allowed, none nil.
	many := b.Shard(20)
	if len(many) != 20 {
		t.Fatal("want 20 shards")
	}
	for _, s := range many {
		if s == nil {
			t.Fatal("no shard may be nil")
		}
	}
	// n < 1 clamps to 1.
	one := b.Shard(0)
	if len(one) != 1 || one[0].Len() != 10 {
		t.Fatal("Shard(0) should produce a single full shard")
	}
}

func TestBatchShardProperty(t *testing.T) {
	g := NewGenerator(testConfig(), 17)
	f := func(nRaw uint8, sizeRaw uint8) bool {
		n := int(nRaw%16) + 1
		size := int(sizeRaw % 64)
		b := g.NextBatch(size)
		shards := b.Shard(n)
		total := 0
		for _, s := range shards {
			total += s.Len()
		}
		return len(shards) == n && total == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchIndexIncrements(t *testing.T) {
	g := NewGenerator(testConfig(), 21)
	for i := 0; i < 5; i++ {
		b := g.NextBatch(1)
		if b.Index != i {
			t.Fatalf("batch index = %d, want %d", b.Index, i)
		}
	}
}

func TestConfigDefaultsAndValidate(t *testing.T) {
	var c Config
	d := c.withDefaults()
	if d.NumFeatures <= 0 || d.NonZerosPerExample <= 0 || d.ZipfS <= 1 || d.TeacherScale <= 0 {
		t.Fatalf("defaults not applied: %+v", d)
	}
	if err := (Config{NumFeatures: 5, NonZerosPerExample: 10}).Validate(); err == nil {
		t.Fatal("expected validation error when non-zeros exceed universe")
	}
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestForModel(t *testing.T) {
	c := ForModel(123456, 500)
	if c.NumFeatures != 123456 || c.NonZerosPerExample != 500 {
		t.Fatalf("ForModel = %+v", c)
	}
}

func TestTeacherLogitEmpty(t *testing.T) {
	g := NewGenerator(testConfig(), 1)
	if g.TeacherLogit(nil) != 0 {
		t.Fatal("empty features should give zero logit")
	}
	if math.IsNaN(g.TeacherLogit([]keys.Key{1, 2, 3})) {
		t.Fatal("logit must not be NaN")
	}
}

func TestNextBatchNegative(t *testing.T) {
	g := NewGenerator(testConfig(), 1)
	b := g.NextBatch(-5)
	if b.Len() != 0 {
		t.Fatal("negative batch size should produce empty batch")
	}
}

// TestGoldenStream pins the generated stream: the hash of the first 200
// batches of 64 examples (every feature key, then the label, in order) at
// two widths over the cold benchmark's 60,000-key universe, and over a
// 1,000-key one, where an example draws many keys it already holds.
func TestGoldenStream(t *testing.T) {
	for _, tc := range []struct {
		features int64
		nnz      int
		want     uint64
	}{
		{60000, 20, 0xa7631c1e81a923e9},
		{60000, 50, 0x96e53741e0817845},
		{1000, 50, 0x458fb6dea05d729a},
	} {
		g := NewGenerator(Config{NumFeatures: tc.features, NonZerosPerExample: tc.nnz}, 1)
		h := fnv.New64a()
		var buf [8]byte
		for range 200 {
			for _, ex := range g.NextBatch(64).Examples {
				for _, k := range ex.Features {
					binary.LittleEndian.PutUint64(buf[:], uint64(k))
					h.Write(buf[:])
				}
				binary.LittleEndian.PutUint32(buf[:4], uint32(ex.Label))
				h.Write(buf[:4])
			}
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%d of %d features: stream hash %#x, want %#x", tc.nnz, tc.features, got, tc.want)
		}
	}
}
