package trainer

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"hps/internal/cluster"
	"hps/internal/dataset"
	"hps/internal/model"
	"hps/internal/reference"
)

func testSpec() model.Spec {
	return model.Spec{
		Name:               "test",
		NonZerosPerExample: 15,
		SparseParams:       3000,
		EmbeddingDim:       8,
		HiddenLayers:       []int{32, 16},
	}
}

func testData() dataset.Config {
	return dataset.Config{NumFeatures: 3000, NonZerosPerExample: 15}
}

func evalAUC(t *testing.T, tr *Trainer, gen *dataset.Generator, n int) float64 {
	t.Helper()
	auc, err := tr.Evaluate(gen, n)
	if err != nil {
		t.Fatal(err)
	}
	return auc
}

func runTrainer(t *testing.T, cfg Config) *Trainer {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	if err := tr.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("spec without embedding dim should fail")
	}
	if _, err := New(Config{Spec: testSpec(), Topology: cluster.Topology{Nodes: -1, GPUsPerNode: 1}}); err == nil {
		t.Fatal("bad topology should fail")
	}
	// In process each key lives at its one owner; nothing keeps backups.
	if _, err := New(Config{Spec: testSpec(), Data: testData(), Batches: 1,
		Topology: cluster.Topology{Nodes: 2, GPUsPerNode: 1, Replicas: 2}}); err == nil {
		t.Fatal("in-process replicas should fail")
	}
	// The wire carries fp32 rows only; another encoding is refused by name.
	if _, err := New(Config{Spec: testSpec(), Data: testData(), Batches: 1, WirePrecision: "int8"}); err == nil ||
		!strings.Contains(err.Error(), `"int8"`) {
		t.Fatalf("wire precision int8: %v, want a refusal naming it", err)
	}
	tr, err := New(Config{Spec: testSpec(), Data: testData(), Batches: 1, WirePrecision: "fp32"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if len(tr.nodes) != 1 {
		t.Fatal("default topology should be one node")
	}
	if err := tr.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := tr.Run(context.Background()); err == nil {
		// A second run would re-read exhausted streams.
		t.Log("second Run unexpectedly succeeded") // tolerated, not part of the contract
	}
}

// TestConvergesToReferenceOracle is the Fig 3(b) check: the hierarchical
// trainer must reach the same quality as the plain in-memory reference
// trainer on the same synthetic click stream.
func TestConvergesToReferenceOracle(t *testing.T) {
	data := testData()
	spec := testSpec()
	const seed = 7
	// Both trainers must reach their convergence plateau for the 0.5% band
	// to be meaningful, so the workload is not reduced under -short (the
	// whole test runs in well under a second).
	batches, batchSize, evalN := 30, 128, 1500

	// The oracle trains on exactly the stream node 0 sees.
	ref := reference.New(reference.Config{
		EmbeddingDim: spec.EmbeddingDim,
		Hidden:       spec.HiddenLayers,
		Seed:         seed,
	})
	refGen := dataset.NewGenerator(data, seed)
	for i := 0; i < batches; i++ {
		ref.TrainBatch(refGen.NextBatch(batchSize))
	}

	tr := runTrainer(t, Config{
		Spec:        spec,
		Data:        data,
		Topology:    cluster.Topology{Nodes: 1, GPUsPerNode: 1},
		BatchSize:   batchSize,
		Batches:     batches,
		MaxInFlight: 1, // strict Algorithm-1 ordering for the oracle check
		Seed:        seed,
	})
	if got, want := tr.Examples(), int64(batches*batchSize); got != want {
		t.Fatalf("examples = %d, want %d", got, want)
	}

	refAUC := ref.Evaluate(dataset.NewGenerator(data, 999), evalN)
	hpsAUC := evalAUC(t, tr, dataset.NewGenerator(data, 999), evalN)
	t.Logf("reference AUC = %.4f, hierarchical AUC = %.4f", refAUC, hpsAUC)
	if refAUC < 0.6 {
		t.Fatalf("reference oracle failed to learn (AUC %.4f); test data too hard", refAUC)
	}
	if diff := math.Abs(refAUC - hpsAUC); diff > 0.005 {
		t.Fatalf("hierarchical trainer diverged from oracle: |%.4f - %.4f| = %.4f > 0.005",
			hpsAUC, refAUC, diff)
	}
}

// TestMatchesMiniBatchOracle pins the hot path's arithmetic to the
// reference trainer's mini-batch step: with one node of one GPU (no
// concurrent writers anywhere) the block pull -> offset-indexed
// forward and backward -> one sparse step per row -> block commit cycle, and
// the batch's one dense step, are bit for bit reference.Trainer.TrainBatch on
// the same stream. So the two must end with the *identical* dense tower and
// optimizer state, bit for bit, and (the sparse half, read back through the
// push and the MEM-PS) the identical AUC — not merely close ones.
func TestMatchesMiniBatchOracle(t *testing.T) {
	data := testData()
	spec := testSpec()
	const seed, batches, batchSize, evalN = 7, 20, 128, 1500
	tr := runTrainer(t, Config{
		Spec:        spec,
		Data:        data,
		Topology:    cluster.Topology{Nodes: 1, GPUsPerNode: 1},
		BatchSize:   batchSize,
		Batches:     batches,
		MaxInFlight: 1,
		Seed:        seed,
	})
	ref := reference.New(reference.Config{EmbeddingDim: spec.EmbeddingDim, Hidden: spec.HiddenLayers, Seed: seed})
	gen := dataset.NewGenerator(data, seed)
	for i := 0; i < batches; i++ {
		ref.TrainBatch(gen.NextBatch(batchSize))
	}
	params, state := denseFlats(tr)
	if !sameBits(params, ref.Network().FlattenParams(nil)) {
		t.Fatal("the trainer's dense parameters differ from the mini-batch oracle's")
	}
	if !sameBits(state, ref.DenseState().Flatten(nil)) {
		t.Fatal("the trainer's dense optimizer state differs from the mini-batch oracle's")
	}
	got := evalAUC(t, tr, dataset.NewGenerator(data, 999), evalN)
	want := ref.Evaluate(dataset.NewGenerator(data, 999), evalN)
	t.Logf("trainer AUC = %.6f, oracle AUC = %.6f", got, want)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("trainer diverged from the mini-batch oracle: AUC %.9f != %.9f", got, want)
	}
	if got < 0.6 {
		t.Fatalf("both failed to learn (AUC %.4f)", got)
	}
}

// TestMultiNodeMultiGPU drives the full distributed path: remote MEM-PS
// pulls, per-GPU concurrent workers, inter-node delta synchronization, and
// eviction pressure that exercises the SSD-PS.
func TestMultiNodeMultiGPU(t *testing.T) {
	data := testData()
	batches := 20
	if testing.Short() {
		batches = 8
	}
	tr := runTrainer(t, Config{
		Spec:        testSpec(),
		Data:        data,
		Topology:    cluster.Topology{Nodes: 2, GPUsPerNode: 2},
		BatchSize:   128,
		Batches:     batches,
		MaxInFlight: 2,
		// Cache levels far below the per-node working set force evictions
		// through to the SSD-PS.
		LRUEntries: 96,
		LFUEntries: 96,
		Seed:       3,
	})

	auc := evalAUC(t, tr, dataset.NewGenerator(data, 999), 1000)
	if auc < 0.62 {
		t.Fatalf("distributed trainer AUC = %.4f, want > 0.62", auc)
	}

	r := tr.Report()
	if r.Batches != int64(batches) || r.Examples != int64(2*batches*128) {
		t.Fatalf("report counts wrong: %+v", r)
	}
	if len(r.Tiers) != 3 {
		t.Fatalf("expected 3 tiers, got %d", len(r.Tiers))
	}
	for _, ti := range r.Tiers[:2] { // hbm-ps and mem-ps must both be hot
		if ti.Stats.Pulls == 0 || ti.Stats.Pushes == 0 {
			t.Fatalf("tier %s idle: %+v", ti.Name, ti.Stats)
		}
	}
	if r.SSD.Dumps == 0 {
		t.Fatal("cache pressure should have dumped parameters to the SSD-PS")
	}
	if r.CacheHitRate <= 0 {
		t.Fatal("cache hit rate should be positive on a zipfian stream")
	}
	if r.AllReduce <= 0 {
		t.Fatal("multi-GPU training must charge all-reduce time")
	}
	for _, s := range r.Stages {
		if s.Modelled <= 0 {
			t.Fatalf("stage %s has no modelled time", s.Name)
		}
	}
	if r.Throughput.ExamplesPerSecond() <= 0 {
		t.Fatal("throughput should be positive")
	}

	// Every batch, each node received the keys its peer owns from the peer,
	// charged to the network.
	for _, n := range tr.nodes {
		st := n.local.Stats()
		if st.RemoteKeys == 0 || st.RemotePulls != int64(batches) {
			t.Fatalf("node %d received %d peer keys in %d pulls over %d batches: two-node training must pull remote shards",
				n.id, st.RemoteKeys, st.RemotePulls, batches)
		}
	}
	if r.Resources["network"] <= 0 {
		t.Fatal("peer pulls must count network work")
	}
}

// TestPipelineOverlap asserts the Section 3 property: with prefetching, the
// steady-state batch latency tracks the slowest stage, not the sum of all
// stages. Stage wall times are controlled via the stageDelay test hook. The
// slowest stage is a parameter stage: at depth 1 the read already overlaps
// the rest (TestDepthContract), so only deeper pipelines can hide train
// behind pull and push.
func TestPipelineOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock timing test")
	}
	delays := map[string]time.Duration{
		StageRead:  15 * time.Millisecond,
		StagePull:  15 * time.Millisecond,
		StageTrain: 40 * time.Millisecond,
		StagePush:  15 * time.Millisecond,
	}
	const batches = 8
	run := func(inFlight int) time.Duration {
		tr, err := New(Config{
			Spec:        testSpec(),
			Data:        testData(),
			BatchSize:   8, // tiny batches: the injected delays dominate
			Batches:     batches,
			MaxInFlight: inFlight,
			Seed:        1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		tr.stageDelay = delays
		start := time.Now()
		if err := tr.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	serial := run(1)
	overlapped := run(4)
	t.Logf("serial = %v, overlapped = %v", serial, overlapped)

	// Depth 1 pays pull + train + push per batch (>= 70ms each, the read
	// hidden behind them); overlapped steady state pays only the slowest
	// stage (40ms) per batch after fill.
	slowest := delays[StageTrain]
	if overlapped < time.Duration(batches-1)*slowest {
		t.Fatalf("overlapped run %v beat the slowest-stage bound %v: impossible",
			overlapped, time.Duration(batches-1)*slowest)
	}
	if overlapped >= serial*8/10 {
		t.Fatalf("pipeline did not overlap: overlapped %v vs serial %v", overlapped, serial)
	}
}

// TestFlushPersistsModel checks that Close materializes the model on the
// SSD-PS when the trainer runs over a caller-owned directory.
func TestFlushPersistsModel(t *testing.T) {
	dir := t.TempDir()
	tr, err := New(Config{
		Spec:      testSpec(),
		Data:      testData(),
		BatchSize: 64,
		Batches:   3,
		Dir:       dir,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	store := tr.nodes[0].store
	if store.Len() == 0 {
		t.Fatal("flush should persist trained parameters")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
}
