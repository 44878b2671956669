package mpips

import (
	"testing"

	"hps/internal/dataset"
	"hps/internal/hw"
	"hps/internal/model"
)

func testSpec() model.Spec {
	return model.Spec{
		Name:               "test",
		NonZerosPerExample: 20,
		SparseParams:       10000,
		DenseParams:        2000,
		MPINodes:           10,
		EmbeddingDim:       8,
		HiddenLayers:       []int{16},
	}
}

func newCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c, err := New(Config{Nodes: nodes, Spec: testSpec(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0, Spec: testSpec()}); err == nil {
		t.Fatal("zero nodes should fail")
	}
	if _, err := New(Config{Nodes: 4, Spec: model.Spec{}}); err == nil {
		t.Fatal("empty spec should fail")
	}
	c := newCluster(t, 10)
	if c.Nodes() != 10 || c.Trainer() == nil {
		t.Fatal("accessors wrong")
	}
}

func TestTrainBatchChargesAllStages(t *testing.T) {
	c := newCluster(t, 10)
	gen := dataset.NewGenerator(dataset.ForModel(10000, 20), 1)
	b := gen.NextBatch(64)
	if err := c.TrainBatch(b); err != nil {
		t.Fatal(err)
	}
	bd := c.Breakdown()
	if bd.ReadExamples <= 0 || bd.PullPush <= 0 || bd.Compute <= 0 {
		t.Fatalf("breakdown = %+v", bd)
	}
	if bd.Total() != bd.ReadExamples+bd.PullPush+bd.Compute {
		t.Fatal("total mismatch")
	}
	// The read is one HDFS open of the batch's bytes, priced by hw.Model.
	read := hw.Model(hw.DefaultMPINode(), hw.Ops(hw.ResHDFS, 1, float64(b.ByteSize()))).Sum()
	if bd.ReadExamples != read {
		t.Fatalf("read %v, want %v", bd.ReadExamples, read)
	}
	if c.ExamplesTrained() != 64 {
		t.Fatal("example counter wrong")
	}
	if c.PerNodeBatchTime() <= 0 {
		t.Fatal("per-batch time should be positive")
	}
	// Empty batch is a no-op.
	if err := c.TrainBatch(nil); err != nil {
		t.Fatal(err)
	}
}

func TestThroughputScalesWithNodes(t *testing.T) {
	gen1 := dataset.NewGenerator(dataset.ForModel(10000, 20), 1)
	gen2 := dataset.NewGenerator(dataset.ForModel(10000, 20), 1)
	small := newCluster(t, 10)
	large := newCluster(t, 100)
	for i := 0; i < 3; i++ {
		small.TrainBatch(gen1.NextBatch(64))
		large.TrainBatch(gen2.NextBatch(64))
	}
	ts := small.Throughput()
	tl := large.Throughput()
	if tl.ExamplesPerSecond() <= ts.ExamplesPerSecond() {
		t.Fatalf("100-node cluster (%v ex/s) should out-train 10-node (%v ex/s)",
			tl.ExamplesPerSecond(), ts.ExamplesPerSecond())
	}
	// Scaling is sub-linear in nodes only through the remote fraction; with
	// the cost model it should still be within ~10x for 10x nodes.
	ratio := tl.ExamplesPerSecond() / ts.ExamplesPerSecond()
	if ratio > 10.5 {
		t.Fatalf("scaling ratio %v exceeds node ratio", ratio)
	}
}

func TestBaselineLearns(t *testing.T) {
	cfg := dataset.Config{NumFeatures: 3000, NonZerosPerExample: 15}
	train := dataset.NewGenerator(cfg, 1)
	test := dataset.NewGenerator(cfg, 2)
	c, err := New(Config{Nodes: 10, Spec: model.Spec{
		NonZerosPerExample: 15, EmbeddingDim: 8, HiddenLayers: []int{32, 16},
	}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The full workload dominates the package's test time; -short trains a
	// quarter of it against a correspondingly looser bar.
	batches, evalN, minAUC := 40, 1500, 0.65
	if testing.Short() {
		batches, evalN, minAUC = 10, 500, 0.60
	}
	for i := 0; i < batches; i++ {
		if err := c.TrainBatch(train.NextBatch(128)); err != nil {
			t.Fatal(err)
		}
	}
	auc := c.Evaluate(test, evalN)
	if auc < minAUC {
		t.Fatalf("MPI baseline AUC = %v, want > %v", auc, minAUC)
	}
	if p := c.Predict(train.NextExample().Features); p <= 0 || p >= 1 {
		t.Fatalf("prediction %v out of range", p)
	}
}

func TestComputeDominatesForLargeDense(t *testing.T) {
	// CPU compute must dominate the per-batch time for a model with a large
	// dense tower — the reason the paper needs 75-150 CPU nodes.
	spec := testSpec()
	spec.HiddenLayers = []int{1024, 512}
	c, err := New(Config{Nodes: 100, Spec: spec, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gen := dataset.NewGenerator(dataset.ForModel(10000, 20), 1)
	// The batch must stay large enough that HDFS's fixed per-batch open
	// latency does not mask the bandwidth/compute ratio under test. The
	// assertion is about the cost model only, so -short skips the real
	// gradient math (which dominates this package's test time) and charges
	// the modelled costs directly.
	b := gen.NextBatch(2048)
	if testing.Short() {
		c.accountBatch(b)
	} else {
		c.TrainBatch(b)
	}
	bd := c.Breakdown()
	if bd.Compute <= bd.ReadExamples {
		t.Fatalf("compute (%v) should dominate HDFS (%v) for a large dense tower", bd.Compute, bd.ReadExamples)
	}
}
