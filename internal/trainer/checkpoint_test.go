package trainer

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hps/internal/cluster"
	"hps/internal/dataset"
)

// TestCheckpointResumeMatchesStraightRun is the round-trip check for the
// durability tentpole: training N batches, checkpointing, and resuming the
// remainder in a fresh process image must land on the same model as training
// all N batches straight through. Everything the manifest carries — dense
// tower, optimizer state, dataset cursor — and everything the SSD-PS carries
// (sparse weights plus their optimizer state) is exercised: dropping any one
// of them moves the resumed AUC off the baseline.
func TestCheckpointResumeMatchesStraightRun(t *testing.T) {
	checkResumeMatchesStraightRun(t, Config{
		Topology: cluster.Topology{Nodes: 1, GPUsPerNode: 1},
		Seed:     11,
	})
}

// TestCheckpointResumeMatchesStraightRunEvicting is the same round trip on
// two nodes whose caches hold 64 rows each: the batches dump their evictions
// through the MEM-PS's background write (a full dump buffer's worth per
// batch), the SSD-PS compacts along the way, and the checkpoint cuts in
// behind a write in flight.
func TestCheckpointResumeMatchesStraightRunEvicting(t *testing.T) {
	half := checkResumeMatchesStraightRun(t, Config{
		Topology:          cluster.Topology{Nodes: 2, GPUsPerNode: 1},
		Seed:              11,
		LRUEntries:        32,
		LFUEntries:        32,
		ParamsPerFile:     32,
		SSDThresholdBytes: 64 << 10,
	})
	for _, n := range half.nodes {
		mem, ssd := n.local.Stats(), n.store.Stats()
		t.Logf("node %d: %d rows dumped, %d compactions", n.id, mem.Dumped, ssd.Compactions)
		// 256 is the MEM-PS's default dump batch.
		if want := int64(half.cfg.Batches * 256); mem.Dumped < want || ssd.Compactions == 0 {
			t.Fatalf("node %d dumped %d rows (want at least %d) and compacted %d times (want some): the writer was not exercised",
				n.id, mem.Dumped, want, ssd.Compactions)
		}
	}
}

// checkResumeMatchesStraightRun trains base (its model, data, batch shape and
// depth set here) straight through and in two halves around a checkpoint,
// and fails unless both land on the same AUC. Nodes are visited in order (the
// sequential hook), so that with several nodes the dense tower's updates
// interleave the same way in every run. It returns the first half's trainer,
// closed.
func checkResumeMatchesStraightRun(t *testing.T, base Config) *Trainer {
	t.Helper()
	data := testData()
	batches, batchSize, evalN := 30, 128, 1500
	base.Spec = testSpec()
	base.Data = data
	base.BatchSize = batchSize
	base.Batches = batches
	base.MaxInFlight = 1 // deterministic Algorithm-1 ordering: AUCs must match exactly
	start := func(cfg Config) *Trainer {
		t.Helper()
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr.sequential = true
		return tr
	}

	straight := start(base)
	t.Cleanup(func() { straight.Close() })
	if err := straight.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := evalAUC(t, straight, dataset.NewGenerator(data, 999), evalN)

	// First incarnation: half the run, then a checkpoint cut by Close.
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.json")
	halfCfg := base
	halfCfg.Dir = filepath.Join(dir, "state")
	halfCfg.Batches = batches / 2
	halfCfg.CheckpointPath = ckpt
	half := start(halfCfg)
	if err := half.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := half.Close(); err != nil {
		t.Fatal(err)
	}

	// Second incarnation: same config for the full run, restored mid-stream.
	resumeCfg := base
	resumeCfg.Dir = halfCfg.Dir
	resumeCfg.CheckpointPath = ckpt
	resumed := start(resumeCfg)
	t.Cleanup(func() { resumed.Close() })
	done, err := resumed.Restore(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if done != batches/2 {
		t.Fatalf("restore resumed at batch %d, checkpoint was cut at %d", done, batches/2)
	}
	if err := resumed.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.Examples(), int64(batches*batchSize*base.Topology.Nodes); got != want {
		t.Fatalf("resumed run trained %d examples in total, want %d", got, want)
	}

	got := evalAUC(t, resumed, dataset.NewGenerator(data, 999), evalN)
	t.Logf("straight AUC = %.6f, checkpoint+resume AUC = %.6f", want, got)
	if diff := math.Abs(want - got); diff > 1e-6 {
		t.Fatalf("resumed run diverged from straight run: |%.6f - %.6f| = %g", got, want, diff)
	}
	return half
}

// TestRestoreValidatesConfig pins the refusal cases: a checkpoint must not be
// restorable into a trainer whose stream or model would silently diverge
// from the one that wrote it.
func TestRestoreValidatesConfig(t *testing.T) {
	data := testData()
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.json")
	base := Config{
		Spec:           testSpec(),
		Data:           data,
		BatchSize:      32,
		Batches:        2,
		Seed:           5,
		Dir:            filepath.Join(dir, "state"),
		CheckpointPath: ckpt,
	}
	tr, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func(*Config){
		"seed":       func(c *Config) { c.Seed = 6 },
		"batch size": func(c *Config) { c.BatchSize = 64 },
		"model":      func(c *Config) { c.Spec.Name = "other" },
		"dense lr":   func(c *Config) { c.DenseLR = 0.123 },
	} {
		cfg := base
		mutate(&cfg)
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Restore(ckpt); err == nil {
			t.Errorf("restore with mismatched %s did not fail", name)
		}
		tr.Close()
	}

	if _, err := LoadManifest(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("loading a missing manifest did not fail")
	}

	// A manifest written before rendezvous placement names its shard
	// directories' keys by a placement this build no longer uses.
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, "v1.json")
	if err := os.WriteFile(old, []byte(strings.Replace(string(raw), `"version":2`, `"version":1`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(old); err == nil || !strings.Contains(err.Error(), "modulo/ring placement") {
		t.Errorf("loading a version-1 manifest: err = %v, want a refusal naming modulo/ring placement", err)
	}
}

// TestCloseKeepsStateWhenFlushFails pins the Close contract: when the final
// flush fails, the SSD-PS directory is the only durable copy of whatever the
// flush managed to write, so Close must preserve it and say where it is —
// not remove it as if the shutdown had been clean.
func TestCloseKeepsStateWhenFlushFails(t *testing.T) {
	tr, err := New(Config{
		Spec:      testSpec(),
		Data:      testData(),
		BatchSize: 32,
		Batches:   2,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Break the flush: node 0's device is closed under it, so every Dump
	// fails to write its parameter file. (Removing the directory would not
	// do: the device holds its backing file open.)
	if err := tr.nodes[0].dev.Close(); err != nil {
		t.Fatal(err)
	}
	closeErr := tr.Close()
	if closeErr == nil {
		t.Fatal("Close over a broken store must report the failed flush")
	}
	if !strings.Contains(closeErr.Error(), tr.tmpDir) {
		t.Fatalf("Close error does not name the preserved state dir %s: %v", tr.tmpDir, closeErr)
	}
	if _, err := os.Stat(tr.tmpDir); err != nil {
		t.Fatalf("Close removed the state dir despite the failed flush: %v", err)
	}
	os.RemoveAll(tr.tmpDir) // the trainer deliberately leaked it; clean up
}
