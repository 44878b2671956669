package trainer

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hps/internal/cluster"
	"hps/internal/dataset"
	"hps/internal/hw"
	"hps/internal/interconnect"
)

// sameBits reports whether a and b are bitwise equal.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// denseFlats returns the stored dense copy, flattened: parameters and state.
func denseFlats(tr *Trainer) (params, state []float32) {
	tr.denseMu.Lock()
	defer tr.denseMu.Unlock()
	return tr.net.FlattenParams(nil), tr.denseState.Flatten(nil)
}

// TestDenseStepBesideReaders runs the dense step the way production does — 2
// nodes x 2 GPUs, in-process and against shard servers over TCP, pipeline
// depth 2 — with the tower's three readers active: a Predict loop throughout
// and a mid-run WriteCheckpoint (the serving republish reads under the same
// lock). Under -race this is the test that the workers only read the tower
// and that the one write per batch is the dense step under denseMu. The
// mid-run manifest must then restore bit-exactly into a fresh trainer, which
// must resume from it.
func TestDenseStepBesideReaders(t *testing.T) {
	data := testData()
	spec := testSpec()
	const batches, batchSize, cutAfter = 24, 256, 4 * 2 * 256
	for _, mode := range []string{"in-process", "remote"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{
				Spec:           spec,
				Data:           data,
				Topology:       cluster.Topology{Nodes: 2, GPUsPerNode: 2},
				BatchSize:      batchSize,
				Batches:        batches,
				MaxInFlight:    2,
				Seed:           5,
				CheckpointPath: filepath.Join(dir, "ckpt.json"),
			}
			if mode == "remote" {
				_, cfg.RemoteShards = startShards(t, cfg.Topology, cfg.Seed, 0, 0)
			} else {
				cfg.Dir = filepath.Join(dir, "state")
			}
			tr, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()

			// The reader: predicts without pause, and cuts one checkpoint once
			// the run is under way, keeping a copy the final Close cannot
			// overwrite.
			midRun := filepath.Join(dir, "mid-run.json")
			stop, readerDone := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(readerDone)
				gen := dataset.NewGenerator(data, 99)
				cut := false
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := tr.Predict(gen.NextExample().Features); err != nil {
						t.Error(err)
						return
					}
					if !cut && tr.Examples() >= cutAfter {
						cut = true
						if err := tr.WriteCheckpoint(); err != nil {
							t.Error(err)
							return
						}
						raw, err := os.ReadFile(cfg.CheckpointPath)
						if err == nil {
							err = os.WriteFile(midRun, raw, 0o644)
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
			runErr := tr.Run(context.Background())
			close(stop)
			<-readerDone
			if runErr != nil {
				t.Fatal(runErr)
			}
			if r := tr.Report(); r.DenseSteps != batches {
				t.Fatalf("dense steps = %d, want one per batch, %d", r.DenseSteps, batches)
			}
			if auc := evalAUC(t, tr, dataset.NewGenerator(data, 999), 1000); auc < 0.62 {
				t.Fatalf("AUC = %.4f, want > 0.62", auc)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}

			m, err := LoadManifest(midRun)
			if err != nil {
				t.Fatalf("no mid-run checkpoint was cut: %v", err)
			}
			if m.Batches <= 0 || m.Batches >= batches {
				t.Fatalf("checkpoint cut at batch %d of %d, not mid-run", m.Batches, batches)
			}
			resumed, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer resumed.Close()
			if _, err := resumed.Restore(midRun); err != nil {
				t.Fatal(err)
			}
			if p, s := denseFlats(resumed); !sameBits(p, m.Dense) || !sameBits(s, m.DenseOpt) {
				t.Fatal("restored dense tower differs from the manifest")
			}
			if err := resumed.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got, want := resumed.Examples(), int64(batches*2*batchSize); got != want {
				t.Fatalf("resumed run trained %d examples in total, want %d", got, want)
			}
		})
	}

	// With one example per batch and two GPUs, GPU 1's shard is always
	// empty: it must add an exact zero to every dense step, so the run ends
	// bit for bit where the same stream trained on one GPU does.
	t.Run("empty-shard", func(t *testing.T) {
		run := func(gpus int) (params, state []float32) {
			tr := runTrainer(t, Config{Spec: spec, Data: data, Topology: cluster.Topology{Nodes: 1, GPUsPerNode: gpus},
				BatchSize: 1, Batches: 40, Seed: 5})
			if r := tr.Report(); r.DenseSteps != 40 {
				t.Fatalf("%d GPUs: dense steps = %d, want 40", gpus, r.DenseSteps)
			}
			params, state = denseFlats(tr)
			// The dense step zeroed every accumulator: one more step, with
			// nothing trained since, moves nothing.
			tr.denseStep()
			if p, s := denseFlats(tr); !sameBits(p, params) || !sameBits(s, state) {
				t.Fatalf("%d GPUs: a worker kept its gradient past the dense step", gpus)
			}
			return params, state
		}
		onePar, oneState := run(1)
		twoPar, twoState := run(2)
		if !sameBits(onePar, twoPar) || !sameBits(oneState, twoState) {
			t.Fatal("an empty shard changed the dense step")
		}
	})
}

// TestAllReduceChargesDenseGradient pins the modelled all-reduce: with more
// than one GPU in the run, a batch synchronizes its sparse delta rows and the
// dense gradient (4 bytes per dense parameter), split over every GPU; a
// single GPU synchronizes nothing.
func TestAllReduceChargesDenseGradient(t *testing.T) {
	spec := testSpec()
	for _, topo := range []cluster.Topology{{Nodes: 1, GPUsPerNode: 1}, {Nodes: 1, GPUsPerNode: 2}, {Nodes: 2, GPUsPerNode: 2}} {
		tr, err := New(Config{Spec: spec, Data: testData(), Batches: 1, Topology: topo})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		gpus := int64(topo.TotalGPUs())
		// 32->16->1 over the 8-wide input: 8*32+32 + 32*16+16 + 16+1.
		const denseBytes = 4 * (8*32 + 32 + 32*16 + 16 + 16 + 1)
		const rows, rowBytes = 100, 8 + 2*4*8 + 4 // key, weights and accumulators, frequency
		for _, c := range []struct{ rows, bytes int64 }{{0, denseBytes}, {rows, rows*rowBytes + denseBytes}} {
			w := interconnect.AllReduceWork(c.bytes/gpus, topo.Nodes, topo.GPUsPerNode)
			want := tr.model(w).Sum()
			if gpus == 1 {
				want, w = 0, hw.Work{}
			} else if want <= 0 {
				t.Fatalf("%+v: the model charges nothing for %d bytes; the case tests nothing", topo, c.bytes)
			}
			before := tr.work.Total()
			if got := tr.countAllReduce(int(c.rows)); got != want {
				t.Fatalf("%+v, %d rows: all-reduce %v, want %v", topo, c.rows, got, want)
			}
			if got := tr.work.Total().Minus(before); got != w {
				t.Fatalf("%+v, %d rows: counted %v, want %v", topo, c.rows, got, w)
			}
		}
	}
}
