package trainer

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hps/internal/cluster"
	"hps/internal/dataset"
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

// trainReplicaRun trains w's replica on n seeded examples, the way trainShard
// does between a check-out and a commit.
func trainReplicaRun(tr *Trainer, w *gpuWorker, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		for j := range w.acts.Input() {
			w.acts.Input()[j] = rng.Float32()*2 - 1
		}
		w.net.BackwardApply(w.acts, w.net.Forward(w.acts), float32(rng.Intn(2)), tr.denseOpt, w.state)
	}
}

// TestDenseCheckoutCommitProtocol drives the replica protocol by hand, in the
// one interleaving a scheduler cannot be made to produce on demand: two
// workers check out the same stored copy, both train, both commit. The first
// commit finds nothing new and copies its replica over; the second finds the
// first's and merges, after which the stored copy holds both contributions
// and neither replica equals it — so both must copy in at their next
// check-out, and a worker whose own commit was the last must not.
func TestDenseCheckoutCommitProtocol(t *testing.T) {
	tr, err := New(Config{Spec: testSpec(), Data: testData(), Batches: 1,
		Topology: cluster.Topology{Nodes: 1, GPUsPerNode: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	w0, w1 := tr.nodes[0].workers[0], tr.nodes[0].workers[1]
	// want is the stored copy as nn's Commit (pinned by nn.TestCommitProperty)
	// says it must end up: both replicas' runs folded into the base.
	want, wantState := tr.net.Clone(), tr.net.NewDenseState(tr.denseOpt)

	tr.checkoutDense(w0)
	tr.checkoutDense(w1)
	if w0.version != 0 || w1.version != 0 {
		t.Fatal("a fresh replica equals the fresh stored copy; its check-out must copy nothing")
	}
	trainReplicaRun(tr, w0, 1, denseMicroRun)
	trainReplicaRun(tr, w1, 2, denseMicroRun)
	for _, w := range []*gpuWorker{w0, w1} {
		want.Commit(w.origNet, w.net)
		wantState.Commit(w.origState, w.state)
	}

	tr.commitDense(w0)
	if p, s := denseFlats(tr); !sameBits(p, w0.net.FlattenParams(nil)) || !sameBits(s, w0.state.Flatten(nil)) {
		t.Fatal("a commit with no peer in between must leave exactly the replica")
	}
	tr.commitDense(w1)
	stored, storedState := denseFlats(tr)
	if !sameBits(stored, want.FlattenParams(nil)) || !sameBits(storedState, wantState.Flatten(nil)) {
		t.Fatal("after both commits the stored copy is not the base plus both replicas' runs")
	}
	if sameBits(stored, w0.net.FlattenParams(nil)) || sameBits(stored, w1.net.FlattenParams(nil)) {
		t.Fatal("the merged stored copy equals one replica; the second run taught nothing and the case tests nothing")
	}
	if r := tr.Report(); r.DenseCommits != 2 || r.DenseMerges != 1 {
		t.Fatalf("commits %d merges %d, want 2 and 1", r.DenseCommits, r.DenseMerges)
	}

	// Neither replica equals the stored copy now: both copy in.
	for i, w := range []*gpuWorker{w0, w1} {
		tr.checkoutDense(w)
		if !sameBits(w.net.FlattenParams(nil), stored) || !sameBits(w.state.Flatten(nil), storedState) {
			t.Fatalf("worker %d trains on a replica that missed a peer's commit", i)
		}
		if !sameBits(w.origNet.FlattenParams(nil), stored) || !sameBits(w.origState.Flatten(nil), storedState) {
			t.Fatalf("worker %d snapshot differs from its replica", i)
		}
	}
	// A lone worker: its commit is the last, its next check-out is in sync.
	trainReplicaRun(tr, w0, 3, denseMicroRun)
	tr.commitDense(w0)
	if w0.version != tr.denseVersion {
		t.Fatal("a worker whose own commit was the last must not need a copy-in")
	}
	if p, s := denseFlats(tr); !sameBits(p, w0.net.FlattenParams(nil)) || !sameBits(s, w0.state.Flatten(nil)) {
		t.Fatal("an in-sync replica must equal the stored copy")
	}
}

// TestDenseReplicasBesideReaders runs the replicas the way production does —
// 2 nodes x 2 GPUs, in-process and against shard servers over TCP, pipeline
// depth 2 — with the stored copy's three readers active: a Predict loop
// throughout and a mid-run WriteCheckpoint (the serving republish reads under
// the same lock). Under -race this is the test that the workers touch the
// stored copy only through check-out and commit. The mid-run manifest must
// then restore bit-exactly into a fresh trainer, which must resume from it.
func TestDenseReplicasBesideReaders(t *testing.T) {
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
				_, cfg.RemoteShards = startShards(t, cfg.Topology, spec.EmbeddingDim, cfg.Seed, 0, 0)
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
			r := tr.Report()
			// Each worker's 128-example shard is four micro-runs.
			if want := int64(batches * 2 * 2 * (batchSize / 2 / denseMicroRun)); r.DenseCommits != want {
				t.Fatalf("dense commits = %d, want %d", r.DenseCommits, want)
			}
			t.Logf("%d of %d dense commits merged with a peer's", r.DenseMerges, r.DenseCommits)
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
			// Every replica was built equal to the initialization the restore
			// just replaced: each must see that it is out of date, or its first
			// commit would overwrite the restore.
			for _, n := range resumed.nodes {
				for g, w := range n.workers {
					if w.version == resumed.denseVersion {
						t.Fatalf("node %d gpu %d would skip the copy-in after a restore", n.id, g)
					}
				}
			}
			if err := resumed.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got, want := resumed.Examples(), int64(batches*2*batchSize); got != want {
				t.Fatalf("resumed run trained %d examples in total, want %d", got, want)
			}
		})
	}
}
