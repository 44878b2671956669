package trainer

import (
	"context"
	"testing"
	"time"

	"hps/internal/cluster"
)

// TestStageModelledIsPerNode: a stage's modelled time is, batch by batch, the
// slowest node's own work. So two nodes training at once report exactly what
// they report taking turns (the sequential hook), run after run. A stage that
// read a counter both nodes advance would also take in whatever the other
// node did meanwhile, and its time would vary with the overlap. The pull
// stage is left out: which misses the SSD-PS serves depends on how far the
// background write has got.
func TestStageModelledIsPerNode(t *testing.T) {
	run := func(sequential bool) map[string]time.Duration {
		tr, err := New(Config{Spec: testSpec(), Data: testData(), Batches: 20, BatchSize: 64, Seed: 3,
			Topology: cluster.Topology{Nodes: 2, GPUsPerNode: 4}})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		tr.sequential = sequential
		if err := tr.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]time.Duration)
		for _, s := range tr.Report().Stages {
			out[s.Name] = s.Modelled
		}
		return out
	}
	want := run(true)
	for i := 0; i < 3; i++ {
		got := run(false)
		for _, s := range []string{StageRead, StageTrain, StagePush} {
			if want[s] <= 0 {
				t.Fatalf("stage %s models no time; the check tests nothing", s)
			}
			if got[s] != want[s] {
				t.Errorf("run %d: stage %s modelled %v with the nodes concurrent, %v in turns", i, s, got[s], want[s])
			}
		}
	}
}
