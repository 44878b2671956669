package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json's shape, as far as the tests read it.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	root, err := findRepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesRegistry keeps BENCHMARK.json and the metric
// registry in step: same workloads, same metrics, same units, directions and
// bounds, in the same order.
func TestBenchmarkFileMatchesRegistry(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(shapes) {
		t.Fatalf("BENCHMARK.json has %d workloads, the bench %d", len(bf.Workloads), len(shapes))
	}
	for i, w := range bf.Workloads {
		if w.Name != shapes[i].name || w.Why != shapes[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, bench %q / %q", i, w.Name, w.Why, shapes[i].name, shapes[i].why)
		}
	}
	var e2e, layer []metricDef
	for _, d := range registry {
		if d.EndToEnd {
			e2e = append(e2e, d)
		} else {
			layer = append(layer, d)
		}
	}
	if len(bf.EndToEnd) != len(e2e) || len(bf.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the registry %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(e2e), len(layer))
	}
	for i, m := range bf.EndToEnd {
		if d := e2e[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, registry %+v", i, m, d)
		}
	}
	for i, m := range bf.PerLayer {
		if d := layer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, registry %+v", i, m, d)
		}
	}
}

// smokeEnv is a benchmark environment cut down to a ~1 s window.
func smokeEnv(t *testing.T) *env {
	t.Helper()
	e, _, err := newEnv(1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		e.gauge.close()
		os.RemoveAll(e.runDir)
	})
	e.setups, e.evalN, e.probeBatches = 1, 300, 8
	e.kneeRates, e.kneeStep = []int{200}, 300*time.Millisecond
	return e
}

// smokeShape shrinks a workload's warm-up and drops its AUC floor: a second
// of training is not expected to converge.
func smokeShape(name string) shape {
	s, _ := shapeNamed(name)
	s.warmup, s.aucFloor = 4, 0
	return s
}

func smokeRun(t *testing.T, e *env, name string) *workloadResult {
	t.Helper()
	rec := newRecorder()
	res := runOnce(e, smokeShape(name), rec)
	if !res.Correct {
		t.Fatalf("%s: not correct: %s; checks %+v", name, res.Error, res.Checks)
	}
	if res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	if res.Layers == nil {
		t.Fatalf("%s: traced run produced no per-layer metrics", name)
	}
	res.Layers.set("bench.trace_overhead_pct", 0, 0)
	res.Layers.fillLayers()

	// A loadable Chrome trace: valid JSON with events in it.
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := rec.writeChromeTrace(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Fatalf("%s: trace not loadable: %v (%d events)", name, err, len(trace.TraceEvents))
	}
	return res
}

// TestSmokeWorkloads runs every workload at a one-second window, checks that
// the result carries every metric BENCHMARK.json names (end-to-end ones
// nonzero), that the untraced+traced pairing of the command line merges the
// two runs, and that the counts that should repeat exactly do so across two
// runs of one seed.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads for a second each")
	}
	bf := readBenchmarkFile(t)
	e := smokeEnv(t)
	first := map[string]*workloadResult{}
	for _, w := range bf.Workloads {
		res := smokeRun(t, e, w.Name)
		first[w.Name] = res
		for _, m := range bf.EndToEnd {
			if v, ok := res.Metrics[m.Name]; !ok || !(v.Value > 0) || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v), want a positive value in %s", w.Name, m.Name, v, ok, m.Unit)
			}
		}
		for _, m := range bf.PerLayer {
			if v, ok := res.Layers[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s missing or in %q, want %s", w.Name, m.Name, v.Unit, m.Unit)
			}
		}
	}

	// Stage shares behave as designed even in a short window.
	hot := first[wlTrainLocalHot].Layers
	if tb := hot["trainer.train_busy_share"].Value; tb < hot["trainer.pull_busy_share"].Value+hot["trainer.push_busy_share"].Value {
		t.Errorf("train_local_hot: train stage (%.2f) should dominate pull+push", tb)
	}

	// Counts that depend only on the seed repeat exactly. The probe replays
	// the same seeded batches whatever the window did, so a second run of
	// train_local_hot must reproduce its loss and key counts, and serve_mixed
	// — same model, seed and topology as train_tcp — must put the same keys
	// and bytes on the wire as train_tcp's probe did.
	e.outDir = t.TempDir() // runWorkload writes the Chrome trace here
	again := runWorkload(e, smokeShape(wlTrainLocalHot), true)
	if !again.Correct {
		t.Fatalf("second train_local_hot run: %s; checks %+v", again.Error, again.Checks)
	}
	if missing := again.Metrics.missingEndToEnd(); len(missing) > 0 {
		t.Errorf("runWorkload: missing end-to-end metrics %v", missing)
	}
	for _, d := range registry {
		if _, ok := again.Layers[d.Name]; !d.EndToEnd && !ok {
			t.Errorf("runWorkload: missing per-layer metric %s", d.Name)
		}
	}
	if _, err := os.Stat(filepath.Join(e.outDir, "trace-"+wlTrainLocalHot+".json")); err != nil {
		t.Errorf("runWorkload wrote no Chrome trace: %v", err)
	}
	same := func(what string, a, b metricSet, names ...string) {
		for _, n := range names {
			if a[n].Value != b[n].Value || a[n].Value == 0 {
				t.Errorf("%s: %s should repeat exactly and be nonzero: %v then %v", what, n, a[n].Value, b[n].Value)
			}
		}
	}
	same("train_local_hot twice", hot, again.Layers, "nn.probe_mean_loss", "keys.unique_share", "hbmps.working_set_keys")
	same("train_tcp and serve_mixed probes", first[wlTrainTCP].Layers, first[wlServeMixed].Layers,
		"cluster.probe_wire_bytes_per_batch", "cluster.probe_keys_per_batch", "keys.unique_share")
}
