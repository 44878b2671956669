// Command bench is the repository's one benchmark: four workloads over the
// whole HBM/MEM/SSD hierarchy, end-to-end metrics from an untraced run,
// per-layer metrics from a traced run, and a -compare mode for two sets of
// result files. See README.md in this directory.
//
//	go run ./bench -seed 1 -out bench/out/result.json      # all workloads
//	go run ./bench -seed 1 -trace 1                        # + per-layer probes and Chrome traces
//	go run ./bench -workload train_tcp -seed 3 -seconds 16 -trace 0
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// machine is what a result file records about where it was measured.
type machine struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	BuiltAt    string  `json:"hps_built_at"`
	BuildS     float64 `json:"hps_build_s"`
}

// runResult is one invocation's results: the unit -compare works on.
type runResult struct {
	Machine   machine                    `json:"machine"`
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Traced    bool                       `json:"traced"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print its result as the last line (empty: all four)")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Int("seconds", 16, "length of each workload's timed window")
		trace    = flag.Int("trace", 0, "1: repeat each workload with the span recorder on, probe the layers, write Chrome traces")
		out      = flag.String("out", "", "write the full result JSON here")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare a.json[,a2.json...] b.json[,b2.json...]")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two arguments: reference and candidate result files (comma-separated lists)")
		}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	todo := shapes
	if *workload != "" {
		s, ok := shapeNamed(*workload)
		if !ok {
			fatalf("unknown workload %q", *workload)
		}
		todo = []shape{s}
	}

	e, mach, err := newEnv(*seed, time.Duration(*seconds)*time.Second)
	if err != nil {
		fatalf("%v", err)
	}
	code := 0
	defer func() {
		e.gauge.close()
		os.RemoveAll(e.runDir)
		os.Exit(code)
	}()
	// A signal must not leave shard children behind.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killLiveShards()
		os.RemoveAll(e.runDir)
		os.Exit(130)
	}()
	fmt.Printf("bench: nproc %d, GOMAXPROCS %d, %s, commit %s, hps built in %.2fs at %s\n",
		mach.NProc, mach.GoMaxProcs, mach.GoVersion, mach.Commit, mach.BuildS, mach.BuiltAt)
	fmt.Printf("bench: seed %d, window %ds, %d set-ups per workload, trace %d\n", *seed, *seconds, e.setups, *trace)

	run := runResult{Machine: mach, Seed: *seed, Seconds: *seconds, Traced: *trace == 1, Workloads: map[string]*workloadResult{}}
	for _, s := range todo {
		res := runWorkload(e, s, *trace == 1)
		run.Workloads[s.name] = res
		printWorkload(os.Stdout, res)
		// With -workload the result line carries the verdict (correct,
		// failed) and the exit code only says whether there is a line.
		if !res.Correct && *workload == "" {
			code = 1
		}
	}
	if *out != "" {
		if err := writeJSON(*out, run); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			code = 1
		}
	}
	if *workload != "" {
		line, err := resultLine(run.Workloads[*workload], *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			code = 1
			return
		}
		fmt.Println(line)
	}
}

// resultLine renders one workload's result as the single JSON object the
// benchmark contract asks for: the end-to-end metrics of the untraced run,
// or the per-layer metrics when a traced run was asked for. A workload that
// could not measure has no result line.
func resultLine(res *workloadResult, traced bool) (string, error) {
	metrics := res.Metrics
	if traced {
		metrics = res.Layers
	}
	if missing := res.Metrics.missingEndToEnd(); len(missing) > 0 || metrics == nil {
		return "", fmt.Errorf("%s produced no result (%s; missing %v)", res.Workload, res.Error, missing)
	}
	line := struct {
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Metrics   map[string]lineVal `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]lineVal{}}
	for n, v := range metrics {
		line.Metrics[n] = lineVal{v.Value, v.Unit}
	}
	data, err := json.Marshal(line)
	return string(data), err
}

type lineVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// newEnv finds the repository, builds ./cmd/hps from source and prepares the
// invocation's scratch directory under bench/out.
func newEnv(seed int64, window time.Duration) (*env, machine, error) {
	root, err := findRepoRoot()
	if err != nil {
		return nil, machine{}, err
	}
	outDir := filepath.Join(root, "bench", "out")
	runDir := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, machine{}, err
	}
	bin, buildDur, err := buildHPS(root, outDir)
	if err != nil {
		return nil, machine{}, err
	}
	mach := machine{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		BuildS:     buildDur.Seconds(),
	}
	if st, err := os.Stat(bin); err == nil {
		mach.BuiltAt = st.ModTime().UTC().Format(time.RFC3339)
	}
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	git.Dir = root
	if rev, err := git.Output(); err == nil { // not a git checkout under the driver: stays "unknown"
		mach.Commit = strings.TrimSpace(string(rev))
	}
	gauge, err := startHostGauge()
	if err != nil {
		return nil, machine{}, err
	}
	return &env{
		outDir: outDir, runDir: runDir, hpsBin: bin,
		seed: seed, window: window,
		setups: 3, evalN: 8000, probeBatches: 200,
		kneeRates: []int{200, 400, 800}, kneeStep: 3 * time.Second,
		gauge: gauge,
	}, mach, nil
}

// runOnce runs a workload's shape once; rec is nil for an untraced run.
func runOnce(e *env, s shape, rec *recorder) *workloadResult {
	resetSelfPeakRSS()
	var res *workloadResult
	if s.serve {
		res = runServe(e, s, rec)
	} else {
		res = runTrain(e, s, rec)
	}
	debug.FreeOSMemory()
	return res
}

// runWorkload runs one workload untraced — the end-to-end metrics always
// come from that run — and, when traced is set, once more with the span
// recorder on for the per-layer metrics and the Chrome trace.
func runWorkload(e *env, s shape, traced bool) *workloadResult {
	res := runOnce(e, s, nil)
	if !traced {
		return res
	}
	rec := newRecorder()
	tr := runOnce(e, s, rec)
	res.Layers = tr.Layers
	res.Attempted += tr.Attempted
	res.Failed += tr.Failed
	res.Checks = append(res.Checks, tr.Checks...)
	if !tr.Correct {
		res.Correct = false
		if res.Error == "" {
			res.Error = "traced run: " + tr.Error
		}
	}
	if res.Layers != nil {
		res.Layers.set("bench.trace_overhead_pct", traceOverheadPct(s, res, tr), 0)
		res.Layers.fillLayers()
	}
	path := filepath.Join(e.outDir, "trace-"+s.name+".json")
	if err := rec.writeChromeTrace(path); err != nil {
		res.fail(fmt.Errorf("write trace: %w", err))
	} else {
		fmt.Printf("bench: wrote %s (%d spans)\n", path, len(rec.spans))
	}
	return res
}

// traceOverheadPct is how much worse the traced run's headline number is
// than the untraced run's: throughput for the training workloads, median
// predict latency of the idle phase for serve_mixed (the phase beside
// training swings far more from run to run than any recorder could cost).
func traceOverheadPct(s shape, untraced, traced *workloadResult) float64 {
	u, t := untraced.headline, traced.headline
	if s.serve {
		return 100 * ratio(t-u, u) // latency: higher is worse
	}
	return 100 * ratio(u-t, u)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printWorkload prints every metric by name with unit, sample count and
// bound, then the output checks.
func printWorkload(w *os.File, res *workloadResult) {
	status := "correct"
	if !res.Correct {
		status = "FAILED: " + res.Error
	}
	fmt.Fprintf(w, "\n== %s: %s (%d operations attempted, %d failed)\n", res.Workload, status, res.Attempted, res.Failed)
	printSet := func(title string, m metricSet) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(w, "-- %s\n", title)
		for _, n := range m.sortedNames() {
			v, d := m[n], registryIndex[n]
			line := fmt.Sprintf("  %-38s %16.4f %-6s", n, v.Value, v.Unit)
			if v.Samples > 0 {
				line += fmt.Sprintf(" n=%-6d", v.Samples)
			} else {
				line += "         "
			}
			if d.Bound > 0 {
				line += fmt.Sprintf(" %s is better, bound %.0f%%", d.Better, 100*d.Bound)
			}
			fmt.Fprintln(w, strings.TrimRight(line, " "))
		}
	}
	printSet("end-to-end (untraced run)", res.Metrics)
	printSet("per-layer (traced run)", res.Layers)
	for _, c := range res.Checks {
		if !c.OK {
			fmt.Fprintf(w, "  CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
}
