package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "root", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "a", Parent: 0, Start: ms(10), End: ms(40)},
		{Name: "b", Parent: 0, Start: ms(30), End: ms(60)},    // overlaps a: the union counts once
		{Name: "c", Parent: 0, Start: ms(90), End: ms(120)},   // runs past the parent: clipped
		{Name: "a1", Parent: 1, Start: ms(15), End: ms(20)},   // grandchild: only a's self time shrinks
		{Name: "open", Parent: 0, Start: ms(50), End: ms(-1)}, // never closed: ignored
	}
	want := []time.Duration{ms(100 - 50 - 10), ms(25), ms(30), ms(30), ms(5), 0}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	byName := selfByName(spans, 1)
	if _, ok := byName["root"]; ok || byName["a"] != ms(25) {
		t.Errorf("selfByName from 1 = %v", byName)
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *recorder
	id := r.begin("x", -1, -1, 0)
	r.end(id)
	r.add(span{})
	if id != -1 || r.since(time.Now()) != 0 {
		t.Errorf("nil recorder recorded something")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3, ok := quartiles(vs)
	if !ok || q1 != 2.75 || q3 != 8.25 || median(vs) != 5.5 {
		t.Errorf("quartiles = %v, %v (ok %v), median %v", q1, q3, ok, median(vs))
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3, _ := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v", q1, q3)
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Errorf("one value has no quartiles")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 100; i++ {
		d = append(d, time.Duration(i)*time.Millisecond)
	}
	if p := percentileMs(d, 0.50); p != 50 {
		t.Errorf("p50 = %v", p)
	}
	if p := percentileMs(d, 0.99); p != 99 {
		t.Errorf("p99 = %v", p)
	}
	if p := percentileMs(nil, 0.5); p != 0 {
		t.Errorf("empty p50 = %v", p)
	}
}

func TestJudge(t *testing.T) {
	thr := registryIndex["train_examples_per_s"] // higher is better, bound 20%
	cpu := registryIndex["cpu_ms_per_kexample"]  // lower is better, bound 20%
	noBound := registryIndex["memps.cache_hit_rate"]
	cases := []struct {
		d         *metricDef
		ref, cand []float64
		want      string
	}{
		{thr, []float64{100}, []float64{90}, verdictSame},
		{thr, []float64{100}, []float64{75}, verdictWorse},
		{thr, []float64{100}, []float64{125}, verdictBetter},
		{cpu, []float64{100}, []float64{125}, verdictWorse},
		{cpu, []float64{100}, []float64{75}, verdictBetter},
		// Three runs a side give a spread; wider than the bound: unresolved.
		{thr, []float64{70, 100, 130}, []float64{74, 75, 76}, verdictUnresolved},
		{thr, []float64{99, 100, 101}, []float64{74, 75, 76}, verdictWorse},
		{noBound, []float64{0.9}, []float64{0.5}, verdictNone},
	}
	for i, c := range cases {
		if got := judge(c.d, c.ref, c.cand).Verdict; got != c.want {
			t.Errorf("case %d (%s %v vs %v): verdict %s, want %s", i, c.d.Name, c.ref, c.cand, got, c.want)
		}
	}
}

func TestCompareReadsResultFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, thr float64) string {
		m := metricSet{}
		m.set("train_examples_per_s", thr, 20)
		l := metricSet{}
		l.set("memps.cache_hit_rate", 0.9, 0)
		run := runResult{Seed: 1, Seconds: 20, Workloads: map[string]*workloadResult{
			wlTrainLocalHot: {Workload: wlTrainLocalHot, Correct: true, Metrics: m, Layers: l}}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, run); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a.json", 1000), write("b.json", 700)
	var out bytes.Buffer
	if err := runCompare(&out, a, a+","+b); err != nil {
		t.Fatal(err)
	}
	// Candidate median of {1000, 700} is 850: -15%, inside the bound, so same.
	if s := out.String(); !strings.Contains(s, "train_examples_per_s") || !strings.Contains(s, "1 same") || !strings.Contains(s, "1 without a bound") {
		t.Errorf("unexpected comparison:\n%s", s)
	}
	out.Reset()
	if err := runCompare(&out, a, b); err != nil {
		t.Fatal(err)
	}
	if s := out.String(); !strings.Contains(s, "1 worse") {
		t.Errorf("expected a worse row:\n%s", s)
	}
	if err := runCompare(&out, a, filepath.Join(dir, "missing.json")); err == nil {
		t.Errorf("missing file should fail")
	}
}

func TestResultLine(t *testing.T) {
	res := &workloadResult{Workload: wlTrainTCP, Correct: true, Attempted: 7, Metrics: metricSet{}}
	if _, err := resultLine(res, false); err == nil {
		t.Errorf("a result without its end-to-end metrics must not print a line")
	}
	for _, d := range registry {
		if d.EndToEnd {
			res.Metrics.set(d.Name, 1.5, 3)
		}
	}
	if _, err := resultLine(res, true); err == nil {
		t.Errorf("a traced line without per-layer metrics must not print")
	}
	line, err := resultLine(res, false)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct           *bool
		Attempted, Failed *int64
		Metrics           map[string]map[string]any
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil || got.Correct == nil || got.Attempted == nil || got.Failed == nil {
		t.Fatalf("line %s: %v", line, err)
	}
	if m := got.Metrics["setup_s"]; len(m) != 2 || m["value"] != 1.5 || m["unit"] != "s" || len(got.Metrics) != 5 {
		t.Errorf("metrics = %v", got.Metrics)
	}
}

func TestRegistryMeetsContract(t *testing.T) {
	// setup_s in seconds, lower is better, with the largest bound; no
	// end-to-end bound above 25%; every metric has a direction.
	d := registryIndex["setup_s"]
	if d == nil || d.Unit != "s" || d.Better != "lower" || !d.EndToEnd {
		t.Fatalf("setup_s = %+v", d)
	}
	for _, m := range registry {
		if m.EndToEnd && (m.Bound <= 0 || m.Bound > 0.25 || m.Bound > d.Bound) {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}

func TestHostGaugeLevelAndAdjust(t *testing.T) {
	t0 := time.Unix(1000, 0)
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	g := &hostGauge{}
	for i, d := range []int{120, 125, 118, 400 /* preempted */, 85, 86, 84, 85} {
		g.at = append(g.at, t0.Add(time.Duration(i)*gaugeEvery))
		g.d = append(g.d, us(d))
	}
	// First half: sorted 118 120 125 400, lower quartile at index 1.
	if got := g.level(t0, t0.Add(3*gaugeEvery)); got != 1.2 {
		t.Errorf("busy level = %v, want 1.2", got)
	}
	if got := g.level(t0.Add(4*gaugeEvery), t0.Add(time.Hour)); got != 0.85 {
		t.Errorf("quiet level = %v, want 0.85", got)
	}
	if got := g.level(t0.Add(time.Hour), t0.Add(2*time.Hour)); got != 1 {
		t.Errorf("level with no sample = %v, want 1 (no adjustment)", got)
	}
	// A cost measured on a busy host shrinks, a rate grows; exponent 0 and
	// the reference level leave a value alone.
	if c := hostAdjust(100, 1.21, 0.5); c < 90.9 || c > 91 {
		t.Errorf("cost 100 at level 1.21, exponent 0.5 = %v, want 90.9", c)
	}
	if r := hostAdjust(100, 1.21, -0.5); r < 109.9 || r > 110.1 {
		t.Errorf("rate 100 at level 1.21, exponent 0.5 = %v, want 110", r)
	}
	if hostAdjust(100, 1.21, 0) != 100 || hostAdjust(100, 1, 0.75) != 100 {
		t.Errorf("exponent 0 or level 1 must not adjust")
	}
	s, _ := shapeNamed(wlServeMixed)
	if s.paceExp() != 0 || s.hostExp == 0 {
		t.Errorf("a throttled trainer's pace does not follow the host: paceExp %v, hostExp %v", s.paceExp(), s.hostExp)
	}
}
