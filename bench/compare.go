package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"
)

// Verdicts of -compare.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound
	verdictNone       = "-"          // per-layer metric: no bound, reported only
)

// compareRow is one (metric, workload) pairing of two result sets.
type compareRow struct {
	Workload, Metric, Unit string
	RefMedian, CandMedian  float64
	RefQ1, RefQ3           float64
	CandQ1, CandQ3         float64
	HaveQuartiles          bool
	Bound                  float64
	Verdict                string
}

func loadRuns(list string) ([]runResult, error) {
	var runs []runResult
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r runResult
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// valuesOf collects one metric's value from every run that has it.
func valuesOf(runs []runResult, workload, metric string) []float64 {
	var vs []float64
	for _, r := range runs {
		w := r.Workloads[workload]
		if w == nil {
			continue
		}
		if v, ok := w.Metrics[metric]; ok {
			vs = append(vs, v.Value)
		} else if v, ok := w.Layers[metric]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// judge compares candidate against reference for one metric. The spread is
// the wider of the two sides' interquartile ranges as a share of the
// reference median, known only when each side has at least three runs.
func judge(d *metricDef, ref, cand []float64) compareRow {
	row := compareRow{Metric: d.Name, Unit: d.Unit, Bound: d.Bound,
		RefMedian: median(ref), CandMedian: median(cand), Verdict: verdictNone}
	var spread float64
	if len(ref) >= 3 && len(cand) >= 3 {
		row.RefQ1, row.RefQ3, _ = quartiles(ref)
		row.CandQ1, row.CandQ3, _ = quartiles(cand)
		row.HaveQuartiles = true
		spread = ratio(max(row.RefQ3-row.RefQ1, row.CandQ3-row.CandQ1), math.Abs(row.RefMedian))
	}
	if d.Bound <= 0 {
		return row
	}
	// change > 0 means the candidate is worse.
	change := ratio(row.CandMedian-row.RefMedian, math.Abs(row.RefMedian))
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case spread > d.Bound:
		row.Verdict = verdictUnresolved
	case change > d.Bound:
		row.Verdict = verdictWorse
	case change < -d.Bound:
		row.Verdict = verdictBetter
	default:
		row.Verdict = verdictSame
	}
	return row
}

// compareRuns builds one row per (metric, workload) both sets measured,
// leaving out the per-layer metrics that are zero on both sides.
func compareRuns(ref, cand []runResult) []compareRow {
	var rows []compareRow
	for _, wl := range shapes {
		for i := range registry {
			d := &registry[i]
			rv, cv := valuesOf(ref, wl.name, d.Name), valuesOf(cand, wl.name, d.Name)
			if len(rv) == 0 || len(cv) == 0 {
				continue
			}
			row := judge(d, rv, cv)
			if row.RefMedian == 0 && row.CandMedian == 0 {
				continue // a layer that does nothing on this workload
			}
			row.Workload = wl.name
			rows = append(rows, row)
		}
	}
	return rows
}

// runCompare is `bench -compare ref cand`: each argument is a comma-separated
// list of result files (one run each) of one tree.
func runCompare(w io.Writer, refList, candList string) error {
	ref, err := loadRuns(refList)
	if err != nil {
		return err
	}
	cand, err := loadRuns(candList)
	if err != nil {
		return err
	}
	rows := compareRuns(ref, cand)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tref median [q1, q3]\tcand median [q1, q3]\tchange\tbound\tverdict\n")
	counts := map[string]int{}
	for _, r := range rows {
		q := func(med, q1, q3 float64) string {
			if !r.HaveQuartiles {
				return fmt.Sprintf("%.4g [-, -]", med)
			}
			return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
		}
		bound := "-"
		if r.Bound > 0 {
			bound = fmt.Sprintf("%.1f%%", 100*r.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.2f%%\t%s\t%s\n", r.Workload, r.Metric, r.Unit,
			q(r.RefMedian, r.RefQ1, r.RefQ3), q(r.CandMedian, r.CandQ1, r.CandQ3),
			100*ratio(r.CandMedian-r.RefMedian, math.Abs(r.RefMedian)), bound, r.Verdict)
		counts[r.Verdict]++
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%d reference run(s), %d candidate run(s): %d same, %d better, %d worse, %d unresolved, %d without a bound\n",
		len(ref), len(cand), counts[verdictSame], counts[verdictBetter], counts[verdictWorse], counts[verdictUnresolved], counts[verdictNone])
	return nil
}
