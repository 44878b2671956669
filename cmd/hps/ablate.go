package main

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"hps/internal/dataset"
	"hps/internal/model"
	"hps/internal/trainer"
)

// This file implements `-ablate-depth`: the Fig-3(b)-style sweep that trains
// the same seeded workload at several pipeline depths and tabulates the
// staleness-for-throughput trade — throughput per depth next to the AUC cost
// relative to the depth-1 (strictly synchronous, Algorithm-1-ordered) run.
// Both the in-process and the driver (multi-process) modes feed it through a
// per-depth trainer factory.

// parseDepths parses the -ablate-depth flag ("1,2,4,8") into a sorted,
// deduplicated depth list.
func parseDepths(s string) ([]int, error) {
	var out []int
	seen := map[int]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		d, err := strconv.Atoi(part)
		if err != nil || d < 1 {
			return nil, fmt.Errorf("-ablate-depth: %q is not a positive depth", part)
		}
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		return nil, errors.New("-ablate-depth: no depths given")
	}
	sort.Ints(out)
	return out, nil
}

// ablationRow is one depth's measured outcome.
type ablationRow struct {
	depth    int
	batches  int64
	examples int64
	auc      float64
	wall     time.Duration
}

// runAblate sweeps the given pipeline depths: each depth trains the identical
// seeded workload on a fresh trainer from the factory, is timed on real wall
// clock, evaluated on the same held-out stream, and torn down before the next
// depth starts. The factory's cleanup (shard teardown in driver mode) runs
// after the trainer is closed, so final flushes still reach the shards.
func runAblate(fs *trainFlags, spec model.Spec, data dataset.Config, factory func(depth int) (*trainer.Trainer, func(), error)) error {
	depths, err := parseDepths(*fs.ablate)
	if err != nil {
		return err
	}
	evalN := *fs.evalN
	if evalN <= 0 {
		evalN = 800 // the table is meaningless without an AUC column
	}
	ctx, cancel := signalContext()
	defer cancel()

	mode := "sync"
	if *fs.asyncPush {
		mode = fmt.Sprintf("async-push lag %d", *fs.pushLag)
	}
	fmt.Printf("ablation: model %s, %d batches x %d examples/node, push mode %s, depths %v\n",
		spec.Name, *fs.batches, *fs.batchSize, mode, depths)

	rows := make([]ablationRow, 0, len(depths))
	for _, depth := range depths {
		tr, cleanup, err := factory(depth)
		if err != nil {
			return fmt.Errorf("depth %d: %w", depth, err)
		}
		start := time.Now()
		runErr := tr.Run(ctx)
		wall := time.Since(start)
		if runErr != nil {
			tr.Close()
			cleanup()
			return fmt.Errorf("depth %d: %w", depth, runErr)
		}
		rep := tr.Report()
		auc, err := tr.Evaluate(dataset.NewGenerator(data, *fs.seed+424243), evalN)
		closeErr := tr.Close()
		cleanup()
		if err != nil {
			return fmt.Errorf("depth %d: evaluate: %w", depth, err)
		}
		if closeErr != nil {
			return fmt.Errorf("depth %d: %w", depth, closeErr)
		}
		fmt.Printf("  depth %d done: %d batches in %v, AUC %.4f\n",
			depth, rep.Batches, wall.Round(time.Millisecond), auc)
		rows = append(rows, ablationRow{
			depth: depth, batches: rep.Batches, examples: rep.Examples,
			auc: auc, wall: wall,
		})
	}

	fmt.Printf("\n-- AUC vs pipeline depth (%d held-out examples) --\n", evalN)
	fmt.Printf("%6s %12s %12s %9s %9s %12s\n", "depth", "batches/s", "examples/s", "AUC", "dAUC", "wall")
	base := rows[0].auc // rows are depth-sorted, so row 0 is the shallowest (depth 1 when swept)
	for _, r := range rows {
		secs := r.wall.Seconds()
		var bps, eps float64
		if secs > 0 {
			bps = float64(r.batches) / secs
			eps = float64(r.examples) / secs
		}
		fmt.Printf("%6d %12.1f %12.1f %9.4f %+9.4f %12v\n",
			r.depth, bps, eps, r.auc, r.auc-base, r.wall.Round(time.Millisecond))
	}
	if rows[0].depth == 1 && len(rows) > 1 {
		last := rows[len(rows)-1]
		if last.wall > 0 && rows[0].wall > 0 {
			s0 := float64(rows[0].batches) / rows[0].wall.Seconds()
			s1 := float64(last.batches) / last.wall.Seconds()
			if s0 > 0 {
				fmt.Printf("depth %d vs 1: %.2fx batches/s, dAUC %+.4f\n",
					last.depth, s1/s0, last.auc-base)
			}
		}
	}
	return nil
}
