package main

import (
	"context"
	"flag"
	"fmt"
	"strings"
	"time"

	"hps/internal/cluster"
	"hps/internal/dataset"
	"hps/internal/loadgen"
)

// runLoadgen is the `hps loadgen` subcommand: replay a zipfian query stream
// against the serving tier of a live cluster (one whose driver was started
// with -loadgen, or any cluster whose shards received a ServeConfig) and
// print the serving report.
func runLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	var (
		addrsFlag   = fs.String("addrs", "", "comma-separated shard addresses, in shard-id order (required)")
		modelName   = fs.String("model", "A", "model being served: A-E (scaled by -scale) or 'tiny'")
		scale       = fs.Int64("scale", defaultScale, "down-scaling factor applied to the paper models")
		duration    = fs.Duration("duration", 5*time.Second, "how long to generate load")
		concurrency = fs.Int("concurrency", 4, "closed-loop client goroutines")
		batch       = fs.Int("batch", 16, "examples per predict request")
		seed        = fs.Int64("seed", 99, "random seed for the query streams")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *addrsFlag == "" {
		return fmt.Errorf("loadgen requires -addrs (comma-separated shard addresses)")
	}
	spec, err := resolveSpec(*modelName, *scale)
	if err != nil {
		return err
	}
	parts := strings.Split(*addrsFlag, ",")
	addrs := make(map[int]string, len(parts))
	for i, a := range parts {
		a = strings.TrimSpace(a)
		if a == "" {
			return fmt.Errorf("empty address at position %d in -addrs", i)
		}
		addrs[i] = a
	}

	transport := cluster.NewTCPTransport(addrs, spec.EmbeddingDim)
	defer transport.Close()
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Transport:   transport,
		Nodes:       len(addrs),
		Data:        dataset.ForModel(spec.SparseParams, spec.NonZerosPerExample),
		Seed:        *seed,
		Duration:    *duration,
		Concurrency: *concurrency,
		BatchSize:   *batch,
	})
	if err != nil {
		return err
	}
	fmt.Print(rep.String())
	return nil
}
