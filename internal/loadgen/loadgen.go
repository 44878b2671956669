// Package loadgen replays a zipfian CTR query stream against a live serving
// cluster and measures what a front-end would see: queries per second,
// latency percentiles, overload rejections, and — from the shards' own
// counters — replica-cache hit rate and serving staleness.
//
// The generator is closed-loop: each client goroutine draws a feature-key
// batch from its own dataset stream (the same zipfian distribution training
// reads, per the paper's access-distribution analysis), sends one Predict
// RPC, waits for the reply, and repeats. Clients round-robin across the
// shards, so most of each request's keys are owned by other shards — the
// traffic pattern the hot-key replica cache exists for. Overload rejections
// are counted, backed off, and retried rather than treated as failures:
// that is the admission-control contract working as designed.
package loadgen

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"hps/internal/cluster"
	"hps/internal/dataset"
	"hps/internal/keys"
)

// Predictor issues predict RPCs and reads serving counters by shard node id
// (implemented by cluster.TCPTransport).
type Predictor interface {
	Predict(nodeID int, req cluster.PredictRequest) ([]float32, error)
	ServingStats(nodeID int) (cluster.ServingStats, error)
}

// Config configures one load-generation run.
type Config struct {
	// Transport issues the predict RPCs.
	Transport Predictor
	// Nodes is the number of shard servers (queries round-robin over them).
	Nodes int
	// Members, when set, is the membership view whose current ring the
	// queries round-robin over instead of 0..Nodes-1: clients re-read it
	// every request, so a shard joining or leaving mid-run repoints the query
	// stream at the next iteration. Shards that drop out between epochs
	// surface as retried errors, not a run failure.
	Members *cluster.Membership
	// Data shapes the query stream (feature count and zipfian skew); use the
	// training run's dataset config so the stream hits the same hot keys.
	Data dataset.Config
	// Seed seeds the per-client query streams.
	Seed int64
	// Duration is how long to generate load (default 5s).
	Duration time.Duration
	// Concurrency is the number of closed-loop clients (default 4).
	Concurrency int
	// BatchSize is the number of examples per predict request (default 16).
	BatchSize int
}

// Report is the outcome of a load-generation run: client-side latency and
// throughput plus the shard-side serving counters, aggregated over shards.
type Report struct {
	// Requests and Examples count successful predicts; Rejections counts
	// overload rejections (retried, not failures); Errors counts everything
	// else (the run continues, the count surfaces here).
	Requests, Examples, Rejections, Errors int64
	// Elapsed is the measured wall time of the run.
	Elapsed time.Duration
	// P50, P90, P99 are exact latency percentiles over every successful
	// request (no histogram binning — loadgen keeps all samples).
	P50, P90, P99 time.Duration
	// MinScore and MaxScore bound every returned score, a cheap sanity check
	// that serving returned probabilities rather than garbage.
	MinScore, MaxScore float64
	// Serving aggregates the shards' own counters (cache hit rate, peer
	// traffic, staleness) over every shard queried.
	Serving cluster.ServingStats
}

// QPS returns successful predict requests per second.
func (r Report) QPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// ExamplesPerSec returns scored examples per second.
func (r Report) ExamplesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Examples) / r.Elapsed.Seconds()
}

// String formats the report as the serving section printed next to the
// training report's Fig-4 breakdown.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "serving load (%.1fs, %d requests, %d examples):\n",
		r.Elapsed.Seconds(), r.Requests, r.Examples)
	fmt.Fprintf(&b, "  qps                 %10.1f req/s (%.0f examples/s)\n", r.QPS(), r.ExamplesPerSec())
	fmt.Fprintf(&b, "  latency p50         %12v\n", r.P50.Round(time.Microsecond))
	fmt.Fprintf(&b, "  latency p90         %12v\n", r.P90.Round(time.Microsecond))
	fmt.Fprintf(&b, "  latency p99         %12v\n", r.P99.Round(time.Microsecond))
	fmt.Fprintf(&b, "  overload rejections %10d (errors %d)\n", r.Rejections, r.Errors)
	fmt.Fprintf(&b, "  score range         [%.4f, %.4f]\n", r.MinScore, r.MaxScore)
	s := r.Serving
	fmt.Fprintf(&b, "  hot-key cache       %10.1f%% hit rate (%d hits, %d misses)\n",
		100*s.CacheHitRate(), s.CacheHits, s.CacheMisses)
	fmt.Fprintf(&b, "  peer fetches        %10d rpcs, %d keys; local keys %d\n",
		s.PeerFetches, s.PeerKeys, s.LocalKeys)
	fmt.Fprintf(&b, "  coalesced requests  %10d of %d served\n", s.Coalesced, s.Requests)
	fmt.Fprintf(&b, "  staleness           %10d push epoch(s) max (push epoch %d, dense epoch %d)\n",
		s.StalenessMax, s.PushEpoch, s.DenseEpoch)
	fmt.Fprintf(&b, "  push epoch lag      %10d batch(es) trained beyond applied pushes\n",
		s.PushEpochLag)
	return b.String()
}

// clientState accumulates one client's samples, merged after the run.
type clientState struct {
	latencies []time.Duration
	requests  int64
	examples  int64
	rejects   int64
	errors    int64
	minScore  float64
	maxScore  float64
}

// Run generates load until the duration elapses or ctx is cancelled, then
// collects the shards' serving counters and returns the report.
func Run(ctx context.Context, cfg Config) (Report, error) {
	if cfg.Transport == nil {
		return Report{}, fmt.Errorf("loadgen: nil transport")
	}
	if cfg.Nodes < 1 {
		return Report{}, fmt.Errorf("loadgen: %d nodes", cfg.Nodes)
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if err := cfg.Data.Validate(); err != nil {
		return Report{}, fmt.Errorf("loadgen: %w", err)
	}

	// The shards queried: the view's current members, or 0..Nodes-1.
	targets := cluster.Topology{Nodes: cfg.Nodes, Members: cfg.Members}.MemberIDs

	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	start := time.Now()
	states := make([]*clientState, cfg.Concurrency)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Concurrency; i++ {
		st := &clientState{minScore: math.Inf(1), maxScore: math.Inf(-1)}
		states[i] = st
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			// Distinct seeds give distinct (identically distributed) query
			// streams; the offset keeps them disjoint from training streams.
			gen := dataset.NewGenerator(cfg.Data, cfg.Seed+int64(client)*7919+104729)
			rr := client
			req := cluster.PredictRequest{
				Counts: make([]uint32, 0, cfg.BatchSize),
				Keys:   make([]keys.Key, 0, cfg.BatchSize*cfg.Data.NonZerosPerExample),
			}
			for ctx.Err() == nil {
				req.Counts = req.Counts[:0]
				req.Keys = req.Keys[:0]
				for e := 0; e < cfg.BatchSize; e++ {
					ex := gen.NextExample()
					req.Counts = append(req.Counts, uint32(len(ex.Features)))
					req.Keys = append(req.Keys, ex.Features...)
				}
				ms := targets()
				target := ms[rr%len(ms)]
				t0 := time.Now()
				scores, err := cfg.Transport.Predict(target, req)
				lat := time.Since(t0)
				rr++
				if err != nil {
					if cluster.Retryable(err) {
						// Admission control shed us: back off, then retry.
						// This is load shaping, not failure.
						st.rejects++
						select {
						case <-ctx.Done():
						case <-time.After(time.Millisecond):
						}
						continue
					}
					st.errors++
					continue
				}
				st.requests++
				st.examples += int64(len(scores))
				st.latencies = append(st.latencies, lat)
				for _, sc := range scores {
					st.minScore = min(st.minScore, float64(sc))
					st.maxScore = max(st.maxScore, float64(sc))
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := Report{Elapsed: elapsed, MinScore: math.Inf(1), MaxScore: math.Inf(-1)}
	var all []time.Duration
	for _, st := range states {
		rep.Requests += st.requests
		rep.Examples += st.examples
		rep.Rejections += st.rejects
		rep.Errors += st.errors
		rep.MinScore = min(rep.MinScore, st.minScore)
		rep.MaxScore = max(rep.MaxScore, st.maxScore)
		all = append(all, st.latencies...)
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		rep.P50 = percentile(all, 0.50)
		rep.P90 = percentile(all, 0.90)
		rep.P99 = percentile(all, 0.99)
	} else {
		rep.MinScore, rep.MaxScore = 0, 0
	}
	for _, id := range targets() {
		s, err := cfg.Transport.ServingStats(id)
		if err != nil {
			if !slices.Contains(targets(), id) {
				// Membership churned under us (a shard left or died between
				// epochs); its counters are gone but the run's numbers stand.
				continue
			}
			return rep, fmt.Errorf("loadgen: serving stats from shard %d: %w", id, err)
		}
		rep.Serving = rep.Serving.Add(s)
	}
	return rep, nil
}

// percentile returns the exact p-quantile of sorted samples (nearest-rank).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
