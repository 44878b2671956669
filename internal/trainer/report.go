package trainer

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hps/internal/blockio"
	"hps/internal/metrics"
	"hps/internal/pipeline"
	"hps/internal/ps"
	"hps/internal/ssdps"
)

// StageReport is one pipeline stage's share of the batch time.
type StageReport struct {
	// Name is the stage name (read/pull/train/push).
	Name string
	// Modelled is the cumulative modelled hardware time of the stage.
	Modelled time.Duration
	// PerBatch is Modelled divided by the number of batches.
	PerBatch time.Duration
	// WallBusy / WallStalled are the stage goroutine's measured wall times
	// (busy inside the stage function, stalled on backpressure).
	WallBusy, WallStalled time.Duration
}

// Report is the Fig-4-style throughput/latency breakdown of a training run.
type Report struct {
	// Model names the trained spec.
	Model string
	// Nodes / GPUsPerNode describe the topology.
	Nodes, GPUsPerNode int
	// Batches / Examples count completed work across all nodes.
	Batches, Examples int64
	// MaxInFlight is the pipeline depth the run used.
	MaxInFlight int
	// Stages is the per-stage breakdown, in pipeline order.
	Stages []StageReport
	// Bottleneck is the stage with the largest modelled time — the stage
	// that governs steady-state throughput (Section 7.2).
	Bottleneck string
	// AllReduce is the cumulative modelled inter-GPU synchronization time
	// (included in the push stage).
	AllReduce time.Duration
	// ModelledElapsed estimates the wall time of the run on the modelled
	// hardware: with pipelining, one pipeline fill plus the bottleneck stage
	// for every further batch; without, the sum of all stages.
	ModelledElapsed time.Duration
	// Throughput is Examples over ModelledElapsed.
	Throughput metrics.Throughput
	// Resources are the modelled times of everything the run counted, by
	// resource name (the time distribution of Fig 4).
	Resources map[string]time.Duration
	// Tiers are the uniform per-tier statistics, top tier first.
	Tiers []ps.TierInfo
	// CacheHitRate is the MEM-PS cache hit rate across nodes (Fig 4c).
	CacheHitRate float64
	// PushMisses counts the pushed rows whose key had left its MEM-PS cache
	// before the push applied it, across in-process nodes. A batch's pull
	// pins every key its push can touch, so it stays zero.
	PushMisses int64
	// SSD aggregates the SSD-PS store statistics across nodes.
	SSD ssdps.Stats
	// ReadAmplification is the SSD device read amplification across nodes.
	ReadAmplification float64
	// WriteAmplification is the SSD-PS records written (dumps plus
	// compaction rewrites) per record the MEM-PS dumped, across nodes.
	WriteAmplification float64
	// MeanLoss is the mean training log-loss.
	MeanLoss float64
	// DenseSteps counts the dense tower's optimizer steps: one per batch,
	// over the gradient summed across every GPU worker.
	DenseSteps int64
	// Remote describes the real network activity of a multi-process run;
	// nil for in-process runs.
	Remote *RemoteNetReport
	// EffectiveDepth is the depth the run's gate enforced. The depth is fixed
	// for a run, so it always equals MaxInFlight.
	EffectiveDepth int
	// AsyncPush reports whether the background push committer was active;
	// PushLagLimit is its configured outstanding-push budget, MaxPushLag the
	// high-water mark it actually reached, AsyncPushes the pushes it
	// committed, and StaleMaxBatches the worst trained-ahead-of-committed
	// distance a batch observed entering the train stage (realized parameter
	// staleness, bounded by depth-1 + PushLagLimit).
	AsyncPush       bool
	PushLagLimit    int
	MaxPushLag      int64
	AsyncPushes     int64
	StaleMaxBatches int64
}

func addSSDStats(a, b ssdps.Stats) ssdps.Stats {
	a.Files += b.Files
	a.LiveParams += b.LiveParams
	a.StaleParams += b.StaleParams
	a.Compactions += b.Compactions
	a.CompactedFiles += b.CompactedFiles
	a.Loads += b.Loads
	a.Dumps += b.Dumps
	a.Rewritten += b.Rewritten
	a.UsageBytes += b.UsageBytes
	a.DroppedExtents += b.DroppedExtents
	return a
}

// Report summarizes the run so far.
func (t *Trainer) Report() Report {
	t.mu.Lock()
	batches := t.batchesDone
	examples := t.examples
	stageModelled := make(map[string]time.Duration, len(t.stageModelled))
	for k, v := range t.stageModelled {
		stageModelled[k] = v
	}
	allReduce := t.allReduce
	t.mu.Unlock()

	r := Report{
		Model:       t.cfg.Spec.Name,
		Nodes:       t.cfg.Topology.Nodes,
		GPUsPerNode: t.cfg.Topology.GPUsPerNode,
		Batches:     batches,
		Examples:    examples,
		MaxInFlight: t.cfg.MaxInFlight,
		AllReduce:   t.model(allReduce).Sum(),
		Resources:   t.model(t.work.Total()).ByName(),
		Tiers:       t.Tiers(),
		MeanLoss:    t.loss.Mean(),
	}
	t.denseMu.Lock()
	r.DenseSteps = t.denseSteps
	t.denseMu.Unlock()

	var wall []pipeline.StageStats
	if t.pipe != nil {
		wall = t.pipe.Stats()
	}
	var sum, max time.Duration
	for i, name := range []string{StageRead, StagePull, StageTrain, StagePush} {
		sr := StageReport{Name: name, Modelled: stageModelled[name]}
		if batches > 0 {
			sr.PerBatch = sr.Modelled / time.Duration(batches)
		}
		if i < len(wall) {
			sr.WallBusy, sr.WallStalled = wall[i].Busy, wall[i].Stalled
		}
		sum += sr.Modelled
		if sr.Modelled >= max {
			max = sr.Modelled
			r.Bottleneck = name
		}
		r.Stages = append(r.Stages, sr)
	}
	// One pipeline fill (every stage once), then the bottleneck stage paces
	// each remaining batch; without overlap every batch pays every stage.
	if t.cfg.MaxInFlight > 1 && batches > 0 {
		fill := sum / time.Duration(batches)
		r.ModelledElapsed = fill + max/time.Duration(batches)*time.Duration(batches-1)
	} else {
		r.ModelledElapsed = sum
	}
	r.Throughput = metrics.Throughput{Examples: examples, Elapsed: r.ModelledElapsed}

	r.EffectiveDepth = t.cfg.MaxInFlight
	if c := t.committer; c != nil {
		r.AsyncPush = true
		r.PushLagLimit = c.lag
		r.MaxPushLag = c.maxPending.Load()
		r.AsyncPushes = c.committed.Load() - int64(t.restored)
		if r.AsyncPushes < 0 {
			r.AsyncPushes = 0
		}
		r.StaleMaxBatches = c.staleMax.Load()
	}

	var hits, lookups, ssdPushed int64
	var ioStats blockio.Stats
	for _, n := range t.nodes {
		if n.local == nil { // multi-process mode: cache and SSD live remotely
			continue
		}
		cs := n.local.CacheStats()
		hits += cs.Hits
		lookups += cs.Hits + cs.Misses
		r.PushMisses += n.local.Stats().PushMisses
		r.SSD = addSSDStats(r.SSD, n.store.Stats())
		ssdPushed += n.store.TierStats().KeysPushed
		ds := n.dev.Stats()
		ioStats.LogicalBytesRead += ds.LogicalBytesRead
		ioStats.PhysicalBytesRead += ds.PhysicalBytesRead
	}
	if lookups > 0 {
		r.CacheHitRate = float64(hits) / float64(lookups)
	}
	r.ReadAmplification = ioStats.ReadAmplification()
	if dumped := ssdPushed - r.SSD.Rewritten; dumped > 0 {
		r.WriteAmplification = float64(ssdPushed) / float64(dumped)
	}

	if t.remote != nil {
		net := t.remoteNet
		net.mu.Lock()
		rr := &RemoteNetReport{
			Shards:       len(t.cfg.Topology.MemberIDs()),
			Pulls:        net.pulls,
			Pushes:       net.pushes,
			KeysPulled:   net.keysPulled,
			KeysPushed:   net.keysPushed,
			PayloadBytes: net.bytes,
			PullWall:     net.pullWall,
			PushWall:     net.pushWall,
			Failovers:    net.failovers,
		}
		net.mu.Unlock()
		ts := t.remote.Stats()
		rr.Calls, rr.Retries, rr.Redials = ts.Calls, ts.Retries, ts.Redials
		rr.WireBytes = ts.WireOut + ts.WireIn
		r.Remote = rr
	}
	return r
}

// String renders the report as the Fig-4-style breakdown printed by cmd/hps.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== hierarchical parameter server: model %s, %d node(s) x %d GPU(s), pipeline depth %d ===\n",
		r.Model, r.Nodes, r.GPUsPerNode, r.MaxInFlight)
	fmt.Fprintf(&b, "batches %d   examples %d   mean log-loss %.4f\n", r.Batches, r.Examples, r.MeanLoss)
	fmt.Fprintf(&b, "dense tower: %d steps, one per batch\n", r.DenseSteps)
	fmt.Fprintf(&b, "\n-- batch pipeline (modelled hardware time) --\n")
	for _, s := range r.Stages {
		marker := "  "
		if s.Name == r.Bottleneck {
			marker = "* " // the stage that paces steady-state throughput
		}
		fmt.Fprintf(&b, "%s%-6s total %12v   per-batch %12v   wall busy %10v   stalled %10v\n",
			marker, s.Name, s.Modelled.Round(time.Microsecond), s.PerBatch.Round(time.Microsecond),
			s.WallBusy.Round(time.Microsecond), s.WallStalled.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "bottleneck stage: %s   all-reduce (in push): %v\n", r.Bottleneck, r.AllReduce.Round(time.Microsecond))
	if r.AsyncPush {
		fmt.Fprintf(&b, "async push: %d committed in background, lag max %d of %d budget, trained-ahead max %d batch(es)\n",
			r.AsyncPushes, r.MaxPushLag, r.PushLagLimit, r.StaleMaxBatches)
	}
	fmt.Fprintf(&b, "modelled elapsed %v   throughput %.0f examples/s\n",
		r.ModelledElapsed.Round(time.Microsecond), r.Throughput.ExamplesPerSecond())

	fmt.Fprintf(&b, "\n-- hardware time distribution --\n")
	names := make([]string, 0, len(r.Resources))
	for res := range r.Resources {
		names = append(names, string(res))
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "  %-8s %12v\n", name, r.Resources[name].Round(time.Microsecond))
	}

	fmt.Fprintf(&b, "\n-- parameter-server tiers --\n")
	for _, ti := range r.Tiers {
		fmt.Fprintf(&b, "  %-7s pulls %8d (%10d keys)   pushes %8d (%10d keys)   evicted %8d\n",
			ti.Name, ti.Stats.Pulls, ti.Stats.KeysPulled, ti.Stats.Pushes, ti.Stats.KeysPushed, ti.Stats.KeysEvicted)
	}
	if r.Remote == nil {
		fmt.Fprintf(&b, "mem-ps cache hit rate %.1f%% (%d pushed rows missed)   ssd-ps: %d files, %d live / %d stale params, %d compactions, read amplification %.1fx, write amplification %.2fx (%d records rewritten)\n",
			100*r.CacheHitRate, r.PushMisses, r.SSD.Files, r.SSD.LiveParams, r.SSD.StaleParams, r.SSD.Compactions, r.ReadAmplification,
			r.WriteAmplification, r.SSD.Rewritten)
		if r.SSD.DroppedExtents > 0 {
			fmt.Fprintf(&b, "ssd-ps recovery dropped %d torn extents\n", r.SSD.DroppedExtents)
		}
		return b.String()
	}

	rr := r.Remote
	fmt.Fprintf(&b, "\n-- multi-process network (real wall time) --\n")
	fmt.Fprintf(&b, "  %d MEM-PS shard process(es): pulls %d (%d keys, %v)   pushes %d (%d keys, %v)\n",
		rr.Shards, rr.Pulls, rr.KeysPulled, rr.PullWall.Round(time.Microsecond),
		rr.Pushes, rr.KeysPushed, rr.PushWall.Round(time.Microsecond))
	fmt.Fprintf(&b, "  payload %.2f MiB   rpcs %d   retries %d   reconnects %d\n",
		float64(rr.PayloadBytes)/(1<<20), rr.Calls, rr.Retries, rr.Redials)
	if rr.WireBytes > 0 && r.Batches > 0 && rr.PayloadBytes > 0 {
		fmt.Fprintf(&b, "  wire %.2f MiB on the socket (%.1f KiB/batch, %.2fx the payload)\n",
			float64(rr.WireBytes)/(1<<20), float64(rr.WireBytes)/float64(r.Batches)/(1<<10),
			float64(rr.WireBytes)/float64(rr.PayloadBytes))
	}
	return b.String()
}
