package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"hps/internal/dataset"
	"hps/internal/pipeline"
	"hps/internal/trainer"
)

// Lanes of the trace viewer.
const (
	lanePhases  = 0
	lanePredict = 1 // +connection index
	laneProbe   = 8
)

// checkpoints is how many WriteCheckpoint calls follow the window;
// trainer.checkpoint_ms is their median.
const checkpoints = 5

// running is a set-up workload whose trainer is training in the background.
type running struct {
	*rig
	shape  shape
	gauge  *hostGauge
	cancel context.CancelFunc
	done   chan error // Run's result, buffered
	runErr error
	ended  bool
}

// setupSample is one set-up: how long it took and the host level it ran at.
type setupSample struct {
	took  time.Duration
	level float64
}

// start sets the shape up and trains its fixed warm-up: it returns once the
// warm-up batches are done, with the time all of that took (setup_s).
func (s shape) start(e *env, tag string) (*running, setupSample, error) {
	t0 := time.Now()
	rg, err := s.build(e, tag)
	if err != nil {
		return nil, setupSample{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &running{rig: rg, shape: s, gauge: e.gauge, cancel: cancel, done: make(chan error, 1)}
	go func() { r.done <- rg.tr.Run(ctx) }()
	want := int64(s.warmup) * int64(s.batchSize) * int64(s.nodes)
	for rg.tr.Examples() < want {
		select {
		case err := <-r.done:
			r.ended, r.runErr = true, err
			_ = r.close() // the Run error is the one worth reporting
			return nil, setupSample{}, fmt.Errorf("run ended during warm-up: %v", err)
		case <-time.After(2 * time.Millisecond):
		}
	}
	now := time.Now()
	return r, setupSample{took: now.Sub(t0), level: e.gauge.level(t0, now)}, nil
}

// stopTraining ends the training run (the window is over, not the batch
// budget) and reports any error other than the stop itself.
func (r *running) stopTraining() error {
	if !r.ended {
		r.cancel()
		r.runErr = <-r.done
		r.ended = true
	}
	if r.runErr == nil || errors.Is(r.runErr, pipeline.ErrStopped) || errors.Is(r.runErr, context.Canceled) {
		return nil
	}
	return r.runErr
}

// setUp runs the shape's set-up e.setups times, keeps the last instance and
// returns every set-up's sample.
func (s shape) setUp(e *env, rec *recorder, parent int) (*running, []setupSample, error) {
	var times []setupSample
	for i := 0; ; i++ {
		sp := rec.begin("setup", parent, int64(i), lanePhases)
		r, d, err := s.start(e, fmt.Sprintf("setup%d", i))
		rec.end(sp)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d)
		if i == e.setups-1 {
			return r, times, nil
		}
		stopErr := r.stopTraining()
		if err := errors.Join(stopErr, r.close()); err != nil {
			return nil, nil, fmt.Errorf("tear down rehearsal set-up: %w", err)
		}
	}
}

// snapshot is the state of every counter the window metrics are deltas of.
type snapshot struct {
	at       time.Time
	rep      trainer.Report
	selfCPU  time.Duration
	childCPU time.Duration
	mem      runtime.MemStats
	// hostTicks / stealTicks are the machine's CPU counters: a window with
	// stolen time was measured on a slower machine than its neighbours.
	hostTicks, stealTicks int64
}

func (r *running) snapshot() snapshot {
	s := snapshot{rep: r.tr.Report(), selfCPU: selfCPU(), childCPU: r.shards.cpu()}
	runtime.ReadMemStats(&s.mem)
	s.hostTicks, s.stealTicks = hostCPU()
	s.at = time.Now()
	return s
}

// windowResult is one timed window of a training run.
type windowResult struct {
	before, after snapshot
	// rates are the examples/s of each second of the window.
	rates []float64
	// host is the host level (hostGauge.level) of each of those seconds, and
	// level their mean: what a cost summed over the window was paid at.
	host  []float64
	level float64
	// rss are the resident set sizes (driver + shards, MB) sampled through
	// the window.
	rss []float64
}

// pollEvery is how often measure reads Examples: window edges are snapped to
// the first poll that sees a batch complete, so the edge error is at most this.
const pollEvery = 2 * time.Millisecond

// rssEvery is how often measure samples the resident set sizes.
const rssEvery = 250 * time.Millisecond

// measure times a window of length d: counters before and after, and the
// throughput of every second in between. A slow workload finishes only a
// handful of batches a second, so a window cut at a fixed instant would
// count a whole batch more or less; each edge is therefore moved to the next
// observed batch completion.
func (r *running) measure(d time.Duration) (windowResult, error) {
	w := windowResult{before: r.snapshot()}
	start := w.before.at
	edge, edgeEx := start, r.tr.Examples()
	seen, seenAt := edgeEx, start
	nextEdge, nextRSS := start.Add(time.Second), start
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for end := start.Add(d); time.Now().Before(end); {
		select {
		case err := <-r.done:
			r.ended, r.runErr = true, err
			return w, fmt.Errorf("run ended inside the window: %v", err)
		case <-tick.C:
		}
		now, ex := time.Now(), r.tr.Examples()
		if !now.Before(nextRSS) {
			w.rss = append(w.rss, procMemMB("self", "VmRSS")+r.shards.memMB("VmRSS"))
			nextRSS = now.Add(rssEvery)
		}
		if ex == seen {
			continue
		}
		seen, seenAt = ex, now
		if !now.Before(nextEdge) {
			w.rates = append(w.rates, float64(ex-edgeEx)/now.Sub(edge).Seconds())
			w.host = append(w.host, r.gauge.level(edge, now))
			edge, edgeEx = now, ex
			for !nextEdge.After(now) {
				nextEdge = nextEdge.Add(time.Second)
			}
		}
	}
	// The last second rarely sees a completion after its edge: close it at
	// the last completion seen, if that leaves most of a second.
	if seenAt.Sub(edge) >= min(d, time.Second)/2 {
		w.rates = append(w.rates, float64(seen-edgeEx)/seenAt.Sub(edge).Seconds())
		w.host = append(w.host, r.gauge.level(edge, seenAt))
	}
	w.after = r.snapshot()
	w.level = mean(w.host)
	return w, nil
}

// windowMetrics derives the end-to-end and trainer/pipeline/cluster layer
// metrics of a window from its two snapshots. Throughput and CPU cost are
// adjusted to the reference host level (hostgauge.go); the values as timed
// are the layer metrics bench.raw_*.
func windowMetrics(s shape, w windowResult, m, layers metricSet) {
	b, a := w.before, w.after
	wall := a.at.Sub(b.at)
	examples := float64(a.rep.Examples - b.rep.Examples)
	batches := float64(a.rep.Batches - b.rep.Batches)

	rates := make([]float64, len(w.rates))
	for i, r := range w.rates {
		rates[i] = hostAdjust(r, w.host[i], -s.paceExp())
	}
	m.setSeries("train_examples_per_s", median(rates), rates, w.host)
	layers.setSeries("bench.raw_examples_per_s", median(w.rates), w.rates, nil)
	layers.set("bench.host_level", w.level, 0)
	// The 90th percentile of the sampled resident sets, not the high-water
	// mark: compaction spikes of a second or two differ from seed to seed by
	// a third of the footprint; a footprint that grew shows here all the same.
	rss := append([]float64(nil), w.rss...)
	sort.Float64s(rss)
	if len(rss) > 0 {
		m.set("rss_p90_mb", rss[len(rss)*9/10], len(rss))
	}
	cpu := (a.selfCPU - b.selfCPU) + (a.childCPU - b.childCPU)
	cpuPerK := ratio(float64(cpu)/float64(time.Millisecond), examples/1000)
	m.set("cpu_ms_per_kexample", hostAdjust(cpuPerK, w.level, s.hostExp), 0)
	layers.set("bench.raw_cpu_ms_per_kexample", cpuPerK, 0)

	var busySum time.Duration
	outside := 0
	for i, st := range a.rep.Stages {
		prev := b.rep.Stages[i]
		busy, stalled := st.WallBusy-prev.WallBusy, st.WallStalled-prev.WallStalled
		busySum += busy
		layers.set("trainer."+st.Name+"_busy_share", ratio(float64(busy), float64(wall)), 0)
		layers.set("pipeline."+st.Name+"_stall_share", ratio(float64(stalled), float64(wall)), 0)
		mow := ratio(float64(st.Modelled-prev.Modelled), float64(busy))
		layers.set("simtime."+st.Name+"_model_over_wall", mow, 0)
		if mow < 0.5 || mow > 2 {
			outside++
		}
	}
	layers.set("trainer.stage_sum_over_wall", ratio(float64(busySum), float64(wall)), 0)
	layers.set("simtime.stages_outside_2x", float64(outside), 0)

	layers.set("trainer.allocs_per_batch", ratio(float64(a.mem.Mallocs-b.mem.Mallocs), batches), 0)
	layers.set("trainer.alloc_bytes_per_batch", ratio(float64(a.mem.TotalAlloc-b.mem.TotalAlloc), batches), 0)
	layers.set("trainer.gc_pause_ms", float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs)/1e6, int(a.mem.NumGC-b.mem.NumGC))
	layers.set("bench.cpu_steal_share", ratio(float64(a.stealTicks-b.stealTicks), float64(a.hostTicks-b.hostTicks)), 0)
	layers.set("pipeline.effective_depth", float64(a.rep.EffectiveDepth), 0)
	layers.set("trainer.async_max_push_lag", float64(a.rep.MaxPushLag), 0)
	layers.set("trainer.stale_max_batches", float64(a.rep.StaleMaxBatches), 0)

	if ra, rb := a.rep.Remote, b.rep.Remote; ra != nil && rb != nil {
		wire := float64(ra.WireBytes - rb.WireBytes)
		keys := float64((ra.KeysPulled - rb.KeysPulled) + (ra.KeysPushed - rb.KeysPushed))
		layers.set("cluster.wire_bytes_per_batch", ratio(wire, batches), 0)
		layers.set("cluster.wire_bytes_per_key", ratio(wire, keys), 0)
		layers.set("cluster.wire_over_payload", ratio(wire, float64(ra.PayloadBytes-rb.PayloadBytes)), 0)
		layers.set("cluster.rpcs_per_batch", ratio(float64(ra.Calls-rb.Calls), batches), 0)
		layers.set("cluster.keys_pulled_per_batch", ratio(float64(ra.KeysPulled-rb.KeysPulled), batches), 0)
		layers.set("cluster.keys_pushed_per_batch", ratio(float64(ra.KeysPushed-rb.KeysPushed), batches), 0)
		// Summed per-RPC wall time over window wall time: above 1 when the
		// shards' RPCs overlap.
		layers.set("cluster.pull_wall_share", ratio(float64(ra.PullWall-rb.PullWall), float64(wall)), 0)
		layers.set("cluster.push_wall_share", ratio(float64(ra.PushWall-rb.PushWall), float64(wall)), 0)
		return
	}
	// In-process: the MEM-PS and SSD-PS live in this process.
	layers.set("memps.cache_hit_rate", a.rep.CacheHitRate, 0)
	for i, ti := range a.rep.Tiers {
		if ti.Name != "ssd-ps" {
			continue
		}
		prev := b.rep.Tiers[i].Stats
		layers.set("memps.ssd_loads_per_batch", ratio(float64(ti.Stats.KeysPulled-prev.KeysPulled), batches), 0)
		layers.set("memps.dumped_per_batch", ratio(float64(ti.Stats.KeysPushed-prev.KeysPushed), batches), 0)
	}
	layers.set("ssdps.compactions", float64(a.rep.SSD.Compactions-b.rep.SSD.Compactions), 0)
	layers.set("ssdps.read_amplification", a.rep.ReadAmplification, 0)
	layers.set("ssdps.stale_share", ratio(float64(a.rep.SSD.StaleParams), float64(a.rep.SSD.StaleParams+a.rep.SSD.LiveParams)), 0)
	layers.set("ssdps.usage_bytes", float64(a.rep.SSD.UsageBytes), 0)
}

// finish runs what follows every workload's measured phases: the checks on
// the finished training run, the held-out AUC, the layer probe (traced runs),
// the timed checkpoints and the memory high-water mark. The order matters: a
// checkpoint flushes every MEM-PS cache to its SSD-PS, after which lookups
// and pulls are file reads, so evaluation and the probe — which wants the
// shards as warm as the window left them — come first.
func (r *running) finish(e *env, rec *recorder, parent int, res *workloadResult, layers metricSet) {
	s := r.shape
	rep := r.tr.Report()
	res.Attempted += rep.Batches
	res.addCheck("examples_match_batches", rep.Examples == rep.Batches*int64(s.batchSize)*int64(s.nodes),
		"%d examples for %d batches x %d x %d nodes", rep.Examples, rep.Batches, s.batchSize, s.nodes)
	if rr := rep.Remote; rr != nil {
		res.addCheck("no_retries_redials_failovers", rr.Retries == 0 && rr.Redials == 0 && rr.Failovers == 0,
			"retries %d, redials %d, failovers %d", rr.Retries, rr.Redials, rr.Failovers)
		layers.set("cluster.retries", float64(rr.Retries), 0)
		layers.set("cluster.redials", float64(rr.Redials), 0)
		layers.set("cluster.failovers", float64(rr.Failovers), 0)
	}

	sp := rec.begin("evaluate", parent, -1, lanePhases)
	auc, err := r.tr.Evaluate(dataset.NewGenerator(r.cfg.Data, e.seed+424243), e.evalN)
	rec.end(sp)
	if err != nil {
		res.fail(fmt.Errorf("evaluate: %w", err))
	} else {
		res.Metrics.set("auc", auc, e.evalN)
		res.addCheck("auc_floor", auc >= s.aucFloor, "auc %.4f over %d held-out examples, floor %.2f", auc, e.evalN, s.aucFloor)
	}
	if rec != nil {
		sp := rec.begin("probe", parent, -1, laneProbe)
		if err := probeLayers(e, r, rec, sp, layers); err != nil {
			res.fail(fmt.Errorf("layer probe: %w", err))
		}
		rec.end(sp)
		res.Layers = layers
	}

	sp = rec.begin("checkpoint", parent, -1, lanePhases)
	var ckpt []time.Duration
	for i := 0; i < checkpoints; i++ {
		t0 := time.Now()
		err := r.tr.WriteCheckpoint()
		ckpt = append(ckpt, time.Since(t0))
		res.Attempted++
		if err != nil {
			res.Failed++
			res.Correct = false
			res.Error = fmt.Sprintf("checkpoint %d: %v", i, err)
		}
	}
	rec.end(sp)
	layers.set("trainer.checkpoint_ms", float64(medianDuration(ckpt))/float64(time.Millisecond), len(ckpt))
	layers.set("trainer.new_ms", float64(r.newDur)/float64(time.Millisecond), 0)

	layers.set("bench.peak_rss_mb", procMemMB("self", "VmHWM")+r.shards.memMB("VmHWM"), 0)
}

// runShape does what every workload shares around its measured phases: the
// result and root span, the repeated set-up (setup_s), and the teardown.
func runShape(e *env, s shape, rec *recorder, phases func(r *running, root int, res *workloadResult, layers metricSet)) *workloadResult {
	res := &workloadResult{Workload: s.name, Correct: true, Metrics: metricSet{}}
	root := rec.begin("workload "+s.name, -1, -1, lanePhases)
	defer rec.end(root)

	r, setups, err := s.setUp(e, rec, root)
	if err != nil {
		res.fail(fmt.Errorf("set-up: %w", err))
		return res
	}
	defer func() {
		sp := rec.begin("teardown", root, -1, lanePhases)
		if err := r.close(); err != nil {
			res.fail(fmt.Errorf("teardown: %w", err))
		}
		rec.end(sp)
	}()
	var adjusted, raw []float64
	for _, su := range setups {
		raw = append(raw, su.took.Seconds())
		adjusted = append(adjusted, hostAdjust(su.took.Seconds(), su.level, s.paceExp()))
	}
	res.Metrics.set("setup_s", median(adjusted), len(setups))
	layers := metricSet{}
	layers.set("bench.raw_setup_s", median(raw), len(setups))
	phases(r, root, res, layers)
	return res
}

// runTrain is the three training workloads: set up, train a fixed warm-up,
// time the window, stop, check, and (traced) probe the layers.
func runTrain(e *env, s shape, rec *recorder) *workloadResult {
	return runShape(e, s, rec, func(r *running, root int, res *workloadResult, layers metricSet) {
		sp := rec.begin("window", root, -1, lanePhases)
		w, err := r.measure(e.window)
		rec.end(sp)
		if err = errors.Join(err, r.stopTraining()); err != nil {
			res.fail(err)
			return
		}
		windowMetrics(s, w, res.Metrics, layers)
		res.headline = res.Metrics["train_examples_per_s"].Value
		r.finish(e, rec, root, res, layers)
	})
}
