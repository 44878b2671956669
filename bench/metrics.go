package main

import (
	"fmt"
	"sort"
)

// The four workloads, in suite order.
const (
	wlTrainLocalHot  = "train_local_hot"
	wlTrainLocalCold = "train_local_cold"
	wlTrainTCP       = "train_tcp"
	wlServeMixed     = "serve_mixed"
)

// metricDef is one row of the metric registry. BENCHMARK.json lists the same
// names, units and directions (smoke_test.go keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the reference median by which the metric may
	// worsen before -compare calls it worse. Every end-to-end metric has
	// one; per-layer metrics have none, except the few that would be
	// end-to-end if the benchmark contract allowed a metric to exist on one
	// workload only (their bound is advisory: -compare uses it, the driver
	// does not).
	Bound    float64
	EndToEnd bool
	// Moves names the end-to-end metric (and workload) this layer metric
	// is expected to move; "" for end-to-end metrics and pure diagnostics.
	Moves string
}

const (
	movesHot   = "train_examples_per_s, cpu_ms_per_kexample on train_local_hot"
	movesCold  = "train_examples_per_s on train_local_cold"
	movesTCP   = "train_examples_per_s on train_tcp"
	movesServe = "serving.p50_ms_*, serving.slo_share_* on serve_mixed"
	movesStage = "train_examples_per_s on the workload whose bottleneck stage it is"
	movesAlloc = "cpu_ms_per_kexample, train_examples_per_s on all workloads"
)

// registry is every metric the benchmark reports, end-to-end first.
var registry = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, EndToEnd: true},
	{Name: "train_examples_per_s", Unit: "1/s", Better: "higher", Bound: 0.20, EndToEnd: true},
	{Name: "cpu_ms_per_kexample", Unit: "ms", Better: "lower", Bound: 0.20, EndToEnd: true},
	{Name: "auc", Unit: "auc", Better: "higher", Bound: 0.03, EndToEnd: true},
	{Name: "rss_p90_mb", Unit: "MB", Better: "lower", Bound: 0.10, EndToEnd: true},

	// Would-be end-to-end metrics that exist on one or two workloads only.
	{Name: "cluster.wire_bytes_per_batch", Unit: "B", Better: "lower", Bound: 0.01, Moves: "itself (user-visible on train_tcp, serve_mixed)"},
	{Name: "serving.p50_ms_train", Unit: "ms", Better: "lower", Bound: 0.20, Moves: "itself (user-visible on serve_mixed)"},
	{Name: "serving.p50_ms_idle", Unit: "ms", Better: "lower", Bound: 0.20, Moves: "itself (user-visible on serve_mixed)"},
	{Name: "serving.slo_share_train", Unit: "share", Better: "higher", Bound: 0.10, Moves: "itself (user-visible on serve_mixed)"},
	{Name: "serving.slo_share_idle", Unit: "share", Better: "higher", Bound: 0.10, Moves: "itself (user-visible on serve_mixed)"},

	{Name: "trainer.read_busy_share", Unit: "share", Better: "lower", Moves: movesStage},
	{Name: "trainer.pull_busy_share", Unit: "share", Better: "lower", Moves: movesStage},
	{Name: "trainer.train_busy_share", Unit: "share", Better: "lower", Moves: movesStage},
	{Name: "trainer.push_busy_share", Unit: "share", Better: "lower", Moves: movesStage},
	{Name: "pipeline.read_stall_share", Unit: "share", Better: "lower", Moves: movesStage},
	{Name: "pipeline.pull_stall_share", Unit: "share", Better: "lower", Moves: movesStage},
	{Name: "pipeline.train_stall_share", Unit: "share", Better: "lower", Moves: movesStage},
	{Name: "pipeline.push_stall_share", Unit: "share", Better: "lower", Moves: movesStage},
	{Name: "trainer.stage_sum_over_wall", Unit: "ratio", Better: "higher", Moves: movesStage},
	{Name: "simtime.read_model_over_wall", Unit: "ratio", Better: "higher"},
	{Name: "simtime.pull_model_over_wall", Unit: "ratio", Better: "higher"},
	{Name: "simtime.train_model_over_wall", Unit: "ratio", Better: "higher"},
	{Name: "simtime.push_model_over_wall", Unit: "ratio", Better: "higher"},
	{Name: "simtime.stages_outside_2x", Unit: "count", Better: "lower"},
	{Name: "trainer.allocs_per_batch", Unit: "count", Better: "lower", Moves: movesAlloc},
	{Name: "trainer.alloc_bytes_per_batch", Unit: "B", Better: "lower", Moves: movesAlloc},
	{Name: "trainer.gc_pause_ms", Unit: "ms", Better: "lower", Moves: movesAlloc},
	{Name: "trainer.checkpoint_ms", Unit: "ms", Better: "lower", Moves: "setup_s (restart cost)"},
	{Name: "trainer.new_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},
	{Name: "trainer.async_max_push_lag", Unit: "count", Better: "lower", Moves: "auc on train_tcp"},
	{Name: "trainer.stale_max_batches", Unit: "count", Better: "lower", Moves: "auc on train_tcp"},
	{Name: "pipeline.effective_depth", Unit: "count", Better: "higher", Moves: movesTCP},

	{Name: "dataset.next_batch_us", Unit: "us", Better: "lower", Moves: movesHot},
	{Name: "keys.dedup_us_per_batch", Unit: "us", Better: "lower", Moves: movesHot},
	{Name: "keys.partition_us_per_batch", Unit: "us", Better: "lower", Moves: movesHot},
	{Name: "keys.unique_share", Unit: "share", Better: "lower", Moves: movesHot},
	{Name: "hbmps.load_block_us_per_batch", Unit: "us", Better: "lower", Moves: movesHot},
	{Name: "hbmps.pull_into_us_per_batch", Unit: "us", Better: "lower", Moves: movesHot},
	{Name: "hbmps.commit_block_us_per_batch", Unit: "us", Better: "lower", Moves: movesHot},
	{Name: "hbmps.collect_block_us_per_batch", Unit: "us", Better: "lower", Moves: movesHot},
	{Name: "hbmps.working_set_keys", Unit: "count", Better: "lower", Moves: movesHot},
	{Name: "nn.fwd_bwd_us_per_example", Unit: "us", Better: "lower", Moves: movesHot},
	{Name: "nn.apply_dense_us_per_batch", Unit: "us", Better: "lower", Moves: movesHot},
	{Name: "nn.probe_mean_loss", Unit: "loss", Better: "lower"},
	{Name: "optimizer.sparse_apply_ns_per_row", Unit: "ns", Better: "lower", Moves: movesHot},

	{Name: "memps.prepare_us_per_batch", Unit: "us", Better: "lower", Moves: movesCold},
	{Name: "memps.push_us_per_batch", Unit: "us", Better: "lower", Moves: movesCold},
	{Name: "memps.complete_us_per_batch", Unit: "us", Better: "lower", Moves: movesCold},
	{Name: "memps.cache_hit_rate", Unit: "share", Better: "higher", Moves: movesCold},
	{Name: "memps.ssd_loads_per_batch", Unit: "count", Better: "lower", Moves: movesCold},
	{Name: "memps.dumped_per_batch", Unit: "count", Better: "lower", Moves: movesCold},
	{Name: "ssdps.load_us_per_key", Unit: "us", Better: "lower", Moves: movesCold},
	{Name: "ssdps.dump_us_per_key", Unit: "us", Better: "lower", Moves: movesCold},
	{Name: "ssdps.compactions", Unit: "count", Better: "lower", Moves: movesCold},
	{Name: "ssdps.read_amplification", Unit: "ratio", Better: "lower", Moves: movesCold},
	{Name: "ssdps.stale_share", Unit: "share", Better: "lower", Moves: movesCold},
	{Name: "ssdps.usage_bytes", Unit: "B", Better: "lower", Moves: movesCold},

	{Name: "cluster.pull_rtt_us_p50", Unit: "us", Better: "lower", Moves: movesTCP},
	{Name: "cluster.pull_rtt_us_p99", Unit: "us", Better: "lower", Moves: movesTCP},
	{Name: "cluster.push_rtt_us_p50", Unit: "us", Better: "lower", Moves: movesTCP},
	{Name: "cluster.push_rtt_us_p99", Unit: "us", Better: "lower", Moves: movesTCP},
	{Name: "cluster.pull_wall_share", Unit: "share", Better: "lower", Moves: movesTCP},
	{Name: "cluster.push_wall_share", Unit: "share", Better: "lower", Moves: movesTCP},
	{Name: "cluster.rpcs_per_batch", Unit: "count", Better: "lower", Moves: movesTCP},
	{Name: "cluster.keys_pulled_per_batch", Unit: "count", Better: "lower", Moves: movesTCP},
	{Name: "cluster.keys_pushed_per_batch", Unit: "count", Better: "lower", Moves: movesTCP},
	{Name: "cluster.wire_bytes_per_key", Unit: "B", Better: "lower", Moves: "cluster.wire_bytes_per_batch on train_tcp"},
	{Name: "cluster.wire_over_payload", Unit: "ratio", Better: "lower", Moves: "cluster.wire_bytes_per_batch on train_tcp"},
	{Name: "cluster.probe_wire_bytes_per_batch", Unit: "B", Better: "lower", Moves: "cluster.wire_bytes_per_batch on train_tcp"},
	{Name: "cluster.probe_keys_per_batch", Unit: "count", Better: "lower", Moves: movesTCP},
	{Name: "cluster.retries", Unit: "count", Better: "lower"},
	{Name: "cluster.redials", Unit: "count", Better: "lower"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower"},

	{Name: "serving.p99_ms_train", Unit: "ms", Better: "lower", Moves: movesServe},
	{Name: "serving.p99_ms_idle", Unit: "ms", Better: "lower", Moves: movesServe},
	{Name: "serving.knee_rps_idle", Unit: "1/s", Better: "higher", Moves: movesServe},
	{Name: "serving.cache_hit_rate_train", Unit: "share", Better: "higher", Moves: movesServe},
	{Name: "serving.cache_hit_rate_idle", Unit: "share", Better: "higher", Moves: movesServe},
	{Name: "serving.peer_keys_per_request_train", Unit: "count", Better: "lower", Moves: movesServe},
	{Name: "serving.peer_keys_per_request_idle", Unit: "count", Better: "lower", Moves: movesServe},
	{Name: "serving.coalesced_share", Unit: "share", Better: "higher", Moves: movesServe},
	{Name: "serving.rejected_share", Unit: "share", Better: "lower", Moves: movesServe},
	{Name: "serving.staleness_max", Unit: "count", Better: "lower"},
	{Name: "serving.push_epoch_lag_max", Unit: "count", Better: "lower"},
	{Name: "serving.client_queue_ms_p50", Unit: "ms", Better: "lower", Moves: movesServe},
	{Name: "serving.generator_late_ms_max", Unit: "ms", Better: "lower"},
	{Name: "serving.predict_rtt_us_p50", Unit: "us", Better: "lower", Moves: movesServe},

	{Name: "bench.host_level", Unit: "ratio", Better: "lower"},
	{Name: "bench.raw_examples_per_s", Unit: "1/s", Better: "higher", Moves: "train_examples_per_s (the same seconds, as timed)"},
	{Name: "bench.raw_cpu_ms_per_kexample", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_kexample (as timed)"},
	{Name: "bench.raw_setup_s", Unit: "s", Better: "lower", Moves: "setup_s (as timed)"},
	{Name: "bench.cpu_steal_share", Unit: "share", Better: "lower"},
	{Name: "bench.peak_rss_mb", Unit: "MB", Better: "lower", Moves: "rss_p90_mb"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}

var registryIndex = func() map[string]*metricDef {
	idx := make(map[string]*metricDef, len(registry))
	for i := range registry {
		d := &registry[i]
		if _, dup := idx[d.Name]; dup {
			panic("bench: duplicate metric " + d.Name)
		}
		idx[d.Name] = d
	}
	return idx
}()

// measurement is one metric's value from one run.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations the value summarizes (the 1 s
	// throughput windows behind a median, the requests behind a percentile);
	// 0 for a plain count or a single reading.
	Samples int `json:"samples,omitempty"`
	// Series holds the observations themselves where they are few enough to
	// keep (the per-second throughputs), so a result file shows drift and
	// stalls, not only their median; Host is the host level of each.
	Series []float64 `json:"series,omitempty"`
	Host   []float64 `json:"host,omitempty"`
}

// metricSet collects measurements by registered name.
type metricSet map[string]measurement

// set records a value; an unregistered name is a bug in the benchmark.
func (m metricSet) set(name string, value float64, samples int) {
	d, ok := registryIndex[name]
	if !ok {
		panic("bench: unregistered metric " + name)
	}
	m[name] = measurement{Value: value, Unit: d.Unit, Samples: samples}
}

// setSeries records a value together with the observations it summarizes
// and, when they were adjusted, the host level of each.
func (m metricSet) setSeries(name string, value float64, series, host []float64) {
	m.set(name, value, len(series))
	v := m[name]
	v.Series, v.Host = series, host
	m[name] = v
}

// fillLayers zeroes every per-layer metric the workload did not produce: a
// layer that does nothing on a workload reports 0, which is the prediction
// ("no change") for it there.
func (m metricSet) fillLayers() {
	for _, d := range registry {
		if _, ok := m[d.Name]; !ok && !d.EndToEnd {
			m[d.Name] = measurement{Unit: d.Unit}
		}
	}
}

// missingEndToEnd lists the end-to-end metrics m lacks.
func (m metricSet) missingEndToEnd() []string {
	var out []string
	for _, d := range registry {
		if _, ok := m[d.Name]; d.EndToEnd && !ok {
			out = append(out, d.Name)
		}
	}
	return out
}

// check is one output check of a workload.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// workloadResult is what one workload produced in one run.
type workloadResult struct {
	Workload string `json:"workload"`
	// Correct is false when Run failed or any output check did.
	Correct bool `json:"correct"`
	// Attempted / Failed count operations: trained batches, predicts,
	// checkpoints and output checks.
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Error     string  `json:"error,omitempty"`
	Checks    []check `json:"checks,omitempty"`
	// Metrics are the end-to-end metrics of the untraced run; Layers the
	// per-layer metrics of the traced run (absent without -trace 1).
	Metrics metricSet `json:"metrics"`
	Layers  metricSet `json:"layers,omitempty"`
	// headline is the number the tracing overhead is computed from:
	// examples/s for a training workload, median idle-phase predict latency
	// for serve_mixed.
	headline float64
}

// addCheck records an output check; a failed check fails the workload and
// counts as a failed operation.
func (r *workloadResult) addCheck(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok || format != "" {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
	r.Attempted++
	if !ok {
		r.Failed++
		r.Correct = false
	}
}

// fail records a Run-level error: the workload is failed, the suite goes on.
func (r *workloadResult) fail(err error) {
	r.Correct = false
	r.Attempted++
	r.Failed++
	if r.Error == "" {
		r.Error = err.Error()
	}
}

// sortedNames returns m's metric names in registry order.
func (m metricSet) sortedNames() []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	pos := make(map[string]int, len(registry))
	for i, d := range registry {
		pos[d.Name] = i
	}
	sort.Slice(names, func(i, j int) bool { return pos[names[i]] < pos[names[j]] })
	return names
}
