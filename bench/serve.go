package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hps/internal/cluster"
	"hps/internal/dataset"
	"hps/internal/keys"
)

// The open-loop predict generator. The closed-loop internal/loadgen sends a
// client's next request only after the previous reply, so a slow server is
// offered less load and no latency knee can show. This one fixes every
// request's due time in advance from the seed and times each request from
// that due time, so a stall is charged to every request it delays.
const (
	serveConns    = 2   // connections == worker goroutines (the box has 2 cores)
	serveBatch    = 16  // examples per predict request
	serveRate     = 100 // requests/s of both measured phases
	serveLimit    = 50 * time.Millisecond
	kneeShare     = 0.99 // share of requests sent that must meet serveLimit at a rate
	rttProbeCalls = 200
)

// predictReq is one scheduled request: due is its offset from the phase start.
type predictReq struct {
	due    time.Duration
	target int
	req    cluster.PredictRequest
}

// schedule precomputes n requests at a fixed rate from gen's zipfian stream,
// round-robin over the shards — generated ahead of their due time by
// construction.
func schedule(gen *dataset.Generator, rate, n, shards int) []predictReq {
	nnz := gen.Config().NonZerosPerExample
	reqs := make([]predictReq, n)
	for i := range reqs {
		r := cluster.PredictRequest{
			Counts: make([]uint32, 0, serveBatch),
			Keys:   make([]keys.Key, 0, serveBatch*nnz),
		}
		for e := 0; e < serveBatch; e++ {
			ex := gen.NextExample()
			r.Counts = append(r.Counts, uint32(len(ex.Features)))
			r.Keys = append(r.Keys, ex.Features...)
		}
		reqs[i] = predictReq{due: time.Duration(i) * time.Second / time.Duration(rate), target: i % shards, req: r}
	}
	return reqs
}

// phaseResult is what one open-loop phase measured.
type phaseResult struct {
	sent, rejected, errored, within, badScores int

	latencies []time.Duration // done - due, answered requests only
	queue     []time.Duration // sent - due: the wait for a free connection
	// lateMax is the worst sent - max(due, connection free): how late the
	// generator itself ran.
	lateMax  time.Duration
	firstErr error
	stats    cluster.ServingStats // shard counters over the phase
}

func (p *phaseResult) sloShare() float64 { return ratio(float64(p.within), float64(p.sent)) }

// servingStats sums the shards' serving counters.
func servingStats(ctl *cluster.TCPTransport, shards int) (cluster.ServingStats, error) {
	var sum cluster.ServingStats
	for id := 0; id < shards; id++ {
		s, err := ctl.ServingStats(id)
		if err != nil {
			return sum, fmt.Errorf("serving stats from shard %d: %w", id, err)
		}
		sum = sum.Add(s)
	}
	return sum, nil
}

// subStats returns the counters accumulated between two snapshots
// (watermarks — epochs, staleness — keep the later value).
func subStats(a, b cluster.ServingStats) cluster.ServingStats {
	a.Requests -= b.Requests
	a.Examples -= b.Examples
	a.Rejected -= b.Rejected
	a.Coalesced -= b.Coalesced
	a.LocalKeys -= b.LocalKeys
	a.CacheHits -= b.CacheHits
	a.CacheMisses -= b.CacheMisses
	a.PeerFetches -= b.PeerFetches
	a.PeerKeys -= b.PeerKeys
	a.Degraded -= b.Degraded
	a.FailedOver -= b.FailedOver
	return a
}

// serveClient is the load generator's side of the cluster: one transport
// (hence one connection per shard) per worker, plus a control transport for
// counters.
type serveClient struct {
	conns  []*cluster.TCPTransport
	ctl    *cluster.TCPTransport
	shards int
}

func newServeClient(addrs map[int]string, dim int) *serveClient {
	c := &serveClient{ctl: cluster.NewTCPTransport(addrs, dim), shards: len(addrs)}
	for i := 0; i < serveConns; i++ {
		c.conns = append(c.conns, cluster.NewTCPTransport(addrs, dim))
	}
	return c
}

func (c *serveClient) close() {
	c.ctl.Close()
	for _, t := range c.conns {
		t.Close()
	}
}

// runPhase sends reqs on their schedule over the client's connections and
// returns when every request has been answered or has failed. A rejection
// (cluster.Retryable) is a miss and is never retried.
func (c *serveClient) runPhase(reqs []predictReq, rec *recorder, parent int) (*phaseResult, error) {
	before, err := servingStats(c.ctl, c.shards)
	if err != nil {
		return nil, err
	}
	var (
		next  atomic.Int64
		mu    sync.Mutex
		out   = &phaseResult{sent: len(reqs)}
		wg    sync.WaitGroup
		start = time.Now()
	)
	for w, conn := range c.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				rq := &reqs[i]
				free := time.Now()
				due := start.Add(rq.due)
				if d := due.Sub(free); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				scores, err := conn.Predict(rq.target, rq.req)
				done := time.Now()
				rec.add(span{Name: "predict", Parent: parent, Tag: int64(i), Lane: lanePredict + w,
					Start: rec.since(sent), End: rec.since(done), Due: rec.since(due)})

				bad := 0
				if err == nil {
					if len(scores) != rq.req.Examples() {
						bad++
					}
					for _, s := range scores {
						if !(s >= 0 && s <= 1) {
							bad++
						}
					}
				}
				mu.Lock()
				out.queue = append(out.queue, sent.Sub(due))
				if late := sent.Sub(maxTime(due, free)); late > out.lateMax {
					out.lateMax = late
				}
				switch {
				case err == nil:
					out.badScores += bad
					lat := done.Sub(due)
					out.latencies = append(out.latencies, lat)
					if lat <= serveLimit {
						out.within++
					}
				case cluster.Retryable(err):
					out.rejected++
				default:
					out.errored++
					if out.firstErr == nil {
						out.firstErr = err
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	after, err := servingStats(c.ctl, c.shards)
	if err != nil {
		return nil, err
	}
	out.stats = subStats(after, before)
	sortDurations(out.latencies)
	sortDurations(out.queue)
	return out, nil
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// phaseMetrics records one measured phase under its suffix (train / idle).
func phaseMetrics(p *phaseResult, suffix string, layers metricSet) {
	n := len(p.latencies)
	layers.set("serving.p50_ms_"+suffix, percentileMs(p.latencies, 0.50), n)
	layers.set("serving.p99_ms_"+suffix, percentileMs(p.latencies, 0.99), n)
	layers.set("serving.slo_share_"+suffix, p.sloShare(), p.sent)
	layers.set("serving.cache_hit_rate_"+suffix, p.stats.CacheHitRate(), 0)
	layers.set("serving.peer_keys_per_request_"+suffix, ratio(float64(p.stats.PeerKeys), float64(p.stats.Requests)), 0)
}

// runServe is the serve_mixed workload: an open-loop predict stream at a
// fixed rate, first beside a throttled trainer (phase train: push-epoch
// invalidation, peer fetches and lock contention exist), then alone (phase
// idle: hot-key residency pays). Each phase is half of the window.
func runServe(e *env, s shape, rec *recorder) *workloadResult {
	plan := newServePlan(e, s, rec != nil)
	return runShape(e, s, rec, func(r *running, root int, res *workloadResult, layers metricSet) {
		plan.run(e, r, rec, root, res, layers)
	})
}

// servePlan is serve_mixed's whole request stream, generated from the seed
// before anything runs: the two measured phases and, for a traced run, the
// rate steps and the round-trip probe.
type servePlan struct {
	train, idle []predictReq
	knee        [][]predictReq
	rtt         []predictReq
}

func newServePlan(e *env, s shape, traced bool) *servePlan {
	perPhase := max(int((e.window/2).Seconds()*serveRate), 1)
	gen := dataset.NewGenerator(dataset.ForModel(s.spec.SparseParams, s.spec.NonZerosPerExample), e.seed+777)
	plan := &servePlan{
		train: schedule(gen, serveRate, perPhase, s.shards),
		idle:  schedule(gen, serveRate, perPhase, s.shards),
	}
	if traced {
		for _, rate := range e.kneeRates {
			plan.knee = append(plan.knee, schedule(gen, rate, int(e.kneeStep.Seconds()*float64(rate)), s.shards))
		}
		plan.rtt = schedule(gen, 1, rttProbeCalls, s.shards)
	}
	return plan
}

// run plays the plan against a set-up cluster and records what it measured.
func (plan *servePlan) run(e *env, r *running, rec *recorder, root int, res *workloadResult, layers metricSet) {
	s := r.shape
	half := e.window / 2
	client := newServeClient(r.cfg.RemoteShards, s.spec.EmbeddingDim)
	defer client.close()

	// Phase train: the trainer's window and the predict stream run together.
	sp := rec.begin("window train", root, -1, lanePhases)
	var w windowResult
	var werr error
	measured := make(chan struct{})
	go func() {
		defer close(measured)
		w, werr = r.measure(half)
	}()
	train, perr := client.runPhase(plan.train, rec, sp)
	<-measured
	rec.end(sp)
	stopErr := r.stopTraining()
	if err := errors.Join(werr, perr, stopErr); err != nil {
		res.fail(err)
		return
	}
	windowMetrics(s, w, res.Metrics, layers)

	// Phase idle: the same stream with training stopped.
	sp = rec.begin("window idle", root, -1, lanePhases)
	idle, err := client.runPhase(plan.idle, rec, sp)
	rec.end(sp)
	if err != nil {
		res.fail(err)
		return
	}
	phases := []*phaseResult{train, idle}
	phaseMetrics(train, "train", layers)
	phaseMetrics(idle, "idle", layers)
	res.headline = percentileMs(idle.latencies, 0.50)

	if rec != nil {
		// Step the idle cluster through higher fixed rates: the knee is the
		// highest rate at which it, and every rate below it, still answers
		// kneeShare of the requests sent within the limit.
		knee, met := 0, idle.sloShare() >= kneeShare
		if met {
			knee = serveRate
		}
		for i, reqs := range plan.knee {
			sp := rec.begin(fmt.Sprintf("step %d req/s", e.kneeRates[i]), root, -1, lanePhases)
			p, err := client.runPhase(reqs, rec, sp)
			rec.end(sp)
			if err != nil {
				res.fail(err)
				return
			}
			phases = append(phases, p)
			if met = met && p.sloShare() >= kneeShare; met {
				knee = e.kneeRates[i]
			}
		}
		layers.set("serving.knee_rps_idle", float64(knee), 0)

		// Closed-loop, one connection: the bare predict round trip.
		sp := rec.begin("predict rtt probe", root, -1, lanePhases)
		var rtts []time.Duration
		for _, rq := range plan.rtt {
			t0 := time.Now()
			if _, err := client.conns[0].Predict(rq.target, rq.req); err != nil {
				res.fail(fmt.Errorf("rtt probe: %w", err))
				return
			}
			rtts = append(rtts, time.Since(t0))
		}
		rec.end(sp)
		layers.set("serving.predict_rtt_us_p50", float64(medianDuration(rtts))/float64(time.Microsecond), len(rtts))
	}

	// Failures and shard counters over every phase run; the generator's own
	// queueing and lateness over the two measured phases only (the knee steps
	// are meant to queue).
	var all phaseResult
	for _, p := range phases {
		all.sent += p.sent
		all.rejected += p.rejected
		all.errored += p.errored
		all.badScores += p.badScores
		all.stats = all.stats.Add(p.stats)
		if all.firstErr == nil {
			all.firstErr = p.firstErr
		}
	}
	queue := append(append([]time.Duration(nil), train.queue...), idle.queue...)
	sortDurations(queue)
	res.Attempted += int64(all.sent)
	res.Failed += int64(all.rejected + all.errored)
	if all.errored > 0 {
		res.Correct = false
		res.Error = fmt.Sprintf("%d predicts failed, first: %v", all.errored, all.firstErr)
	}
	var retries, redials int64
	for _, c := range client.conns {
		ts := c.Stats()
		retries, redials = retries+ts.Retries, redials+ts.Redials
	}
	res.addCheck("predict_connections_clean", retries == 0 && redials == 0, "%d retries, %d redials on the predict connections", retries, redials)
	res.addCheck("scores_valid", all.badScores == 0, "%d scores outside [0,1] or score counts off", all.badScores)
	res.addCheck("serving_staleness", all.stats.StalenessMax <= 1, "staleness max %d push epochs, bound 1", all.stats.StalenessMax)
	layers.set("serving.coalesced_share", ratio(float64(all.stats.Coalesced), float64(all.stats.Requests)), 0)
	layers.set("serving.rejected_share", ratio(float64(all.rejected), float64(all.sent)), all.sent)
	layers.set("serving.staleness_max", float64(all.stats.StalenessMax), 0)
	layers.set("serving.push_epoch_lag_max", float64(all.stats.PushEpochLag), 0)
	layers.set("serving.client_queue_ms_p50", percentileMs(queue, 0.50), len(queue))
	layers.set("serving.generator_late_ms_max", float64(max(train.lateMax, idle.lateMax))/float64(time.Millisecond), 0)

	r.finish(e, rec, root, res, layers)
}
