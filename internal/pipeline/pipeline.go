// Package pipeline implements the 4-stage prefetch pipeline of Section 3 and
// Appendix B.
//
// The training workflow has four time-consuming tasks — data transferring
// (network), parameter partitioning (CPU), materialized parameter
// loading/dumping (SSD) and neural network training (GPU) — that use
// independent hardware resources. The pipeline runs one worker per stage,
// connected by bounded prefetch queues: a worker stalls when the next stage's
// queue is full, and the steady-state batch latency is governed by the
// slowest stage rather than the sum of all stages.
//
// Queue capacities are either fixed (Stage.QueueSize) or, with AutoTune,
// derived at runtime from measured per-stage service times: "the capacity of
// the prefetch queue is pre-set according to the execution time of each
// stage". The tuner warm-starts after the first measurement interval and
// keeps re-deriving the capacities (and the suggested pipeline depth) as the
// EWMA service times drift, always under the configured ceilings.
//
// The pipeline is generic over the job type so the same machinery drives the
// trainer and the ablation benchmarks.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// ErrStopped is returned by Run when the context is cancelled before the
// source is exhausted.
var ErrStopped = errors.New("pipeline: stopped")

// Stage is one step of the pipeline.
type Stage[T any] struct {
	// Name identifies the stage in statistics (e.g. "read", "pull", "train").
	Name string
	// QueueSize is the initial capacity of the stage's prefetch queue ("the
	// capacity of the prefetch queue is pre-set according to the execution
	// time of each stage"). Values < 1 are treated as 1. With AutoTune the
	// capacity is re-derived at runtime from measured stage times.
	QueueSize int
	// Fn processes one job and returns the job handed to the next stage.
	Fn func(context.Context, T) (T, error)
	// Admit, when set, runs before Fn for every job, outside the stage's
	// timing: a stage that must wait for a resource before it may start (the
	// trainer's depth gate at the pull stage) waits here, and the wait counts
	// as neither busy nor stalled time. An error stops the pipeline like an
	// error from Fn.
	Admit func(context.Context, T) error
}

// StageStats reports what one stage did during a run.
type StageStats struct {
	// Name is the stage name.
	Name string
	// Jobs is the number of jobs the stage processed.
	Jobs int64
	// Busy is the cumulative wall-clock time spent inside the stage function.
	Busy time.Duration
	// Stalled is the cumulative wall-clock time spent blocked pushing into
	// the next stage's full queue (backpressure).
	Stalled time.Duration
	// EWMAService is the exponentially-weighted moving average of the
	// stage's per-job service time — the measurement the auto-tuner sizes
	// queues from.
	EWMAService time.Duration
	// QueueCap is the current capacity of the stage's input queue.
	QueueCap int
	// MeanQueueLen is the mean occupancy of the stage's input queue, sampled
	// every time the upstream producer enqueues a job.
	MeanQueueLen float64
}

// TunerConfig configures the runtime queue/depth auto-tuner.
type TunerConfig struct {
	// MaxQueue caps any single stage's queue capacity (default: MaxInFlight,
	// since a queue deeper than the pipeline's job budget can never fill).
	MaxQueue int
	// MaxInFlight is the ceiling on the suggested pipeline depth. Required
	// >= 1.
	MaxInFlight int
	// Interval retunes every Interval jobs completed by the final stage
	// (default 4). The first retune after Interval jobs is the paper-style
	// warm start "pre-set from the execution time of each stage".
	Interval int
	// Alpha is the EWMA smoothing factor in (0, 1] (default 0.25).
	Alpha float64
}

func (c TunerConfig) withDefaults() TunerConfig {
	if c.MaxInFlight < 1 {
		c.MaxInFlight = 1
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = c.MaxInFlight
	}
	if c.Interval <= 0 {
		c.Interval = 4
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.25
	}
	return c
}

// TunerState is a snapshot of the auto-tuner's current decisions.
type TunerState struct {
	// Enabled reports whether AutoTune was configured.
	Enabled bool
	// QueueCaps are the per-stage input-queue capacities currently applied.
	QueueCaps []int
	// InFlight is the suggested effective pipeline depth: the number of
	// overlapping jobs needed to keep the bottleneck stage busy
	// (ceil(sum of stage times / slowest stage time)), clamped to
	// [1, MaxInFlight].
	InFlight int
	// Retunes counts how many times the tuner re-derived the sizing.
	Retunes int64
}

// Pipeline executes a fixed sequence of stages over a stream of jobs.
type Pipeline[T any] struct {
	stages []Stage[T]

	mu    sync.Mutex
	stats []StageStats
	ewma  []float64 // per-stage EWMA service time in ns (tuner input)
	qs    []*queue[T]

	tuner        *TunerConfig
	queueCaps    []int
	inFlight     int
	retunes      int64
	jobsAtRetune int64
}

// New constructs a pipeline from the given stages. It panics if no stages are
// provided (a pipeline needs at least one).
func New[T any](stages ...Stage[T]) *Pipeline[T] {
	if len(stages) == 0 {
		panic("pipeline: no stages")
	}
	p := &Pipeline[T]{stages: stages}
	p.stats = make([]StageStats, len(stages))
	p.ewma = make([]float64, len(stages))
	p.queueCaps = make([]int, len(stages))
	for i, s := range stages {
		p.stats[i].Name = s.Name
		p.queueCaps[i] = max(s.QueueSize, 1)
	}
	return p
}

// AutoTune arms the runtime auto-tuner: once Run is going, queue capacities
// and the suggested in-flight depth are re-derived from the measured EWMA
// stage times every cfg.Interval completed jobs. Call before Run.
func (p *Pipeline[T]) AutoTune(cfg TunerConfig) {
	cfg = cfg.withDefaults()
	p.mu.Lock()
	p.tuner = &cfg
	p.inFlight = cfg.MaxInFlight
	p.mu.Unlock()
}

// NumStages returns the number of stages.
func (p *Pipeline[T]) NumStages() int { return len(p.stages) }

// Stats returns a copy of the per-stage statistics of the most recent (or
// in-progress) run.
func (p *Pipeline[T]) Stats() []StageStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := append([]StageStats(nil), p.stats...)
	for i := range out {
		out[i].EWMAService = time.Duration(p.ewma[i])
		out[i].QueueCap = p.queueCaps[i]
		if i < len(p.qs) && p.qs[i] != nil {
			out[i].QueueCap, out[i].MeanQueueLen = p.qs[i].occupancy()
		}
	}
	return out
}

// TunerState returns the auto-tuner's current sizing decisions. For a
// pipeline without AutoTune, Enabled is false and the snapshot carries the
// static configuration.
func (p *Pipeline[T]) TunerState() TunerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := TunerState{
		Enabled:   p.tuner != nil,
		QueueCaps: append([]int(nil), p.queueCaps...),
		InFlight:  p.inFlight,
		Retunes:   p.retunes,
	}
	if st.InFlight < 1 {
		st.InFlight = 1
	}
	return st
}

func (p *Pipeline[T]) addStat(i int, busy, stalled time.Duration) {
	p.mu.Lock()
	p.stats[i].Jobs++
	p.stats[i].Busy += busy
	p.stats[i].Stalled += stalled
	alpha := 0.25
	if p.tuner != nil {
		alpha = p.tuner.Alpha
	}
	if p.ewma[i] == 0 {
		p.ewma[i] = float64(busy)
	} else {
		p.ewma[i] = alpha*float64(busy) + (1-alpha)*p.ewma[i]
	}
	if p.tuner != nil && i == len(p.stages)-1 &&
		p.stats[i].Jobs-p.jobsAtRetune >= int64(p.tuner.Interval) {
		p.jobsAtRetune = p.stats[i].Jobs
		p.retuneLocked()
	}
	p.mu.Unlock()
}

// retuneLocked re-derives queue capacities and the suggested depth from the
// current EWMA stage times. Called with p.mu held.
//
// Sizing rule: the queue feeding a stage grows with the stage's service time
// relative to the fastest stage — a slow consumer needs a deep prefetch queue
// so its upstream can run ahead through the fast stages, which is exactly the
// paper's "pre-set according to the execution time of each stage". The depth
// suggestion is the classic pipeline occupancy bound, ceil(sum/bottleneck):
// enough overlapping jobs to keep the slowest stage fed, and not more —
// extra depth would only add staleness.
func (p *Pipeline[T]) retuneLocked() {
	minT := math.Inf(1)
	var sum, maxT float64
	for _, e := range p.ewma {
		if e <= 0 {
			return // not every stage measured yet
		}
		minT = math.Min(minT, e)
		maxT = math.Max(maxT, e)
		sum += e
	}
	cfg := p.tuner
	for i, e := range p.ewma {
		c := int(math.Round(e / minT))
		if c < 1 {
			c = 1
		}
		if c > cfg.MaxQueue {
			c = cfg.MaxQueue
		}
		if c > cfg.MaxInFlight {
			c = cfg.MaxInFlight
		}
		p.queueCaps[i] = c
		if i < len(p.qs) && p.qs[i] != nil {
			p.qs[i].setCap(c)
		}
	}
	depth := int(math.Ceil(sum/maxT - 1e-9))
	if depth < 1 {
		depth = 1
	}
	if depth > cfg.MaxInFlight {
		depth = cfg.MaxInFlight
	}
	p.inFlight = depth
	p.retunes++
}

// Run pulls jobs from source until it reports no more jobs (ok == false),
// passes each job through every stage in order, and hands the final result to
// sink. Source, every stage, and sink each run on their own goroutine with
// bounded queues between them. Run returns the first error encountered, or
// ErrStopped if ctx is cancelled first; in either case all goroutines are
// shut down before Run returns.
func (p *Pipeline[T]) Run(ctx context.Context, source func(context.Context) (T, bool, error), sink func(context.Context, T) error) error {
	if source == nil {
		return errors.New("pipeline: nil source")
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// One error slot; the first error wins and cancels everything else.
	var (
		errOnce sync.Once
		runErr  error
	)
	fail := func(err error) {
		if err == nil {
			return
		}
		errOnce.Do(func() {
			runErr = err
			cancel()
		})
	}

	// Build the chain of queues: source -> q0 -> stage0 -> q1 -> ... -> sink.
	// The queues are resizable so the auto-tuner can apply new capacities to
	// a running pipeline.
	queues := make([]*queue[T], len(p.stages)+1)
	p.mu.Lock()
	for i := range p.stages {
		queues[i] = newQueue[T](p.queueCaps[i])
	}
	queues[len(p.stages)] = newQueue[T](1)
	p.qs = queues[:len(p.stages)]
	p.mu.Unlock()

	// Cancellation watchdog: a cancelled context must unblock every push and
	// pop, exactly like the select-on-ctx the channel implementation had.
	go func() {
		<-runCtx.Done()
		for _, q := range queues {
			q.close()
		}
	}()

	var wg sync.WaitGroup

	// Source goroutine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer queues[0].close()
		for {
			job, ok, err := source(runCtx)
			if err != nil {
				fail(err)
				return
			}
			if !ok {
				return
			}
			if !queues[0].push(job) {
				return
			}
		}
	}()

	// Stage goroutines.
	for i, s := range p.stages {
		wg.Add(1)
		go func(i int, s Stage[T]) {
			defer wg.Done()
			defer queues[i+1].close()
			for {
				job, ok := queues[i].pop()
				if !ok {
					return
				}
				if s.Admit != nil {
					if err := s.Admit(runCtx, job); err != nil {
						fail(fmt.Errorf("pipeline stage %q: %w", s.Name, err))
						return
					}
				}
				start := time.Now()
				out, err := s.Fn(runCtx, job)
				busy := time.Since(start)
				if err != nil {
					fail(fmt.Errorf("pipeline stage %q: %w", s.Name, err))
					return
				}
				pushStart := time.Now()
				ok = queues[i+1].push(out)
				p.addStat(i, busy, time.Since(pushStart))
				if !ok {
					return
				}
			}
		}(i, s)
	}

	// Sink goroutine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			job, ok := queues[len(p.stages)].pop()
			if !ok {
				return
			}
			if sink == nil {
				continue
			}
			if err := sink(runCtx, job); err != nil {
				fail(fmt.Errorf("pipeline sink: %w", err))
				return
			}
		}
	}()

	wg.Wait()
	if runErr != nil {
		return runErr
	}
	if ctx.Err() != nil {
		return ErrStopped
	}
	return nil
}

// BottleneckStage returns the name and busy time of the stage with the
// largest cumulative busy time — the stage that bounds steady-state
// throughput ("the overall execution time for each batch is dominated by the
// slowest stage", Section 7.2).
func (p *Pipeline[T]) BottleneckStage() (string, time.Duration) {
	stats := p.Stats()
	var name string
	var max time.Duration
	for _, s := range stats {
		if s.Busy >= max {
			max = s.Busy
			name = s.Name
		}
	}
	return name, max
}
