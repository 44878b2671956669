// Package pipeline implements the 4-stage prefetch pipeline of Section 3 and
// Appendix B.
//
// The training workflow has four time-consuming tasks — data transferring
// (network), parameter partitioning (CPU), materialized parameter
// loading/dumping (SSD) and neural network training (GPU) — that use
// independent hardware resources. The pipeline runs one worker per stage,
// connected by one-slot channels: a worker stalls when the next stage has not
// taken its previous job yet, and the steady-state batch latency is governed
// by the slowest stage rather than the sum of all stages.
//
// How many jobs may be in flight at once is the caller's policy, not the
// pipeline's: the trainer bounds it with a depth gate in the pull stage's
// Admit hook.
//
// The pipeline is generic over the job type so the same machinery drives the
// trainer and the ablation benchmarks.
package pipeline

import (
	"context"
	"errors"
	"fmt"
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
	// Stalled is the cumulative wall-clock time spent blocked handing a job
	// to the next stage (backpressure).
	Stalled time.Duration
}

// Pipeline executes a fixed sequence of stages over a stream of jobs.
type Pipeline[T any] struct {
	stages []Stage[T]

	mu    sync.Mutex
	stats []StageStats
}

// New constructs a pipeline from the given stages. It panics if no stages are
// provided (a pipeline needs at least one).
func New[T any](stages ...Stage[T]) *Pipeline[T] {
	if len(stages) == 0 {
		panic("pipeline: no stages")
	}
	p := &Pipeline[T]{stages: stages, stats: make([]StageStats, len(stages))}
	for i, s := range stages {
		p.stats[i].Name = s.Name
	}
	return p
}

// Stats returns a copy of the per-stage statistics of the most recent (or
// in-progress) run.
func (p *Pipeline[T]) Stats() []StageStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]StageStats(nil), p.stats...)
}

func (p *Pipeline[T]) addStat(i int, busy, stalled time.Duration) {
	p.mu.Lock()
	p.stats[i].Jobs++
	p.stats[i].Busy += busy
	p.stats[i].Stalled += stalled
	p.mu.Unlock()
}

// Run pulls jobs from source until it reports no more jobs (ok == false),
// passes each job through every stage in order, and hands the final result to
// sink. Source, every stage, and sink each run on their own goroutine with
// one-slot channels between them. Run returns the first error encountered, or
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
		errOnce.Do(func() {
			runErr = err
			cancel()
		})
	}

	// The chain: source -> chans[0] -> stage 0 -> chans[1] -> ... -> sink.
	// Every goroutine closes the channel it sends on when it returns, so an
	// exhausted source drains the chain in order, and every send and receive
	// also selects on the run's context, so a cancelled run stops each
	// goroutine at its next hand-over.
	chans := make([]chan T, len(p.stages)+1)
	for i := range chans {
		chans[i] = make(chan T, 1)
	}
	send := func(ch chan<- T, v T) bool {
		select {
		case ch <- v:
			return true
		case <-runCtx.Done():
			return false
		}
	}
	recv := func(ch <-chan T) (T, bool) {
		select {
		case v, ok := <-ch:
			return v, ok
		case <-runCtx.Done():
			var zero T
			return zero, false
		}
	}

	var wg sync.WaitGroup
	wg.Add(len(p.stages) + 2)

	go func() {
		defer wg.Done()
		defer close(chans[0])
		for {
			job, ok, err := source(runCtx)
			if err != nil {
				fail(err)
				return
			}
			if !ok || !send(chans[0], job) {
				return
			}
		}
	}()

	for i, s := range p.stages {
		go func() {
			defer wg.Done()
			defer close(chans[i+1])
			for {
				job, ok := recv(chans[i])
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
				sendStart := time.Now()
				ok = send(chans[i+1], out)
				p.addStat(i, busy, time.Since(sendStart))
				if !ok {
					return
				}
			}
		}()
	}

	go func() {
		defer wg.Done()
		for {
			job, ok := recv(chans[len(p.stages)])
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
