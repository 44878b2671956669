package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func intSource(n int) func(context.Context) (int, bool, error) {
	i := 0
	return func(context.Context) (int, bool, error) {
		if i >= n {
			return 0, false, nil
		}
		i++
		return i, true, nil
	}
}

func TestPipelineProcessesAllJobsInOrder(t *testing.T) {
	p := New(
		Stage[int]{Name: "double", Fn: func(_ context.Context, x int) (int, error) { return x * 2, nil }},
		Stage[int]{Name: "inc", Fn: func(_ context.Context, x int) (int, error) { return x + 1, nil }},
	)
	var got []int
	var mu sync.Mutex
	err := p.Run(context.Background(), intSource(10), func(_ context.Context, x int) error {
		mu.Lock()
		got = append(got, x)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("sink received %d jobs, want 10", len(got))
	}
	for i, v := range got {
		want := (i+1)*2 + 1
		if v != want {
			t.Fatalf("job %d = %d, want %d (order must be preserved)", i, v, want)
		}
	}
}

// The Busy and Stalled accounting tests below sleep inside stages on
// purpose: those figures are wall time, so a stage has to take some.

func TestPipelineStats(t *testing.T) {
	p := New(
		Stage[int]{Name: "slow", Fn: func(_ context.Context, x int) (int, error) {
			time.Sleep(2 * time.Millisecond)
			return x, nil
		}},
		Stage[int]{Name: "fast", Fn: func(_ context.Context, x int) (int, error) { return x, nil }},
	)
	if err := p.Run(context.Background(), intSource(5), nil); err != nil {
		t.Fatal(err)
	}
	stats := p.Stats()
	if len(stats) != 2 {
		t.Fatal("want 2 stage stats")
	}
	if stats[0].Jobs != 5 || stats[1].Jobs != 5 {
		t.Fatalf("job counts = %+v", stats)
	}
	if stats[0].Busy < 10*time.Millisecond {
		t.Fatalf("slow stage busy = %v", stats[0].Busy)
	}
	if stats[0].Name != "slow" || stats[0].Busy < stats[1].Busy {
		t.Fatalf("stats = %+v: the slow stage should be the busiest", stats)
	}
}

// TestPipelineOverlapsStages proves overlap by an event rather than by
// elapsed time: stage b holds each job until stage a has started the next
// one, which only a run that overlaps the stages lets happen.
func TestPipelineOverlapsStages(t *testing.T) {
	const n = 8
	started := make([]chan struct{}, n+2) // started[x] closes when a starts job x
	for i := range started {
		started[i] = make(chan struct{})
	}
	p := New(
		Stage[int]{Name: "a", Fn: func(_ context.Context, x int) (int, error) {
			close(started[x])
			return x, nil
		}},
		Stage[int]{Name: "b", Fn: func(_ context.Context, x int) (int, error) {
			if x == n {
				return x, nil
			}
			select {
			case <-started[x+1]:
				return x, nil
			case <-time.After(5 * time.Second):
				return 0, fmt.Errorf("stage a did not start job %d while stage b held job %d", x+1, x)
			}
		}},
	)
	if err := p.Run(context.Background(), intSource(n), nil); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineStageError(t *testing.T) {
	boom := errors.New("boom")
	p := New(
		Stage[int]{Name: "ok", Fn: func(_ context.Context, x int) (int, error) { return x, nil }},
		Stage[int]{Name: "fail", Fn: func(_ context.Context, x int) (int, error) {
			if x == 3 {
				return 0, boom
			}
			return x, nil
		}},
	)
	err := p.Run(context.Background(), intSource(100), nil)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("want wrapped boom, got %v", err)
	}
}

// TestPipelineAdmitIsNotBusy checks the Admit hook: it runs once per job
// before Fn, its wait is counted as neither busy nor stalled time, and its
// error stops the run like a stage error.
func TestPipelineAdmitIsNotBusy(t *testing.T) {
	const wait = 5 * time.Millisecond
	var admitted atomic.Int64
	p := New(Stage[int]{Name: "gated",
		Admit: func(context.Context, int) error {
			admitted.Add(1)
			time.Sleep(wait)
			return nil
		},
		Fn: func(_ context.Context, x int) (int, error) { return x, nil },
	})
	if err := p.Run(context.Background(), intSource(4), nil); err != nil {
		t.Fatal(err)
	}
	if admitted.Load() != 4 {
		t.Fatalf("Admit ran %d times for 4 jobs", admitted.Load())
	}
	// Counted, the four waits alone would come to 4*wait.
	if st := p.Stats()[0]; st.Busy+st.Stalled >= 2*wait {
		t.Fatalf("Admit's waits counted as stage time: busy %v, stalled %v", st.Busy, st.Stalled)
	}

	boom := errors.New("gate closed")
	p = New(Stage[int]{Name: "gated",
		Admit: func(_ context.Context, x int) error {
			if x == 2 {
				return boom
			}
			return nil
		},
		Fn: func(_ context.Context, x int) (int, error) { return x, nil },
	})
	if err := p.Run(context.Background(), intSource(100), nil); !errors.Is(err, boom) {
		t.Fatalf("want the Admit error, got %v", err)
	}
}

func TestPipelineSourceError(t *testing.T) {
	boom := errors.New("source broke")
	src := func(context.Context) (int, bool, error) { return 0, false, boom }
	p := New(Stage[int]{Name: "s", Fn: func(_ context.Context, x int) (int, error) { return x, nil }})
	if err := p.Run(context.Background(), src, nil); !errors.Is(err, boom) {
		t.Fatalf("want source error, got %v", err)
	}
	if err := p.Run(context.Background(), nil, nil); err == nil {
		t.Fatal("nil source should error")
	}
}

func TestPipelineSinkError(t *testing.T) {
	boom := errors.New("sink broke")
	p := New(Stage[int]{Name: "s", Fn: func(_ context.Context, x int) (int, error) { return x, nil }})
	err := p.Run(context.Background(), intSource(10), func(_ context.Context, x int) error {
		if x == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want sink error, got %v", err)
	}
}

func TestPipelineContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var processed atomic.Int64
	first := make(chan struct{})
	// Endless source.
	src := func(ctx context.Context) (int, bool, error) {
		select {
		case <-ctx.Done():
			return 0, false, nil
		default:
			return 1, true, nil
		}
	}
	p := New(Stage[int]{Name: "count", Fn: func(_ context.Context, x int) (int, error) {
		if processed.Add(1) == 1 {
			close(first)
		}
		return x, nil
	}})
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx, src, nil) }()
	<-first // cancel mid-run, once a job has gone through
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("want ErrStopped, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pipeline did not stop after cancellation")
	}
	if processed.Load() == 0 {
		t.Fatal("expected some jobs to be processed before cancellation")
	}
}

func TestPipelineBackpressureStall(t *testing.T) {
	// A fast first stage feeding a slow second stage must record stall time.
	p := New(
		Stage[int]{Name: "fast", Fn: func(_ context.Context, x int) (int, error) { return x, nil }},
		Stage[int]{Name: "slow", Fn: func(_ context.Context, x int) (int, error) {
			time.Sleep(3 * time.Millisecond)
			return x, nil
		}},
	)
	if err := p.Run(context.Background(), intSource(10), nil); err != nil {
		t.Fatal(err)
	}
	stats := p.Stats()
	if stats[0].Stalled == 0 {
		t.Fatal("fast stage should have recorded backpressure stall time")
	}
}

func TestNewPanicsWithoutStages(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New[int]()
}

func TestPipelineNilSinkOK(t *testing.T) {
	p := New(Stage[int]{Name: "s", Fn: func(_ context.Context, x int) (int, error) { return x, nil }})
	if err := p.Run(context.Background(), intSource(3), nil); err != nil {
		t.Fatal(err)
	}
}
