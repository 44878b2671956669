package pipeline

import (
	"context"
	"errors"
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

func TestPipelineOverlapsStages(t *testing.T) {
	// With two stages each sleeping d per job, a pipelined run of n jobs
	// should take well under 2*n*d (the serial time).
	const d = 3 * time.Millisecond
	const n = 8
	stage := func(_ context.Context, x int) (int, error) {
		time.Sleep(d)
		return x, nil
	}
	p := New(
		Stage[int]{Name: "a", Fn: stage},
		Stage[int]{Name: "b", Fn: stage},
	)
	start := time.Now()
	if err := p.Run(context.Background(), intSource(n), nil); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	serial := 2 * n * d
	if elapsed >= serial*3/4 {
		t.Fatalf("pipeline took %v; expected meaningful overlap vs serial %v", elapsed, serial)
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
		processed.Add(1)
		time.Sleep(time.Millisecond)
		return x, nil
	}})
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx, src, nil) }()
	time.Sleep(20 * time.Millisecond)
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
