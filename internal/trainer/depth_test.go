package trainer

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// stageEv is one call of the stageEvent hook.
type stageEv struct {
	stage string
	batch int
	enter bool
}

// recordEvents runs a small trainer at the given depth with the given stage
// delays and returns the stageEvent calls in the order they happened.
func recordEvents(t *testing.T, depth int, delays map[string]time.Duration) []stageEv {
	t.Helper()
	const batches = 12
	tr, err := New(Config{
		Spec:        testSpec(),
		Data:        testData(),
		BatchSize:   8,
		Batches:     batches,
		MaxInFlight: depth,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	var mu sync.Mutex
	var evs []stageEv
	tr.stageDelay = delays
	tr.stageEvent = func(stage string, batch int, enter bool) {
		mu.Lock()
		evs = append(evs, stageEv{stage, batch, enter})
		mu.Unlock()
	}
	if err := tr.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got := countEvents(evs, "sink", true); got != batches {
		t.Fatalf("%d batches reached the sink, want %d", got, batches)
	}
	return evs
}

func countEvents(evs []stageEv, stage string, enter bool) int {
	n := 0
	for _, e := range evs {
		if e.stage == stage && e.enter == enter {
			n++
		}
	}
	return n
}

// position returns the index of an event in evs, failing the test if it
// never happened.
func position(t *testing.T, evs []stageEv, want stageEv) int {
	t.Helper()
	for i, e := range evs {
		if e == want {
			return i
		}
	}
	t.Fatalf("event %+v never happened", want)
	return -1
}

// TestDepthContract states the depth contract as an order of events, not a
// timing. At every depth d, at most d batches lie between entering the pull
// stage and reaching the sink (the parameter-staleness bound), and at most
// d+1 are admitted (the read runs one batch ahead). At depth 1, batch N+1
// pulls only after batch N reached the sink — Algorithm 1's ordering — yet
// when the read is the short stage, batch N+1 has been read before batch N
// finished pushing.
func TestDepthContract(t *testing.T) {
	short := map[string]time.Duration{
		StageRead:  time.Millisecond,
		StagePull:  5 * time.Millisecond,
		StageTrain: 5 * time.Millisecond,
		StagePush:  5 * time.Millisecond,
	}
	for _, depth := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			evs := recordEvents(t, depth, short)
			admitted, pulled, sunk, maxAdmitted := 0, 0, 0, 0
			for _, e := range evs {
				switch {
				case e.stage == "admit":
					admitted++
				case e.stage == StagePull && e.enter:
					pulled++
				case e.stage == "sink":
					sunk++
				}
				if pulled-sunk > depth {
					t.Fatalf("%d batches between pull and sink at depth %d (at %+v)", pulled-sunk, depth, e)
				}
				if admitted-sunk > depth+readAhead {
					t.Fatalf("%d batches admitted at depth %d (at %+v)", admitted-sunk, depth, e)
				}
				maxAdmitted = max(maxAdmitted, admitted-sunk)
			}
			if maxAdmitted != depth+readAhead {
				t.Fatalf("at most %d batches admitted at once; with a short read it should reach %d",
					maxAdmitted, depth+readAhead)
			}
			if depth != 1 {
				return
			}
			for n := 0; n+1 < 12; n++ {
				sinkN := position(t, evs, stageEv{"sink", n, true})
				if pullNext := position(t, evs, stageEv{StagePull, n + 1, true}); pullNext < sinkN {
					t.Fatalf("depth 1: batch %d entered pull before batch %d reached the sink", n+1, n)
				}
				if readNext := position(t, evs, stageEv{StageRead, n + 1, false}); readNext > position(t, evs, stageEv{StagePush, n, false}) {
					t.Fatalf("depth 1: batch %d was read only after batch %d pushed; the read should run ahead", n+1, n)
				}
			}
		})
	}
}

// TestDepthGateBoundsAndCancel drives the gate by hand: admission stops at
// depth+readAhead and the pull stage at depth, a release frees one of each,
// and cancelling the context wakes a waiter on either bound.
func TestDepthGateBoundsAndCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := newDepthGate(1)
	for i := 0; i < 1+readAhead; i++ {
		if err := g.admit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.acquire(ctx); err != nil {
		t.Fatal(err)
	}

	blocked := func(name string, take func(context.Context) error) chan error {
		done := make(chan error, 1)
		go func() { done <- take(ctx) }()
		select {
		case err := <-done:
			t.Fatalf("%s did not block at its bound (returned %v)", name, err)
		case <-time.After(20 * time.Millisecond):
		}
		return done
	}
	admit := blocked("admit", g.admit)
	acquire := blocked("acquire", g.acquire)

	// A release frees one slot of each bound.
	g.release()
	for name, done := range map[string]chan error{"admit": admit, "acquire": acquire} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s after release: %v", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("release did not wake the blocked %s", name)
		}
	}

	// Both bounds are full again; cancellation must wake both waiters.
	admit = blocked("admit", g.admit)
	acquire = blocked("acquire", g.acquire)
	cancel()
	for name, done := range map[string]chan error{"admit": admit, "acquire": acquire} {
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s after cancel = %v, want context.Canceled", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("cancellation did not wake the blocked %s", name)
		}
	}
}
