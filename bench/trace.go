package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer (or around one of its own phases). Spans live only in bench/ files:
// the program under test is not instrumented in this change.
type span struct {
	Name string
	// Parent is the index of the span that caused this one, -1 for a root.
	Parent int
	// Tag is the batch or request id the span belongs to, -1 when none.
	Tag int64
	// Lane keeps spans that overlap without nesting (the two predict
	// connections, the probe) on separate rows of the trace viewer.
	Lane       int
	Start, End time.Duration // since the recorder's epoch
	// Due is set on predict spans only: when the request was scheduled.
	Due time.Duration
}

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// untraced run: every method is a no-op.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, parent int, tag int64, lane int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Tag: tag, Lane: lane, Start: now, End: -1})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records an already-timed span (used for predicts, whose three
// timestamps the generator takes anyway).
func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// since converts a wall time to the recorder's clock.
func (r *recorder) since(t time.Time) time.Duration {
	if r == nil {
		return 0
	}
	return t.Sub(r.epoch)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (children may overlap each other; the covered
// part is the union of their intervals clipped to the parent).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered time.Duration
		cursor := s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, cursor), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// selfByName sums, per span name, the self time of spans[from:].
func selfByName(spans []span, from int) map[string]time.Duration {
	self := make(map[string]time.Duration)
	for i, d := range selfTimes(spans) {
		if i >= from {
			self[spans[i].Name] += d
		}
	}
	return self
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev).
func (r *recorder) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	self := selfTimes(spans)
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		args := map[string]any{"id": i, "parent": s.Parent, "self_us": us(self[i])}
		if s.Tag >= 0 {
			args["tag"] = s.Tag
		}
		if s.Due > 0 {
			args["due_us"] = us(s.Due)
		}
		events = append(events, event{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: s.Lane, Args: args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
