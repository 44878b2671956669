package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The host gauge. This VM's two cores are threads of a shared host: when the
// neighbours on it are busy, everything here runs slower for minutes on end
// (train_tcp by a quarter, train_local_hot by a sixth), and ten runs that
// straddle such a change spread wider than any bound the benchmark could
// set. Stolen CPU time does not show it and a pure-ALU loop barely does; the
// time of a fixed batch of scattered loads does, second by second. The gauge
// takes that time throughout a run, and the time-based end-to-end metrics are
// reported adjusted to the reference level (hostAdjust). README, "Host state".
const (
	gaugeEvery = 50 * time.Millisecond
	gaugeLoads = 60000
	gaugeBytes = 8 << 20
	// gaugeRef is the kernel time the metrics are adjusted to: between the
	// quiet (~0.085 ms) and the busy (~0.120 ms) level of this host.
	gaugeRef = 100 * time.Microsecond
)

// gaugeSink keeps the compiler from dropping the kernel's loads.
var gaugeSink uint64

// hostGauge times the kernel every gaugeEvery on its own goroutine (about
// 0.2% of one core) and keeps every sample of the run.
type hostGauge struct {
	// mem is a read-only anonymous mapping: every page of it is the kernel's
	// one zero page, so the kernel's loads hit the cache and miss the TLB —
	// what it times is 60,000 address translations, which under nested paging
	// is the part of a memory access most exposed to what else the physical
	// core is doing.
	mem []byte

	mu sync.Mutex
	at []time.Time
	d  []time.Duration

	stop chan struct{}
	done chan struct{}
}

func startHostGauge() (*hostGauge, error) {
	mem, err := syscall.Mmap(-1, 0, gaugeBytes, syscall.PROT_READ, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("bench: map the host gauge's memory: %w", err)
	}
	g := &hostGauge{mem: mem, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		tick := time.NewTicker(gaugeEvery)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
			d := g.kernel()
			g.mu.Lock()
			g.at = append(g.at, time.Now())
			g.d = append(g.d, d)
			g.mu.Unlock()
		}
	}()
	return g, nil
}

// close stops the sampling goroutine, waits for it and unmaps its memory.
func (g *hostGauge) close() {
	close(g.stop)
	<-g.done
	_ = syscall.Munmap(g.mem) // the process is about to exit; nothing to do about a failure
}

// kernel times gaugeLoads independent loads at pseudo-random places of mem.
func (g *hostGauge) kernel() time.Duration {
	start := time.Now()
	var sum uint64
	idx := uint64(12345)
	for i := 0; i < gaugeLoads; i++ {
		idx = idx*6364136223846793005 + 1442695040888963407
		sum += uint64(g.mem[(idx>>40)&(gaugeBytes-1)])
	}
	gaugeSink += sum
	return time.Since(start)
}

// level returns the host's level over [from, to]: the lower quartile of the
// kernel times sampled in it (a sample that was preempted reads long, never
// short) over gaugeRef. 1 is the reference level, above 1 a slower host. With
// no sample in the interval it returns 1, which leaves values unadjusted.
func (g *hostGauge) level(from, to time.Time) float64 {
	g.mu.Lock()
	lo := sort.Search(len(g.at), func(i int) bool { return !g.at[i].Before(from) })
	hi := sort.Search(len(g.at), func(i int) bool { return g.at[i].After(to) })
	in := append([]time.Duration(nil), g.d[lo:hi]...)
	g.mu.Unlock()
	if len(in) == 0 {
		return 1
	}
	sortDurations(in)
	return float64(in[len(in)/4]) / float64(gaugeRef)
}

// hostAdjust scales a duration or cost measured at the given host level to
// the reference level: exp is the workload's measured exponent (shape.hostExp,
// how much of its time follows the gauge). A rate is adjusted with -exp.
func hostAdjust(v, level, exp float64) float64 {
	return v / math.Pow(level, exp)
}
