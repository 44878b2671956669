package hbmps

import (
	"runtime"
	"sync"
)

// gpuPass is one GPU's share of a LoadBlock or CollectBlock. Every HBMPS owns
// one per GPU, and fn is always a method expression, so handing a pass to a
// helper goroutine allocates nothing — a go statement per GPU would allocate
// its closure on every batch.
type gpuPass struct {
	h   *HBMPS
	gpu int
	fn  func(h *HBMPS, gpu int) error
	err error
}

// passes feeds the package's helper goroutines, started on first use, one per
// processor. They serve every HBMPS in the process; a pass never waits on
// another pass, so a busy helper delays a node's pass but cannot deadlock it.
var (
	passes       = make(chan *gpuPass, 64)
	startHelpers sync.Once
)

func helper() {
	for p := range passes {
		p.err = p.fn(p.h, p.gpu)
		p.h.passWG.Done()
	}
}

// eachGPU runs fn for every GPU of the node concurrently on the helpers and
// returns the first error in GPU order. With one GPU it runs inline. The
// caller holds h.mu, which is what makes h.passes and h.passWG single-use at a
// time.
//
// The caller waits rather than running a pass itself: the first helper it
// wakes is queued to run next on the caller's own processor, where another
// processor may steal it only after a short sleep — on a small VM the
// caller's pass was over before the steal, so the passes ran one after the
// other. Waiting hands that helper the caller's processor at once, and the
// rest go to idle ones.
func (h *HBMPS) eachGPU(fn func(h *HBMPS, gpu int) error) error {
	n := len(h.devices)
	if n == 1 {
		return fn(h, 0)
	}
	startHelpers.Do(func() {
		for range max(runtime.GOMAXPROCS(0), 1) {
			go helper()
		}
	})
	h.passWG.Add(n)
	for g := range h.passes {
		p := &h.passes[g]
		p.fn, p.err = fn, nil
		passes <- p
	}
	h.passWG.Wait()
	for g := range h.passes {
		if err := h.passes[g].err; err != nil {
			return err
		}
	}
	return nil
}
