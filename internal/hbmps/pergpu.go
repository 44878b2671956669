package hbmps

import (
	"runtime"
	"sync"

	"hps/internal/keys"
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

// gpuGroups is the pooled per-call grouping scratch of the batched calls
// PullInto, CommitBlock, PushBlock and Evict: request keys and their indices
// in the request, bucketed by owning GPU. Workers call these concurrently, so
// the scratch is pooled rather than stored on the HBMPS.
type gpuGroups struct {
	keys [][]keys.Key
	idx  [][]int32
}

var groupPool = sync.Pool{New: func() any { return new(gpuGroups) }}

// groupByGPU buckets ks by owning GPU, leaving out rows whose present flag is
// false (present may be nil: every row). Return the result to groupPool.
func (h *HBMPS) groupByGPU(ks []keys.Key, present []bool) *gpuGroups {
	gr := groupPool.Get().(*gpuGroups)
	if len(gr.keys) < len(h.devices) {
		gr.keys = make([][]keys.Key, len(h.devices))
		gr.idx = make([][]int32, len(h.devices))
	}
	for g := range h.devices {
		gr.keys[g] = gr.keys[g][:0]
		gr.idx[g] = gr.idx[g][:0]
	}
	for i, k := range ks {
		if present != nil && !present[i] {
			continue
		}
		g := h.gpuOf(k)
		gr.keys[g] = append(gr.keys[g], k)
		gr.idx[g] = append(gr.idx[g], int32(i))
	}
	return gr
}
