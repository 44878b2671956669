package interconnect

import (
	"testing"
	"time"

	"hps/internal/hw"
)

func testProfile() hw.NodeProfile {
	p := hw.DefaultGPUNode()
	return p
}

func allReduceTime(bytesPerGPU int64, nodes, gpus int) time.Duration {
	return hw.Model(testProfile(), AllReduceWork(bytesPerGPU, nodes, gpus)).Sum()
}

func TestFabricCharging(t *testing.T) {
	c := hw.NewCounter()
	f := NewFabric(testProfile(), c)
	const n = 1 << 20
	links := []hw.Resource{hw.ResNVLink, hw.ResPCIe, hw.ResRDMA, hw.ResNetwork}
	for _, r := range links {
		if w := f.Transfer(r, n); w[r] != (hw.Use{Ops: 1, Amount: n}) {
			t.Fatalf("%v transfer counted %+v", r, w[r])
		}
	}
	f.Transfer(hw.ResNVLink, -1)
	total := c.Total()
	for _, r := range links[1:] {
		if total[r] != (hw.Use{Ops: 1, Amount: n}) {
			t.Fatalf("%v counted %+v", r, total[r])
		}
	}
	if total[hw.ResNVLink] != (hw.Use{Ops: 2, Amount: n}) {
		t.Fatalf("nvlink counted %+v, want 2 transfers of %d B", total[hw.ResNVLink], n)
	}
	// NVLink must be faster than PCIe for the same payload.
	times := hw.Model(testProfile(), total)
	if times[hw.ResNVLink] >= times[hw.ResPCIe] {
		t.Fatal("NVLink should be faster than PCIe")
	}
}

// TestRDMAvsBaseline: an inter-node GPU transfer over RDMA beats the
// CPU-mediated path of Appendix C.2 — GPU->CPU over PCIe, CPU->CPU over
// Ethernet, CPU->GPU over PCIe.
func TestRDMAvsBaseline(t *testing.T) {
	const n = 8 << 20
	rdma := hw.Model(testProfile(), hw.Ops(hw.ResRDMA, 1, n)).Sum()
	baseline := hw.Ops(hw.ResPCIe, 2, 2*n)
	baseline.Add(hw.Ops(hw.ResNetwork, 1, n))
	if b := hw.Model(testProfile(), baseline).Sum(); rdma >= b {
		t.Fatalf("RDMA (%v) must beat the CPU-mediated baseline (%v)", rdma, b)
	}
}

func TestPlanAllReduce(t *testing.T) {
	p := PlanAllReduce(4, 8)
	if p.InterNodeSteps != 2 || p.IntraNodeSteps != 3 {
		t.Fatalf("plan = %+v, want 2 inter-node and 3 intra-node steps (paper example)", p)
	}
	p1 := PlanAllReduce(1, 1)
	if p1.InterNodeSteps != 0 || p1.IntraNodeSteps != 0 {
		t.Fatalf("single GPU plan = %+v", p1)
	}
	p3 := PlanAllReduce(3, 5)
	if p3.InterNodeSteps != 2 || p3.IntraNodeSteps != 3 {
		t.Fatalf("non-power-of-two plan = %+v", p3)
	}
}

func TestHierarchicalAllReduceTimeScalesLogarithmically(t *testing.T) {
	const bytes = 4 << 20
	t2 := allReduceTime(bytes, 2, 8)
	t4 := allReduceTime(bytes, 4, 8)
	t8 := allReduceTime(bytes, 8, 8)
	if !(t2 < t4 && t4 < t8) {
		t.Fatalf("all-reduce time should grow with node count: %v %v %v", t2, t4, t8)
	}
	// Doubling the node count adds one RDMA round, so growth is additive
	// (logarithmic in nodes), not multiplicative.
	growth48 := t8 - t4
	growth24 := t4 - t2
	diff := growth48 - growth24
	if diff < 0 {
		diff = -diff
	}
	if diff > time.Millisecond {
		t.Fatalf("growth should be roughly constant per doubling: %v vs %v", growth24, growth48)
	}
}

func TestHierarchicalBeatsNaiveAtScale(t *testing.T) {
	prof := testProfile()
	const bytes = 4 << 20
	h := allReduceTime(bytes, 4, 8)
	n := NaiveAllToAllTime(bytes, 4, 8, prof.RDMA, prof.NVLink)
	if h >= n {
		t.Fatalf("hierarchical (%v) should beat naive all-to-all (%v) on 4x8 GPUs", h, n)
	}
}

func TestAllReduceTimesDegenerate(t *testing.T) {
	prof := testProfile()
	if allReduceTime(-1, 1, 1) != 0 {
		t.Fatal("single GPU negative bytes should cost nothing")
	}
	if NaiveAllToAllTime(1024, 0, 0, prof.RDMA, prof.NVLink) != 0 {
		t.Fatal("degenerate cluster should cost nothing")
	}
}

// TestAllReduceMatchesHelperArithmetic compares the all-reduce's modelled
// time with what HierarchicalAllReduceTime, which AllReduceWork replaced,
// returned for the same shapes on the default profile (the literals), and
// the naive all-to-all with its own literal. Each round used to be truncated
// to a whole nanosecond, so they may differ by under 1 ns per round.
func TestAllReduceMatchesHelperArithmetic(t *testing.T) {
	p := testProfile()
	for _, c := range []struct {
		bytes       int64
		nodes, gpus int
		rounds      int64
		want        time.Duration
	}{
		{123456, 4, 8, 5, 46915},
		{5000, 1, 4, 2, 4066},
	} {
		got := hw.Model(p, AllReduceWork(c.bytes, c.nodes, c.gpus)).Sum()
		if d := got - c.want; d < 0 || d >= time.Duration(c.rounds) {
			t.Errorf("%dx%d all-reduce of %d B: %d ns, want %d", c.nodes, c.gpus, c.bytes, got, c.want)
		}
	}
	if got := NaiveAllToAllTime(123456, 4, 8, p.RDMA, p.NVLink); got < 481113 || got >= 481113+31 {
		t.Errorf("naive all-to-all: %d ns, want 481113", got)
	}
}

func TestNilClockFabric(t *testing.T) {
	// Neither a fabric without a counter nor a nil fabric may panic.
	if w := NewFabric(testProfile(), nil).Transfer(hw.ResPCIe, 1024); w[hw.ResPCIe].Ops != 1 {
		t.Fatalf("transfer counted %+v", w)
	}
	var f *Fabric
	f.Transfer(hw.ResRDMA, 1024)
}
