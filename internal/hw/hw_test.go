package hw

import (
	"testing"
	"testing/quick"
	"time"
)

// model prices n operations moving amount in total on r alone.
func model(p NodeProfile, r Resource, n int64, amount float64) time.Duration {
	return Model(p, Ops(r, n, amount))[r]
}

func TestLinkTransferTime(t *testing.T) {
	p := NodeProfile{Ethernet: Link{Name: "test", BandwidthBytesPerSec: 1000, Latency: time.Millisecond}}
	if got, want := model(p, ResNetwork, 1, 1000), time.Millisecond+time.Second; got != want {
		t.Fatalf("one transfer of 1000 B = %v, want %v", got, want)
	}
	if got := model(p, ResNetwork, 1, 0); got != time.Millisecond {
		t.Fatalf("zero bytes should cost only latency, got %v", got)
	}
	if got := model(p, ResNetwork, 1, -5); got != time.Millisecond {
		t.Fatalf("negative bytes should cost only latency, got %v", got)
	}
	if got, want := model(p, ResNetwork, 3, 3000), 3*time.Millisecond+3*time.Second; got != want {
		t.Fatalf("three transfers of 1000 B = %v, want %v", got, want)
	}
}

func TestLinkZeroBandwidth(t *testing.T) {
	p := NodeProfile{NVLink: Link{Latency: time.Millisecond}}
	if got := model(p, ResNVLink, 1, 1<<30); got != time.Millisecond {
		t.Fatalf("zero-bandwidth link should return latency, got %v", got)
	}
}

func TestGPUComputeTime(t *testing.T) {
	p := NodeProfile{GPU: GPU{FLOPS: 1e9, KernelLaunch: time.Microsecond}}
	if got, want := model(p, ResGPU, 1, 1e9), time.Microsecond+time.Second; got != want {
		t.Fatalf("compute = %v, want %v", got, want)
	}
	if got := model(p, ResGPU, 1, -1); got != time.Microsecond {
		t.Fatalf("negative flops = %v", got)
	}
	if got := model(NodeProfile{}, ResGPU, 1, 1e9); got != 0 {
		t.Fatalf("zero gpu compute = %v", got)
	}
}

func TestGPUMemoryTime(t *testing.T) {
	p := NodeProfile{GPU: GPU{HBMBandwidthBytesPerSec: 1e9, KernelLaunch: time.Microsecond}}
	if got, want := model(p, ResHBM, 1, 1e9), time.Microsecond+time.Second; got != want {
		t.Fatalf("memory = %v, want %v", got, want)
	}
}

func TestCPUComputeTime(t *testing.T) {
	p := NodeProfile{CPU: CPU{Cores: 4, FLOPS: 2e9}}
	if got := model(p, ResCPU, 1, 1e9); got != 500*time.Millisecond {
		t.Fatalf("cpu compute = %v", got)
	}
	if got := model(NodeProfile{}, ResCPU, 1, 1e9); got != 0 {
		t.Fatalf("zero cpu compute = %v", got)
	}
}

func TestSSDBlockRounding(t *testing.T) {
	s := SSD{ReadBandwidthBytesPerSec: 4096, WriteBandwidthBytesPerSec: 4096, BlockBytes: 4096}
	p := NodeProfile{SSD: s}
	// 1 byte still costs a full block: 1 second at 4096 B/s.
	if got := model(p, ResSSDRead, 1, float64(s.Physical(1))); got != time.Second {
		t.Fatalf("read of 1 B = %v, want 1s", got)
	}
	if got := model(p, ResSSDWrite, 1, float64(s.Physical(4097))); got != 2*time.Second {
		t.Fatalf("write of 4097 B = %v, want 2s", got)
	}
	if got := s.Physical(0); got != 0 {
		t.Fatalf("Physical(0) = %v, want 0", got)
	}
}

func TestSSDRoundUpProperty(t *testing.T) {
	s := SSD{BlockBytes: 4096}
	f := func(n uint32) bool {
		eff := s.Physical(int64(n))
		if n == 0 {
			return eff == 0
		}
		return eff >= int64(n) && eff%4096 == 0 && eff-int64(n) < 4096
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHDFSReadTime(t *testing.T) {
	p := NodeProfile{HDFS: HDFS{StreamBandwidthBytesPerSec: 100, OpenLatency: time.Millisecond}}
	if got := model(p, ResHDFS, 1, 100); got != time.Millisecond+time.Second {
		t.Fatalf("hdfs read = %v", got)
	}
	if got := model(p, ResHDFS, 1, -1); got != time.Millisecond {
		t.Fatalf("hdfs read negative = %v", got)
	}
}

// TestModelMatchesHelperArithmetic prices fixed counts on every resource and
// compares them with what the per-operation helpers Model replaced
// (Link.TransferTime, GPU.ComputeTime/MemoryTime, CPU.ComputeTime,
// SSD.ReadTime/WriteTime, HDFS.ReadTime) returned for the same operations,
// summed: the literals were computed with those helpers on the default
// profiles. The helpers truncated each operation to a whole nanosecond and
// Model truncates once, so the two may differ by under 1 ns per operation.
func TestModelMatchesHelperArithmetic(t *testing.T) {
	gpu, mpi := DefaultGPUNode(), DefaultMPINode()
	ssd := gpu.SSD
	cases := []struct {
		p      NodeProfile
		r      Resource
		ops    int64
		amount float64 // per operation
		want   time.Duration
	}{
		{gpu, ResGPU, 4, 12345.5, 20000},
		{gpu, ResHBM, 7, 3000, 35021},
		{gpu, ResNVLink, 3, 1000, 6018},
		{gpu, ResPCIe, 5, 4096, 26705},
		{gpu, ResRDMA, 2, 1e6, 197818},
		{gpu, ResNetwork, 9, 777, 270693},
		{gpu, ResSSDRead, 6, float64(ssd.Physical(5000)), 547626},
		{gpu, ResSSDWrite, 3, float64(ssd.Physical(10000)), 83583},
		{gpu, ResHDFS, 30, 65536, 61525860},
		{mpi, ResCPU, 1, 1e9, 666666},
	}
	for _, c := range cases {
		got := Model(c.p, Ops(c.r, c.ops, float64(c.ops)*c.amount))
		if diff := got[c.r] - c.want; diff < 0 || diff >= time.Duration(c.ops) {
			t.Errorf("%v x%d: Model = %d ns, helpers summed to %d ns", c.r, c.ops, got[c.r], c.want)
		}
		if got.Sum() != got[c.r] || got.Max() != got[c.r] {
			t.Errorf("%v: work on one resource priced on others: %v", c.r, got)
		}
	}
}

func TestTimesByName(t *testing.T) {
	var w Work
	w.Add(Ops(ResSSDRead, 1, 0))
	w.Add(Ops(ResSSDWrite, 1, 0))
	w.Add(Ops(ResRDMA, 1, 0))
	p := DefaultGPUNode()
	got := Model(p, w).ByName()
	if len(got) != 2 || got["ssd"] != p.SSD.ReadLatency+p.SSD.WriteLatency || got["rdma"] != p.RDMA.Latency {
		t.Fatalf("ByName = %v", got)
	}
	if d := w.Minus(w); d != (Work{}) {
		t.Fatalf("w - w = %v", d)
	}
}

func TestDefaultProfilesSane(t *testing.T) {
	p := DefaultGPUNode()
	if p.GPUsPerNode != 8 {
		t.Fatalf("GPUsPerNode = %d, want 8 (paper Section 7)", p.GPUsPerNode)
	}
	if p.GPU.HBMBytes != 32<<30 {
		t.Fatalf("HBM = %d, want 32 GiB", p.GPU.HBMBytes)
	}
	if p.NVLink.BandwidthBytesPerSec <= p.PCIe.BandwidthBytesPerSec {
		t.Fatal("NVLink must be faster than PCIe")
	}
	if p.RDMA.BandwidthBytesPerSec <= 0 || p.Ethernet.BandwidthBytesPerSec <= 0 {
		t.Fatal("network links must have positive bandwidth")
	}
	if p.SSD.CapacityBytes < p.MainMemoryBytes {
		t.Fatal("SSD must be larger than main memory for the hierarchy to make sense")
	}
	if p.MainMemoryBytes < p.GPU.HBMBytes*int64(p.GPUsPerNode) {
		t.Fatal("main memory must exceed total HBM")
	}

	m := DefaultMPINode()
	if m.GPUsPerNode != 0 {
		t.Fatal("MPI node must not have GPUs")
	}
	if m.CPU.FLOPS != p.CPU.FLOPS {
		t.Fatal("MPI node CPU should match GPU node CPU (paper: similar specs)")
	}
}
