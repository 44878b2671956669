// Package hw models the hardware of the simulated cluster and is the one
// place where work becomes time.
//
// The paper's testbed (Section 7) consists of 4 GPU nodes, each with eight
// 32 GB-HBM GPUs connected by NVLink, ~1 TB of main memory, ~20 TB of NVMe
// SSD, a 100 Gb RDMA network adaptor, and of an MPI cluster of CPU-only
// nodes. This package encodes those components as bandwidth/latency/compute
// profiles.
//
// The tiers never charge time. Each counts the work it does — operations and
// the bytes they move (FLOPs for GPU and CPU compute) per Resource — in a
// Work value, and Model prices a Work against a NodeProfile: a fixed cost per
// operation plus the amount over the resource's rate. A stage's modelled
// time is Model of the work its calls counted; a run's time distribution is
// Model of everything counted.
//
// The default profiles are calibrated to the nominal numbers of the paper's
// hardware generation (V100-class GPUs, PCIe 3.0 x16, NVLink 2.0, 100 GbE,
// NVMe RAID-0). Absolute values only set the scale of reported times; the
// reproduced figures depend on the ratios between them.
package hw

import (
	"sync"
	"time"
)

// Resource is a hardware resource whose work is counted separately.
type Resource int

// The counted resources.
const (
	ResGPU      Resource = iota // dense compute: kernel launches and FLOPs
	ResHBM                      // GPU memory traffic: kernel launches and bytes
	ResNVLink                   // intra-node GPU transfers
	ResPCIe                     // CPU<->GPU transfers
	ResRDMA                     // inter-node GPU transfers (RoCE)
	ResNetwork                  // inter-node CPU Ethernet (MEM-PS peer pulls, MPI)
	ResSSDRead                  // SSD-PS reads: block-rounded bytes
	ResSSDWrite                 // SSD-PS writes: block-rounded bytes
	ResHDFS                     // training-data streaming: batches and bytes
	ResCPU                      // CPU compute: FLOPs, no per-operation cost
	numResources
)

// names are the report names: both SSD directions are "ssd".
var names = [numResources]string{"gpu", "hbm", "nvlink", "pcie", "rdma", "network", "ssd", "ssd", "hdfs", "cpu"}

// Use is the work done on one resource: how many operations, and the bytes
// (for GPU and CPU compute, FLOPs) they moved in total.
type Use struct {
	Ops    int64
	Amount float64
}

// Work is counted work, per resource. The zero value is no work; it is a
// plain value, so counting allocates nothing.
type Work [numResources]Use

// Ops returns the work of ops operations on r moving amount in total.
func Ops(r Resource, ops int64, amount float64) Work {
	var w Work
	w[r] = Use{ops, amount}
	return w
}

// Add adds o to w.
func (w *Work) Add(o Work) {
	for r := range w {
		w[r].Ops += o[r].Ops
		w[r].Amount += o[r].Amount
	}
}

// Minus returns w less o: the work done between two counts.
func (w Work) Minus(o Work) Work {
	for r := range w {
		w[r].Ops -= o[r].Ops
		w[r].Amount -= o[r].Amount
	}
	return w
}

// Counter accumulates Work from concurrent goroutines. The zero value is
// ready for use, and a nil *Counter counts nothing.
type Counter struct {
	mu sync.Mutex
	w  Work
}

// NewCounter returns an empty counter.
func NewCounter() *Counter { return new(Counter) }

// Add counts w.
func (c *Counter) Add(w Work) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.w.Add(w)
	c.mu.Unlock()
}

// Total returns a copy of the work counted so far.
func (c *Counter) Total() Work {
	if c == nil {
		return Work{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.w
}

// Times is modelled time per resource.
type Times [numResources]time.Duration

// Sum is the time of work whose resources are used one after another.
func (t Times) Sum() time.Duration {
	var d time.Duration
	for _, x := range t {
		d += x
	}
	return d
}

// Max is the time of work whose resources are used at once: the slowest.
func (t Times) Max() time.Duration {
	var d time.Duration
	for _, x := range t {
		d = max(d, x)
	}
	return d
}

// ByName sums the times by report name, leaving out resources that did no
// work.
func (t Times) ByName() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for r, d := range t {
		if d > 0 {
			out[names[r]] += d
		}
	}
	return out
}

// Model returns the modelled time of w on the hardware of p: per resource,
// the operations times the resource's per-operation cost plus the amount
// over its rate. A resource without a rate costs only its operations.
func Model(p NodeProfile, w Work) Times {
	var t Times
	for r, u := range w {
		lat, rate := p.cost(Resource(r))
		t[r] = time.Duration(max(u.Ops, 0)) * lat
		if rate > 0 && u.Amount > 0 {
			t[r] += seconds(u.Amount / rate)
		}
	}
	return t
}

// cost returns r's fixed cost per operation and its rate per second.
func (p NodeProfile) cost(r Resource) (time.Duration, float64) {
	switch r {
	case ResGPU:
		return p.GPU.KernelLaunch, p.GPU.FLOPS
	case ResHBM:
		return p.GPU.KernelLaunch, p.GPU.HBMBandwidthBytesPerSec
	case ResNVLink:
		return p.NVLink.Latency, p.NVLink.BandwidthBytesPerSec
	case ResPCIe:
		return p.PCIe.Latency, p.PCIe.BandwidthBytesPerSec
	case ResRDMA:
		return p.RDMA.Latency, p.RDMA.BandwidthBytesPerSec
	case ResNetwork:
		return p.Ethernet.Latency, p.Ethernet.BandwidthBytesPerSec
	case ResSSDRead:
		return p.SSD.ReadLatency, p.SSD.ReadBandwidthBytesPerSec
	case ResSSDWrite:
		return p.SSD.WriteLatency, p.SSD.WriteBandwidthBytesPerSec
	case ResHDFS:
		return p.HDFS.OpenLatency, p.HDFS.StreamBandwidthBytesPerSec
	default:
		return 0, p.CPU.FLOPS
	}
}

// seconds converts seconds to a time.Duration, saturating rather than
// overflowing for absurd inputs.
func seconds(s float64) time.Duration {
	const maxSeconds = float64(1<<62) / float64(time.Second)
	if s > maxSeconds {
		return time.Duration(1 << 62)
	}
	return time.Duration(s * float64(time.Second))
}

// Link models a point-to-point communication channel with fixed per-message
// latency and finite bandwidth.
type Link struct {
	// Name identifies the link type in reports (e.g. "nvlink").
	Name string
	// BandwidthBytesPerSec is the sustained bandwidth of the link.
	BandwidthBytesPerSec float64
	// Latency is the fixed per-transfer setup cost.
	Latency time.Duration
}

// GPU models a single GPU device: compute throughput, HBM capacity and
// bandwidth, and a fixed kernel-launch overhead.
type GPU struct {
	// HBMBytes is the device memory capacity.
	HBMBytes int64
	// FLOPS is the sustained single-precision throughput used for dense math.
	FLOPS float64
	// HBMBandwidthBytesPerSec is the device memory bandwidth used for
	// working-set and embedding traffic.
	HBMBandwidthBytesPerSec float64
	// KernelLaunch is the fixed overhead per kernel launch.
	KernelLaunch time.Duration
}

// CPU models the aggregate compute capability of a node's CPUs.
type CPU struct {
	// Cores is the number of physical cores.
	Cores int
	// FLOPS is the sustained single-precision throughput of the whole socket set.
	FLOPS float64
}

// SSD models an NVMe SSD (or RAID-0 array) with block-granular access.
type SSD struct {
	// ReadBandwidthBytesPerSec is the sequential read bandwidth.
	ReadBandwidthBytesPerSec float64
	// WriteBandwidthBytesPerSec is the sequential write bandwidth.
	WriteBandwidthBytesPerSec float64
	// ReadLatency is the per-operation read latency.
	ReadLatency time.Duration
	// WriteLatency is the per-operation write latency.
	WriteLatency time.Duration
	// BlockBytes is the I/O granularity; reads and writes are rounded up to
	// whole blocks (the source of I/O amplification discussed in Section 1).
	BlockBytes int64
	// CapacityBytes is the usable capacity of the device.
	CapacityBytes int64
}

// Physical rounds n bytes up to a whole number of blocks: what a transfer of
// n bytes occupies on the device.
func (s SSD) Physical(n int64) int64 {
	if n <= 0 {
		return 0
	}
	if s.BlockBytes <= 0 {
		return n
	}
	blocks := (n + s.BlockBytes - 1) / s.BlockBytes
	return blocks * s.BlockBytes
}

// HDFS models the distributed file system from which training batches are
// streamed.
type HDFS struct {
	// StreamBandwidthBytesPerSec is the per-node sustained streaming bandwidth.
	StreamBandwidthBytesPerSec float64
	// OpenLatency is the fixed latency to begin streaming a batch.
	OpenLatency time.Duration
}

// NodeProfile describes the hardware of a single GPU computing node.
type NodeProfile struct {
	// GPUsPerNode is the number of GPUs installed in the node.
	GPUsPerNode int
	// GPU describes each installed GPU.
	GPU GPU
	// CPU describes the node's CPUs.
	CPU CPU
	// MainMemoryBytes is the CPU main-memory capacity available to MEM-PS.
	MainMemoryBytes int64
	// NVLink connects GPUs within the node.
	NVLink Link
	// PCIe connects CPUs and GPUs.
	PCIe Link
	// RDMA connects GPUs across nodes (RoCE).
	RDMA Link
	// Ethernet connects CPUs across nodes (MEM-PS remote pulls, MPI traffic).
	Ethernet Link
	// SSD is the local NVMe array backing SSD-PS.
	SSD SSD
	// HDFS is the training-data stream.
	HDFS HDFS
}

const (
	kib = 1 << 10
	mib = 1 << 20
	gib = 1 << 30
	tib = 1 << 40
)

// DefaultGPUNode returns a profile matching the paper's GPU node:
// 8x 32 GB HBM GPUs, 48-core CPUs, ~1 TB memory, ~20 TB NVMe RAID-0,
// 100 Gb RDMA, NVLink-connected GPUs.
func DefaultGPUNode() NodeProfile {
	return NodeProfile{
		GPUsPerNode: 8,
		GPU: GPU{
			HBMBytes:                32 * gib,
			FLOPS:                   14e12, // ~V100 SP sustained
			HBMBandwidthBytesPerSec: 800e9,
			KernelLaunch:            5 * time.Microsecond,
		},
		CPU: CPU{
			Cores: 48,
			FLOPS: 1.5e12,
		},
		MainMemoryBytes: 1 * tib,
		NVLink: Link{
			Name:                 "nvlink",
			BandwidthBytesPerSec: 150e9,
			Latency:              2 * time.Microsecond,
		},
		PCIe: Link{
			Name:                 "pcie",
			BandwidthBytesPerSec: 12e9,
			Latency:              5 * time.Microsecond,
		},
		RDMA: Link{
			Name:                 "rdma",
			BandwidthBytesPerSec: 11e9, // ~100 Gb/s usable
			Latency:              8 * time.Microsecond,
		},
		Ethernet: Link{
			Name:                 "ethernet",
			BandwidthBytesPerSec: 10e9,
			Latency:              30 * time.Microsecond,
		},
		SSD: SSD{
			ReadBandwidthBytesPerSec:  6 * gib,
			WriteBandwidthBytesPerSec: 4 * gib,
			ReadLatency:               90 * time.Microsecond,
			WriteLatency:              25 * time.Microsecond,
			BlockBytes:                4 * kib,
			CapacityBytes:             20 * tib,
		},
		HDFS: HDFS{
			StreamBandwidthBytesPerSec: 1.2 * gib,
			OpenLatency:                2 * time.Millisecond,
		},
	}
}

// DefaultMPINode returns a profile for a CPU-only node in the baseline MPI
// cluster. Its CPU matches the GPU node's CPU (the paper states they have
// similar specifications); it has no GPUs and no local SSD-PS.
func DefaultMPINode() NodeProfile {
	p := DefaultGPUNode()
	p.GPUsPerNode = 0
	p.GPU = GPU{}
	p.MainMemoryBytes = 256 * gib
	p.SSD = SSD{}
	return p
}

// CostGPUNodesPerMPINode is the hardware and maintenance cost ratio stated in
// Section 7: one GPU node costs roughly as much as ten CPU-only MPI nodes.
const CostGPUNodesPerMPINode = 10.0
