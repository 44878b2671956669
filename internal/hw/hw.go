// Package hw defines hardware cost models for the simulated cluster.
//
// The paper's testbed (Section 7) consists of 4 GPU nodes, each with eight
// 32 GB-HBM GPUs connected by NVLink, ~1 TB of main memory, ~20 TB of NVMe
// SSD, a 100 Gb RDMA network adaptor, and of an MPI cluster of CPU-only
// nodes. This package encodes those components as bandwidth/latency/compute
// models so that higher layers can charge modelled time to a simtime.Clock.
//
// The default profiles are calibrated to the nominal numbers of the paper's
// hardware generation (V100-class GPUs, PCIe 3.0 x16, NVLink 2.0, 100 GbE,
// NVMe RAID-0). Absolute values only set the scale of reported times; the
// reproduced figures depend on the ratios between them.
package hw

import (
	"time"

	"hps/internal/simtime"
)

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

// TransferTime returns the modelled time to move n bytes across the link.
func (l Link) TransferTime(n int64) time.Duration {
	if n < 0 {
		n = 0
	}
	if l.BandwidthBytesPerSec <= 0 {
		return l.Latency
	}
	return l.Latency + simtime.Duration(float64(n)/l.BandwidthBytesPerSec)
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

// ComputeTime returns the modelled time to execute flops floating point
// operations on the device, including one kernel launch.
func (g GPU) ComputeTime(flops float64) time.Duration {
	if flops < 0 {
		flops = 0
	}
	if g.FLOPS <= 0 {
		return g.KernelLaunch
	}
	return g.KernelLaunch + simtime.Duration(flops/g.FLOPS)
}

// MemoryTime returns the modelled time to stream n bytes through HBM,
// including one kernel launch.
func (g GPU) MemoryTime(n int64) time.Duration {
	if n < 0 {
		n = 0
	}
	if g.HBMBandwidthBytesPerSec <= 0 {
		return g.KernelLaunch
	}
	return g.KernelLaunch + simtime.Duration(float64(n)/g.HBMBandwidthBytesPerSec)
}

// CPU models the aggregate compute capability of a node's CPUs.
type CPU struct {
	// Cores is the number of physical cores.
	Cores int
	// FLOPS is the sustained single-precision throughput of the whole socket set.
	FLOPS float64
}

// ComputeTime returns the modelled time to execute flops floating point
// operations using the full node.
func (c CPU) ComputeTime(flops float64) time.Duration {
	if flops < 0 {
		flops = 0
	}
	if c.FLOPS <= 0 {
		return 0
	}
	return simtime.Duration(flops / c.FLOPS)
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

// roundUpToBlock rounds n up to a whole number of blocks.
func (s SSD) roundUpToBlock(n int64) int64 {
	if n <= 0 {
		return 0
	}
	if s.BlockBytes <= 0 {
		return n
	}
	blocks := (n + s.BlockBytes - 1) / s.BlockBytes
	return blocks * s.BlockBytes
}

// ReadTime returns the modelled time for a single read of n logical bytes.
func (s SSD) ReadTime(n int64) time.Duration {
	eff := s.roundUpToBlock(n)
	if s.ReadBandwidthBytesPerSec <= 0 {
		return s.ReadLatency
	}
	return s.ReadLatency + simtime.Duration(float64(eff)/s.ReadBandwidthBytesPerSec)
}

// WriteTime returns the modelled time for a single write of n logical bytes.
func (s SSD) WriteTime(n int64) time.Duration {
	eff := s.roundUpToBlock(n)
	if s.WriteBandwidthBytesPerSec <= 0 {
		return s.WriteLatency
	}
	return s.WriteLatency + simtime.Duration(float64(eff)/s.WriteBandwidthBytesPerSec)
}

// HDFS models the distributed file system from which training batches are
// streamed.
type HDFS struct {
	// StreamBandwidthBytesPerSec is the per-node sustained streaming bandwidth.
	StreamBandwidthBytesPerSec float64
	// OpenLatency is the fixed latency to begin streaming a batch.
	OpenLatency time.Duration
}

// ReadTime returns the modelled time to stream n bytes from HDFS.
func (h HDFS) ReadTime(n int64) time.Duration {
	if n < 0 {
		n = 0
	}
	if h.StreamBandwidthBytesPerSec <= 0 {
		return h.OpenLatency
	}
	return h.OpenLatency + simtime.Duration(float64(n)/h.StreamBandwidthBytesPerSec)
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

// ScaledGPUNode returns the default GPU node profile with memory-capacity
// fields divided by factor. It is used to run the paper's terabyte-scale
// configurations at laptop scale while preserving capacity ratios
// (HBM : main memory : SSD), which is what determines eviction and caching
// behaviour.
func ScaledGPUNode(factor int64) NodeProfile {
	p := DefaultGPUNode()
	if factor <= 1 {
		return p
	}
	p.GPU.HBMBytes /= factor
	p.MainMemoryBytes /= factor
	p.SSD.CapacityBytes /= factor
	return p
}
