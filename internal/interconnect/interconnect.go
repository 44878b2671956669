// Package interconnect counts the work of the cluster's communication fabric
// — NVLink between GPUs of a node, PCIe between CPUs and GPUs, RDMA (RoCE)
// between GPUs of different nodes, and Ethernet between CPUs — and lays out
// the hierarchical all-reduce used to synchronize parameters across all GPUs
// after every mini-batch (Section 4.2, Appendix C.3).
//
// Data actually moves between in-process buffers (the simulated GPUs share an
// address space); the fabric only counts the transfers, per link, as hw.Work,
// and hw.Model prices them.
package interconnect

import (
	"math"
	"time"

	"hps/internal/hw"
)

// Fabric counts link transfers into a shared counter. It is safe for
// concurrent use, and a nil *Fabric counts nothing.
type Fabric struct {
	counter *hw.Counter
}

// NewFabric returns a fabric counting into c, which may be nil. The profile
// is not read — hw.Model prices the links — and is kept for the benchmark's
// layer probe, which still passes one.
func NewFabric(_ hw.NodeProfile, c *hw.Counter) *Fabric {
	return &Fabric{counter: c}
}

// Transfer counts one transfer of n bytes over link (hw.ResNVLink, ResPCIe,
// ResRDMA or ResNetwork) and returns its work.
func (f *Fabric) Transfer(link hw.Resource, n int64) hw.Work {
	w := hw.Ops(link, 1, float64(max(n, 0)))
	if f != nil {
		f.counter.Add(w)
	}
	return w
}

// AllReducePlan describes the communication rounds of the hierarchical
// all-reduce of Appendix C.3 for a cluster of nodes x gpusPerNode GPUs.
type AllReducePlan struct {
	// InterNodeSteps is the number of sequential pairwise inter-node exchange
	// rounds (log2 of the node count, rounded up).
	InterNodeSteps int
	// IntraNodeSteps is the number of sequential intra-node tree rounds
	// (log2 of the GPUs per node, rounded up).
	IntraNodeSteps int
}

// PlanAllReduce returns the round structure for the given cluster shape.
func PlanAllReduce(nodes, gpusPerNode int) AllReducePlan {
	return AllReducePlan{
		InterNodeSteps: ceilLog2(nodes),
		IntraNodeSteps: ceilLog2(gpusPerNode),
	}
}

func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

// AllReduceWork returns the work of synchronizing bytesPerGPU of parameter
// updates across the whole cluster: one transfer of bytesPerGPU per round,
// the inter-node rounds over RDMA and the intra-node rounds over NVLink,
// with every pair exchanging concurrently within a round ("most of the
// communications are paralleled"), so the rounds are the critical path.
func AllReduceWork(bytesPerGPU int64, nodes, gpusPerNode int) hw.Work {
	b := float64(max(bytesPerGPU, 0))
	plan := PlanAllReduce(nodes, gpusPerNode)
	w := hw.Ops(hw.ResRDMA, int64(plan.InterNodeSteps), float64(plan.InterNodeSteps)*b)
	w.Add(hw.Ops(hw.ResNVLink, int64(plan.IntraNodeSteps), float64(plan.IntraNodeSteps)*b))
	return w
}

// NaiveAllToAllTime returns the modelled time of the flat alternative in
// which every GPU sends its updates to every other GPU directly — the
// ablation baseline for the hierarchical scheme. Each GPU must serialize
// (nodes*gpusPerNode - 1) sends of bytesPerGPU, the inter-node ones over RDMA
// and the intra-node ones over NVLink.
func NaiveAllToAllTime(bytesPerGPU int64, nodes, gpusPerNode int, rdma, nvlink hw.Link) time.Duration {
	b := float64(max(bytesPerGPU, 0))
	nodes, gpusPerNode = max(nodes, 1), max(gpusPerNode, 1)
	remote := int64((nodes - 1) * gpusPerNode) // sends to GPUs on other nodes
	local := int64(gpusPerNode - 1)            // sends to sibling GPUs
	w := hw.Ops(hw.ResRDMA, remote, float64(remote)*b)
	w.Add(hw.Ops(hw.ResNVLink, local, float64(local)*b))
	return hw.Model(hw.NodeProfile{RDMA: rdma, NVLink: nvlink}, w).Sum()
}
