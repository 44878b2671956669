package cluster

import (
	"fmt"
	"testing"

	"hps/internal/keys"
	"hps/internal/ps"
)

// pushSink gives the wire fixture a block push path so a benchmark can drive
// full pull+push cycles; the deltas themselves are discarded — the benchmark
// measures the wire, not the apply.
type pushSink struct {
	*wireHandler
}

func (pushSink) HandlePushBlockStamped(uint64, uint64, *ps.ValueBlock) error { return nil }

// BenchmarkWireBytesPerBatch measures the bytes one batch-shaped block cycle
// actually puts on the socket: a 2048-key block pull plus a 2048-row push at
// dim 8 (BenchmarkStagePushMultiNode's per-shard shape). The wirebytes/op
// metric is the per-batch wire figure docs/ARCHITECTURE.md records; ns/op
// here includes loopback syscalls and is not a transport benchmark.
func BenchmarkWireBytesPerBatch(b *testing.B) {
	const (
		dim  = 8
		rows = 2048
	)
	ks := make([]keys.Key, rows)
	for i := range ks {
		ks[i] = keys.Key(keys.Mix64(uint64(i)))
	}
	ks = keys.Dedup(ks)

	srv := serve(b, pushSink{&wireHandler{mapHandler: newMapHandler(dim)}})
	tr := NewTCPTransport(map[int]string{0: srv.Addr()}, dim)
	defer tr.Close()

	dst := ps.NewValueBlock(dim)
	if _, err := tr.PullBlock(0, ks, dst); err != nil {
		b.Fatal(err)
	}
	push := ps.NewValueBlock(dim)
	push.CopyFrom(dst)

	before := tr.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.PullBlock(0, ks, dst); err != nil {
			b.Fatal(err)
		}
		if _, err := tr.PushBlock(0, push); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := tr.Stats()
	wire := (after.WireOut + after.WireIn) - (before.WireOut + before.WireIn)
	b.ReportMetric(float64(wire)/float64(b.N), "wirebytes/op")
}

// BenchmarkPlacement measures Topology.NodeOf per key — the per-key cost
// SplitByNode and the MEM-PS ownership checks pay — over rings of 1, 2 and 4
// members, the view-less topology included.
func BenchmarkPlacement(b *testing.B) {
	ks := make([]keys.Key, 8192)
	for i := range ks {
		ks[i] = keys.Key(keys.Mix64(uint64(i)))
	}
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			topo := Topology{Nodes: n, GPUsPerNode: 1}
			sum := 0
			for b.Loop() {
				for _, k := range ks {
					sum += topo.NodeOf(k)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ks)), "ns/key")
			placementSink = sum
		})
	}
}

var placementSink int
