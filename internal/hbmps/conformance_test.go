package hbmps_test

import (
	"testing"

	"hps/internal/embedding"
	"hps/internal/hbmps"
	"hps/internal/hw"
	"hps/internal/keys"
	"hps/internal/optimizer"
	"hps/internal/ps"
	"hps/internal/ps/conformance"
)

// TestCollectAgrees is the conformance check for delta collection:
// CollectBlock must report exactly the keys and bit-identical
// weight/accumulator/frequency deltas of an independent reference computed
// from the tier's own PullInto — including the changed-key filter (untouched
// parameters absent, frequency-only changes present).
func TestCollectAgrees(t *testing.T) {
	const dim = 8
	const n = 96
	clock := hw.NewCounter()
	h, err := hbmps.New(hbmps.Config{
		NumGPUs:    2,
		Dim:        dim,
		GPUProfile: hw.DefaultGPUNode().GPU,
		Clock:      clock,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Load a sorted working-set block so collection order is deterministic.
	ks := make([]keys.Key, n)
	for i := range ks {
		ks[i] = keys.Key(i*3 + 1)
	}
	loadBlk := ps.NewValueBlock(dim)
	loadBlk.Reset(dim, ks)
	for i := range ks {
		v := embedding.NewValue(dim)
		for j := range v.Weights {
			v.Weights[j] = float32(i) + float32(j)*0.25
			v.G2Sum[j] = 0.1 * float32(j+1)
		}
		v.Freq = uint32(i)
		loadBlk.Set(i, v)
	}
	if err := h.LoadBlock(loadBlk); err != nil {
		t.Fatal(err)
	}
	orig := ps.NewValueBlock(dim)
	orig.CopyFrom(loadBlk)

	// Mutate a third of the keys through the optimizer, bump only the
	// frequency of another third, and leave the rest untouched.
	opt := optimizer.Adagrad{LR: 0.05, InitialAccumulator: 0.1}
	grad := make([]float32, dim)
	grad[0], grad[dim-1] = 0.5, -0.25
	work := ps.NewValueBlock(dim)
	if err := h.PullInto(ps.PullRequest{Shard: 0, Keys: ks[:n/3]}, work); err != nil {
		t.Fatal(err)
	}
	before := ps.NewValueBlock(dim)
	before.CopyFrom(work)
	for i := range work.Keys {
		opt.ApplySparse(work.WeightsRow(i), work.G2Row(i), grad)
		work.Freq[i]++
	}
	if err := h.CommitBlock(0, before, work); err != nil {
		t.Fatal(err)
	}
	freqOnly := ps.NewValueBlock(dim)
	zero := make([]float32, dim)
	for i := n / 3; i < 2*n/3; i++ {
		freqOnly.AppendRow(ks[i], zero, zero, 2) // frequency-only delta
	}
	if err := h.PushBlock(ps.PushBlockRequest{Shard: ps.NoShard, Block: freqOnly}); err != nil {
		t.Fatal(err)
	}

	// Independent reference: current values straight from the tier, minus the
	// loaded ones, keeping only non-zero deltas.
	cur := ps.NewValueBlock(dim)
	if err := h.PullInto(ps.PullRequest{Shard: 0, Keys: ks}, cur); err != nil {
		t.Fatal(err)
	}
	want := make(map[keys.Key]*embedding.Value)
	for i, k := range ks {
		d := embedding.NewValue(dim)
		changed := false
		for j := range d.Weights {
			d.Weights[j] = cur.WeightsRow(i)[j] - orig.WeightsRow(i)[j]
			d.G2Sum[j] = cur.G2Row(i)[j] - orig.G2Row(i)[j]
			if d.Weights[j] != 0 || d.G2Sum[j] != 0 {
				changed = true
			}
		}
		d.Freq = cur.Freq[i] - orig.Freq[i]
		if changed || d.Freq != 0 {
			want[k] = d
		}
	}
	if len(want) != 2*(n/3) {
		t.Fatalf("reference expects %d changed keys, want %d", len(want), 2*(n/3))
	}

	blk := ps.NewValueBlock(dim)
	h.CollectBlock(blk)
	if blk.Len() != len(want) {
		t.Fatalf("CollectBlock returned %d rows, want %d", blk.Len(), len(want))
	}
	if !keys.SortedUnique(blk.Keys) {
		t.Fatalf("CollectBlock rows not in sorted working-set order: %v", blk.Keys)
	}
	for i, k := range blk.Keys {
		ref := want[k]
		if ref == nil {
			t.Fatalf("CollectBlock reported unchanged key %d", k)
		}
		if !blk.Present[i] {
			t.Fatalf("collected row %d (key %d) absent", i, k)
		}
		if blk.Freq[i] != ref.Freq {
			t.Fatalf("key %d freq delta = %d, want %d", k, blk.Freq[i], ref.Freq)
		}
		for j := range ref.Weights {
			if blk.WeightsRow(i)[j] != ref.Weights[j] || blk.G2Row(i)[j] != ref.G2Sum[j] {
				t.Fatalf("key %d delta row differs from reference at element %d", k, j)
			}
		}
	}
}

// TestTierConformance runs the shared ps.Tier suite against the HBM-PS: the
// top tier, which only ever holds the loaded working set — pulling a key
// outside it is a bug, and deltas for absent keys are ignored because the
// authoritative copies live in the tiers below.
func TestTierConformance(t *testing.T) {
	const dim = 8
	conformance.Run(t, conformance.Harness{
		Dim:               dim,
		Shard:             0, // requests come from GPU 0's worker
		PullMissingErrors: true,
		Concurrent:        true,
		New: func(t *testing.T, ks []keys.Key) ps.Tier {
			h, err := hbmps.New(hbmps.Config{
				NumGPUs:    2,
				Dim:        dim,
				GPUProfile: hw.DefaultGPUNode().GPU,
				Clock:      hw.NewCounter(),
			})
			if err != nil {
				t.Fatal(err)
			}
			ws := ps.NewValueBlock(dim)
			ws.Reset(dim, ks)
			for i := range ks {
				v := embedding.NewValue(dim)
				v.Weights[0] = float32(i + 1)
				ws.Set(i, v)
			}
			if err := h.LoadBlock(ws); err != nil {
				t.Fatal(err)
			}
			return h
		},
	})
}
