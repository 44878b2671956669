package serving_test

import (
	"reflect"
	"testing"

	"hps/internal/cluster"
	"hps/internal/keys"
	"hps/internal/ps"
	"hps/internal/serving"
)

// TestCloseKeepsAckedPushesForRestore is the graceful shutdown `hps serve`
// promises on SIGTERM: what a shard acked survives Close into a restart over
// the same directory. Every pushed value comes back bit for bit from the
// restored SSD-PS, and the compacted seq log still holds the pushes' dedup
// stamps, so a retry of one that was already applied is acked, not applied a
// second time.
func TestCloseKeepsAckedPushesForRestore(t *testing.T) {
	// A cache far smaller than the key set: the pushes dump rows to the
	// SSD-PS on the way, and Close flushes the rest.
	cfg := serving.ShardConfig{Topology: cluster.Topology{Nodes: 1, GPUsPerNode: 1}, Dim: fakeDim,
		Hidden: []int{8}, Dir: t.TempDir(), Restore: true, LRUEntries: 16, LFUEntries: 16, Seed: 3}
	first := openShard(t, cfg)
	tr := cluster.NewTCPTransport(map[int]string{0: first.TCP.Addr()}, fakeDim)
	defer tr.Close()

	ks := make([]keys.Key, 200)
	for i := range ks {
		ks[i] = keys.Key(i + 1)
	}
	if _, err := tr.PullBlock(0, ks, ps.NewValueBlock(fakeDim)); err != nil { // first references create the rows
		t.Fatal(err)
	}
	var client, seq uint64
	push := ps.NewValueBlock(fakeDim)
	for round := 0; round < 3; round++ {
		push.Reset(fakeDim, ks)
		for i := range ks {
			push.Present[i] = true
			push.Freq[i] = 1
			for d := range push.WeightsRow(i) {
				push.WeightsRow(i)[d] = float32(round+d)/8 - float32(i%5)/16
			}
			push.G2Row(i)[0] = float32(round) / 4
		}
		client, seq = tr.Stamp()
		if _, err := tr.PushBlockStamped(0, client, seq, push); err != nil {
			t.Fatal(err)
		}
	}
	lookup := func() *ps.ValueBlock {
		t.Helper()
		blk := ps.NewValueBlock(fakeDim)
		if _, err := tr.Lookup(0, ks, blk); err != nil {
			t.Fatal(err)
		}
		return blk
	}
	want := lookup()
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second := openShard(t, cfg)
	if second.Replayed == 0 {
		t.Fatal("the restarted shard replayed no applied-push record")
	}
	tr.SetAddr(0, second.TCP.Addr())
	// The retry of the last push, as a client whose ack was lost would send it.
	if _, err := tr.PushBlockStamped(0, client, seq, push); err != nil {
		t.Fatal(err)
	}
	got := lookup()
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"present", got.Present, want.Present},
		{"weights", got.Weights, want.Weights},
		{"g2sum", got.G2Sum, want.G2Sum},
		{"freq", got.Freq, want.Freq},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("after the restart and the retried push, %s differ from the acked values", f.name)
		}
	}
	if st := second.Mem.TierStats(); st.Pushes != 0 {
		t.Fatalf("the retry of an applied push was applied again (%d pushes)", st.Pushes)
	}
}
