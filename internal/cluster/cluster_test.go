package cluster

import (
	"errors"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hps/internal/embedding"
	"hps/internal/keys"
	"hps/internal/ps"
)

// PushBlock pushes blk's delta rows to node nodeID under a fresh dedup stamp,
// as the trainer's push does through Stamp and PushBlockStamped.
func (t *TCPTransport) PushBlock(nodeID int, blk *ps.ValueBlock) (int64, error) {
	client, seq := t.Stamp()
	return t.PushBlockStamped(nodeID, client, seq, blk)
}

// setRow copies v into row i of b and marks it present.
func setRow(b *ps.ValueBlock, i int, v *embedding.Value) {
	copy(b.WeightsRow(i), v.Weights)
	copy(b.G2Row(i), v.G2Sum)
	b.Freq[i] = v.Freq
	b.Present[i] = true
}

func TestTopologyValidate(t *testing.T) {
	if err := (Topology{Nodes: 4, GPUsPerNode: 8}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Topology{Nodes: 0, GPUsPerNode: 8}).Validate(); err == nil {
		t.Fatal("zero nodes should fail")
	}
	if err := (Topology{Nodes: 1, GPUsPerNode: 0}).Validate(); err == nil {
		t.Fatal("zero GPUs should fail")
	}
	if (Topology{Nodes: 4, GPUsPerNode: 8}).TotalGPUs() != 32 {
		t.Fatal("TotalGPUs wrong")
	}
}

func TestTopologySharding(t *testing.T) {
	topo := Topology{Nodes: 4, GPUsPerNode: 8}
	ks := make([]keys.Key, 1000)
	for i := range ks {
		ks[i] = keys.Key(keys.Mix64(uint64(i)))
	}
	byNode := topo.SplitByNode(ks)
	if len(byNode) != 4 {
		t.Fatal("SplitByNode length")
	}
	total := 0
	for node, part := range byNode {
		total += len(part)
		for _, k := range part {
			if topo.NodeOf(k) != node {
				t.Fatal("key assigned to wrong node")
			}
		}
	}
	if total != len(ks) {
		t.Fatal("SplitByNode lost keys")
	}
}

func TestTopologyShardingProperty(t *testing.T) {
	topo := Topology{Nodes: 3, GPUsPerNode: 4}
	f := func(raw uint64) bool {
		k := keys.Key(raw)
		n := topo.NodeOf(k)
		g := k.HashShard(topo.GPUsPerNode)
		return n >= 0 && n < 3 && g >= 0 && g < 4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// stubShard refuses every op of Shard; the test shards embed it and
// implement the ops they serve.
type stubShard struct{}

var errNotServed = errors.New("op not served by this test shard")

func (stubShard) HandlePullBlockWire([]keys.Key, []byte) ([]byte, error) { return nil, errNotServed }
func (stubShard) HandleLookupBlock([]keys.Key, *ps.ValueBlock) error     { return errNotServed }
func (stubShard) HandlePushBlockStamped(uint64, uint64, *ps.ValueBlock) error {
	return errNotServed
}
func (stubShard) HandleReplicate(*ps.ValueBlock) error            { return errNotServed }
func (stubShard) HandleTransfer(*ps.ValueBlock) (int, error)      { return 0, errNotServed }
func (stubShard) Evict([]keys.Key) (int, error)                   { return 0, errNotServed }
func (stubShard) Name() string                                    { return "stub" }
func (stubShard) TierStats() ps.Stats                             { return ps.Stats{} }
func (stubShard) HandleMembership(MembershipUpdate) error         { return errNotServed }
func (stubShard) HandlePredict(PredictRequest) ([]float32, error) { return nil, errNotServed }
func (stubShard) HandleServeConfig(ServeConfig) error             { return errNotServed }
func (stubShard) ServingStats() ServingStats                      { return ServingStats{} }

// wirePull is HandlePullBlockWire over a PullHandler: h's rows for ks,
// encoded from a staged block.
func wirePull(h PullHandler, ks []keys.Key, dst []byte) ([]byte, error) {
	blk := ps.GetBlock(0, nil)
	defer ps.PutBlock(blk)
	if err := h.HandlePullBlock(ks, blk); err != nil {
		return nil, err
	}
	return blk.AppendWire(dst), nil
}

// serve starts a TCPServer for shard with a fresh seq tracker.
func serve(t testing.TB, shard Shard) *TCPServer {
	t.Helper()
	srv, err := ServeTCP("127.0.0.1:0", shard, NewSeqTracker())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// mapHandler is a pull-serving shard backed by a plain map for tests. A key
// is created on first reference with weight 0 equal to the key.
type mapHandler struct {
	stubShard
	mu   sync.Mutex
	dim  int
	vals map[keys.Key]*embedding.Value
	err  error
}

func newMapHandler(dim int) *mapHandler {
	return &mapHandler{dim: dim, vals: make(map[keys.Key]*embedding.Value)}
}

// value returns k's value, creating it on first reference. The caller holds
// h.mu.
func (h *mapHandler) value(k keys.Key) *embedding.Value {
	v, ok := h.vals[k]
	if !ok {
		v = embedding.NewValue(h.dim)
		v.Weights[0] = float32(k)
		h.vals[k] = v
	}
	return v
}

func (h *mapHandler) HandlePullBlock(ks []keys.Key, dst *ps.ValueBlock) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.err != nil {
		return h.err
	}
	dst.Reset(h.dim, ks)
	for i, k := range ks {
		setRow(dst, i, h.value(k))
	}
	return nil
}

func (h *mapHandler) HandlePullBlockWire(ks []keys.Key, dst []byte) ([]byte, error) {
	return wirePull(h, ks, dst)
}

// pull pulls ks from node into a fresh block (row i is ks[i]).
func pull(tr Transport, node int, ks []keys.Key) (*ps.ValueBlock, int64, error) {
	blk := ps.NewValueBlock(0)
	bytes, err := tr.PullBlock(node, ks, blk)
	return blk, bytes, err
}

func TestLocalTransport(t *testing.T) {
	tr := NewLocalTransport(4)
	h0 := newMapHandler(4)
	h1 := newMapHandler(4)
	tr.Register(0, h0)
	tr.Register(1, h1)
	if len(tr.Nodes()) != 2 {
		t.Fatal("Nodes wrong")
	}
	res, bytes, err := pull(tr, 1, []keys.Key{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.PresentCount() != 2 || res.WeightsRow(0)[0] != 10 {
		t.Fatalf("pull result = %+v", res)
	}
	if want := int64(2*8 + 2*(4+8*4)); bytes != want {
		t.Fatalf("payload bytes = %d, want %d", bytes, want)
	}
	if _, _, err := pull(tr, 9, []keys.Key{1}); err == nil {
		t.Fatal("pull from unregistered node should fail")
	}
	h1.err = errors.New("backend broken")
	if _, _, err := pull(tr, 1, []keys.Key{1}); err == nil {
		t.Fatal("handler error should propagate")
	}
}

// TestPayloadBytes pins the payload a lookup counts: 8 bytes per requested
// key, plus a frequency and two fp32 arrays per present row.
func TestPayloadBytes(t *testing.T) {
	lt := NewLocalTransport(opsDim)
	lt.Register(0, newOpsHandler())
	blk := ps.NewValueBlock(opsDim)
	if _, err := lt.PullBlock(0, []keys.Key{1, 2}, blk); err != nil { // creates 1 and 2
		t.Fatal(err)
	}
	got, err := lt.Lookup(0, []keys.Key{1, 2, 3}, blk)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(3*8 + 2*(4+8*opsDim))
	if got != want {
		t.Fatalf("lookup payload = %d, want %d", got, want)
	}
}

// TestWireCoversPayload: over loopback, the payload a TCPTransport counts is
// model data its frames carry, so after pulls, lookups and pushes the socket
// bytes are at least the payload, and one pulled row costs its key once plus
// its frequency and two fp32 arrays.
func TestWireCoversPayload(t *testing.T) {
	srv := serve(t, newOpsHandler())
	tr := NewTCPTransport(map[int]string{0: srv.Addr()}, opsDim)
	defer tr.Close()
	blk := ps.NewValueBlock(opsDim)
	one, err := tr.PullBlock(0, []keys.Key{1}, blk)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(8 + 4 + 8*opsDim); one != want {
		t.Fatalf("one pulled row's payload = %d B, want %d", one, want)
	}
	total := one
	calls := []func() (int64, error){
		func() (int64, error) { return tr.PullBlock(0, []keys.Key{2, 3, 4}, blk) },
		func() (int64, error) { return tr.Lookup(0, []keys.Key{1, 2, 99}, blk) }, // 99 is absent
		func() (int64, error) { return tr.PushBlock(0, opsBlock([]keys.Key{1, 3}, 0.5)) },
	}
	for i, call := range calls {
		n, err := call()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		total += n
	}
	st := tr.Stats()
	if st.BytesOut+st.BytesIn != total {
		t.Fatalf("stats count %d+%d payload bytes, the calls returned %d", st.BytesOut, st.BytesIn, total)
	}
	if st.WireOut+st.WireIn < st.BytesOut+st.BytesIn {
		t.Fatalf("wire %d+%d B is less than the payload %d+%d B", st.WireOut, st.WireIn, st.BytesOut, st.BytesIn)
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	srv := serve(t, newMapHandler(4))
	tr := NewTCPTransport(map[int]string{1: srv.Addr()}, 4)
	defer tr.Close()

	res, bytes, err := pull(tr, 1, []keys.Key{7, 8, 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.PresentCount() != 3 {
		t.Fatalf("pull returned %d values", res.PresentCount())
	}
	if res.WeightsRow(0)[0] != 7 {
		t.Fatal("value payload corrupted over TCP")
	}
	if bytes <= 0 {
		t.Fatal("payload bytes should be positive")
	}
	// Second pull reuses the connection.
	if _, _, err := pull(tr, 1, []keys.Key{100}); err != nil {
		t.Fatal(err)
	}
	// An empty request is an empty reply, not an error.
	if res, _, err := pull(tr, 1, nil); err != nil || res.Len() != 0 {
		t.Fatalf("empty pull = %d rows, %v", res.Len(), err)
	}
	// Unknown node fails.
	if _, _, err := pull(tr, 42, []keys.Key{1}); err == nil {
		t.Fatal("unknown node should fail")
	}
}

func TestTCPTransportConcurrentPulls(t *testing.T) {
	srv := serve(t, newMapHandler(2))
	tr := NewTCPTransport(map[int]string{0: srv.Addr()}, 2)
	defer tr.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := keys.Key(seed*100 + i)
				res, _, err := pull(tr, 0, []keys.Key{k})
				if err != nil {
					errs <- err
					return
				}
				if res.WeightsRow(0)[0] != float32(k) {
					errs <- errors.New("wrong value")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// wireHandler wraps mapHandler with a pull that encodes rows straight into
// the frame buffer and counts its calls.
type wireHandler struct {
	*mapHandler
	calls int
	fail  bool
}

func (h *wireHandler) HandlePullBlockWire(ks []keys.Key, dst []byte) ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.calls++
	if h.fail {
		return dst, errors.New("wire handler broken")
	}
	dst = ps.AppendWireHeader(dst, h.dim, len(ks))
	for _, k := range ks {
		v := h.value(k)
		dst = ps.AppendWireRow(dst, true, v.Freq, v.Weights, v.G2Sum)
	}
	return dst, nil
}

// TestTCPPullBlockPrefersWireHandler asserts the server serves pull-block
// RPCs through the shard's HandlePullBlockWire, and that the frames it
// produces decode into the rows the shard holds.
func TestTCPPullBlockPrefersWireHandler(t *testing.T) {
	h := &wireHandler{mapHandler: newMapHandler(4)}
	srv := serve(t, h)
	tr := NewTCPTransport(map[int]string{0: srv.Addr()}, 4)
	defer tr.Close()

	ks := []keys.Key{5, 6, 7}
	blk := ps.NewValueBlock(4)
	if _, err := tr.PullBlock(0, ks, blk); err != nil {
		t.Fatal(err)
	}
	if h.calls == 0 {
		t.Fatal("server did not use the wire handler")
	}
	if blk.Len() != 3 || blk.PresentCount() != 3 || blk.WeightsRow(1)[0] != 6 {
		t.Fatalf("wire-served block = keys %v present %v w %v", blk.Keys, blk.Present, blk.Weights)
	}

	// A wire-handler error surfaces like any handler error, and the
	// connection stays usable afterwards.
	h.mu.Lock()
	h.fail = true
	h.mu.Unlock()
	if _, err := tr.PullBlock(0, ks, blk); err == nil {
		t.Fatal("wire handler error should surface at the client")
	}
	h.mu.Lock()
	h.fail = false
	h.mu.Unlock()
	if _, err := tr.PullBlock(0, ks, blk); err != nil {
		t.Fatal(err)
	}
}

func TestTCPServerHandlerError(t *testing.T) {
	h := newMapHandler(2)
	h.err = errors.New("storage offline")
	srv := serve(t, h)
	tr := NewTCPTransport(map[int]string{0: srv.Addr()}, 2)
	defer tr.Close()
	if _, _, err := pull(tr, 0, []keys.Key{1}); err == nil {
		t.Fatal("handler error should surface at the client")
	}
}

// TestRPCDeadlineSurfacesStalledShard covers the ROADMAP-flagged hang: a
// shard that accepts the connection (and even reads the request) but never
// answers must fail the RPC within the per-RPC deadline as a retryable
// TransportError, not block it forever.
func TestRPCDeadlineSurfacesStalledShard(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				// Drain whatever arrives, answer nothing: alive, stalled.
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}(conn)
		}
	}()

	tr := NewTCPTransport(map[int]string{0: ln.Addr().String()}, 2)
	defer tr.Close()
	tr.SetRetryPolicy(RetryPolicy{Attempts: 2, Backoff: time.Millisecond, RPCTimeout: 50 * time.Millisecond})

	start := time.Now()
	_, _, err = pull(tr, 0, []keys.Key{1})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("pull against a stalled shard must fail")
	}
	if !Retryable(err) {
		t.Fatalf("stall must surface as a retryable TransportError, got %T: %v", err, err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline did not bound the stall: took %v", elapsed)
	}
	if st := tr.Stats(); st.Retries == 0 {
		t.Fatalf("expected the stalled RPC to be retried, stats = %+v", st)
	}
}

// TestRPCDeadlineDefaultsApplied asserts the zero-value policy fields resolve
// to the bounded defaults (a stalled shard must never hang by default) and
// that negative values opt out.
func TestRPCDeadlineDefaultsApplied(t *testing.T) {
	var p RetryPolicy
	if p.dial() != DefaultDialTimeout || p.rpc() != DefaultRPCTimeout {
		t.Fatalf("zero policy deadlines = %v/%v, want defaults", p.dial(), p.rpc())
	}
	p = RetryPolicy{DialTimeout: -1, RPCTimeout: -1}
	if p.dial() != 0 || p.rpc() != 0 {
		t.Fatalf("negative policy deadlines = %v/%v, want unbounded", p.dial(), p.rpc())
	}
}

func TestTCPServerCloseIdempotent(t *testing.T) {
	srv := serve(t, newMapHandler(2))
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("double close should be fine")
	}
}

func TestServeTCPValidation(t *testing.T) {
	if _, err := ServeTCP("127.0.0.1:0", nil, NewSeqTracker()); err == nil {
		t.Fatal("nil handler should fail")
	}
	if _, err := ServeTCP("127.0.0.1:0", newMapHandler(2), nil); err == nil {
		t.Fatal("nil seq tracker should fail")
	}
	if _, err := ServeTCP("999.999.999.999:99999", newMapHandler(2), NewSeqTracker()); err == nil {
		t.Fatal("bad address should fail")
	}
}

// TestRedialsCountOnlyReconnects pins the meaning of TransportStats.Redials
// on the one-connection-per-peer transport: a peer's first connection is a
// dial, not a reconnect, and RPCs reuse it without dialing again; a
// connection that replaces one the transport dropped is a redial, and so is
// the replacement of the connection SetAddr dropped. A drop of one peer's
// connection makes no other peer's first dial a redial.
func TestRedialsCountOnlyReconnects(t *testing.T) {
	addrs := map[int]string{}
	for id := 0; id < 2; id++ {
		addrs[id] = serve(t, newMapHandler(2)).Addr()
	}
	tr := NewTCPTransport(addrs, 2)
	defer tr.Close()

	pullFrom := func(node int) {
		t.Helper()
		for k := keys.Key(1); k <= 4; k++ {
			if _, _, err := pull(tr, node, []keys.Key{k}); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(what string, dials, redials int64) {
		t.Helper()
		if st := tr.Stats(); st.Dials != dials || st.Redials != redials {
			t.Fatalf("%s: %d dials, %d redials; want %d and %d", what, st.Dials, st.Redials, dials, redials)
		}
	}

	pullFrom(0)
	check("one peer's connection, reused", 1, 0)

	c, err := tr.acquireConn(0, tr.retry)
	if err != nil {
		t.Fatal(err)
	}
	tr.dropConn(0, c)
	c.mu.Unlock()
	pullFrom(1)
	check("another peer's first connection", 2, 0)
	pullFrom(0)
	check("the dropped connection replaced", 3, 1)

	tr.SetAddr(0, addrs[0])
	pullFrom(0)
	check("a repointed peer's connection replaced", 4, 2)
}

// TestOverflowConnsAreClosed covers the concurrent-first-dial path: when
// several first RPCs to a peer dial at once, one connection is published and
// the surplus ones serve their one RPC unpublished — and must then be closed,
// or each would pin a socket and a server goroutine until a finalizer ran.
func TestOverflowConnsAreClosed(t *testing.T) {
	srv := serve(t, newMapHandler(2))
	tr := NewTCPTransport(map[int]string{0: srv.Addr()}, 2)
	defer tr.Close()

	const callers = 16
	start := make(chan struct{})
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func(k keys.Key) {
			<-start
			_, _, err := pull(tr, 0, []keys.Key{k})
			errs <- err
		}(keys.Key(i + 1))
	}
	close(start)
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	tracked := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.active)
	}
	// The server notices a client-side close asynchronously.
	deadline := time.Now().Add(2 * time.Second)
	for tracked() > 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := tracked(); n > 1 {
		t.Fatalf("server still tracks %d connections after %d concurrent first RPCs, want <= 1", n, callers)
	}
	if st := tr.Stats(); st.Dials != 1 || st.Redials != 0 {
		t.Fatalf("%d concurrent first RPCs counted %d dials, %d redials; want 1 and 0", callers, st.Dials, st.Redials)
	}
}
