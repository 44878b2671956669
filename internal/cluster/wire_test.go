package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hps/internal/keys"
	"hps/internal/ps"
)

func TestFrameReaderRejectsBadFrames(t *testing.T) {
	read := func(b []byte) ([]byte, error) {
		r := bytes.NewReader(b)
		n, err := readFramePrefix(r)
		if err != nil {
			return nil, err
		}
		return readFramePayload(r, n, getScratch())
	}
	var frame bytes.Buffer
	if _, err := writeRawFrame(&frame, appendRawKeyReq([]byte{0, 0, 0, 0}, rawOpPullBlock, 0, []keys.Key{1})); err != nil {
		t.Fatal(err)
	}
	if payload, err := read(frame.Bytes()); err != nil || payload[0] != rawOpPullBlock {
		t.Fatalf("well-formed frame: payload %v, err %v", payload, err)
	}
	// Clean EOF between frames is io.EOF exactly.
	if _, err := read(nil); err != io.EOF {
		t.Fatalf("empty stream error = %v, want io.EOF", err)
	}
	for name, b := range map[string][]byte{
		"truncated prefix":       {0x80, 0},
		"zero length":            {0x80, 0, 0, 0},
		"oversized length":       {0xff, 0xff, 0xff, 0xff},
		"truncated payload":      frame.Bytes()[:frame.Len()-3],
		"another protocol (gob)": {0, 0, 0, 4, 1, 2, 3, 4}, // bit 31 clear
	} {
		if _, err := read(b); err == nil || err == io.EOF {
			t.Errorf("%s: error = %v, want a framing error", name, err)
		}
	}
	if _, err := writeRawFrame(io.Discard, []byte{0, 0, 0, 0}); err == nil {
		t.Error("an empty frame must not be written")
	}
}

// TestControlFrameCodecs round-trips the variable-length control payloads,
// including the nil-versus-empty distinctions their handlers rely on.
func TestControlFrameCodecs(t *testing.T) {
	for _, u := range []MembershipUpdate{
		{Epoch: 1, Members: []int{4}},
		{Epoch: 1 << 40, Members: []int{0, 1, 2}, Replicas: 2, Addrs: map[int]string{0: "a:1", 2: ""}},
	} {
		got, err := parseRawMembership(appendRawMembership(nil, u))
		if err != nil || !reflect.DeepEqual(got, u) {
			t.Errorf("membership %+v came back %+v (err %v)", u, got, err)
		}
	}
	// Structurally broken updates are refused before a handler sees them:
	// a negative id would index Topology.SplitByNode's result at -1, and an
	// id at or above MemberLimit would size it.
	for _, u := range []MembershipUpdate{
		{Epoch: 3},
		{Epoch: 3, Members: []int{1}, Replicas: -1},
		{Epoch: 3, Members: []int{-1, 0}},
		{Epoch: 3, Members: []int{0, MemberLimit}},
	} {
		if _, err := parseRawMembership(appendRawMembership(nil, u)); err == nil {
			t.Errorf("membership %+v passed validation", u)
		}
	}
	for _, cfg := range []ServeConfig{
		{},
		{Dense: []float32{1.5, -2}, Epoch: 9, TrainedEpoch: 12},
		{Addrs: map[int]string{0: "a:1", 1: "b:2"}, Dense: []float32{0}, Epoch: 1},
	} {
		got, err := parseRawServeConfig(appendRawServeConfig(nil, cfg))
		if err != nil || !reflect.DeepEqual(got, cfg) {
			t.Errorf("serve-config %+v came back %+v (err %v)", cfg, got, err)
		}
	}
}

func TestSeqTrackerDedup(t *testing.T) {
	s := NewSeqTracker()
	if !s.fresh(1, 1) {
		t.Fatal("first (1,1) must be fresh")
	}
	if s.fresh(1, 1) {
		t.Fatal("replayed (1,1) must be deduplicated")
	}
	if !s.fresh(1, 2) || !s.fresh(2, 1) {
		t.Fatal("new seqs and new clients must be fresh")
	}
	if s.fresh(1, 1) {
		t.Fatal("old seq must stay deduplicated after newer ones")
	}
	// Out-of-order first deliveries are both fresh (concurrent pushes race
	// for the connection); only true replays are duplicates.
	if !s.fresh(3, 2) {
		t.Fatal("first (3,2) must be fresh")
	}
	if !s.fresh(3, 1) {
		t.Fatal("out-of-order (3,1) must still be fresh: it was never applied")
	}
	if s.fresh(3, 1) || s.fresh(3, 2) {
		t.Fatal("replays of applied out-of-order seqs must be deduplicated")
	}
	// Seq 0 marks non-push traffic and never dedups.
	if !s.fresh(1, 0) || !s.fresh(1, 0) {
		t.Fatal("seq 0 must always pass")
	}
	// A nil tracker is a no-op pass-through.
	var nilTracker *SeqTracker
	if !nilTracker.fresh(1, 1) {
		t.Fatal("nil tracker must pass everything")
	}
}

// dedupHandler counts applied block pushes; the first failPushes applies fail
// and the first panicPushes after those panic.
type dedupHandler struct {
	stubShard
	mu          sync.Mutex
	pushes      int
	failPushes  int
	panicPushes int
}

func (h *dedupHandler) HandlePushBlockStamped(uint64, uint64, *ps.ValueBlock) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.failPushes > 0 {
		h.failPushes--
		return errors.New("injected apply failure")
	}
	if h.panicPushes > 0 {
		h.panicPushes--
		panic("injected apply panic")
	}
	h.pushes++
	return nil
}

// rawExchange sends one prebuilt frame over a fresh connection and returns
// the response payload — what a transport retry over a new connection does.
func rawExchange(t *testing.T, addr string, frame []byte) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := writeRawFrame(conn, frame); err != nil {
		t.Fatal(err)
	}
	n, err := readFramePrefix(conn)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := readFramePayload(conn, n, getScratch())
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func stampedPushFrame(client, seq uint64) []byte {
	blk := ps.NewValueBlock(2)
	blk.AppendRow(1, []float32{1, 2}, []float32{0, 0}, 1)
	return blk.AppendWire(appendRawBlockReq([]byte{0, 0, 0, 0}, rawOpPushBlock, client, seq, blk.Keys))
}

// TestServerDedupsReplayedPushFrame replays a byte-identical push frame —
// exactly what a transport retry after a lost reply produces — and checks
// the server applies it once while still acknowledging both.
func TestServerDedupsReplayedPushFrame(t *testing.T) {
	h := &dedupHandler{}
	srv := serve(t, h)
	for i := 0; i < 2; i++ { // the original, then the retry after a (simulated) lost reply
		if msg := pushFrame(t, srv.Addr(), 77, 1); msg != "" {
			t.Fatalf("push rejected: %s", msg)
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.pushes != 1 {
		t.Fatalf("replayed push applied %d times, want 1", h.pushes)
	}
}

// TestServerRetriesFailedPushApply checks the other half of exactly-once: a
// push whose apply FAILED — with an error, or with a panic the dispatch
// contained — must not be recorded as applied. The retry has to re-apply it,
// not get acked as a duplicate of nothing.
func TestServerRetriesFailedPushApply(t *testing.T) {
	h := &dedupHandler{failPushes: 1, panicPushes: 1}
	srv := serve(t, h)
	for _, want := range []string{"injected apply failure", "push-block handler panicked: injected apply panic"} {
		if msg := pushFrame(t, srv.Addr(), 78, 1); !strings.Contains(msg, want) {
			t.Fatalf("push answered %q, want an error containing %q", msg, want)
		}
	}
	if msg := pushFrame(t, srv.Addr(), 78, 1); msg != "" {
		t.Fatalf("retried push rejected: %s", msg)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.pushes != 1 {
		t.Fatalf("retry after failed applies applied %d times, want 1", h.pushes)
	}
}

// TestForeignPeersCloseCleanly covers the two ways a peer of another protocol
// generation can show up, now that there is no fallback: a first frame
// without the protocol bit (what a gob-era client sends) and a hello naming
// another wire version. Neither may hang: the server drops the first
// outright, answers the second with an error naming both versions and then
// drops it, and a client that meets a wrong-version server fails its dial
// with both versions in the error.
func TestForeignPeersCloseCleanly(t *testing.T) {
	srv := serve(t, stubShard{})
	dial := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		return conn
	}
	wantClosed := func(conn net.Conn) {
		t.Helper()
		// EOF, or a reset when the server closed with request bytes unread.
		_, err := conn.Read(make([]byte, 1))
		var ne net.Error
		if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
			t.Fatalf("read after the refusal = %v, want the connection closed", err)
		}
	}

	conn := dial()
	defer conn.Close()
	if _, err := conn.Write([]byte{0, 0, 0, 4, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	wantClosed(conn)

	// Version 2 is the last wire before rendezvous placement: its peers
	// place keys by modulo or a virtual-node ring and must not join.
	conn = dial()
	defer conn.Close()
	if _, err := writeRawFrame(conn, []byte{0, 0, 0, 0, rawOpHello, 2, 0, 0}); err != nil {
		t.Fatal(err)
	}
	n, err := readFramePrefix(conn)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := readFramePayload(conn, n, getScratch())
	if err != nil {
		t.Fatal(err)
	}
	ours := fmt.Sprintf("version %d", rawWireVersion)
	if msg := string(resp[4:]); resp[1] != rawStatusErr || !strings.Contains(msg, ours) || !strings.Contains(msg, "version 2") {
		t.Fatalf("hello refusal = status %d %q, want an error naming versions %d and 2", resp[1], msg, rawWireVersion)
	}
	wantClosed(conn)

	// The client side: a server that answers the hello with version 2.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				if n, err := readFramePrefix(c); err == nil {
					if _, err := readFramePayload(c, n, getScratch()); err == nil {
						writeRawFrame(c, []byte{0, 0, 0, 0, rawOpHello + 1, rawStatusOK, 2, 0})
					}
				}
			}()
		}
	}()
	tr := NewTCPTransport(map[int]string{0: ln.Addr().String()}, 2)
	defer tr.Close()
	tr.SetRetryPolicy(RetryPolicy{Attempts: 2, Backoff: time.Millisecond, RPCTimeout: 5 * time.Second})
	_, err = tr.PullBlock(0, []keys.Key{1}, ps.NewValueBlock(2))
	var te *TransportError
	if !errors.As(err, &te) || !strings.Contains(err.Error(), ours) || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("dial against a version-2 peer = %v, want a TransportError naming versions %d and 2", err, rawWireVersion)
	}
}
