package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// RetryPolicy controls how the TCP transport handles network failures,
// including how long it is willing to wait for a peer that accepts traffic
// but never answers.
type RetryPolicy struct {
	// Attempts is the total number of tries per RPC (first try included).
	Attempts int
	// Backoff is the sleep before the first retry; it doubles per retry, so
	// the default policy rides out a shard-server restart of a few hundred
	// milliseconds.
	Backoff time.Duration
	// DialTimeout bounds connection establishment to a peer. Zero means the
	// default (an unreachable-but-routing peer must not hang the dial);
	// negative disables the bound.
	DialTimeout time.Duration
	// RPCTimeout bounds one RPC round trip (write request, read reply) once a
	// connection exists. A stalled-but-alive shard — accepted the connection,
	// never answers — therefore surfaces as a retryable TransportError
	// instead of blocking the RPC forever. Zero means the default; negative
	// disables the bound (a test serving deliberately slow handlers can opt
	// out).
	RPCTimeout time.Duration
}

// Default deadlines installed when the corresponding RetryPolicy field is
// zero. The RPC bound is generous: it only has to beat "forever", not a slow
// SSD load on the far side.
const (
	DefaultDialTimeout = 5 * time.Second
	DefaultRPCTimeout  = 30 * time.Second
)

// dial returns the effective dial timeout (0 = unbounded).
func (p RetryPolicy) dial() time.Duration {
	if p.DialTimeout == 0 {
		return DefaultDialTimeout
	}
	return max(p.DialTimeout, 0)
}

// rpc returns the effective per-RPC timeout (0 = unbounded).
func (p RetryPolicy) rpc() time.Duration {
	if p.RPCTimeout == 0 {
		return DefaultRPCTimeout
	}
	return max(p.RPCTimeout, 0)
}

// DefaultRetryPolicy is the policy NewTCPTransport installs.
var DefaultRetryPolicy = RetryPolicy{Attempts: 5, Backoff: 25 * time.Millisecond}

// maxRetryBackoff caps the doubled backoff so large Attempts values mean
// "keep trying for a while", never an hours-long sleep.
const maxRetryBackoff = 2 * time.Second

// TransportStats counts a TCPTransport's activity, for reports and tests.
type TransportStats struct {
	// Calls counts completed RPCs; Retries counts extra attempts after a
	// network failure; Dials counts established connections; Redials counts
	// the subset that replaced a dropped connection (a reconnect). A peer's
	// first connection is not a redial.
	Calls, Retries, Dials, Redials int64
	// BytesOut / BytesIn count the payload traffic (PayloadBytes: 8 bytes
	// per key a request names, 4+8·dim per value row, the accounting every
	// transport shares) — the "model bytes moved".
	BytesOut, BytesIn int64
	// WireOut / WireIn count the bytes that actually crossed the sockets
	// (frame prefixes included), so the framing overhead is visible as
	// WireOut+WireIn versus BytesOut+BytesIn.
	WireOut, WireIn int64
}

// TCPTransport reaches remote nodes over TCP, holding one persistent
// connection per peer — concurrent RPCs to a peer queue on it — and
// transparently reconnecting (with bounded, backed-off retries) when it drops.
// Each connection checks the wire version with a hello exchange at dial time.
// It is safe for concurrent use.
type TCPTransport struct {
	dim    int
	client uint64 // identity for push dedup across reconnects
	seq    atomic.Uint64
	retry  RetryPolicy

	dials   atomic.Int64
	redials atomic.Int64
	calls   atomic.Int64
	retries atomic.Int64

	mu    sync.Mutex
	addrs map[int]string
	peers map[int]*tcpConn
	// dropped marks the peers whose connection was dropped and not replaced
	// yet: the next dial to one is a redial.
	dropped map[int]bool

	statMu   sync.Mutex
	bytesOut int64
	bytesIn  int64
	wireOut  int64
	wireIn   int64
}

// tcpConn is one peer connection. An RPC holds its mutex for the round trip.
type tcpConn struct {
	mu      sync.Mutex
	conn    net.Conn
	oneShot bool // never published as the peer's connection: release closes it
}

// NewTCPTransport creates a transport that reaches node i at addrs[i], with
// the default retry policy and one connection per peer.
func NewTCPTransport(addrs map[int]string, dim int) *TCPTransport {
	copied := make(map[int]string, len(addrs))
	for k, v := range addrs {
		copied[k] = v
	}
	return &TCPTransport{
		dim:     dim,
		client:  rand.Uint64() | 1, // non-zero: 0 would disable push dedup
		retry:   DefaultRetryPolicy,
		addrs:   copied,
		peers:   make(map[int]*tcpConn),
		dropped: make(map[int]bool),
	}
}

// SetAddr repoints nodeID at a new address and drops its connection, so the
// next RPC dials the new incarnation. This is how a supervisor hands
// the transport a restarted shard that came back on a different port;
// in-flight RPCs on the old connections fail and retry against the new
// address. The client identity is unchanged, so the restarted shard's
// (possibly reloaded) dedup state still recognizes this transport's retries.
func (t *TCPTransport) SetAddr(nodeID int, addr string) {
	t.mu.Lock()
	t.addrs[nodeID] = addr
	c := t.peers[nodeID]
	delete(t.peers, nodeID)
	if c != nil {
		t.dropped[nodeID] = true
	}
	t.mu.Unlock()
	if c != nil {
		c.conn.Close()
	}
}

// SetRetryPolicy replaces the retry policy. Attempts < 1 disables retries
// (every network failure surfaces immediately).
func (t *TCPTransport) SetRetryPolicy(p RetryPolicy) {
	if p.Attempts < 1 {
		p.Attempts = 1
	}
	t.mu.Lock()
	t.retry = p
	t.mu.Unlock()
}

// Stats returns a snapshot of the transport's activity counters.
func (t *TCPTransport) Stats() TransportStats {
	t.statMu.Lock()
	in, out := t.bytesIn, t.bytesOut
	win, wout := t.wireIn, t.wireOut
	t.statMu.Unlock()
	return TransportStats{
		Calls:    t.calls.Load(),
		Retries:  t.retries.Load(),
		Dials:    t.dials.Load(),
		Redials:  t.redials.Load(),
		BytesOut: out,
		BytesIn:  in,
		WireOut:  wout,
		WireIn:   win,
	}
}

// acquireConn returns the connection to nodeID with its mutex held — queueing
// behind the RPC using it, if any — or dials (and version-checks) one when
// the peer has none. The caller hands it back with release after its round
// trip.
func (t *TCPTransport) acquireConn(nodeID int, policy RetryPolicy) (*tcpConn, error) {
	t.mu.Lock()
	if c := t.peers[nodeID]; c != nil {
		t.mu.Unlock()
		c.mu.Lock()
		// The conn may have been dropped while queueing; the round trip then
		// fails on the closed socket and the caller retries.
		return c, nil
	}
	addr, ok := t.addrs[nodeID]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, nodeID)
	}
	// Dial outside the transport lock: a slow or unreachable peer must not
	// stall RPCs to the healthy ones. The dial deadline keeps a
	// routing-but-dead peer from hanging this RPC's attempt.
	conn, err := net.DialTimeout("tcp", addr, policy.dial())
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	c := &tcpConn{conn: conn}
	if err := t.hello(c, policy); err != nil {
		conn.Close()
		return nil, fmt.Errorf("hello %s: %w", addr, err)
	}
	c.mu.Lock() // uncontended: the conn is not published yet
	t.mu.Lock()
	if t.peers[nodeID] != nil {
		// A concurrent dialer published its connection first; use ours for
		// this one RPC without publishing it. release closes it.
		t.mu.Unlock()
		c.oneShot = true
		return c, nil
	}
	t.dials.Add(1)
	if t.dropped[nodeID] {
		t.redials.Add(1) // it takes a dropped connection's place: a reconnect
		delete(t.dropped, nodeID)
	}
	t.peers[nodeID] = c
	t.mu.Unlock()
	return c, nil
}

// release hands back a conn acquireConn returned. A conn that was never
// published has no later user, so it is closed here; otherwise the socket —
// and the server goroutine behind it — would live until a finalizer ran.
func (t *TCPTransport) release(c *tcpConn) {
	c.mu.Unlock()
	if c.oneShot {
		c.conn.Close()
	}
}

// hello checks the wire version on a fresh connection. Any failure — I/O, a
// refusal, a peer answering another version — fails the dial, so the retry
// loop treats it like any other connect failure.
func (t *TCPTransport) hello(c *tcpConn, policy RetryPolicy) error {
	var frame [8]byte
	f := append(frame[:0], 0, 0, 0, 0, rawOpHello, rawWireVersion, 0, 0)
	payload, rbuf, err := t.roundTripRaw(c, f, policy.rpc())
	if err != nil {
		return err
	}
	defer putScratch(rbuf)
	if len(payload) < 4 || payload[0] != rawOpHello+1 {
		return fmt.Errorf("malformed hello response of %d bytes", len(payload))
	}
	if payload[1] != rawStatusOK {
		return fmt.Errorf("hello rejected: %s", payload[4:])
	}
	if payload[2] != rawWireVersion {
		return fmt.Errorf("peer speaks wire version %d, this build speaks version %d", payload[2], rawWireVersion)
	}
	return nil
}

func (t *TCPTransport) dropConn(nodeID int, c *tcpConn) {
	t.mu.Lock()
	if t.peers[nodeID] == c {
		delete(t.peers, nodeID)
		t.dropped[nodeID] = true
	}
	t.mu.Unlock()
	c.conn.Close()
}

// rawCall runs one RPC against nodeID: acquire a connection (dialing if
// needed), exchange one request/response pair on it, and reconnect/retry
// network failures per the retry policy. build appends the request payload to
// the frame it is given, which already holds the length-prefix placeholder;
// parse, when not nil, consumes an ok reply's body before the receive buffer
// is recycled. Shard-side failures (RemoteError, OverloadError) and unknown
// nodes are returned immediately — retrying cannot fix them.
func (t *TCPTransport) rawCall(nodeID int, op uint8, build func(frame []byte) []byte, parse func(body []byte) error) error {
	t.mu.Lock()
	policy := t.retry
	t.mu.Unlock()
	var lastErr error
	for attempt := 1; attempt <= policy.Attempts; attempt++ {
		if attempt > 1 {
			t.retries.Add(1)
			if policy.Backoff > 0 { // zero Backoff means retry immediately
				backoff := policy.Backoff << min(attempt-2, 6)
				if backoff <= 0 || backoff > maxRetryBackoff {
					backoff = maxRetryBackoff
				}
				time.Sleep(backoff)
			}
		}
		c, err := t.acquireConn(nodeID, policy)
		if err != nil {
			if errors.Is(err, ErrUnknownNode) {
				return err
			}
			lastErr = err // dial failure: the peer may be restarting
			continue
		}
		err = t.exchange(c, nodeID, op, build, parse, policy.rpc())
		if err == nil || shardSide(err) {
			// The round trip itself was fine; keep the connection. An
			// overload rejection is deliberately not retried here either:
			// admission control sheds load back to the caller, and an
			// internal retry loop would defeat that.
			t.release(c)
			t.calls.Add(1)
			return err
		}
		t.dropConn(nodeID, c)
		c.mu.Unlock()
		lastErr = err
	}
	return &TransportError{Node: nodeID, Op: opName(op), Attempts: policy.Attempts, Err: lastErr}
}

// shardSide reports whether err is the shard's answer (a RemoteError or an
// OverloadError) rather than a failure of the exchange.
func shardSide(err error) bool {
	var re *RemoteError
	var oe *OverloadError
	return errors.As(err, &re) || errors.As(err, &oe)
}

// exchange performs one attempt of rawCall on c, whose lock the caller holds.
func (t *TCPTransport) exchange(c *tcpConn, nodeID int, op uint8, build func([]byte) []byte, parse func([]byte) error, timeout time.Duration) error {
	buf := getScratch()
	frame := build(append((*buf)[:0], 0, 0, 0, 0))
	payload, rbuf, err := t.roundTripRaw(c, frame, timeout)
	*buf = frame[:0]
	putScratch(buf)
	if err != nil {
		return err
	}
	defer putScratch(rbuf)
	if len(payload) < 4 || payload[0] != op+1 {
		return fmt.Errorf("malformed %s response of %d bytes", opName(op), len(payload))
	}
	switch payload[1] {
	case rawStatusOK:
		if parse == nil {
			return nil
		}
		return parse(payload[4:])
	case rawStatusOverloaded:
		return &OverloadError{Node: nodeID, Op: opName(op)}
	default:
		return &RemoteError{Node: nodeID, Op: opName(op), Msg: string(payload[4:])}
	}
}

// roundTripRaw writes one frame (4-byte prefix placeholder included) and
// reads the response payload into a pooled receive buffer, which it returns
// along with the payload view; the caller returns the buffer to the pool once
// the payload is consumed — for pull replies that is after DecodeWire has
// scattered the body into the destination block's slabs, making the pooled
// buffer the only stop between socket and slab. One deadline covers the whole
// round trip; a peer that accepted the connection but stopped answering fails
// the read instead of parking the RPC forever. The caller holds c.mu and
// drops the connection on any error, so a frame cut short by the deadline can
// never desynchronize a reused stream.
func (t *TCPTransport) roundTripRaw(c *tcpConn, frame []byte, timeout time.Duration) ([]byte, *[]byte, error) {
	var deadline time.Time // zero clears a deadline left by an earlier policy
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if err := c.conn.SetDeadline(deadline); err != nil {
		return nil, nil, fmt.Errorf("set deadline: %w", err)
	}
	nOut, err := writeRawFrame(c.conn, frame)
	if err != nil {
		return nil, nil, fmt.Errorf("send: %w", err)
	}
	n, err := readFramePrefix(c.conn)
	if err != nil {
		return nil, nil, fmt.Errorf("receive: %w", err)
	}
	rbuf := getScratch()
	payload, err := readFramePayload(c.conn, n, rbuf)
	if err != nil {
		putScratch(rbuf)
		return nil, nil, fmt.Errorf("receive: %w", err)
	}
	t.addWireBytes(int64(nOut), int64(4+n))
	return payload, rbuf, nil
}

func (t *TCPTransport) addBytes(out, in int64) {
	t.statMu.Lock()
	t.bytesOut += out
	t.bytesIn += in
	t.statMu.Unlock()
}

func (t *TCPTransport) addWireBytes(out, in int64) {
	t.statMu.Lock()
	t.wireOut += out
	t.wireIn += in
	t.statMu.Unlock()
}

// Close closes every open connection.
func (t *TCPTransport) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, c := range t.peers {
		c.conn.Close()
		delete(t.peers, id)
	}
}
