package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hps/internal/embedding"
	"hps/internal/keys"
	"hps/internal/ps"
)

// SeqTracker deduplicates pushes retried across reconnects: the transport
// stamps every push with a (client, sequence) pair, and the tracker remembers
// which sequences each client has already had applied. A push that arrives
// again after a connection drop — the reply was lost but the deltas were
// already merged — is acknowledged without being re-applied, which is what
// keeps at-least-once delivery from turning into twice-applied gradients.
// The server records a sequence only after the apply succeeds (see forget),
// so a push whose apply failed is re-applied, not falsely acked, on retry.
//
// Sequences from one client may arrive out of order (concurrent pushes race
// for the connection), so the tracker keeps an explicit seen-set over a
// sliding window rather than a high-water mark; sequences that have fallen
// out of the window (seqWindow outstanding pushes behind the newest) are
// treated as duplicates.
//
// The tracker belongs to the shard state, not to one server instance: pass
// the same tracker to every ServeTCP incarnation serving the same shard so
// dedup survives a server restart.
type SeqTracker struct {
	mu      sync.Mutex
	clients map[uint64]*clientSeqs
	// tick is a monotonic activity counter; every fresh call stamps the
	// client, so eviction at the maxClients cap can pick the
	// least-recently-active client instead of an arbitrary one.
	tick uint64
	// log, when attached, persists applied records so dedup survives a
	// process restart (see AttachLog / Commit).
	log *SeqLog
}

type clientSeqs struct {
	max    uint64
	seen   map[uint64]struct{}
	active uint64 // tracker tick of this client's latest push
}

// seqWindow bounds the per-client seen-set: a sequence more than this many
// behind the newest is assumed to be a stale duplicate. Pushes are
// effectively synchronous per batch, so thousands of outstanding sequences
// per client is far beyond any real pipeline depth.
const seqWindow = 4096

// maxClients bounds the tracker across driver restarts (every transport has
// a fresh random client id): beyond this many clients, state for other —
// almost certainly dead — clients is dropped. Dedup is therefore guaranteed
// for up to maxClients concurrently-live clients, far beyond one driver plus
// stragglers.
const maxClients = 256

// NewSeqTracker returns an empty tracker.
func NewSeqTracker() *SeqTracker {
	return &SeqTracker{clients: make(map[uint64]*clientSeqs)}
}

// fresh reports whether (client, seq) has not been applied yet, recording it
// as applied when it is fresh. Sequence 0 (non-push traffic) is always fresh.
func (s *SeqTracker) fresh(client, seq uint64) bool {
	if s == nil || seq == 0 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tick++
	cs, ok := s.clients[client]
	if !ok {
		for len(s.clients) >= maxClients {
			// Evict the least-recently-active client: an arbitrary choice
			// could drop a live client's dedup state and re-admit a duplicate
			// push it retries moments later.
			var (
				victim uint64
				oldest = ^uint64(0)
			)
			for other, ocs := range s.clients {
				if ocs.active < oldest {
					victim, oldest = other, ocs.active
				}
			}
			delete(s.clients, victim)
		}
		cs = &clientSeqs{seen: make(map[uint64]struct{})}
		s.clients[client] = cs
	}
	cs.active = s.tick
	if cs.max >= seqWindow && seq <= cs.max-seqWindow {
		return false // fell out of the window: stale duplicate
	}
	if _, dup := cs.seen[seq]; dup {
		return false
	}
	cs.seen[seq] = struct{}{}
	if seq > cs.max {
		cs.max = seq
	}
	// Prune lazily, only once the set outgrows the window: a full scan per
	// push would make the hot path O(seqWindow).
	if len(cs.seen) > seqWindow && cs.max >= seqWindow {
		for old := range cs.seen {
			if old <= cs.max-seqWindow {
				delete(cs.seen, old)
			}
		}
	}
	return true
}

// forget withdraws a sequence recorded by fresh, after its apply failed: the
// client's retry must re-apply the push, not be acked as a duplicate of an
// apply that never happened.
func (s *SeqTracker) forget(client, seq uint64) {
	if s == nil || seq == 0 {
		return
	}
	s.mu.Lock()
	if cs, ok := s.clients[client]; ok {
		delete(cs.seen, seq)
	}
	s.mu.Unlock()
}

// AttachLog makes the tracker persist every committed record to l, so dedup
// survives a process restart (reload the log into a fresh tracker with
// OpenSeqLog). A nil log detaches.
func (s *SeqTracker) AttachLog(l *SeqLog) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.log = l
	s.mu.Unlock()
}

// snapshotRecords collects every (client, seq) pair still inside the dedup
// window — the live content a compacted log must keep. Records older than
// the window are refused as stale duplicates by fresh regardless of the log,
// so dropping them loses nothing.
func (s *SeqTracker) snapshotRecords() [][2]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out [][2]uint64
	for client, cs := range s.clients {
		for seq := range cs.seen {
			out = append(out, [2]uint64{client, seq})
		}
	}
	return out
}

// CompactLog rewrites the attached log down to the records still inside the
// dedup window; see SeqLog.Compact. The shard calls it after a checkpoint
// flush — the one moment the log is known to only need to cover pushes the
// flushed state has not yet made durable. Without an attached log it is a
// no-op. It returns the number of records kept.
func (s *SeqTracker) CompactLog() (int, error) {
	if s == nil {
		return 0, nil
	}
	s.mu.Lock()
	l := s.log
	s.mu.Unlock()
	if l == nil {
		return 0, nil
	}
	// The snapshot callback runs under the log's lock: commits racing with
	// the compaction either happened before it (fresh precedes commit, so the
	// tracker already holds them — they are in the snapshot) or block on the
	// lock and append to the rewritten file.
	return l.Compact(s.snapshotRecords)
}

// commit persists (client, seq) after its apply succeeded and before the ack
// is written. The order matters for exactly-once across a crash: a record
// appended before the apply would dedup — and therefore drop — the client's
// retry of a push that was never merged, while a record appended after the
// ack could miss a push the client will never resend. An append failure is
// deliberately swallowed: dedup degrades from crash-durable to
// process-lifetime, which is the pre-log behavior, not a correctness loss
// within this incarnation.
func (s *SeqTracker) commit(client, seq uint64) {
	if s == nil || seq == 0 {
		return
	}
	s.mu.Lock()
	l := s.log
	s.mu.Unlock()
	if l != nil {
		l.Append(client, seq)
	}
}

// ServerOptions tune a TCPServer beyond its handler.
type ServerOptions struct {
	// Seqs is the push-dedup tracker shared across server restarts; nil
	// creates a fresh one (pushes retried across a restart of this server
	// then re-apply — pass a tracker to prevent that).
	Seqs *SeqTracker
}

// TCPServer serves the parameter RPCs of one node over TCP. The paper's
// nodes exchange MEM-PS parameters over the data-center network; this server
// plays that role when the nodes run as separate processes. The handler's
// optional interfaces (PushHandler, LookupHandler, EvictHandler,
// StatsHandler, and the serving-tier trio PredictHandler /
// ServeConfigHandler / ServingStatsHandler) decide which operations beyond
// pull the server supports.
type TCPServer struct {
	ln      net.Listener
	handler PullHandler
	seqs    *SeqTracker

	mu     sync.Mutex
	closed bool
	active map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// ServeTCP starts serving on addr (e.g. "127.0.0.1:0") using handler.
func ServeTCP(addr string, handler PullHandler) (*TCPServer, error) {
	return ServeTCPOptions(addr, handler, ServerOptions{})
}

// ServeTCPOptions is ServeTCP with explicit options.
func ServeTCPOptions(addr string, handler PullHandler, opts ServerOptions) (*TCPServer, error) {
	if handler == nil {
		return nil, errors.New("cluster: nil pull handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	seqs := opts.Seqs
	if seqs == nil {
		seqs = NewSeqTracker()
	}
	s := &TCPServer{ln: ln, handler: handler, seqs: seqs, active: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// ServeTier exposes any ps.Tier behind ServeTCP: pulls, pushes, evicts and
// stats map straight onto the tier's own operations (lookups too — a plain
// tier's Pull already leaves missing keys absent).
func ServeTier(addr string, tier ps.Tier, opts ServerOptions) (*TCPServer, error) {
	if tier == nil {
		return nil, errors.New("cluster: nil tier")
	}
	return ServeTCPOptions(addr, &TierHandler{Tier: tier}, opts)
}

// Addr returns the address the server is listening on.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server: it stops accepting, severs every active
// connection (in-flight requests finish or fail; clients see a dropped
// connection and retry elsewhere or reconnect), and waits for the
// connection goroutines to drain.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.active {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// track registers conn while the server is open; it reports false when the
// server is already closing (the connection must be dropped immediately).
func (s *TCPServer) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.active[conn] = struct{}{}
	return true
}

func (s *TCPServer) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.active, conn)
	s.mu.Unlock()
}

func (s *TCPServer) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.isClosed() {
				return
			}
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer conn.Close()
	if !s.track(conn) {
		return
	}
	defer s.untrack(conn)
	// prec is the connection's negotiated pull-reply precision: fp32 until a
	// hello frame raises it, so clients that skip the hello always get
	// bit-exact replies.
	prec := ps.PrecisionFP32
	for {
		n, err := readFramePrefix(conn)
		if err != nil {
			// A clean EOF is the peer hanging up; anything else — a prefix of
			// some other protocol included — means the stream is beyond
			// recovery. Either way, drop the connection: the client reconnects
			// and retries.
			return
		}
		scratch := getScratch()
		payload, err := readFramePayload(conn, n, scratch)
		if err != nil {
			putScratch(scratch)
			return
		}
		hello := payload[0] == rawOpHello
		out, outBuf := s.dispatchRaw(payload, &prec)
		putScratch(scratch) // the request (and any body view into it) is consumed
		_, werr := writeRawFrame(conn, out)
		// A refused hello ends the connection: frames of another wire version
		// would be misparsed under this one's layouts.
		refused := hello && out[5] != rawStatusOK
		*outBuf = out[:0] // keep whatever the handler grew the frame to
		putScratch(outBuf)
		if werr != nil || refused {
			return
		}
	}
}

// dispatchRaw executes one request and returns the complete response frame
// (4-byte prefix placeholder included) in a pooled buffer; the caller writes
// it and returns the buffer to the pool. prec is the connection's negotiated
// pull-reply precision, updated by hello frames. Handler panics are contained
// per request: a poisoned batch must not take the shard server (and every
// other client's parameters) down with it.
func (s *TCPServer) dispatchRaw(payload []byte, prec *ps.Precision) (frame []byte, buf *[]byte) {
	buf = getScratch()
	op := payload[0] // frames are never empty: the prefix check rejects length 0
	frame = append((*buf)[:0], 0, 0, 0, 0, op+1, rawStatusOK, 0, 0)
	fail := func(status uint8, msg string) []byte {
		return append(append(frame[:4], op+1, status, 0, 0), msg...)
	}
	defer func() {
		if r := recover(); r != nil {
			frame = fail(rawStatusErr, fmt.Sprintf("%s handler panicked: %v", opName(op), r))
		}
	}()
	if int(op) >= len(ops) || ops[op].serve == nil {
		return fail(rawStatusErr, fmt.Sprintf("unknown operation %d", op)), buf
	}
	if len(payload) < 4 {
		return fail(rawStatusErr, fmt.Sprintf("malformed %s request of %d bytes", opName(op), len(payload))), buf
	}
	out, err := ops[op].serve(s, prec, payload, frame)
	if err != nil {
		status := rawStatusErr
		var oe *OverloadError
		if errors.As(err, &oe) {
			// Admission rejection: a distinct status byte, so the client
			// rebuilds the typed, retryable error instead of a RemoteError.
			status = rawStatusOverloaded
		}
		return fail(status, err.Error()), buf
	}
	return out, buf
}

func (s *TCPServer) serveHello(prec *ps.Precision, payload, frame []byte) ([]byte, error) {
	if len(payload) != 4 {
		return nil, fmt.Errorf("malformed hello of %d bytes", len(payload))
	}
	if payload[1] != rawWireVersion {
		return nil, fmt.Errorf("peer speaks wire version %d, this shard speaks version %d", payload[1], rawWireVersion)
	}
	p := ps.Precision(payload[2])
	if !p.Valid() {
		p = ps.PrecisionFP32
	}
	*prec = p
	frame[6], frame[7] = rawWireVersion, byte(p)
	return frame, nil
}

func (s *TCPServer) servePull(prec *ps.Precision, payload, frame []byte) ([]byte, error) {
	ks, err := parseRawKeyReq(payload)
	if err != nil {
		return nil, err
	}
	if h, ok := s.handler.(BlockPullWireHandler); ok {
		// Zero-intermediate path: the handler encodes its value rows
		// straight into the outgoing frame.
		return h.HandlePullBlockWire(ks, frame, *prec)
	}
	blk := ps.GetBlock(0, nil)
	defer ps.PutBlock(blk)
	if h, ok := s.handler.(BlockPullHandler); ok {
		if err := h.HandlePullBlock(ks, blk); err != nil {
			return nil, err
		}
	} else {
		res, err := s.handler.HandlePull(ks)
		if err != nil {
			return nil, err
		}
		ps.FillFromPull(blk, 0, ks, ps.Result(res))
	}
	return blk.AppendWirePrecision(frame, *prec), nil
}

// serveLookup answers in fp32 whatever the connection negotiated: lookups
// feed evaluation and serving, which read the authoritative values.
func (s *TCPServer) serveLookup(_ *ps.Precision, payload, frame []byte) ([]byte, error) {
	ks, err := parseRawKeyReq(payload)
	if err != nil {
		return nil, err
	}
	h, ok := s.handler.(LookupHandler)
	if !ok {
		return nil, errors.New("shard does not support lookup")
	}
	res, err := h.HandleLookup(ks)
	if err != nil {
		return nil, err
	}
	blk := ps.GetBlock(0, nil)
	defer ps.PutBlock(blk)
	ps.FillFromPull(blk, 0, ks, ps.Result(res))
	return blk.AppendWire(frame), nil
}

func (s *TCPServer) serveEvict(_ *ps.Precision, payload, frame []byte) ([]byte, error) {
	ks, err := parseRawKeyReq(payload)
	if err != nil {
		return nil, err
	}
	if payload[1]&rawFlagAll != 0 {
		if len(ks) != 0 {
			return nil, fmt.Errorf("evict-all carries %d keys", len(ks))
		}
		ks = nil
	}
	h, ok := s.handler.(EvictHandler)
	if !ok {
		return nil, errors.New("shard does not support evict")
	}
	n, err := h.Evict(ks)
	if err != nil {
		return nil, err
	}
	return le.AppendUint64(frame, uint64(n)), nil
}

// decodeRawBlock parses a push-layout request into a pooled block, which the
// caller returns with ps.PutBlock.
func decodeRawBlock(payload []byte) (client, seq uint64, blk *ps.ValueBlock, err error) {
	client, seq, ks, body, err := parseRawBlockReq(payload)
	if err != nil {
		return 0, 0, nil, err
	}
	blk = ps.GetBlock(0, nil)
	if err := blk.DecodeWire(ks, body); err != nil {
		ps.PutBlock(blk)
		return 0, 0, nil, err
	}
	return client, seq, blk, nil
}

// servePush applies a push-block or replicate request exactly once per dedup
// stamp. The stamp is recorded before the apply and withdrawn if the apply
// fails or panics, so the client's retry re-applies the push instead of being
// acked as a duplicate of an apply that never happened.
func (s *TCPServer) servePush(_ *ps.Precision, payload, frame []byte) ([]byte, error) {
	client, seq, blk, err := decodeRawBlock(payload)
	if err != nil {
		return nil, err
	}
	defer ps.PutBlock(blk)
	if !s.seqs.fresh(client, seq) {
		return frame, nil // duplicate of an already-applied push: ack, don't re-apply
	}
	applied := false
	defer func() {
		if !applied {
			s.seqs.forget(client, seq)
		}
	}()
	if payload[0] == rawOpReplicate {
		// A replicated block carries the ORIGIN's dedup stamp: committing it
		// here is what makes the origin's own retry of the same push a
		// duplicate after this backup is promoted.
		h, ok := s.handler.(ReplicaPushHandler)
		if !ok {
			return nil, errors.New("shard does not accept replicated pushes")
		}
		err = h.HandleReplicate(blk)
	} else {
		switch h := s.handler.(type) {
		case StampedBlockPushHandler:
			err = h.HandlePushBlockStamped(client, seq, blk)
		case BlockPushHandler:
			err = h.HandlePushBlock(blk)
		case PushHandler:
			err = h.HandlePush(blk.Deltas())
		default:
			return nil, errors.New("shard does not accept pushes")
		}
	}
	if err != nil {
		return nil, err
	}
	s.seqs.commit(client, seq) // applied: persist before the ack leaves
	applied = true
	return frame, nil
}

func (s *TCPServer) serveTransfer(_ *ps.Precision, payload, frame []byte) ([]byte, error) {
	_, _, blk, err := decodeRawBlock(payload)
	if err != nil {
		return nil, err
	}
	defer ps.PutBlock(blk)
	h, ok := s.handler.(TransferHandler)
	if !ok {
		return nil, errors.New("shard does not accept state transfers")
	}
	n, err := h.HandleTransfer(blk)
	if err != nil {
		return nil, err
	}
	return le.AppendUint64(frame, uint64(n)), nil
}

func (s *TCPServer) servePredict(_ *ps.Precision, payload, frame []byte) ([]byte, error) {
	req, err := parseRawPredictReq(payload)
	if err != nil {
		return nil, err
	}
	h, ok := s.handler.(PredictHandler)
	if !ok {
		return nil, errors.New("shard does not serve predictions")
	}
	scores, err := h.HandlePredict(req)
	if err != nil {
		return nil, err
	}
	return appendRawFloats(frame, scores), nil
}

func (s *TCPServer) serveStats(_ *ps.Precision, payload, frame []byte) ([]byte, error) {
	if len(payload) != 4 {
		return nil, fmt.Errorf("stats request of %d bytes", len(payload))
	}
	h, ok := s.handler.(StatsHandler)
	if !ok {
		return nil, errors.New("shard does not report stats")
	}
	frame, err := binary.Append(frame, le, h.TierStats())
	if err != nil {
		return nil, err
	}
	return append(frame, h.Name()...), nil
}

func (s *TCPServer) serveMembership(_ *ps.Precision, payload, frame []byte) ([]byte, error) {
	u, err := parseRawMembership(payload)
	if err != nil {
		return nil, err
	}
	h, ok := s.handler.(MembershipHandler)
	if !ok {
		return nil, errors.New("shard does not accept membership updates")
	}
	return frame, h.HandleMembership(u)
}

func (s *TCPServer) serveServeConfig(_ *ps.Precision, payload, frame []byte) ([]byte, error) {
	cfg, err := parseRawServeConfig(payload)
	if err != nil {
		return nil, err
	}
	h, ok := s.handler.(ServeConfigHandler)
	if !ok {
		return nil, errors.New("shard does not serve predictions")
	}
	return frame, h.HandleServeConfig(cfg)
}

func (s *TCPServer) serveServeStats(_ *ps.Precision, payload, frame []byte) ([]byte, error) {
	if len(payload) != 4 {
		return nil, fmt.Errorf("serve-stats request of %d bytes", len(payload))
	}
	h, ok := s.handler.(ServingStatsHandler)
	if !ok {
		return nil, errors.New("shard does not report serving stats")
	}
	return binary.Append(frame, le, h.ServingStats())
}

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
	// the subset established beyond the first per peer (i.e. reconnects
	// after a drop).
	Calls, Retries, Dials, Redials int64
	// BytesOut / BytesIn estimate the payload traffic in fp32 terms (8 bytes
	// per key plus the encoded value size, the same accounting as
	// PayloadBytes) — the precision-independent "model bytes moved".
	BytesOut, BytesIn int64
	// WireOut / WireIn count the bytes that actually crossed the sockets
	// (frame prefixes included), so the quantized wire's compression is
	// visible as WireOut+WireIn versus BytesOut+BytesIn.
	WireOut, WireIn int64
}

// TCPTransport reaches remote nodes over TCP, holding a small pool of
// persistent connections per peer (one by default), transparently
// reconnecting (with bounded, backed-off retries) when a connection drops.
// Each connection checks the wire version and negotiates the pull-reply
// precision with a hello exchange at dial time. It is safe for concurrent use
// and implements TierTransport.
type TCPTransport struct {
	dim    int
	client uint64 // identity for push dedup across reconnects
	seq    atomic.Uint64
	retry  RetryPolicy

	dials   atomic.Int64
	redials atomic.Int64
	calls   atomic.Int64
	retries atomic.Int64

	mu        sync.Mutex
	addrs     map[int]string
	peers     map[int]*peerConns
	dialed    map[int]bool  // nodes dialed at least once, for redial counting
	prec      ps.Precision  // wire precision requested in hellos and used for push bodies
	quantPush bool          // quantize push bodies at the negotiated precision
	maxConns  int           // per-peer connection cap (>= 1)
	inflight  chan struct{} // global in-flight-RPC semaphore; nil = unbounded

	statMu   sync.Mutex
	bytesOut int64
	bytesIn  int64
	wireOut  int64
	wireIn   int64
}

var _ TierTransport = (*TCPTransport)(nil)

// peerConns is one peer's connection pool. Conns are acquired by locking
// their mutex: an idle conn is one whose TryLock succeeds.
type peerConns struct {
	conns []*tcpConn
	next  int // round-robin cursor for queueing when every conn is busy
}

type tcpConn struct {
	mu      sync.Mutex
	conn    net.Conn
	prec    ps.Precision // negotiated pull-reply precision
	oneShot bool         // never entered the pool: release closes it
}

// NewTCPTransport creates a transport that reaches node i at addrs[i], with
// the default retry policy, one connection per peer, and fp32 wire bodies.
func NewTCPTransport(addrs map[int]string, dim int) *TCPTransport {
	copied := make(map[int]string, len(addrs))
	for k, v := range addrs {
		copied[k] = v
	}
	return &TCPTransport{
		dim:      dim,
		client:   rand.Uint64() | 1, // non-zero: 0 would disable push dedup
		retry:    DefaultRetryPolicy,
		addrs:    copied,
		peers:    make(map[int]*peerConns),
		dialed:   make(map[int]bool),
		maxConns: 1,
	}
}

// SetAddr repoints nodeID at a new address and drops its pooled connections,
// so the next RPC dials the new incarnation. This is how a supervisor hands
// the transport a restarted shard that came back on a different port;
// in-flight RPCs on the old connections fail and retry against the new
// address. The client identity is unchanged, so the restarted shard's
// (possibly reloaded) dedup state still recognizes this transport's retries.
func (t *TCPTransport) SetAddr(nodeID int, addr string) {
	t.mu.Lock()
	t.addrs[nodeID] = addr
	p := t.peers[nodeID]
	delete(t.peers, nodeID)
	t.mu.Unlock()
	if p != nil {
		for _, c := range p.conns {
			c.conn.Close()
		}
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

// SetWirePrecision selects the precision of block bodies on the wire: pull
// replies (negotiated per connection at hello time) and push bodies. Existing
// connections keep their negotiated precision, so set it before issuing RPCs.
// PrecisionFP32 — the default — keeps every body bit-exact.
func (t *TCPTransport) SetWirePrecision(p ps.Precision) {
	if !p.Valid() {
		p = ps.PrecisionFP32
	}
	t.mu.Lock()
	t.prec = p
	t.mu.Unlock()
}

// SetPushQuantization selects whether push bodies follow the connection's
// negotiated precision (true) or stay fp32 (false, the default). A pull-side
// quantization error is self-correcting — the next delta is computed against
// the quantized values the trainer actually loaded — while a quantized delta
// perturbs the authoritative copies directly, so pushes only quantize when
// the caller opts in (gated by the trainer's AUC-parity test).
func (t *TCPTransport) SetPushQuantization(on bool) {
	t.mu.Lock()
	t.quantPush = on
	t.mu.Unlock()
}

// WirePrecision returns the configured wire precision.
func (t *TCPTransport) WirePrecision() ps.Precision {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.prec
}

// SetMaxConnsPerPeer sets how many concurrent connections the transport may
// hold per peer (minimum 1). With more than one, concurrent RPCs to the same
// shard overlap on the wire instead of queueing on a single connection —
// the transport-level half of pull pipelining.
func (t *TCPTransport) SetMaxConnsPerPeer(n int) {
	if n < 1 {
		n = 1
	}
	t.mu.Lock()
	t.maxConns = n
	t.mu.Unlock()
}

// SetMaxInFlightRPCs bounds the number of RPCs in flight across all peers
// (0 or negative = unbounded). The bound caps the memory pinned by concurrent
// pull chunks and keeps a wide fan-out from oversubscribing the NIC.
func (t *TCPTransport) SetMaxInFlightRPCs(n int) {
	t.mu.Lock()
	if n <= 0 {
		t.inflight = nil
	} else {
		t.inflight = make(chan struct{}, n)
	}
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

// acquireConn returns a connection to nodeID with its mutex held: an idle
// pooled conn when one exists, a queued busy conn when the pool is at its
// cap, or a freshly dialed (and hello-negotiated) one otherwise. The caller
// hands it back with release after its round trip.
func (t *TCPTransport) acquireConn(nodeID int, policy RetryPolicy) (*tcpConn, error) {
	t.mu.Lock()
	if p := t.peers[nodeID]; p != nil && len(p.conns) > 0 {
		for _, c := range p.conns {
			if c.mu.TryLock() {
				t.mu.Unlock()
				return c, nil
			}
		}
		if len(p.conns) >= t.maxConns {
			// Every conn is busy and the pool is full: queue on one,
			// round-robin so waiters spread across the pool.
			c := p.conns[p.next%len(p.conns)]
			p.next++
			t.mu.Unlock()
			c.mu.Lock()
			// The conn may have been dropped while queueing; the round trip
			// then fails on the closed socket and the caller retries.
			return c, nil
		}
	}
	addr, ok := t.addrs[nodeID]
	maxConns := t.maxConns
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
	p := t.peers[nodeID]
	if p == nil {
		p = &peerConns{}
		t.peers[nodeID] = p
	}
	if len(p.conns) >= maxConns {
		// Concurrent dialers overfilled the pool; keep the pool bounded and
		// use ours for this one RPC without publishing it. release closes it.
		t.mu.Unlock()
		c.oneShot = true
		return c, nil
	}
	t.dials.Add(1)
	if t.dialed[nodeID] {
		t.redials.Add(1) // this peer had a connection before: a reconnect
	}
	t.dialed[nodeID] = true
	p.conns = append(p.conns, c)
	t.mu.Unlock()
	return c, nil
}

// release hands back a conn acquireConn returned. A conn that never entered
// the pool has no later user, so it is closed here; otherwise the socket —
// and the server goroutine behind it — would live until a finalizer ran.
func (t *TCPTransport) release(c *tcpConn) {
	c.mu.Unlock()
	if c.oneShot {
		c.conn.Close()
	}
}

// hello checks the wire version and negotiates the pull precision on a fresh
// connection. Any failure — I/O, a refusal, a peer answering another version
// — fails the dial, so the retry loop treats it like any other connect
// failure.
func (t *TCPTransport) hello(c *tcpConn, policy RetryPolicy) error {
	t.mu.Lock()
	prec := t.prec
	t.mu.Unlock()
	var frame [8]byte
	f := append(frame[:0], 0, 0, 0, 0, rawOpHello, rawWireVersion, byte(prec), 0)
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
	if p := ps.Precision(payload[3]); p.Valid() {
		c.prec = p
	}
	return nil
}

func (t *TCPTransport) dropConn(nodeID int, c *tcpConn) {
	t.mu.Lock()
	if p := t.peers[nodeID]; p != nil {
		for i, cur := range p.conns {
			if cur == c {
				p.conns = append(p.conns[:i], p.conns[i+1:]...)
				break
			}
		}
	}
	t.mu.Unlock()
	c.conn.Close()
}

// rawCall runs one RPC against nodeID: acquire a connection (dialing if
// needed), exchange one request/response pair on it, and reconnect/retry
// network failures per the retry policy. build appends the request payload to
// the frame it is given, which already holds the length-prefix placeholder
// (prec is the connection's negotiated precision); parse, when not nil,
// consumes an ok reply's body before the receive buffer is recycled.
// Shard-side failures (RemoteError, OverloadError) and unknown nodes are
// returned immediately — retrying cannot fix them. The global in-flight
// semaphore, when set, is held for the duration.
func (t *TCPTransport) rawCall(nodeID int, op uint8, build func(frame []byte, prec ps.Precision) []byte, parse func(body []byte) error) error {
	t.mu.Lock()
	policy := t.retry
	inflight := t.inflight
	t.mu.Unlock()
	if inflight != nil {
		inflight <- struct{}{}
		defer func() { <-inflight }()
	}
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
		var re *RemoteError
		var oe *OverloadError
		if err == nil || errors.As(err, &re) || errors.As(err, &oe) {
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

// exchange performs one attempt of rawCall on c, whose lock the caller holds.
func (t *TCPTransport) exchange(c *tcpConn, nodeID int, op uint8, build func([]byte, ps.Precision) []byte, parse func([]byte) error, timeout time.Duration) error {
	buf := getScratch()
	frame := build(append((*buf)[:0], 0, 0, 0, 0), c.prec)
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

// rowBytes is the fp32-equivalent payload of n value rows with their keys —
// the PayloadBytes accounting every transport shares.
func (t *TCPTransport) rowBytes(n int) int64 {
	return int64(n) * int64(8+embedding.EncodedSize(t.dim))
}

// pullInto runs a pull-layout read (pull-block or lookup): the request is a
// length-prefixed key frame and the reply body is decoded directly out of
// the pooled receive buffer into dst, in request-key order. The returned
// byte count stays the fp32-equivalent model traffic; Stats().WireIn/WireOut
// expose what actually crossed the socket.
func (t *TCPTransport) pullInto(nodeID int, op uint8, ks []keys.Key, dst *ps.ValueBlock) (int64, error) {
	err := t.rawCall(nodeID, op,
		func(frame []byte, _ ps.Precision) []byte { return appendRawKeyReq(frame, op, 0, ks) },
		func(body []byte) error { return dst.DecodeWire(ks, body) })
	if err != nil {
		return 0, err
	}
	if dst.Dim == 0 && t.dim > 0 {
		// An all-missing reply from a map-based handler carries no dimension
		// to infer; re-shape to the transport's so absent rows read as zeroed
		// dim-d rows, per the PullInto contract.
		dst.Reset(t.dim, ks)
	}
	reqBytes := int64(len(ks)) * 8
	t.addBytes(reqBytes, t.rowBytes(dst.PresentCount()))
	return reqBytes + t.rowBytes(dst.PresentCount()), nil
}

// pullMap is pullInto for the map-based callers.
func (t *TCPTransport) pullMap(nodeID int, op uint8, ks []keys.Key) (PullResult, int64, error) {
	blk := ps.GetBlock(t.dim, nil)
	defer ps.PutBlock(blk)
	bytes, err := t.pullInto(nodeID, op, ks, blk)
	if err != nil {
		return nil, 0, err
	}
	return PullResult(blk.Deltas()), bytes, nil
}

// PullBlock implements TierTransport: the reply arrives as one flat block
// body, encoded in a single pass server-side in the connection's negotiated
// precision.
func (t *TCPTransport) PullBlock(nodeID int, ks []keys.Key, dst *ps.ValueBlock) (int64, error) {
	return t.pullInto(nodeID, rawOpPullBlock, ks, dst)
}

// Pull implements Transport as a map view of PullBlock.
func (t *TCPTransport) Pull(nodeID int, ks []keys.Key) (PullResult, int64, error) {
	return t.pullMap(nodeID, rawOpPullBlock, ks)
}

// Lookup implements TierTransport: a pull that never materializes missing
// parameters, for evaluation-time and serving reads. Replies are always fp32.
func (t *TCPTransport) Lookup(nodeID int, ks []keys.Key) (PullResult, int64, error) {
	return t.pullMap(nodeID, rawOpLookup, ks)
}

// sendBlock runs a push-layout write (push-block, replicate, transfer): the
// block's rows travel as one flat frame under the given dedup stamp. Bodies
// are fp32 unless quantize asks for the connection's negotiated precision.
func (t *TCPTransport) sendBlock(nodeID int, op uint8, client, seq uint64, blk *ps.ValueBlock, quantize bool, parse func([]byte) error) (int64, error) {
	err := t.rawCall(nodeID, op, func(frame []byte, prec ps.Precision) []byte {
		if !quantize {
			prec = ps.PrecisionFP32
		}
		return blk.AppendWirePrecision(appendRawBlockReq(frame, op, client, seq, blk.Keys), prec)
	}, parse)
	if err != nil {
		return 0, err
	}
	bytes := t.rowBytes(blk.PresentCount())
	t.addBytes(bytes, 0)
	return bytes, nil
}

// PushBlock implements TierTransport: the push is stamped with a dedup
// sequence, so a push-block retried across a reconnect is applied exactly
// once (the sequence is assigned once, before the retry loop, for that
// reason).
func (t *TCPTransport) PushBlock(nodeID int, blk *ps.ValueBlock) (int64, error) {
	client, seq := t.Stamp()
	return t.PushBlockStamped(nodeID, client, seq, blk)
}

// Push implements TierTransport as a map view of PushBlock.
func (t *TCPTransport) Push(nodeID int, deltas map[keys.Key]*embedding.Value) (int64, error) {
	blk := ps.GetBlock(t.dim, nil)
	defer ps.PutBlock(blk)
	for k, v := range deltas {
		if v == nil {
			continue
		}
		if v.Dim() != t.dim || len(v.G2Sum) != t.dim {
			return 0, fmt.Errorf("cluster: push delta for key %d has dimension %d/%d, transport carries %d", k, v.Dim(), len(v.G2Sum), t.dim)
		}
		blk.AppendRow(k, v.Weights, v.G2Sum, v.Freq)
	}
	return t.PushBlock(nodeID, blk)
}

// Stamp allocates a fresh push dedup stamp. Callers that need to fail a push
// over to a key's backup take the stamp first, so the failover delivery (via
// Replicate) carries the same identity as the failed push and a backup that
// already received the primary's forward of it dedups instead of
// double-applying.
func (t *TCPTransport) Stamp() (client, seq uint64) {
	return t.client, t.seq.Add(1)
}

// PushBlockStamped is PushBlock under a caller-provided dedup stamp. Push
// bodies stay fp32 even on quantized connections unless SetPushQuantization
// opted in: a pull-side quantization error is corrected by the next delta
// (the delta is computed against the quantized values the trainer actually
// loaded), while a quantized delta perturbs the authoritative copies
// directly.
func (t *TCPTransport) PushBlockStamped(nodeID int, client, seq uint64, blk *ps.ValueBlock) (int64, error) {
	t.mu.Lock()
	quantPush := t.quantPush
	t.mu.Unlock()
	return t.sendBlock(nodeID, rawOpPushBlock, client, seq, blk, quantPush, nil)
}

// Replicate forwards an applied delta block to nodeID (a backup of the
// block's keys), carrying the ORIGIN client's dedup stamp instead of this
// transport's own — the backup commits (client, seq) to its tracker, so after
// a promotion the origin's retry of the same push is deduplicated, not
// double-applied. Bodies always travel fp32: a quantized replica would drift
// from its primary. Retries are safe for the same reason direct pushes are:
// the stamp makes the apply exactly-once.
func (t *TCPTransport) Replicate(nodeID int, client, seq uint64, blk *ps.ValueBlock) (int64, error) {
	return t.sendBlock(nodeID, rawOpReplicate, client, seq, blk, false, nil)
}

// parseRawCount returns a parser for the u64 count reply of evict/transfer.
func parseRawCount(n *int) func([]byte) error {
	return func(body []byte) error {
		if len(body) != 8 {
			return fmt.Errorf("count reply of %d bytes", len(body))
		}
		*n = int(le.Uint64(body))
		return nil
	}
}

// Transfer installs the block's rows on nodeID outright (set semantics, not
// delta merge): the re-replication / resharding data path. It is idempotent,
// so the transport's normal retries need no dedup stamp. It returns how many
// rows the receiver accepted.
func (t *TCPTransport) Transfer(nodeID int, blk *ps.ValueBlock) (int, error) {
	var n int
	_, err := t.sendBlock(nodeID, rawOpTransfer, 0, 0, blk, false, parseRawCount(&n))
	return n, err
}

// Evict implements TierTransport.
func (t *TCPTransport) Evict(nodeID int, ks []keys.Key) (int, error) {
	var flags uint8
	if ks == nil {
		flags = rawFlagAll
	}
	var n int
	err := t.rawCall(nodeID, rawOpEvict,
		func(frame []byte, _ ps.Precision) []byte { return appendRawKeyReq(frame, rawOpEvict, flags, ks) },
		parseRawCount(&n))
	return n, err
}

// bareReq builds a request that is just its header.
func bareReq(op uint8) func([]byte, ps.Precision) []byte {
	return func(frame []byte, _ ps.Precision) []byte { return append(frame, op, 0, 0, 0) }
}

// TierStats implements TierTransport.
func (t *TCPTransport) TierStats(nodeID int) (ps.TierInfo, error) {
	var info ps.TierInfo
	err := t.rawCall(nodeID, rawOpStats, bareReq(rawOpStats), func(body []byte) error {
		n, err := binary.Decode(body, le, &info.Stats)
		if err != nil {
			return fmt.Errorf("stats reply of %d bytes: %w", len(body), err)
		}
		info.Name = string(body[n:])
		return nil
	})
	return info, err
}

// UpdateMembership installs an epoch-versioned membership change on nodeID.
func (t *TCPTransport) UpdateMembership(nodeID int, u MembershipUpdate) error {
	return t.rawCall(nodeID, rawOpMembership,
		func(frame []byte, _ ps.Precision) []byte { return appendRawMembership(frame, u) }, nil)
}

// Predict scores one batched inference request against nodeID's shard: counts
// and keys out, scores back. An admission rejection surfaces as a typed
// *OverloadError: retryable by the caller after backoff, but never retried
// internally — admission control exists to shed load to the caller, and an
// internal retry loop would defeat it.
func (t *TCPTransport) Predict(nodeID int, req PredictRequest) ([]float32, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	var scores []float32
	err := t.rawCall(nodeID, rawOpPredict,
		func(frame []byte, _ ps.Precision) []byte { return appendRawPredictReq(frame, req) },
		func(body []byte) (err error) {
			scores, err = parseRawScores(body)
			return err
		})
	return scores, err
}

// PublishServeConfig sends serving-tier configuration (peer addresses and/or
// refreshed dense parameters) to nodeID's shard.
func (t *TCPTransport) PublishServeConfig(nodeID int, cfg ServeConfig) error {
	return t.rawCall(nodeID, rawOpServeConfig,
		func(frame []byte, _ ps.Precision) []byte { return appendRawServeConfig(frame, cfg) }, nil)
}

// ServingStats reads nodeID's serving-tier counters.
func (t *TCPTransport) ServingStats(nodeID int) (ServingStats, error) {
	var st ServingStats
	err := t.rawCall(nodeID, rawOpServeStats, bareReq(rawOpServeStats), func(body []byte) error {
		if _, err := binary.Decode(body, le, &st); err != nil {
			return fmt.Errorf("serve-stats reply of %d bytes: %w", len(body), err)
		}
		return nil
	})
	return st, err
}

// Close closes every open connection.
func (t *TCPTransport) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, p := range t.peers {
		for _, c := range p.conns {
			c.conn.Close()
		}
		delete(t.peers, id)
	}
}
