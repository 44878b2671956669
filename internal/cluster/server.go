package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"

	"hps/internal/keys"
	"hps/internal/ps"
)

// Shard is what a TCPServer serves: one method per wire operation after the
// hello (serving.Shard is the one shard every server runs). Methods must be
// safe for concurrent use; an error becomes the request's error reply, and a
// *OverloadError crosses the wire as a typed, retryable rejection.
type Shard interface {
	// HandlePullBlockWire appends the encoded block body for ks — the bytes
	// ps.ValueBlock.AppendWire would produce: ps.AppendWireHeader, then one
	// ps.AppendWireRow per requested key in request order — to dst and
	// returns the extended slice, copying each row once, from the shard's
	// storage into the outgoing frame. The shard owns the missing-key policy:
	// the MEM-PS creates a parameter referenced for the first time.
	HandlePullBlockWire(ks []keys.Key, dst []byte) ([]byte, error)
	// LookupHandler is the no-create read of evaluation, serving and state
	// export.
	LookupHandler
	// HandlePushBlockStamped merges a block of deltas pushed under the origin
	// client's dedup stamp, so a primary that applies it can forward the same
	// (client, seq) to the keys' backups.
	HandlePushBlockStamped(client, seq uint64, blk *ps.ValueBlock) error
	// HandleReplicate applies a delta block a key's primary already applied
	// and forwarded here (the backup half of primary/backup replication).
	HandleReplicate(blk *ps.ValueBlock) error
	// HandleTransfer imports a key-range state transfer: the rows are
	// authoritative full values, installed outright (idempotent), and the
	// count of accepted rows is returned.
	HandleTransfer(blk *ps.ValueBlock) (int, error)
	// Evict demotes ks out of the tier; nil demotes everything evictable.
	Evict(ks []keys.Key) (int, error)
	// Name and TierStats report the tier's identity and uniform statistics.
	Name() string
	TierStats() ps.Stats
	// HandleMembership installs an epoch-versioned membership change (shard
	// join/leave/promotion), dropping one not newer than the view it holds.
	HandleMembership(u MembershipUpdate) error
	// HandlePredict scores every example of the request against the live
	// parameters and returns one click probability per example, in request
	// order; a full admission queue answers *OverloadError.
	HandlePredict(req PredictRequest) ([]float32, error)
	// HandleServeConfig receives serving-tier configuration from the driver.
	HandleServeConfig(cfg ServeConfig) error
	// ServingStats reports the shard's serving-tier counters.
	ServingStats() ServingStats
}

// TCPServer serves one Shard's operations over TCP. The paper's nodes
// exchange MEM-PS parameters over the data-center network; this server plays
// that role when the nodes run as separate processes.
type TCPServer struct {
	ln    net.Listener
	shard Shard
	seqs  *SeqTracker

	mu     sync.Mutex
	closed bool
	active map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// ServeTCP starts serving shard on addr (e.g. "127.0.0.1:0"). seqs is the
// shard's push-dedup tracker: it belongs to the shard state, not to one
// server, so a server restarted over the same shard keeps deduplicating the
// pushes its predecessor applied.
func ServeTCP(addr string, shard Shard, seqs *SeqTracker) (*TCPServer, error) {
	if shard == nil || seqs == nil {
		return nil, errors.New("cluster: serve needs a shard and its seq tracker")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	s := &TCPServer{ln: ln, shard: shard, seqs: seqs, active: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
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
		out, outBuf := s.dispatchRaw(payload)
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
// it and returns the buffer to the pool. Handler panics are contained per
// request: a poisoned batch must not take the shard server (and every other
// client's parameters) down with it.
func (s *TCPServer) dispatchRaw(payload []byte) (frame []byte, buf *[]byte) {
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
	out, err := ops[op].serve(s, payload, frame)
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

func (s *TCPServer) serveHello(payload, frame []byte) ([]byte, error) {
	if len(payload) != 4 {
		return nil, fmt.Errorf("malformed hello of %d bytes", len(payload))
	}
	if payload[1] != rawWireVersion {
		return nil, fmt.Errorf("peer speaks wire version %d, this shard speaks version %d", payload[1], rawWireVersion)
	}
	frame[6] = rawWireVersion
	return frame, nil
}

func (s *TCPServer) servePull(payload, frame []byte) ([]byte, error) {
	ks, err := parseRawKeyReq(payload)
	if err != nil {
		return nil, err
	}
	return s.shard.HandlePullBlockWire(ks, frame)
}

func (s *TCPServer) serveLookup(payload, frame []byte) ([]byte, error) {
	ks, err := parseRawKeyReq(payload)
	if err != nil {
		return nil, err
	}
	blk := ps.GetBlock(0, nil)
	defer ps.PutBlock(blk)
	if err := s.shard.HandleLookupBlock(ks, blk); err != nil {
		return nil, err
	}
	if blk.PresentCount() == 0 {
		// A reply without a present row declares dimension 0, so its absent
		// rows carry no floats; the client re-shapes it to its own.
		blk.Reset(0, ks)
	}
	return blk.AppendWire(frame), nil
}

func (s *TCPServer) serveEvict(payload, frame []byte) ([]byte, error) {
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
	n, err := s.shard.Evict(ks)
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
func (s *TCPServer) servePush(payload, frame []byte) ([]byte, error) {
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
		err = s.shard.HandleReplicate(blk)
	} else {
		err = s.shard.HandlePushBlockStamped(client, seq, blk)
	}
	if err != nil {
		return nil, err
	}
	s.seqs.commit(client, seq) // applied: persist before the ack leaves
	applied = true
	return frame, nil
}

func (s *TCPServer) serveTransfer(payload, frame []byte) ([]byte, error) {
	_, _, blk, err := decodeRawBlock(payload)
	if err != nil {
		return nil, err
	}
	defer ps.PutBlock(blk)
	n, err := s.shard.HandleTransfer(blk)
	if err != nil {
		return nil, err
	}
	return le.AppendUint64(frame, uint64(n)), nil
}

func (s *TCPServer) servePredict(payload, frame []byte) ([]byte, error) {
	req, err := parseRawPredictReq(payload)
	if err != nil {
		return nil, err
	}
	scores, err := s.shard.HandlePredict(req)
	if err != nil {
		return nil, err
	}
	return appendRawFloats(frame, scores), nil
}

func (s *TCPServer) serveStats(payload, frame []byte) ([]byte, error) {
	if len(payload) != 4 {
		return nil, fmt.Errorf("stats request of %d bytes", len(payload))
	}
	frame, err := binary.Append(frame, le, s.shard.TierStats())
	if err != nil {
		return nil, err
	}
	return append(frame, s.shard.Name()...), nil
}

func (s *TCPServer) serveMembership(payload, frame []byte) ([]byte, error) {
	u, err := parseRawMembership(payload)
	if err != nil {
		return nil, err
	}
	return frame, s.shard.HandleMembership(u)
}

func (s *TCPServer) serveServeConfig(payload, frame []byte) ([]byte, error) {
	cfg, err := parseRawServeConfig(payload)
	if err != nil {
		return nil, err
	}
	return frame, s.shard.HandleServeConfig(cfg)
}

func (s *TCPServer) serveServeStats(payload, frame []byte) ([]byte, error) {
	if len(payload) != 4 {
		return nil, fmt.Errorf("serve-stats request of %d bytes", len(payload))
	}
	return binary.Append(frame, le, s.shard.ServingStats())
}
