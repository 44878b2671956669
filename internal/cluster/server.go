package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"

	"hps/internal/ps"
)

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
// optional interfaces (BlockPushHandler, LookupHandler, EvictHandler,
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
	if err := s.handler.HandlePullBlock(ks, blk); err != nil {
		return nil, err
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
	blk := ps.GetBlock(0, nil)
	defer ps.PutBlock(blk)
	if err := h.HandleLookupBlock(ks, blk); err != nil {
		return nil, err
	}
	if blk.PresentCount() == 0 {
		// A reply without a present row declares dimension 0, so its absent
		// rows carry no floats; the client re-shapes it to its own.
		blk.Reset(0, ks)
	}
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
