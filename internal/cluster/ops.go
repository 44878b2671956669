package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"hps/internal/keys"
)

// The wire protocol between nodes is a stream of length-prefixed frames: a
// 4-byte big-endian prefix followed by one payload. The prefix's top bit is
// always set (payloads are capped far below it); a prefix without it comes
// from a peer speaking some other protocol, and the connection is dropped.
// Every payload has a fixed binary layout — keys and block bodies are
// appended straight into the frame and decoded straight out of it
// (ps.ValueBlock.DecodeWire lands rows in the destination slabs, no
// intermediate copy).
//
// The explicit frame boundary is what keeps a malformed or truncated payload
// contained — the server can reject a frame without losing stream
// synchronization, and the length cap bounds how much memory a single frame
// may ask it to allocate.

// rawMagicBit marks a length prefix as introducing a frame of this protocol.
const rawMagicBit uint32 = 1 << 31

// rawWireVersion is the one wire version this build speaks. The hello
// exchange at dial time checks it; a peer of any other version is refused.
// Version 4 dropped version 3's per-connection fp16/int8 row encodings: every
// block body is fp32. Version 5 dropped the modelled pull and push times from
// the stats reply.
const rawWireVersion = 5

// Frame operations. Every payload starts with the op byte. A response's op is
// its request's plus one, so a desynchronized stream is detected instead of
// misparsed.
const (
	rawOpHello       uint8 = 1  // check the wire version
	rawOpPullBlock   uint8 = 3  // read a key set as one block (creating keys is handler policy)
	rawOpPushBlock   uint8 = 5  // merge one block of deltas, exactly once per dedup stamp
	rawOpPredict     uint8 = 7  // score feature-key batches against live parameters
	rawOpReplicate   uint8 = 9  // push-block layout carrying the ORIGIN's dedup stamp to a backup
	rawOpLookup      uint8 = 11 // pull-block layout that never materializes missing keys
	rawOpTransfer    uint8 = 13 // push-block layout whose rows are set outright (resharding)
	rawOpEvict       uint8 = 15 // demote keys out of the tier (rawFlagAll = everything)
	rawOpStats       uint8 = 17 // read the tier's name and uniform statistics
	rawOpMembership  uint8 = 19 // install an epoch-versioned membership change
	rawOpServeConfig uint8 = 21 // activate/refresh the serving tier (addrs, dense params)
	rawOpServeStats  uint8 = 23 // read the serving-tier counters
)

// rawFlagAll, in an evict request's flag byte, is the nil-slice form of
// ps.Tier.Evict (everything evictable), which a key count of zero cannot
// express: an empty key set evicts nothing.
const rawFlagAll uint8 = 1

// rawStatus values of a response's second byte.
const (
	rawStatusOK         uint8 = 0
	rawStatusErr        uint8 = 1 // payload carries the error message
	rawStatusOverloaded uint8 = 2 // admission queue full: typed, retryable
)

// serveFunc executes one request against the server's handler. payload is the
// whole request (op byte first, at least the 4-byte header); frame already
// holds the length-prefix placeholder and an ok response header, and the
// function returns it with the reply body appended. A returned error becomes
// an error frame.
type serveFunc func(s *TCPServer, payload, frame []byte) ([]byte, error)

// ops is the one table of wire operations: the name errors and reports use,
// and the server-side implementation.
var ops = [...]struct {
	name  string
	serve serveFunc
}{
	rawOpHello:       {"hello", (*TCPServer).serveHello},
	rawOpPullBlock:   {"pull-block", (*TCPServer).servePull},
	rawOpPushBlock:   {"push-block", (*TCPServer).servePush},
	rawOpPredict:     {"predict", (*TCPServer).servePredict},
	rawOpReplicate:   {"replicate", (*TCPServer).servePush},
	rawOpLookup:      {"lookup", (*TCPServer).serveLookup},
	rawOpTransfer:    {"transfer", (*TCPServer).serveTransfer},
	rawOpEvict:       {"evict", (*TCPServer).serveEvict},
	rawOpStats:       {"stats", (*TCPServer).serveStats},
	rawOpMembership:  {"membership", (*TCPServer).serveMembership},
	rawOpServeConfig: {"serve-config", (*TCPServer).serveServeConfig},
	rawOpServeStats:  {"serve-stats", (*TCPServer).serveServeStats},
}

// opName names a request op for errors and reports.
func opName(op uint8) string {
	if int(op) < len(ops) && ops[op].name != "" {
		return ops[op].name
	}
	return fmt.Sprintf("op#%d", op)
}

// MaxFrameBytes caps the payload of a single wire frame. Larger frames are
// rejected before any allocation happens, so a corrupt length prefix cannot
// make a peer allocate unbounded memory.
const MaxFrameBytes = 64 << 20

// scratchPool recycles the byte slices frames are built in and received into.
var scratchPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// maxPooledScratch keeps the occasional giant frame from pinning its buffer
// in the pool forever.
const maxPooledScratch = 4 << 20

func getScratch() *[]byte { return scratchPool.Get().(*[]byte) }

func putScratch(b *[]byte) {
	if cap(*b) > maxPooledScratch {
		return
	}
	*b = (*b)[:0]
	scratchPool.Put(b)
}

// writeRawFrame stamps the length prefix into frame's reserved first four
// bytes and writes the whole frame in one call, returning the bytes written.
// The builder appends the payload after a 4-byte placeholder so the frame
// goes out in a single Write — no separate prefix write, no concatenation.
func writeRawFrame(w io.Writer, frame []byte) (int, error) {
	payload := len(frame) - 4
	if payload <= 0 || payload > MaxFrameBytes {
		return 0, fmt.Errorf("cluster: frame of %d bytes out of range (limit %d)", payload, MaxFrameBytes)
	}
	binary.BigEndian.PutUint32(frame[:4], rawMagicBit|uint32(payload))
	return w.Write(frame)
}

// readFramePrefix reads one frame's length prefix and returns the payload
// length. It returns io.EOF unwrapped when the stream ends cleanly between
// frames so connection loops can distinguish shutdown from corruption.
func readFramePrefix(r io.Reader) (uint32, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("cluster: read frame prefix: %w", err)
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n&rawMagicBit == 0 {
		return 0, fmt.Errorf("cluster: frame prefix %#08x is not this protocol's", n)
	}
	n &^= rawMagicBit
	if n == 0 || n > MaxFrameBytes {
		return 0, fmt.Errorf("cluster: frame length %d out of range (limit %d)", n, MaxFrameBytes)
	}
	return n, nil
}

// readFramePayload fills the pooled scratch slice with a frame's n payload
// bytes and returns the filled view. The caller returns scratch to the pool
// when it is done with the view — for block replies that is after DecodeWire
// has landed the rows in their destination slabs, which is what makes the
// receive buffer a reusable landing zone instead of a per-reply allocation.
func readFramePayload(r io.Reader, n uint32, scratch *[]byte) ([]byte, error) {
	if cap(*scratch) < int(n) {
		*scratch = make([]byte, n)
	}
	payload := (*scratch)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("cluster: read frame payload: %w", err)
	}
	return payload, nil
}

// Payload layouts (all integers little-endian, after the 4-byte big-endian
// stream prefix). Every request starts with op, flags, pad[2]; every response
// with op, status, pad[2], followed by the body below when the status is ok
// and by the error message otherwise.
//
//	hello        req : op, version, pad[2]
//	             resp: op, status, version, pad
//	pull, lookup req : header, nkeys u32, keys u64...
//	             resp: the block body
//	evict        req : pull layout; rawFlagAll set means everything, no keys
//	             resp: count u64
//	push, replicate, transfer
//	             req : header, client u64, seq u64, nkeys u32, keys u64..., body
//	             resp: nothing (transfer: count u64)
//	predict      req : header, nexamples u32, counts u32..., keys u64...
//	             resp: nscores u32, scores f32...
//	stats        req : header
//	             resp: ps.Stats as 6 fixed words, then the tier name
//	serve-stats  req : header
//	             resp: ServingStats as 15 fixed words
//	membership   req : header, epoch u64, replicas i64, nmembers u32,
//	                   members i64..., address book
//	serve-config req : header, epoch u64, trained epoch u64,
//	                   ndense u32, dense f32..., address book
//	address book     : n u32, then n x (id i64, len u32, bytes)
//
// Keys travel as fixed 8-byte words and bodies as ps wire bytes, so both ends
// move them with append/DecodeWire instead of an encoder.

var le = binary.LittleEndian

// appendRawKeyReq appends a pull-layout request (pull, lookup, evict).
func appendRawKeyReq(dst []byte, op, flags uint8, ks []keys.Key) []byte {
	dst = append(dst, op, flags, 0, 0)
	dst = le.AppendUint32(dst, uint32(len(ks)))
	return appendRawKeys(dst, ks)
}

// appendRawBlockReq appends a push-layout request (push, replicate, transfer)
// up to the keys; the caller appends the encoded block body behind it. For a
// replicate, client/seq are the ORIGIN's dedup stamp rather than the sending
// transport's; a transfer is idempotent and carries zeros.
func appendRawBlockReq(dst []byte, op uint8, client, seq uint64, ks []keys.Key) []byte {
	dst = append(dst, op, 0, 0, 0)
	dst = le.AppendUint64(dst, client)
	dst = le.AppendUint64(dst, seq)
	dst = le.AppendUint32(dst, uint32(len(ks)))
	return appendRawKeys(dst, ks)
}

func appendRawKeys(dst []byte, ks []keys.Key) []byte {
	for _, k := range ks {
		dst = le.AppendUint64(dst, uint64(k))
	}
	return dst
}

// parseRawKeyReq validates and decodes a pull-layout request payload. The
// payload may come from a hostile peer: the key count must account for the
// payload exactly.
func parseRawKeyReq(payload []byte) ([]keys.Key, error) {
	if len(payload) < 8 {
		return nil, fmt.Errorf("cluster: key request of %d bytes", len(payload))
	}
	n := int(le.Uint32(payload[4:8]))
	if n*8 != len(payload)-8 {
		return nil, fmt.Errorf("cluster: key request: %d keys in %d payload bytes", n, len(payload))
	}
	return parseRawKeys(payload[8:], n), nil
}

// parseRawBlockReq validates and decodes a push-layout request payload. The
// returned keys are freshly allocated; body aliases the payload, so the
// caller must finish with it before recycling the receive buffer.
func parseRawBlockReq(payload []byte) (client, seq uint64, ks []keys.Key, body []byte, err error) {
	if len(payload) < 24 {
		return 0, 0, nil, nil, fmt.Errorf("cluster: block request of %d bytes", len(payload))
	}
	client = le.Uint64(payload[4:12])
	seq = le.Uint64(payload[12:20])
	n := int(le.Uint32(payload[20:24]))
	if n > (len(payload)-24)/8 {
		return 0, 0, nil, nil, fmt.Errorf("cluster: block request: %d keys in %d payload bytes", n, len(payload))
	}
	ks = parseRawKeys(payload[24:], n)
	body = payload[24+8*n:]
	if len(body) == 0 {
		return 0, 0, nil, nil, fmt.Errorf("cluster: block request carries no block")
	}
	return client, seq, ks, body, nil
}

func parseRawKeys(b []byte, n int) []keys.Key {
	ks := make([]keys.Key, n)
	for i := range ks {
		ks[i] = keys.Key(le.Uint64(b[8*i : 8*i+8]))
	}
	return ks
}

// appendRawPredictReq appends a predict request payload to dst: the CSR
// layout of PredictRequest as per-example counts followed by the flat keys.
func appendRawPredictReq(dst []byte, req PredictRequest) []byte {
	dst = append(dst, rawOpPredict, 0, 0, 0)
	dst = le.AppendUint32(dst, uint32(len(req.Counts)))
	for _, c := range req.Counts {
		dst = le.AppendUint32(dst, c)
	}
	return appendRawKeys(dst, req.Keys)
}

// parseRawPredictReq validates and decodes a predict request payload. The
// payload may come from a hostile peer: the example count and per-example
// feature counts must account for the payload exactly.
func parseRawPredictReq(payload []byte) (PredictRequest, error) {
	if len(payload) < 8 {
		return PredictRequest{}, fmt.Errorf("cluster: predict request of %d bytes", len(payload))
	}
	n := int(le.Uint32(payload[4:8]))
	if n > (len(payload)-8)/4 {
		return PredictRequest{}, fmt.Errorf("cluster: predict request: %d examples in %d payload bytes", n, len(payload))
	}
	counts := make([]uint32, n)
	total := 0
	for i := range counts {
		counts[i] = le.Uint32(payload[8+4*i:])
		total += int(counts[i])
		if total > MaxFrameBytes {
			return PredictRequest{}, fmt.Errorf("cluster: predict request: counts overflow")
		}
	}
	rest := payload[8+4*n:]
	if total*8 != len(rest) {
		return PredictRequest{}, fmt.Errorf("cluster: predict request: counts sum to %d keys but %d key bytes given", total, len(rest))
	}
	return PredictRequest{Counts: counts, Keys: parseRawKeys(rest, total)}, nil
}

// appendRawFloats appends a counted float32 vector: a predict reply's scores,
// a serve-config's dense parameters.
func appendRawFloats(dst []byte, fs []float32) []byte {
	dst = le.AppendUint32(dst, uint32(len(fs)))
	for _, f := range fs {
		dst = le.AppendUint32(dst, math.Float32bits(f))
	}
	return dst
}

// parseRawScores validates and decodes a predict response body.
func parseRawScores(body []byte) ([]float32, error) {
	r := wireReader{b: body}
	scores := r.floats()
	return scores, r.done()
}

// wireReader consumes the counted fields of a frame that may come from a
// hostile peer. The first field that overruns the payload latches err and
// every later read returns zero, so callers check once, in done.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.err = fmt.Errorf("cluster: frame truncated: field of %d bytes, %d left", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *wireReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return le.Uint32(b)
	}
	return 0
}

func (r *wireReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return le.Uint64(b)
	}
	return 0
}

func (r *wireReader) int() int { return int(int64(r.u64())) }

// count reads an element count and checks that the rest of the payload can
// hold that many elements of at least elemSize bytes, so a hostile count
// never sizes an allocation beyond the frame that carried it.
func (r *wireReader) count(elemSize int) int {
	n := int(r.u32())
	if r.err == nil && (n < 0 || n > len(r.b)/elemSize) {
		r.err = fmt.Errorf("cluster: frame claims %d elements in %d bytes", n, len(r.b))
	}
	if r.err != nil {
		return 0
	}
	return n
}

// floats reads a counted float32 vector; an empty vector reads as nil.
func (r *wireReader) floats() []float32 {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(r.u32())
	}
	return out
}

// ints reads a counted int vector; an empty vector reads as nil.
func (r *wireReader) ints() []int {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.int()
	}
	return out
}

// addrs reads an address book; an empty book reads as nil (ServeConfig and
// MembershipUpdate both treat a nil book as "no change").
func (r *wireReader) addrs() map[int]string {
	n := r.count(12)
	if n == 0 {
		return nil
	}
	out := make(map[int]string, n)
	for i := 0; i < n && r.err == nil; i++ {
		id := r.int()
		out[id] = string(r.take(int(r.u32())))
	}
	return out
}

// done reports the first overrun, or bytes left over: a control frame must be
// accounted for exactly.
func (r *wireReader) done() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("cluster: frame has %d trailing bytes", len(r.b))
	}
	return r.err
}

func appendRawAddrs(dst []byte, addrs map[int]string) []byte {
	dst = le.AppendUint32(dst, uint32(len(addrs)))
	for id, a := range addrs {
		dst = le.AppendUint64(dst, uint64(id))
		dst = le.AppendUint32(dst, uint32(len(a)))
		dst = append(dst, a...)
	}
	return dst
}

// appendRawMembership appends a membership request payload.
func appendRawMembership(dst []byte, u MembershipUpdate) []byte {
	dst = append(dst, rawOpMembership, 0, 0, 0)
	dst = le.AppendUint64(dst, u.Epoch)
	dst = le.AppendUint64(dst, uint64(u.Replicas))
	dst = le.AppendUint32(dst, uint32(len(u.Members)))
	for _, m := range u.Members {
		dst = le.AppendUint64(dst, uint64(m))
	}
	return appendRawAddrs(dst, u.Addrs)
}

// parseRawMembership decodes and validates a membership request payload.
func parseRawMembership(payload []byte) (MembershipUpdate, error) {
	r := wireReader{b: payload[4:]}
	var u MembershipUpdate
	u.Epoch = r.u64()
	u.Replicas = r.int()
	u.Members = r.ints()
	u.Addrs = r.addrs()
	if err := r.done(); err != nil {
		return MembershipUpdate{}, err
	}
	return u, u.Validate()
}

// appendRawServeConfig appends a serve-config request payload.
func appendRawServeConfig(dst []byte, cfg ServeConfig) []byte {
	dst = append(dst, rawOpServeConfig, 0, 0, 0)
	dst = le.AppendUint64(dst, cfg.Epoch)
	dst = le.AppendUint64(dst, cfg.TrainedEpoch)
	dst = appendRawFloats(dst, cfg.Dense)
	return appendRawAddrs(dst, cfg.Addrs)
}

// parseRawServeConfig decodes a serve-config request payload.
func parseRawServeConfig(payload []byte) (ServeConfig, error) {
	r := wireReader{b: payload[4:]}
	var cfg ServeConfig
	cfg.Epoch = r.u64()
	cfg.TrainedEpoch = r.u64()
	cfg.Dense = r.floats()
	cfg.Addrs = r.addrs()
	return cfg, r.done()
}
