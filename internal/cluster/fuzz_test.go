package cluster

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"hps/internal/embedding"
	"hps/internal/keys"
	"hps/internal/ps"
)

// wellFormedFrames returns one valid request payload per wire op, keyed by
// what it is.
func wellFormedFrames() map[string][]byte {
	v := embedding.NewValue(4)
	v.Weights[0] = 1.5
	blk := ps.NewValueBlock(4)
	blk.Reset(4, []keys.Key{9})
	blk.Set(0, v)
	frames := map[string][]byte{
		"hello":       {rawOpHello, rawWireVersion, 0, 0},
		"pull-block":  appendRawKeyReq(nil, rawOpPullBlock, 0, []keys.Key{2, 4, 6}),
		"lookup":      appendRawKeyReq(nil, rawOpLookup, 0, []keys.Key{4}),
		"evict":       appendRawKeyReq(nil, rawOpEvict, 0, []keys.Key{1, 2}),
		"evict-all":   appendRawKeyReq(nil, rawOpEvict, rawFlagAll, nil),
		"push-block":  blk.AppendWire(appendRawBlockReq(nil, rawOpPushBlock, 7, 3, blk.Keys)),
		"replicate":   blk.AppendWire(appendRawBlockReq(nil, rawOpReplicate, 7, 4, blk.Keys)),
		"transfer":    blk.AppendWire(appendRawBlockReq(nil, rawOpTransfer, 0, 0, blk.Keys)),
		"predict":     appendRawPredictReq(nil, PredictRequest{Counts: []uint32{2, 0, 1}, Keys: []keys.Key{1, 2, 3}}),
		"stats":       {rawOpStats, 0, 0, 0},
		"serve-stats": {rawOpServeStats, 0, 0, 0},
		"membership": appendRawMembership(nil, MembershipUpdate{Epoch: 3, Members: []int{0, 1}, Replicas: 2,
			Addrs: map[int]string{0: "127.0.0.1:7000", 1: "127.0.0.1:7001"}}),
		"serve-config": appendRawServeConfig(nil, ServeConfig{Addrs: map[int]string{1: "b:2"}, Dense: []float32{1, 2}, Epoch: 5}),
	}
	return frames
}

// v3Push returns a push-block request whose body is wire version 3's: the
// header tags the rows with encoding tag (1 fp16, 2 int8), followed by zeroed
// rows of rowBytes each.
func v3Push(tag byte, rowBytes int) []byte {
	ks := []keys.Key{9}
	frame := appendRawBlockReq(nil, rawOpPushBlock, 7, 3, ks)
	hdr := len(frame)
	frame = ps.AppendWireHeader(frame, 4, len(ks))
	frame[hdr+3] = tag
	return append(frame, make([]byte, len(ks)*rowBytes)...)
}

// malformedFrames returns request payloads a hostile or broken peer could
// send: each must be answered with an error frame, without a panic and
// without sizing an allocation from a count the payload cannot back.
func malformedFrames() map[string][]byte {
	good := wellFormedFrames()
	membership := good["membership"]
	bigCount := bytes.Clone(membership)
	binary.LittleEndian.PutUint32(bigCount[4+24:], 1<<31-1) // nmembers, far beyond the payload
	denseCount := bytes.Clone(good["serve-config"])
	binary.LittleEndian.PutUint32(denseCount[4+16:], 1<<30) // ndense
	return map[string][]byte{
		"truncated address book":       membership[:len(membership)-5],
		"address longer than payload":  append(bytes.Clone(membership[:len(membership)-14]), 0xff, 0xff, 0xff, 0x7f),
		"member count beyond payload":  bigCount,
		"dense count beyond payload":   denseCount,
		"membership with no members":   appendRawMembership(nil, MembershipUpdate{Epoch: 1}),
		"trailing bytes":               append(bytes.Clone(membership), 0),
		"evict-all with trailing keys": appendRawKeyReq(nil, rawOpEvict, rawFlagAll, []keys.Key{1, 2}),
		"key count beyond payload":     append([]byte{rawOpPullBlock, 0, 0, 0}, 0xff, 0xff, 0xff, 0xff),
		"push without a block":         appendRawBlockReq(nil, rawOpPushBlock, 1, 1, []keys.Key{5}),
		"push with a v3 fp16 body":     v3Push(1, 5+4*4),
		"push with a v3 int8 body":     v3Push(2, 5+8+2*4),
		"predict counts beyond keys":   appendRawPredictReq(nil, PredictRequest{Counts: []uint32{5}, Keys: []keys.Key{1}}),
		"stats with a body":            {rawOpStats, 0, 0, 0, 9},
		"short header":                 {rawOpStats, 0},
		"hello from another version":   {rawOpHello, rawWireVersion - 1, 0, 0},
		"response op as a request":     {rawOpPullBlock + 1, 0, 0, 0},
		"unknown op":                   {99, 0, 0, 0},
	}
}

// TestMalformedFramesAnswerErrors pins the rejection of every malformed shape
// above (the fuzzer only asserts the absence of panics).
func TestMalformedFramesAnswerErrors(t *testing.T) {
	srv := &TCPServer{seqs: NewSeqTracker(), handler: newOpsHandler()}
	for name, payload := range malformedFrames() {
		out, buf := srv.dispatchRaw(payload)
		if len(out) < 8 || out[4] != payload[0]+1 || out[5] != rawStatusErr {
			t.Errorf("%s: answered % x, want an error frame", name, out)
		}
		if strings.Contains(string(out[8:]), "panicked") {
			t.Errorf("%s: rejected by a contained panic, not a check: %s", name, out[8:])
		}
		if strings.Contains(name, "v3") && !strings.Contains(string(out[8:]), "row encoding tag") {
			t.Errorf("%s: refused as %q, not by its encoding tag", name, out[8:])
		}
		putScratch(buf)
	}
	for name, payload := range wellFormedFrames() {
		out, buf := srv.dispatchRaw(payload)
		if out[5] != rawStatusOK {
			t.Errorf("%s: well-formed frame refused: %s", name, out[8:])
		}
		putScratch(buf)
	}
}

// FuzzWireCodec feeds arbitrary bytes through the stream reader and — as a
// request payload — through the server dispatch, then through the client-side
// reply parsers. The codec faces the network, so a malformed, truncated, or
// hostile frame must come back as an error — never a panic (dispatch
// contains handler panics, so a parser that panics shows up as a "panicked"
// error frame, which the target rejects) or an allocation sized by a count
// the bytes cannot back.
func FuzzWireCodec(f *testing.F) {
	// Seed with well-formed frames of every operation, and the known
	// malformed shapes, so the fuzzer mutates from the real wire format.
	for _, frame := range wellFormedFrames() {
		f.Add(frame)
	}
	for _, frame := range malformedFrames() {
		f.Add(frame)
	}
	f.Add([]byte{0x80, 0, 0, 1, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	srv := &TCPServer{seqs: NewSeqTracker(), handler: newOpsHandler()}

	f.Fuzz(func(t *testing.T, data []byte) {
		// As a byte stream: the frame reader must reject or delimit it.
		r := bytes.NewReader(data)
		if n, err := readFramePrefix(r); err == nil {
			scratch := getScratch()
			_, _ = readFramePayload(r, n, scratch)
			putScratch(scratch)
		}
		// As a request payload: the dispatch must always produce a
		// well-formed response frame.
		if len(data) > 0 && len(data) <= MaxFrameBytes {
			out, buf := srv.dispatchRaw(data)
			if len(out) < 8 || out[4] != data[0]+1 {
				t.Fatalf("dispatch produced a malformed frame: % x", out)
			}
			if out[5] != rawStatusOK && strings.Contains(string(out[8:]), "panicked") {
				t.Fatalf("dispatch contained a panic: %s", out[8:])
			}
			*buf = out[:0]
			putScratch(buf)
		}
		// As a reply body: every client-side parser must fail cleanly.
		dst := ps.NewValueBlock(0)
		_ = dst.DecodeWire([]keys.Key{1, 2}, data)
		_, _ = parseRawScores(data)
		var n int
		_ = parseRawCount(&n)(data)
		var st ServingStats
		_, _ = binary.Decode(data, le, &st)
	})
}
