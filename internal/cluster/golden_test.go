package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"net"
	"testing"

	"hps/internal/keys"
	"hps/internal/ps"
)

// goldenBlock builds the seeded block the golden wire digests are computed
// over: dimension 8, 2500 rows with sorted distinct keys, every seventh row
// absent (zero slabs), and weights, accumulators and frequencies drawn from a
// fixed seed. A few rows carry signed zeros, subnormals and the largest
// finite float so the digests cover every float class the codec must copy
// bit for bit.
func goldenBlock() *ps.ValueBlock {
	const dim, rows = 8, 2500
	rng := rand.New(rand.NewSource(45))
	ks := make([]keys.Key, rows)
	k := keys.Key(0)
	for i := range ks {
		k += keys.Key(1 + rng.Intn(1000))
		ks[i] = k
	}
	blk := ps.NewValueBlock(dim)
	blk.Reset(dim, ks)
	for i := range ks {
		if i%7 == 3 {
			continue
		}
		blk.Present[i] = true
		blk.Freq[i] = rng.Uint32()
		w, g := blk.WeightsRow(i), blk.G2Row(i)
		for j := range w {
			w[j] = float32(rng.NormFloat64())
			g[j] = float32(rng.ExpFloat64())
		}
	}
	special := []float32{float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.MaxFloat32, 1e-40}
	copy(blk.WeightsRow(1), special)
	copy(blk.G2Row(2), special)
	return blk
}

// The SHA-256 digests of the fp32 wire bytes of goldenBlock: its block body,
// the pull-block reply body a shard server writes for it, and the whole
// push-block request payload a transport sends for it under a fixed dedup
// stamp. Any change to a byte of the row format or of either frame layout
// changes a digest.
const (
	goldenBodySHA = "550688c69127f3f9a5c61032ea7d4bfe64837a9e8e138e1ec5c47555e8f71343"
	goldenPullSHA = "550688c69127f3f9a5c61032ea7d4bfe64837a9e8e138e1ec5c47555e8f71343"
	goldenPushSHA = "02f5ee89e6a45f3d973486abd5ed79f57f87319d3bae1727f9b676edd7652418"
)

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenPullHandler answers every pull with the golden block.
type goldenPullHandler struct {
	stubShard
	blk *ps.ValueBlock
}

func (h goldenPullHandler) HandlePullBlock(ks []keys.Key, dst *ps.ValueBlock) error {
	dst.CopyFrom(h.blk)
	return nil
}

func (h goldenPullHandler) HandlePullBlockWire(ks []keys.Key, dst []byte) ([]byte, error) {
	return wirePull(h, ks, dst)
}

// TestGoldenWireBytes pins the fp32 row format and the pull and push frames
// that carry it to digests, so a change to the codec or the transport that
// moves a single wire byte fails here by name.
func TestGoldenWireBytes(t *testing.T) {
	blk := goldenBlock()
	if got := sha(blk.AppendWire(nil)); got != goldenBodySHA {
		t.Errorf("block body digest %s, want %s", got, goldenBodySHA)
	}

	// The pull reply, as a client that skips the hello sees it.
	srv := serve(t, goldenPullHandler{blk: blk})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := writeRawFrame(conn, appendRawKeyReq(make([]byte, 4), rawOpPullBlock, 0, blk.Keys)); err != nil {
		t.Fatal(err)
	}
	n, err := readFramePrefix(conn)
	if err != nil {
		t.Fatal(err)
	}
	scratch := getScratch()
	defer putScratch(scratch)
	reply, err := readFramePayload(conn, n, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply) < 4 || reply[0] != rawOpPullBlock+1 || reply[1] != rawStatusOK {
		t.Fatalf("pull reply header % x", reply[:min(len(reply), 4)])
	}
	if got := sha(reply[4:]); got != goldenPullSHA {
		t.Errorf("pull reply body digest %s, want %s", got, goldenPullSHA)
	}

	// The push request, captured by a peer that acks the hello at whatever
	// version the transport speaks and then records the next frame.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	captured := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			captured <- nil
			return
		}
		defer c.Close()
		for {
			n, err := readFramePrefix(c)
			if err != nil {
				captured <- nil
				return
			}
			req := make([]byte, n)
			if _, err := readFramePayload(c, n, &req); err != nil {
				captured <- nil
				return
			}
			if req[0] == rawOpHello {
				if _, err := writeRawFrame(c, []byte{0, 0, 0, 0, rawOpHello + 1, rawStatusOK, req[1], 0}); err != nil {
					captured <- nil
					return
				}
				continue
			}
			captured <- req
			writeRawFrame(c, []byte{0, 0, 0, 0, req[0] + 1, rawStatusOK, 0, 0})
			return
		}
	}()
	tr := NewTCPTransport(map[int]string{0: ln.Addr().String()}, blk.Dim)
	defer tr.Close()
	if _, err := tr.PushBlockStamped(0, 0x1234567890abcdef, 42, blk); err != nil {
		t.Fatal(err)
	}
	push := <-captured
	if len(push) == 0 || push[0] != rawOpPushBlock {
		t.Fatalf("captured % x, want a push-block request", push[:min(len(push), 4)])
	}
	if got := sha(push); got != goldenPushSHA {
		t.Errorf("push request digest %s, want %s", got, goldenPushSHA)
	}
}
