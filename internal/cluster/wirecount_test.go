package cluster

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"hps/internal/keys"
	"hps/internal/ps"
)

// countingProxy forwards every connection its listener accepts to target and
// counts the bytes it forwards each way: up from the clients, down from the
// target. A byte is counted when the proxy reads it, before it is forwarded,
// so a client never holds a byte the proxy has not counted.
type countingProxy struct {
	ln       net.Listener
	target   string
	up, down atomic.Int64
	wg       sync.WaitGroup
}

func newCountingProxy(t *testing.T, target string) *countingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &countingProxy{ln: ln, target: target}
	p.wg.Add(1)
	go p.serve()
	return p
}

func (p *countingProxy) serve() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.wg.Add(2)
		go p.pipe(s, c, &p.up)
		go p.pipe(c, s, &p.down)
	}
}

// pipe copies src to dst, counting into n, and closes both ends when src
// ends, which ends the other direction's pipe too.
func (p *countingProxy) pipe(dst, src net.Conn, n *atomic.Int64) {
	defer p.wg.Done()
	io.Copy(dst, countingReader{src, n})
	dst.Close()
	src.Close()
}

// close stops accepting and waits for every pipe, whose connections the
// clients and the target must have closed.
func (p *countingProxy) close() {
	p.ln.Close()
	p.wg.Wait()
}

type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c countingReader) Read(b []byte) (int, error) {
	n, err := c.r.Read(b)
	c.n.Add(int64(n))
	return n, err
}

// TestWireCountersMatchTheSocket holds TransportStats.WireOut and WireIn to an
// independent count: a proxy between NewTCPTransport and ServeTCP counts the
// bytes it forwards each way while the transport pulls, looks up and pushes.
// The dial's hello exchange crosses the proxy too, and the transport counts
// it, so the two counts agree exactly.
func TestWireCountersMatchTheSocket(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", newOpsHandler(), NewSeqTracker())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := newCountingProxy(t, srv.Addr())
	defer proxy.close()
	tr := NewTCPTransport(map[int]string{0: proxy.ln.Addr().String()}, opsDim)
	defer tr.Close()

	blk := ps.NewValueBlock(opsDim)
	calls := []func() (int64, error){
		func() (int64, error) { return tr.PullBlock(0, []keys.Key{1}, blk) },
		func() (int64, error) { return tr.PullBlock(0, []keys.Key{2, 3, 4}, blk) },
		func() (int64, error) { return tr.Lookup(0, []keys.Key{1, 2, 99}, blk) }, // 99 is absent
		func() (int64, error) { return tr.PushBlock(0, opsBlock([]keys.Key{1, 3}, 0.5)) },
	}
	for i, call := range calls {
		if _, err := call(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	st := tr.Stats()
	if st.Dials != 1 {
		t.Fatalf("%d dials, want 1: the counts below assume one connection", st.Dials)
	}
	if up, down := proxy.up.Load(), proxy.down.Load(); st.WireOut != up || st.WireIn != down {
		t.Fatalf("transport counted %d B out and %d B in, the proxy forwarded %d B up and %d B down",
			st.WireOut, st.WireIn, up, down)
	}
	if st.WireOut <= st.BytesOut || st.WireIn <= st.BytesIn {
		t.Fatalf("wire %d/%d B does not exceed the payload %d/%d B", st.WireOut, st.WireIn, st.BytesOut, st.BytesIn)
	}
}
