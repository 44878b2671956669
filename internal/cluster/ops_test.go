package cluster

import (
	"encoding/hex"
	"errors"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"hps/internal/embedding"
	"hps/internal/keys"
	"hps/internal/ps"
)

const opsDim = 4

// opsHandler implements every server-side handler interface over a small
// deterministic in-memory shard, so one instance behind a TCPServer and one
// behind a LocalTransport can be driven through the same calls and compared.
// When fail is set every fallible method returns it.
type opsHandler struct {
	mu         sync.Mutex
	fail       error
	vals       map[keys.Key]*embedding.Value
	replicated []keys.Key
	membership MembershipUpdate
	config     ServeConfig
}

func newOpsHandler() *opsHandler {
	return &opsHandler{vals: make(map[keys.Key]*embedding.Value)}
}

func (h *opsHandler) HandlePullBlock(ks []keys.Key, dst *ps.ValueBlock) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fail != nil {
		return h.fail
	}
	dst.Reset(opsDim, ks)
	for i, k := range ks {
		v, ok := h.vals[k]
		if !ok {
			v = embedding.NewValue(opsDim)
			v.Weights[0] = float32(k)
			h.vals[k] = v
		}
		dst.Set(i, v)
	}
	return nil
}

func (h *opsHandler) HandleLookupBlock(ks []keys.Key, dst *ps.ValueBlock) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fail != nil {
		return h.fail
	}
	dst.Reset(opsDim, ks)
	for i, k := range ks {
		if v, ok := h.vals[k]; ok {
			dst.Set(i, v)
		}
	}
	return nil
}

func (h *opsHandler) HandlePushBlock(blk *ps.ValueBlock) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fail != nil {
		return h.fail
	}
	for i, k := range blk.Keys {
		if !blk.Present[i] {
			continue
		}
		v, ok := h.vals[k]
		if !ok {
			v = embedding.NewValue(opsDim)
			h.vals[k] = v
		}
		v.AddFlat(blk.WeightsRow(i), blk.G2Row(i), blk.Freq[i])
	}
	return nil
}

func (h *opsHandler) HandleReplicate(blk *ps.ValueBlock) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fail != nil {
		return h.fail
	}
	h.replicated = append(h.replicated, blk.Keys...)
	return nil
}

func (h *opsHandler) HandleTransfer(blk *ps.ValueBlock) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fail != nil {
		return 0, h.fail
	}
	n := 0
	for i, k := range blk.Keys {
		if v := blk.Value(i); v != nil {
			h.vals[k] = v
			n++
		}
	}
	return n, nil
}

func (h *opsHandler) Evict(ks []keys.Key) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fail != nil {
		return 0, h.fail
	}
	if ks == nil {
		n := len(h.vals)
		clear(h.vals)
		return n, nil
	}
	n := 0
	for _, k := range ks {
		if _, ok := h.vals[k]; ok {
			delete(h.vals, k)
			n++
		}
	}
	return n, nil
}

func (h *opsHandler) Name() string { return "ops-tier" }

func (h *opsHandler) TierStats() ps.Stats {
	return ps.Stats{Pulls: 1, Pushes: 2, Evictions: 3, KeysPulled: 4, KeysPushed: 5, KeysEvicted: 6}
}

func (h *opsHandler) HandleMembership(u MembershipUpdate) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fail != nil {
		return h.fail
	}
	h.membership = u
	return nil
}

func (h *opsHandler) HandlePredict(req PredictRequest) ([]float32, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fail != nil {
		return nil, h.fail
	}
	scores := make([]float32, len(req.Counts))
	off := 0
	for i, c := range req.Counts {
		for _, k := range req.Keys[off : off+int(c)] {
			scores[i] += float32(k % 97)
		}
		off += int(c)
	}
	return scores, nil
}

func (h *opsHandler) HandleServeConfig(cfg ServeConfig) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fail != nil {
		return h.fail
	}
	h.config = cfg
	return nil
}

func (h *opsHandler) ServingStats() ServingStats {
	return ServingStats{Requests: 1, Examples: 2, Rejected: 3, Coalesced: 4, LocalKeys: 5, CacheHits: 6,
		CacheMisses: 7, PeerFetches: 8, PeerKeys: 9, Degraded: 10, FailedOver: 11,
		PushEpoch: 12, DenseEpoch: 13, StalenessMax: 14, PushEpochLag: 15}
}

// state snapshots everything the write ops can change.
func (h *opsHandler) state() any {
	h.mu.Lock()
	defer h.mu.Unlock()
	vals := make(map[keys.Key]embedding.Value, len(h.vals))
	for k, v := range h.vals {
		vals[k] = *v.Clone()
	}
	return []any{vals, append([]keys.Key(nil), h.replicated...), h.membership, h.config}
}

// pullOnly is a handler with none of the optional interfaces.
type pullOnly struct{}

func (pullOnly) HandlePullBlock(ks []keys.Key, dst *ps.ValueBlock) error {
	dst.Reset(opsDim, ks)
	return nil
}

// opSurface is the client surface of the eleven post-hello wire ops.
type opSurface interface {
	TierTransport
	Replicate(nodeID int, client, seq uint64, blk *ps.ValueBlock) (int64, error)
	Transfer(nodeID int, blk *ps.ValueBlock) (int, error)
	UpdateMembership(nodeID int, u MembershipUpdate) error
	Predict(nodeID int, req PredictRequest) ([]float32, error)
	PublishServeConfig(nodeID int, cfg ServeConfig) error
	ServingStats(nodeID int) (ServingStats, error)
}

// localSurface completes LocalTransport, which has no serving-tier methods
// (nothing in-process calls them), with direct handler calls — the reference
// the TCP results are compared against.
type localSurface struct {
	*LocalTransport
	h *opsHandler
}

func (l localSurface) Predict(_ int, req PredictRequest) ([]float32, error) {
	return l.h.HandlePredict(req)
}
func (l localSurface) PublishServeConfig(_ int, cfg ServeConfig) error {
	return l.h.HandleServeConfig(cfg)
}
func (l localSurface) ServingStats(int) (ServingStats, error) { return l.h.ServingStats(), nil }

func opsBlock(ks []keys.Key, w float32) *ps.ValueBlock {
	blk := ps.NewValueBlock(opsDim)
	for _, k := range ks {
		v := embedding.NewValue(opsDim)
		v.Weights[1], v.G2Sum[2], v.Freq = w, w/2, 3
		blk.AppendRow(k, v.Weights, v.G2Sum, v.Freq)
	}
	return blk
}

// blockRows flattens a block for comparison.
func blockRows(b *ps.ValueBlock) any {
	return []any{b.Dim, append([]keys.Key(nil), b.Keys...), append([]float32(nil), b.Weights...),
		append([]float32(nil), b.G2Sum...), append([]uint32(nil), b.Freq...), append([]bool(nil), b.Present...)}
}

// TestEveryOpOverTCP drives every wire op through a real socket and through
// the in-process transport against identical handlers: the returned values
// and the handlers' resulting state must match exactly (the default wire is
// fp32, so nothing is allowed to round). For each op it also checks the two
// failure shapes a caller can tell apart without string matching: a shard
// whose handler lacks the op answers *RemoteError, and a handler shedding load
// answers *OverloadError without the transport spending a single retry.
func TestEveryOpOverTCP(t *testing.T) {
	tcpH, localH := newOpsHandler(), newOpsHandler()
	srv, err := ServeTCP("127.0.0.1:0", tcpH)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	bare, err := ServeTCP("127.0.0.1:0", pullOnly{})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	tr := NewTCPTransport(map[int]string{0: srv.Addr(), 1: bare.Addr()}, opsDim)
	defer tr.Close()
	lt := NewLocalTransport(opsDim)
	lt.Register(0, localH)
	local := localSurface{LocalTransport: lt, h: localH}

	membership := MembershipUpdate{Epoch: 7, Members: []int{0, 2, 5}, Replicas: 2,
		Addrs: map[int]string{0: "10.0.0.1:7000", 2: "[::1]:7002", 5: ""}}
	var replicaSeq uint64
	lookupSome := []keys.Key{3, 77, 123456} // 123456 is never created
	lookupMissing := []keys.Key{123456}
	lookupDup := []keys.Key{77, 123456, 3, 77}
	// replies pins each lookup row's encoded reply (status header, then the
	// block body; hex) against the shard state the rows before it leave.
	replies := map[string]struct {
		ks  []keys.Key
		hex string
	}{
		"lookup": {lookupSome, "0c000000" + "04000000" + "03000000" +
			"01" + "03000000" + "00004040" + "0000003f" + "00000000" + "00000000" + "00000000" + "00000000" + "0000803e" + "00000000" +
			"01" + "03000000" + "00000000" + "0000003f" + "00000000" + "00000000" + "00000000" + "00000000" + "0000803e" + "00000000" +
			"00" + "00000000" + "00000000" + "00000000" + "00000000" + "00000000" + "00000000" + "00000000" + "00000000" + "00000000"},
		// No row present: the header keeps dimension 0 and rows carry no floats.
		"lookup all missing": {lookupMissing, "0c000000" + "00000000" + "01000000" + "00" + "00000000"},
		"lookup duplicate unsorted": {lookupDup, "0c000000" + "04000000" + "04000000" +
			"01" + "03000000" + "00000000" + "0000003f" + "00000000" + "00000000" + "00000000" + "00000000" + "0000803e" + "00000000" +
			"00" + "00000000" + "00000000" + "00000000" + "00000000" + "00000000" + "00000000" + "00000000" + "00000000" + "00000000" +
			"01" + "03000000" + "00004040" + "0000003f" + "00000000" + "00000000" + "00000000" + "00000000" + "0000803e" + "00000000" +
			"01" + "03000000" + "00000000" + "0000003f" + "00000000" + "00000000" + "00000000" + "00000000" + "0000803e" + "00000000"},
	}
	rows := []struct {
		op       uint8
		name     string
		required bool // every handler serves it: no missing-handler case
		total    bool // the handler method cannot fail: no overload case
		run      func(tr opSurface, node int) (any, error)
	}{
		{rawOpPullBlock, "pull-block", true, false, func(tr opSurface, node int) (any, error) {
			blk := ps.NewValueBlock(opsDim)
			n, err := tr.PullBlock(node, []keys.Key{9, 3, 3, 1 << 40}, blk)
			return []any{n, blockRows(blk)}, err
		}},
		{rawOpPushBlock, "push-block", false, false, func(tr opSurface, node int) (any, error) {
			return tr.PushBlock(node, opsBlock([]keys.Key{3, 77}, 0.5))
		}},
		{rawOpReplicate, "replicate", false, false, func(tr opSurface, node int) (any, error) {
			replicaSeq++ // a reused stamp would be acked as a duplicate, handler unseen
			return tr.Replicate(node, 41, replicaSeq, opsBlock([]keys.Key{8, 9}, 1))
		}},
		{rawOpLookup, "lookup", false, false, lookupRun(lookupSome)},
		{rawOpLookup, "lookup all missing", false, false, lookupRun(lookupMissing)},
		{rawOpLookup, "lookup duplicate unsorted", false, false, lookupRun(lookupDup)},
		{rawOpTransfer, "transfer", false, false, func(tr opSurface, node int) (any, error) {
			return tr.Transfer(node, opsBlock([]keys.Key{1000, 1001, 3}, 4))
		}},
		{rawOpEvict, "evict keys", false, false, func(tr opSurface, node int) (any, error) {
			return tr.Evict(node, []keys.Key{1000, 424242})
		}},
		{rawOpEvict, "evict nothing", false, false, func(tr opSurface, node int) (any, error) {
			return tr.Evict(node, []keys.Key{}) // empty is not nil: evicts nothing
		}},
		{rawOpStats, "stats", false, true, func(tr opSurface, node int) (any, error) {
			return tr.TierStats(node)
		}},
		{rawOpMembership, "membership", false, false, func(tr opSurface, node int) (any, error) {
			return nil, tr.UpdateMembership(node, membership)
		}},
		{rawOpPredict, "predict", false, false, func(tr opSurface, node int) (any, error) {
			return tr.Predict(node, PredictRequest{Counts: []uint32{2, 0, 3}, Keys: []keys.Key{10, 20, 30, 40, 50}})
		}},
		{rawOpServeConfig, "serve-config", false, false, func(tr opSurface, node int) (any, error) {
			return nil, tr.PublishServeConfig(node, ServeConfig{Addrs: map[int]string{0: "a:1", 1: "b:2"},
				Dense: []float32{1, -2.5, 3}, Epoch: 9, TrainedEpoch: 11})
		}},
		{rawOpServeConfig, "serve-config refresh", false, false, func(tr opSurface, node int) (any, error) {
			return nil, tr.PublishServeConfig(node, ServeConfig{Dense: []float32{4}, Epoch: 10, TrainedEpoch: 10})
		}},
		{rawOpServeStats, "serve-stats", false, true, func(tr opSurface, node int) (any, error) {
			return tr.ServingStats(node)
		}},
		{rawOpEvict, "evict all", false, false, func(tr opSurface, node int) (any, error) {
			return tr.Evict(node, nil)
		}},
	}
	covered := map[uint8]bool{rawOpHello: true} // every dial below starts with one
	for _, tc := range rows {
		covered[tc.op] = true
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.run(local, 0)
			if err != nil {
				t.Fatalf("in-process reference: %v", err)
			}
			got, err := tc.run(tr, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("over TCP   %+v\nin-process %+v", got, want)
			}
			if g, w := tcpH.state(), localH.state(); !reflect.DeepEqual(g, w) {
				t.Errorf("shard state diverged:\nover TCP   %+v\nin-process %+v", g, w)
			}
			if pin, ok := replies[tc.name]; ok {
				frame, buf := srv.dispatchRaw(appendRawKeyReq(nil, rawOpLookup, 0, pin.ks))
				if got := hex.EncodeToString(frame[4:]); got != pin.hex {
					t.Errorf("lookup %v reply\n got %s\nwant %s", pin.ks, got, pin.hex)
				}
				putScratch(buf)
			}

			if !tc.required {
				_, err := tc.run(tr, 1)
				var re *RemoteError
				if !errors.As(err, &re) || re.Op != opName(tc.op) || re.Node != 1 {
					t.Errorf("shard without the handler answered %T (%v), want *RemoteError for %s", err, err, opName(tc.op))
				}
			}
			if !tc.total {
				before := tcpH.state()
				tcpH.mu.Lock()
				tcpH.fail = &OverloadError{Node: 0, Op: tc.name}
				tcpH.mu.Unlock()
				_, err := tc.run(tr, 0)
				tcpH.mu.Lock()
				tcpH.fail = nil
				tcpH.mu.Unlock()
				var oe *OverloadError
				if !errors.As(err, &oe) || oe.Op != opName(tc.op) || !Retryable(err) {
					t.Errorf("overloaded shard answered %T (%v), want a retryable *OverloadError", err, err)
				}
				if !reflect.DeepEqual(tcpH.state(), before) {
					t.Error("a rejected request changed shard state")
				}
			}
		})
	}
	if st := tr.Stats(); st.Retries != 0 {
		t.Errorf("transport spent %d retries on shard-side rejections, want 0", st.Retries)
	}
	if Retryable(&RemoteError{Node: 0, Op: "predict", Msg: "x"}) {
		t.Error("RemoteError must not be retryable")
	}
	for op := range definedOps() {
		if !covered[op] {
			t.Errorf("op %s has no row in this table", opName(op))
		}
	}
}

// lookupRun is the TestEveryOpOverTCP row that looks ks up: the payload
// bytes the transport counts and the rows it returns.
func lookupRun(ks []keys.Key) func(tr opSurface, node int) (any, error) {
	return func(tr opSurface, node int) (any, error) {
		blk := ps.NewValueBlock(opsDim)
		n, err := tr.Lookup(node, ks, blk)
		return []any{n, blockRows(blk)}, err
	}
}

// TestMissingHandlerSameOpName checks that a shard lacking an op's handler is
// reported under the op's one name whichever transport reaches it, so a
// caller matching RemoteError.Op sees the same failure in-process and over
// TCP.
func TestMissingHandlerSameOpName(t *testing.T) {
	bare, err := ServeTCP("127.0.0.1:0", pullOnly{})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	tr := NewTCPTransport(map[int]string{0: bare.Addr()}, opsDim)
	defer tr.Close()
	lt := NewLocalTransport(opsDim)
	lt.Register(0, pullOnly{})

	type shard interface {
		TierTransport
		Replicate(nodeID int, client, seq uint64, blk *ps.ValueBlock) (int64, error)
		Transfer(nodeID int, blk *ps.ValueBlock) (int, error)
		UpdateMembership(nodeID int, u MembershipUpdate) error
	}
	rows := []struct {
		op  uint8
		run func(tr shard) error
	}{
		{rawOpPushBlock, func(tr shard) error { _, err := tr.PushBlock(0, opsBlock([]keys.Key{3}, 1)); return err }},
		{rawOpReplicate, func(tr shard) error { _, err := tr.Replicate(0, 7, 1, opsBlock([]keys.Key{3}, 1)); return err }},
		{rawOpLookup, func(tr shard) error { _, err := tr.Lookup(0, []keys.Key{3}, ps.NewValueBlock(opsDim)); return err }},
		{rawOpTransfer, func(tr shard) error { _, err := tr.Transfer(0, opsBlock([]keys.Key{3}, 1)); return err }},
		{rawOpEvict, func(tr shard) error { _, err := tr.Evict(0, []keys.Key{3}); return err }},
		{rawOpStats, func(tr shard) error { _, err := tr.TierStats(0); return err }},
		{rawOpMembership, func(tr shard) error { return tr.UpdateMembership(0, MembershipUpdate{Epoch: 1, Members: []int{0}}) }},
	}
	for _, row := range rows {
		var local, remote *RemoteError
		if err := row.run(lt); !errors.As(err, &local) {
			t.Errorf("%s in-process answered %T (%v), want *RemoteError", opName(row.op), err, err)
			continue
		}
		if err := row.run(tr); !errors.As(err, &remote) {
			t.Errorf("%s over TCP answered %T (%v), want *RemoteError", opName(row.op), err, err)
			continue
		}
		if local.Op != remote.Op || local.Op != opName(row.op) {
			t.Errorf("missing %s handler named %q in-process and %q over TCP", opName(row.op), local.Op, remote.Op)
		}
	}
}

// definedOps lists the ops the table defines.
func definedOps() map[uint8]string {
	out := map[uint8]string{}
	for op, spec := range ops {
		if spec.serve != nil {
			out[uint8(op)] = spec.name
		}
	}
	return out
}

// TestHelloRefusesOtherWireVersions covers the twelfth op: version 4 — the
// last wire whose stats reply carried modelled pull and push times — is
// refused from either side by an error naming both versions. (TestForeignPeersCloseCleanly shows
// the refused connection is closed.)
func TestHelloRefusesOtherWireVersions(t *testing.T) {
	if rawWireVersion != 5 {
		t.Fatalf("wire version %d, want 5", rawWireVersion)
	}
	namesBoth := func(msg string) bool {
		return strings.Contains(msg, "version 4") && strings.Contains(msg, "version 5")
	}

	// A v4 client's hello, as this build's shard answers it.
	srv := &TCPServer{seqs: NewSeqTracker(), handler: newOpsHandler()}
	out, buf := srv.dispatchRaw([]byte{rawOpHello, 4, 0, 0})
	if out[4] != rawOpHello+1 || out[5] != rawStatusErr || !namesBoth(string(out[8:])) {
		t.Errorf("v4 hello answered % x %q, want a refusal naming versions 4 and 5", out[4:8], out[8:])
	}
	putScratch(buf)

	// This build's transport dialing a shard that answers as version 4.
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
			if n, err := readFramePrefix(c); err == nil {
				var req []byte
				if _, err := readFramePayload(c, n, &req); err == nil {
					writeRawFrame(c, []byte{0, 0, 0, 0, rawOpHello + 1, rawStatusOK, 4, 0})
				}
			}
			c.Close()
		}
	}()
	tr := NewTCPTransport(map[int]string{0: ln.Addr().String()}, opsDim)
	defer tr.Close()
	tr.SetRetryPolicy(RetryPolicy{Attempts: 1})
	if _, err := tr.PullBlock(0, []keys.Key{1}, ps.NewValueBlock(opsDim)); err == nil || !namesBoth(err.Error()) {
		t.Errorf("pull from a v4 shard: %v, want a refusal naming versions 4 and 5", err)
	}
}

// TestOpNames pins the names reports and typed errors carry, and that every
// defined op has a distinct one.
func TestOpNames(t *testing.T) {
	var names []string
	for _, n := range definedOps() {
		names = append(names, n)
	}
	sort.Strings(names)
	want := []string{"evict", "hello", "lookup", "membership", "predict", "pull-block", "push-block",
		"replicate", "serve-config", "serve-stats", "stats", "transfer"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("op names %v, want %v", names, want)
	}
	if got := opName(200); got != "op#200" {
		t.Fatalf("unknown op named %q", got)
	}
}
