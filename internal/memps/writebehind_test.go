package memps

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hps/internal/cluster"
	"hps/internal/embedding"
	"hps/internal/hw"
	"hps/internal/keys"
	"hps/internal/ps"
)

// The background-write contract: Maintain hands a full dump buffer to a
// background write and returns; until the rows are on the SSD-PS every
// reader finds them in the buffer, bit for bit, and nothing modifies them.

// wbNode is a single-node MEM-PS over an SSD-PS in dir that dumps every 8
// evictions, with a model of every value it should hold.
type wbNode struct {
	t     *testing.T
	m     *MemPS
	dir   string
	model map[keys.Key]*embedding.Value
	next  keys.Key // first key no batch has touched yet
}

func newWBNode(t *testing.T, lru, lfu int) *wbNode {
	t.Helper()
	dir := t.TempDir()
	clock := hw.NewCounter()
	m, err := New(Config{
		Dim:           4,
		Topology:      cluster.Topology{Nodes: 1, GPUsPerNode: 1},
		Store:         failableStore(t, dir, clock),
		Clock:         clock,
		LRUEntries:    lru,
		LFUEntries:    lfu,
		DumpBatchSize: 8,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &wbNode{t: t, m: m, dir: dir, model: map[keys.Key]*embedding.Value{}, next: 1}
}

// deltas builds a push block for ks (sorted, unique) and applies it to the
// model: key k gets k/8 on weight 0, 1 on G2Sum 1 and 1 on its frequency.
func (n *wbNode) deltas(ks []keys.Key) *ps.ValueBlock {
	blk := ps.NewValueBlock(4)
	for _, k := range ks {
		w, g := make([]float32, 4), make([]float32, 4)
		w[0], g[1] = float32(k)/8, 1
		blk.AppendRow(k, w, g, 1)
		if n.model[k] == nil {
			n.model[k] = embedding.NewKeyedValue(4, n.m.seed, uint64(k))
		}
		n.model[k].AddFlat(w, g, 1)
	}
	return blk
}

// batch trains one batch over 8 keys no batch has touched: prepare, push,
// complete.
func (n *wbNode) batch() {
	n.t.Helper()
	ks := make([]keys.Key, 8)
	for i := range ks {
		ks[i] = n.next
		n.next++
	}
	ws, _ := prepare(n.t, n.m, ks)
	push(n.t, n.m, n.deltas(ks))
	if err := n.m.CompleteBatch(ws); err != nil {
		n.t.Fatal(err)
	}
}

// writing reports whether a background write is in flight.
func (n *wbNode) writing() bool {
	n.m.mu.Lock()
	defer n.m.mu.Unlock()
	return n.m.writing
}

// batchesUntilWrite trains batches until one starts a background write.
func (n *wbNode) batchesUntilWrite() {
	n.t.Helper()
	for i := 0; !n.writing(); i++ {
		if i == 100 {
			n.t.Fatal("100 batches started no background write")
		}
		n.batch()
	}
}

// rowsInFlight returns the keys of the rows the write in flight holds, sorted.
func (n *wbNode) rowsInFlight() []keys.Key {
	n.m.mu.Lock()
	defer n.m.mu.Unlock()
	var out []keys.Key
	n.m.dumped.Range(func(k keys.Key, d dumpRow) bool {
		if n.m.beingWritten(d) {
			out = append(out, k)
		}
		return true
	})
	slices.Sort(out)
	return out
}

// check fails unless v is the model's value of k, bit for bit.
func (n *wbNode) check(what string, k keys.Key, v *embedding.Value) {
	n.t.Helper()
	if !sameBits(v, n.model[k]) {
		n.t.Fatalf("%s: key %d is %+v, the model has %+v", what, k, v, n.model[k])
	}
}

func sameBits(a, b *embedding.Value) bool {
	if a == nil || b == nil || a.Freq != b.Freq || len(a.Weights) != len(b.Weights) || len(a.G2Sum) != len(b.G2Sum) {
		return false
	}
	for i := range a.Weights {
		if math.Float32bits(a.Weights[i]) != math.Float32bits(b.Weights[i]) ||
			math.Float32bits(a.G2Sum[i]) != math.Float32bits(b.G2Sum[i]) {
			return false
		}
	}
	return true
}

// checkRecovered reopens the node's directory as a new SSD-PS and checks that
// it recovers the model's value of every key.
func (n *wbNode) checkRecovered() {
	n.t.Helper()
	store := failableStore(n.t, n.dir, hw.NewCounter())
	if dropped, err := store.Recover(); err != nil || len(dropped) > 0 {
		n.t.Fatalf("recover: dropped %v, err %v", dropped, err)
	}
	for k := range n.model {
		vals, err := store.Load([]keys.Key{k})
		if err != nil {
			n.t.Fatal(err)
		}
		n.check("recovered", k, vals[k])
	}
}

// holdNextWrite arms m to hold its next background write before the write's
// I/O: held is closed once a write is held, and release lets it run and
// disarms the hook for the writes after it. release must follow <-held.
func holdNextWrite(m *MemPS) (held <-chan struct{}, release func()) {
	h, r := make(chan struct{}), make(chan struct{})
	m.writeHook = func(io func()) {
		close(h)
		<-r
		io()
	}
	return h, func() {
		m.writeHook = nil
		close(r)
	}
}

// TestWriteBehindReadersSeeRowsInFlight holds a background write and reads
// its rows through every reader of the dump buffer, then pulls some back and
// updates them: the update must win over the copy being written, in memory,
// after a Flush (which waits for the write), and on a reopened directory.
func TestWriteBehindReadersSeeRowsInFlight(t *testing.T) {
	n := newWBNode(t, 16, 16)
	m := n.m
	held, release := holdNextWrite(m)
	n.batchesUntilWrite()
	<-held
	rows := n.rowsInFlight()
	if len(rows) < m.cfg.DumpBatchSize {
		t.Fatalf("the write holds %d rows, want at least %d", len(rows), m.cfg.DumpBatchSize)
	}
	for _, k := range rows {
		if m.Store().Contains(k) {
			t.Fatalf("key %d is on the SSD-PS before the write that holds it ran", k)
		}
	}

	got := lookupAll(t, m, rows)
	for _, k := range rows {
		n.check("lookup", k, got[k])
	}
	exp := ps.NewValueBlock(4)
	if c, err := m.ExportInto(rows, exp); err != nil || c != len(rows) {
		t.Fatalf("ExportInto found %d of %d rows being written (%v)", c, len(rows), err)
	}
	for i, k := range rows {
		n.check("ExportInto", k, exp.Value(i))
	}
	local := m.LocalKeys()
	for _, k := range rows {
		if _, ok := slices.BinarySearch(local, k); !ok {
			t.Fatalf("LocalKeys misses key %d, which is being written", k)
		}
	}
	older := ps.NewValueBlock(4)
	for _, k := range rows {
		older.AppendRow(k, []float32{42, 42, 42, 42}, []float32{42, 42, 42, 42}, 42)
	}
	if c := m.ImportBlock(older); c != 0 {
		t.Fatalf("ImportBlock accepted %d rows over rows being written", c)
	}

	// Serve half back to a peer and prepare the other half: each resolves
	// from the buffer into a copy in the cache, with no SSD-PS read, and the
	// buffer keeps the row the write reads.
	loads := m.Store().Stats().Loads
	half := len(rows) / 2
	pulled := ps.NewValueBlock(4)
	if err := m.HandlePullBlock(rows[:half], pulled); err != nil {
		t.Fatal(err)
	}
	for i, k := range rows[:half] {
		n.check("HandlePullBlock", k, pulled.Value(i))
	}
	ws, prepared := prepare(t, m, rows[half:])
	for i, k := range rows[half:] {
		n.check("PrepareInto", k, prepared.Value(i))
	}
	if got := m.Store().Stats().Loads; got != loads {
		t.Fatalf("pulling back rows being written read the SSD-PS %d times", got-loads)
	}
	m.mu.Lock()
	for _, k := range rows {
		d, ok := m.dumped.Get(k)
		if !ok || !m.beingWritten(d) {
			t.Fatalf("key %d left the write in flight when it was pulled back", k)
		}
		if !m.cache.Contains(uint64(k)) {
			t.Fatalf("key %d was not pulled back into the cache", k)
		}
	}
	m.mu.Unlock()

	// Update one of each while the old copies are being written.
	updated := []keys.Key{rows[0], rows[len(rows)-1]}
	push(t, m, n.deltas(updated))
	got = lookupAll(t, m, updated)
	for _, k := range updated {
		n.check("lookup after the update", k, got[k])
	}

	// Flush waits the write out: the updated rows must reach the SSD-PS after
	// the older copies the write holds, in later extents.
	flushed := make(chan error, 1)
	go func() { flushed <- m.Flush() }()
	select {
	case err := <-flushed:
		t.Fatalf("Flush returned (error %v) while a write was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if err := m.CompleteBatch(ws); err != nil {
		t.Fatal(err)
	}
	all := make([]keys.Key, 0, len(n.model))
	for k := range n.model {
		all = append(all, k)
	}
	got = lookupAll(t, m, all)
	for _, k := range all {
		n.check("lookup after Flush", k, got[k])
	}
	n.checkRecovered()
}

// TestWriteBehindOneWriteInFlight drives every caller of Maintain from
// goroutines of its own: no two background writes may ever overlap, and
// nothing is lost. Each write is held until a second one has had its chance
// to overlap: until a caller waits for it, a second write is in flight, or
// every caller is done.
func TestWriteBehindOneWriteInFlight(t *testing.T) {
	n := newWBNode(t, 16, 16)
	m := n.m
	waits := &waitCounter{mu: &m.mu, wake: make(chan struct{}, 1)}
	m.writeDone.L = waits
	callersDone := make(chan struct{})
	var active, writes atomic.Int32
	var overlapped atomic.Bool
	m.writeHook = func(io func()) {
		if active.Add(1) > 1 {
			overlapped.Store(true)
			waits.signal()
		}
	hold:
		for waits.waiting.Load() == 0 && !overlapped.Load() {
			select {
			case <-waits.wake:
			case <-callersDone:
				break hold
			}
		}
		io()
		active.Add(-1)
		writes.Add(1)
	}
	const keySpace, rounds = 400, 60
	someKeys := func(rng *rand.Rand) []keys.Key {
		ks := make([]keys.Key, 24)
		for i := range ks {
			ks[i] = keys.Key(1 + rng.Intn(keySpace))
		}
		return keys.Dedup(ks)
	}
	callers := []func(ks []keys.Key) error{
		func(ks []keys.Key) error { return m.HandlePushBlock(deltaBlock(ks)) },
		func(ks []keys.Key) error { return m.HandleReplicate(deltaBlock(ks)) },
		func(ks []keys.Key) error {
			ws, err := m.PrepareInto(ks, ps.NewValueBlock(4))
			if err != nil {
				return err
			}
			return m.CompleteBatch(ws)
		},
	}
	var wg sync.WaitGroup
	touched := make([][]keys.Key, len(callers))
	for i, call := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for r := 0; r < rounds; r++ {
				ks := someKeys(rng)
				touched[i] = append(touched[i], ks...)
				if err := call(ks); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(callersDone)
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if overlapped.Load() {
		t.Fatal("two background writes were in flight at once")
	}
	if w := writes.Load(); w < 10 {
		t.Fatalf("%d background writes ran, want at least 10", w)
	}
	all := keys.Dedup(slices.Concat(touched...))
	got := lookupAll(t, m, all)
	for _, k := range all {
		if got[k] == nil {
			t.Fatalf("key %d lost", k)
		}
	}
}

// waitCounter is the lock a MemPS's write-done condition waits with. Only
// writeDone.Wait unlocks and relocks through it, so it counts the callers
// waiting for the background write in flight, and wakes a held write when
// one arrives.
type waitCounter struct {
	mu      *sync.Mutex
	waiting atomic.Int32
	wake    chan struct{}
}

func (w *waitCounter) Lock() {
	w.mu.Lock()
	w.waiting.Add(-1)
}

func (w *waitCounter) Unlock() {
	w.waiting.Add(1)
	w.mu.Unlock()
	w.signal()
}

func (w *waitCounter) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// TestWriteBehindFailureKeepsRows fails a background write under each of the
// calls that report it: the error surfaces on that call, the rows stay
// reachable in memory — a row pulled back and updated during the write
// keeps its update — and a healed store takes them on the next write.
func TestWriteBehindFailureKeepsRows(t *testing.T) {
	n := newWBNode(t, 4, 4)
	m := n.m
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"Maintain", m.Maintain},
		{"CompleteBatch", nil}, // set below: it needs a working set
		{"HandlePushBlock", nil},
		{"Flush", m.Flush},
	} {
		held, release := holdNextWrite(m)
		n.batchesUntilWrite()
		<-held
		rows := n.rowsInFlight()
		pulled := ps.NewValueBlock(4)
		if err := m.HandlePullBlock(rows[:1], pulled); err != nil {
			t.Fatal(err)
		}
		push(t, m, n.deltas(rows[:1]))
		switch c.name {
		case "CompleteBatch":
			ws, _ := prepare(t, m, []keys.Key{n.next}) // a first reference: no SSD read
			n.model[n.next] = embedding.NewKeyedValue(4, m.seed, uint64(n.next))
			n.next++
			c.call = func() error { return m.CompleteBatch(ws) }
		case "HandlePushBlock":
			fresh := n.deltas([]keys.Key{n.next}) // a first reference: no SSD read
			n.next++
			c.call = func() error { return m.HandlePushBlock(fresh) }
		}

		breakStore(t, m)
		release()
		if err := c.call(); err == nil {
			t.Fatalf("%s after a failed background write returned no error", c.name)
		}
		got := lookupAll(t, m, rows) // the broken store cannot serve them
		for _, k := range rows {
			n.check(c.name+": in memory after the failed write", k, got[k])
		}
		healStore(t, m)
	}
	if err := m.Flush(); err != nil {
		t.Fatalf("flush over the healed store: %v", err)
	}
	all := make([]keys.Key, 0, len(n.model))
	for k := range n.model {
		all = append(all, k)
	}
	got := lookupAll(t, m, all)
	for _, k := range all {
		n.check("after the retry", k, got[k])
	}
	n.checkRecovered()
}

// TestWriteBehindPulledBackRowsAreCopies checks the rows a batch pulls back
// out of the write in flight: they enter the cache as copies in slab rows of
// their own, bit for bit, and updating them leaves the rows the write reads
// alone, so the SSD-PS gets the older copy and the update follows it.
func TestWriteBehindPulledBackRowsAreCopies(t *testing.T) {
	n := newWBNode(t, 16, 16)
	m := n.m
	held, release := holdNextWrite(m)
	n.batchesUntilWrite()
	<-held
	rows := n.rowsInFlight()
	before := lookupAll(t, m, rows)
	ws, pulled := prepare(t, m, rows)
	for i, k := range rows {
		n.check("PrepareInto", k, pulled.Value(i))
	}
	m.mu.Lock()
	for _, k := range rows {
		d, _ := m.dumped.Get(k)
		slot, ok := m.cache.Get(uint64(k))
		if !ok || !m.beingWritten(d) {
			t.Fatalf("key %d: in the cache %v, in the write in flight %v", k, ok, m.beingWritten(d))
		}
		if !sameBits(m.rows.Value(int(slot)), m.out.Value(int(d.row))) {
			t.Fatalf("key %d: the cached copy differs from the row being written", k)
		}
	}
	m.mu.Unlock()
	push(t, m, n.deltas(rows))
	m.mu.Lock()
	for _, k := range rows {
		d, _ := m.dumped.Get(k)
		if !sameBits(m.out.Value(int(d.row)), before[k]) {
			t.Fatalf("key %d: updating the cached copy changed the row being written", k)
		}
	}
	m.mu.Unlock()
	release()
	if err := m.CompleteBatch(ws); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	n.checkRecovered()
}

// TestWriteBehindHitPathAllocatesNothing pins the steady hot state: pushes,
// batch completions and serves over cache-resident keys, with the write
// machinery idle, allocate nothing.
func TestWriteBehindHitPathAllocatesNothing(t *testing.T) {
	m := singleNode(t, 256, 256)
	ks := make([]keys.Key, 64)
	for i := range ks {
		ks[i] = keys.Key(i + 1)
	}
	ws, _ := prepare(t, m, ks)
	deltas := weightDeltas(4, ks, func(keys.Key) float32 { return 0.5 }, 1)
	served := ps.NewValueBlock(4)
	steady := func() {
		if err := m.PushBlock(ps.PushBlockRequest{Shard: ps.NoShard, Block: deltas}); err != nil {
			t.Fatal(err)
		}
		if err := m.CompleteBatch(ws); err != nil {
			t.Fatal(err)
		}
		if err := m.HandlePullBlock(ks, served); err != nil {
			t.Fatal(err)
		}
	}
	steady()
	if a := testing.AllocsPerRun(50, steady); a != 0 {
		t.Fatalf("the steady hit path allocates %.1f times per batch", a)
	}
}
