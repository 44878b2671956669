package cluster

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSeqTrackerEvictsLeastRecentlyActive checks the maxClients eviction
// policy: when the tracker is full, the client that has been quiet longest
// loses its dedup state — never a client that pushed moments ago, whose
// in-flight retries would otherwise be re-admitted as duplicates.
func TestSeqTrackerEvictsLeastRecentlyActive(t *testing.T) {
	s := NewSeqTracker()
	for c := uint64(1); c <= maxClients; c++ {
		if !s.fresh(c, 1) {
			t.Fatalf("client %d seq 1 must be fresh", c)
		}
	}
	// Client 1 is now the most recently active; client 2 the least.
	if s.fresh(1, 1) {
		t.Fatal("client 1 replay must still dedup before eviction")
	}
	// A new client forces one eviction: it must hit client 2, not client 1.
	if !s.fresh(maxClients+1, 1) {
		t.Fatal("new client must be admitted")
	}
	if s.fresh(1, 1) {
		t.Fatal("recently-active client 1 lost its dedup state to eviction")
	}
	if !s.fresh(2, 1) {
		t.Fatal("least-recently-active client 2 should have been evicted (its replay re-admits as fresh)")
	}
}

// pushFrame sends one explicit (client, seq) push to addr over a fresh
// connection — the byte-identical retry a transport produces after a lost
// reply — and returns the response error string.
func pushFrame(t *testing.T, addr string, client, seq uint64) string {
	t.Helper()
	resp := rawExchange(t, addr, stampedPushFrame(client, seq))
	if resp[1] == rawStatusOK {
		return ""
	}
	return string(resp[4:])
}

// TestSeqLogDedupsReplayAcrossRestart is the crash-window test: a push
// applied and logged by one server incarnation must be acked-without-reapply
// by the next incarnation, which reloaded its tracker from the log — the
// in-memory tracker alone would re-apply it.
func TestSeqLogDedupsReplayAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seqlog")
	h := &dedupHandler{}

	incarnation := func(replayWant int) (*TCPServer, *SeqLog) {
		t.Helper()
		seqs := NewSeqTracker()
		log, replayed, err := OpenSeqLog(path, seqs)
		if err != nil {
			t.Fatal(err)
		}
		if replayed != replayWant {
			t.Fatalf("replayed %d records, want %d", replayed, replayWant)
		}
		seqs.AttachLog(log)
		srv, err := ServeTCP("127.0.0.1:0", h, seqs)
		if err != nil {
			t.Fatal(err)
		}
		return srv, log
	}

	srv1, log1 := incarnation(0)
	if errMsg := pushFrame(t, srv1.Addr(), 77, 1); errMsg != "" {
		t.Fatalf("push rejected: %s", errMsg)
	}
	// Crash: the server goes away without any orderly tracker handoff. (The
	// file close stands in for the page cache surviving a killed process.)
	srv1.Close()
	log1.Close()

	srv2, log2 := incarnation(1)
	defer srv2.Close()
	defer log2.Close()
	if errMsg := pushFrame(t, srv2.Addr(), 77, 1); errMsg != "" {
		t.Fatalf("replayed push rejected instead of acked: %s", errMsg)
	}
	h.mu.Lock()
	pushes := h.pushes
	h.mu.Unlock()
	if pushes != 1 {
		t.Fatalf("push applied %d times across restart, want 1", pushes)
	}
	// New sequences still flow, and land in the log for the next restart.
	if errMsg := pushFrame(t, srv2.Addr(), 77, 2); errMsg != "" {
		t.Fatalf("fresh push rejected: %s", errMsg)
	}
	srv2.Close()
	log2.Close()

	srv3, log3 := incarnation(2)
	defer srv3.Close()
	defer log3.Close()
}

// TestSeqLogSkipsFailedApply checks the log records only applied pushes: an
// apply that failed must not be committed, so the client's retry re-applies
// it even across a restart.
func TestSeqLogSkipsFailedApply(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seqlog")
	h := &dedupHandler{failPushes: 1}
	seqs := NewSeqTracker()
	log, _, err := OpenSeqLog(path, seqs)
	if err != nil {
		t.Fatal(err)
	}
	seqs.AttachLog(log)
	srv, err := ServeTCP("127.0.0.1:0", h, seqs)
	if err != nil {
		t.Fatal(err)
	}
	if errMsg := pushFrame(t, srv.Addr(), 9, 1); errMsg == "" {
		t.Fatal("first push should have failed to apply")
	}
	srv.Close()
	log.Close()

	// Restart: the failed apply left no record, so the retry is fresh.
	seqs2 := NewSeqTracker()
	log2, replayed, err := OpenSeqLog(path, seqs2)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if replayed != 0 {
		t.Fatalf("failed apply was committed: %d records", replayed)
	}
	seqs2.AttachLog(log2)
	srv2, err := ServeTCP("127.0.0.1:0", h, seqs2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if errMsg := pushFrame(t, srv2.Addr(), 9, 1); errMsg != "" {
		t.Fatalf("retry after failed apply rejected: %s", errMsg)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.pushes != 1 {
		t.Fatalf("retry applied %d times, want 1", h.pushes)
	}
}

// TestSeqLogCompaction checks the checkpoint-flush compaction: the rewritten
// log shrinks to the records still inside the dedup window, keeps deduping
// them across a restart, and stays appendable afterwards.
func TestSeqLogCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seqlog")
	seqs := NewSeqTracker()
	log, _, err := OpenSeqLog(path, seqs)
	if err != nil {
		t.Fatal(err)
	}
	seqs.AttachLog(log)

	// Push 2*seqWindow sequences through fresh+commit: the first half falls
	// out of the dedup window, so compaction must drop its records.
	total := 2 * seqWindow
	for seq := uint64(1); seq <= uint64(total); seq++ {
		if !seqs.fresh(42, seq) {
			t.Fatalf("seq %d must be fresh", seq)
		}
		seqs.commit(42, seq)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if before.Size() != int64(total)*seqLogRecordSize {
		t.Fatalf("pre-compaction size %d, want %d", before.Size(), int64(total)*seqLogRecordSize)
	}

	kept, err := seqs.CompactLog()
	if err != nil {
		t.Fatal(err)
	}
	if kept <= 0 || kept > seqWindow {
		t.Fatalf("kept %d records, want (0, %d]", kept, seqWindow)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != int64(kept)*seqLogRecordSize {
		t.Fatalf("post-compaction size %d, want %d", after.Size(), int64(kept)*seqLogRecordSize)
	}

	// Appends keep flowing into the compacted file (not the unlinked one).
	if !seqs.fresh(42, uint64(total+1)) {
		t.Fatal("new sequence must be fresh after compaction")
	}
	seqs.commit(42, uint64(total+1))
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// A restart replays the compacted log: in-window records still dedup,
	// including the one appended after the compaction.
	seqs2 := NewSeqTracker()
	log2, replayed, err := OpenSeqLog(path, seqs2)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if replayed != kept+1 {
		t.Fatalf("replayed %d records, want %d", replayed, kept+1)
	}
	if seqs2.fresh(42, uint64(total)) {
		t.Fatal("compacted log lost an in-window record")
	}
	if seqs2.fresh(42, uint64(total+1)) {
		t.Fatal("post-compaction append lost")
	}
	// The expired half stays refused — by the window check, not the log.
	if seqs2.fresh(42, 1) {
		t.Fatal("expired sequence re-admitted after compaction")
	}
}

// TestSeqLogCompactionPreservesTornTailHandling checks the two crash paths
// compose: a log carrying a torn tail from one crash is compacted by the
// next incarnation without resurrecting or tripping over the partial record.
func TestSeqLogCompactionPreservesTornTailHandling(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seqlog")
	seqs := NewSeqTracker()
	log, _, err := OpenSeqLog(path, seqs)
	if err != nil {
		t.Fatal(err)
	}
	seqs.AttachLog(log)
	for seq := uint64(1); seq <= 3; seq++ {
		seqs.fresh(7, seq)
		seqs.commit(7, seq)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	seqs2 := NewSeqTracker()
	log2, replayed, err := OpenSeqLog(path, seqs2)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 3 {
		t.Fatalf("replayed %d records, want 3", replayed)
	}
	seqs2.AttachLog(log2)
	kept, err := seqs2.CompactLog()
	if err != nil {
		t.Fatal(err)
	}
	if kept != 3 {
		t.Fatalf("kept %d records, want 3", kept)
	}
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 3*seqLogRecordSize {
		t.Fatalf("compacted size %d, want %d (torn bytes must not survive)", st.Size(), 3*seqLogRecordSize)
	}
	seqs3 := NewSeqTracker()
	log3, replayed, err := OpenSeqLog(path, seqs3)
	if err != nil {
		t.Fatal(err)
	}
	defer log3.Close()
	if replayed != 3 {
		t.Fatalf("replayed %d records after compaction, want 3", replayed)
	}
}

// TestSeqLogToleratesTornTail simulates a crash mid-append: a trailing
// partial record must be discarded on open (the push it belonged to was
// never acked), with complete records intact and appends still working.
func TestSeqLogToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seqlog")
	seqs := NewSeqTracker()
	log, _, err := OpenSeqLog(path, seqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(5, 1); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn!")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	seqs2 := NewSeqTracker()
	log2, replayed, err := OpenSeqLog(path, seqs2)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if replayed != 1 {
		t.Fatalf("replayed %d records past the torn tail, want 1", replayed)
	}
	if seqs2.fresh(5, 1) {
		t.Fatal("replayed record must dedup")
	}
	if err := log2.Append(5, 2); err != nil {
		t.Fatal(err)
	}
	// The torn bytes are gone: a third open sees exactly two clean records.
	seqs3 := NewSeqTracker()
	log3, replayed, err := OpenSeqLog(path, seqs3)
	if err != nil {
		t.Fatal(err)
	}
	defer log3.Close()
	if replayed != 2 {
		t.Fatalf("replayed %d records after torn-tail truncation, want 2", replayed)
	}
}
