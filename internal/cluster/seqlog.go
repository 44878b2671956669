package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
)

// SeqLog persists the (client, sequence) pairs of successfully applied pushes
// as fixed-size append-only records, closing the at-least-once window that an
// in-memory SeqTracker leaves open across process restarts: without it, a
// shard that crashes after applying a push but before the client reads the
// ack would re-apply the client's retry on restart — a twice-applied
// gradient. The log lives alongside the shard's SSD-PS directory and is
// replayed into a fresh tracker by OpenSeqLog.
//
// Records are appended after the apply succeeds and before the ack is
// written (see SeqTracker.commit for why that order is the correct one).
// Appends rely on the OS page cache for durability: a process crash (the
// failure mode shard supervision restarts from) loses nothing, while a whole-
// machine power loss may lose the tail — the same budget the SSD-PS dump
// path already runs on, and one that fsync-per-push would pay for with a
// synchronous disk flush on the training hot path.
//
// A SeqLog is safe for concurrent use.
//
// The log is append-only between compactions: Compact rewrites it to just
// the records still inside the tracker's dedup window (everything older is
// already refused as a stale duplicate by the window check, so its records
// are dead weight) — without it the log grows by one record per applied push
// for the life of the shard directory.
type SeqLog struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// seqLogRecordSize is the fixed on-disk record size: client and sequence,
// each 8 bytes little-endian.
const seqLogRecordSize = 16

// OpenSeqLog opens (creating if absent) the applied-push log at path and
// replays every complete record into tracker, returning the log positioned
// for appends and the number of records replayed. A truncated tail record —
// a crash mid-append — is discarded, not an error: the push it belonged to
// was never acked, so the client re-applies it anyway. Pair the returned log
// with the tracker via tracker.AttachLog.
func OpenSeqLog(path string, tracker *SeqTracker) (*SeqLog, int, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: open seq log: %w", err)
	}
	records, replayed := 0, 0
	var rec [seqLogRecordSize]byte
	for {
		if _, err := io.ReadFull(f, rec[:]); err != nil {
			break // EOF, or a torn tail record discarded by the truncate below
		}
		records++
		client := binary.LittleEndian.Uint64(rec[0:8])
		seq := binary.LittleEndian.Uint64(rec[8:16])
		// fresh both records the pair in the tracker and dedups records the
		// log may hold more than once.
		if tracker.fresh(client, seq) {
			replayed++
		}
	}
	// Truncate to the last complete record so new appends never interleave
	// with a torn tail.
	if err := f.Truncate(int64(records) * seqLogRecordSize); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("cluster: truncate seq log tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("cluster: seek seq log: %w", err)
	}
	return &SeqLog{f: f, path: path}, replayed, nil
}

// Compact rewrites the log to exactly the records produced by snapshot,
// which is invoked under the log's lock — concurrent Appends block until the
// rewrite finishes, so a record committed during compaction lands in the new
// file instead of being lost with the old one. The rewrite goes through a
// temp file and a rename: a crash mid-compaction leaves either the old log
// or the complete new one, never a mix, and a torn tail from an earlier
// crash (already discarded at open) cannot resurface. It returns the number
// of records kept.
func (l *SeqLog) Compact(snapshot func() [][2]uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, fmt.Errorf("cluster: seq log closed")
	}
	records := snapshot()
	tmpPath := l.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("cluster: compact seq log: %w", err)
	}
	buf := make([]byte, 0, len(records)*seqLogRecordSize)
	var rec [seqLogRecordSize]byte
	for _, r := range records {
		binary.LittleEndian.PutUint64(rec[0:8], r[0])
		binary.LittleEndian.PutUint64(rec[8:16], r[1])
		buf = append(buf, rec[:]...)
	}
	if _, err := tmp.Write(buf); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpPath)
		return 0, fmt.Errorf("cluster: compact seq log: %w", err)
	}
	if err := os.Rename(tmpPath, l.path); err != nil {
		os.Remove(tmpPath)
		return 0, fmt.Errorf("cluster: compact seq log: %w", err)
	}
	nf, err := os.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		// The rename succeeded but the reopen failed: the old handle points at
		// the unlinked pre-compaction inode, whose appends would vanish. Fail
		// closed rather than silently losing dedup records.
		l.f.Close()
		l.f = nil
		return 0, fmt.Errorf("cluster: reopen compacted seq log: %w", err)
	}
	if _, err := nf.Seek(0, io.SeekEnd); err != nil {
		nf.Close()
		l.f.Close()
		l.f = nil
		return 0, fmt.Errorf("cluster: seek compacted seq log: %w", err)
	}
	l.f.Close()
	l.f = nf
	return len(records), nil
}

// Append records one applied (client, seq) pair. Failures are returned but
// callers on the ack path deliberately ignore them (see SeqTracker.commit).
func (l *SeqLog) Append(client, seq uint64) error {
	var rec [seqLogRecordSize]byte
	binary.LittleEndian.PutUint64(rec[0:8], client)
	binary.LittleEndian.PutUint64(rec[8:16], seq)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("cluster: seq log closed")
	}
	if _, err := l.f.Write(rec[:]); err != nil {
		return fmt.Errorf("cluster: append seq log: %w", err)
	}
	return nil
}

// Close syncs the log to stable storage (power-loss durability) and closes
// it; shard shutdown calls it once rather than paying an fsync per push.
// Further appends fail.
func (l *SeqLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
