package cluster

import "sync"

// SeqTracker deduplicates pushes retried across reconnects: the transport
// stamps every push with a (client, sequence) pair, and the tracker remembers
// which sequences each client has already had applied. A push that arrives
// again after a connection drop — the reply was lost but the deltas were
// already merged — is acknowledged without being re-applied, which is what
// keeps at-least-once delivery from turning into twice-applied gradients.
// The server records a sequence only after the apply succeeds (see forget),
// so a push whose apply failed is re-applied, not falsely acked, on retry.
//
// Sequences from one client may arrive out of order (concurrent pushes race
// for the connection), so the tracker keeps an explicit seen-set over a
// sliding window rather than a high-water mark; sequences that have fallen
// out of the window (seqWindow outstanding pushes behind the newest) are
// treated as duplicates.
//
// The tracker belongs to the shard state, not to one server instance: pass
// the same tracker to every ServeTCP incarnation serving the same shard so
// dedup survives a server restart.
type SeqTracker struct {
	mu      sync.Mutex
	clients map[uint64]*clientSeqs
	// tick is a monotonic activity counter; every fresh call stamps the
	// client, so eviction at the maxClients cap can pick the
	// least-recently-active client instead of an arbitrary one.
	tick uint64
	// log, when attached, persists applied records so dedup survives a
	// process restart (see AttachLog / Commit).
	log *SeqLog
}

type clientSeqs struct {
	max    uint64
	seen   map[uint64]struct{}
	active uint64 // tracker tick of this client's latest push
}

// seqWindow bounds the per-client seen-set: a sequence more than this many
// behind the newest is assumed to be a stale duplicate. Pushes are
// effectively synchronous per batch, so thousands of outstanding sequences
// per client is far beyond any real pipeline depth.
const seqWindow = 4096

// maxClients bounds the tracker across driver restarts (every transport has
// a fresh random client id): beyond this many clients, state for other —
// almost certainly dead — clients is dropped. Dedup is therefore guaranteed
// for up to maxClients concurrently-live clients, far beyond one driver plus
// stragglers.
const maxClients = 256

// NewSeqTracker returns an empty tracker.
func NewSeqTracker() *SeqTracker {
	return &SeqTracker{clients: make(map[uint64]*clientSeqs)}
}

// fresh reports whether (client, seq) has not been applied yet, recording it
// as applied when it is fresh. Sequence 0 (non-push traffic) is always fresh.
func (s *SeqTracker) fresh(client, seq uint64) bool {
	if s == nil || seq == 0 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tick++
	cs, ok := s.clients[client]
	if !ok {
		for len(s.clients) >= maxClients {
			// Evict the least-recently-active client: an arbitrary choice
			// could drop a live client's dedup state and re-admit a duplicate
			// push it retries moments later.
			var (
				victim uint64
				oldest = ^uint64(0)
			)
			for other, ocs := range s.clients {
				if ocs.active < oldest {
					victim, oldest = other, ocs.active
				}
			}
			delete(s.clients, victim)
		}
		cs = &clientSeqs{seen: make(map[uint64]struct{})}
		s.clients[client] = cs
	}
	cs.active = s.tick
	if cs.max >= seqWindow && seq <= cs.max-seqWindow {
		return false // fell out of the window: stale duplicate
	}
	if _, dup := cs.seen[seq]; dup {
		return false
	}
	cs.seen[seq] = struct{}{}
	if seq > cs.max {
		cs.max = seq
	}
	// Prune lazily, only once the set outgrows the window: a full scan per
	// push would make the hot path O(seqWindow).
	if len(cs.seen) > seqWindow && cs.max >= seqWindow {
		for old := range cs.seen {
			if old <= cs.max-seqWindow {
				delete(cs.seen, old)
			}
		}
	}
	return true
}

// forget withdraws a sequence recorded by fresh, after its apply failed: the
// client's retry must re-apply the push, not be acked as a duplicate of an
// apply that never happened.
func (s *SeqTracker) forget(client, seq uint64) {
	if s == nil || seq == 0 {
		return
	}
	s.mu.Lock()
	if cs, ok := s.clients[client]; ok {
		delete(cs.seen, seq)
	}
	s.mu.Unlock()
}

// AttachLog makes the tracker persist every committed record to l, so dedup
// survives a process restart (reload the log into a fresh tracker with
// OpenSeqLog). A nil log detaches.
func (s *SeqTracker) AttachLog(l *SeqLog) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.log = l
	s.mu.Unlock()
}

// snapshotRecords collects every (client, seq) pair still inside the dedup
// window — the live content a compacted log must keep. Records older than
// the window are refused as stale duplicates by fresh regardless of the log,
// so dropping them loses nothing.
func (s *SeqTracker) snapshotRecords() [][2]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out [][2]uint64
	for client, cs := range s.clients {
		for seq := range cs.seen {
			out = append(out, [2]uint64{client, seq})
		}
	}
	return out
}

// CompactLog rewrites the attached log down to the records still inside the
// dedup window; see SeqLog.Compact. The shard calls it after a checkpoint
// flush — the one moment the log is known to only need to cover pushes the
// flushed state has not yet made durable. Without an attached log it is a
// no-op. It returns the number of records kept.
func (s *SeqTracker) CompactLog() (int, error) {
	if s == nil {
		return 0, nil
	}
	s.mu.Lock()
	l := s.log
	s.mu.Unlock()
	if l == nil {
		return 0, nil
	}
	// The snapshot callback runs under the log's lock: commits racing with
	// the compaction either happened before it (fresh precedes commit, so the
	// tracker already holds them — they are in the snapshot) or block on the
	// lock and append to the rewritten file.
	return l.Compact(s.snapshotRecords)
}

// commit persists (client, seq) after its apply succeeded and before the ack
// is written. The order matters for exactly-once across a crash: a record
// appended before the apply would dedup — and therefore drop — the client's
// retry of a push that was never merged, while a record appended after the
// ack could miss a push the client will never resend. An append failure is
// deliberately swallowed: dedup degrades from crash-durable to
// process-lifetime, which is the pre-log behavior, not a correctness loss
// within this incarnation.
func (s *SeqTracker) commit(client, seq uint64) {
	if s == nil || seq == 0 {
		return
	}
	s.mu.Lock()
	l := s.log
	s.mu.Unlock()
	if l != nil {
		l.Append(client, seq)
	}
}
