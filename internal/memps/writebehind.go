package memps

import (
	"fmt"

	"hps/internal/cache"
	"hps/internal/keys"
	"hps/internal/ps"
)

// dumpRow locates a key's latest row in the dump buffer: row of the block of
// the given buffer epoch. A row of an older epoch than the buffer's belongs
// to the write in flight and is read-only until the write ends.
type dumpRow struct {
	row   int32
	epoch uint32
}

// beingWritten reports whether the write in flight holds d. The caller must
// hold m.mu.
func (m *MemPS) beingWritten(d dumpRow) bool { return d.epoch != m.epoch }

// dumpOf returns the block holding d. The caller must hold m.mu.
func (m *MemPS) dumpOf(d dumpRow) *ps.ValueBlock {
	if m.beingWritten(d) {
		return m.out
	}
	return m.dump
}

// toDump appends row i of src, the latest value of k, to the dump buffer,
// where it replaces any older row of k. The caller must hold m.mu.
func (m *MemPS) toDump(k keys.Key, src *ps.ValueBlock, i int32) {
	row := m.dump.GrowRowUninit(k)
	m.dump.CopyRow(row, src, int(i))
	m.dump.Present[row] = true
	d, had := m.dumped.Upsert(k)
	if had && !m.beingWritten(*d) {
		m.dump.Present[d.row] = false
		m.dumpLive--
	}
	*d = dumpRow{int32(row), m.epoch}
	m.dumpLive++
}

// undump drops k's row d, of the current epoch, from the dump buffer. The
// caller must hold m.mu.
func (m *MemPS) undump(k keys.Key, d dumpRow) {
	m.dump.Present[d.row] = false
	m.dumpLive--
	m.dumped.Delete(k)
}

// Evict demotes the given locally-owned, unpinned parameters from the memory
// cache to the SSD-PS, flushing the dump buffer along the way. A nil slice
// demotes everything (equivalent to Flush). It returns how many parameters
// left main memory for the SSD. It first waits out the background write in
// flight and returns that write's error, if it failed, without evicting
// anything.
func (m *MemPS) Evict(ks []keys.Key) (int, error) {
	if ks == nil {
		return m.flushAll()
	}
	// The dump runs under m.mu: once keys leave the cache and the dump
	// buffer they are unreachable until the SSD write completes, and a
	// concurrent lookup in that window would silently re-initialize a
	// trained parameter.
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.waitWrite(); err != nil {
		return 0, err
	}
	owned := m.holder()
	moved := 0
	for _, k := range ks {
		if !owned.holds(k) || m.cache.Pinned(uint64(k)) {
			continue
		}
		if slot, ok := m.cache.Remove(uint64(k)); ok {
			m.toDump(k, &m.rows, slot)
			m.free = append(m.free, slot)
			moved++
		} else if m.dumped.Has(k) {
			moved++ // already demoted out of the cache; flushed below
		}
	}
	if _, err := m.dumpBuffer(); err != nil {
		return 0, fmt.Errorf("memps: evict: %w", err)
	}
	m.rec.RecordEvict(moved)
	return moved, nil
}

// dumpBuffer writes the whole dump buffer to the SSD-PS now and empties it,
// returning how many rows were written; no background write may be in
// flight. A failed dump leaves the buffer as it was: outside the cache its
// rows are the only copies, so they stay reachable by lookups and are
// retried by the next dump. The caller must hold m.mu throughout.
func (m *MemPS) dumpBuffer() (int, error) {
	n := m.dumpLive
	if n == 0 {
		return 0, nil
	}
	if err := m.cfg.Store.DumpBlock(m.dump); err != nil {
		return 0, err
	}
	// With no write in flight, every row of the index is the buffer's.
	m.dumped.Clear()
	m.dump.Truncate(0)
	m.dumpLive = 0
	m.stats.Dumped += int64(n)
	return n, nil
}

// CompleteBatch unpins the batch's locally-owned working parameters and runs
// the batch-completion housekeeping (Maintain): a full dump buffer goes to
// the SSD-PS, and the SSD-PS is compacted when its disk usage exceeds the
// threshold (Algorithm 1 lines 17-18), both in the background.
func (m *MemPS) CompleteBatch(ws *WorkingSet) error {
	if ws == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.unpin(ws)
	return m.maintain()
}

// unpin releases the pins of ws's local keys — through their Refs while
// those still hold, else by key — and keeps ws's Ref slice for the next
// working set. The caller must hold m.mu.
func (m *MemPS) unpin(ws *WorkingSet) {
	for x, k := range ws.LocalKeys {
		if x < len(ws.refs) && m.cache.Holds(ws.refs[x], uint64(k)) {
			m.cache.UnpinRef(ws.refs[x])
		} else {
			m.cache.Unpin(uint64(k))
		}
	}
	if ws.refs != nil {
		m.spareRefs = append(m.spareRefs, ws.refs[:0])
		ws.refs = nil
	}
}

// takeRefs returns a Ref slice of length n for a working set's pins. The
// caller must hold m.mu.
func (m *MemPS) takeRefs(n int) []cache.Ref[int32] {
	var refs []cache.Ref[int32]
	if k := len(m.spareRefs); k > 0 {
		refs, m.spareRefs = m.spareRefs[k-1], m.spareRefs[:k-1]
	}
	return ps.Resize(refs, n)
}

// Maintain runs the batch-completion housekeeping without a working set.
// It waits out the background write in flight, if any, and returns its
// error if it failed. Otherwise, once the dump buffer is full, it starts the
// next write — dump the buffer to the SSD-PS, then compact the SSD-PS if its
// disk usage exceeds the threshold — and returns without waiting for it.
// CompleteBatch calls it after unpinning; shard servers call it from the push
// RPC, which arrives once per training batch.
func (m *MemPS) Maintain() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.maintain()
}

// maintain is Maintain for a caller holding m.mu.
func (m *MemPS) maintain() error {
	if err := m.waitWrite(); err != nil {
		return err
	}
	if m.dumpLive < m.cfg.DumpBatchSize {
		return nil
	}
	// The rows stay in the buffer, now of an older epoch than it: lookups
	// keep finding them, and the next eviction of one of their keys
	// replaces the row instead of touching what the write reads.
	m.out, m.dump = m.dump, m.out
	m.dump.Truncate(0)
	m.dumpLive = 0
	m.epoch++
	m.writing = true
	m.writeStore = m.cfg.Store
	go m.startWrite()
	return nil
}

// waitWrite waits until no background write is in flight, then returns and
// clears the last write's error. The caller must hold m.mu, which is released
// while waiting.
func (m *MemPS) waitWrite() error {
	for m.writing {
		m.writeDone.Wait()
	}
	err := m.writeErr
	m.writeErr = nil
	return err
}

// write is the background write: it dumps the present rows of m.out to
// m.writeStore, compacts the store if its disk usage crossed the threshold,
// and then settles the rows in the dump buffer. A row the buffer still holds
// for the write leaves it once it is on the SSD. If the dump failed, it moves
// to the current buffer for the next write — unless the cache holds a newer
// copy of its key, which supersedes it. Until it settles, the write owns
// m.out, m.writeStore and the two error fields, which maintain set before
// starting it.
func (m *MemPS) write() {
	if m.writeHook != nil {
		m.writeHook(m.writeIO)
	} else {
		m.writeIO()
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	out, dumpErr := m.out, m.dumpErr
	written := 0
	for i, k := range out.Keys {
		if !out.Present[i] {
			continue
		}
		written++
		if dumpErr == nil {
			// The row is on the SSD-PS and leaves the buffer, unless a newer
			// copy replaced it there (rare: that costs a second probe).
			if d, ok := m.dumped.Delete(k); ok && !m.beingWritten(d) {
				m.dumped.Put(k, d)
			}
			continue
		}
		d, ok := m.dumped.Get(k)
		switch {
		case !ok || !m.beingWritten(d):
			// A newer copy replaced the row.
		case m.cache.Contains(uint64(k)):
			m.dumped.Delete(k)
		default:
			m.toDump(k, out, int32(i))
		}
	}
	if dumpErr == nil {
		m.stats.Dumped += int64(written)
	}
	m.writeErr, m.dumpErr, m.writeStore = m.ioErr, nil, nil
	m.ioErr = nil
	m.writing = false
	m.writeDone.Broadcast()
}

// dumpOut is the background write's SSD-PS I/O: the dump, then the
// compaction if one is due.
func (m *MemPS) dumpOut() {
	if m.dumpErr = m.writeStore.DumpBlock(m.out); m.dumpErr != nil {
		m.ioErr = fmt.Errorf("memps: dump evicted parameters: %w", m.dumpErr)
	} else if _, err := m.writeStore.CompactIfNeeded(); err != nil {
		m.ioErr = fmt.Errorf("memps: compaction: %w", err)
	}
}

// Flush writes every cached parameter and every pending eviction to the
// SSD-PS and fsyncs it, so the state it wrote survives a power loss. It waits
// out the background write in flight first and returns that write's error,
// if it failed, without flushing. It is called at the end of training and
// for every checkpoint.
func (m *MemPS) Flush() error {
	_, err := m.flushAll()
	return err
}

// flushAll demotes the entire in-memory state (cache and dump buffer) to the
// SSD-PS and syncs it, returning how many parameters were written. The dump
// runs under m.mu so the parameters stay reachable throughout (see Evict);
// the sync, which covers the background writes before it too, does not.
func (m *MemPS) flushAll() (int, error) {
	m.mu.Lock()
	if err := m.waitWrite(); err != nil {
		m.mu.Unlock()
		return 0, err
	}
	// Drain the cache into the dump buffer, so a failed dump leaves every
	// row there. The cache is empty then, and so is the slab.
	m.cache.Flush(func(k uint64, slot int32) {
		m.toDump(keys.Key(k), &m.rows, slot)
	})
	m.rows.Truncate(0)
	m.free = m.free[:0]
	n, err := m.dumpBuffer()
	if n > 0 {
		m.rec.RecordEvict(n)
	}
	store := m.cfg.Store
	m.mu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("memps: flush: %w", err)
	}
	if err := store.Sync(); err != nil {
		return 0, fmt.Errorf("memps: flush: %w", err)
	}
	return n, nil
}
