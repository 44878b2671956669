package memps

import (
	"fmt"

	"hps/internal/embedding"
	"hps/internal/keys"
	"hps/internal/ssdps"
)

// maxSpares bounds the spare values a MEM-PS keeps, in dump batches. When
// each owner pins a batch's keys for every node until the push, the next
// batch's pull copies a few hundred rows per node out of the write in
// flight. On train_local_cold (400 batches, seed 1) spares for one dump
// batch cut the process's allocations by 7%, for two by 14% and for four by
// 18%; each dump batch of spares holds 32 KiB per node at dimension 8.
const maxSpares = 2

// dumpEntry is a row of the dump buffer: a value evicted from the cache in
// the given buffer epoch. A row of an older epoch than the buffer's belongs
// to the write in flight and is read-only until the write ends.
type dumpEntry struct {
	v     *embedding.Value
	epoch uint64
}

// beingWritten reports whether the write in flight holds e. The caller must
// hold m.mu.
func (m *MemPS) beingWritten(e dumpEntry) bool { return e.epoch != m.epoch }

// Evict implements ps.Tier: it demotes the given locally-owned, unpinned
// parameters from the memory cache to the SSD-PS, flushing the dump buffer
// along the way. A nil slice demotes everything (equivalent to Flush). It
// returns how many parameters left main memory for the SSD. It first waits
// out the background write in flight and returns that write's error, if it
// failed, without evicting anything.
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
	moved := 0
	for _, k := range ks {
		if !m.ownsKey(k) || m.cache.Pinned(uint64(k)) {
			continue
		}
		if v, ok := m.cache.Remove(uint64(k)); ok {
			m.pendingDump[k] = dumpEntry{v, m.epoch}
			moved++
		} else if _, pending := m.pendingDump[k]; pending {
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
	if len(m.pendingDump) == 0 {
		return 0, nil
	}
	all := make(map[keys.Key]*embedding.Value, len(m.pendingDump))
	for k, e := range m.pendingDump {
		all[k] = e.v
	}
	if err := m.cfg.Store.Dump(all); err != nil {
		return 0, err
	}
	m.pendingDump = make(map[keys.Key]dumpEntry)
	m.stats.Dumped += int64(len(all))
	return len(all), nil
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
	for _, k := range ws.LocalKeys {
		m.cache.Unpin(uint64(k))
	}
	return m.maintain()
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
	if len(m.pendingDump) < m.cfg.DumpBatchSize {
		return nil
	}
	// The rows stay in the buffer, now of an older epoch than it: lookups
	// keep finding them, and the next eviction of one of their keys
	// replaces the row instead of touching what the write reads.
	for k, e := range m.pendingDump {
		m.writeSet[k] = e.v
	}
	m.epoch++
	m.writing = true
	go m.write(m.cfg.Store, m.writeSet)
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

// write is the background write: it dumps rows to store, compacts the store
// if its disk usage crossed the threshold, and then settles the rows in the
// dump buffer. A row the buffer still holds for the write leaves it once it
// is on the SSD. If the dump failed, it stays for the next write — unless
// the cache holds a newer copy of its key, which supersedes it.
func (m *MemPS) write(store *ssdps.Store, rows map[keys.Key]*embedding.Value) {
	var err, dumpErr error
	io := func() {
		if dumpErr = store.Dump(rows); dumpErr != nil {
			err = fmt.Errorf("memps: dump evicted parameters: %w", dumpErr)
		} else if _, cerr := store.CompactIfNeeded(); cerr != nil {
			err = fmt.Errorf("memps: compaction: %w", cerr)
		}
	}
	if m.writeHook != nil {
		m.writeHook(io)
	} else {
		io()
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	for k := range rows {
		e, ok := m.pendingDump[k]
		switch {
		case !ok || !m.beingWritten(e):
			// A newer copy replaced the row.
		case dumpErr == nil || m.cache.Contains(uint64(k)):
			delete(m.pendingDump, k)
		default:
			m.pendingDump[k] = dumpEntry{e.v, m.epoch}
		}
	}
	if dumpErr == nil {
		m.stats.Dumped += int64(len(rows))
		// Every row is on the SSD-PS now, and the buffer, the cache (which
		// got copies) and the store hold none of them: keep some as spares.
		for _, v := range rows {
			if len(m.spare) == maxSpares*m.cfg.DumpBatchSize {
				break
			}
			m.spare = append(m.spare, v)
		}
	}
	clear(rows)
	m.writeErr = err
	m.writing = false
	m.writeDone.Broadcast()
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
	// row there.
	m.cache.Flush(func(k uint64, v *embedding.Value) {
		m.pendingDump[keys.Key(k)] = dumpEntry{v, m.epoch}
	})
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
