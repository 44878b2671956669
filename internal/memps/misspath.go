package memps

import (
	"hps/internal/cache"
	"hps/internal/embedding"
	"hps/internal/hw"
	"hps/internal/keys"
)

// missPass is the state of one resolve call's misses: noted while it probes
// the cache, loaded from the SSD-PS in a single pass straight into slab rows,
// then resolved in the order they were noted.
type missPass struct {
	// idx are the positions (in whatever the caller iterates) that missed.
	idx []int
	// from is where each distinct missed key resolves from, in the order the
	// keys were noted.
	from []missFrom
	// toLoad are the keys of from whose latest value is not in the dump
	// buffer, and loadRows the slab rows the batched load decodes them into.
	toLoad   []keys.Key
	loadRows []int32
	next     int // from[:next] have been resolved
}

// missFrom is where a missed key's value comes from: row d of the dump
// buffer when inDump, else slab row slot, which the batched SSD-PS load
// leaves present when the store held the key.
type missFrom struct {
	d      dumpRow
	slot   int32
	inDump bool
}

func (p *missPass) reset() {
	p.idx, p.from, p.toLoad, p.loadRows, p.next = p.idx[:0], p.from[:0], p.toLoad[:0], p.loadRows[:0], 0
}

// noteMiss records that position i of the resolve in progress, holding key
// k, missed the cache; dup says the miss noted before it was of k too. A
// key whose latest value the dump buffer holds is taken from there; any other
// gets a slab row and is queued for the batched SSD load. Duplicate keys
// must be adjacent (they are noted once). The caller must hold m.mu.
func (m *MemPS) noteMiss(i int, k keys.Key, dup bool) {
	p := &m.miss
	p.idx = append(p.idx, i)
	if dup {
		return
	}
	if d, ok := m.dumped.Get(k); ok {
		p.from = append(p.from, missFrom{d: d, inDump: true})
		return
	}
	slot := m.alloc(k)
	p.from = append(p.from, missFrom{slot: slot})
	p.toLoad = append(p.toLoad, k)
	p.loadRows = append(p.loadRows, slot)
}

// loadMisses batch-loads the noted cold keys from the SSD-PS into their slab
// rows and returns the work of the load. The caller must hold m.mu.
func (m *MemPS) loadMisses() (hw.Work, error) {
	p := &m.miss
	if len(p.toLoad) == 0 {
		return hw.Work{}, nil
	}
	return m.cfg.Store.LoadInto(p.toLoad, &m.rows, p.loadRows)
}

// releaseMisses gives back the slab rows a failed resolve took for its
// misses. The caller must hold m.mu.
func (m *MemPS) releaseMisses() {
	m.free = append(m.free, m.miss.loadRows...)
}

// resolveMiss returns the slab row of the next noted miss, k, holding its
// authoritative value: the dump buffer's row, copied into a slab row of its
// own, else the value the batched SSD load decoded into the row noteMiss took
// for it, else keyed init. The row enters the cache under k, pinned when ref
// is not nil (*ref receives the pin's Ref). The caller must hold m.mu.
func (m *MemPS) resolveMiss(k keys.Key, st *PullStats, ref *cache.Ref[int32]) int32 {
	p := &m.miss
	from := p.from[p.next]
	p.next++
	slot := from.slot
	switch {
	case from.inDump:
		// Not yet on the SSD; pull it back into the cache. A row the
		// background write is reading stays where it is, and the cache gets
		// a copy of it.
		d := from.d
		slot = m.alloc(k)
		m.rows.CopyRow(int(slot), m.dumpOf(d), int(d.row))
		if !m.beingWritten(d) {
			m.undump(k, d)
		}
	case m.rows.Present[slot]:
		st.SSDHits++
	default:
		embedding.InitKeyed(m.rows.WeightsRow(int(slot)), m.seed, uint64(k))
		clear(m.rows.G2Row(int(slot)))
		m.rows.Freq[slot], m.rows.Present[slot] = 0, true
		st.NewParams++
	}
	if ref != nil {
		*ref = m.cache.PutPin(uint64(k), slot)
	} else {
		m.cache.Put(uint64(k), slot)
	}
	return slot
}

// probe is how resolve reads the cache.
type probe int

const (
	// probeRead reads with Get: the keys count as visited.
	probeRead probe = iota
	// probePin reads like probeRead and pins every key until CompleteBatch.
	probePin
	// probeApply reads with GetApply, for a push: the pull that assembled
	// the batch already counted the visits.
	probeApply
)

// resolve is the one place an owned key resolves: from the cache, else the
// dump buffer, else the SSD-PS, else keyed init. It probes the cache once per
// key of ks and hands each hit's slab row to use at probe time, pinned first
// under probePin. The misses are noted, loaded from the SSD-PS in one batched
// load and resolved — entering the cache — in the order they were noted,
// each handed to use in turn; a run of equal keys resolves once and reaches
// use once per position. st gets the cache outcomes and the load's work. Under probePin refs[i] receives the Ref of ks[i]'s pin. A failed load
// withdraws the pins the call took and returns its error: a failed batch
// must not leak pinned, unevictable entries, since CompleteBatch is never
// called for it. ks must be sorted (unique under probePin), and the caller
// must hold m.mu.
//
// A row handed to use is the value's only until use returns: a later miss of
// the same call may evict the entry and reuse the row.
func (m *MemPS) resolve(ks []keys.Key, how probe, st *PullStats, refs []cache.Ref[int32], use func(i int, slot int32)) error {
	p := &m.miss
	p.reset()
	for i, k := range ks {
		var slot int32
		var ok bool
		switch how {
		case probeApply:
			slot, ok = m.cache.GetApply(uint64(k))
		case probePin:
			slot, refs[i], ok = m.cache.GetPin(uint64(k))
		default:
			slot, ok = m.cache.Get(uint64(k))
		}
		if !ok {
			n := len(p.idx)
			m.noteMiss(i, k, n > 0 && ks[p.idx[n-1]] == k)
			continue
		}
		use(i, slot)
	}
	st.CacheMisses += len(p.idx)
	st.CacheHits += len(ks) - len(p.idx)
	load, err := m.loadMisses()
	st.Work.Add(load)
	if err != nil {
		m.releaseMisses()
		if how == probePin {
			misses := p.idx
			for i := range ks {
				if len(misses) > 0 && misses[0] == i {
					misses = misses[1:]
					continue
				}
				m.cache.UnpinRef(refs[i])
			}
		}
		return err
	}
	var slot int32
	for n, i := range p.idx {
		if n == 0 || ks[i] != ks[p.idx[n-1]] {
			var ref *cache.Ref[int32]
			if how == probePin {
				ref = &refs[i]
			}
			slot = m.resolveMiss(ks[i], st, ref)
		}
		use(i, slot)
	}
	return nil
}
