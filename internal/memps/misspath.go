package memps

import (
	"time"

	"hps/internal/embedding"
	"hps/internal/keys"
)

// missPass is the state of one resolve call's misses: noted while it probes
// the cache, loaded from the SSD-PS in a single pass, then resolved in the
// order they were noted.
type missPass struct {
	// idx are the positions (in whatever the caller iterates) that missed.
	idx []int
	// toLoad are their keys, in the same order, minus the ones whose latest
	// value still sits in the dump buffer; loaded[j] is toLoad[j]'s value from
	// the SSD-PS, nil when it holds none.
	toLoad []keys.Key
	loaded []*embedding.Value
	next   int // toLoad[:next] have been taken
}

func (p *missPass) reset() {
	p.idx, p.toLoad, p.next = p.idx[:0], p.toLoad[:0], 0
}

// take returns the value loaded for k, nil when there is none. Misses must be
// taken in the order they were noted.
func (p *missPass) take(k keys.Key) *embedding.Value {
	if p.next == len(p.toLoad) || p.toLoad[p.next] != k {
		return nil
	}
	p.next++
	return p.loaded[p.next-1]
}

// noteMiss records that position i of the resolve in progress, holding key
// k, missed the cache, and queues k for the batched SSD load unless the dump
// buffer holds its latest value. Duplicate keys must be adjacent (they are
// queued once). The caller must hold m.mu.
func (m *MemPS) noteMiss(i int, k keys.Key) {
	p := &m.miss
	p.idx = append(p.idx, i)
	if _, pending := m.pendingDump[k]; pending {
		return
	}
	if n := len(p.toLoad); n == 0 || p.toLoad[n-1] != k {
		p.toLoad = append(p.toLoad, k)
	}
}

// loadMisses batch-loads the noted cold keys from the SSD-PS and returns the
// modelled read duration. The caller must hold m.mu.
func (m *MemPS) loadMisses() (time.Duration, error) {
	p := &m.miss
	if len(p.toLoad) == 0 {
		return 0, nil
	}
	var err error
	var d time.Duration
	p.loaded, d, err = m.cfg.Store.LoadInto(p.toLoad, p.loaded)
	return d, err
}

// resolveMiss returns the authoritative value of a noted miss (misses resolve
// in the order they were noted): from the pending-dump buffer, else the value
// the batched SSD load found for it, else created on first reference. The
// resolved value enters the cache. The caller must hold m.mu.
func (m *MemPS) resolveMiss(k keys.Key, st *PullStats) *embedding.Value {
	loaded := m.miss.take(k)
	if e, ok := m.pendingDump[k]; ok {
		// Not yet on the SSD; pull it back into the cache. A row the
		// background write is reading stays where it is, and the cache gets
		// a copy of it.
		v := e.v
		if m.beingWritten(e) {
			v = m.copyOf(v)
		} else {
			delete(m.pendingDump, k)
		}
		m.cache.Put(uint64(k), v)
		return v
	}
	if loaded != nil {
		st.SSDHits++
		m.cache.Put(uint64(k), loaded)
		return loaded
	}
	v := embedding.NewKeyedValue(m.cfg.Dim, m.seed, uint64(k))
	st.NewParams++
	m.cache.Put(uint64(k), v)
	return v
}

// copyOf returns a private copy of v, in a spare value when there is one. The
// caller must hold m.mu.
func (m *MemPS) copyOf(v *embedding.Value) *embedding.Value {
	n := len(m.spare)
	if n == 0 {
		return v.Clone()
	}
	c := m.spare[n-1]
	m.spare = m.spare[:n-1]
	c.Freq = v.Freq
	copy(c.Weights, v.Weights)
	copy(c.G2Sum, v.G2Sum)
	return c
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
// key of ks and hands each hit to use at probe time, pinned first under
// probePin. The misses are noted, loaded from the SSD-PS in one batched load
// and resolved — entering the cache — in the order they were noted, each
// handed to use in turn; a run of equal keys resolves once and reaches use
// once per position. st gets the cache outcomes and the load's modelled
// time. A failed load withdraws the pins the call took and returns its error:
// a failed batch must not leak pinned, unevictable entries, since
// CompleteBatch is never called for it. ks must be sorted (unique under
// probePin), and the caller must hold m.mu.
func (m *MemPS) resolve(ks []keys.Key, how probe, st *PullStats, use func(i int, v *embedding.Value)) error {
	p := &m.miss
	p.reset()
	for i, k := range ks {
		var v *embedding.Value
		var ok bool
		if how == probeApply {
			v, ok = m.cache.GetApply(uint64(k))
		} else {
			v, ok = m.cache.Get(uint64(k))
		}
		if !ok {
			m.noteMiss(i, k)
			continue
		}
		if how == probePin {
			m.cache.Pin(uint64(k))
		}
		use(i, v)
	}
	st.CacheMisses += len(p.idx)
	st.CacheHits += len(ks) - len(p.idx)
	var err error
	if st.LocalTime, err = m.loadMisses(); err != nil {
		if how == probePin {
			misses := p.idx
			for i, k := range ks {
				if len(misses) > 0 && misses[0] == i {
					misses = misses[1:]
					continue
				}
				m.cache.Unpin(uint64(k))
			}
		}
		return err
	}
	var v *embedding.Value
	for n, i := range p.idx {
		if n == 0 || ks[i] != ks[p.idx[n-1]] {
			v = m.resolveMiss(ks[i], st)
			if how == probePin {
				m.cache.Pin(uint64(ks[i]))
			}
		}
		use(i, v)
	}
	return nil
}
