package linuxref

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/des"
)

// Start implements engine.CacheModel: it launches the background writeback
// thread (the kernel's per-bdi flusher). Writers wake it through wakeFl;
// throttled writers and reclaimers wait on progress.
func (m *Model) Start(k *des.Kernel, mkCaller func(*des.Proc) core.Caller, running func() bool) {
	m.k = k
	m.mkCaller = mkCaller
	m.running = running
	m.wakeFl = des.NewSignal(k)
	m.progress = des.NewSignal(k)
	k.Spawn("kworker-writeback", func(p *des.Proc) { m.flusherLoop(p) })
}

// flusherLoop is the asynchronous writeback thread: it writes back dirty
// folios whenever (a) dirty data exceeds dirty_background_ratio, or
// (b) folios have been dirty longer than dirty_expire; otherwise it naps
// until kicked or until the periodic interval elapses.
func (m *Model) flusherLoop(p *des.Proc) {
	c := m.mkCaller(p)
	for m.running() {
		if !m.writebackWork(p.Now()) {
			m.wakeFl.WaitTimeout(p, m.cfg.FlushInterval)
			continue
		}
		m.writebackBatch(c)
		m.progress.Broadcast()
	}
}

// writebackWork reports whether the flusher has something to do.
func (m *Model) writebackWork(now float64) bool {
	if m.dirtyBytes() > m.dirtyBgLimit() {
		return true
	}
	f := m.oldestDirty()
	return f != 0 && now-m.folios.at(f).entry >= m.cfg.DirtyExpire
}

// oldestDirty drops stale entries from the front of the dirty ring and
// returns the oldest dirty folio's slot, or 0. An entry is stale once its
// folio was cleaned or its slot freed.
func (m *Model) oldestDirty() int32 {
	for m.dirtyQ.n > 0 {
		e := m.dirtyQ.front()
		if r := m.folios.at(e.f); r.dirty && r.gen == e.gen {
			return e.f
		}
		m.dirtyQ.pop()
	}
	return 0
}

// writeOldest cleans the run of oldest dirty folios that belong to one
// file, up to budget bytes but at least one folio, and writes them back in
// one request. It returns the bytes written, 0 when nothing is dirty.
func (m *Model) writeOldest(c core.Caller, budget int64) int64 {
	f := m.oldestDirty()
	if f == 0 {
		return 0
	}
	ino := m.folios.at(f).ino
	var bytes int64
	for bytes < budget {
		g := m.oldestDirty()
		if g == 0 || m.folios.at(g).ino != ino {
			break
		}
		m.dirtyQ.pop()
		m.markClean(g)
		bytes += m.cfg.FolioSize
	}
	c.DiskWrite(m.inos[ino].name, bytes) // blocking; state may change meanwhile
	return bytes
}

// writebackBatch cleans up to WritebackBatch bytes of the oldest dirty
// folios and writes them to their backing stores (grouped per file to model
// per-inode writeback requests).
func (m *Model) writebackBatch(c core.Caller) {
	for budget := m.cfg.WritebackBatch; budget > 0; {
		n := m.writeOldest(c, budget)
		if n == 0 {
			return
		}
		budget -= n
	}
}

// kickFlusher wakes the writeback thread immediately.
func (m *Model) kickFlusher() {
	if m.wakeFl != nil {
		m.wakeFl.Broadcast()
	}
}

// waitProgress parks the caller until the flusher reports progress. Callers
// must have kicked the flusher first. A proc-less caller (no DES context)
// cannot wait; that cannot happen in the engine.
func (m *Model) waitProgress(p *des.Proc) { m.progress.Wait(p) }

// callerProc extracts the engine process from the caller. The engine's caller
// type is the only implementation used with linuxref; it exposes the proc
// via the core.Caller contract (transfers park it), so we thread the proc
// through explicitly instead.
//
// ReadFile/WriteFile receive a caller built around the app's proc; the
// model additionally needs the proc itself for condition waits. The engine
// guarantees mkCaller(p) callers; we recover p by requiring the caller to
// implement procCarrier.
type procCarrier interface{ Proc() *des.Proc }

func callerProc(c core.Caller) *des.Proc {
	if pc, ok := c.(procCarrier); ok {
		return pc.Proc()
	}
	return nil
}

// ensureFree reclaims until `need` bytes are free, waiting on writeback when
// everything evictable is dirty. Returns ErrOutOfMemory when no combination
// of reclaim and writeback can satisfy the request.
func (m *Model) ensureFree(c core.Caller, need int64) error {
	if need > m.cfg.TotalMem {
		return ErrOutOfMemory
	}
	for !m.reclaim(need) {
		if m.dirty == 0 {
			return ErrOutOfMemory
		}
		m.kickFlusher()
		if p := callerProc(c); p != nil {
			m.waitProgress(p)
			continue
		}
		// No process context (sequential tests): flush synchronously.
		if m.writeOldest(c, m.cfg.FolioSize) == 0 {
			return ErrOutOfMemory
		}
	}
	return nil
}

// growTable grows ino's folio table to cover its first n bytes, or fails if
// they span more folios than an int32 index reaches.
func (m *Model) growTable(ino *inode, n int64) error {
	_, hi := m.folioRange(0, n)
	if hi > math.MaxInt32 {
		return fmt.Errorf("linuxref: %s: %d bytes span %d folios, more than the folio table holds", ino.name, n, hi)
	}
	ino.reserve(hi)
	return nil
}

// folioRange returns the folio indices covering [off, off+n).
func (m *Model) folioRange(off, n int64) (lo, hi int64) {
	lo = off / m.cfg.FolioSize
	hi = (off + n + m.cfg.FolioSize - 1) / m.cfg.FolioSize
	return lo, hi
}

// touch handles a cache hit on slot f: referenced-bit promotion as in
// mark_page_accessed (inactive+referenced → active MRU).
func (m *Model) touch(f int32) {
	switch r := m.folios.at(f); {
	case r.list == activeList:
		r.referenced = true // stays put; order refreshed on activation only
	case r.referenced:
		m.remove(&m.inactive, f)
		m.pushBack(&m.active, f)
	default:
		r.referenced = true
	}
}

// ReadFile implements engine.CacheModel: sequential chunked read of the
// first n bytes, with folio hits at memory speed and misses at disk speed,
// charging anonymous memory for the application copy.
func (m *Model) ReadFile(c core.Caller, file string, n, fileSize int64) error {
	ino := m.inode(file)
	if ino.size < fileSize {
		ino.size = fileSize // pre-existing input data
	}
	// The application's copy of a read past RAM runs out of memory first,
	// so the table need not grow past RAM up front.
	if err := m.growTable(ino, min(n, m.cfg.TotalMem)); err != nil {
		return err
	}
	for off := int64(0); off < n; off += m.cfg.ReadChunk {
		cs := m.cfg.ReadChunk
		if n-off < cs {
			cs = n - off
		}
		lo, hi := m.folioRange(off, cs)
		var missFolios int64
		for i := lo; i < hi; i++ {
			if ino.at(i) == 0 {
				missFolios++
			}
		}
		missBytes := missFolios * m.cfg.FolioSize
		// Room for the miss folios plus the application's chunk copy.
		if err := m.ensureFree(c, missBytes+cs+m.lowWater()); err != nil {
			return err
		}
		// Hits first in accounting order is irrelevant to timing: charge
		// both transfers.
		hitBytes := cs - min(missBytes, cs)
		m.readHits += hitBytes
		m.readMisses += cs - hitBytes
		if missBytes > 0 {
			c.DiskRead(file, missBytes)
			for i := lo; i < hi; i++ {
				if ino.at(i) == 0 {
					m.pushBack(&m.inactive, m.insert(ino, i))
				}
			}
		}
		if hitBytes > 0 {
			c.MemRead(hitBytes)
		}
		for i := lo; i < hi; i++ {
			if f := ino.at(i); f != 0 {
				m.touch(f)
			}
		}
		m.anon += cs
		if m.free() < 0 {
			// The chunk copy overcommitted: direct reclaim.
			if err := m.ensureFree(c, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteFile implements engine.CacheModel: writeback semantics with
// background writeback and balance_dirty_pages throttling.
func (m *Model) WriteFile(c core.Caller, file string, size int64) error {
	ino := m.inode(file)
	// Appends start after previously written data, evicted or not.
	start := ino.size
	if err := m.growTable(ino, start+size); err != nil {
		return err
	}
	ino.writers++
	defer m.closeWrite(ino)
	ino.size += size
	for off := start; off < start+size; off += m.cfg.ReadChunk {
		cs := m.cfg.ReadChunk
		if start+size-off < cs {
			cs = start + size - off
		}
		lo, hi := m.folioRange(off, cs)
		newBytes := (hi - lo) * m.cfg.FolioSize
		if err := m.ensureFree(c, newBytes+m.lowWater()); err != nil {
			return err
		}
		// balance_dirty_pages: throttle while over the hard dirty limit.
		for m.dirtyBytes() > m.dirtyLimit() {
			m.kickFlusher()
			if p := callerProc(c); p != nil {
				m.waitProgress(p)
			} else if m.writeOldest(c, m.cfg.FolioSize) == 0 {
				break
			}
		}
		c.MemWrite(cs)
		now := c.Now()
		for i := lo; i < hi; i++ {
			f := ino.at(i)
			if f == 0 {
				f = m.insert(ino, i)
				m.pushBack(&m.inactive, f)
			}
			m.markDirty(f, now)
		}
		if m.free() < 0 {
			// A concurrent operation took the room reserved above while
			// MemWrite blocked: direct reclaim.
			if err := m.ensureFree(c, 0); err != nil {
				return err
			}
		}
		if m.dirtyBytes() > m.dirtyBgLimit() {
			m.kickFlusher()
		}
	}
	return nil
}
