package linuxref

import (
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
	return f != nil && now-f.entry >= m.cfg.DirtyExpire
}

// oldestDirty pops lazily-cleaned entries and returns the oldest dirty
// folio, or nil.
func (m *Model) oldestDirty() *folio {
	for len(m.dirtyQ) > 0 {
		f := m.dirtyQ[0]
		if f.dirty {
			return f
		}
		m.dirtyQ = m.dirtyQ[1:]
	}
	return nil
}

// writebackBatch cleans up to WritebackBatch bytes of the oldest dirty
// folios and writes them to their backing stores (grouped per file to model
// per-inode writeback requests).
func (m *Model) writebackBatch(c core.Caller) {
	budget := m.cfg.WritebackBatch
	for budget > 0 {
		f := m.oldestDirty()
		if f == nil {
			return
		}
		// Gather folios of the same file from the queue head run.
		ino := f.ino
		var bytes int64
		for budget > 0 {
			g := m.oldestDirty()
			if g == nil || g.ino != ino {
				break
			}
			m.dirtyQ = m.dirtyQ[1:]
			m.markClean(g)
			bytes += m.cfg.FolioSize
			budget -= m.cfg.FolioSize
		}
		if bytes > 0 {
			c.DiskWrite(ino.name, bytes) // blocking; state may change meanwhile
		}
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
		f := m.oldestDirty()
		if f == nil {
			return ErrOutOfMemory
		}
		m.dirtyQ = m.dirtyQ[1:]
		m.markClean(f)
		c.DiskWrite(f.ino.name, m.cfg.FolioSize)
	}
	return nil
}

// folioRange returns the folio indices covering [off, off+n).
func (m *Model) folioRange(off, n int64) (lo, hi int64) {
	lo = off / m.cfg.FolioSize
	hi = (off + n + m.cfg.FolioSize - 1) / m.cfg.FolioSize
	return lo, hi
}

// touch handles a cache hit on f: referenced-bit promotion as in
// mark_page_accessed (inactive+referenced → active MRU).
func (m *Model) touch(f *folio) {
	switch {
	case f.list == &m.active:
		f.referenced = true // stays put; order refreshed on activation only
	case f.referenced:
		m.inactive.remove(f)
		m.active.pushBack(f)
	default:
		f.referenced = true
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
	for off := int64(0); off < n; off += m.cfg.ReadChunk {
		cs := m.cfg.ReadChunk
		if n-off < cs {
			cs = n - off
		}
		lo, hi := m.folioRange(off, cs)
		var missFolios int64
		for i := lo; i < hi; i++ {
			if ino.at(i) == nil {
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
		hitBytes := cs - minI64(missBytes, cs)
		m.readHits += hitBytes
		m.readMisses += cs - hitBytes
		if missBytes > 0 {
			c.DiskRead(file, missBytes)
			for i := lo; i < hi; i++ {
				if ino.at(i) == nil {
					m.inactive.pushBack(ino.insert(i))
				}
			}
		}
		if hitBytes > 0 {
			c.MemRead(hitBytes)
		}
		for i := lo; i < hi; i++ {
			if f := ino.at(i); f != nil {
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
	ino.writers++
	defer m.closeWrite(ino)
	// Appends start after previously written data, evicted or not.
	start := ino.size
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
			} else {
				f := m.oldestDirty()
				if f == nil {
					break
				}
				m.dirtyQ = m.dirtyQ[1:]
				m.markClean(f)
				c.DiskWrite(f.ino.name, m.cfg.FolioSize)
			}
		}
		c.MemWrite(cs)
		now := c.Now()
		for i := lo; i < hi; i++ {
			f := ino.at(i)
			if f == nil {
				f = ino.insert(i)
				m.inactive.pushBack(f)
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

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
