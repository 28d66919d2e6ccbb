// Package linuxref is the repository's stand-in for the paper's "Real
// execution" measurements: a folio-granularity emulator
// of the Linux page cache with the kernel mechanisms the paper's
// block-level model deliberately simplifies away:
//
//   - per-folio two-list LRU with referenced-bit promotion (second access
//     activates, as in mark_page_accessed);
//   - watermark-driven reclaim that balances the lists and gives clean
//     inactive folios a second chance;
//   - dirty_background_ratio writeback: an asynchronous flusher thread that
//     starts writing back long before writers are throttled, plus
//     dirty_expire-based periodic writeback;
//   - balance_dirty_pages-style writer throttling at dirty_ratio;
//   - "don't evict pages of files currently open for writing" (the
//     idiosyncrasy the paper names as its main source of residual error).
//
// Driven with the measured asymmetric bandwidths of Table III, it produces
// the reference timings/profiles the simulators are scored against.
//
// Each file name has one inode record: its open-writer count, its written
// size and a dense folio table indexed by folio number. Folios point at
// their inode, so the open-write protection test is a field read. Records
// are never deleted; InvalidateFile empties one in place, so a read or
// write in flight keeps a reachable record.
//
// Reclaim does not rescan. The inactive list carries a cursor, and every
// folio before it is dirty, belongs to a file open for writing, or is a
// pending candidate: a folio that writeback cleaned after the cursor had
// passed it. A protection-honouring scan takes the pending candidates in
// list order, then resumes at the cursor. It makes the decisions a walk
// from the head would make, but it visits a dirty or protected folio again
// only after the last writer of some file closes, which rewinds the cursor
// to that file's earliest clean inactive folio. The last-resort scan that
// ignores protection walks from the head. ReclaimStats counts scans, folio
// visits, evictions and promotions.
package linuxref

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/des"
)

// ErrOutOfMemory mirrors core.ErrOutOfMemory for the reference model.
var ErrOutOfMemory = errors.New("linuxref: out of memory")

// Config parameterizes the reference kernel.
type Config struct {
	TotalMem  int64
	FolioSize int64 // cache granularity; 1 MiB default keeps 100 GB files tractable
	ReadChunk int64 // application I/O granularity

	DirtyRatio           float64 // writer throttle (0.20)
	DirtyBackgroundRatio float64 // async writeback start (0.10)
	DirtyExpire          float64 // seconds (30)
	FlushInterval        float64 // periodic wakeup (5)

	// WatermarkLow is the free-memory fraction reclaim restores
	// (kswapd high watermark, ~0.5 % of RAM).
	WatermarkLow float64
	// ProtectOpenWrites keeps folios of files opened for writing resident
	// (on by default: this is ground-truth behaviour).
	ProtectOpenWrites bool
	// WritebackBatch is the flusher's per-iteration write size in bytes.
	WritebackBatch int64
}

// DefaultConfig returns CentOS-8-like defaults for the given RAM size.
func DefaultConfig(totalMem int64) Config {
	return Config{
		TotalMem:             totalMem,
		FolioSize:            1 << 20,
		ReadChunk:            100e6,
		DirtyRatio:           0.20,
		DirtyBackgroundRatio: 0.10,
		DirtyExpire:          30,
		FlushInterval:        5,
		WatermarkLow:         0.005,
		ProtectOpenWrites:    true,
		WritebackBatch:       64 << 20,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.TotalMem <= 0:
		return fmt.Errorf("linuxref: TotalMem must be positive")
	case c.FolioSize <= 0:
		return fmt.Errorf("linuxref: FolioSize must be positive")
	case c.ReadChunk <= 0:
		return fmt.Errorf("linuxref: ReadChunk must be positive")
	case c.DirtyRatio <= 0 || c.DirtyRatio > 1:
		return fmt.Errorf("linuxref: DirtyRatio must be in (0,1]")
	case c.DirtyBackgroundRatio <= 0 || c.DirtyBackgroundRatio > c.DirtyRatio:
		return fmt.Errorf("linuxref: DirtyBackgroundRatio must be in (0,DirtyRatio]")
	case c.FlushInterval <= 0:
		return fmt.Errorf("linuxref: FlushInterval must be positive")
	case c.WatermarkLow < 0 || c.WatermarkLow > 0.1:
		return fmt.Errorf("linuxref: WatermarkLow out of range")
	case c.WritebackBatch <= 0:
		return fmt.Errorf("linuxref: WritebackBatch must be positive")
	}
	return nil
}

// folio is one cache unit. Its fields fit one 64-byte size class:
// pointing at the inode rather than holding the file name leaves room for
// seq.
type folio struct {
	ino        *inode
	idx        int64   // slot in ino.folios
	seq        uint64  // insertion order on its current list
	entry      float64 // time dirtied (writeback expiry)
	prev, next *folio
	list       *folioList
	dirty      bool
	referenced bool
}

// folioList is an intrusive LRU list: front = LRU, back = MRU.
type folioList struct {
	head, tail *folio
	count      int64
	lastSeq    uint64
	// cursor is where the next protection-honouring reclaim pass of the
	// inactive list resumes (the active list's is unused): every folio
	// before it is dirty, belongs to a protected inode, or is pending in
	// Model.behind. nil means past the tail. Only Model.rewind moves it
	// back.
	cursor *folio
}

func (l *folioList) pushBack(f *folio) {
	if f.list != nil {
		panic("linuxref: folio already listed")
	}
	f.list = l
	f.prev = l.tail
	f.next = nil
	if l.tail != nil {
		l.tail.next = f
	} else {
		l.head = f
	}
	l.tail = f
	l.count++
	l.lastSeq++
	f.seq = l.lastSeq
	if l.cursor == nil {
		l.cursor = f
	}
}

func (l *folioList) remove(f *folio) {
	if f.list != l {
		panic("linuxref: folio not in this list")
	}
	if l.cursor == f {
		l.cursor = f.next
	}
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		l.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		l.tail = f.prev
	}
	f.prev, f.next, f.list = nil, nil, nil
	l.count--
}

// inode is one file name's record: its open writers, its written size
// (write offsets append after existing data even when folios were evicted)
// and its folio table. Records are never deleted, so an operation in flight
// keeps a valid record across InvalidateFile.
type inode struct {
	name    string
	writers int
	size    int64
	folios  []*folio // indexed by folio index; nil = not cached
	cached  int64    // non-nil entries of folios
}

// at returns the cached folio at index i, or nil.
func (ino *inode) at(i int64) *folio {
	if i < int64(len(ino.folios)) {
		return ino.folios[i]
	}
	return nil
}

// insert tables a new, unlisted folio at the uncached index i.
func (ino *inode) insert(i int64) *folio {
	for int64(len(ino.folios)) <= i {
		ino.folios = append(ino.folios, nil)
	}
	f := &folio{ino: ino, idx: i}
	ino.folios[i] = f
	ino.cached++
	return f
}

// untable removes an already-unlisted folio from its table.
func (ino *inode) untable(f *folio) {
	ino.folios[f.idx] = nil
	ino.cached--
}

// candidate is an entry of Model.behind. It is pending while f is still
// on the inactive list with the seq it was queued with.
type candidate struct {
	f   *folio
	seq uint64
}

// ReclaimStats counts reclaim work since New. The counts are deterministic,
// so tests and benchmarks can gate on them where wall time is noise.
type ReclaimStats struct {
	Scans      int64 // inactive-list passes
	Visits     int64 // folios those passes examined
	Evictions  int64
	Promotions int64 // referenced inactive folios moved to the active list
}

// Model is the reference kernel for one host. It implements
// engine.CacheModel.
type Model struct {
	cfg      Config
	inodes   map[string]*inode
	inactive folioList
	active   folioList
	dirtyQ   []*folio // FIFO by entry time; lazily compacted
	dirty    int64    // folio count
	anon     int64    // bytes
	stats    ReclaimStats
	// readHits and readMisses are the cumulative application read bytes
	// served from cached folios and from disk.
	readHits, readMisses int64

	// behind holds the reclaim candidates that appeared before the inactive
	// cursor (folios cleaned or unprotected after the cursor passed them),
	// pending from behind[behindHead:], in seq order unless behindUnsorted.
	behind         []candidate
	behindHead     int
	behindUnsorted bool

	k        *des.Kernel
	mkCaller func(*des.Proc) core.Caller
	wakeFl   *des.Signal // work for the flusher
	progress *des.Signal // writeback progress (throttled writers wait here)
	running  func() bool
}

// New returns a reference model.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Model{cfg: cfg, inodes: make(map[string]*inode)}, nil
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

func (m *Model) cacheBytes() int64 {
	return (m.inactive.count + m.active.count) * m.cfg.FolioSize
}
func (m *Model) dirtyBytes() int64 { return m.dirty * m.cfg.FolioSize }
func (m *Model) free() int64       { return m.cfg.TotalMem - m.anon - m.cacheBytes() }
func (m *Model) avail() int64      { return m.cfg.TotalMem - m.anon }

func (m *Model) dirtyLimit() int64 {
	return int64(m.cfg.DirtyRatio * float64(m.avail()))
}
func (m *Model) dirtyBgLimit() int64 {
	return int64(m.cfg.DirtyBackgroundRatio * float64(m.avail()))
}
func (m *Model) lowWater() int64 {
	return int64(m.cfg.WatermarkLow * float64(m.cfg.TotalMem))
}

// ReclaimStats returns the reclaim work counts.
func (m *Model) ReclaimStats() ReclaimStats { return m.stats }

// inode returns the record for file, creating it on first use.
func (m *Model) inode(file string) *inode {
	ino := m.inodes[file]
	if ino == nil {
		ino = &inode{name: file}
		m.inodes[file] = ino
	}
	return ino
}

func (m *Model) protected(ino *inode) bool {
	return m.cfg.ProtectOpenWrites && ino.writers > 0
}

// closeWrite ends one writer of ino. The last writer's close makes the
// inode's clean inactive folios reclaim candidates: the cursor rewinds to
// the earliest one it has passed.
func (m *Model) closeWrite(ino *inode) {
	ino.writers--
	if ino.writers > 0 || !m.cfg.ProtectOpenWrites {
		return
	}
	var first *folio
	for _, f := range ino.folios {
		if f != nil && !f.dirty && f.list == &m.inactive && (first == nil || f.seq < first.seq) {
			first = f
		}
	}
	if c := m.inactive.cursor; first != nil && (c == nil || first.seq < c.seq) {
		m.rewind(first)
	}
}

// rewind moves the cursor back to f. Pending candidates at or after f are
// dropped: the cursor walk reaches them.
func (m *Model) rewind(f *folio) {
	m.inactive.cursor = f
	kept := m.behind[:0]
	for _, c := range m.behind[m.behindHead:] {
		if m.pending(c) && c.seq < f.seq {
			kept = append(kept, c)
		}
	}
	clear(m.behind[len(kept):])
	m.behind, m.behindHead = kept, 0
}

func (m *Model) pending(c candidate) bool {
	return c.f.list == &m.inactive && c.f.seq == c.seq
}

// queueBehind records f, a clean unprotected inactive folio, as a pending
// reclaim candidate if the cursor has already passed it.
func (m *Model) queueBehind(f *folio) {
	if c := m.inactive.cursor; c != nil && f.seq >= c.seq {
		return
	}
	if n := len(m.behind); n > m.behindHead && m.behind[n-1].seq > f.seq {
		m.behindUnsorted = true
	}
	m.behind = append(m.behind, candidate{f, f.seq})
}

// popBehind returns the pending candidate earliest in the list, or nil.
// Entries whose folio left the inactive list since they were queued are
// dropped on the way.
func (m *Model) popBehind() *folio {
	if m.behindUnsorted {
		slices.SortFunc(m.behind[m.behindHead:], func(a, b candidate) int { return cmp.Compare(a.seq, b.seq) })
		m.behindUnsorted = false
	}
	for m.behindHead < len(m.behind) {
		c := m.behind[m.behindHead]
		m.behindHead++
		if 2*m.behindHead >= len(m.behind) {
			// Reuse the popped prefix rather than growing the array.
			n := copy(m.behind, m.behind[m.behindHead:])
			clear(m.behind[n:])
			m.behind, m.behindHead = m.behind[:n], 0
		}
		if m.pending(c) {
			return c.f
		}
	}
	return nil
}

// markDirty flags f dirty at time now and queues it for writeback.
func (m *Model) markDirty(f *folio, now float64) {
	if !f.dirty {
		f.dirty = true
		f.entry = now
		m.dirty++
		m.dirtyQ = append(m.dirtyQ, f)
	}
}

// markClean clears f's dirty flag, making a clean unprotected inactive
// folio a reclaim candidate.
func (m *Model) markClean(f *folio) {
	if !f.dirty {
		return
	}
	f.dirty = false
	m.dirty--
	if f.list == &m.inactive && !m.protected(f.ino) {
		m.queueBehind(f)
	}
}

// shrinkActive demotes active-list LRU folios into the inactive list until
// inactive ≥ active/2 (the kernel's inactive_is_low balancing), clearing
// referenced bits on the way.
func (m *Model) shrinkActive() {
	for m.active.count > 2*m.inactive.count {
		f := m.active.head
		if f == nil {
			return
		}
		m.active.remove(f)
		f.referenced = false
		m.inactive.pushBack(f)
	}
}

// reclaim evicts clean inactive folios until at least `need` bytes are
// free, escalating like the kernel's scan priority: first honoring both the
// referenced second chance and open-write protection, then force-demoting
// active folios, and as a last resort reclaiming clean folios of files
// being written (the kernel "tends not to evict" those — it still does
// under real pressure). Returns false once nothing more can be freed
// without writeback.
func (m *Model) reclaim(need int64) bool {
	for m.free() < need {
		m.shrinkActive()
		if m.scanInactive(need, true) {
			continue
		}
		if m.forceShrinkActive(need) {
			continue
		}
		if m.scanInactive(need, false) {
			continue
		}
		return false
	}
	return true
}

// scanInactive walks the inactive list LRU-first, evicting clean
// unreferenced folios (skipping protected files when honorProtection) and
// giving referenced folios their second chance. It reports whether any
// folio was actually evicted.
//
// A protection-honouring pass visits the candidates pending behind the
// cursor in list order, then resumes at the cursor and leaves it where it
// stopped: the folios it passes over are exactly those a walk from the head
// would skip, so its decisions are that walk's. The last-resort pass walks
// from the head.
func (m *Model) scanInactive(need int64, honorProtection bool) bool {
	m.stats.Scans++
	evictions := m.stats.Evictions
	if honorProtection {
		for m.free() < need {
			f := m.popBehind()
			if f == nil {
				if f = m.inactive.cursor; f == nil {
					break
				}
			}
			if m.reclaimFolio(f, true) && f == m.inactive.cursor {
				m.inactive.cursor = f.next
			}
		}
	} else {
		for f := m.inactive.head; f != nil && m.free() < need; {
			next := f.next
			m.reclaimFolio(f, false)
			f = next
		}
	}
	return m.stats.Evictions > evictions
}

// reclaimFolio makes one reclaim decision on inactive folio f and reports
// whether f stays: writeback, or protection when honorProtection, must
// release it first.
func (m *Model) reclaimFolio(f *folio, honorProtection bool) (kept bool) {
	m.stats.Visits++
	switch {
	case f.dirty || (honorProtection && m.protected(f.ino)):
		return true
	case f.referenced:
		m.inactive.remove(f)
		f.referenced = false
		m.active.pushBack(f)
		m.stats.Promotions++
	default:
		m.inactive.remove(f)
		f.ino.untable(f)
		m.stats.Evictions++
	}
	return false
}

// forceShrinkActive demotes enough active folios to cover `need` (plus a
// batch margin) regardless of the 2:1 ratio — the escalation path when the
// inactive list holds nothing reclaimable. Reports whether any demotion
// happened.
func (m *Model) forceShrinkActive(need int64) bool {
	batch := need/m.cfg.FolioSize + 1024
	demoted := false
	for i := int64(0); i < batch; i++ {
		f := m.active.head
		if f == nil {
			return demoted
		}
		m.active.remove(f)
		f.referenced = false
		m.inactive.pushBack(f)
		demoted = true
	}
	return demoted
}

// Stats / introspection -----------------------------------------------------

// Snapshot implements engine.CacheModel.
func (m *Model) Snapshot() core.Stats {
	return core.Stats{
		Total:          m.cfg.TotalMem,
		Anon:           m.anon,
		Cache:          m.cacheBytes(),
		Dirty:          m.dirtyBytes(),
		Free:           m.free(),
		Available:      m.avail(),
		ActiveBytes:    m.active.count * m.cfg.FolioSize,
		InactiveBytes:  m.inactive.count * m.cfg.FolioSize,
		ActiveBlocks:   int(m.active.count),
		InactiveBlocks: int(m.inactive.count),
		DirtyThreshold: m.dirtyLimit(),
		ReadHitBytes:   m.readHits,
		ReadMissBytes:  m.readMisses,
	}
}

// CachedByFile implements engine.CacheModel.
func (m *Model) CachedByFile() map[string]int64 {
	out := make(map[string]int64)
	for name, ino := range m.inodes {
		if ino.cached > 0 {
			out[name] = ino.cached * m.cfg.FolioSize
		}
	}
	return out
}

// InvalidateFile implements engine.CacheModel. It empties the file's
// record in place (deletion semantics: the size resets) and keeps its
// writer count.
func (m *Model) InvalidateFile(file string) {
	ino := m.inodes[file]
	if ino == nil {
		return
	}
	for _, f := range ino.folios {
		if f != nil {
			f.list.remove(f) // before markClean: a dropped folio is no candidate
			m.markClean(f)
		}
	}
	clear(ino.folios)
	ino.folios, ino.cached, ino.size = ino.folios[:0], 0, 0
}

// ReleaseAnon implements engine.CacheModel.
func (m *Model) ReleaseAnon(n int64) {
	if n < 0 || n > m.anon {
		panic(fmt.Sprintf("linuxref: invalid ReleaseAnon(%d) with anon=%d", n, m.anon))
	}
	m.anon -= n
}

// CheckInvariants verifies internal consistency (tests).
func (m *Model) CheckInvariants() error {
	var dirtyCount, tabled int64
	for name, ino := range m.inodes {
		if ino.name != name || ino.writers < 0 {
			return fmt.Errorf("inode %q: name %q, %d writers", name, ino.name, ino.writers)
		}
		var n int64
		for i, f := range ino.folios {
			if f == nil {
				continue
			}
			if f.ino != ino || f.idx != int64(i) {
				return fmt.Errorf("folio table corruption for %s[%d]", name, i)
			}
			if f.list == nil {
				return fmt.Errorf("tabled folio %s[%d] not in any list", name, i)
			}
			if f.dirty {
				dirtyCount++
			}
			n++
		}
		if n != ino.cached {
			return fmt.Errorf("inode %q table holds %d folios, cached count %d", name, n, ino.cached)
		}
		tabled += n
	}
	if dirtyCount != m.dirty {
		return fmt.Errorf("dirty count %d, tracked %d", dirtyCount, m.dirty)
	}
	if tabled != m.inactive.count+m.active.count {
		return fmt.Errorf("tabled %d folios, lists hold %d", tabled, m.inactive.count+m.active.count)
	}
	for _, l := range []*folioList{&m.inactive, &m.active} {
		var seq uint64
		for f := l.head; f != nil; f = f.next {
			if f.list != l || f.seq <= seq || f.ino.at(f.idx) != f {
				return fmt.Errorf("listed folio %s[%d] mislinked, untabled or out of order", f.ino.name, f.idx)
			}
			seq = f.seq
		}
	}
	pending := make(map[*folio]bool)
	for _, c := range m.behind[m.behindHead:] {
		if m.pending(c) {
			if cur := m.inactive.cursor; cur != nil && c.seq >= cur.seq {
				return fmt.Errorf("candidate %s[%d] pending at or after the reclaim cursor", c.f.ino.name, c.f.idx)
			}
			pending[c.f] = true
		}
	}
	// A nil cursor lies past the tail: every folio is before it.
	reached := false
	for f := m.inactive.head; f != nil; f = f.next {
		if f == m.inactive.cursor {
			reached = true
		}
		if !reached && !f.dirty && !pending[f] && !m.protected(f.ino) {
			return fmt.Errorf("reclaim cursor past clean unprotected folio %s[%d]", f.ino.name, f.idx)
		}
	}
	if m.inactive.cursor != nil && !reached {
		return fmt.Errorf("reclaim cursor not on the inactive list")
	}
	if m.free() < 0 {
		return fmt.Errorf("negative free memory %d", m.free())
	}
	return nil
}
