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
// size and a dense folio table indexed by folio number. Records are never
// deleted; InvalidateFile empties one in place, so a read or write in
// flight keeps a reachable record.
//
// Folios live in a per-Model arena of pointer-free records, kept in
// fixed-size pages that the GC neither scans nor write-barriers. A folio is
// named by its int32 slot: the folio tables, the LRU links, the reclaim
// cursor and candidates all hold slots, 0 meaning none, and a record names
// its inode by index, so the open-write protection test is two reads.
// Evicted and invalidated folios return their slot to a free list, and
// freeing bumps the slot's generation. The writeback queue is a ring of
// (slot, generation) entries, stale ones dropped lazily at its front: an
// entry whose folio was cleaned or whose slot was freed and reused never
// satisfies it, so writeback order does not depend on slot reuse.
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
	"math"
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

// folioRec is one cache unit: a slot of its Model's folio arena. It holds
// no pointers, so the arena's pages are noscan and the GC neither scans nor
// write-barriers them. Links are slot indices, 0 meaning none.
type folioRec struct {
	seq        uint64  // insertion order on its current list
	entry      float64 // time dirtied (writeback expiry)
	prev, next int32
	ino        int32  // index into Model.inos
	idx        int32  // slot in the inode's folio table
	gen        uint32 // bumped each time the slot is freed
	list       listID
	dirty      bool
	referenced bool
}

// listID names the list a folio is on.
type listID uint8

const (
	unlisted listID = iota
	inactiveList
	activeList
)

const (
	arenaShift = 12
	arenaPage  = 1 << arenaShift // folio records per arena page
)

// folioArena holds a Model's folio records in fixed-size pages: it grows
// without copying, and each page is one noscan allocation. Slot 0 is never
// handed out, so a zero index means "not cached". Freed slots are reused
// last in, first out; freeing bumps the slot's gen, so a dirty-ring entry
// made before the free no longer matches the slot.
type folioArena struct {
	pages []*[arenaPage]folioRec
	n     int32   // slots handed out so far, slot 0 included
	free  []int32 // freed slots
}

// at returns slot i's record.
func (a *folioArena) at(i int32) *folioRec {
	return &a.pages[i>>arenaShift][i&(arenaPage-1)]
}

// alloc returns a fresh, unlisted, clean slot for folio idx of inode ino.
func (a *folioArena) alloc(ino, idx int32) int32 {
	var i int32
	if k := len(a.free); k > 0 {
		i, a.free = a.free[k-1], a.free[:k-1]
	} else {
		if a.n == math.MaxInt32 {
			panic("linuxref: folio arena full")
		}
		if int(a.n>>arenaShift) == len(a.pages) {
			a.pages = append(a.pages, new([arenaPage]folioRec))
		}
		i = a.n
		a.n++
	}
	r := a.at(i)
	*r = folioRec{ino: ino, idx: idx, gen: r.gen}
	return i
}

// release frees slot i, which must be unlisted and untabled.
func (a *folioArena) release(i int32) {
	a.at(i).gen++
	a.free = append(a.free, i)
}

// folioList is an intrusive LRU list of arena slots: front = LRU, back =
// MRU.
type folioList struct {
	id         listID
	head, tail int32
	count      int64
	lastSeq    uint64
	// cursor is where the next protection-honouring reclaim pass of the
	// inactive list resumes (the active list's is unused): every folio
	// before it is dirty, belongs to a protected inode, or is pending in
	// Model.behind. 0 means past the tail. Only Model.rewind moves it
	// back.
	cursor int32
}

// list returns the list with the given id.
func (m *Model) list(id listID) *folioList {
	if id == activeList {
		return &m.active
	}
	return &m.inactive
}

// pushBack appends unlisted slot f to l as its MRU folio.
func (m *Model) pushBack(l *folioList, f int32) {
	r := m.folios.at(f)
	if r.list != unlisted {
		panic("linuxref: folio already listed")
	}
	r.list = l.id
	r.prev = l.tail
	r.next = 0
	if l.tail != 0 {
		m.folios.at(l.tail).next = f
	} else {
		l.head = f
	}
	l.tail = f
	l.count++
	l.lastSeq++
	r.seq = l.lastSeq
	if l.cursor == 0 {
		l.cursor = f
	}
}

// remove unlinks slot f from l.
func (m *Model) remove(l *folioList, f int32) {
	r := m.folios.at(f)
	if r.list != l.id {
		panic("linuxref: folio not in this list")
	}
	if l.cursor == f {
		l.cursor = r.next
	}
	if r.prev != 0 {
		m.folios.at(r.prev).next = r.next
	} else {
		l.head = r.next
	}
	if r.next != 0 {
		m.folios.at(r.next).prev = r.prev
	} else {
		l.tail = r.prev
	}
	r.prev, r.next, r.list = 0, 0, unlisted
	l.count--
}

// inode is one file name's record: its open writers, its written size
// (write offsets append after existing data even when folios were evicted)
// and its folio table. Records are never deleted, so an operation in flight
// keeps a valid record across InvalidateFile.
type inode struct {
	name    string
	id      int32 // index in Model.inos
	writers int
	size    int64
	folios  []int32 // arena slot by folio index; 0 = not cached
	cached  int64   // nonzero entries of folios
}

// at returns the arena slot of the cached folio at index i, or 0.
func (ino *inode) at(i int64) int32 {
	if i < int64(len(ino.folios)) {
		return ino.folios[i]
	}
	return 0
}

// reserve grows the folio table to at least hi entries.
func (ino *inode) reserve(hi int64) {
	if n := hi - int64(len(ino.folios)); n > 0 {
		ino.folios = append(ino.folios, make([]int32, n)...)
	}
}

// insert tables a new, unlisted folio at ino's uncached index i and returns
// its slot.
func (m *Model) insert(ino *inode, i int64) int32 {
	// An InvalidateFile while the operation was blocked may have emptied
	// the table it reserved.
	ino.reserve(i + 1)
	f := m.folios.alloc(ino.id, int32(i))
	ino.folios[i] = f
	ino.cached++
	return f
}

// drop untables an already-unlisted folio and frees its slot.
func (m *Model) drop(f int32) {
	r := m.folios.at(f)
	ino := m.inos[r.ino]
	ino.folios[r.idx] = 0
	ino.cached--
	m.folios.release(f)
}

// candidate is an entry of Model.behind. It is pending while slot f is
// still on the inactive list with the seq it was queued with.
type candidate struct {
	f   int32
	seq uint64
}

// dirtyEntry is an entry of the dirty ring: slot f as of generation gen.
// It is live while f is dirty and still at gen; a freed and reused slot
// never satisfies it.
type dirtyEntry struct {
	f   int32
	gen uint32
}

// dirtyRing is the writeback FIFO: dirty folios in the order they were
// dirtied, with entries that went stale dropped lazily at the front.
type dirtyRing struct {
	buf  []dirtyEntry // length a power of two
	head int
	n    int
}

func (q *dirtyRing) push(e dirtyEntry) {
	if q.n == len(q.buf) {
		buf := make([]dirtyEntry, max(2*len(q.buf), 64))
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = e
	q.n++
}

// front returns the oldest entry; the ring must not be empty.
func (q *dirtyRing) front() dirtyEntry { return q.buf[q.head] }

func (q *dirtyRing) pop() {
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
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
	inos     []*inode // by inode id
	folios   folioArena
	inactive folioList
	active   folioList
	dirtyQ   dirtyRing // FIFO by entry time; stale entries dropped lazily
	dirty    int64     // folio count
	anon     int64     // bytes
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
	return &Model{
		cfg:      cfg,
		inodes:   make(map[string]*inode),
		folios:   folioArena{n: 1},
		inactive: folioList{id: inactiveList},
		active:   folioList{id: activeList},
	}, nil
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
		ino = &inode{name: file, id: int32(len(m.inos))}
		m.inodes[file] = ino
		m.inos = append(m.inos, ino)
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
	var first int32
	var firstSeq uint64
	for _, f := range ino.folios {
		if f == 0 {
			continue
		}
		if r := m.folios.at(f); !r.dirty && r.list == inactiveList && (first == 0 || r.seq < firstSeq) {
			first, firstSeq = f, r.seq
		}
	}
	if c := m.inactive.cursor; first != 0 && (c == 0 || firstSeq < m.folios.at(c).seq) {
		m.rewind(first)
	}
}

// rewind moves the cursor back to slot f. Pending candidates at or after f
// are dropped: the cursor walk reaches them.
func (m *Model) rewind(f int32) {
	m.inactive.cursor = f
	seq := m.folios.at(f).seq
	kept := m.behind[:0]
	for _, c := range m.behind[m.behindHead:] {
		if m.pending(c) && c.seq < seq {
			kept = append(kept, c)
		}
	}
	m.behind, m.behindHead = kept, 0
}

func (m *Model) pending(c candidate) bool {
	r := m.folios.at(c.f)
	return r.list == inactiveList && r.seq == c.seq
}

// queueBehind records slot f, a clean unprotected inactive folio, as a
// pending reclaim candidate if the cursor has already passed it.
func (m *Model) queueBehind(f int32) {
	seq := m.folios.at(f).seq
	if c := m.inactive.cursor; c != 0 && seq >= m.folios.at(c).seq {
		return
	}
	if n := len(m.behind); n > m.behindHead && m.behind[n-1].seq > seq {
		m.behindUnsorted = true
	}
	m.behind = append(m.behind, candidate{f, seq})
}

// popBehind returns the pending candidate earliest in the list, or 0.
// Entries whose folio left the inactive list since they were queued are
// dropped on the way.
func (m *Model) popBehind() int32 {
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
			m.behind, m.behindHead = m.behind[:n], 0
		}
		if m.pending(c) {
			return c.f
		}
	}
	return 0
}

// markDirty flags slot f dirty at time now and queues it for writeback.
func (m *Model) markDirty(f int32, now float64) {
	if r := m.folios.at(f); !r.dirty {
		r.dirty = true
		r.entry = now
		m.dirty++
		m.dirtyQ.push(dirtyEntry{f, r.gen})
	}
}

// markClean clears slot f's dirty flag, making a clean unprotected inactive
// folio a reclaim candidate.
func (m *Model) markClean(f int32) {
	r := m.folios.at(f)
	if !r.dirty {
		return
	}
	r.dirty = false
	m.dirty--
	if r.list == inactiveList && !m.protected(m.inos[r.ino]) {
		m.queueBehind(f)
	}
}

// demote moves the active list's LRU folio to the inactive list, clearing
// its referenced bit. It reports false when the active list is empty.
func (m *Model) demote() bool {
	f := m.active.head
	if f == 0 {
		return false
	}
	m.remove(&m.active, f)
	m.folios.at(f).referenced = false
	m.pushBack(&m.inactive, f)
	return true
}

// shrinkActive demotes active-list LRU folios into the inactive list until
// inactive ≥ active/2 (the kernel's inactive_is_low balancing), clearing
// referenced bits on the way.
func (m *Model) shrinkActive() {
	for m.active.count > 2*m.inactive.count && m.demote() {
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
			if f == 0 {
				if f = m.inactive.cursor; f == 0 {
					break
				}
			}
			if m.reclaimFolio(f, true) && f == m.inactive.cursor {
				m.inactive.cursor = m.folios.at(f).next
			}
		}
	} else {
		for f := m.inactive.head; f != 0 && m.free() < need; {
			next := m.folios.at(f).next
			m.reclaimFolio(f, false)
			f = next
		}
	}
	return m.stats.Evictions > evictions
}

// reclaimFolio makes one reclaim decision on inactive slot f and reports
// whether f stays: writeback, or protection when honorProtection, must
// release it first.
func (m *Model) reclaimFolio(f int32, honorProtection bool) (kept bool) {
	m.stats.Visits++
	r := m.folios.at(f)
	switch {
	case r.dirty || (honorProtection && m.protected(m.inos[r.ino])):
		return true
	case r.referenced:
		m.remove(&m.inactive, f)
		r.referenced = false
		m.pushBack(&m.active, f)
		m.stats.Promotions++
	default:
		m.remove(&m.inactive, f)
		m.drop(f)
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
	for i := int64(0); i < batch && m.demote(); i++ {
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
		if f != 0 {
			m.remove(m.list(m.folios.at(f).list), f) // before markClean: a dropped folio is no candidate
			m.markClean(f)
			m.drop(f)
		}
	}
	ino.folios, ino.size = ino.folios[:0], 0
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
	a := &m.folios
	if a.n < 1 || a.n > 1 && int(a.n-1)>>arenaShift >= len(a.pages) {
		return fmt.Errorf("arena hands out %d slots from %d pages", a.n, len(a.pages))
	}
	freed := make([]bool, a.n)
	for _, f := range a.free {
		if f <= 0 || f >= a.n || freed[f] {
			return fmt.Errorf("free list holds slot %d twice or out of range", f)
		}
		freed[f] = true
	}
	// live reports whether f is a slot handed out and not freed.
	live := func(f int32) bool { return f > 0 && f < a.n && !freed[f] }
	name := func(f int32) string {
		r := a.at(f)
		if r.ino < 0 || int(r.ino) >= len(m.inos) {
			return fmt.Sprintf("slot %d", f)
		}
		return fmt.Sprintf("%s[%d]", m.inos[r.ino].name, r.idx)
	}
	var dirtyCount, tabled int64
	for id, ino := range m.inos {
		if m.inodes[ino.name] != ino || ino.id != int32(id) || ino.writers < 0 {
			return fmt.Errorf("inode %d %q: misindexed or %d writers", id, ino.name, ino.writers)
		}
		var n int64
		for i, f := range ino.folios {
			if f == 0 {
				continue
			}
			if !live(f) {
				return fmt.Errorf("%s[%d] tables dead slot %d", ino.name, i, f)
			}
			if r := a.at(f); r.ino != ino.id || int(r.idx) != i {
				return fmt.Errorf("folio table corruption for %s[%d]", ino.name, i)
			} else if r.list == unlisted {
				return fmt.Errorf("tabled folio %s[%d] not in any list", ino.name, i)
			} else if r.dirty {
				dirtyCount++
			}
			n++
		}
		if n != ino.cached {
			return fmt.Errorf("inode %q table holds %d folios, cached count %d", ino.name, n, ino.cached)
		}
		tabled += n
	}
	if len(m.inodes) != len(m.inos) {
		return fmt.Errorf("%d inode names, %d inode records", len(m.inodes), len(m.inos))
	}
	if dirtyCount != m.dirty {
		return fmt.Errorf("dirty count %d, tracked %d", dirtyCount, m.dirty)
	}
	if tabled != m.inactive.count+m.active.count {
		return fmt.Errorf("tabled %d folios, lists hold %d", tabled, m.inactive.count+m.active.count)
	}
	if live := int64(a.n) - 1 - int64(len(a.free)); live != tabled {
		return fmt.Errorf("arena holds %d live slots, %d tabled", live, tabled)
	}
	for _, l := range []*folioList{&m.inactive, &m.active} {
		var seq uint64
		var n int64
		for f, prev := l.head, int32(0); f != 0; prev, f = f, a.at(f).next {
			if !live(f) {
				return fmt.Errorf("list %d links dead slot %d", l.id, f)
			}
			r := a.at(f)
			if r.list != l.id || r.prev != prev || r.seq <= seq || m.inos[r.ino].at(int64(r.idx)) != f {
				return fmt.Errorf("listed folio %s mislinked, untabled or out of order", name(f))
			}
			if seq, n = r.seq, n+1; n > l.count {
				return fmt.Errorf("list %d longer than its count %d", l.id, l.count)
			}
			if r.next == 0 && l.tail != f {
				return fmt.Errorf("list %d ends at slot %d, tail %d", l.id, f, l.tail)
			}
		}
		if n != l.count {
			return fmt.Errorf("list %d holds %d folios, count %d", l.id, n, l.count)
		}
	}
	// Every dirty folio has a ring entry at its generation, and no entry
	// is ahead of its slot's generation or matches a freed slot.
	queued := make([]bool, a.n)
	q := &m.dirtyQ
	for k := 0; k < q.n; k++ {
		e := q.buf[(q.head+k)&(len(q.buf)-1)]
		if e.f <= 0 || e.f >= a.n {
			return fmt.Errorf("dirty ring entry %d points at slot %d", k, e.f)
		}
		switch r := a.at(e.f); {
		case e.gen > r.gen:
			return fmt.Errorf("dirty ring entry %d for %s ahead of its slot: gen %d > %d", k, name(e.f), e.gen, r.gen)
		case e.gen == r.gen && !live(e.f):
			return fmt.Errorf("dirty ring entry %d matches freed slot %d", k, e.f)
		case e.gen == r.gen:
			queued[e.f] = true
		}
	}
	for f := int32(1); f < a.n; f++ {
		if !live(f) {
			if a.at(f).list != unlisted {
				return fmt.Errorf("freed slot %d is listed", f)
			}
		} else if a.at(f).dirty && !queued[f] {
			return fmt.Errorf("dirty folio %s missing from the dirty ring", name(f))
		}
	}
	pending := make([]bool, a.n)
	cursorSeq := uint64(0)
	if cur := m.inactive.cursor; cur != 0 {
		if !live(cur) {
			return fmt.Errorf("reclaim cursor on dead slot %d", cur)
		}
		cursorSeq = a.at(cur).seq
	}
	for _, c := range m.behind[m.behindHead:] {
		if c.f <= 0 || c.f >= a.n {
			return fmt.Errorf("reclaim candidate slot %d out of range", c.f)
		}
		if m.pending(c) {
			if m.inactive.cursor != 0 && c.seq >= cursorSeq {
				return fmt.Errorf("candidate %s pending at or after the reclaim cursor", name(c.f))
			}
			pending[c.f] = true
		}
	}
	// A zero cursor lies past the tail: every folio is before it.
	reached := false
	for f := m.inactive.head; f != 0; f = a.at(f).next {
		if f == m.inactive.cursor {
			reached = true
		}
		if r := a.at(f); !reached && !r.dirty && !pending[f] && !m.protected(m.inos[r.ino]) {
			return fmt.Errorf("reclaim cursor past clean unprotected folio %s", name(f))
		}
	}
	if m.inactive.cursor != 0 && !reached {
		return fmt.Errorf("reclaim cursor not on the inactive list")
	}
	if m.free() < 0 {
		return fmt.Errorf("negative free memory %d", m.free())
	}
	return nil
}
