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
package linuxref

import (
	"errors"
	"fmt"

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
	// Jitter adds a deterministic per-run relative perturbation to compute
	// phases (the real cluster's 5-repetition min–max spread); 0 disables.
	Jitter float64
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

// folio is one cache unit.
type folio struct {
	file       string
	idx        int64
	dirty      bool
	referenced bool
	entry      float64 // time dirtied (writeback expiry)
	prev, next *folio
	list       *folioList
}

// folioList is an intrusive LRU list: front = LRU, back = MRU.
type folioList struct {
	head, tail *folio
	count      int64
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
}

func (l *folioList) remove(f *folio) {
	if f.list != l {
		panic("linuxref: folio not in this list")
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

// fileState tracks a file's folio population and its written size (write
// offsets append after existing data even when folios were evicted).
type fileState struct {
	folios map[int64]*folio
	size   int64
}

// Model is the reference kernel for one host. It implements
// engine.CacheModel.
type Model struct {
	cfg      Config
	files    map[string]*fileState
	inactive folioList
	active   folioList
	dirtyQ   []*folio // FIFO by entry time; lazily compacted
	dirty    int64    // folio count
	anon     int64    // bytes
	writing  map[string]int

	k        *des.Kernel
	mkCaller func(*des.Proc) core.Caller
	wakeFl   *des.Signal // work for the flusher
	progress *des.Signal // writeback progress (throttled writers wait here)
	running  func() bool
	jitterN  int
}

// New returns a reference model.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Model{
		cfg:     cfg,
		files:   make(map[string]*fileState),
		writing: make(map[string]int),
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

func (m *Model) state(file string) *fileState {
	fs := m.files[file]
	if fs == nil {
		fs = &fileState{folios: make(map[int64]*folio)}
		m.files[file] = fs
	}
	return fs
}

func (m *Model) protected(file string) bool {
	return m.cfg.ProtectOpenWrites && m.writing[file] > 0
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

func (m *Model) markClean(f *folio) {
	if f.dirty {
		f.dirty = false
		m.dirty--
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
func (m *Model) scanInactive(need int64, honorProtection bool) bool {
	evicted := false
	f := m.inactive.head
	for f != nil && m.free() < need {
		next := f.next
		switch {
		case f.dirty || (honorProtection && m.protected(f.file)):
			// Writeback or protection must release it first.
		case f.referenced:
			m.inactive.remove(f)
			f.referenced = false
			m.active.pushBack(f)
		default:
			m.inactive.remove(f)
			m.untable(f)
			evicted = true
		}
		f = next
	}
	return evicted
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

// untable removes an already-unlisted folio from its file table.
func (m *Model) untable(f *folio) {
	delete(m.files[f.file].folios, f.idx)
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
	}
}

// CachedByFile implements engine.CacheModel.
func (m *Model) CachedByFile() map[string]int64 {
	out := make(map[string]int64, len(m.files))
	for name, fs := range m.files {
		if n := int64(len(fs.folios)); n > 0 {
			out[name] = n * m.cfg.FolioSize
		}
	}
	return out
}

// InvalidateFile implements engine.CacheModel.
func (m *Model) InvalidateFile(file string) {
	fs := m.files[file]
	if fs == nil {
		return
	}
	for _, f := range fs.folios {
		m.markClean(f)
		if f.list != nil {
			f.list.remove(f)
		}
	}
	delete(m.files, file)
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
	var dirtyCount, listed int64
	for name, fs := range m.files {
		for idx, f := range fs.folios {
			if f.file != name || f.idx != idx {
				return fmt.Errorf("folio table corruption for %s[%d]", name, idx)
			}
			if f.list == nil {
				return fmt.Errorf("tabled folio %s[%d] not in any list", name, idx)
			}
			if f.dirty {
				dirtyCount++
			}
			listed++
		}
	}
	if dirtyCount != m.dirty {
		return fmt.Errorf("dirty count %d, tracked %d", dirtyCount, m.dirty)
	}
	if listed != m.inactive.count+m.active.count {
		return fmt.Errorf("listed %d folios, lists hold %d", listed, m.inactive.count+m.active.count)
	}
	if m.free() < 0 {
		return fmt.Errorf("negative free memory %d", m.free())
	}
	return nil
}
