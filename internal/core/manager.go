package core

import (
	"fmt"
	"math"
	"sort"
)

// Config parameterizes the page-cache model. Defaults mirror the Linux
// kernel settings on the paper's cluster (CentOS 8 defaults).
type Config struct {
	// TotalMem is the host RAM in bytes (paper: 250 GiB).
	TotalMem int64
	// DirtyRatio is the fraction of available memory (total − anonymous)
	// that dirty data may occupy before writers are throttled
	// (vm.dirty_ratio; default 0.20).
	DirtyRatio float64
	// DirtyExpire is the age in seconds after which a dirty block is flushed
	// by the periodic flusher (vm.dirty_expire_centisecs; default 30 s).
	DirtyExpire float64
	// FlushInterval is the periodic flusher wake-up period
	// (vm.dirty_writeback_centisecs; default 5 s).
	FlushInterval float64
	// EvictExcludesOpenWrites enables the kernel heuristic the paper could
	// not model: pages of files currently opened for writing are not
	// evicted. Off by default (faithful to the paper); an ablation
	// benchmark quantifies its effect.
	EvictExcludesOpenWrites bool
	// DirtyBackgroundRatio is vm.dirty_background_ratio: the dirty
	// fraction of available memory past which the asynchronous flusher
	// starts writing back un-expired dirty data, long before writers hit
	// the DirtyRatio throttle. 0 (the default) disables background
	// writeback, keeping the paper's single-threshold model; when set it
	// must be strictly below DirtyRatio (Linux: 0.10 vs 0.20). The engine's
	// periodic flusher enforces it each wake-up (Manager.FlushPass).
	DirtyBackgroundRatio float64
	// Policy selects the replacement policy by registry name ("lru",
	// "clock", "fifo", "lfu"). Empty selects DefaultPolicyName, the
	// paper's two-list sorted LRU. Unknown names are rejected by Validate —
	// at configuration time, with the registered names listed — never
	// mid-simulation.
	Policy string
	// Writeback selects the writeback policy — the order dirty blocks are
	// flushed in — by registry name ("list-order", "oldest-first",
	// "file-rr", "proportional"). Empty selects DefaultWritebackPolicyName,
	// the paper's list scan order. Unknown names are rejected by Validate.
	Writeback string
}

// DefaultConfig returns the paper's configuration for a host with the given
// RAM size.
func DefaultConfig(totalMem int64) Config {
	return Config{
		TotalMem:      totalMem,
		DirtyRatio:    0.20,
		DirtyExpire:   30,
		FlushInterval: 5,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.TotalMem <= 0:
		return fmt.Errorf("core: TotalMem must be positive")
	case c.DirtyRatio <= 0 || c.DirtyRatio > 1:
		return fmt.Errorf("core: DirtyRatio must be in (0,1]")
	case c.DirtyExpire < 0:
		return fmt.Errorf("core: DirtyExpire must be non-negative")
	case c.FlushInterval <= 0:
		return fmt.Errorf("core: FlushInterval must be positive")
	case c.DirtyBackgroundRatio < 0:
		return fmt.Errorf("core: DirtyBackgroundRatio must be non-negative")
	case c.DirtyBackgroundRatio > 0 && c.DirtyBackgroundRatio >= c.DirtyRatio:
		return fmt.Errorf("core: DirtyBackgroundRatio (%g) must be below DirtyRatio (%g)",
			c.DirtyBackgroundRatio, c.DirtyRatio)
	}
	if err := ValidatePolicyName(c.Policy); err != nil {
		return err
	}
	return ValidateWritebackPolicyName(c.Writeback)
}

// Manager is the paper's Memory Manager (§III.A): it owns the cache's byte
// accounting and implements flushing, eviction, cached reads/writes and the
// periodic-flush body. The structural decisions — list layout, placement,
// promotion on access, victim order — are delegated to a pluggable Policy
// (default: the paper's two-list sorted LRU). All mutations are atomic in
// simulated time; only Caller transfers block, and every scan restarts after
// a blocking point, which makes the manager safe for concurrent simulated
// processes without explicit locks.
//
// Beyond the lists' own indexes (dirty sublists, per-file chains), the
// manager threads every dirty block of every policy list into an expiry
// queue ordered by Entry time (through Block.eprev/enext). Entry times are
// assigned once, at block creation, from the monotonic simulated clock and
// survive list moves, demotions and splits unchanged, so the queue is
// maintained with O(1) link operations — and its head answers "is anything
// expired?" in O(1), the common no-op case of the periodic flusher.
//
// Dirty bookkeeping is organized in writeback domains, one per backing
// device (bdi), mirroring Linux's per-bdi writeback: each domain owns its
// own expiry queue, its own WritebackPolicy instance, its own effective
// dirty/background thresholds (a write-bandwidth-proportional share of the
// global pair, or explicit per-device overrides), per-domain flush/throttle
// counters, and an optional flusher wake hook fired when a write pushes the
// domain past its background threshold. Every manager has N ≥ 1 domains
// and one code path for all of them: without ConfigureDomains it runs
// exactly domain 0 — the paper's global model, byte-identical to it — and
// every block carries domain 0.
type Manager struct {
	cfg     Config
	pol     Policy
	anon    int64
	cached  map[string]int64 // per-file cached bytes
	writing map[string]int   // open-for-write refcounts (extension heuristic)

	// domains holds the writeback domains. domains[0] is the default
	// domain: the only one on unconfigured managers, and the backstop for
	// files that resolve to no local device (remote mounts) on per-device
	// managers. resolve maps a file to its backing device name ("" →
	// domain 0); domIndex maps device names to domain indexes.
	domains  []*wbDomain
	resolve  func(file string) string
	domIndex map[string]int

	// readHits/readMisses count cached vs disk-served application read
	// bytes (the policy-ablation experiment's hit-ratio metric).
	readHits, readMisses int64

	// flushedBytes counts bytes written back by Flush, FlushDomain and the
	// flusher passes; throttledSec accumulates simulated time writers spent
	// in the over-threshold foreground-flush loop (the writeback-ablation
	// experiment's observables).
	flushedBytes int64
	throttledSec float64

	// ForcedEvictions counts safety-valve direct reclaims (see UseAnon);
	// zero in well-formed workloads.
	ForcedEvictions int64

	// pool recycles the blocks that leave the cache for good (evicted,
	// invalidated, merged by a read hit, absorbed by coalescing), the
	// emptied file chains and the per-file writeback queues of files that
	// went clean into the ones the cache creates next. Every policy list
	// and writeback domain shares it.
	pool blockPool
}

// wbDomain is one writeback domain: the per-device slice of the manager's
// dirty bookkeeping.
type wbDomain struct {
	dev string // backing device name; "" for the default domain
	wb  WritebackPolicy

	eqHead, eqTail *Block // expiry queue: the domain's dirty blocks, Entry-ordered

	// share is the domain's fraction of the global thresholds — its write
	// bandwidth over the summed write bandwidth of all domained devices
	// (the deterministic stand-in for Linux's per-bdi writeout fraction).
	// ratio/bgRatio, when positive, override the share-scaled global
	// ratios (per-disk vm.dirty_ratio / vm.dirty_background_ratio knobs).
	share          float64
	ratio, bgRatio float64

	// flushed / throttled are the per-device observables: bytes written
	// back from this domain and writer-throttle seconds attributed to it.
	flushed   int64
	throttled float64

	// wake, when set, kicks the domain's flusher (writer-driven wakeup):
	// WriteToCache fires it when a write pushes the domain past its
	// background threshold, instead of waiting for the next poll tick.
	wake func()
}

// NewManager returns a Manager for the given configuration.
func NewManager(cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pol, err := newPolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	wb, err := newWritebackPolicy(cfg.Writeback)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:     cfg,
		pol:     pol,
		domains: []*wbDomain{{wb: wb, share: 1}},
		cached:  make(map[string]int64),
		writing: make(map[string]int),
	}
	for _, l := range pol.Lists() {
		l.pool = &m.pool
	}
	return m, nil
}

// DomainConfig describes one per-device writeback domain for
// ConfigureDomains.
type DomainConfig struct {
	// Dev is the backing device name blocks resolve to (must be unique
	// and non-empty).
	Dev string
	// WriteBW is the device's nominal write bandwidth in any consistent
	// unit; the domain's share of the global thresholds is WriteBW over
	// the sum across all configured domains.
	WriteBW float64
	// DirtyRatio / DirtyBackgroundRatio, when positive, override the
	// share-scaled global ratios for this device.
	DirtyRatio           float64
	DirtyBackgroundRatio float64
}

// ConfigureDomains switches the manager to per-device writeback: one
// domain per entry of devs (each with its own expiry queue, WritebackPolicy
// instance, thresholds and flusher), plus the retained default domain 0 at
// full global thresholds as the cross-domain backstop for files that
// resolve to no configured device. resolve maps a file name to its backing
// device name ("" or an unknown name selects domain 0) and must be stable:
// every block of one file lands in one domain.
//
// Must be called on an empty manager (no cached data, no dirty state),
// before any simulation traffic, and at most once.
func (m *Manager) ConfigureDomains(devs []DomainConfig, resolve func(file string) string) error {
	if len(m.domains) != 1 {
		return fmt.Errorf("core: ConfigureDomains: domains already configured")
	}
	if m.CacheBytes() != 0 || len(m.cached) != 0 {
		return fmt.Errorf("core: ConfigureDomains requires an empty manager")
	}
	if resolve == nil {
		return fmt.Errorf("core: ConfigureDomains: nil resolver")
	}
	if len(devs) == 0 {
		return fmt.Errorf("core: ConfigureDomains: no devices")
	}
	var totalBW float64
	for _, dc := range devs {
		if dc.Dev == "" {
			return fmt.Errorf("core: ConfigureDomains: empty device name")
		}
		if dc.WriteBW <= 0 {
			return fmt.Errorf("core: ConfigureDomains: device %s: write bandwidth must be positive", dc.Dev)
		}
		if dc.DirtyRatio < 0 || dc.DirtyRatio > 1 {
			return fmt.Errorf("core: ConfigureDomains: device %s: DirtyRatio must be in [0,1]", dc.Dev)
		}
		if dc.DirtyBackgroundRatio < 0 || dc.DirtyBackgroundRatio > 1 {
			return fmt.Errorf("core: ConfigureDomains: device %s: DirtyBackgroundRatio must be in [0,1]", dc.Dev)
		}
		totalBW += dc.WriteBW
	}
	m.domIndex = make(map[string]int, len(devs))
	for _, dc := range devs {
		if _, dup := m.domIndex[dc.Dev]; dup {
			return fmt.Errorf("core: ConfigureDomains: duplicate device %s", dc.Dev)
		}
		wb, err := newWritebackPolicy(m.cfg.Writeback)
		if err != nil {
			return err
		}
		d := &wbDomain{
			dev:     dc.Dev,
			wb:      wb,
			share:   dc.WriteBW / totalBW,
			ratio:   dc.DirtyRatio,
			bgRatio: dc.DirtyBackgroundRatio,
		}
		m.domIndex[dc.Dev] = len(m.domains)
		if db, ok := wb.(DomainBound); ok {
			db.BindDomain(len(m.domains))
		}
		m.domains = append(m.domains, d)
	}
	m.resolve = resolve
	return nil
}

// DomainCount returns the number of writeback domains (1 unless
// ConfigureDomains ran).
func (m *Manager) DomainCount() int { return len(m.domains) }

// DomainDev returns the device name of a domain ("" for domain 0).
func (m *Manager) DomainDev(dom int) string { return m.domains[dom].dev }

// SetDomainWake installs a domain's flusher wake hook — the writer-driven
// wakeup target WriteToCache kicks when a write crosses the domain's
// background threshold. The engine wires it to the per-device flusher's
// DES signal.
func (m *Manager) SetDomainWake(dom int, wake func()) { m.domains[dom].wake = wake }

// domainOf maps a file to its writeback domain index.
func (m *Manager) domainOf(file string) int {
	if m.resolve == nil {
		return 0
	}
	if i, ok := m.domIndex[m.resolve(file)]; ok {
		return i
	}
	return 0
}

// Config returns the manager configuration.
func (m *Manager) Config() Config { return m.cfg }

// Policy returns the manager's replacement policy.
func (m *Manager) Policy() Policy { return m.pol }

// WritebackPolicy returns the default domain's writeback policy (the only
// one on managers without per-device domains).
func (m *Manager) WritebackPolicy() WritebackPolicy { return m.domains[0].wb }

// DomainWritebackPolicy returns one domain's writeback policy instance.
func (m *Manager) DomainWritebackPolicy(dom int) WritebackPolicy { return m.domains[dom].wb }

// Cached returns the cached bytes of file (any dirtiness, any list).
func (m *Manager) Cached(file string) int64 { return m.cached[file] }

// CacheBytes returns total page-cache bytes.
func (m *Manager) CacheBytes() int64 {
	var n int64
	for _, l := range m.pol.Lists() {
		n += l.Bytes()
	}
	return n
}

// Dirty returns total dirty bytes.
func (m *Manager) Dirty() int64 {
	var n int64
	for _, l := range m.pol.Lists() {
		n += l.DirtyBytes()
	}
	return n
}

// ReadHitBytes and ReadMissBytes report how many application read bytes were
// served from the cache vs from the backing store since construction — the
// read-hit-ratio observable of the policy-ablation experiment. Hits are
// counted by CacheRead itself; misses by the I/O paths that serve file reads
// from the backing store (NoteReadMiss).
func (m *Manager) ReadHitBytes() int64  { return m.readHits }
func (m *Manager) ReadMissBytes() int64 { return m.readMisses }

// NoteReadMiss records n disk-served read bytes. Every path that satisfies
// an application read from the backing store on this manager's behalf — the
// IOController's chunked reads, the NFS server's miss path — must call it,
// mirroring how CacheRead counts the hit side internally.
func (m *Manager) NoteReadMiss(n int64) { m.readMisses += n }

// Anon returns anonymous (application) memory in use.
func (m *Manager) Anon() int64 { return m.anon }

// Free returns unused memory: total − anonymous − cache.
func (m *Manager) Free() int64 { return m.cfg.TotalMem - m.anon - m.CacheBytes() }

// Available returns memory available to the page cache: total − anonymous.
// The dirty threshold is a fraction of this quantity.
func (m *Manager) Available() int64 { return m.cfg.TotalMem - m.anon }

// DirtyThreshold returns the current dirty-data ceiling in bytes — the
// foreground threshold past which writers are throttled (vm.dirty_ratio).
func (m *Manager) DirtyThreshold() int64 {
	return int64(m.cfg.DirtyRatio * float64(m.Available()))
}

// DirtyBackgroundThreshold returns the background writeback threshold in
// bytes (vm.dirty_background_ratio): past it the asynchronous flusher
// writes back un-expired dirty data. 0 means background writeback is
// disabled (the paper's single-threshold model).
func (m *Manager) DirtyBackgroundThreshold() int64 {
	if m.cfg.DirtyBackgroundRatio <= 0 {
		return 0
	}
	return int64(m.cfg.DirtyBackgroundRatio * float64(m.Available()))
}

// DomainDirty returns one writeback domain's dirty bytes, summed from the
// lists' per-domain counters: O(lists).
func (m *Manager) DomainDirty(dom int) int64 {
	var n int64
	for _, l := range m.pol.Lists() {
		n += l.DomainDirtyBytes(dom)
	}
	return n
}

// DomainDirtyThreshold returns a domain's writer-throttle ceiling: the
// per-disk override when set, else the domain's write-bandwidth share of
// the global DirtyRatio — Linux's bandwidth-proportional per-bdi limit,
// statically approximated. Domain 0 (and the only domain of unconfigured
// managers) carries the full global threshold.
func (m *Manager) DomainDirtyThreshold(dom int) int64 {
	d := m.domains[dom]
	if d.ratio > 0 {
		return int64(d.ratio * float64(m.Available()))
	}
	if d.share == 1 {
		return m.DirtyThreshold()
	}
	return int64(m.cfg.DirtyRatio * d.share * float64(m.Available()))
}

// DomainBackgroundThreshold returns a domain's background writeback start
// threshold (0: background writeback disabled for the domain), derived the
// same way as DomainDirtyThreshold.
func (m *Manager) DomainBackgroundThreshold(dom int) int64 {
	d := m.domains[dom]
	if d.bgRatio > 0 {
		return int64(d.bgRatio * float64(m.Available()))
	}
	if m.cfg.DirtyBackgroundRatio <= 0 {
		return 0
	}
	if d.share == 1 {
		return m.DirtyBackgroundThreshold()
	}
	return int64(m.cfg.DirtyBackgroundRatio * d.share * float64(m.Available()))
}

// domainBackgroundEnabled reports whether a domain runs background
// writeback at all — gated on the configured ratios, not the computed byte
// thresholds, which can truncate to 0 under anonymous-memory pressure.
func (m *Manager) domainBackgroundEnabled(dom int) bool {
	return m.domains[dom].bgRatio > 0 || m.cfg.DirtyBackgroundRatio > 0
}

// FlushedBytes returns the bytes written back by Flush, FlushDomain and the
// flusher passes since construction (the writeback-ablation experiment's
// flush-volume observable).
func (m *Manager) FlushedBytes() int64 { return m.flushedBytes }

// WriteThrottledSeconds returns the cumulative simulated time writers spent
// throttled — blocked in the over-threshold foreground flush-evict-retry
// loop of Algorithm 3 (balance_dirty_pages in the kernel). Accumulated by
// the IOController.
func (m *Manager) WriteThrottledSeconds() float64 { return m.throttledSec }

// addThrottled accumulates writer-throttle time (IOController.WriteChunk),
// attributed both globally and to the stalled writer's domain.
func (m *Manager) addThrottled(dom int, d float64) {
	m.throttledSec += d
	m.domains[dom].throttled += d
}

// DomainStat is one domain's point-in-time writeback accounting — the
// per-device split of the writeback observables.
type DomainStat struct {
	Dev                   string // backing device name ("" for the default domain)
	DirtyBytes            int64
	DirtyThreshold        int64
	BackgroundThreshold   int64
	FlushedBytes          int64
	WriteThrottledSeconds float64
}

// DomainStats returns the per-domain writeback accounting, domain 0 first.
func (m *Manager) DomainStats() []DomainStat {
	out := make([]DomainStat, len(m.domains))
	for i, d := range m.domains {
		out[i] = DomainStat{
			Dev:                   d.dev,
			DirtyBytes:            m.DomainDirty(i),
			DirtyThreshold:        m.DomainDirtyThreshold(i),
			BackgroundThreshold:   m.DomainBackgroundThreshold(i),
			FlushedBytes:          d.flushed,
			WriteThrottledSeconds: d.throttled,
		}
	}
	return out
}

// Evictable returns the clean bytes in the policy's evictable lists (the
// inactive list under the default LRU), excluding blocks of `exclude` and of
// write-protected files. Computed from the incremental per-list and per-file
// counters: O(lists), or O(lists × open writers) under the
// EvictExcludesOpenWrites heuristic — never a list walk.
func (m *Manager) Evictable(exclude string) int64 {
	var n int64
	for _, l := range m.pol.EvictableLists() {
		n += l.Bytes() - l.DirtyBytes() - l.FileCleanBytes(exclude)
		if m.cfg.EvictExcludesOpenWrites {
			for f, refs := range m.writing {
				if refs > 0 && f != exclude {
					n -= l.FileCleanBytes(f)
				}
			}
		}
	}
	return n
}

func (m *Manager) writeProtected(file string) bool {
	return m.cfg.EvictExcludesOpenWrites && m.writing[file] > 0
}

// OpenWrite / CloseWrite bracket a writing task for the
// EvictExcludesOpenWrites heuristic. Refcounted; harmless when the heuristic
// is disabled.
func (m *Manager) OpenWrite(file string) { m.writing[file]++ }
func (m *Manager) CloseWrite(file string) {
	if m.writing[file] <= 1 {
		delete(m.writing, file)
	} else {
		m.writing[file]--
	}
}

// enqueueExpiry appends b to its domain's expiry queue. Entry times are
// assigned from the monotonic simulated clock, so the append preserves
// Entry order; the defensive scan only moves when a caller violates that
// (it is O(1) on every sanctioned path).
func (m *Manager) enqueueExpiry(b *Block) {
	pos := m.domains[b.dom].eqTail
	for pos != nil && pos.Entry > b.Entry {
		pos = pos.eprev
	}
	m.enqueueExpiryAfter(b, pos)
}

// enqueueExpiryAfter links b into its domain's expiry queue right after pos
// (nil: at the head). Used directly for splits of queued dirty blocks,
// whose halves share an Entry time (and, sharing a file, a domain).
func (m *Manager) enqueueExpiryAfter(b, pos *Block) {
	d := m.domains[b.dom]
	b.eprev = pos
	if pos != nil {
		b.enext = pos.enext
		pos.enext = b
	} else {
		b.enext = d.eqHead
		d.eqHead = b
	}
	if b.enext != nil {
		b.enext.eprev = b
	} else {
		d.eqTail = b
	}
}

// noteDirty records a freshly created dirty block: it enters its domain's
// expiry queue and the domain's writeback policy order.
func (m *Manager) noteDirty(b *Block) {
	m.enqueueExpiry(b)
	m.domains[b.dom].wb.NoteDirty(m, b, nil)
}

// noteDirtySplit records a dirty block split off queued dirty block
// sibling: the halves share File and Entry (hence a domain), so b slots in
// right next to sibling in both the expiry queue and the writeback policy's
// order.
func (m *Manager) noteDirtySplit(b, sibling *Block) {
	m.enqueueExpiryAfter(b, sibling)
	m.domains[b.dom].wb.NoteDirty(m, b, sibling)
}

// noteClean records that b left the dirty set (flushed or invalidated):
// it leaves its domain's expiry queue and writeback policy order.
func (m *Manager) noteClean(b *Block) {
	m.dequeueExpiry(b)
	m.domains[b.dom].wb.NoteClean(m, b)
}

// fileDirtyBytes returns file's dirty bytes across the policy's lists, from
// the incremental per-file counters: O(lists).
func (m *Manager) fileDirtyBytes(file string) int64 {
	var n int64
	for _, l := range m.pol.Lists() {
		n += l.FileDirtyBytes(file)
	}
	return n
}

// dequeueExpiry unlinks b from its domain's expiry queue (block cleaned or
// dropped).
func (m *Manager) dequeueExpiry(b *Block) {
	d := m.domains[b.dom]
	if b.eprev != nil {
		b.eprev.enext = b.enext
	} else {
		d.eqHead = b.enext
	}
	if b.enext != nil {
		b.enext.eprev = b.eprev
	} else {
		d.eqTail = b.eprev
	}
	b.eprev, b.enext = nil, nil
}

// UseAnon grows anonymous memory by n bytes. If that overcommits RAM, the
// manager performs direct reclaim (force-evicting clean blocks, LRU first,
// inactive then active, ignoring exclusions) as a safety valve and counts it
// in ForcedEvictions. It returns the unresolvable deficit (0 normally).
func (m *Manager) UseAnon(n int64) int64 {
	if n < 0 {
		panic("core: negative UseAnon")
	}
	m.anon += n
	deficit := -m.Free()
	if deficit > 0 {
		m.ForcedEvictions++
		m.forceEvict(deficit)
		m.pol.Rebalance(m)
		deficit = -m.Free()
	}
	if deficit < 0 {
		deficit = 0
	}
	return deficit
}

// ReleaseAnon shrinks anonymous memory (task termination).
func (m *Manager) ReleaseAnon(n int64) {
	if n < 0 || n > m.anon {
		panic(fmt.Sprintf("core: invalid ReleaseAnon(%d) with anon=%d", n, m.anon))
	}
	m.anon -= n
}

// forceEvict drops clean blocks regardless of exclusions until `amount`
// bytes are reclaimed or nothing clean remains, walking the policy's lists
// in scan order.
func (m *Manager) forceEvict(amount int64) int64 {
	var evicted int64
	for _, l := range m.pol.Lists() {
		if l.Bytes() == l.DirtyBytes() {
			continue // nothing clean to reclaim here
		}
		b := l.Front()
		for b != nil && evicted < amount {
			next := b.next
			if !b.Dirty {
				evicted += m.dropBlockPrefix(l, b, amount-evicted)
			}
			b = next
		}
	}
	return evicted
}

// dropBlockPrefix evicts up to `want` bytes from clean block b (whole block
// or an LRU-side split), returning the evicted byte count.
func (m *Manager) dropBlockPrefix(l *List, b *Block, want int64) int64 {
	if b.Size <= want {
		n := b.Size
		l.Remove(b)
		m.addCached(b.File, -n)
		m.pool.blocks.put(b)
		return n
	}
	l.resize(b, b.Size-want)
	m.addCached(b.File, -want)
	return want
}

func (m *Manager) addCached(file string, delta int64) {
	v := m.cached[file] + delta
	if v < 0 {
		panic(fmt.Sprintf("core: negative cached bytes for %s", file))
	}
	if v == 0 {
		delete(m.cached, file)
	} else {
		m.cached[file] = v
	}
}

// Evict frees up to `amount` bytes by deleting clean blocks in the policy's
// victim order (§III.A.3 for the default LRU: least recently used inactive
// blocks first), never touching blocks of `exclude` or of write-protected
// files. Eviction consumes no simulated time. It returns the evicted byte
// count. Non-positive amounts are no-ops (explicitly stated in the paper).
func (m *Manager) Evict(amount int64, exclude string) int64 {
	if amount <= 0 {
		return 0
	}
	evicted := m.pol.EvictClean(m, amount, exclude)
	m.pol.Rebalance(m)
	return evicted
}

// Flush writes up to `amount` bytes of dirty data to the blocks' backing
// stores in the writeback policy's flush order (the default list-order:
// front dirty block of the first list first — §III.A.3 for the default LRU,
// least recently used, inactive list before active list). Partially flushed
// blocks are split; the flushed part becomes clean. Flushing takes
// simulated disk-write time through c. Non-positive amounts are no-ops.
// Returns the flushed byte count.
//
// The selection restarts after every blocking write so that concurrent list
// mutations (other simulated processes) are observed — and thanks to the
// writeback policies' incremental structures each restart is an O(1)–
// O(lists) peek, not a list walk. The selection is cross-domain: each
// domain's policy nominates its candidate and the globally oldest (by
// Entry; ties to the lowest domain) is flushed, which on one domain is the
// domain's own policy order. Syncs and the writer backstop use it; the
// flushers and a writer's own-domain throttle use FlushDomain.
func (m *Manager) Flush(c Caller, amount int64) int64 {
	return m.flushSelect(c, amount, m.nextDirtyAny)
}

// FlushDomain is Flush restricted to one writeback domain — the body of a
// per-device flusher.
func (m *Manager) FlushDomain(c Caller, dom int, amount int64) int64 {
	return m.flushSelect(c, amount, func() *Block { return m.domains[dom].wb.NextDirty(m) })
}

func (m *Manager) flushSelect(c Caller, amount int64, next func() *Block) int64 {
	if amount <= 0 {
		return 0
	}
	var flushed int64
	for flushed < amount {
		b := next()
		if b == nil {
			break
		}
		d := m.domains[b.dom]
		n := m.cleanBlockPrefix(b.owner, b, amount-flushed)
		d.wb.NoteFlushed(m, b)
		flushed += n
		m.flushedBytes += n
		d.flushed += n
		c.DiskWrite(b.File, n) // blocking; selection restarts afterwards
	}
	return flushed
}

// nextDirtyAny picks the cross-domain flush candidate: each domain's
// NextDirty, globally oldest Entry first, ties to the lowest domain index.
func (m *Manager) nextDirtyAny() *Block {
	var best *Block
	for _, d := range m.domains {
		if b := d.wb.NextDirty(m); b != nil && (best == nil || b.Entry < best.Entry) {
			best = b
		}
	}
	return best
}

// FlushPass is one flusher wake-up over writeback domain dom — the body of
// Algorithm 1: the expiry pass (FlushExpiredDomain), then the background
// pass (FlushBackgroundDomain, a no-op unless background writeback is
// enabled). RunFlusher calls it once per FlushInterval. Returns the flushed
// byte count.
func (m *Manager) FlushPass(c Caller, dom int) int64 {
	flushed := m.FlushExpiredDomain(c, dom)
	return flushed + m.FlushBackgroundDomain(c, dom)
}

// FlushBackgroundDomain writes back one domain's dirty data exceeding its
// background threshold (vm.dirty_background_ratio, or the domain's share or
// override of it), in the domain's writeback policy order — the flusher's
// background pass. A no-op when background writeback is disabled (the
// default) or the domain is below its threshold. Returns the flushed byte
// count.
func (m *Manager) FlushBackgroundDomain(c Caller, dom int) int64 {
	// Gate on the configured ratios, not the computed byte threshold: under
	// extreme anonymous-memory pressure the threshold can truncate to 0, and
	// that must mean "flush everything", not "disabled".
	if !m.domainBackgroundEnabled(dom) {
		return 0
	}
	return m.FlushDomain(c, dom, m.DomainDirty(dom)-m.DomainBackgroundThreshold(dom))
}

// cleanBlockPrefix marks up to `want` bytes of dirty block b clean
// (Algorithm 1 cleans before writing). A partial clean splits the block: the
// clean part is inserted just before the still-dirty remainder, preserving
// both entry and access times (and coalescing with a clean split sibling
// from an earlier partial flush when one is adjacent). Returns the cleaned
// byte count.
func (m *Manager) cleanBlockPrefix(l *List, b *Block, want int64) int64 {
	if b.Size <= want {
		l.markClean(b)
		m.noteClean(b)
		return b.Size
	}
	l.resize(b, b.Size-want)
	nb := m.pool.newBlock(Block{File: b.File, Size: want, Entry: b.Entry, LastAccess: b.LastAccess,
		dom: b.dom, ref: b.ref, freq: b.freq, freqEpoch: b.freqEpoch})
	l.insertBefore(nb, b)
	return want
}

// FlushExpiredDomain is the flusher's expiry pass (Algorithm 1) over one
// writeback domain: every dirty block of the domain older than DirtyExpire
// is cleaned and written to its backing store, in the domain's writeback
// policy expiry order (default list-order: inactive list before active
// list, LRU first; the other policies flush oldest-first). The domain's
// expiry-queue head answers the common "nothing expired" case in O(1) for
// every policy. Returns flushed bytes.
func (m *Manager) FlushExpiredDomain(c Caller, dom int) int64 {
	d := m.domains[dom]
	var flushed int64
	for {
		b := d.wb.NextExpired(m, c.Now())
		if b == nil {
			return flushed
		}
		b.owner.markClean(b)
		m.noteClean(b)
		flushed += b.Size
		m.flushedBytes += b.Size
		d.flushed += b.Size
		c.DiskWrite(b.File, b.Size) // blocking; rescan afterwards
	}
}

// AddToCache inserts n freshly disk-read bytes of file as one clean block at
// the policy's insertion position (default LRU: tail of the inactive list —
// first access, §III.A.1). If RAM would be overcommitted the manager
// force-evicts (preferring other files) as a safety valve. Returns the
// unresolvable deficit (0 normally).
func (m *Manager) AddToCache(file string, n int64, now float64) int64 {
	if n <= 0 {
		return 0
	}
	deficit := n - m.Free()
	if deficit > 0 {
		m.Evict(deficit, file)
		deficit = n - m.Free()
		if deficit > 0 {
			m.ForcedEvictions++
			m.forceEvict(deficit)
		}
	}
	if n > m.Free() {
		return n - m.Free() // truly no room; caller surfaces the OOM
	}
	b := m.pool.newBlock(Block{File: file, Size: n, Entry: now, LastAccess: now, dom: m.domainOf(file)})
	m.pol.Insert(m, b)
	m.addCached(file, n)
	m.pol.Rebalance(m)
	return 0
}

// WriteToCache creates a dirty block of n bytes at the policy's insertion
// position (§III.A.2: written data is assumed uncached) and charges the
// memory write through c. When the write pushes the block's writeback
// domain past its background threshold and the domain has a flusher wake
// hook installed, the flusher is kicked immediately (Linux's
// balance_dirty_pages waking the bdi flusher) instead of waiting for the
// next FlushInterval poll. Returns the unresolvable deficit (0 normally).
func (m *Manager) WriteToCache(c Caller, file string, n int64) int64 {
	if n <= 0 {
		return 0
	}
	if n > m.Free() {
		return n - m.Free()
	}
	dom := m.domainOf(file)
	b := m.pool.newBlock(Block{File: file, Size: n, Entry: c.Now(), LastAccess: c.Now(), Dirty: true, dom: dom})
	m.pol.Insert(m, b)
	m.noteDirty(b)
	m.addCached(file, n)
	m.pol.Rebalance(m)
	// MemWrite blocks, and other processes may flush, evict and recycle b
	// meanwhile: only dom is read afterwards.
	c.MemWrite(n)
	if d := m.domains[dom]; d.wake != nil &&
		m.domainBackgroundEnabled(dom) && m.DomainDirty(dom) > m.DomainBackgroundThreshold(dom) {
		d.wake()
	}
	return 0
}

// CacheRead simulates reading `amount` cached bytes of file (§III.A.2). The
// policy applies its promotion — the default LRU consumes blocks in
// round-robin order, inactive list before active list, LRU first (Fig 3),
// merging clean blocks onto the active list; CLOCK sets reference bits; LFU
// bumps frequencies; FIFO does nothing. The memory read is charged through
// c after the list mutation.
//
// Every policy follows the per-file chains, so the cost is proportional to
// the file's own block count, not the cache size.
func (m *Manager) CacheRead(c Caller, file string, amount int64) {
	if amount <= 0 {
		return
	}
	m.readHits += amount
	m.pol.ReadHit(m, file, amount, c.Now())
	m.pol.Rebalance(m)
	c.MemRead(amount)
}

// InvalidateFile drops every cached block of file (clean or dirty) without
// writing anything back — the semantics of deleting the file. Returns the
// dropped byte count. Walks only the file's own chains.
func (m *Manager) InvalidateFile(file string) int64 {
	var dropped int64
	for _, l := range m.pol.Lists() {
		b := l.fileFront(file)
		for b != nil {
			next := b.fnext
			dropped += b.Size
			if b.Dirty {
				m.noteClean(b)
			}
			l.Remove(b)
			m.pool.blocks.put(b)
			b = next
		}
	}
	if dropped > 0 {
		m.addCached(file, -dropped)
	}
	m.pol.Rebalance(m)
	return dropped
}

// DropCaches evicts every clean block while keeping dirty ones — the
// `echo 3 > /proc/sys/vm/drop_caches` semantics the chaos engine injects.
// Like the kernel's drop_caches it ignores per-file exclusions and the
// open-for-write heuristic (any clean reclaimable page goes), takes no
// simulated time, and is not counted as a forced eviction (it is an
// administrative action, not memory pressure). Returns the dropped byte
// count.
func (m *Manager) DropCaches() int64 {
	dropped := m.forceEvict(math.MaxInt64)
	m.pol.Rebalance(m)
	return dropped
}

// Resize changes TotalMem mid-run — the primitive behind cgroup limit
// shrink/grow and memory ballooning. Growing is free. Shrinking reclaims
// the overage the way the kernel does under pressure: clean blocks are
// evicted first, then dirty blocks are written back through c (consuming
// simulated disk-write time) and evicted, and finally any still-resident
// clean blocks are force-dropped regardless of exclusions (counted as one
// forced eviction). Anonymous memory is never reclaimed: if anon alone
// exceeds the new limit, the residual overcommit is returned and the limit
// still applies to future allocations. Returns the unresolvable deficit
// (0 normally) and an error for non-positive limits.
func (m *Manager) Resize(c Caller, newTotal int64) (int64, error) {
	if newTotal <= 0 {
		return 0, fmt.Errorf("core: Resize: total %d must be positive", newTotal)
	}
	m.cfg.TotalMem = newTotal
	deficit := -m.Free()
	if deficit <= 0 {
		return 0, nil
	}
	m.Evict(deficit, "")
	for {
		deficit = -m.Free()
		if deficit <= 0 {
			return 0, nil
		}
		// c.DiskWrite blocks, so other simulated processes may mutate the
		// cache during each pass; recompute the deficit every round.
		if m.Flush(c, deficit) == 0 {
			break // nothing dirty left; the rest is protected clean data
		}
		m.Evict(-m.Free(), "")
	}
	if deficit = -m.Free(); deficit > 0 {
		m.ForcedEvictions++
		m.forceEvict(deficit)
		m.pol.Rebalance(m)
		deficit = -m.Free()
	}
	if deficit < 0 {
		deficit = 0
	}
	return deficit, nil
}

// Stats is a point-in-time snapshot of the manager's accounting.
type Stats struct {
	Total, Anon, Cache, Dirty, Free, Available int64
	ActiveBytes, InactiveBytes                 int64
	ActiveBlocks, InactiveBlocks               int
	DirtyThreshold                             int64
	// DirtyBackgroundThreshold is the async-writeback start threshold
	// (0: background writeback disabled).
	DirtyBackgroundThreshold int64
	// ReadHitBytes/ReadMissBytes are the cumulative read-hit counters at
	// snapshot time (zero for models that do not track them), so samplers
	// can record hit-ratio evolution as a time series.
	ReadHitBytes, ReadMissBytes int64
}

// Snapshot returns current statistics. For policies with more than two
// lists, InactiveBytes/Blocks cover the first (least valuable) list and
// ActiveBytes/Blocks everything above it; for the default LRU these are
// exactly the paper's two lists.
func (m *Manager) Snapshot() Stats {
	inact := m.pol.Lists()[0]
	cache := m.CacheBytes()
	var blocks int
	for _, l := range m.pol.Lists() {
		blocks += l.Len()
	}
	return Stats{
		Total:                    m.cfg.TotalMem,
		Anon:                     m.anon,
		Cache:                    cache,
		Dirty:                    m.Dirty(),
		Free:                     m.Free(),
		Available:                m.Available(),
		ActiveBytes:              cache - inact.Bytes(),
		InactiveBytes:            inact.Bytes(),
		ActiveBlocks:             blocks - inact.Len(),
		InactiveBlocks:           inact.Len(),
		DirtyThreshold:           m.DirtyThreshold(),
		DirtyBackgroundThreshold: m.DirtyBackgroundThreshold(),
		ReadHitBytes:             m.readHits,
		ReadMissBytes:            m.readMisses,
	}
}

// CachedByFile returns a copy of the per-file cached byte map.
func (m *Manager) CachedByFile() map[string]int64 {
	out := make(map[string]int64, len(m.cached))
	for k, v := range m.cached {
		out[k] = v
	}
	return out
}

// CachedFiles returns the cached file names in sorted order.
func (m *Manager) CachedFiles() []string {
	out := make([]string, 0, len(m.cached))
	for k := range m.cached {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// CheckInvariants verifies internal consistency — the classic accounting
// invariants plus the index structures this package maintains incrementally:
// per-list per-domain dirty sublists (order, membership, byte totals),
// per-file chains (order, membership, byte totals), and the per-domain
// expiry queues (membership and Entry order) — plus the domain assignment
// itself (every block of one file in one domain, domain indexes in range) —
// and then the policies' own structural invariants (Policy.CheckInvariants:
// list ordering for the access-ordered policies, bucket assignment for LFU;
// WritebackPolicy.CheckInvariants per domain: per-file dirty-queue and ring
// structure for the file-queue writeback policies). The free list is
// checked too: every free block and chain is cleared, none is free twice,
// and no list, file chain, expiry queue or writeback queue reaches one; the
// per-file writeback policies check the free writeback queues the same way
// and that none of them is still mapped to a file.
// Tests call it after randomized operation sequences. It returns an error
// describing the first violation found.
func (m *Manager) CheckInvariants() error {
	free, err := m.pool.blocks.check("block")
	if err != nil {
		return err
	}
	freeChains, err := m.pool.chains.check("file chain")
	if err != nil {
		return err
	}
	var perFile = map[string]int64{}
	fileDom := map[string]int{}
	dirtySet := map[*Block]bool{}
	domCount := make([]int, len(m.domains))
	for _, l := range m.pol.Lists() {
		var bytes, dirty int64
		n := 0
		// Reference sequences rebuilt from the main walk, checked against
		// the incremental structures below.
		domSeq := make([][]*Block, len(m.domains))
		domBytes := make([]int64, len(m.domains))
		fileSeq := map[string][]*Block{}
		fileBytes := map[string]int64{}
		fileDirty := map[string]int64{}
		if l.pool != &m.pool {
			return fmt.Errorf("list %s does not share the manager's free list", l.name)
		}
		// The dirty sublists and file chains are checked block for block
		// against this walk below, so a free block they reach fails too.
		for b := l.Front(); b != nil; b = b.next {
			if free[b] {
				return fmt.Errorf("list %s reaches free block %p", l.name, b)
			}
			if b.owner != l {
				return fmt.Errorf("block %v has wrong owner", b)
			}
			if b.Size <= 0 {
				return fmt.Errorf("non-positive block size: %v", b)
			}
			if b.dom < 0 || b.dom >= len(m.domains) {
				return fmt.Errorf("block %v has out-of-range domain %d", b, b.dom)
			}
			if prev, seen := fileDom[b.File]; seen && prev != b.dom {
				return fmt.Errorf("file %s spans domains %d and %d", b.File, prev, b.dom)
			}
			fileDom[b.File] = b.dom
			bytes += b.Size
			if b.Dirty {
				dirty += b.Size
				domSeq[b.dom] = append(domSeq[b.dom], b)
				domBytes[b.dom] += b.Size
				dirtySet[b] = true
				domCount[b.dom]++
				fileDirty[b.File] += b.Size
			}
			perFile[b.File] += b.Size
			fileSeq[b.File] = append(fileSeq[b.File], b)
			fileBytes[b.File] += b.Size
			n++
		}
		if bytes != l.Bytes() || dirty != l.DirtyBytes() || n != l.Len() {
			return fmt.Errorf("list %s accounting mismatch: bytes %d/%d dirty %d/%d len %d/%d",
				l.name, bytes, l.Bytes(), dirty, l.DirtyBytes(), n, l.Len())
		}
		// Per-domain dirty sublists: exactly the domain's dirty blocks, in
		// list order, with matching byte totals. Segments past the known
		// domains (impossible via the range check above) and leftover
		// endpoints are caught by the same walk.
		for dom := 0; dom < len(m.domains); dom++ {
			seq := domSeq[dom]
			d := l.FrontDirtyDomain(dom)
			for i, want := range seq {
				if d != want {
					return fmt.Errorf("list %s domain %d dirty sublist diverges at %d: %v != %v",
						l.name, dom, i, d, want)
				}
				if d.dnext != nil && d.dnext.dprev != d {
					return fmt.Errorf("list %s domain %d dirty sublist back-link broken at %v", l.name, dom, d)
				}
				d = d.dnext
			}
			if d != nil {
				return fmt.Errorf("list %s domain %d dirty sublist has extra block %v", l.name, dom, d)
			}
			if l.DomainDirtyBytes(dom) != domBytes[dom] {
				return fmt.Errorf("list %s domain %d dirty bytes %d, walk found %d",
					l.name, dom, l.DomainDirtyBytes(dom), domBytes[dom])
			}
			if dom < len(l.dsegs) {
				s := &l.dsegs[dom]
				if len(seq) == 0 {
					if s.head != nil || s.tail != nil {
						return fmt.Errorf("list %s domain %d dirty sublist not empty", l.name, dom)
					}
				} else if s.tail != seq[len(seq)-1] {
					return fmt.Errorf("list %s domain %d dirty sublist tail mismatch", l.name, dom)
				}
			}
		}
		// Per-file chains: exactly each file's blocks, in list order, with
		// matching byte totals — and no stale chains in the map.
		for f, seq := range fileSeq {
			fb := l.fileFront(f)
			for i, want := range seq {
				if fb != want {
					return fmt.Errorf("list %s file chain %s diverges at %d: %v != %v", l.name, f, i, fb, want)
				}
				if fb.fnext != nil && fb.fnext.fprev != fb {
					return fmt.Errorf("list %s file chain %s back-link broken at %v", l.name, f, fb)
				}
				fb = fb.fnext
			}
			if fb != nil {
				return fmt.Errorf("list %s file chain %s has extra block %v", l.name, f, fb)
			}
			fc := l.files[f]
			if fc.tail != seq[len(seq)-1] {
				return fmt.Errorf("list %s file chain %s tail mismatch", l.name, f)
			}
			if fc.bytes != fileBytes[f] || fc.dirty != fileDirty[f] {
				return fmt.Errorf("list %s file chain %s accounting: bytes %d/%d dirty %d/%d",
					l.name, f, fc.bytes, fileBytes[f], fc.dirty, fileDirty[f])
			}
		}
		for f, fc := range l.files {
			if len(fileSeq[f]) == 0 {
				return fmt.Errorf("list %s has stale file chain %s", l.name, f)
			}
			if freeChains[fc] {
				return fmt.Errorf("list %s file chain %s is on the free list", l.name, f)
			}
		}
	}
	// Per-domain expiry queues: exactly each domain's dirty blocks,
	// Entry-ordered.
	for dom, d := range m.domains {
		var eqN int
		lastEntry := math.Inf(-1) // timestamps may be negative after a rebase
		for b := d.eqHead; b != nil; b = b.enext {
			if free[b] {
				return fmt.Errorf("domain %d expiry queue reaches free block %p", dom, b)
			}
			if !b.Dirty || !dirtySet[b] {
				return fmt.Errorf("domain %d expiry queue holds non-dirty or foreign block %v", dom, b)
			}
			if b.dom != dom {
				return fmt.Errorf("domain %d expiry queue holds block %v of domain %d", dom, b, b.dom)
			}
			if b.Entry < lastEntry {
				return fmt.Errorf("domain %d expiry queue not sorted by entry time at %v", dom, b)
			}
			lastEntry = b.Entry
			if b.enext != nil && b.enext.eprev != b {
				return fmt.Errorf("domain %d expiry queue back-link broken at %v", dom, b)
			}
			eqN++
		}
		if eqN != domCount[dom] {
			return fmt.Errorf("domain %d expiry queue holds %d blocks, lists hold %d dirty",
				dom, eqN, domCount[dom])
		}
		if (d.eqHead == nil) != (d.eqTail == nil) {
			return fmt.Errorf("domain %d expiry queue endpoints inconsistent", dom)
		}
	}
	for f, v := range perFile {
		if m.cached[f] != v {
			return fmt.Errorf("cached[%s]=%d, lists hold %d", f, m.cached[f], v)
		}
	}
	for f, v := range m.cached {
		if perFile[f] != v {
			return fmt.Errorf("cached[%s]=%d but lists hold %d", f, v, perFile[f])
		}
	}
	// Negative free memory is legal only as anonymous overcommit after a
	// Resize shrink (anon is never reclaimed); the page cache itself must
	// always fit within what anon leaves of the limit.
	if m.Free() < 0 && m.CacheBytes() > 0 {
		return fmt.Errorf("page cache %d bytes oversubscribes memory: free %d",
			m.CacheBytes(), m.Free())
	}
	if m.Free() < 0 && m.anon <= m.cfg.TotalMem {
		return fmt.Errorf("negative free memory %d without anon overcommit", m.Free())
	}
	if m.anon < 0 {
		return fmt.Errorf("negative anon: %d", m.anon)
	}
	if err := m.pol.CheckInvariants(m); err != nil {
		return err
	}
	for _, d := range m.domains {
		if err := d.wb.CheckInvariants(m); err != nil {
			return err
		}
	}
	return nil
}
