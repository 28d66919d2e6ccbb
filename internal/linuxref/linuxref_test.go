package linuxref

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// seqCaller drives the model without a DES kernel: fixed bandwidths, one
// virtual clock. ensureFree and throttling fall back to their synchronous
// paths, which is exactly what these unit tests target.
type seqCaller struct {
	now            float64
	diskBW, memBW  float64
	diskRd, diskWr int64
	memRd, memWr   int64
	writesByFile   map[string]int64
}

func newSeqCaller() *seqCaller {
	return &seqCaller{diskBW: 100, memBW: 1000, writesByFile: map[string]int64{}}
}

func (c *seqCaller) Now() float64 { return c.now }
func (c *seqCaller) DiskRead(file string, n int64) {
	c.diskRd += n
	c.now += float64(n) / c.diskBW
}
func (c *seqCaller) DiskWrite(file string, n int64) {
	c.diskWr += n
	c.writesByFile[file] += n
	c.now += float64(n) / c.diskBW
}
func (c *seqCaller) MemRead(n int64)  { c.memRd += n; c.now += float64(n) / c.memBW }
func (c *seqCaller) MemWrite(n int64) { c.memWr += n; c.now += float64(n) / c.memBW }

func testModel(t *testing.T, total int64) *Model {
	t.Helper()
	cfg := DefaultConfig(total)
	cfg.FolioSize = 10
	cfg.ReadChunk = 100
	cfg.WritebackBatch = 50
	cfg.WatermarkLow = 0
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFolioFitsSizeClass: every cached MiB costs one folio, so a field
// that pushes it past the 64-byte allocation size class costs a quarter
// more memory per folio.
func TestFolioFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(folio{}); n > 64 {
		t.Fatalf("folio is %d bytes, want ≤ 64", n)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.TotalMem = 0 },
		func(c *Config) { c.FolioSize = 0 },
		func(c *Config) { c.ReadChunk = 0 },
		func(c *Config) { c.DirtyRatio = 0 },
		func(c *Config) { c.DirtyBackgroundRatio = 0.5 }, // > DirtyRatio
		func(c *Config) { c.FlushInterval = 0 },
		func(c *Config) { c.WatermarkLow = 0.5 },
		func(c *Config) { c.WritebackBatch = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(1000)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestColdReadPopulatesCache(t *testing.T) {
	m := testModel(t, 10000)
	c := newSeqCaller()
	if err := m.ReadFile(c, "f", 500, 500); err != nil {
		t.Fatal(err)
	}
	if c.diskRd != 500 || c.memRd != 0 {
		t.Fatalf("disk=%d mem=%d", c.diskRd, c.memRd)
	}
	if m.CachedByFile()["f"] != 500 {
		t.Fatalf("cached = %d", m.CachedByFile()["f"])
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAnon(500)
}

func TestWarmReadHitsMemory(t *testing.T) {
	m := testModel(t, 10000)
	c := newSeqCaller()
	m.ReadFile(c, "f", 500, 500)
	m.ReleaseAnon(500)
	before := c.diskRd
	if err := m.ReadFile(c, "f", 500, 500); err != nil {
		t.Fatal(err)
	}
	if c.diskRd != before || c.memRd != 500 {
		t.Fatalf("disk=%d mem=%d", c.diskRd-before, c.memRd)
	}
	m.ReleaseAnon(500)
	// Hits and misses count every byte read: the cold read missed, the
	// warm one hit.
	if st := m.Snapshot(); st.ReadMissBytes != 500 || st.ReadHitBytes != 500 {
		t.Fatalf("read hits %d, misses %d, want 500 each", st.ReadHitBytes, st.ReadMissBytes)
	}
}

func TestSecondAccessActivates(t *testing.T) {
	m := testModel(t, 10000)
	c := newSeqCaller()
	m.ReadFile(c, "f", 100, 100)
	m.ReleaseAnon(100)
	if m.active.count != 0 {
		t.Fatalf("first read already activated %d folios", m.active.count)
	}
	m.ReadFile(c, "f", 100, 100)
	m.ReleaseAnon(100)
	if m.active.count != 10 {
		t.Fatalf("second read activated %d folios, want 10", m.active.count)
	}
}

func TestWriteCreatesDirtyFolios(t *testing.T) {
	m := testModel(t, 10000)
	c := newSeqCaller()
	if err := m.WriteFile(c, "f", 300); err != nil {
		t.Fatal(err)
	}
	st := m.Snapshot()
	if st.Dirty != 300 || st.Cache != 300 {
		t.Fatalf("dirty=%d cache=%d", st.Dirty, st.Cache)
	}
	if c.memWr != 300 || c.diskWr != 0 {
		t.Fatalf("memWr=%d diskWr=%d (under both thresholds)", c.memWr, c.diskWr)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteThrottlesAtDirtyLimit(t *testing.T) {
	m := testModel(t, 1000) // dirty limit 200, bg 100
	c := newSeqCaller()
	if err := m.WriteFile(c, "f", 600); err != nil {
		t.Fatal(err)
	}
	if m.dirtyBytes() > m.dirtyLimit()+m.cfg.ReadChunk {
		t.Fatalf("dirty=%d limit=%d", m.dirtyBytes(), m.dirtyLimit())
	}
	if c.diskWr == 0 {
		t.Fatal("no writeback despite throttling")
	}
}

func TestAppendContinuesAfterEviction(t *testing.T) {
	m := testModel(t, 10000)
	c := newSeqCaller()
	m.WriteFile(c, "f", 100)
	// Clean and evict every folio of f (reclaim, not deletion).
	c.now += 100
	for m.oldestDirty() != nil {
		m.writebackBatch(c)
	}
	if !m.scanInactive(10000, false) {
		t.Fatal("nothing evicted in setup")
	}
	if got := m.CachedByFile()["f"]; got != 0 {
		t.Fatalf("setup: still %d cached", got)
	}
	// The file's written size survives eviction: appends continue at 100.
	if m.inode("f").size != 100 {
		t.Fatalf("size = %d", m.inode("f").size)
	}
	m.WriteFile(c, "f", 50)
	if m.inode("f").size != 150 {
		t.Fatalf("size = %d after append", m.inode("f").size)
	}
}

func TestInvalidateResetsFileSize(t *testing.T) {
	m := testModel(t, 10000)
	c := newSeqCaller()
	m.WriteFile(c, "f", 100)
	m.InvalidateFile("f") // deletion semantics
	if m.inode("f").size != 0 {
		t.Fatalf("size = %d after delete", m.inode("f").size)
	}
}

func TestReclaimEvictsLRUCleanFirst(t *testing.T) {
	m := testModel(t, 1000)
	c := newSeqCaller()
	// Fill the cache with two clean files (reads), then force pressure.
	m.ReadFile(c, "old", 300, 300)
	m.ReleaseAnon(300)
	c.now += 1
	m.ReadFile(c, "new", 300, 300)
	m.ReleaseAnon(300)
	// 600 cached of 1000. Read another 300 with its anon copy: needs ~600.
	if err := m.ReadFile(c, "third", 300, 300); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAnon(300)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.free() < 0 {
		t.Fatalf("free = %d", m.free())
	}
}

func TestProtectedFileSurvivesModeratePressure(t *testing.T) {
	// RAM 1200: victim (500, clean) + precious (800, being written) exceed
	// it by 100, so writing forces reclaim. Protection must steer eviction
	// to the victim.
	m := testModel(t, 1200)
	c := newSeqCaller()
	m.ReadFile(c, "victim", 500, 500)
	m.ReleaseAnon(500)
	if err := m.WriteFile(c, "precious", 800); err != nil {
		t.Fatal(err)
	}
	cached := m.CachedByFile()
	if cached["precious"] != 800 {
		t.Fatalf("precious cached = %d, want 800", cached["precious"])
	}
	if cached["victim"] >= 500 {
		t.Fatal("victim untouched despite pressure")
	}
}

func TestOOMOnImpossibleDemand(t *testing.T) {
	m := testModel(t, 1000)
	c := newSeqCaller()
	err := m.ReadFile(c, "huge", 5000, 5000)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestFlusherBatchGroupsPerFile(t *testing.T) {
	m := testModel(t, 100000)
	c := newSeqCaller()
	m.WriteFile(c, "a", 100)
	c.now += 1
	m.WriteFile(c, "b", 100)
	// Force full writeback via the sync fallback.
	c.now += 100
	for m.oldestDirty() != nil {
		m.writebackBatch(c)
	}
	if c.writesByFile["a"] != 100 || c.writesByFile["b"] != 100 {
		t.Fatalf("writes: %v", c.writesByFile)
	}
	if m.dirtyBytes() != 0 {
		t.Fatalf("dirty = %d", m.dirtyBytes())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidateFileDropsEverything(t *testing.T) {
	m := testModel(t, 10000)
	c := newSeqCaller()
	m.WriteFile(c, "f", 300)
	m.InvalidateFile("f")
	if m.cacheBytes() != 0 || m.dirtyBytes() != 0 {
		t.Fatalf("cache=%d dirty=%d", m.cacheBytes(), m.dirtyBytes())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotAccounting(t *testing.T) {
	m := testModel(t, 10000)
	c := newSeqCaller()
	m.ReadFile(c, "f", 200, 200)
	st := m.Snapshot()
	if st.Total != 10000 || st.Anon != 200 || st.Cache != 200 {
		t.Fatalf("snapshot %+v", st)
	}
	if st.Free != st.Total-st.Anon-st.Cache {
		t.Fatalf("free inconsistent: %+v", st)
	}
	m.ReleaseAnon(200)
}

func TestReleaseAnonPanicsOnOverflow(t *testing.T) {
	m := testModel(t, 1000)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.ReleaseAnon(1)
}

func TestPartialReadOnlyTouchesPrefix(t *testing.T) {
	m := testModel(t, 10000)
	c := newSeqCaller()
	if err := m.ReadFile(c, "f", 100, 500); err != nil {
		t.Fatal(err)
	}
	if got := m.CachedByFile()["f"]; got != 100 {
		t.Fatalf("cached = %d, want 100 (prefix only)", got)
	}
	if c.diskRd != 100 {
		t.Fatalf("diskRd = %d", c.diskRd)
	}
	m.ReleaseAnon(100)
}

// hookCaller is a seqCaller that runs hook once, after the MemWrite that
// brings the countdown at to zero: it stands in for another process acting
// while a write is in flight.
type hookCaller struct {
	*seqCaller
	at   int
	hook func()
}

func (c *hookCaller) MemWrite(n int64) {
	c.seqCaller.MemWrite(n)
	if c.hook != nil {
		if c.at--; c.at <= 0 {
			h := c.hook
			c.hook = nil
			h()
		}
	}
}

func TestInvalidateDuringWriteKeepsModelConsistent(t *testing.T) {
	m := testModel(t, 1000)
	c := &hookCaller{seqCaller: newSeqCaller(), hook: func() { m.InvalidateFile("w") }}
	if err := m.WriteFile(c, "w", 300); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("after mid-write invalidation: %v", err)
	}
	// Reclaim must be able to evict everything the interrupted write left.
	if err := m.ReadFile(c, "r", 900, 900); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteReclaimsRoomTakenMidWrite: a write reserves room for its
// folios before MemWrite blocks; a read that fills memory meanwhile must not
// leave the write overcommitting it.
func TestWriteReclaimsRoomTakenMidWrite(t *testing.T) {
	m := testModel(t, 1000)
	c := &hookCaller{seqCaller: newSeqCaller()}
	c.hook = func() {
		if err := m.ReadFile(c, "r", 500, 500); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.WriteFile(c, "w", 100); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// checkScanMatchesHeadWalk runs a protection-honouring scan for need bytes
// free and checks that it promotes and evicts exactly the folios a walk
// from the head of the inactive list would.
func checkScanMatchesHeadWalk(m *Model, need int64) error {
	var promoted, evicted []*folio
	free := m.free()
	for f := m.inactive.head; f != nil && free < need; f = f.next {
		switch {
		case f.dirty || m.protected(f.ino):
		case f.referenced:
			promoted = append(promoted, f)
		default:
			evicted = append(evicted, f)
			free += m.cfg.FolioSize
		}
	}
	before := m.stats
	m.scanInactive(need, true)
	if p, e := m.stats.Promotions-before.Promotions, m.stats.Evictions-before.Evictions; p != int64(len(promoted)) || e != int64(len(evicted)) {
		return fmt.Errorf("scan promoted %d and evicted %d, head walk %d and %d", p, e, len(promoted), len(evicted))
	}
	for _, f := range promoted {
		if f.list != &m.active {
			return fmt.Errorf("head walk promotes %s[%d], scan did not", f.ino.name, f.idx)
		}
	}
	for _, f := range evicted {
		if f.list != nil {
			return fmt.Errorf("head walk evicts %s[%d], scan did not", f.ino.name, f.idx)
		}
	}
	return nil
}

// TestRandomOperationsKeepInvariants drives seeded random reads, writes,
// invalidations and anon releases, some nested inside an in-flight write,
// and checks every invariant (the reclaim cursor's included) after each
// step, with and without open-write protection. Some steps are bare scans,
// checked against a walk from the head of the inactive list.
func TestRandomOperationsKeepInvariants(t *testing.T) {
	files := []string{"a", "b", "c", "d"}
	var work ReclaimStats
	for _, protect := range []bool{true, false} {
		for seed := int64(1); seed <= 20; seed++ {
			m := testModel(t, 2000)
			m.cfg.ProtectOpenWrites = protect
			rng := rand.New(rand.NewSource(seed))
			c := &hookCaller{seqCaller: newSeqCaller()}
			// op runs one random operation; nested ones never arm the hook.
			var op func(nested bool) string
			op = func(nested bool) string {
				file := files[rng.Intn(len(files))]
				var err error
				var desc string
				switch k := rng.Intn(11); {
				case k < 3:
					n := int64(rng.Intn(600) + 1)
					if m.anon+n > 1000 {
						m.ReleaseAnon(m.anon)
					}
					desc = fmt.Sprintf("read %s %d", file, n)
					err = m.ReadFile(c, file, n, n+int64(rng.Intn(200)))
				case k < 7:
					n := int64(rng.Intn(400) + 1)
					desc = fmt.Sprintf("write %s %d", file, n)
					if !nested && rng.Intn(2) == 0 {
						c.at = rng.Intn(4) + 1
						if rng.Intn(3) == 0 {
							inv := files[rng.Intn(len(files))]
							desc += " invalidating " + inv
							c.hook = func() { m.InvalidateFile(inv) }
						} else {
							c.hook = func() { desc += " overlapping " + op(true) }
						}
					}
					err = m.WriteFile(c, file, n)
					c.hook = nil
				case k < 8:
					desc = "invalidate " + file
					m.InvalidateFile(file)
				case k < 9:
					n := rng.Int63n(m.anon + 1)
					desc = fmt.Sprintf("release %d", n)
					m.ReleaseAnon(n)
				case k < 10:
					desc = "writeback"
					c.now += m.cfg.DirtyExpire
					m.writebackBatch(c)
				default:
					need := m.free() + rng.Int63n(300)
					desc = fmt.Sprintf("scan to %d free", need)
					if err := checkScanMatchesHeadWalk(m, need); err != nil {
						t.Fatalf("protect=%v seed %d: %s: %v", protect, seed, desc, err)
					}
				}
				if err != nil && !errors.Is(err, ErrOutOfMemory) {
					t.Fatalf("protect=%v seed %d: %s: %v", protect, seed, desc, err)
				}
				return desc
			}
			for step := 0; step < 300; step++ {
				desc := op(false)
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("protect=%v seed %d step %d (%s): %v", protect, seed, step, desc, err)
				}
			}
			st := m.ReclaimStats()
			work.Evictions += st.Evictions
			work.Promotions += st.Promotions
		}
	}
	if work.Evictions == 0 || work.Promotions == 0 {
		t.Fatalf("operations never exercised reclaim: %+v", work)
	}
	t.Logf("reclaim work over all seeds: %+v", work)
}
