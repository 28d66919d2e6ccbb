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

func testModel(t testing.TB, total int64) *Model {
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

// TestFolioFitsSizeClass: every cached MiB costs one arena record, so a
// field that pushes it past 40 bytes costs a fifth more memory per folio.
func TestFolioFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(folioRec{}); n > 40 {
		t.Fatalf("folioRec is %d bytes, want ≤ 40", n)
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
	for m.oldestDirty() != 0 {
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
	// A read of 10^11 folios runs out of memory as well, without first
	// growing a folio table for all of them.
	err = m.ReadFile(c, "huger", 1e12, 1e12)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if n := len(m.inode("huger").folios); n > 1000/10 {
		t.Fatalf("folio table grew to %d entries, want ≤ RAM's 100 folios", n)
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
	for m.oldestDirty() != 0 {
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

// TestWritebackOrderSurvivesSlotReuse: invalidating a dirty file leaves
// its dirty-ring entries at the front of the ring and frees its slots, and
// the files written next reuse those slots. The entries must not match the
// new folios: writeback still takes the oldest dirty folio, of b, not the
// younger folio of c that inherited the slot of a's oldest entry.
func TestWritebackOrderSurvivesSlotReuse(t *testing.T) {
	m := testModel(t, 10000)
	c := newSeqCaller()
	m.WriteFile(c, "a", 100)
	m.InvalidateFile("a")
	m.WriteFile(c, "b", 50)
	m.WriteFile(c, "c", 50)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n := m.writeOldest(c, m.cfg.FolioSize); n != m.cfg.FolioSize {
		t.Fatalf("wrote %d bytes, want one folio", n)
	}
	if c.writesByFile["b"] != m.cfg.FolioSize || c.writesByFile["c"] != 0 {
		t.Fatalf("writes %v, want b's first folio only", c.writesByFile)
	}
	if f := m.inode("b").at(0); m.folios.at(f).dirty {
		t.Fatal("b's first folio still dirty")
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
	var promoted, evicted []int32
	var evictedGen []uint32
	free := m.free()
	for f := m.inactive.head; f != 0 && free < need; f = m.folios.at(f).next {
		switch r := m.folios.at(f); {
		case r.dirty || m.protected(m.inos[r.ino]):
		case r.referenced:
			promoted = append(promoted, f)
		default:
			evicted = append(evicted, f)
			evictedGen = append(evictedGen, r.gen)
			free += m.cfg.FolioSize
		}
	}
	before := m.stats
	m.scanInactive(need, true)
	if p, e := m.stats.Promotions-before.Promotions, m.stats.Evictions-before.Evictions; p != int64(len(promoted)) || e != int64(len(evicted)) {
		return fmt.Errorf("scan promoted %d and evicted %d, head walk %d and %d", p, e, len(promoted), len(evicted))
	}
	for _, f := range promoted {
		if r := m.folios.at(f); r.list != activeList {
			return fmt.Errorf("head walk promotes %s[%d], scan did not", m.inos[r.ino].name, r.idx)
		}
	}
	// An evicted folio's slot is freed, which bumps its generation.
	for i, f := range evicted {
		if r := m.folios.at(f); r.list != unlisted || r.gen == evictedGen[i] {
			return fmt.Errorf("head walk evicts %s[%d], scan did not", m.inos[r.ino].name, r.idx)
		}
	}
	return nil
}

// opChooser supplies the random choices of runOps; *rand.Rand is one.
type opChooser interface {
	Intn(n int) int
	Int63n(n int64) int64
}

// runOps drives m through random reads, writes, invalidations, anon
// releases and writebacks chosen by rng, some nested inside an in-flight
// write, while more(step) holds, and checks every invariant (the reclaim
// cursor's and the arena's included) after each step. Some steps are bare
// scans, checked against a walk from the head of the inactive list.
func runOps(m *Model, rng opChooser, more func(step int) bool) error {
	files := []string{"a", "b", "c", "d"}
	c := &hookCaller{seqCaller: newSeqCaller()}
	var failure error
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
			err = checkScanMatchesHeadWalk(m, need)
		}
		if err != nil && !errors.Is(err, ErrOutOfMemory) && failure == nil {
			failure = fmt.Errorf("%s: %w", desc, err)
		}
		return desc
	}
	for step := 0; more(step); step++ {
		desc := op(false)
		if failure == nil {
			failure = m.CheckInvariants()
		}
		if failure != nil {
			return fmt.Errorf("step %d (%s): %w", step, desc, failure)
		}
	}
	return nil
}

// randomOpsModel is the model runOps drives.
func randomOpsModel(t testing.TB, protect bool) *Model {
	m := testModel(t, 2000)
	m.cfg.ProtectOpenWrites = protect
	return m
}

// seededSteps bounds each seeded operation sequence to 300 steps.
func seededSteps(step int) bool { return step < 300 }

// TestRandomOperationsKeepInvariants runs seeded random operation
// sequences through runOps, with and without open-write protection.
func TestRandomOperationsKeepInvariants(t *testing.T) {
	var work ReclaimStats
	for _, protect := range []bool{true, false} {
		for seed := int64(1); seed <= 20; seed++ {
			m := randomOpsModel(t, protect)
			if err := runOps(m, rand.New(rand.NewSource(seed)), seededSteps); err != nil {
				t.Fatalf("protect=%v seed %d: %v", protect, seed, err)
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

// byteChooser makes runOps's choices from fuzz bytes: two bytes per Intn,
// four per Int63n, little-endian, reduced modulo n; zeros once the bytes
// run out.
type byteChooser struct{ b []byte }

func (s *byteChooser) next(k int) uint64 {
	var v uint64
	for i := 0; i < k && len(s.b) > 0; i++ {
		v |= uint64(s.b[0]) << (8 * i)
		s.b = s.b[1:]
	}
	return v
}

func (s *byteChooser) Intn(n int) int       { return int(s.next(2) % uint64(n)) }
func (s *byteChooser) Int63n(n int64) int64 { return int64(s.next(4) % uint64(n)) }

// more continues while bytes are left, for at most a seeded sequence's
// length.
func (s *byteChooser) more(step int) bool { return len(s.b) > 0 && seededSteps(step) }

// recordingChooser passes on a *rand.Rand's choices and records them in
// byteChooser's encoding, so a seeded sequence becomes a fuzz seed.
type recordingChooser struct {
	rng *rand.Rand
	b   []byte
}

func (r *recordingChooser) Intn(n int) int {
	v := r.rng.Intn(n)
	r.b = append(r.b, byte(v), byte(v>>8))
	return v
}

func (r *recordingChooser) Int63n(n int64) int64 {
	v := r.rng.Int63n(n)
	r.b = append(r.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	return v
}

// fuzzOps runs the operations that data encodes: the first byte's low bit
// turns open-write protection on, the rest are the operations' choices.
func fuzzOps(t testing.TB, data []byte) (*Model, error) {
	m := randomOpsModel(t, len(data) > 0 && data[0]&1 == 1)
	if len(data) == 0 {
		return m, nil
	}
	src := &byteChooser{b: data[1:]}
	return m, runOps(m, src, src.more)
}

// FuzzModelOps drives runOps from fuzz bytes. CheckInvariants, arena
// included, must hold after every step, and every scan must match a head
// walk; a stale arena index breaks one or the other. Seeds: the operation
// sequences of TestRandomOperationsKeepInvariants, each checked to replay
// with the same reclaim work.
func FuzzModelOps(f *testing.F) {
	for _, protect := range []bool{true, false} {
		for seed := int64(1); seed <= 20; seed++ {
			rec := &recordingChooser{rng: rand.New(rand.NewSource(seed)), b: []byte{0}}
			if protect {
				rec.b[0] = 1
			}
			m := randomOpsModel(f, protect)
			if err := runOps(m, rec, seededSteps); err != nil {
				f.Fatalf("recording protect=%v seed %d: %v", protect, seed, err)
			}
			replay, err := fuzzOps(f, rec.b)
			if err != nil || replay.ReclaimStats() != m.ReclaimStats() {
				f.Fatalf("protect=%v seed %d replays with %+v, %v; recorded %+v",
					protect, seed, replay.ReclaimStats(), err, m.ReclaimStats())
			}
			f.Add(rec.b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := fuzzOps(t, data); err != nil {
			t.Fatal(err)
		}
	})
}
