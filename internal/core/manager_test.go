package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fakeCaller is a sequential test double: transfers advance its clock at
// fixed bandwidths and are logged.
type fakeCaller struct {
	now                      float64
	memBW, diskBW            float64
	diskReads, diskWrites    int64
	memReads, memWrites      int64
	writeLog                 []string
	freezeClock              bool // background-thread semantics in pysim
	diskReadOps, diskWriteOp int
}

func newFakeCaller() *fakeCaller { return &fakeCaller{memBW: 4812e6, diskBW: 465e6} }

func (f *fakeCaller) Now() float64 { return f.now }
func (f *fakeCaller) DiskRead(file string, n int64) {
	f.diskReads += n
	f.diskReadOps++
	if !f.freezeClock {
		f.now += float64(n) / f.diskBW
	}
}
func (f *fakeCaller) DiskWrite(file string, n int64) {
	f.diskWrites += n
	f.diskWriteOp++
	f.writeLog = append(f.writeLog, file)
	if !f.freezeClock {
		f.now += float64(n) / f.diskBW
	}
}
func (f *fakeCaller) MemRead(n int64)  { f.memReads += n; f.now += float64(n) / f.memBW }
func (f *fakeCaller) MemWrite(n int64) { f.memWrites += n; f.now += float64(n) / f.memBW }

func newTestManager(t *testing.T, total int64) *Manager {
	t.Helper()
	m, err := NewManager(DefaultConfig(total))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustNoInvariantErr(t *testing.T, m *Manager) {
	t.Helper()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{TotalMem: 0, DirtyRatio: 0.2, DirtyExpire: 30, FlushInterval: 5},
		{TotalMem: 100, DirtyRatio: 0, DirtyExpire: 30, FlushInterval: 5},
		{TotalMem: 100, DirtyRatio: 1.5, DirtyExpire: 30, FlushInterval: 5},
		{TotalMem: 100, DirtyRatio: 0.2, DirtyExpire: -1, FlushInterval: 5},
		{TotalMem: 100, DirtyRatio: 0.2, DirtyExpire: 30, FlushInterval: 0},
	}
	for i, c := range cases {
		if _, err := NewManager(c); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	if _, err := NewManager(DefaultConfig(100)); err != nil {
		t.Fatal(err)
	}
}

func TestAddToCacheAndAccounting(t *testing.T) {
	m := newTestManager(t, 1000)
	if d := m.AddToCache("f1", 300, 1); d != 0 {
		t.Fatalf("deficit %d", d)
	}
	if m.Cached("f1") != 300 || m.CacheBytes() != 300 || m.Free() != 700 {
		t.Fatalf("cached=%d cache=%d free=%d", m.Cached("f1"), m.CacheBytes(), m.Free())
	}
	if m.Policy().Lists()[0].Len() != 1 || m.Policy().Lists()[1].Len() != 0 {
		t.Fatal("fresh blocks must land in the inactive list")
	}
	mustNoInvariantErr(t, m)
}

func TestWriteToCacheCreatesDirty(t *testing.T) {
	m := newTestManager(t, 1000)
	c := newFakeCaller()
	if d := m.WriteToCache(c, "f1", 200); d != 0 {
		t.Fatalf("deficit %d", d)
	}
	if m.Dirty() != 200 || c.memWrites != 200 {
		t.Fatalf("dirty=%d memWrites=%d", m.Dirty(), c.memWrites)
	}
	mustNoInvariantErr(t, m)
}

func TestEvictCleanOnlyInactiveOnly(t *testing.T) {
	m := newTestManager(t, 10000)
	c := newFakeCaller()
	m.AddToCache("clean", 100, 1)
	m.WriteToCache(c, "dirty", 100)
	evicted := m.Evict(500, "")
	if evicted != 100 {
		t.Fatalf("evicted %d, want 100 (only the clean block)", evicted)
	}
	if m.Cached("clean") != 0 || m.Cached("dirty") != 100 {
		t.Fatalf("clean=%d dirty=%d", m.Cached("clean"), m.Cached("dirty"))
	}
	mustNoInvariantErr(t, m)
}

func TestEvictExcludesFile(t *testing.T) {
	m := newTestManager(t, 10000)
	m.AddToCache("keep", 100, 1)
	m.AddToCache("drop", 100, 2)
	evicted := m.Evict(1000, "keep")
	if evicted != 100 || m.Cached("keep") != 100 {
		t.Fatalf("evicted=%d keep=%d", evicted, m.Cached("keep"))
	}
}

func TestEvictPartialSplits(t *testing.T) {
	m := newTestManager(t, 10000)
	m.AddToCache("f", 100, 1)
	if ev := m.Evict(30, ""); ev != 30 {
		t.Fatalf("evicted %d, want 30", ev)
	}
	if m.Cached("f") != 70 {
		t.Fatalf("cached = %d, want 70", m.Cached("f"))
	}
	mustNoInvariantErr(t, m)
}

func TestEvictLRUOrder(t *testing.T) {
	m := newTestManager(t, 10000)
	m.AddToCache("old", 100, 1)
	m.AddToCache("new", 100, 2)
	m.Evict(100, "")
	if m.Cached("old") != 0 || m.Cached("new") != 100 {
		t.Fatalf("old=%d new=%d; LRU order violated", m.Cached("old"), m.Cached("new"))
	}
}

func TestEvictNegativeNoop(t *testing.T) {
	m := newTestManager(t, 10000)
	m.AddToCache("f", 100, 1)
	if ev := m.Evict(-5, ""); ev != 0 {
		t.Fatalf("negative evict did something: %d", ev)
	}
	if m.Cached("f") != 100 {
		t.Fatal("negative evict removed data")
	}
}

func TestFlushLRUOrderAndSplit(t *testing.T) {
	m := newTestManager(t, 100000)
	c := newFakeCaller()
	m.WriteToCache(c, "first", 100)
	c.now += 1
	m.WriteToCache(c, "second", 100)

	flushed := m.Flush(c, 150)
	if flushed != 150 {
		t.Fatalf("flushed %d, want 150", flushed)
	}
	if m.Dirty() != 50 {
		t.Fatalf("dirty = %d, want 50", m.Dirty())
	}
	// first is fully flushed; second partially (split).
	if c.writeLog[0] != "first" || c.writeLog[1] != "second" {
		t.Fatalf("writeLog = %v", c.writeLog)
	}
	if c.diskWrites != 150 {
		t.Fatalf("disk writes %d", c.diskWrites)
	}
	mustNoInvariantErr(t, m)
}

func TestFlushNegativeNoop(t *testing.T) {
	m := newTestManager(t, 10000)
	c := newFakeCaller()
	m.WriteToCache(c, "f", 100)
	if fl := m.Flush(c, -1); fl != 0 {
		t.Fatalf("negative flush did something: %d", fl)
	}
	if m.Dirty() != 100 {
		t.Fatal("negative flush cleaned data")
	}
}

func TestFlushStopsWhenNoDirty(t *testing.T) {
	m := newTestManager(t, 10000)
	c := newFakeCaller()
	m.AddToCache("clean", 100, 1)
	if fl := m.Flush(c, 1000); fl != 0 {
		t.Fatalf("flushed clean data: %d", fl)
	}
}

func TestFlushExpiredOnlyOldBlocks(t *testing.T) {
	m := newTestManager(t, 100000)
	c := newFakeCaller()
	m.WriteToCache(c, "old", 100) // entry ≈ 0
	c.now = 20
	m.WriteToCache(c, "young", 100) // entry ≈ 20
	c.now = 31                      // old expired (30s), young not
	flushed := m.FlushExpiredDomain(c, 0)
	if flushed != 100 {
		t.Fatalf("flushed %d, want 100", flushed)
	}
	if m.Dirty() != 100 {
		t.Fatalf("dirty = %d, want 100 (young stays dirty)", m.Dirty())
	}
	mustNoInvariantErr(t, m)
}

func TestCacheReadPromotesCleanMerged(t *testing.T) {
	m := newTestManager(t, 100000)
	c := newFakeCaller()
	m.AddToCache("pad", 10000, 0) // keeps the balancer quiet
	m.AddToCache("f", 100, 1)
	m.AddToCache("f", 100, 2)
	c.now = 5
	m.CacheRead(c, "f", 200)
	if m.Policy().Lists()[1].Len() != 1 {
		t.Fatalf("active blocks = %d, want 1 merged", m.Policy().Lists()[1].Len())
	}
	mb := m.Policy().Lists()[1].Front()
	if mb.Size != 200 || mb.Dirty || mb.Entry != 1 {
		t.Fatalf("merged block %v (want 200B clean entry=1)", mb)
	}
	if c.memReads != 200 {
		t.Fatalf("memReads = %d", c.memReads)
	}
	mustNoInvariantErr(t, m)
}

func TestCacheReadMovesDirtyIndividually(t *testing.T) {
	m := newTestManager(t, 100000)
	c := newFakeCaller()
	m.AddToCache("pad", 10000, 0) // keeps the balancer quiet
	m.WriteToCache(c, "f", 100)   // entry e1
	e1 := m.Policy().Lists()[0].Back().Entry
	c.now = 7
	m.WriteToCache(c, "f", 100)
	c.now = 9
	m.CacheRead(c, "f", 200)
	if m.Policy().Lists()[1].Len() != 2 {
		t.Fatalf("active blocks = %d, want 2 (dirty not merged)", m.Policy().Lists()[1].Len())
	}
	if m.Policy().Lists()[1].Front().Entry != e1 {
		t.Fatal("dirty move lost entry time")
	}
	if m.Policy().Lists()[1].Front().LastAccess != 9 {
		t.Fatal("dirty move did not update access time")
	}
	mustNoInvariantErr(t, m)
}

func TestCacheReadPartialSplits(t *testing.T) {
	m := newTestManager(t, 100000)
	c := newFakeCaller()
	m.AddToCache("f", 100, 1)
	c.now = 3
	m.CacheRead(c, "f", 40)
	// 40 read → promoted to active; 60 remain inactive.
	if m.Policy().Lists()[1].Bytes() != 40 || m.Policy().Lists()[0].Bytes() != 60 {
		t.Fatalf("active=%d inactive=%d", m.Policy().Lists()[1].Bytes(), m.Policy().Lists()[0].Bytes())
	}
	if m.Cached("f") != 100 {
		t.Fatalf("cached = %d", m.Cached("f"))
	}
	mustNoInvariantErr(t, m)
}

func bytesOf(l *List, file string) int64 {
	var n int64
	l.Each(func(b *Block) bool {
		if b.File == file {
			n += b.Size
		}
		return true
	})
	return n
}

func TestCacheReadInactiveBeforeActive(t *testing.T) {
	m := newTestManager(t, 100000)
	c := newFakeCaller()
	m.AddToCache("pad", 10000, 0) // keeps the balancer quiet
	m.AddToCache("f", 100, 1)
	c.now = 2
	m.CacheRead(c, "f", 100) // promotes 100B of f to active
	m.AddToCache("f", 50, 3) // new inactive block of f
	c.now = 4
	m.CacheRead(c, "f", 50) // must consume the inactive 50B, not active bytes
	if got := bytesOf(m.Policy().Lists()[0], "f"); got != 0 {
		t.Fatalf("inactive still holds %dB of f; inactive-first order violated", got)
	}
	if got := bytesOf(m.Policy().Lists()[1], "f"); got != 150 {
		t.Fatalf("active holds %dB of f, want 150", got)
	}
	// The 100B block promoted at t=2 must be untouched (order: inactive first).
	found := false
	m.Policy().Lists()[1].Each(func(b *Block) bool {
		if b.File == "f" && b.Size == 100 && b.LastAccess == 2 {
			found = true
		}
		return true
	})
	if !found {
		t.Fatal("the earlier active block was consumed before the inactive one")
	}
	mustNoInvariantErr(t, m)
}

func TestBalanceActiveAtMostTwiceInactive(t *testing.T) {
	m := newTestManager(t, 100000)
	c := newFakeCaller()
	for i := 0; i < 10; i++ {
		m.AddToCache("f", 100, float64(i))
	}
	c.now = 20
	m.CacheRead(c, "f", 1000) // everything promoted → balance must demote
	if m.Policy().Lists()[1].Bytes() > 2*m.Policy().Lists()[0].Bytes() {
		t.Fatalf("unbalanced: active=%d inactive=%d", m.Policy().Lists()[1].Bytes(), m.Policy().Lists()[0].Bytes())
	}
	mustNoInvariantErr(t, m)
}

func TestUseAnonForcesEviction(t *testing.T) {
	m := newTestManager(t, 1000)
	m.AddToCache("f", 800, 1)
	if d := m.UseAnon(500); d != 0 {
		t.Fatalf("deficit %d, want 0 (force-evicted clean cache)", d)
	}
	if m.ForcedEvictions == 0 {
		t.Fatal("forced eviction not recorded")
	}
	if m.Free() < 0 {
		t.Fatal("negative free after UseAnon")
	}
	mustNoInvariantErr(t, m)
}

func TestUseAnonUnresolvableDeficit(t *testing.T) {
	m := newTestManager(t, 1000)
	c := newFakeCaller()
	m.WriteToCache(c, "f", 800) // dirty: cannot be force-evicted
	if d := m.UseAnon(500); d != 300 {
		t.Fatalf("deficit = %d, want 300", d)
	}
}

func TestReleaseAnon(t *testing.T) {
	m := newTestManager(t, 1000)
	m.UseAnon(300)
	m.ReleaseAnon(300)
	if m.Anon() != 0 {
		t.Fatalf("anon = %d", m.Anon())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	m.ReleaseAnon(1)
}

func TestInvalidateFile(t *testing.T) {
	m := newTestManager(t, 100000)
	c := newFakeCaller()
	m.AddToCache("f", 100, 1)
	m.WriteToCache(c, "f", 50)
	m.AddToCache("g", 30, 2)
	if dropped := m.InvalidateFile("f"); dropped != 150 {
		t.Fatalf("dropped %d, want 150", dropped)
	}
	if m.Cached("f") != 0 || m.Cached("g") != 30 || m.Dirty() != 0 {
		t.Fatalf("f=%d g=%d dirty=%d", m.Cached("f"), m.Cached("g"), m.Dirty())
	}
	mustNoInvariantErr(t, m)
}

func TestWriteProtectionHeuristic(t *testing.T) {
	cfg := DefaultConfig(10000)
	cfg.EvictExcludesOpenWrites = true
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.AddToCache("w", 100, 1)
	m.OpenWrite("w")
	if ev := m.Evict(100, ""); ev != 0 {
		t.Fatalf("evicted %d from write-protected file", ev)
	}
	m.CloseWrite("w")
	if ev := m.Evict(100, ""); ev != 100 {
		t.Fatalf("evicted %d after CloseWrite, want 100", ev)
	}
}

func TestDirtyThresholdTracksAnon(t *testing.T) {
	m := newTestManager(t, 1000)
	base := m.DirtyThreshold()
	m.UseAnon(500)
	if m.DirtyThreshold() >= base {
		t.Fatal("dirty threshold must shrink with anonymous memory")
	}
	if m.DirtyThreshold() != int64(0.2*500) {
		t.Fatalf("threshold = %d", m.DirtyThreshold())
	}
}

func TestSnapshotConsistency(t *testing.T) {
	m := newTestManager(t, 1000)
	c := newFakeCaller()
	m.AddToCache("a", 100, 1)
	m.WriteToCache(c, "b", 200)
	m.UseAnon(50)
	s := m.Snapshot()
	if s.Cache != 300 || s.Dirty != 200 || s.Anon != 50 || s.Free != 650 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.Total != s.Anon+s.Cache+s.Free {
		t.Fatalf("conservation violated: %+v", s)
	}
}

// Property: random operation sequences preserve all manager invariants.
func TestPropertyManagerInvariants(t *testing.T) {
	files := []string{"a", "b", "c", "d"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := newTestManager(t, 100000)
		c := newFakeCaller()
		anonHeld := int64(0)
		for i := 0; i < 300; i++ {
			c.now += rng.Float64() * 3
			file := files[rng.Intn(len(files))]
			amt := int64(1 + rng.Intn(5000))
			switch rng.Intn(8) {
			case 0:
				free := m.Free()
				if amt > free {
					amt = free
				}
				if amt > 0 {
					m.AddToCache(file, amt, c.now)
				}
			case 1:
				free := m.Free()
				if amt > free {
					amt = free
				}
				if amt > 0 {
					m.WriteToCache(c, file, amt)
				}
			case 2:
				m.Evict(amt, file)
			case 3:
				m.Flush(c, amt)
			case 4:
				m.FlushExpiredDomain(c, 0)
			case 5:
				if cached := m.Cached(file); cached > 0 {
					n := 1 + rng.Int63n(cached)
					m.CacheRead(c, file, n)
				}
			case 6:
				if m.Free() > 0 {
					n := 1 + rng.Int63n(m.Free())
					if m.UseAnon(n) == 0 {
						anonHeld += n
					} else {
						m.ReleaseAnon(n)
					}
				}
			case 7:
				if anonHeld > 0 {
					n := 1 + rng.Int63n(anonHeld)
					m.ReleaseAnon(n)
					anonHeld -= n
				}
			}
			if err := m.CheckInvariants(); err != nil {
				t.Logf("seed %d op %d: %v", seed, i, err)
				return false
			}
			if m.Policy().Lists()[1].Bytes() > 2*m.Policy().Lists()[0].Bytes() && m.Policy().Lists()[0].Bytes() > 0 {
				// Balance holds except transiently inside ops (never here).
				t.Logf("seed %d op %d: unbalanced lists", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// clockCaller is a Caller that only advances its clock: unlike fakeCaller
// it logs nothing, so it allocates nothing.
type clockCaller struct{ now float64 }

func (c *clockCaller) Now() float64                   { return c.now }
func (c *clockCaller) DiskRead(file string, n int64)  { c.now += float64(n) / 465e6 }
func (c *clockCaller) DiskWrite(file string, n int64) { c.now += float64(n) / 465e6 }
func (c *clockCaller) MemRead(n int64)                { c.now += float64(n) / 4812e6 }
func (c *clockCaller) MemWrite(n int64)               { c.now += float64(n) / 4812e6 }

// TestManagerCycleAllocatesNothing pins block recycling: once warmed up, a
// write → flush → read hit → evict → invalidate cycle takes every block it
// creates (whole, split off, merged) from the manager's free list and
// allocates nothing, under every cache policy.
func TestManagerCycleAllocatesNothing(t *testing.T) {
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			cfg := DefaultConfig(100000)
			cfg.Policy = policy
			m, err := NewManager(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := &clockCaller{}
			cycle := func() {
				m.WriteToCache(c, "a", 4000)
				m.WriteToCache(c, "b", 3000)
				m.Flush(c, 5000) // all of a, part of b: a split
				m.CacheRead(c, "a", 2500)
				m.CacheRead(c, "b", 1000)
				m.AddToCache("c", 2000, c.Now())
				m.Evict(3000, "b")
				for _, f := range []string{"a", "b", "c"} {
					m.InvalidateFile(f)
				}
				c.now++
			}
			for i := 0; i < 10; i++ {
				cycle()
			}
			if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
				t.Fatalf("%v allocations per cycle, want 0", allocs)
			}
			if len(m.pool.blocks) == 0 {
				t.Fatal("no block reached the free list")
			}
			mustNoInvariantErr(t, m)
		})
	}
}
