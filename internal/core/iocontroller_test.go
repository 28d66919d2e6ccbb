package core

import (
	"errors"
	"testing"
)

func newTestIO(t *testing.T, total, chunk int64) (*IOController, *Manager, *fakeCaller) {
	t.Helper()
	m := newTestManager(t, total)
	io, err := NewIOController(m, chunk)
	if err != nil {
		t.Fatal(err)
	}
	return io, m, newFakeCaller()
}

func TestIOControllerValidation(t *testing.T) {
	m := newTestManager(t, 100)
	if _, err := NewIOController(m, 0); err == nil {
		t.Fatal("accepted zero chunk size")
	}
	io, err := NewIOController(m, 10)
	if err != nil || io.ChunkSize() != 10 || io.Manager() != m {
		t.Fatalf("io=%v err=%v", io, err)
	}
}

func TestColdReadGoesToDisk(t *testing.T) {
	io, m, c := newTestIO(t, 10000, 100)
	if err := io.ReadFile(c, "f", 1000); err != nil {
		t.Fatal(err)
	}
	if c.diskReads != 1000 || c.memReads != 0 {
		t.Fatalf("disk=%d mem=%d", c.diskReads, c.memReads)
	}
	if m.Cached("f") != 1000 || m.Anon() != 1000 {
		t.Fatalf("cached=%d anon=%d", m.Cached("f"), m.Anon())
	}
	mustNoInvariantErr(t, m)
}

func TestWarmReadHitsCache(t *testing.T) {
	io, m, c := newTestIO(t, 10000, 100)
	if err := io.ReadFile(c, "f", 1000); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAnon(1000)
	c2 := newFakeCaller()
	c2.now = c.now
	if err := io.ReadFile(c2, "f", 1000); err != nil {
		t.Fatal(err)
	}
	if c2.diskReads != 0 || c2.memReads != 1000 {
		t.Fatalf("disk=%d mem=%d; warm read must be all cache hits", c2.diskReads, c2.memReads)
	}
	// Re-accessed data is promoted (some may be demoted again by balancing).
	if m.Policy().Lists()[1].Bytes() == 0 {
		t.Fatal("no promotion to active list")
	}
	mustNoInvariantErr(t, m)
}

func TestPartiallyCachedReadOrdering(t *testing.T) {
	io, m, c := newTestIO(t, 10000, 100)
	// Prime 400 bytes of the 1000-byte file.
	if err := io.ReadFile(c, "f", 1000); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAnon(1000)
	m.Evict(600, "") // leaves 400 cached
	if m.Cached("f") != 400 {
		t.Fatalf("setup: cached=%d", m.Cached("f"))
	}
	c2 := newFakeCaller()
	c2.now = c.now
	if err := io.ReadFile(c2, "f", 1000); err != nil {
		t.Fatal(err)
	}
	// Round-robin: 600 uncached from disk first, then 400 from cache.
	if c2.diskReads != 600 || c2.memReads != 400 {
		t.Fatalf("disk=%d mem=%d", c2.diskReads, c2.memReads)
	}
	if m.Cached("f") != 1000 {
		t.Fatalf("cached=%d", m.Cached("f"))
	}
	mustNoInvariantErr(t, m)
}

func TestPartialReadOfHalfCachedFileGoesToDisk(t *testing.T) {
	// Algorithm 2 reads uncached data first, so a 500-byte partial read of a
	// half-cached 1000-byte file is served entirely from disk.
	io, m, c := newTestIO(t, 100000, 100)
	if err := io.ReadFile(c, "f", 1000); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAnon(1000)
	m.Evict(500, "")
	if m.Cached("f") != 500 {
		t.Fatalf("setup: cached=%d", m.Cached("f"))
	}
	c2 := newFakeCaller()
	c2.now = c.now
	if err := io.Read(c2, "f", 500, 1000); err != nil {
		t.Fatal(err)
	}
	if c2.diskReads != 500 || c2.memReads != 0 {
		t.Fatalf("disk=%d mem=%d", c2.diskReads, c2.memReads)
	}
	mustNoInvariantErr(t, m)
}

func TestWritebackUnderThresholdIsMemorySpeed(t *testing.T) {
	io, m, c := newTestIO(t, 10000, 100)
	// Dirty threshold = 0.2 * 10000 = 2000; write 1000 → all cache.
	if err := io.WriteFile(c, "f", 1000); err != nil {
		t.Fatal(err)
	}
	if c.diskWrites != 0 || c.memWrites != 1000 {
		t.Fatalf("disk=%d mem=%d", c.diskWrites, c.memWrites)
	}
	if m.Dirty() != 1000 || m.Cached("f") != 1000 {
		t.Fatalf("dirty=%d cached=%d", m.Dirty(), m.Cached("f"))
	}
	mustNoInvariantErr(t, m)
}

func TestWritebackThrottlesPastThreshold(t *testing.T) {
	io, m, c := newTestIO(t, 10000, 100)
	// Threshold 2000. Writing 5000 must flush ≈3000 to disk.
	if err := io.WriteFile(c, "f", 5000); err != nil {
		t.Fatal(err)
	}
	if m.Dirty() > m.DirtyThreshold()+io.ChunkSize() {
		t.Fatalf("dirty=%d threshold=%d: throttling failed", m.Dirty(), m.DirtyThreshold())
	}
	if c.diskWrites < 2900 {
		t.Fatalf("disk writes = %d, want ≈3000", c.diskWrites)
	}
	if m.Cached("f") != 5000 {
		t.Fatalf("cached=%d, want 5000 (flushed data stays cached clean)", m.Cached("f"))
	}
	mustNoInvariantErr(t, m)
}

func TestWritethroughAlwaysDisk(t *testing.T) {
	io, m, c := newTestIO(t, 10000, 100)
	if err := io.WriteFileThrough(c, "f", 3000); err != nil {
		t.Fatal(err)
	}
	if c.diskWrites != 3000 || c.memWrites != 0 {
		t.Fatalf("disk=%d mem=%d", c.diskWrites, c.memWrites)
	}
	if m.Dirty() != 0 {
		t.Fatalf("dirty=%d, want 0 in writethrough", m.Dirty())
	}
	if m.Cached("f") != 3000 {
		t.Fatalf("cached=%d, want 3000 (writethrough still caches)", m.Cached("f"))
	}
	mustNoInvariantErr(t, m)
}

func TestWritethroughEvictsWhenFull(t *testing.T) {
	io, m, c := newTestIO(t, 1000, 100)
	m.AddToCache("other", 900, 0)
	if err := io.WriteFileThrough(c, "f", 800); err != nil {
		t.Fatal(err)
	}
	if m.CacheBytes() > 1000 {
		t.Fatalf("cache overflow: %d", m.CacheBytes())
	}
	if m.Cached("f") != 800 {
		t.Fatalf("cached=%d", m.Cached("f"))
	}
	mustNoInvariantErr(t, m)
}

func TestReadEvictsForAnonCopy(t *testing.T) {
	// RAM 1500, file 1000: read needs 1000 anon + 1000 cache; cache must be
	// partially evicted to make room as anon grows.
	io, m, c := newTestIO(t, 1500, 100)
	if err := io.ReadFile(c, "f", 1000); err != nil {
		t.Fatal(err)
	}
	if m.Free() < 0 {
		t.Fatalf("free=%d", m.Free())
	}
	if m.Anon() != 1000 {
		t.Fatalf("anon=%d", m.Anon())
	}
	if m.Cached("f") >= 1000 {
		t.Fatalf("cached=%d, expected partial self-eviction", m.Cached("f"))
	}
	mustNoInvariantErr(t, m)
}

func TestRereadOfDirtyFileFlushesBeforeEvict(t *testing.T) {
	// Write a file filling the dirty allowance, then read it back while
	// memory is tight: reading must trigger flushes (cannot evict dirty).
	io, m, c := newTestIO(t, 3000, 100)
	if err := io.WriteFile(c, "f", 1500); err != nil {
		t.Fatal(err)
	}
	// Anon pressure: read a second 1400-byte file.
	if err := io.ReadFile(c, "g", 1400); err != nil {
		t.Fatal(err)
	}
	if m.Free() < 0 {
		t.Fatalf("free=%d", m.Free())
	}
	mustNoInvariantErr(t, m)
}

func TestWriteOOMWhenAnonFillsRAM(t *testing.T) {
	io, m, c := newTestIO(t, 1000, 100)
	m.UseAnon(1000) // RAM completely anonymous
	err := io.WriteFile(c, "f", 100)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestReadOOMWhenAnonFillsRAM(t *testing.T) {
	io, m, c := newTestIO(t, 1000, 100)
	m.UseAnon(950)
	err := io.ReadFile(c, "f", 500)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestChunkSizeLargerThanFile(t *testing.T) {
	io, m, c := newTestIO(t, 10000, 1<<20)
	if err := io.ReadFile(c, "f", 123); err != nil {
		t.Fatal(err)
	}
	if c.diskReads != 123 || m.Cached("f") != 123 {
		t.Fatalf("disk=%d cached=%d", c.diskReads, m.Cached("f"))
	}
}

func TestSyntheticPipelineTimings(t *testing.T) {
	// One full synthetic-task cycle at small scale: read f1 (cold), write f2
	// (cache), re-read f2 (warm). Verifies the headline effect: warm reads
	// and under-threshold writes never touch the disk.
	io, m, c := newTestIO(t, 100000, 100)
	if err := io.ReadFile(c, "f1", 5000); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAnon(5000)
	if err := io.WriteFile(c, "f2", 5000); err != nil {
		t.Fatal(err)
	}
	diskBefore := c.diskReads
	if err := io.ReadFile(c, "f2", 5000); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAnon(5000)
	if c.diskReads != diskBefore {
		t.Fatalf("warm read of just-written file touched disk: %d→%d", diskBefore, c.diskReads)
	}
	mustNoInvariantErr(t, m)
}

func TestPeriodicFlusherLoop(t *testing.T) {
	m := newTestManager(t, 100000)
	c := newFakeCaller()
	m.WriteToCache(c, "f", 1000)
	ticks := 0
	pass := func() { m.FlushPass(c, 0) }
	RunFlusher(c.Now, m.Config().FlushInterval, pass, func(s float64) { c.now += s; ticks++ }, func() bool {
		return c.now < 61 // run past expiry (30s) in 5s intervals
	})
	if m.Dirty() != 0 {
		t.Fatalf("dirty=%d after expiry window", m.Dirty())
	}
	if c.diskWrites != 1000 {
		t.Fatalf("diskWrites=%d", c.diskWrites)
	}
	if ticks < 6 {
		t.Fatalf("flusher ticked %d times", ticks)
	}
}
