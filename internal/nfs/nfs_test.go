package nfs

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/fluid"
	"repro/internal/platform"
)

type rig struct {
	k    *des.Kernel
	sys  *fluid.System
	r    *Remote
	mgr  *core.Manager
	link *platform.Link
}

// newRig: link 50 B/s, server disk 10 B/s, server mem 100 B/s, server RAM
// 1000 B, chunk 10.
func newRig(t *testing.T, cached bool, writeback bool) *rig {
	t.Helper()
	k := des.NewKernel()
	sys := fluid.NewSystem(k)
	disk, err := platform.NewDevice(sys, platform.DeviceSpec{Name: "disk", ReadBW: 10, WriteBW: 10})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := platform.NewDevice(sys, platform.DeviceSpec{Name: "mem", ReadBW: 100, WriteBW: 100})
	if err != nil {
		t.Fatal(err)
	}
	link, err := platform.NewLink(sys, platform.LinkSpec{Name: "net", BW: 50})
	if err != nil {
		t.Fatal(err)
	}
	var mgr *core.Manager
	if cached {
		mgr, err = core.NewManager(core.DefaultConfig(1000))
		if err != nil {
			t.Fatal(err)
		}
	}
	r, err := New(sys, link, disk, mem, mgr, 10)
	if err != nil {
		t.Fatal(err)
	}
	r.ServerWriteback = writeback
	return &rig{k: k, sys: sys, r: r, mgr: mgr, link: link}
}

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRawTransfersBottleneck(t *testing.T) {
	rg := newRig(t, false, false)
	var tr, tw float64
	rg.k.Spawn("p", func(p *des.Proc) {
		start := p.Now()
		rg.r.RawRead(p, 100) // min(link 50, disk 10) = 10 B/s
		tr = p.Now() - start
		start = p.Now()
		rg.r.RawWrite(p, 100)
		tw = p.Now() - start
	})
	if err := rg.k.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(tr, 10, 1e-6) || !near(tw, 10, 1e-6) {
		t.Fatalf("raw read=%v write=%v, want 10/10", tr, tw)
	}
}

func TestUncachedServerReadFallsBackToRaw(t *testing.T) {
	rg := newRig(t, false, false)
	var elapsed float64
	rg.k.Spawn("p", func(p *des.Proc) {
		rg.r.Read(p, "f", 100, 100)
		elapsed = p.Now()
	})
	if err := rg.k.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(elapsed, 10, 1e-6) {
		t.Fatalf("elapsed = %v", elapsed)
	}
}

func TestServerReadCachePopulatesAndHits(t *testing.T) {
	rg := newRig(t, true, false)
	var cold, warm float64
	rg.k.Spawn("p", func(p *des.Proc) {
		start := p.Now()
		rg.r.Read(p, "f", 100, 100)
		cold = p.Now() - start
		start = p.Now()
		rg.r.Read(p, "f", 100, 100)
		warm = p.Now() - start
	})
	if err := rg.k.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(cold, 10, 1e-6) {
		t.Fatalf("cold = %v, want 10 (disk-bound)", cold)
	}
	// Warm: min(link 50, server mem 100) = 50 B/s → 2 s.
	if !near(warm, 2, 1e-6) {
		t.Fatalf("warm = %v, want 2 (server cache through link)", warm)
	}
	if rg.mgr.Cached("f") != 100 {
		t.Fatalf("server cached = %d", rg.mgr.Cached("f"))
	}
	// Hit/miss accounting covers the NFS path too: the cold read is all
	// misses, the warm read all hits → ratio 0.5, not a false 1.0.
	if hit, miss := rg.mgr.ReadHitBytes(), rg.mgr.ReadMissBytes(); hit != 100 || miss != 100 {
		t.Fatalf("server hit/miss = %d/%d, want 100/100", hit, miss)
	}
}

func TestWritethroughWriteCachesOnServer(t *testing.T) {
	rg := newRig(t, true, false)
	var tw float64
	rg.k.Spawn("p", func(p *des.Proc) {
		start := p.Now()
		rg.r.Write(p, "f", 100)
		tw = p.Now() - start
	})
	if err := rg.k.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(tw, 10, 1e-6) {
		t.Fatalf("writethrough = %v, want 10 (disk speed)", tw)
	}
	if rg.mgr.Cached("f") != 100 || rg.mgr.Dirty() != 0 {
		t.Fatalf("cached=%d dirty=%d", rg.mgr.Cached("f"), rg.mgr.Dirty())
	}
}

func TestWritebackServerAbsorbsWrites(t *testing.T) {
	rg := newRig(t, true, true)
	var tw float64
	rg.k.Spawn("p", func(p *des.Proc) {
		start := p.Now()
		rg.r.Write(p, "f", 100) // under dirty threshold (200)
		tw = p.Now() - start
	})
	if err := rg.k.Run(); err != nil {
		t.Fatal(err)
	}
	// min(link up 50, server mem write 100) = 50 B/s → 2 s.
	if !near(tw, 2, 1e-6) {
		t.Fatalf("writeback server write = %v, want 2", tw)
	}
	if rg.mgr.Dirty() != 100 {
		t.Fatalf("server dirty = %d", rg.mgr.Dirty())
	}
}

func TestServerCacheEvictionWhenFull(t *testing.T) {
	rg := newRig(t, true, false)
	rg.k.Spawn("p", func(p *des.Proc) {
		// 1200 B through a 1000 B server cache: must evict, never overflow.
		for i := 0; i < 12; i++ {
			rg.r.Write(p, "f", 100)
		}
	})
	if err := rg.k.Run(); err != nil {
		t.Fatal(err)
	}
	if rg.mgr.CacheBytes() > 1000 {
		t.Fatalf("server cache overflow: %d", rg.mgr.CacheBytes())
	}
	if err := rg.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPartiallyCachedServerRead(t *testing.T) {
	rg := newRig(t, true, false)
	var elapsed float64
	rg.k.Spawn("p", func(p *des.Proc) {
		rg.r.Read(p, "f", 100, 40) // cache 40 of the file
		rg.mgr.Evict(0, "")        // no-op, keep state
		start := p.Now()
		rg.r.Read(p, "f", 100, 100) // 60 from disk, 40 from server memory
		elapsed = p.Now() - start
	})
	if err := rg.k.Run(); err != nil {
		t.Fatal(err)
	}
	// 60 B at 10 B/s + 40 B at 50 B/s = 6 + 0.8 = 6.8 s.
	if !near(elapsed, 6.8, 1e-6) {
		t.Fatalf("elapsed = %v, want 6.8", elapsed)
	}
}

func TestZeroByteOpsFree(t *testing.T) {
	rg := newRig(t, true, false)
	var elapsed float64
	rg.k.Spawn("p", func(p *des.Proc) {
		rg.r.Read(p, "f", 100, 0)
		rg.r.Write(p, "f", 0)
		elapsed = p.Now()
	})
	if err := rg.k.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != 0 {
		t.Fatalf("elapsed = %v", elapsed)
	}
}

func TestBackgroundTickFlushesWritebackServer(t *testing.T) {
	rg := newRig(t, true, true)
	rg.k.Spawn("p", func(p *des.Proc) {
		rg.r.Write(p, "f", 100)
		p.Sleep(31) // expire
		rg.r.BackgroundTick(p)
	})
	if err := rg.k.Run(); err != nil {
		t.Fatal(err)
	}
	if rg.mgr.Dirty() != 0 {
		t.Fatalf("server dirty = %d after tick", rg.mgr.Dirty())
	}
}

// newRigWithWriteback is newRig with a writeback server cache running the
// named writeback policy (and an optional background dirty ratio).
func newRigWithWriteback(t *testing.T, wb string, bg float64) *rig {
	t.Helper()
	k := des.NewKernel()
	sys := fluid.NewSystem(k)
	disk, err := platform.NewDevice(sys, platform.DeviceSpec{Name: "disk", ReadBW: 10, WriteBW: 10})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := platform.NewDevice(sys, platform.DeviceSpec{Name: "mem", ReadBW: 100, WriteBW: 100})
	if err != nil {
		t.Fatal(err)
	}
	link, err := platform.NewLink(sys, platform.LinkSpec{Name: "net", BW: 50})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(1000)
	cfg.Writeback = wb
	cfg.DirtyBackgroundRatio = bg
	mgr, err := core.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(sys, link, disk, mem, mgr, 10)
	if err != nil {
		t.Fatal(err)
	}
	r.ServerWriteback = true
	return &rig{k: k, sys: sys, r: r, mgr: mgr, link: link}
}

// serverFileDirty sums a file's dirty bytes over the server manager's lists.
func serverFileDirty(m *core.Manager, file string) int64 {
	var n int64
	for _, l := range m.Policy().Lists() {
		n += l.FileDirtyBytes(file)
	}
	return n
}

// TestServerWritebackFlushOrderPolicy drives the same over-threshold write
// sequence against writeback servers running list-order and file-rr and
// checks the server-side foreground flush picked different victims: the
// writeback policy must govern the NFS path too, not just local caches.
//
// Sequence (server RAM 1000 → dirty threshold 200): two 50 B dirty blocks
// of f1, then two of f2, then a 60 B write of f1 that must flush 60 B
// synchronously. list-order flushes f1's blocks (oldest list position)
// only; file-rr alternates f1, f2.
func TestServerWritebackFlushOrderPolicy(t *testing.T) {
	run := func(wb string) (f1, f2 int64) {
		rg := newRigWithWriteback(t, wb, 0)
		rg.k.Spawn("p", func(p *des.Proc) {
			rg.r.Write(p, "f1", 50)
			rg.r.Write(p, "f1", 50)
			rg.r.Write(p, "f2", 50)
			rg.r.Write(p, "f2", 50)
			rg.r.Write(p, "f1", 60)
		})
		if err := rg.k.Run(); err != nil {
			t.Fatal(err)
		}
		if err := rg.mgr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", wb, err)
		}
		if got := rg.mgr.Dirty(); got != 200 {
			t.Fatalf("%s: server dirty %d, want 200 (at threshold)", wb, got)
		}
		return serverFileDirty(rg.mgr, "f1"), serverFileDirty(rg.mgr, "f2")
	}
	if f1, f2 := run("list-order"); f1 != 100 || f2 != 100 {
		t.Fatalf("list-order: dirty f1=%d f2=%d, want 100/100 (f1 flushed first)", f1, f2)
	}
	if f1, f2 := run("file-rr"); f1 != 110 || f2 != 90 {
		t.Fatalf("file-rr: dirty f1=%d f2=%d, want 110/90 (alternating flush)", f1, f2)
	}
}

// TestServerBackgroundWriteback verifies BackgroundTick also enforces the
// background dirty threshold on a writeback server: dirty data above
// dirty_background_ratio is written back without waiting for expiry.
func TestServerBackgroundWriteback(t *testing.T) {
	rg := newRigWithWriteback(t, "", 0.10) // background threshold 100
	rg.k.Spawn("p", func(p *des.Proc) {
		rg.r.Write(p, "f", 150)
		rg.r.BackgroundTick(p) // nothing expired, but 50 B over background
	})
	if err := rg.k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := rg.mgr.Dirty(); got != 100 {
		t.Fatalf("server dirty = %d after background tick, want 100", got)
	}
	if got := rg.mgr.FlushedBytes(); got != 50 {
		t.Fatalf("server flushed %d, want 50", got)
	}
}
