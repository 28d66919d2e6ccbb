// Package pysim reproduces the paper's standalone sequential prototype
// (§III.C): the same page-cache model as internal/core, but driven by a
// trivial storage model t = D/bw with no bandwidth sharing, single-threaded
// applications only, and a catch-up emulation of the periodic flusher.
//
// The paper used the agreement between this prototype and the full
// WRENCH-cache simulator as evidence of implementation correctness; our
// test suite does the same (see internal/exp).
package pysim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

// Config sets the prototype's fixed bandwidths (bytes/second, symmetric, as
// in Table III) and the cache configuration.
type Config struct {
	MemBW    float64
	DiskBW   float64
	Cache    core.Config
	Chunk    int64
	SampleDT float64 // memory-profile sampling period (0: per-chunk only)
}

// Sim is a sequential simulation: one virtual clock, one application.
type Sim struct {
	cfg      Config
	clock    float64
	mgr      *core.Manager
	io       *core.IOController
	nextTick float64
	anonHeld int64

	Log      *trace.OpLog
	MemTrace *trace.MemSeries
	Snaps    *trace.SnapshotLog

	files map[string]int64 // name → size ("disk" contents)
}

// New builds a prototype simulation.
func New(cfg Config) (*Sim, error) {
	if cfg.MemBW <= 0 || cfg.DiskBW <= 0 {
		return nil, fmt.Errorf("pysim: bandwidths must be positive")
	}
	mgr, err := core.NewManager(cfg.Cache)
	if err != nil {
		return nil, err
	}
	io, err := core.NewIOController(mgr, cfg.Chunk)
	if err != nil {
		return nil, err
	}
	return &Sim{
		cfg:      cfg,
		mgr:      mgr,
		io:       io,
		nextTick: cfg.Cache.FlushInterval,
		Log:      &trace.OpLog{},
		MemTrace: &trace.MemSeries{},
		Snaps:    &trace.SnapshotLog{},
		files:    make(map[string]int64),
	}, nil
}

// Manager exposes the underlying memory manager (tests, tracing).
func (s *Sim) Manager() *core.Manager { return s.mgr }

// Now returns the virtual clock.
func (s *Sim) Now() float64 { return s.clock }

// CreateFile registers an input file of the given size on the virtual disk.
func (s *Sim) CreateFile(name string, size int64) { s.files[name] = size }

// FileSize returns a file's current size.
func (s *Sim) FileSize(name string) int64 { return s.files[name] }

// seqCaller advances the sequential clock at fixed bandwidths.
type seqCaller struct{ s *Sim }

func (c seqCaller) Now() float64 { return c.s.clock }
func (c seqCaller) DiskRead(file string, n int64) {
	c.s.clock += float64(n) / c.s.cfg.DiskBW
}
func (c seqCaller) DiskWrite(file string, n int64) {
	c.s.clock += float64(n) / c.s.cfg.DiskBW
}
func (c seqCaller) MemRead(n int64)  { c.s.clock += float64(n) / c.s.cfg.MemBW }
func (c seqCaller) MemWrite(n int64) { c.s.clock += float64(n) / c.s.cfg.MemBW }

// bgCaller performs background flushes: the expiry check uses the tick time
// and no application time is charged (the prototype has no bandwidth
// sharing, so background disk writes are free for the app — the same
// simplification the paper's prototype makes).
type bgCaller struct{ tick float64 }

func (c *bgCaller) Now() float64            { return c.tick }
func (c *bgCaller) DiskRead(string, int64)  {}
func (c *bgCaller) DiskWrite(string, int64) {}
func (c *bgCaller) MemRead(int64)           {}
func (c *bgCaller) MemWrite(int64)          {}

// catchUp replays the flusher for every tick that has passed: the engine's
// loop (core.RunFlusher) and pass (Manager.FlushPass over domain 0, the
// expiry pass plus, when Config.Cache.DirtyBackgroundRatio is set, the
// background pass), run on the tick clock. Background writes are free, so
// each wait advances the clock by a full FlushInterval, and the prototype
// and the engine agree on every configuration.
func (s *Sim) catchUp() {
	c := &bgCaller{tick: s.nextTick}
	core.RunFlusher(c.Now, s.cfg.Cache.FlushInterval, func() { s.mgr.FlushPass(c, 0) },
		func(seconds float64) { c.tick += seconds }, func() bool { return c.tick <= s.clock })
	s.nextTick = c.tick
}

func (s *Sim) sample() {
	st := s.mgr.Snapshot()
	s.MemTrace.Add(trace.MemPoint{
		T: s.clock, Used: st.Anon + st.Cache, Cache: st.Cache,
		Dirty: st.Dirty, Anon: st.Anon,
	})
}

// ReadFile reads the whole named file chunk by chunk, charging anonymous
// memory, and logs the operation under label.
func (s *Sim) ReadFile(file, label string) error { return s.ReadFileN(file, -1, label) }

// ReadFileN reads the first n bytes of the named file (n < 0: all of it).
func (s *Sim) ReadFileN(file string, n int64, label string) error {
	size, ok := s.files[file]
	if !ok {
		return fmt.Errorf("pysim: read of missing file %s", file)
	}
	if n < 0 || n > size {
		n = size
	}
	start := s.clock
	c := seqCaller{s: s}
	for off := int64(0); off < n; off += s.cfg.Chunk {
		cs := s.cfg.Chunk
		if n-off < cs {
			cs = n - off
		}
		s.catchUp()
		if err := s.io.ReadChunk(c, file, cs, size); err != nil {
			return err
		}
		s.sample()
	}
	s.anonHeld += n
	s.Log.Add(trace.Op{Name: label, Kind: "read", Start: start, End: s.clock, Bytes: n})
	return nil
}

// WriteFile writes size bytes of the named file in writeback mode and logs
// the operation under label.
func (s *Sim) WriteFile(file string, size int64, label string) error {
	start := s.clock
	c := seqCaller{s: s}
	s.mgr.OpenWrite(file)
	for off := int64(0); off < size; off += s.cfg.Chunk {
		cs := s.cfg.Chunk
		if size-off < cs {
			cs = size - off
		}
		s.catchUp()
		if err := s.io.WriteChunk(c, file, cs); err != nil {
			s.mgr.CloseWrite(file)
			return err
		}
		s.sample()
	}
	s.mgr.CloseWrite(file)
	s.files[file] += size
	s.Log.Add(trace.Op{Name: label, Kind: "write", Start: start, End: s.clock, Bytes: size})
	return nil
}

// Compute advances the clock by the injected CPU seconds (§III.D: "For the
// Python prototype, we injected CPU times directly in the simulation"),
// sampling the memory profile once per second so flusher activity during
// compute is visible in Fig 4b.
func (s *Sim) Compute(seconds float64, label string) {
	start := s.clock
	end := s.clock + seconds
	for s.clock+1 <= end {
		s.clock++
		s.catchUp()
		s.sample()
	}
	s.clock = end
	s.catchUp()
	s.sample()
	s.Log.Add(trace.Op{Name: label, Kind: "compute", Start: start, End: s.clock})
}

// ReleaseTaskMemory frees all anonymous memory held by prior reads.
func (s *Sim) ReleaseTaskMemory() {
	if s.anonHeld > 0 {
		s.mgr.ReleaseAnon(s.anonHeld)
		s.anonHeld = 0
	}
	s.sample()
}

// SnapshotCache records per-file cache contents under a label (Fig 4c).
func (s *Sim) SnapshotCache(label string) {
	s.Snaps.Add(label, s.clock, s.mgr.CachedByFile())
}

// DeleteFile removes the named file from the virtual disk and drops its
// cached blocks without writing anything back (deletion semantics), taking
// no simulated time.
func (s *Sim) DeleteFile(file string) error {
	if _, ok := s.files[file]; !ok {
		return fmt.Errorf("pysim: delete of missing file %s", file)
	}
	delete(s.files, file)
	s.mgr.InvalidateFile(file)
	return nil
}
