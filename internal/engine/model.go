// Package engine is the WRENCH-equivalent simulator: it binds the page-cache
// model (internal/core), the platform (internal/platform), the filesystem
// (internal/storage) and the NFS substrate (internal/nfs) to the DES kernel,
// and exposes an application API (App) used by the workloads.
//
// The engine runs in one of several modes per host: the cacheless baseline
// (the original WRENCH behaviour the paper compares against), the paper's
// writeback page cache ("WRENCH-cache"), a writethrough cache, or direct
// I/O. The ground-truth proxy (internal/linuxref) plugs in through the same
// CacheModel interface.
package engine

import (
	"repro/internal/core"
	"repro/internal/des"
)

// Mode selects a host's I/O semantics.
type Mode int

const (
	// ModeCacheless is the original WRENCH baseline: every byte moves at
	// backing-store speed, no page cache, no memory accounting.
	ModeCacheless Mode = iota
	// ModeWriteback is the paper's model: writeback page cache with dirty
	// throttling and periodic expiry flushing.
	ModeWriteback
	// ModeWritethrough caches reads and writes but persists writes
	// synchronously (no dirty data).
	ModeWritethrough
	// ModeDirectIO bypasses the page cache (O_DIRECT) but still charges
	// anonymous memory for the application copy.
	ModeDirectIO
)

func (m Mode) String() string {
	switch m {
	case ModeCacheless:
		return "cacheless"
	case ModeWriteback:
		return "writeback"
	case ModeWritethrough:
		return "writethrough"
	case ModeDirectIO:
		return "directio"
	}
	return "unknown"
}

// CacheModel abstracts a host's I/O + memory subsystem. Implementations:
// the paper's block model (coreModel), the cacheless baseline, and the
// linuxref page-granularity ground-truth proxy.
type CacheModel interface {
	// ReadFile reads n bytes of a fileSize-byte file (chunked,
	// round-robin), charging anonymous memory for the application copy
	// where the model tracks it. n < fileSize models workflow steps that
	// consume a subset of a predecessor's output.
	ReadFile(c core.Caller, file string, n, fileSize int64) error
	// WriteFile writes size bytes of file with mode-appropriate semantics.
	WriteFile(c core.Caller, file string, size int64) error
	// ReleaseAnon returns n bytes of anonymous memory (task termination).
	ReleaseAnon(n int64)
	// InvalidateFile drops any cached state for file (deletion).
	InvalidateFile(file string)
	// Snapshot reports memory accounting (zeros for models without any).
	Snapshot() core.Stats
	// CachedByFile reports per-file cached bytes (nil if unsupported).
	CachedByFile() map[string]int64
	// Start launches the model's background processes (periodic flusher).
	// running() turning false lets them terminate.
	Start(k *des.Kernel, mkCaller func(*des.Proc) core.Caller, running func() bool)
}

// ManagerProvider is implemented by cache models backed by a core.Manager
// (coreModel here, cgroup.Group elsewhere). Chaos faults use it to reach
// the underlying cache for drop_caches and limit-resize semantics; models
// without a manager (cacheless, linuxref) simply don't implement it and
// the corresponding faults are rejected at scenario-validation time.
type ManagerProvider interface {
	Manager() *core.Manager
}

// Syncer is implemented by models that can write back all dirty data on
// demand — the sync(2) the scenario runner issues before evaluating
// all-dirty-flushed assertions.
type Syncer interface {
	SyncAll(c core.Caller)
}

// coreModel adapts core.IOController to CacheModel for the writeback,
// writethrough and direct-I/O modes.
type coreModel struct {
	io   *core.IOController
	mode Mode
	// flushSig is the signal domain 0's flusher waits on (nil before Start
	// and in direct-I/O mode, which runs no flusher).
	flushSig *des.Signal
}

// NewCoreModel builds the paper's block-granularity model in the given mode.
func NewCoreModel(mgr *core.Manager, chunk int64, mode Mode) (CacheModel, error) {
	io, err := core.NewIOController(mgr, chunk)
	if err != nil {
		return nil, err
	}
	return &coreModel{io: io, mode: mode}, nil
}

func (m *coreModel) ReadFile(c core.Caller, file string, n, fileSize int64) error {
	if m.mode == ModeDirectIO {
		return directTransfer(c, file, n, m.io.ChunkSize(), true, m.io.Manager())
	}
	return m.io.Read(c, file, n, fileSize)
}

func (m *coreModel) WriteFile(c core.Caller, file string, size int64) error {
	switch m.mode {
	case ModeWritethrough:
		return m.io.WriteFileThrough(c, file, size)
	case ModeDirectIO:
		return directTransfer(c, file, size, m.io.ChunkSize(), false, nil)
	default:
		return m.io.WriteFile(c, file, size)
	}
}

// Manager implements ManagerProvider.
func (m *coreModel) Manager() *core.Manager { return m.io.Manager() }

// SyncAll implements Syncer: it flushes until nothing dirty remains (the
// selection restarts after every blocking write, so concurrent writers are
// drained too).
func (m *coreModel) SyncAll(c core.Caller) {
	mgr := m.io.Manager()
	for mgr.Dirty() > 0 {
		if mgr.Flush(c, mgr.Dirty()) == 0 {
			return
		}
	}
}

func (m *coreModel) ReleaseAnon(n int64)        { m.io.Manager().ReleaseAnon(n) }
func (m *coreModel) InvalidateFile(file string) { m.io.Manager().InvalidateFile(file) }
func (m *coreModel) Snapshot() core.Stats       { return m.io.Manager().Snapshot() }
func (m *coreModel) CachedByFile() map[string]int64 {
	return m.io.Manager().CachedByFile()
}

// Start spawns domain 0's flusher; enablePerDeviceWriteback, run by
// BuildPlatform before any workload spawns, adds one per device domain it
// creates.
func (m *coreModel) Start(k *des.Kernel, mkCaller func(*des.Proc) core.Caller, running func() bool) {
	if m.mode == ModeDirectIO {
		return // nothing cached, nothing to flush
	}
	m.flushSig = spawnFlusher(k, "pdflush", mkCaller, m.io.Manager(), 0, running)
}

// spawnFlusher starts writeback domain dom's flusher proc — core.RunFlusher
// over the domain's FlushPass — and returns the signal it waits on between
// passes. Until a wake hook broadcasts that signal (SetDomainWake, installed
// only by per-device writeback), each wait is a single timer event exactly
// like a plain Sleep.
func spawnFlusher(k *des.Kernel, name string, mkCaller func(*des.Proc) core.Caller, mgr *core.Manager, dom int, running func() bool) *des.Signal {
	sig := des.NewSignal(k)
	k.Spawn(name, func(p *des.Proc) {
		c := mkCaller(p)
		core.RunFlusher(c.Now, mgr.Config().FlushInterval, func() { mgr.FlushPass(c, dom) },
			func(seconds float64) { sig.WaitTimeout(p, seconds) }, running)
	})
	return sig
}

// directTransfer moves data chunk-by-chunk at backing-store speed; reads
// charge anonymous memory when mgr is non-nil.
func directTransfer(c core.Caller, file string, size, chunk int64, read bool, mgr *core.Manager) error {
	for off := int64(0); off < size; off += chunk {
		cs := chunk
		if size-off < cs {
			cs = size - off
		}
		if read {
			c.DiskRead(file, cs)
			if mgr != nil {
				if deficit := mgr.UseAnon(cs); deficit > 0 {
					return core.ErrOutOfMemory
				}
			}
		} else {
			c.DiskWrite(file, cs)
		}
	}
	return nil
}

// cachelessModel is the original-WRENCH baseline: raw device transfers.
type cachelessModel struct {
	chunk int64
}

// NewCachelessModel returns the baseline model with the given chunk size.
func NewCachelessModel(chunk int64) CacheModel { return &cachelessModel{chunk: chunk} }

func (m *cachelessModel) ReadFile(c core.Caller, file string, n, fileSize int64) error {
	return directTransfer(c, file, n, m.chunk, true, nil)
}

func (m *cachelessModel) WriteFile(c core.Caller, file string, size int64) error {
	return directTransfer(c, file, size, m.chunk, false, nil)
}

func (m *cachelessModel) ReleaseAnon(int64)              {}
func (m *cachelessModel) InvalidateFile(string)          {}
func (m *cachelessModel) Snapshot() core.Stats           { return core.Stats{} }
func (m *cachelessModel) CachedByFile() map[string]int64 { return nil }
func (m *cachelessModel) Start(*des.Kernel, func(*des.Proc) core.Caller, func() bool) {
}
