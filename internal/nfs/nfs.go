// Package nfs models a network filesystem in the paper's Exp 3
// configuration: a server whose page cache serves reads (read cache) and is
// written through (no write cache on the client, writethrough on the
// server), connected to clients by a full-duplex link.
//
// Remote transfers are single fluid activities constrained simultaneously by
// the link direction and the server-side device (SimGrid models flows
// through multiple resources with max-min sharing; we do the same, so a
// server cache hit streams at min(link, server-memory) under contention).
package nfs

import (
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/fluid"
	"repro/internal/platform"
)

// Remote is one client host's view of an NFS server.
type Remote struct {
	sys  *fluid.System
	link *platform.Link
	disk *platform.Device
	mem  *platform.Device
	mgr  *core.Manager // server page cache; nil disables server caching

	// ServerWriteback selects a writeback server cache. The paper's HPC
	// configuration (and our default) is writethrough: "there was no client
	// write cache and the server cache was configured as writethrough".
	ServerWriteback bool
	srvIO           *core.IOController

	// Retry is the mount's failure-handling configuration (see retry.go).
	// The zero value is a Linux hard mount: operations stall until the
	// server recovers.
	Retry RetryConfig

	down      bool        // server currently unavailable
	epoch     uint64      // bumped on every ServerDown; detects lost replies
	recovered *des.Signal // broadcast by ServerUp to wake hard-mount waiters
	lostBytes int64       // dirty server-cache bytes destroyed by restarts
}

// New creates a Remote. mgr may be nil for an uncached server (used by the
// cacheless baseline). chunk is the server-side I/O granularity for the
// writeback variant.
func New(sys *fluid.System, link *platform.Link, disk, mem *platform.Device, mgr *core.Manager, chunk int64) (*Remote, error) {
	r := &Remote{sys: sys, link: link, disk: disk, mem: mem, mgr: mgr,
		recovered: des.NewSignal(sys.Kernel())}
	if mgr != nil {
		io, err := core.NewIOController(mgr, chunk)
		if err != nil {
			return nil, err
		}
		r.srvIO = io
	}
	return r, nil
}

// Manager returns the server-side page cache manager (nil if uncached).
func (r *Remote) Manager() *core.Manager { return r.mgr }

// transfer runs one fluid activity across the link direction and a device
// resource.
func (r *Remote) transfer(p *des.Proc, n int64, dir, dev *fluid.Resource) {
	if n <= 0 {
		return
	}
	if lat := r.link.Spec().LatencyS; lat > 0 {
		p.Sleep(lat)
	}
	r.sys.Do(p, float64(n), 0, fluid.Use{Res: dir, Coef: 1}, fluid.Use{Res: dev, Coef: 1})
}

// RawRead streams n bytes disk→client with no server cache involvement
// (cacheless baseline). It fails only under the non-hard retry policies
// while the server is down.
func (r *Remote) RawRead(p *des.Proc, n int64) error {
	if n <= 0 {
		return nil
	}
	return r.do(p, func() { r.transfer(p, n, r.link.Down(), r.disk.ReadRes()) })
}

// RawWrite streams n bytes client→disk with no server cache involvement.
func (r *Remote) RawWrite(p *des.Proc, n int64) error {
	if n <= 0 {
		return nil
	}
	return r.do(p, func() { r.transfer(p, n, r.link.Up(), r.disk.WriteRes()) })
}

// srvCaller adapts the server-side cache bookkeeping to core.Caller. Server
// memory traffic is co-constrained by the link (the bytes stream to/from the
// client); flush traffic is server-local.
type srvCaller struct {
	p *des.Proc
	r *Remote
}

func (c srvCaller) Now() float64 { return c.p.Now() }
func (c srvCaller) DiskRead(file string, n int64) {
	c.r.transfer(c.p, n, c.r.link.Down(), c.r.disk.ReadRes())
}
func (c srvCaller) DiskWrite(file string, n int64) {
	// Server-local writeback flush: does not traverse the link.
	c.r.disk.Write(c.p, n)
}
func (c srvCaller) MemRead(n int64) {
	c.r.transfer(c.p, n, c.r.link.Down(), c.r.mem.ReadRes())
}
func (c srvCaller) MemWrite(n int64) {
	c.r.transfer(c.p, n, c.r.link.Up(), c.r.mem.WriteRes())
}

// Read serves n bytes of file (whose current size is fileSize) to the
// client: server cache hits stream from server memory, misses from the
// server disk (and populate the server read cache). The client process p
// blocks for the whole exchange, RPC-style. While the server is down the
// mount's retry policy decides between stalling and ErrServerDown; a
// restart mid-exchange is replayed against the (now cold) server cache.
func (r *Remote) Read(p *des.Proc, file string, fileSize, n int64) error {
	if n <= 0 {
		return nil
	}
	if r.mgr == nil {
		return r.RawRead(p, n)
	}
	return r.do(p, func() { r.read(p, file, fileSize, n) })
}

func (r *Remote) read(p *des.Proc, file string, fileSize, n int64) {
	c := srvCaller{p: p, r: r}
	diskRead := fileSize - r.mgr.Cached(file)
	if diskRead > n {
		diskRead = n
	}
	if diskRead < 0 {
		diskRead = 0
	}
	cacheRead := n - diskRead
	if diskRead > 0 {
		r.mgr.NoteReadMiss(diskRead)
		if r.ServerWriteback {
			r.mgr.Flush(c, diskRead-r.mgr.Free()-r.mgr.Evictable(file))
		}
		r.mgr.Evict(diskRead-r.mgr.Free(), file)
		c.DiskRead(file, diskRead)
		add := fileSize - r.mgr.Cached(file)
		if add > diskRead {
			add = diskRead
		}
		// A deficit simply means the server streams without caching.
		_ = r.mgr.AddToCache(file, add, p.Now())
	}
	if cacheRead > 0 {
		r.mgr.CacheRead(c, file, cacheRead)
	}
}

// Write sends n bytes of file from the client to the server. With the
// default writethrough server cache the data lands on the server disk at
// disk speed and is then cached clean server-side; with a writeback server
// it is absorbed by the server page cache subject to dirty throttling
// (Algorithm 3 running on the server). Failure handling matches Read.
func (r *Remote) Write(p *des.Proc, file string, n int64) error {
	if n <= 0 {
		return nil
	}
	if r.mgr == nil {
		return r.RawWrite(p, n)
	}
	return r.do(p, func() { r.write(p, file, n) })
}

func (r *Remote) write(p *des.Proc, file string, n int64) {
	c := srvCaller{p: p, r: r}
	if r.ServerWriteback {
		if err := r.srvIO.WriteChunk(c, file, n); err != nil {
			// Server cache exhausted: degrade to writethrough semantics.
			r.transfer(p, n, r.link.Up(), r.disk.WriteRes())
		}
		return
	}
	r.transfer(p, n, r.link.Up(), r.disk.WriteRes())
	r.mgr.Evict(n-r.mgr.Free(), file)
	_ = r.mgr.AddToCache(file, n, p.Now())
}

// BackgroundTick is one wake-up of the server's flusher: the server
// cache's FlushPass over its single writeback domain — expired dirty data,
// plus, when a background dirty threshold is configured, the dirty data
// exceeding it — in the server's writeback-policy order. It is a no-op
// unless the server caches in writeback mode, and while the server is down.
// The flusher process (core.RunFlusher) is owned by whoever built the
// Remote.
func (r *Remote) BackgroundTick(p *des.Proc) {
	if r.mgr == nil || !r.ServerWriteback || r.down {
		return
	}
	r.mgr.FlushPass(srvCaller{p: p, r: r}, 0)
}
