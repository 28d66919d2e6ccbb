package core

import (
	"errors"
	"fmt"
)

// ErrOutOfMemory is returned when a read or write cannot make progress
// because RAM is exhausted by anonymous and unreclaimable data (the paper
// assumes files fit in memory; violating that assumption surfaces here
// rather than corrupting accounting).
var ErrOutOfMemory = errors.New("core: out of memory (anonymous + unreclaimable cache exceed RAM)")

// IOController orchestrates chunked file reads and writes against a
// MemoryManager (§III.B). One controller serves all simulated processes of
// a host.
type IOController struct {
	m     *Manager
	chunk int64
}

// NewIOController returns a controller with the given chunk size (the
// user-defined chunk size of §III.A.2; the paper's experiments use 100 MB).
func NewIOController(m *Manager, chunkSize int64) (*IOController, error) {
	if chunkSize <= 0 {
		return nil, fmt.Errorf("core: chunk size must be positive")
	}
	return &IOController{m: m, chunk: chunkSize}, nil
}

// Manager returns the underlying memory manager.
func (io *IOController) Manager() *Manager { return io.m }

// ChunkSize returns the configured chunk size.
func (io *IOController) ChunkSize() int64 { return io.chunk }

// ReadFile reads `size` bytes of file chunk by chunk (round-robin page
// access, §III.A.2), charging `size` bytes of anonymous memory for the
// application's copy. Callers release that memory with
// Manager.ReleaseAnon when the task completes.
func (io *IOController) ReadFile(c Caller, file string, size int64) error {
	return io.Read(c, file, size, size)
}

// Read reads n bytes of a fileSize-byte file (partial reads model workflow
// steps that consume a subset of their predecessor's output, as in the
// Nighres application).
func (io *IOController) Read(c Caller, file string, n, fileSize int64) error {
	for off := int64(0); off < n; off += io.chunk {
		cs := io.chunk
		if n-off < cs {
			cs = n - off
		}
		if err := io.ReadChunk(c, file, cs, fileSize); err != nil {
			return fmt.Errorf("read %s at %d: %w", file, off, err)
		}
	}
	return nil
}

// ReadChunk implements Algorithm 2: read one chunk of `fileSize`-byte file.
// Uncached data is read first (from disk, then added to the cache); cached
// data is read from memory. The chunk is also charged to anonymous memory.
func (io *IOController) ReadChunk(c Caller, file string, chunkSize, fileSize int64) error {
	m := io.m
	uncached := fileSize - m.Cached(file)
	if uncached < 0 {
		uncached = 0
	}
	diskRead := uncached // line 7
	if diskRead > chunkSize {
		diskRead = chunkSize
	}
	cacheRead := chunkSize - diskRead // line 8
	required := chunkSize + diskRead  // line 9: app copy + cache copy

	// Lines 10-11. Evictable is an O(1) counter lookup and Flush peeks the
	// dirty sublists, so this per-chunk headroom check no longer walks the
	// cache — it used to dominate chunked reads of large caches.
	m.Flush(c, required-m.Free()-m.Evictable(file))
	m.Evict(required-m.Free(), file)

	if diskRead > 0 { // lines 12-15
		m.NoteReadMiss(diskRead)
		c.DiskRead(file, diskRead)
		// Concurrent readers of the same file may have cached part of this
		// range while we were blocked on the disk; never over-cache.
		add := fileSize - m.Cached(file)
		if add > diskRead {
			add = diskRead
		}
		if add > 0 {
			if deficit := m.AddToCache(file, add, c.Now()); deficit > 0 {
				return ErrOutOfMemory
			}
		}
	}
	if cacheRead > 0 { // lines 16-18
		m.CacheRead(c, file, cacheRead)
	}
	if deficit := m.UseAnon(chunkSize); deficit > 0 { // line 19
		return ErrOutOfMemory
	}
	return nil
}

// WriteFile writes `size` bytes of file chunk by chunk in writeback mode
// (Algorithm 3). The file is registered as open-for-write for the optional
// eviction-protection heuristic.
func (io *IOController) WriteFile(c Caller, file string, size int64) error {
	io.m.OpenWrite(file)
	defer io.m.CloseWrite(file)
	for off := int64(0); off < size; off += io.chunk {
		cs := io.chunk
		if size-off < cs {
			cs = size - off
		}
		if err := io.WriteChunk(c, file, cs); err != nil {
			return fmt.Errorf("write %s at %d: %w", file, off, err)
		}
	}
	return nil
}

// WriteChunk implements Algorithm 3: write one chunk in writeback mode.
// While the dirty threshold is not reached, data goes to the cache at
// memory speed; past it, the writer is throttled by synchronous flushes.
func (io *IOController) WriteChunk(c Caller, file string, chunkSize int64) error {
	m := io.m
	var memAmt int64
	remainDirty := m.DirtyThreshold() - m.Dirty() // line 5
	// The writer is also limited by its own writeback domain's threshold
	// (the global pair stays the backstop, as in Linux), so under
	// per-device writeback a slow device's backlog cannot consume a fast
	// device's headroom — and vice versa. On one domain the two coincide.
	dom := m.domainOf(file)
	if gap := m.DomainDirtyThreshold(dom) - m.DomainDirty(dom); gap < remainDirty {
		remainDirty = gap
	}
	if remainDirty > 0 { // lines 6-10
		want := chunkSize
		if remainDirty < want {
			want = remainDirty
		}
		m.Evict(want-m.Free(), "")
		memAmt = m.Free()
		if chunkSize < memAmt {
			memAmt = chunkSize
		}
		if memAmt > 0 {
			if deficit := m.WriteToCache(c, file, memAmt); deficit > 0 {
				return ErrOutOfMemory
			}
		} else {
			memAmt = 0
		}
	}
	remaining := chunkSize - memAmt // line 11
	for remaining > 0 {             // lines 12-18
		throttleStart := c.Now()
		// balance_dirty_pages writes back the writer's own bdi first; the
		// cross-domain pass is the backstop when the writer's domain holds
		// nothing dirty.
		flushed := m.FlushDomain(c, dom, chunkSize-memAmt)
		if flushed == 0 {
			flushed = m.Flush(c, chunkSize-memAmt)
		}
		evicted := m.Evict(chunkSize-memAmt-m.Free(), "")
		// The writer is over the dirty threshold and just waited for
		// synchronous writeback — the balance_dirty_pages stall the
		// writeback ablation measures. Metered around the flush/evict wait
		// only (the remainder's memory copy happens under the threshold
		// too, uncounted), accumulated per iteration so stalls cut short by
		// ErrOutOfMemory still register.
		m.addThrottled(dom, c.Now()-throttleStart)
		toCache := m.Free()
		if remaining < toCache {
			toCache = remaining
		}
		if toCache > 0 {
			if deficit := m.WriteToCache(c, file, toCache); deficit > 0 {
				return ErrOutOfMemory
			}
			remaining -= toCache
		} else if flushed == 0 && evicted == 0 {
			return ErrOutOfMemory // no possible progress
		}
	}
	return nil
}

// WriteFileThrough writes the file in writethrough mode (§III.B last
// paragraph): each chunk is written to the backing store at disk speed,
// then the cache is evicted as needed and the written data is added as
// clean blocks.
func (io *IOController) WriteFileThrough(c Caller, file string, size int64) error {
	for off := int64(0); off < size; off += io.chunk {
		cs := io.chunk
		if size-off < cs {
			cs = size - off
		}
		if err := io.WriteChunkThrough(c, file, cs); err != nil {
			return fmt.Errorf("writethrough %s at %d: %w", file, off, err)
		}
	}
	return nil
}

// WriteChunkThrough writes one chunk in writethrough mode.
func (io *IOController) WriteChunkThrough(c Caller, file string, chunkSize int64) error {
	m := io.m
	c.DiskWrite(file, chunkSize)
	m.Evict(chunkSize-m.Free(), file)
	if deficit := m.AddToCache(file, chunkSize, c.Now()); deficit > 0 {
		return ErrOutOfMemory
	}
	return nil
}
