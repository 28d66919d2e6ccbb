package core

import "fmt"

// Block is the model's unit of cached data (§III.A.1): a contiguous set of
// file pages accessed in the same I/O operation. Blocks of one file can
// coexist, have different sizes, and can be split arbitrarily.
//
// Besides the main LRU links, every block carries two sets of secondary
// intrusive links maintained by its owning List — the dirty sublist
// (dprev/dnext, threading the list's dirty blocks in list order) and the
// per-file chain (fprev/fnext, threading the list's blocks of one file in
// list order) — plus the Manager-level expiry-queue links (eprev/enext,
// threading all dirty blocks of both lists in Entry order) and the
// writeback-policy links (wprev/wnext, threading a file's dirty blocks in
// Entry order for the file-queue writeback policies). They exist so the
// Manager's scans touch only the blocks they are actually about instead of
// walking the whole cache.
type Block struct {
	File       string
	Size       int64
	Entry      float64 // creation time (governs expiry)
	LastAccess float64 // governs LRU ordering
	Dirty      bool

	// dom is the writeback domain (backing device) the block's file maps
	// to; 0 — the default domain — unless the Manager has per-device
	// writeback domains configured. Every block of one file carries the
	// same dom, so splits and coalescing never cross domains.
	dom int

	// Policy metadata, maintained by the owning Manager's Policy and ignored
	// by the others (zero for the default LRU): CLOCK's reference bit and
	// the segmented-LFU frequency counter with its lazy-decay epoch.
	ref       bool
	freq      int32
	freqEpoch int32

	prev, next   *Block // main LRU list
	dprev, dnext *Block // dirty sublist of the owning list (nil unless Dirty)
	fprev, fnext *Block // per-file chain of the owning list
	eprev, enext *Block // Manager expiry queue (nil unless Dirty)
	wprev, wnext *Block // writeback policy's per-file dirty queue (nil unless
	// Dirty and the manager runs a file-queue writeback policy)
	owner *List
}

// InList reports which list currently holds the block (nil if none).
func (b *Block) InList() *List { return b.owner }

// split carves n bytes off the front of b into a new block with identical
// metadata, shrinking b by n. The new block is not in any list. It panics if
// n is not strictly inside (0, b.Size): callers must handle whole-block
// cases themselves.
func (b *Block) split(n int64) *Block {
	if n <= 0 || n >= b.Size {
		panic(fmt.Sprintf("core: invalid split of %d-byte block at %d", b.Size, n))
	}
	nb := &Block{
		File:       b.File,
		Size:       n,
		Entry:      b.Entry,
		LastAccess: b.LastAccess,
		Dirty:      b.Dirty,
		dom:        b.dom,
		ref:        b.ref,
		freq:       b.freq,
		freqEpoch:  b.freqEpoch,
	}
	b.Size -= n
	return nb
}

// blockPool is a Manager's free lists, shared by all of its policy's lists
// and writeback domains: the blocks that left its cache for good, the file
// chains those lists emptied and the per-file writeback queues whose file
// went clean. Every site that creates a block, chain or queue takes from it
// first, so a warmed-up Manager creates them without allocating.
type blockPool struct {
	blocks freeList[Block]
	chains freeList[fileChain]
	queues freeList[wbFileQueue]
}

// newBlock returns a block holding v, recycled when one is free.
func (bp *blockPool) newBlock(v Block) *Block {
	b := bp.blocks.get()
	*b = v
	return b
}

// freeList is a stack of cleared records kept for reuse.
type freeList[T comparable] []*T

// get returns a cleared record, recycled when one is free.
func (f *freeList[T]) get() *T {
	s := *f
	if len(s) == 0 {
		return new(T)
	}
	x := s[len(s)-1]
	s[len(s)-1] = nil
	*f = s[:len(s)-1]
	return x
}

// put clears x, so no stale link or owner survives, and keeps it for reuse.
// Nothing may reach x any more: no list, chain, expiry or writeback queue.
func (f *freeList[T]) put(x *T) {
	var zero T
	*x = zero
	*f = append(*f, x)
}

// check verifies every record on the list is cleared and listed once, and
// returns the listed records as a set.
func (f freeList[T]) check(what string) (map[*T]bool, error) {
	set := make(map[*T]bool, len(f))
	var zero T
	for _, x := range f {
		if set[x] {
			return nil, fmt.Errorf("%s %p on the free list twice", what, x)
		}
		set[x] = true
		if *x != zero {
			return nil, fmt.Errorf("free %s %p not cleared: %v", what, x, *x)
		}
	}
	return set, nil
}

func (b *Block) String() string {
	d := "clean"
	if b.Dirty {
		d = "dirty"
	}
	return fmt.Sprintf("{%s %dB %s entry=%.2f access=%.2f}", b.File, b.Size, d, b.Entry, b.LastAccess)
}
