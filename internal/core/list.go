package core

// List is an intrusive doubly-linked list of blocks ordered by LastAccess,
// earliest first — the representation of the page-cache LRU lists in Fig 2.
//
// Besides the main links the list maintains two secondary index structures,
// kept consistent by every mutating operation:
//
//   - per-domain dirty sublists (dsegs through Block.dprev/dnext): the
//     list's dirty blocks of each writeback domain threaded in list order,
//     making "least recently used dirty block of a domain" an O(1) front
//     peek and dirty-only walks proportional to the number of dirty blocks.
//     Managers without per-device writeback domains keep every block in
//     domain 0, where the segment is exactly the classic whole-list dirty
//     sublist;
//   - per-file chains (files map through Block.fprev/fnext): each file's
//     blocks threaded in list order with per-file byte/dirty totals, making
//     single-file scans (cached reads, invalidation, eviction exclusion
//     accounting) proportional to that file's block count.
//
// Byte totals (overall, dirty — aggregate and per domain — and per file)
// are maintained incrementally.
type List struct {
	name  string
	head  *Block
	tail  *Block
	count int
	bytes int64
	dirty int64

	dsegs []dirtySeg
	files map[string]*fileChain
	// pool is the owning Manager's free lists (a private one for a
	// standalone list): blocks absorbed by coalescing and emptied file
	// chains go back to it.
	pool *blockPool
}

// dirtySeg is one writeback domain's dirty sublist within the list: chain
// endpoints (in list order) and the domain's dirty byte total.
type dirtySeg struct {
	head, tail *Block
	bytes      int64
}

// fileChain indexes one file's blocks within a list: the chain endpoints (in
// list order) and incremental byte totals.
type fileChain struct {
	head, tail *Block
	bytes      int64
	dirty      int64
}

// NewList returns an empty list with a diagnostic name ("inactive"/"active").
func NewList(name string) *List {
	return &List{name: name, files: make(map[string]*fileChain), pool: new(blockPool)}
}

// Name returns the list's diagnostic name.
func (l *List) Name() string { return l.name }

// Len returns the number of blocks.
func (l *List) Len() int { return l.count }

// Bytes returns the total block bytes in the list.
func (l *List) Bytes() int64 { return l.bytes }

// DirtyBytes returns the total dirty bytes in the list.
func (l *List) DirtyBytes() int64 { return l.dirty }

// Front returns the least recently used block (nil when empty).
func (l *List) Front() *Block { return l.head }

// Back returns the most recently used block (nil when empty).
func (l *List) Back() *Block { return l.tail }

// FrontDirtyDomain returns the least recently used dirty block of one
// writeback domain (nil when none).
func (l *List) FrontDirtyDomain(dom int) *Block {
	if dom < len(l.dsegs) {
		return l.dsegs[dom].head
	}
	return nil
}

// DomainDirtyBytes returns the dirty bytes of one writeback domain held by
// the list.
func (l *List) DomainDirtyBytes(dom int) int64 {
	if dom < len(l.dsegs) {
		return l.dsegs[dom].bytes
	}
	return 0
}

// seg returns the (grown-on-demand) dirty segment for a domain.
func (l *List) seg(dom int) *dirtySeg {
	for dom >= len(l.dsegs) {
		l.dsegs = append(l.dsegs, dirtySeg{})
	}
	return &l.dsegs[dom]
}

// FileBytes returns the bytes of file held by the list.
func (l *List) FileBytes(file string) int64 {
	if fc := l.files[file]; fc != nil {
		return fc.bytes
	}
	return 0
}

// FileDirtyBytes returns the dirty bytes of file held by the list.
func (l *List) FileDirtyBytes(file string) int64 {
	if fc := l.files[file]; fc != nil {
		return fc.dirty
	}
	return 0
}

// FileCleanBytes returns the clean bytes of file held by the list.
func (l *List) FileCleanBytes(file string) int64 {
	if fc := l.files[file]; fc != nil {
		return fc.bytes - fc.dirty
	}
	return 0
}

// fileFront returns the least recently used block of file (nil when none).
func (l *List) fileFront(file string) *Block {
	if fc := l.files[file]; fc != nil {
		return fc.head
	}
	return nil
}

// coalescible reports whether b can be absorbed into a main-list-adjacent
// block a: same file, both clean, and indistinguishable metadata — including
// the policy metadata (reference bit, frequency), so no policy ever merges
// blocks it would treat differently. Merging such blocks is
// semantics-preserving (every Manager operation treats them byte-wise) and
// bounds block-count growth under repeated partial flushes, evictions and
// demotion splits of fragmented workloads.
func coalescible(a, b *Block) bool {
	return a.File == b.File && !a.Dirty && !b.Dirty &&
		a.Entry == b.Entry && a.LastAccess == b.LastAccess &&
		a.ref == b.ref && a.freq == b.freq && a.freqEpoch == b.freqEpoch
}

// PushBack appends b as the most recently used block. b must not belong to
// any list, and its LastAccess must be ≥ the current tail's (the caller
// guarantees this because simulated time is monotonic). If b is
// indistinguishable from the current tail (same file, both clean, equal
// times) it is coalesced into the tail instead of being linked, and b goes
// back to the Manager's free list: the caller must not use it afterwards.
func (l *List) PushBack(b *Block) {
	if b.owner != nil {
		panic("core: block already in a list")
	}
	if t := l.tail; t != nil && coalescible(t, b) {
		l.resize(t, t.Size+b.Size)
		l.pool.blocks.put(b)
		return
	}
	b.owner = l
	b.prev = l.tail
	b.next = nil
	if l.tail != nil {
		l.tail.next = b
	} else {
		l.head = b
	}
	l.tail = b
	if b.Dirty {
		l.dirtyLinkAfter(b, l.seg(b.dom).tail)
	}
	fc := l.chain(b.File)
	l.fileLinkAfter(fc, b, fc.tail)
	l.account(b, +1)
}

// restoreAppend links b at the tail without the coalescing PushBack applies
// — the snapshot-restore path (Manager.RestoreState), which must reproduce
// the captured block layout exactly, split fragments and all. The caller
// appends blocks in captured list order, so all secondary indexes stay
// ordered. No access-time monotonicity is assumed: restored timestamps may
// be negative after a rebase.
func (l *List) restoreAppend(b *Block) {
	if b.owner != nil {
		panic("core: block already in a list")
	}
	b.owner = l
	b.prev = l.tail
	b.next = nil
	if l.tail != nil {
		l.tail.next = b
	} else {
		l.head = b
	}
	l.tail = b
	if b.Dirty {
		l.dirtyLinkAfter(b, l.seg(b.dom).tail)
	}
	fc := l.chain(b.File)
	l.fileLinkAfter(fc, b, fc.tail)
	l.account(b, +1)
}

// InsertSorted places b at its LastAccess-sorted position: after every block
// whose access time is ≤ b's (used when demoting blocks from the active
// list, whose access times may interleave with the inactive list's). The
// in-order case — b at least as recent as the tail, the common demotion
// pattern — is an O(1) append; otherwise the position is found by searching
// from both ends at once, O(min(distance from head, distance from tail)),
// never worse than the pre-index tail scan. Adjacent indistinguishable
// clean blocks coalesce as in PushBack.
func (l *List) InsertSorted(b *Block) {
	if b.owner != nil {
		panic("core: block already in a list")
	}
	if l.tail == nil || l.tail.LastAccess <= b.LastAccess {
		l.PushBack(b)
		return
	}
	// b goes right after p, the last block with access ≤ b's (nil: at head);
	// p != tail here, so pos (b's successor) exists.
	p := l.accessPredecessor(b.LastAccess)
	if p != nil && coalescible(p, b) {
		l.resize(p, p.Size+b.Size)
		l.pool.blocks.put(b)
		return
	}
	pos := l.head
	if p != nil {
		pos = p.next
	}
	b.owner = l
	b.next = pos
	b.prev = p
	if p != nil {
		p.next = b
	} else {
		l.head = b
	}
	pos.prev = b
	if b.Dirty {
		// The dirty sublists are in list order, so the same access-time
		// boundary search finds the same position the main list got.
		l.dirtyLinkAfter(b, l.dirtyPredecessor(b.dom, b.LastAccess))
	}
	fc := l.chain(b.File)
	l.fileLinkAfter(fc, b, filePredecessor(fc, b.LastAccess))
	l.account(b, +1)
}

// accessPredecessor returns the last block with LastAccess ≤ access (nil if
// none). Both ends are scanned simultaneously, so the cost is proportional
// to the boundary's distance from the nearer end.
func (l *List) accessPredecessor(access float64) *Block {
	f, t := l.head, l.tail
	for {
		if t == nil || t.LastAccess <= access {
			return t
		}
		if f.LastAccess > access {
			return f.prev
		}
		t = t.prev
		f = f.next
	}
}

// dirtyPredecessor is accessPredecessor over one domain's dirty sublist.
func (l *List) dirtyPredecessor(dom int, access float64) *Block {
	s := l.seg(dom)
	f, t := s.head, s.tail
	for {
		if t == nil || t.LastAccess <= access {
			return t
		}
		if f.LastAccess > access {
			return f.dprev
		}
		t = t.dprev
		f = f.dnext
	}
}

// filePredecessor is accessPredecessor over a file chain.
func filePredecessor(fc *fileChain, access float64) *Block {
	f, t := fc.head, fc.tail
	for {
		if t == nil || t.LastAccess <= access {
			return t
		}
		if f.LastAccess > access {
			return f.fprev
		}
		t = t.fprev
		f = f.fnext
	}
}

// insertBefore links clean block nb immediately before its same-file split
// sibling pos (partial-flush splits: identical access time and file). nb
// coalesces into pos's predecessor when indistinguishable. Dirty blocks are
// rejected: their expiry-queue membership is managed by the Manager, which
// this list cannot reach.
func (l *List) insertBefore(nb, pos *Block) {
	if pos.owner != l {
		panic("core: insertBefore position not in list")
	}
	if nb.owner != nil {
		panic("core: block already in a list")
	}
	if nb.Dirty || nb.File != pos.File {
		panic("core: insertBefore supports only clean same-file split blocks")
	}
	if p := pos.prev; p != nil && coalescible(p, nb) {
		l.resize(p, p.Size+nb.Size)
		l.pool.blocks.put(nb)
		return
	}
	nb.owner = l
	nb.next = pos
	nb.prev = pos.prev
	if pos.prev != nil {
		pos.prev.next = nb
	} else {
		l.head = nb
	}
	pos.prev = nb
	l.fileLinkAfter(l.chain(nb.File), nb, pos.fprev)
	l.account(nb, +1)
}

// Remove unlinks b from the list (main links, dirty sublist, file chain).
func (l *List) Remove(b *Block) {
	if b.owner != l {
		panic("core: removing block from wrong list")
	}
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		l.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		l.tail = b.prev
	}
	b.prev, b.next, b.owner = nil, nil, nil
	if b.Dirty {
		l.dirtyUnlink(b)
	}
	l.fileUnlink(b)
	l.account(b, -1)
}

// chain returns the (created-on-demand) file chain for file.
func (l *List) chain(file string) *fileChain {
	fc := l.files[file]
	if fc == nil {
		fc = l.pool.chains.get()
		l.files[file] = fc
	}
	return fc
}

// dirtyLinkAfter inserts b into its domain's dirty sublist after dp (nil:
// at front). dp, when non-nil, must belong to b's domain.
func (l *List) dirtyLinkAfter(b, dp *Block) {
	s := l.seg(b.dom)
	b.dprev = dp
	if dp != nil {
		b.dnext = dp.dnext
		dp.dnext = b
	} else {
		b.dnext = s.head
		s.head = b
	}
	if b.dnext != nil {
		b.dnext.dprev = b
	} else {
		s.tail = b
	}
}

func (l *List) dirtyUnlink(b *Block) {
	s := l.seg(b.dom)
	if b.dprev != nil {
		b.dprev.dnext = b.dnext
	} else {
		s.head = b.dnext
	}
	if b.dnext != nil {
		b.dnext.dprev = b.dprev
	} else {
		s.tail = b.dprev
	}
	b.dprev, b.dnext = nil, nil
}

// fileLinkAfter inserts b into fc after fp (nil: at front).
func (l *List) fileLinkAfter(fc *fileChain, b, fp *Block) {
	b.fprev = fp
	if fp != nil {
		b.fnext = fp.fnext
		fp.fnext = b
	} else {
		b.fnext = fc.head
		fc.head = b
	}
	if b.fnext != nil {
		b.fnext.fprev = b
	} else {
		fc.tail = b
	}
}

func (l *List) fileUnlink(b *Block) {
	fc := l.files[b.File]
	if b.fprev != nil {
		b.fprev.fnext = b.fnext
	} else {
		fc.head = b.fnext
	}
	if b.fnext != nil {
		b.fnext.fprev = b.fprev
	} else {
		fc.tail = b.fprev
	}
	b.fprev, b.fnext = nil, nil
}

func (l *List) account(b *Block, sign int64) {
	l.count += int(sign)
	l.bytes += sign * b.Size
	fc := l.files[b.File]
	fc.bytes += sign * b.Size
	if b.Dirty {
		l.dirty += sign * b.Size
		l.seg(b.dom).bytes += sign * b.Size
		fc.dirty += sign * b.Size
	}
	if fc.head == nil && fc.bytes == 0 {
		delete(l.files, b.File)
		l.pool.chains.put(fc)
	}
}

// markClean clears b's dirty flag, keeping byte accounting and the dirty
// sublist consistent. It is the only sanctioned way to clean a block that
// sits in a list. The Manager additionally removes the block from its
// expiry queue.
func (l *List) markClean(b *Block) {
	if b.owner != l {
		panic("core: markClean on block from wrong list")
	}
	if b.Dirty {
		l.dirtyUnlink(b)
		b.Dirty = false
		l.dirty -= b.Size
		l.seg(b.dom).bytes -= b.Size
		l.files[b.File].dirty -= b.Size
	}
}

// resize changes b's size in place (used by in-list partial flush splits and
// block coalescing).
func (l *List) resize(b *Block, newSize int64) {
	if b.owner != l {
		panic("core: resize on block from wrong list")
	}
	delta := newSize - b.Size
	l.bytes += delta
	l.files[b.File].bytes += delta
	if b.Dirty {
		l.dirty += delta
		l.seg(b.dom).bytes += delta
		l.files[b.File].dirty += delta
	}
	b.Size = newSize
}

// Each calls fn on every block from LRU to MRU; fn returning false stops the
// walk. fn must not mutate the list.
func (l *List) Each(fn func(*Block) bool) {
	for b := l.head; b != nil; b = b.next {
		if !fn(b) {
			return
		}
	}
}

// Blocks returns a snapshot slice, LRU to MRU (tests and tracing).
func (l *List) Blocks() []*Block {
	out := make([]*Block, 0, l.count)
	for b := l.head; b != nil; b = b.next {
		out = append(out, b)
	}
	return out
}
