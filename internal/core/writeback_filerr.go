package core

func newFileRRWriteback() WritebackPolicy { return &fileRRWriteback{q: newWBFileQueues()} }

// fileRRWriteback is per-inode round-robin writeback, the shape of Linux's
// flusher: the kernel queues dirty inodes on a bdi's b_io list and writes a
// slice of each before moving to the next, so one file with a huge dirty
// backlog cannot monopolize the disk. Here each file's dirty blocks form an
// Entry-ordered queue and a ring cycles over the files that have dirty
// data: every Flush step writes the front (oldest) dirty block of the
// cursor's file, then the cursor advances (NoteFlushed), interleaving files
// block by block. On a per-device manager the policy is instantiated once
// per writeback domain — one ring and cursor per bdi, exactly like the
// kernel's per-bdi b_io lists; a file only ever dirties blocks in its
// device's instance, so no cross-domain filtering is needed. Expiry
// flushing is domain-oldest-first — the kernel's periodic writeback also
// picks inodes by dirtied-when age.
type fileRRWriteback struct {
	q *wbFileQueues
}

func (p *fileRRWriteback) Name() string       { return "file-rr" }
func (p *fileRRWriteback) BindDomain(dom int) { p.q.dom = dom }

func (p *fileRRWriteback) NoteDirty(m *Manager, b, sibling *Block) { p.q.noteDirty(m, b, sibling) }
func (p *fileRRWriteback) NoteClean(m *Manager, b *Block)          { p.q.noteClean(m, b) }
func (p *fileRRWriteback) NoteFlushed(m *Manager, b *Block)        { p.q.advancePast(b.File) }

// NextDirty returns the oldest dirty block of the round-robin cursor's
// file. O(1).
func (p *fileRRWriteback) NextDirty(m *Manager) *Block {
	if fq := p.q.current(); fq != nil {
		return fq.head
	}
	return nil
}

// NextExpired returns the domain's oldest dirty block when expired. O(1).
func (p *fileRRWriteback) NextExpired(m *Manager, now float64) *Block {
	return m.ExpiredHeadDomain(p.q.dom, now)
}

func (p *fileRRWriteback) CheckInvariants(m *Manager) error { return p.q.checkInvariants(m) }

// SnapshotWriteback / RestoreWriteback capture and re-apply the ring order
// and round-robin cursor (StatefulWritebackPolicy): both depend on dirtying
// and flushing history the Manager's restore replay cannot reconstruct.
func (p *fileRRWriteback) SnapshotWriteback() *WritebackState        { return p.q.snapshotAux() }
func (p *fileRRWriteback) RestoreWriteback(st *WritebackState) error { return p.q.restoreAux(st) }
