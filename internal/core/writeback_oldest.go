package core

func newOldestFirstWriteback() WritebackPolicy { return &oldestFirstWriteback{} }

// oldestFirstWriteback flushes the domain's oldest dirty data first,
// regardless of which list (or which file) holds it — pure age order, the
// writeback analogue of FIFO. It keeps no structure of its own: the
// per-domain expiry queue already threads the domain's dirty blocks in Entry
// order (split halves adjacent), so both selection queries are O(1) head
// peeks. Under this policy FlushDomain and FlushExpiredDomain drain the
// same queue; the only difference is the age cutoff. Each domain gets its
// own instance, bound via BindDomain.
type oldestFirstWriteback struct {
	dom int
}

func (*oldestFirstWriteback) Name() string                       { return "oldest-first" }
func (*oldestFirstWriteback) NoteDirty(*Manager, *Block, *Block) {}
func (*oldestFirstWriteback) NoteClean(*Manager, *Block)         {}
func (*oldestFirstWriteback) NoteFlushed(*Manager, *Block)       {}
func (w *oldestFirstWriteback) BindDomain(dom int)               { w.dom = dom }

// NextDirty returns the domain expiry-queue head: the domain's dirty block
// with the earliest Entry time. O(1).
func (w *oldestFirstWriteback) NextDirty(m *Manager) *Block {
	return m.domains[w.dom].eqHead
}

// NextExpired returns the head when it is old enough — the queue is
// Entry-sorted, so no younger block can be expired if the head is not. O(1).
func (w *oldestFirstWriteback) NextExpired(m *Manager, now float64) *Block {
	return m.ExpiredHeadDomain(w.dom, now)
}

// CheckInvariants: the order is the expiry queue's, which the Manager
// already verifies block by block.
func (*oldestFirstWriteback) CheckInvariants(*Manager) error { return nil }
