package core

func newListOrderWriteback() WritebackPolicy { return &listOrderWriteback{} }

// listOrderWriteback is the paper's implicit writeback order, preserved
// bit-identically: the front dirty block of the replacement policy's lists,
// lists in scan order (for the default LRU: least recently used dirty block,
// inactive list before active list — §III.A.3). It keeps no structure of its
// own; the per-list, per-domain dirty segments the Manager maintains for
// every policy already are this order, so selection is an O(lists) front
// peek. On a per-device manager each domain gets its own instance, bound via
// BindDomain, selecting only from that domain's segments.
type listOrderWriteback struct {
	dom int
}

func (*listOrderWriteback) Name() string                       { return DefaultWritebackPolicyName }
func (*listOrderWriteback) NoteDirty(*Manager, *Block, *Block) {}
func (*listOrderWriteback) NoteClean(*Manager, *Block)         {}
func (*listOrderWriteback) NoteFlushed(*Manager, *Block)       {}
func (w *listOrderWriteback) BindDomain(dom int)               { w.dom = dom }

// NextDirty returns the domain's first dirty block in list scan order: the
// dirty segments' front blocks, lists first to last. O(lists).
func (w *listOrderWriteback) NextDirty(m *Manager) *Block {
	for _, l := range m.pol.Lists() {
		if b := l.FrontDirtyDomain(w.dom); b != nil {
			return b
		}
	}
	return nil
}

// NextExpired returns the domain's first expired dirty block in list scan
// order. The domain expiry queue's head answers the common "nothing expired"
// case in O(1); otherwise only the domain's dirty segments are walked.
func (w *listOrderWriteback) NextExpired(m *Manager, now float64) *Block {
	if m.ExpiredHeadDomain(w.dom, now) == nil {
		return nil
	}
	for _, l := range m.pol.Lists() {
		for b := l.FrontDirtyDomain(w.dom); b != nil; b = b.dnext {
			if now-b.Entry >= m.cfg.DirtyExpire {
				return b
			}
		}
	}
	return nil
}

// CheckInvariants: the order is the dirty segments', which the Manager
// already verifies block by block.
func (*listOrderWriteback) CheckInvariants(*Manager) error { return nil }
