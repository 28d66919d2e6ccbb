package core

func newProportionalWriteback() WritebackPolicy {
	return &proportionalWriteback{q: newWBFileQueues()}
}

// proportionalWriteback apportions flushed bytes across files in proportion
// to each file's share of the dirty data, the idea behind Linux's
// proportional per-bdi writeback (each device/file gets writeback bandwidth
// matching its share of the dirty pages). Implemented as largest-debtor
// first: every Flush step writes the oldest dirty block of the file that
// currently holds the most dirty bytes, so over a draining sequence each
// file's flushed volume tracks its dirty share — files with 2× the backlog
// get picked 2× as often — without maintaining explicit quotas. Ties break
// by ring (first-dirtied) order, keeping selection deterministic. Selection
// scans the active-file ring: O(files with dirty data) per flushed block.
// On a per-device manager each writeback domain gets its own instance —
// the proportional split then really is per-bdi, between the files of one
// device, while the Manager's per-domain thresholds split bandwidth between
// devices. Expiry flushing is domain-oldest-first, as in file-rr.
type proportionalWriteback struct {
	q *wbFileQueues
}

func (p *proportionalWriteback) Name() string       { return "proportional" }
func (p *proportionalWriteback) BindDomain(dom int) { p.q.dom = dom }

func (p *proportionalWriteback) NoteDirty(m *Manager, b, sibling *Block) {
	p.q.noteDirty(m, b, sibling)
}
func (p *proportionalWriteback) NoteClean(m *Manager, b *Block)   { p.q.noteClean(m, b) }
func (p *proportionalWriteback) NoteFlushed(m *Manager, b *Block) {}

// NextDirty returns the oldest dirty block of the file with the largest
// dirty backlog. Per-file dirty bytes come from the lists' incremental
// per-file counters, so the scan costs O(lists) per ring entry.
func (p *proportionalWriteback) NextDirty(m *Manager) *Block {
	var best *wbFileQueue
	var bestBytes int64
	for fq := p.q.ringHead; fq != nil; fq = fq.next {
		bytes := m.fileDirtyBytes(fq.file)
		if bytes > bestBytes {
			best, bestBytes = fq, bytes
		}
	}
	if best == nil {
		return nil
	}
	return best.head
}

// NextExpired returns the domain's oldest dirty block when expired. O(1).
func (p *proportionalWriteback) NextExpired(m *Manager, now float64) *Block {
	return m.ExpiredHeadDomain(p.q.dom, now)
}

func (p *proportionalWriteback) CheckInvariants(m *Manager) error { return p.q.checkInvariants(m) }

// SnapshotWriteback / RestoreWriteback capture and re-apply the ring order
// (StatefulWritebackPolicy): the ring breaks selection ties first-dirtied
// first, an order the Manager's restore replay cannot reconstruct.
func (p *proportionalWriteback) SnapshotWriteback() *WritebackState        { return p.q.snapshotAux() }
func (p *proportionalWriteback) RestoreWriteback(st *WritebackState) error { return p.q.restoreAux(st) }
