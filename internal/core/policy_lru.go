package core

func newLRUPolicy() Policy {
	p := &lruPolicy{inactive: NewList("inactive"), active: NewList("active")}
	p.lists = []*List{p.inactive, p.active}
	return p
}

// lruPolicy is the paper's Memory Manager structure (§III.A): two LRU lists
// sorted by access time. Fresh blocks enter the inactive list; cache hits
// move blocks to the active list (merging clean ones, Fig 3); the active
// list is kept at most twice the inactive list's size by demoting its least
// recently used blocks back to their sorted inactive positions; eviction
// takes clean inactive blocks LRU-first and escalates to the active list
// only when exclusions pin the inactive list.
type lruPolicy struct {
	inactive, active *List
	lists            []*List
}

func (p *lruPolicy) Name() string            { return DefaultPolicyName }
func (p *lruPolicy) Lists() []*List          { return p.lists }
func (p *lruPolicy) EvictableLists() []*List { return p.lists[:1] }

// Insert places fresh blocks at the tail of the inactive list (first access,
// §III.A.1; written data is assumed uncached, §III.A.2).
func (p *lruPolicy) Insert(m *Manager, b *Block) { p.inactive.PushBack(b) }

// ReadHit consumes `amount` cached bytes of file in round-robin order —
// inactive list before active list, LRU first (Fig 3). Clean blocks merge
// into a single block appended to the active list; dirty blocks move
// individually, preserving their entry times. Partially read blocks are
// split. The scans follow the per-file chains, so the cost is proportional
// to the file's own block count, not the cache size.
func (p *lruPolicy) ReadHit(m *Manager, file string, amount int64, now float64) {
	remaining := amount
	var mergedSize int64
	mergedEntry := now
	mergedDom := 0

	consume := func(l *List) {
		b := l.fileFront(file)
		for b != nil && remaining > 0 {
			next := b.fnext
			take := b.Size
			if take > remaining {
				take = remaining
			}
			if b.Dirty {
				moved := b
				if take == b.Size {
					l.Remove(b)
				} else {
					// Split: the LRU-side prefix is the portion read now.
					l.resize(b, b.Size-take)
					moved = m.pool.newBlock(Block{File: file, Size: take, Entry: b.Entry, Dirty: true, dom: b.dom})
				}
				moved.LastAccess = now
				p.active.PushBack(moved)
				if moved != b {
					// New dirty block split off a queued one: same Entry,
					// so it slots in right next to the original.
					m.noteDirtySplit(moved, b)
				}
			} else {
				// The bytes read join the merged block; a wholly read
				// block leaves the cache, a partly read one keeps the rest.
				mergedSize += take
				if b.Entry < mergedEntry {
					mergedEntry = b.Entry
				}
				mergedDom = b.dom // one file, one domain
				if take == b.Size {
					l.Remove(b)
					m.pool.blocks.put(b)
				} else {
					l.resize(b, b.Size-take)
				}
			}
			remaining -= take
			b = next
		}
	}
	consume(p.inactive)
	consume(p.active)

	if mergedSize > 0 {
		p.active.PushBack(m.pool.newBlock(Block{File: file, Size: mergedSize, Entry: mergedEntry, LastAccess: now, dom: mergedDom}))
	}
}

// EvictClean deletes least recently used clean blocks from the inactive list
// (§III.A.3). When the inactive list cannot satisfy the request (possible
// only when exclusions or the EvictExcludesOpenWrites extension pin inactive
// blocks), eviction escalates to clean blocks of the active list, mirroring
// the kernel's active-list shrinking under pressure. With the paper's
// default configuration the escalation never triggers.
func (p *lruPolicy) EvictClean(m *Manager, amount int64, exclude string) int64 {
	return scanEvict(m, p.lists, amount, exclude)
}

// Rebalance keeps the active list at most twice the size of the inactive
// list (§III.A.1) by demoting least recently used active blocks into the
// inactive list at their sorted positions. Demotion is byte-exact: the last
// demoted block is split so the 2:1 ratio is met without overshoot (the real
// kernel moves individual pages, so its granularity is effectively exact at
// our block sizes).
func (p *lruPolicy) Rebalance(m *Manager) {
	for p.active.Bytes() > 2*p.inactive.Bytes() {
		b := p.active.Front()
		if b == nil {
			return
		}
		// Demoting x bytes reaches balance when active−x ≤ 2(inactive+x).
		excess := (p.active.Bytes() - 2*p.inactive.Bytes() + 2) / 3
		if b.Size <= excess {
			p.active.Remove(b)
			p.inactive.InsertSorted(b)
			continue
		}
		p.active.resize(b, b.Size-excess)
		nb := m.pool.newBlock(Block{File: b.File, Size: excess, Entry: b.Entry, LastAccess: b.LastAccess, Dirty: b.Dirty, dom: b.dom})
		p.inactive.InsertSorted(nb) // may absorb and free nb, but only if clean
		if b.Dirty {
			// Split of a queued dirty block: same Entry, slots in next to b.
			m.noteDirtySplit(nb, b)
		}
	}
}

// CheckInvariants verifies both lists are sorted by access time.
func (p *lruPolicy) CheckInvariants(*Manager) error {
	for _, l := range p.lists {
		if err := checkListSorted(l); err != nil {
			return err
		}
	}
	return nil
}
