package core

import "fmt"

func newClockPolicy() Policy {
	p := &clockPolicy{list: NewList("clock")}
	p.lists = []*List{p.list}
	return p
}

// clockPolicy is kernel-style CLOCK / second chance: one queue with a
// referenced bit per block. Cache hits set the bit in place (an O(touched)
// flag write — no list movement, the property that made CLOCK the practical
// LRU approximation in real kernels). The eviction hand sweeps from the
// front: a referenced block spends its bit and rotates to the back; an
// unreferenced clean block is the victim.
type clockPolicy struct {
	list  *List
	lists []*List
}

func (p *clockPolicy) Name() string            { return "clock" }
func (p *clockPolicy) Lists() []*List          { return p.lists }
func (p *clockPolicy) EvictableLists() []*List { return p.lists }

// Insert appends at the back with the reference bit clear, directly behind
// the hand's sweep — one full rotation before first eviction pressure.
func (p *clockPolicy) Insert(m *Manager, b *Block) { p.list.PushBack(b) }

// ReadHit sets the reference bit on the file's blocks, front first, until
// amount bytes are covered. Blocks are flagged whole (no splits): the bit
// protects the block for one rotation either way.
func (p *clockPolicy) ReadHit(m *Manager, file string, amount int64, now float64) {
	remaining := amount
	for b := p.list.fileFront(file); b != nil && remaining > 0; b = b.fnext {
		b.ref = true
		remaining -= b.Size
	}
}

// EvictClean is the hand sweep. Dirty, excluded and write-protected blocks
// are passed over in place; referenced clean blocks rotate to the back with
// their bit cleared; unreferenced clean blocks are evicted (or split,
// front-side first). Each block is visited at most twice — once spending its
// reference bit, once as a victim — so the sweep is bounded even though it
// mutates the queue it walks.
func (p *clockPolicy) EvictClean(m *Manager, amount int64, exclude string) int64 {
	l := p.list
	var evicted int64
	limit := 2*l.Len() + 2
	b := l.Front()
	for b != nil && evicted < amount && limit > 0 {
		limit--
		next := b.next
		switch {
		case b.Dirty || b.File == exclude || m.writeProtected(b.File):
			// Not a candidate; the hand passes over it.
		case b.ref:
			b.ref = false
			l.Remove(b)
			l.PushBack(b) // second chance: rotate behind the hand
		default:
			evicted += m.dropBlockPrefix(l, b, amount-evicted)
		}
		// The hand is circular: reaching the end wraps back to the front so
		// blocks whose reference bit was just spent (a rotated tail in
		// particular) are reconsidered. The visit budget, not the cursor,
		// terminates the sweep.
		if next == nil {
			next = l.Front()
		}
		b = next
	}
	return evicted
}

func (p *clockPolicy) Rebalance(*Manager) {}

// CheckInvariants: rotation breaks access-time ordering by design, so only
// structural sanity is asserted here (sizes are checked by the Manager).
func (p *clockPolicy) CheckInvariants(*Manager) error {
	if len(p.lists) != 1 || p.lists[0] != p.list {
		return fmt.Errorf("clock: list set corrupted")
	}
	return nil
}
