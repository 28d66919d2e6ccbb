package core

func newFIFOPolicy() Policy {
	p := &fifoPolicy{list: NewList("fifo")}
	p.lists = []*List{p.list}
	return p
}

// fifoPolicy is the degenerate baseline: one queue in insertion order, no
// promotion of any kind. Cache hits leave the queue untouched (recency and
// frequency are both ignored), and eviction always takes the oldest clean
// block first. Its value is experimental — the gap between FIFO and the
// paper's LRU isolates how much of a workload's hit ratio comes from reuse
// the two-list design actually captures.
type fifoPolicy struct {
	list  *List
	lists []*List
}

func (p *fifoPolicy) Name() string            { return "fifo" }
func (p *fifoPolicy) Lists() []*List          { return p.lists }
func (p *fifoPolicy) EvictableLists() []*List { return p.lists }

// Insert appends at the queue tail; blocks then never move again.
func (p *fifoPolicy) Insert(m *Manager, b *Block) { p.list.PushBack(b) }

// ReadHit is a no-op: FIFO ignores accesses by definition. The Manager still
// charges the memory-read time; only the queue order is unaffected.
func (p *fifoPolicy) ReadHit(*Manager, string, int64, float64) {}

// EvictClean drops the oldest clean non-excluded blocks first.
func (p *fifoPolicy) EvictClean(m *Manager, amount int64, exclude string) int64 {
	return scanEvict(m, p.lists, amount, exclude)
}

func (p *fifoPolicy) Rebalance(*Manager) {}

// CheckInvariants verifies insertion order: FIFO never reorders and never
// updates access times, so the queue stays sorted by both Entry and
// LastAccess.
func (p *fifoPolicy) CheckInvariants(*Manager) error {
	return checkListSorted(p.list)
}
