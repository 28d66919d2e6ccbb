package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Policy owns the structural side of the page cache: which lists blocks live
// in, where a new block is placed, what a cache hit does to the touched
// blocks (promotion), and in which order victims are considered for clean
// eviction. Everything else — byte accounting, dirty tracking, the expiry
// queue, flushing mechanics, OOM arithmetic — stays in the Manager and is
// shared by all policies.
//
// The contract every implementation must honor:
//
//   - Blocks are stored in List structures so the Manager's generic machinery
//     (dirty sublists, per-file chains, incremental counters) keeps working;
//     the policy decides how many lists exist and what their order means.
//   - Lists() is stable: the same slice, in the same order, for the life of
//     the policy. Its order is the policy's scan order — dirty flushing,
//     expiry scans, force-eviction and accounting all walk lists first to
//     last and blocks front to back, so "front of the first list" must be
//     the policy's least valuable position.
//   - Every operation touches O(blocks it is about), never the whole cache
//     (the complexity table in the package comment).
//   - Mutations keep Manager.CheckInvariants happy; policy-specific structure
//     (ordering, bucket assignment) is verified by the policy's own
//     CheckInvariants.
type Policy interface {
	// Name returns the registry name the policy was constructed under.
	Name() string
	// Lists returns the policy's lists in scan order (least valuable list
	// first). The returned slice is owned by the policy and must not be
	// mutated by callers; it is stable across the policy's lifetime.
	Lists() []*List
	// EvictableLists returns the lists whose clean bytes count as
	// immediately reclaimable headroom (Manager.Evictable). Eviction may
	// still escalate beyond them: the paper's LRU counts only the inactive
	// list here but shrinks the active list under pressure.
	EvictableLists() []*List
	// Insert places a freshly created block — clean (AddToCache) or dirty
	// (WriteToCache) — into the cache. The Manager has already validated
	// headroom; the policy only decides position.
	Insert(m *Manager, b *Block)
	// ReadHit applies the policy's promotion to `amount` cached bytes of
	// file at time now: the paper's LRU consumes blocks LRU-first and
	// re-queues them on the active list (Fig 3); other policies touch
	// reference bits or frequency counters instead.
	ReadHit(m *Manager, file string, amount int64, now float64)
	// EvictClean reclaims up to amount clean bytes in the policy's victim
	// order, never touching blocks of exclude or of write-protected files.
	// It returns the evicted byte count.
	EvictClean(m *Manager, amount int64, exclude string) int64
	// Rebalance restores the policy's structural invariant after a mutation
	// (the default two-list LRU keeps active ≤ 2×inactive); a no-op for
	// policies without one.
	Rebalance(m *Manager)
	// CheckInvariants verifies policy-specific structure (list ordering,
	// bucket assignment, reference-bit sanity). The Manager's own
	// CheckInvariants verifies everything policy-independent.
	CheckInvariants(m *Manager) error
}

// DefaultPolicyName is the policy used when Config.Policy is empty: the
// paper's two-list sorted LRU (§III.A).
const DefaultPolicyName = "lru"

// policyRegistry maps each cache-policy name to its constructor. Adding a
// policy is one constructor and one entry here.
var policyRegistry = map[string]func() Policy{
	DefaultPolicyName: newLRUPolicy,
	"clock":           newClockPolicy,
	"fifo":            newFIFOPolicy,
	"lfu":             newLFUPolicy,
}

// PolicyNames returns the registered policy names, sorted.
func PolicyNames() []string {
	out := make([]string, 0, len(policyRegistry))
	for name := range policyRegistry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ValidatePolicyName reports whether name (or the empty default) is a
// registered policy; the error lists what is registered, so configuration
// mistakes fail fast and helpfully at load time.
func ValidatePolicyName(name string) error {
	if name == "" {
		return nil
	}
	if _, ok := policyRegistry[name]; !ok {
		return fmt.Errorf("core: unknown cache policy %q (registered: %s)",
			name, strings.Join(PolicyNames(), ", "))
	}
	return nil
}

// newPolicy constructs the named policy ("" selects DefaultPolicyName).
func newPolicy(name string) (Policy, error) {
	if err := ValidatePolicyName(name); err != nil {
		return nil, err
	}
	if name == "" {
		name = DefaultPolicyName
	}
	return policyRegistry[name](), nil
}

// scanEvict is the shared list-order victim scan: it walks the given lists
// first to last, front to back, dropping clean non-excluded blocks (or
// LRU-side prefixes of them) until amount bytes are reclaimed. The two-list
// LRU, FIFO and segmented-LFU policies all evict in their list order; only
// CLOCK overrides it with a second-chance scan.
func scanEvict(m *Manager, lists []*List, amount int64, exclude string) int64 {
	var evicted int64
	for _, l := range lists {
		if evicted >= amount {
			break
		}
		if l.Bytes() == l.DirtyBytes() {
			continue // nothing clean to evict here
		}
		b := l.Front()
		for b != nil && evicted < amount {
			next := b.next
			if !b.Dirty && b.File != exclude && !m.writeProtected(b.File) {
				evicted += m.dropBlockPrefix(l, b, amount-evicted)
			}
			b = next
		}
	}
	return evicted
}

// checkListSorted verifies a list is ordered by LastAccess (the invariant of
// access-ordered policies; CLOCK and LFU order by position instead).
func checkListSorted(l *List) error {
	last := math.Inf(-1) // timestamps may be negative after a rebase
	for b := l.Front(); b != nil; b = b.next {
		if b.LastAccess < last {
			return fmt.Errorf("list %s not sorted by access time at %v", l.Name(), b)
		}
		last = b.LastAccess
	}
	return nil
}
