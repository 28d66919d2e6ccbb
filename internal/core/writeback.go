package core

import (
	"fmt"
	"sort"
	"strings"
)

// WritebackPolicy owns the writeback side of one writeback domain: in which
// order the domain's dirty blocks are written to their backing stores by
// FlushDomain (writer throttling and the flusher's background pass), Flush
// (the cross-domain drain, which merges the domains' candidates) and
// FlushExpiredDomain (the flusher's expiry pass). Every manager has N ≥ 1
// domains, each with its own instance. It is the second policy seam, symmetric to Policy: Policy
// decides which clean block dies first, WritebackPolicy decides which dirty
// block is persisted first. Everything else — dirty accounting, the expiry
// queue, the flush mechanics (clean-before-write, partial splits, scan
// restarts after blocking writes) — stays in the Manager and is shared by
// all writeback policies.
//
// The contract every implementation must honor:
//
//   - The Manager drives the dirty-block lifecycle through NoteDirty /
//     NoteClean / NoteFlushed; the policy maintains whatever ordering
//     structure it needs from those events alone, in O(1) amortized per
//     event (file-queue policies use the Block.wprev/wnext links, reserved
//     for the owning manager's writeback policy).
//   - NextDirty and NextExpired are selection queries: they must not mutate
//     policy state (rotation happens in NoteFlushed) and must return nil
//     exactly when no (expired) dirty block exists. The common idle case of
//     NextExpired must stay O(1) — the domain expiry queue's head is the
//     domain's oldest dirty block, so ExpiredHeadDomain answers it.
//   - Selection is deterministic: given the same event sequence, the same
//     blocks come back in the same order (simulation reproducibility).
//   - Mutations keep Manager.CheckInvariants happy; policy-specific
//     structure (queue membership, ring linkage) is verified by the
//     policy's own CheckInvariants.
type WritebackPolicy interface {
	// Name returns the registry name the policy was constructed under.
	Name() string
	// NoteDirty records a block that just became dirty. sibling is non-nil
	// when b was split off an existing queued dirty block (partial flushes
	// and demotions split blocks; the halves share File and Entry) — the
	// policy must keep the halves adjacent in its order, exactly like the
	// manager's expiry queue does.
	NoteDirty(m *Manager, b, sibling *Block)
	// NoteClean records that b left the dirty set — flushed whole, or
	// dropped by InvalidateFile without being written.
	NoteClean(m *Manager, b *Block)
	// NoteFlushed records that one Flush step just wrote bytes of b (which
	// may since have been cleaned, resized, or both). Round-robin policies
	// advance their cursor here; order-static policies ignore it.
	NoteFlushed(m *Manager, b *Block)
	// NextDirty returns the domain's dirty block FlushDomain should write
	// next (nil when the domain holds no dirty data).
	NextDirty(m *Manager) *Block
	// NextExpired returns the domain's dirty block FlushExpiredDomain should
	// write next: one older than DirtyExpire at simulated time now (nil when
	// none is).
	NextExpired(m *Manager, now float64) *Block
	// CheckInvariants verifies policy-specific structure. The Manager's own
	// CheckInvariants verifies everything policy-independent (including the
	// expiry queue) and then calls this.
	CheckInvariants(m *Manager) error
}

// DefaultWritebackPolicyName is the writeback policy used when
// Config.Writeback is empty: the flush order the paper's Manager had before
// the seam existed — front dirty block of the replacement policy's lists, in
// list scan order (bit-identical to the pre-seam implementation).
const DefaultWritebackPolicyName = "list-order"

// writebackRegistry maps each writeback-policy name to its constructor.
// Adding a writeback policy is one constructor and one entry here.
var writebackRegistry = map[string]func() WritebackPolicy{
	DefaultWritebackPolicyName: newListOrderWriteback,
	"oldest-first":             newOldestFirstWriteback,
	"file-rr":                  newFileRRWriteback,
	"proportional":             newProportionalWriteback,
}

// WritebackPolicyNames returns the registered writeback-policy names, sorted.
func WritebackPolicyNames() []string {
	out := make([]string, 0, len(writebackRegistry))
	for name := range writebackRegistry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ValidateWritebackPolicyName reports whether name (or the empty default) is
// a registered writeback policy; the error lists what is registered, so
// configuration mistakes fail fast and helpfully at load time.
func ValidateWritebackPolicyName(name string) error {
	if name == "" {
		return nil
	}
	if _, ok := writebackRegistry[name]; !ok {
		return fmt.Errorf("core: unknown writeback policy %q (registered: %s)",
			name, strings.Join(WritebackPolicyNames(), ", "))
	}
	return nil
}

// newWritebackPolicy constructs the named policy ("" selects
// DefaultWritebackPolicyName).
func newWritebackPolicy(name string) (WritebackPolicy, error) {
	if err := ValidateWritebackPolicyName(name); err != nil {
		return nil, err
	}
	if name == "" {
		name = DefaultWritebackPolicyName
	}
	return writebackRegistry[name](), nil
}

// DomainBound is implemented by writeback policies that need to know which
// writeback domain they serve. The Manager constructs one policy instance
// per domain; for each domain ConfigureDomains adds it calls BindDomain with
// the domain's index before any dirty block is noted (domain 0's instance
// keeps the zero index); the
// policy then restricts its selection queries to that domain's dirty
// segments and expiry queue. Policies that never walk manager structure
// directly (pure event-driven queues) may ignore the interface.
type DomainBound interface {
	BindDomain(dom int)
}

// ExpiredHeadDomain returns a writeback domain's oldest dirty block when it
// is older than DirtyExpire at time now, else nil — the domain expiry
// queue's head, an O(1) peek. It is both the shared idle-case fast path of
// NextExpired and the complete answer for Entry-ordered expiry policies:
// the queue is Entry-sorted, so its head is the first block to expire.
func (m *Manager) ExpiredHeadDomain(dom int, now float64) *Block {
	h := m.domains[dom].eqHead
	if h == nil || now-h.Entry < m.cfg.DirtyExpire {
		return nil
	}
	return h
}
