package core

import "fmt"

// This file is the cache-state snapshot/restore seam: the Manager's complete
// mutable state — blocks in policy-list order, dirty bookkeeping, the
// Entry-ordered expiry queue, writeback-policy structure, counters — can be
// captured as a plain serializable value (ManagerState) and rebuilt into a
// fresh Manager, verified by CheckInvariants. It is the foundation of both
// warm-start scenarios (internal/scenario's "warmup" stanza) and phase
// fast-forward (internal/phase + internal/engine), and round-trips through
// JSON via internal/snapshot's versioned file format.
//
// The restore contract: the target Manager must be freshly constructed
// (empty) with a Config that resolves to the same policy and writeback
// registry names the snapshot was taken under. Replacement policies keep all
// per-block state on the Block itself (reference bit, frequency, decay
// epoch), so rebuilding the lists rebuilds the policy; writeback policies
// with history-dependent structure (the file-queue ring and its round-robin
// cursor) implement StatefulWritebackPolicy to capture it explicitly.

// ManagerStateVersion is the ManagerState schema version. There is one
// layout: every writeback domain — domain 0 included, and the only one of a
// manager without per-device writeback — records its expiry queue,
// writeback aux structure and flush/throttle counters in Domains. Version 1,
// which kept a single domain's state in top-level fields, is no longer
// read; re-create such snapshots with -snapshot-out.
const ManagerStateVersion = 2

// BlockState is one cached block, policy metadata included, in a
// serializable form.
type BlockState struct {
	File       string  `json:"file"`
	Size       int64   `json:"size"`
	Entry      float64 `json:"entry"`
	LastAccess float64 `json:"lastAccess"`
	Dirty      bool    `json:"dirty,omitempty"`
	Ref        bool    `json:"ref,omitempty"`
	Freq       int32   `json:"freq,omitempty"`
	FreqEpoch  int32   `json:"freqEpoch,omitempty"`
}

// ListState is one policy list's blocks in list order (LRU to MRU).
type ListState struct {
	Name   string       `json:"name"`
	Blocks []BlockState `json:"blocks"`
}

// BlockRef addresses a block of a ManagerState by (list, index) — the expiry
// queue is serialized as references into the lists, preserving its exact
// Entry order without duplicating block data.
type BlockRef struct {
	List  int `json:"list"`
	Index int `json:"index"`
}

// WritebackState is the explicit structure of a StatefulWritebackPolicy: the
// active-file ring in ring order plus the round-robin cursor position.
type WritebackState struct {
	Ring      []string `json:"ring,omitempty"`
	Cursor    string   `json:"cursor,omitempty"`
	HasCursor bool     `json:"hasCursor,omitempty"`
}

// ManagerState is the complete serializable state of a Manager. Config is
// deliberately not part of it: the restoring side constructs its Manager
// from its own Config, and Restore only requires the resolved policy and
// writeback names to match.
type ManagerState struct {
	Version   int    `json:"version"`
	Policy    string `json:"policy"`
	Writeback string `json:"writeback"`

	Anon            int64          `json:"anon,omitempty"`
	ReadHits        int64          `json:"readHits,omitempty"`
	ReadMisses      int64          `json:"readMisses,omitempty"`
	FlushedBytes    int64          `json:"flushedBytes,omitempty"`
	ThrottledSec    float64        `json:"throttledSec,omitempty"`
	ForcedEvictions int64          `json:"forcedEvictions,omitempty"`
	Writing         map[string]int `json:"writing,omitempty"`

	Lists []ListState `json:"lists"`

	// Domains carries each writeback domain's state in domain-index order,
	// domain 0 first; RestoreState requires the target manager to have the
	// same domains.
	Domains []DomainSnapshot `json:"domains"`
}

// DomainSnapshot is one writeback domain's state: the domain's expiry queue
// in Entry order (as refs into Lists), its writeback policy's aux
// structure, and its flush/throttle counters.
type DomainSnapshot struct {
	Dev          string          `json:"dev"`
	Expiry       []BlockRef      `json:"expiry,omitempty"`
	WritebackAux *WritebackState `json:"writebackAux,omitempty"`
	FlushedBytes int64           `json:"flushedBytes,omitempty"`
	ThrottledSec float64         `json:"throttledSec,omitempty"`
}

// StatefulWritebackPolicy is an optional interface a WritebackPolicy
// implements when its flush order depends on history beyond the dirty blocks
// themselves — the file-queue policies' ring is ordered by when each file
// first dirtied data (and re-appends files that went clean and re-dirtied),
// which a replay of NoteDirty in Entry order cannot reconstruct. Snapshot
// captures that structure; Restore re-applies it after the NoteDirty replay
// rebuilt the per-file queues.
type StatefulWritebackPolicy interface {
	SnapshotWriteback() *WritebackState
	RestoreWriteback(*WritebackState) error
}

// TimeShiftablePolicy is an optional interface a Policy implements when it
// keeps time-derived per-block state beyond Entry/LastAccess — the
// segmented LFU's lazy-decay epochs — so Manager.ShiftTimes can rebase it
// together with the block timestamps.
type TimeShiftablePolicy interface {
	ShiftTimes(delta float64)
}

// SnapshotState captures the manager's complete mutable state. The manager
// is not modified. O(blocks).
func (m *Manager) SnapshotState() *ManagerState {
	st := &ManagerState{
		Version:         ManagerStateVersion,
		Policy:          m.pol.Name(),
		Writeback:       m.domains[0].wb.Name(),
		Anon:            m.anon,
		ReadHits:        m.readHits,
		ReadMisses:      m.readMisses,
		FlushedBytes:    m.flushedBytes,
		ThrottledSec:    m.throttledSec,
		ForcedEvictions: m.ForcedEvictions,
	}
	if len(m.writing) > 0 {
		st.Writing = make(map[string]int, len(m.writing))
		for f, n := range m.writing {
			st.Writing[f] = n
		}
	}
	refs := make(map[*Block]BlockRef)
	for li, l := range m.pol.Lists() {
		ls := ListState{Name: l.Name(), Blocks: make([]BlockState, 0, l.Len())}
		for b := l.Front(); b != nil; b = b.next {
			refs[b] = BlockRef{List: li, Index: len(ls.Blocks)}
			ls.Blocks = append(ls.Blocks, BlockState{
				File: b.File, Size: b.Size, Entry: b.Entry, LastAccess: b.LastAccess,
				Dirty: b.Dirty, Ref: b.ref, Freq: b.freq, FreqEpoch: b.freqEpoch,
			})
		}
		st.Lists = append(st.Lists, ls)
	}
	for _, d := range m.domains {
		ds := DomainSnapshot{Dev: d.dev, FlushedBytes: d.flushed, ThrottledSec: d.throttled}
		for b := d.eqHead; b != nil; b = b.enext {
			ds.Expiry = append(ds.Expiry, refs[b])
		}
		if sp, ok := d.wb.(StatefulWritebackPolicy); ok {
			ds.WritebackAux = sp.SnapshotWriteback()
		}
		st.Domains = append(st.Domains, ds)
	}
	return st
}

// RestoreState rebuilds the manager from a snapshot. The manager must be
// freshly constructed (no blocks, no anon, no open writers), and its
// resolved policy/writeback names must match the snapshot's. On success the
// manager is byte-for-byte equivalent to the one SnapshotState captured —
// same blocks in the same list positions, same dirty/expiry/writeback
// order, same counters — and CheckInvariants has verified it. On failure
// the manager must be discarded (it may hold partial state).
func (m *Manager) RestoreState(st *ManagerState) error {
	if st == nil {
		return fmt.Errorf("core: RestoreState: nil state")
	}
	if st.Version != ManagerStateVersion {
		return fmt.Errorf("core: RestoreState: snapshot version %d, this build reads version %d",
			st.Version, ManagerStateVersion)
	}
	if len(st.Domains) != len(m.domains) {
		return fmt.Errorf("core: RestoreState: snapshot has %d writeback domains, manager %d",
			len(st.Domains), len(m.domains))
	}
	for dom, ds := range st.Domains {
		if ds.Dev != m.domains[dom].dev {
			return fmt.Errorf("core: RestoreState: domain %d is %q, snapshot %q", dom, m.domains[dom].dev, ds.Dev)
		}
	}
	for _, d := range m.domains {
		if d.eqHead != nil {
			return fmt.Errorf("core: RestoreState: target manager not empty")
		}
	}
	if m.CacheBytes() != 0 || m.anon != 0 || len(m.writing) != 0 {
		return fmt.Errorf("core: RestoreState: target manager not empty")
	}
	if m.pol.Name() != st.Policy {
		return fmt.Errorf("core: RestoreState: policy %q, snapshot taken under %q", m.pol.Name(), st.Policy)
	}
	if m.domains[0].wb.Name() != st.Writeback {
		return fmt.Errorf("core: RestoreState: writeback %q, snapshot taken under %q", m.domains[0].wb.Name(), st.Writeback)
	}
	lists := m.pol.Lists()
	if len(lists) != len(st.Lists) {
		return fmt.Errorf("core: RestoreState: policy has %d lists, snapshot %d", len(lists), len(st.Lists))
	}
	// Rebuild the lists with raw appends: restoreAppend links at the tail
	// without the coalescing PushBack applies, so the restored block layout
	// (including split fragments) is exactly the captured one.
	blocks := make([][]*Block, len(st.Lists))
	for i, ls := range st.Lists {
		if lists[i].Name() != ls.Name {
			return fmt.Errorf("core: RestoreState: list %d is %q, snapshot %q", i, lists[i].Name(), ls.Name)
		}
		blocks[i] = make([]*Block, 0, len(ls.Blocks))
		for _, bs := range ls.Blocks {
			if bs.Size <= 0 {
				return fmt.Errorf("core: RestoreState: non-positive block size %d for %s", bs.Size, bs.File)
			}
			b := m.pool.newBlock(Block{
				File: bs.File, Size: bs.Size, Entry: bs.Entry, LastAccess: bs.LastAccess,
				Dirty: bs.Dirty, ref: bs.Ref, freq: bs.Freq, freqEpoch: bs.FreqEpoch,
				dom: m.domainOf(bs.File), // before restoreAppend: it segments by dom
			})
			lists[i].restoreAppend(b)
			m.addCached(b.File, b.Size)
			blocks[i] = append(blocks[i], b)
		}
	}
	// Replay each domain's dirty set in recorded expiry order: that rebuilds
	// the expiry queue exactly, and — because a domain Entry order is also a
	// per-file Entry order — the writeback policies' per-file queues too. The
	// ring order and cursor are history-dependent; WritebackAux re-applies
	// them.
	for dom, ds := range st.Domains {
		d := m.domains[dom]
		var prev *Block
		for _, ref := range ds.Expiry {
			if ref.List < 0 || ref.List >= len(blocks) || ref.Index < 0 || ref.Index >= len(blocks[ref.List]) {
				return fmt.Errorf("core: RestoreState: expiry ref %+v out of range", ref)
			}
			b := blocks[ref.List][ref.Index]
			if !b.Dirty {
				return fmt.Errorf("core: RestoreState: expiry ref %+v points at clean block %v", ref, b)
			}
			if b.dom != dom {
				return fmt.Errorf("core: RestoreState: expiry ref %+v block %v resolves to domain %d, listed under %d",
					ref, b, b.dom, dom)
			}
			if b.eprev != nil || b == d.eqHead {
				return fmt.Errorf("core: RestoreState: expiry ref %+v repeated", ref)
			}
			m.enqueueExpiryAfter(b, prev)
			d.wb.NoteDirty(m, b, nil)
			prev = b
		}
		if ds.WritebackAux != nil {
			sp, ok := d.wb.(StatefulWritebackPolicy)
			if !ok {
				return fmt.Errorf("core: RestoreState: snapshot has writeback aux state but policy %q is stateless", d.wb.Name())
			}
			if err := sp.RestoreWriteback(ds.WritebackAux); err != nil {
				return fmt.Errorf("core: RestoreState: %w", err)
			}
		}
		d.flushed, d.throttled = ds.FlushedBytes, ds.ThrottledSec
	}
	m.anon = st.Anon
	m.readHits, m.readMisses = st.ReadHits, st.ReadMisses
	m.flushedBytes = st.FlushedBytes
	m.throttledSec = st.ThrottledSec
	m.ForcedEvictions = st.ForcedEvictions
	for f, n := range st.Writing {
		if n > 0 {
			m.writing[f] = n
		}
	}
	if err := m.CheckInvariants(); err != nil {
		return fmt.Errorf("core: RestoreState: restored state inconsistent: %w", err)
	}
	return nil
}

// ShiftTimes rebases every block timestamp by delta (simulated seconds):
// Entry and LastAccess move together, so all orderings — list order, dirty
// sublists, per-file chains, the expiry queue, writeback queues — are
// preserved exactly. Negative deltas are legal (warm-start restores rebase a
// snapshot to the new run's t=0; invariant checks order against -Inf, not
// zero). Policies with time-derived per-block state beyond the timestamps
// (TimeShiftablePolicy: the LFU decay epochs) are shifted too. O(blocks).
func (m *Manager) ShiftTimes(delta float64) {
	if delta == 0 {
		return
	}
	for _, l := range m.pol.Lists() {
		for b := l.Front(); b != nil; b = b.next {
			b.Entry += delta
			b.LastAccess += delta
		}
	}
	if tp, ok := m.pol.(TimeShiftablePolicy); ok {
		tp.ShiftTimes(delta)
	}
}

// AccumulateFFwd folds reps analytically skipped iterations into the
// cumulative counters: each skipped iteration contributes the per-iteration
// deltas measured from the converged iteration. The cache structure itself
// is untouched — fast-forward warps time and repeats the steady iteration's
// accounting, it does not re-simulate it.
func (m *Manager) AccumulateFFwd(reps int64, hitBytes, missBytes, flushedBytes int64, throttledSec float64) {
	if reps <= 0 {
		return
	}
	m.readHits += reps * hitBytes
	m.readMisses += reps * missBytes
	m.flushedBytes += reps * flushedBytes
	m.throttledSec += float64(reps) * throttledSec
}
