// Package core implements the paper's page-cache simulation model (§III):
// data blocks in policy-owned lists (default: the paper's sorted
// active/inactive LRU lists), the Memory Manager (flushing, eviction,
// cached I/O, periodic expiry flushing — Algorithm 1), and the I/O
// Controller (chunked reads — Algorithm 2, writes — Algorithm 3, plus the
// writethrough variant).
//
// The model is deliberately decoupled from any particular simulation engine:
// every operation that consumes simulated time goes through the Caller
// interface. The DES engine (internal/engine) implements Caller with
// fair-shared fluid transfers; the sequential prototype (internal/pysim)
// implements it with fixed-bandwidth arithmetic, exactly like the paper's
// Python prototype.
//
// The replacement policy is a second seam: placement, promotion on access
// and victim order live behind the Policy interface, selected by
// Config.Policy from a table of named constructors ("lru" — the paper's
// two-list sorted LRU and the default, bit-identical to the pre-seam
// implementation; "clock" — kernel-style second chance with a reference
// bit; "fifo" — the degenerate insertion-order baseline; "lfu" — segmented
// frequency-decay with a 60 s half-life). Adding a policy is one
// constructor and one table entry. The accounting machinery (dirty
// sublists, per-file chains, expiry queue, byte counters, OOM arithmetic)
// is shared by all policies.
//
// Writeback is a third seam: the order dirty blocks are persisted in by
// the flush passes lives behind the WritebackPolicy interface,
// selected by Config.Writeback from its own table ("list-order" — the
// paper's implicit order, front dirty block of the replacement policy's
// lists, bit-identical to the pre-seam implementation and the default;
// "oldest-first" — Entry order off the expiry queue; "file-rr" —
// per-file round robin, the shape of Linux's per-inode b_io writeback;
// "proportional" — largest per-file dirty backlog first, approximating
// Linux's proportional writeback). The flush mechanics
// (clean-before-write, partial-flush splits, blocking-write restarts,
// expiry bookkeeping) are shared; policies only select the next victim,
// fed by dirty-lifecycle notifications. Config.DirtyBackgroundRatio
// additionally splits the dirty threshold into Linux's real pair: writers
// throttle at DirtyRatio while the periodic flusher asynchronously writes
// back above the background threshold (0 — the default — keeps the paper's
// single-threshold model).
//
// Writeback is organized in N ≥ 1 writeback domains, the shape of Linux's
// per-bdi writeback, and there is one code path for every N. Each domain
// owns a WritebackPolicy instance over the shared lists, its own expiry
// queue, its own dirty/flushed/throttle counters, and its dirty and
// background thresholds. A manager starts with domain 0 at the full global
// thresholds — the paper's single global model, byte-identical to it;
// ConfigureDomains adds one domain per backing device with
// bandwidth-share-scaled thresholds, domain 0 staying the backstop for
// files on no configured device. One flusher loop (RunFlusher) serves every
// domain: each wake-up runs FlushPass — the domain's expiry pass
// (FlushExpiredDomain), then its background pass (FlushBackgroundDomain) —
// and waits out the interval. Writers throttle on their own domain first
// (FlushDomain), with the cross-domain Flush as the backstop, and
// SetDomainWake installs the writer-driven wakeup a write crossing the
// domain's background threshold fires. Snapshots record every domain in one
// layout (ManagerState.Domains).
//
// # Complexity of the Manager operations
//
// The Memory Manager is the hot path of every simulation, so the lists are
// indexed: each List threads its dirty blocks into an intrusive dirty
// sublist and each file's blocks into an intrusive per-file chain (both in
// list order, with incrementally maintained byte totals), and the Manager
// threads all dirty blocks into an Entry-ordered expiry queue. With n total
// blocks in the cache, d dirty blocks, f blocks of the file being operated
// on, and w files currently open for writing, the dominant operations cost
// (before indexing → after):
//
//	Flush (per flushed block)      O(n) full-list rescan  → O(1) dirty-front peek
//	expiry pass, idle wake-up      O(n)                   → O(1) expiry-queue head check
//	expiry pass (per flushed)      O(n)                   → O(d) dirty-sublist walk, worst case
//	CacheRead                      O(n) two-list walk     → O(f) per-file chain walk
//	InvalidateFile                 O(n) two-list walk     → O(f) per-file chain walk
//	Evictable                      O(n) inactive walk     → O(1), or O(w) with the heuristic
//	List.InsertSorted (demotion)   O(distance from tail)  → O(min distance from either end)
//	AddToCache/WriteToCache        O(1)                   → O(1)
//	Evict (per evicted block)      O(1) + exclusion skips (unchanged)
//
// The policy-seam operations keep the same O(touched-blocks) contract for
// every registered policy (k = policy list count, a constant ≤ 4; v =
// victims dropped per eviction):
//
//	Policy.Insert                  O(1) tail append (all policies)
//	Policy.ReadHit                 O(f) per-file chain walk: LRU re-queues,
//	                               CLOCK flags reference bits in place, LFU
//	                               bumps/moves each touched block O(1),
//	                               FIFO is a true no-op
//	Policy.EvictClean              O(v) + exclusion skips; CLOCK additionally
//	                               rotates each block at most once per sweep
//	Policy.Rebalance               LRU: O(blocks demoted); others: O(1) no-op
//	Manager.CacheBytes/Dirty/...   O(1) → O(k) counter sums
//	Manager.Flush restart peek     O(1) → O(k) dirty-front peeks
//
// The writeback-seam operations keep the same contract (g = files that
// currently hold dirty data):
//
//	WritebackPolicy.NoteDirty      O(1): queue/ring link (file-queue
//	                               policies); no-op for list-order and
//	                               oldest-first, whose orders are the dirty
//	                               sublists and the expiry queue
//	WritebackPolicy.NoteClean      O(1) unlink (+ ring retire on last block)
//	WritebackPolicy.NoteFlushed    O(1): ring-cursor advance (file-rr only)
//	WritebackPolicy.NextDirty      list-order O(k) front peek; oldest-first
//	                               O(1) expiry-queue head; file-rr O(1) ring
//	                               cursor; proportional O(g) ring scan
//	WritebackPolicy.NextExpired    O(1) expiry-queue head check for every
//	                               policy; list-order then walks only the
//	                               dirty sublists, worst case O(d)
//	Manager.FlushBackgroundDomain  O(1) when disabled or under threshold,
//	                               else the FlushDomain costs per block
//
// The domain split (m = writeback domains, 1 unless ConfigureDomains ran,
// a small constant) keeps every per-block cost in the same class — domain
// selection never degenerates into cache walks:
//
//	Manager.domainOf               O(1) resolve call + domain-index lookup
//	Manager.DomainDirty/Stats      O(1) per-domain counters (O(m) for the
//	                               full DomainStats slice)
//	Manager.FlushDomain            the domain's own NextDirty peek per
//	                               block — same costs as Flush, filtered
//	                               structurally (each domain's policy
//	                               indexes only its own dirty blocks)
//	Manager.Flush (cross-domain)   O(m) oldest-candidate scan per block
//	Manager.FlushExpiredDomain     O(1) idle check via the domain policy's
//	                               expiry view, O(d_dom) worst-case walk
//	Manager.FlushPass              the expiry pass plus the background pass
//	writer wakeup (WriteToCache)   O(1) threshold compare + signal hook
//
// The snapshot/restore seam (Manager.SnapshotState / RestoreState /
// ShiftTimes, the substrate of warm-start scenarios and phase fast-forward)
// keeps the same proportional contract:
//
//	Manager.SnapshotState          O(n) list walk + O(d) expiry-queue walk;
//	                               no mutation
//	Manager.RestoreState           O(n) raw tail appends (no coalescing) +
//	                               O(d) expiry/writeback replay, then one
//	                               CheckInvariants pass over the result
//	Manager.ShiftTimes             O(n) uniform timestamp rebase; every
//	                               ordering is preserved exactly
//	Manager.AccumulateFFwd         O(1) counter arithmetic per skipped span
//
// Additionally, adjacent same-file clean blocks with identical entry and
// access times — the products of repeated partial flush/demotion splits —
// are coalesced on insert (policy metadata must match too, so no policy
// merges blocks it would treat differently), which bounds block-count
// growth in fragmented workloads.
//
// Blocks are recycled per Manager: one free list, shared by the policy's
// lists, takes back every block that leaves the cache for good (evicted,
// invalidated, merged by a read hit, absorbed by coalescing) and every
// emptied file chain, and every site that creates either takes from it
// first, so a warmed-up Manager creates blocks without allocating.
//
// All of this is pure bookkeeping: under the default policy the simulated
// behavior (which bytes move, in which order, at which simulated times) is
// bit-identical to the unindexed, pre-seam implementation, and
// Manager.CheckInvariants verifies every index structure — the free list
// and the policy's own structure included — block by block.
package core
