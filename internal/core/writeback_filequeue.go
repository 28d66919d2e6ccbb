package core

import (
	"fmt"
	"math"
)

// wbFileQueue threads one file's dirty blocks (across all of the
// replacement policy's lists) in Entry order through Block.wprev/wnext,
// plus the ring links chaining the files that currently hold dirty data.
type wbFileQueue struct {
	file       string
	head, tail *Block
	blocks     int
	prev, next *wbFileQueue // active-file ring, insertion-ordered
}

// wbFileQueues is the shared structure of the per-file writeback policies
// (file-rr, proportional): a map of per-file dirty queues and an
// insertion-ordered ring of the files that currently have dirty blocks. All
// maintenance is O(1) per dirty-block event; iteration over the ring is
// O(files with dirty data), never O(files) or O(blocks).
type wbFileQueues struct {
	files              map[string]*wbFileQueue
	ringHead, ringTail *wbFileQueue
	cursor             *wbFileQueue // round-robin position (file-rr)
	dom                int          // writeback domain served (0 unless per-device)
}

func newWBFileQueues() *wbFileQueues {
	return &wbFileQueues{files: make(map[string]*wbFileQueue)}
}

// noteDirty links b into its file's queue: after its split sibling when one
// is given (the halves share File and Entry, so adjacency preserves Entry
// order), at the tail otherwise (Entry times are assigned from the
// monotonic simulated clock, so appends preserve Entry order too).
// A file's queue is taken from m's free list.
func (q *wbFileQueues) noteDirty(m *Manager, b, sibling *Block) {
	fq := q.files[b.File]
	if fq == nil {
		fq = m.pool.queues.get()
		fq.file = b.File
		q.files[b.File] = fq
	}
	pos := fq.tail
	if sibling != nil && sibling.File == b.File && (sibling == fq.head || sibling.wprev != nil || sibling.wnext != nil) {
		pos = sibling
	}
	b.wprev = pos
	if pos != nil {
		b.wnext = pos.wnext
		pos.wnext = b
	} else {
		b.wnext = fq.head
		fq.head = b
	}
	if b.wnext != nil {
		b.wnext.wprev = b
	} else {
		fq.tail = b
	}
	fq.blocks++
	if fq.blocks == 1 {
		q.ringAppend(fq)
	}
}

// noteClean unlinks b from its file's queue, retiring the file from the
// ring (and the map) when its last dirty block goes and returning its queue
// to m's free list.
func (q *wbFileQueues) noteClean(m *Manager, b *Block) {
	fq := q.files[b.File]
	if fq == nil {
		return
	}
	if b.wprev != nil {
		b.wprev.wnext = b.wnext
	} else {
		fq.head = b.wnext
	}
	if b.wnext != nil {
		b.wnext.wprev = b.wprev
	} else {
		fq.tail = b.wprev
	}
	b.wprev, b.wnext = nil, nil
	fq.blocks--
	if fq.blocks == 0 {
		q.ringRemove(fq)
		delete(q.files, b.File)
		m.pool.queues.put(fq)
	}
}

func (q *wbFileQueues) ringAppend(fq *wbFileQueue) {
	fq.prev = q.ringTail
	fq.next = nil
	if q.ringTail != nil {
		q.ringTail.next = fq
	} else {
		q.ringHead = fq
	}
	q.ringTail = fq
}

func (q *wbFileQueues) ringRemove(fq *wbFileQueue) {
	if q.cursor == fq {
		q.cursor = fq.next // nil wraps to ringHead at the next selection
	}
	if fq.prev != nil {
		fq.prev.next = fq.next
	} else {
		q.ringHead = fq.next
	}
	if fq.next != nil {
		fq.next.prev = fq.prev
	} else {
		q.ringTail = fq.prev
	}
	fq.prev, fq.next = nil, nil
}

// advancePast moves the round-robin cursor to the file after `file` — the
// NoteFlushed hook of file-rr. A no-op when the cursor already moved on
// (the file's queue drained and ringRemove advanced it).
func (q *wbFileQueues) advancePast(file string) {
	if cur := q.current(); cur != nil && cur.file == file {
		q.cursor = cur.next
	}
}

// current returns the round-robin cursor's queue, wrapping to the ring head
// when the cursor ran off the tail (or was never set). Nil when no file has
// dirty data.
func (q *wbFileQueues) current() *wbFileQueue {
	if q.cursor == nil {
		return q.ringHead
	}
	return q.cursor
}

// snapshotAux captures the history-dependent part of the structure — the
// ring's file order and the round-robin cursor — for StatefulWritebackPolicy.
// The per-file queues themselves need no capture: Manager.RestoreState
// rebuilds them by replaying NoteDirty in expiry order.
func (q *wbFileQueues) snapshotAux() *WritebackState {
	st := &WritebackState{}
	for fq := q.ringHead; fq != nil; fq = fq.next {
		st.Ring = append(st.Ring, fq.file)
	}
	if q.cursor != nil {
		st.Cursor, st.HasCursor = q.cursor.file, true
	}
	return st
}

// restoreAux re-applies a captured ring order and cursor after the NoteDirty
// replay rebuilt the per-file queues (whose ring is then in replay order,
// not the captured first-dirtied order).
func (q *wbFileQueues) restoreAux(st *WritebackState) error {
	if len(st.Ring) != len(q.files) {
		return fmt.Errorf("writeback aux ring has %d files, queues hold %d", len(st.Ring), len(q.files))
	}
	q.ringHead, q.ringTail, q.cursor = nil, nil, nil
	seen := make(map[string]bool, len(st.Ring))
	for _, file := range st.Ring {
		fq := q.files[file]
		if fq == nil {
			return fmt.Errorf("writeback aux ring names %s, which holds no dirty data", file)
		}
		if seen[file] {
			return fmt.Errorf("writeback aux ring repeats %s", file)
		}
		seen[file] = true
		fq.prev, fq.next = nil, nil
		q.ringAppend(fq)
	}
	if st.HasCursor {
		fq := q.files[st.Cursor]
		if fq == nil {
			return fmt.Errorf("writeback aux cursor names %s, which holds no dirty data", st.Cursor)
		}
		q.cursor = fq
	}
	return nil
}

// checkInvariants verifies the queues against the manager's lists: every
// dirty block in exactly its file's queue, queues in Entry order with sound
// back-links, the ring holding exactly the files with dirty blocks, the
// cursor (when set) on the ring, and no queue on the free list.
func (q *wbFileQueues) checkInvariants(m *Manager) error {
	free, err := m.pool.queues.check("writeback queue")
	if err != nil {
		return err
	}
	// Reference per-file dirty sequences don't need list order — queues are
	// Entry-ordered — so counting per file is enough alongside membership.
	want := map[string]int{}
	for _, l := range m.pol.Lists() {
		for b := l.FrontDirtyDomain(q.dom); b != nil; b = b.dnext {
			want[b.File]++
		}
	}
	for file, fq := range q.files {
		if free[fq] {
			return fmt.Errorf("writeback: queue %s is on the free list", file)
		}
		if fq.blocks == 0 {
			return fmt.Errorf("writeback: empty queue retained for %s", file)
		}
		n := 0
		lastEntry := math.Inf(-1) // timestamps may be negative after a rebase
		for b := fq.head; b != nil; b = b.wnext {
			if b.owner == nil {
				return fmt.Errorf("writeback: queue %s reaches block %p, which is in no list (freed?)", file, b)
			}
			if b.File != file || !b.Dirty {
				return fmt.Errorf("writeback: queue %s holds foreign or clean block %v", file, b)
			}
			if b.Entry < lastEntry {
				return fmt.Errorf("writeback: queue %s not Entry-ordered at %v", file, b)
			}
			lastEntry = b.Entry
			if b.wnext != nil && b.wnext.wprev != b {
				return fmt.Errorf("writeback: queue %s back-link broken at %v", file, b)
			}
			n++
		}
		if n != fq.blocks || n != want[file] {
			return fmt.Errorf("writeback: queue %s holds %d blocks (counter %d), lists hold %d dirty",
				file, n, fq.blocks, want[file])
		}
		if (fq.head == nil) != (fq.tail == nil) {
			return fmt.Errorf("writeback: queue %s endpoints inconsistent", file)
		}
	}
	for file, n := range want {
		if n > 0 && q.files[file] == nil {
			return fmt.Errorf("writeback: dirty file %s has no queue", file)
		}
	}
	ringFiles := map[string]bool{}
	cursorOnRing := q.cursor == nil
	for fq := q.ringHead; fq != nil; fq = fq.next {
		if ringFiles[fq.file] {
			return fmt.Errorf("writeback: file %s on the ring twice", fq.file)
		}
		ringFiles[fq.file] = true
		if q.files[fq.file] != fq {
			return fmt.Errorf("writeback: ring entry %s not the mapped queue", fq.file)
		}
		if fq.next != nil && fq.next.prev != fq {
			return fmt.Errorf("writeback: ring back-link broken at %s", fq.file)
		}
		if fq == q.cursor {
			cursorOnRing = true
		}
	}
	if len(ringFiles) != len(q.files) {
		return fmt.Errorf("writeback: ring holds %d files, map holds %d", len(ringFiles), len(q.files))
	}
	if !cursorOnRing {
		return fmt.Errorf("writeback: cursor points off the ring")
	}
	return nil
}
