// Package des implements a deterministic discrete-event simulation kernel
// with cooperative coroutine processes, in the style of SimGrid actors (the
// substrate the paper's WRENCH implementation runs on).
//
// Each process is a coroutine (iter.Pull). The kernel loop resumes a process
// with a direct coroutine switch, and the process switches straight back
// whenever it blocks (Sleep, Future.Get, Signal.Wait, ...), so exactly one of
// them runs at any instant and no handoff passes through the Go scheduler.
// That makes executions fully deterministic: events fire in (time, sequence)
// order, and sequence numbers are allocated deterministically.
//
// # Complexity of the event core
//
// The kernel is sized for long simulations that schedule and cancel events
// at every step (the fluid model retargets its "next completion" timer on
// nearly every activity start/completion), so the event core is kept lean:
//
//	At/After, future time       O(log n) heap push
//	At/After, current time      O(1) — same-time FIFO, bypasses the heap
//	Timer.Cancel, queued event  O(log n) heap unlink via the tracked index
//	                            (canceled events leave the queue at once
//	                            instead of rotting until their deadline)
//	Timer.Cancel, fired/stale   O(1) no-op (generation check)
//	event dispatch              O(log n) pop, O(1) for same-time events
//
// event structs are recycled through a free list, so steady-state
// scheduling does not allocate; a generation counter makes Timer handles
// to recycled events harmlessly stale.
//
// # Process wakeups
//
// Every wakeup of a parked process (Spawn's start, Sleep, Future.Set,
// Signal.Broadcast, Semaphore.Release) is a pooled event that carries the
// process itself instead of a "resume p" closure, so a wakeup allocates
// nothing. A Signal wait keeps its state in the waiting Proc and reuses one
// timeout callback per Proc, so timed waits allocate nothing either. The parked set is a slice with each process's index tracked, so
// parking and resuming are O(1) appends and swap-removals. A Future's
// waiter list keeps its backing array across Set, and Future.Reset re-arms
// a resolved future for reuse: a process that loops over Sleep or over a
// recycled Future allocates nothing per wake once warmed up.
package des

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"
)

// event is a scheduled callback, or the wakeup of a parked process. Events
// with equal times fire in scheduling order (seq), which keeps runs
// reproducible.
type event struct {
	t   float64
	seq uint64
	fn  func()
	// p, when set, is the process this event resumes (fn is then nil).
	p        *Proc
	canceled bool
	// index is the position in the kernel's event heap, or one of the
	// sentinels below for events outside the heap.
	index int
	// gen is bumped every time the event struct is released to the free
	// list; Timer handles snapshot it so a handle to a recycled event
	// cannot cancel the event's next incarnation.
	gen uint64
	k   *Kernel
}

const (
	eventFired = -1 // fired, canceled, or sitting in the free list
	eventFast  = -2 // queued in the same-time FIFO, not the heap
)

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Timer is a handle on a scheduled event that can be canceled before it
// fires. Canceling an already-fired timer is a no-op. It is a small value
// (the zero value is an inert handle), so scheduling does not allocate
// beyond the pooled event itself.
type Timer struct {
	ev  *event
	gen uint64
}

// Cancel prevents the timer's callback from running. A heap-queued event is
// unlinked immediately (O(log n)), so cancel-heavy workloads do not grow
// the event queue. Safe to call multiple times.
func (t Timer) Cancel() {
	if t.ev == nil {
		return
	}
	e := t.ev
	if e.gen != t.gen {
		return // already fired or recycled
	}
	switch {
	case e.index >= 0:
		k := e.k
		heap.Remove(&k.events, e.index)
		k.release(e)
	case e.index == eventFast:
		// Same-time FIFO entries are about to fire anyway; flag them and
		// let the dispatch loop skip and recycle them.
		e.canceled = true
	}
}

// Kernel is the simulation engine: a virtual clock plus an event queue.
// The zero value is not usable; call NewKernel.
type Kernel struct {
	now    float64
	seq    uint64
	events eventHeap
	// fastq holds events scheduled at the current virtual time: they fire
	// before the clock can advance, so they never need heap ordering. The
	// slice is consumed from fastHead and recycled when drained, or
	// compacted when full with its consumed prefix at least half of it (a
	// long same-time burst of handoffs may never drain it).
	fastq    []*event
	fastHead int
	free     []*event
	// parked holds the processes waiting for a wakeup event, in no
	// particular order; each Proc records its index for O(1) removal.
	parked  []*Proc
	procSeq uint64 // spawn sequence number of the next process
	running bool
	// panicked is the first process panic; once set, Run returns it.
	panicked *ProcPanic
}

// NewKernel returns an empty simulation at time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// newEvent takes an event struct from the free list (or allocates one) and
// stamps it with the next sequence number.
func (k *Kernel) newEvent(t float64, fn func(), p *Proc) *event {
	var e *event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		e = &event{k: k}
	}
	e.t = t
	e.seq = k.seq
	e.fn = fn
	e.p = p
	e.canceled = false
	k.seq++
	return e
}

// release returns a fired or canceled event to the free list, invalidating
// outstanding Timer handles via the generation counter.
func (k *Kernel) release(e *event) {
	e.fn = nil
	e.p = nil
	e.index = eventFired
	e.gen++
	k.free = append(k.free, e)
}

// At schedules fn to run at absolute virtual time t (clamped to now).
// Events at the current time bypass the heap entirely.
func (k *Kernel) At(t float64, fn func()) Timer {
	e := k.schedule(t, fn, nil)
	return Timer{ev: e, gen: e.gen}
}

// wakeAt schedules the resumption of parked process p at absolute virtual
// time t (clamped to now), without a closure.
func (k *Kernel) wakeAt(t float64, p *Proc) { k.schedule(t, nil, p) }

// wake schedules the resumption of parked process p at the current time.
func (k *Kernel) wake(p *Proc) { k.schedule(k.now, nil, p) }

// schedule queues an event running fn, or resuming p, at time t (clamped
// to now).
func (k *Kernel) schedule(t float64, fn func(), p *Proc) *event {
	if t <= k.now {
		e := k.newEvent(k.now, fn, p)
		e.index = eventFast
		if n := len(k.fastq); n == cap(k.fastq) && 2*k.fastHead >= n {
			m := copy(k.fastq, k.fastq[k.fastHead:])
			clear(k.fastq[m:])
			k.fastq = k.fastq[:m]
			k.fastHead = 0
		}
		k.fastq = append(k.fastq, e)
		return e
	}
	e := k.newEvent(t, fn, p)
	heap.Push(&k.events, e)
	return e
}

// After schedules fn to run d seconds from now.
func (k *Kernel) After(d float64, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// Warp advances the virtual clock by delta seconds and shifts every pending
// event — heap and same-time FIFO alike — by the same amount. A uniform
// shift preserves every (time, seq) ordering, so the heap needs no
// re-ordering and determinism is untouched: the simulation resumes exactly
// where it was, delta seconds later. This is the fast-forward primitive —
// skipping a steady-state span analytically means warping the clock past it
// while periodic machinery (flusher timers, samplers) keeps its relative
// phase. Negative deltas are rejected: the clock is monotonic.
func (k *Kernel) Warp(delta float64) {
	if delta < 0 {
		panic(fmt.Sprintf("des: Warp by negative delta %g", delta))
	}
	if delta == 0 {
		return
	}
	k.now += delta
	for _, e := range k.events {
		e.t += delta
	}
	for i := k.fastHead; i < len(k.fastq); i++ {
		k.fastq[i].t += delta
	}
}

// ErrDeadlock is returned by Run when processes remain parked but no event
// can ever wake them.
type ErrDeadlock struct {
	Blocked []string // names of parked processes
}

func (e *ErrDeadlock) Error() string {
	return fmt.Sprintf("des: deadlock: %d process(es) parked with empty event queue: %v",
		len(e.Blocked), e.Blocked)
}

// Run executes events until the queue drains, then reports a deadlock error
// if any spawned process is still parked (a real modeling bug, e.g. a Wait
// with no matching Broadcast).
func (k *Kernel) Run() error { return k.RunUntil(-1) }

// RunUntil executes events with time ≤ horizon (horizon < 0 means no bound).
// Events beyond the horizon remain queued; the clock advances to the horizon
// if it was reached. If a process panics, RunUntil stops and returns the
// *ProcPanic, then and on every later call.
func (k *Kernel) RunUntil(horizon float64) error {
	if k.running {
		return fmt.Errorf("des: Run called re-entrantly")
	}
	if k.panicked != nil {
		return k.panicked
	}
	k.running = true
	defer func() { k.running = false }()
	for {
		// Peek the earliest event across the same-time FIFO and the heap.
		// FIFO entries fire at k.now; a heap event also due at k.now fires
		// first only if it was scheduled earlier (smaller seq).
		var next *event
		fromHeap := false
		if k.fastHead < len(k.fastq) {
			next = k.fastq[k.fastHead]
			if len(k.events) > 0 && k.events[0].t <= next.t && k.events[0].seq < next.seq {
				next = k.events[0]
				fromHeap = true
			}
		} else if len(k.events) > 0 {
			next = k.events[0]
			fromHeap = true
		} else {
			break
		}
		if horizon >= 0 && next.t > horizon {
			k.now = horizon
			return nil
		}
		if fromHeap {
			heap.Pop(&k.events)
		} else {
			k.fastq[k.fastHead] = nil
			k.fastHead++
			if k.fastHead == len(k.fastq) {
				k.fastq = k.fastq[:0]
				k.fastHead = 0
			}
		}
		if next.canceled {
			k.release(next)
			continue
		}
		k.now = next.t
		fn, p := next.fn, next.p
		k.release(next)
		if p != nil {
			k.switchTo(p)
		} else {
			fn()
		}
		if k.panicked != nil {
			return k.panicked
		}
	}
	if len(k.parked) > 0 {
		return &ErrDeadlock{Blocked: k.parkedNames()}
	}
	return nil
}

// QueueLen reports the number of queued events (heap plus same-time FIFO),
// including not-yet-collected canceled same-time entries. It exists for
// tests and diagnostics.
func (k *Kernel) QueueLen() int { return len(k.events) + len(k.fastq) - k.fastHead }

// parkedNames lists the parked processes in spawn order, so a deadlock
// report reads the same on every run.
func (k *Kernel) parkedNames() []string {
	ps := slices.Clone(k.parked)
	slices.SortFunc(ps, func(a, b *Proc) int { return cmp.Compare(a.id, b.id) })
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.name
	}
	return names
}
