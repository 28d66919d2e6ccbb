//go:build go1.23

// The go1.23 build tag lets this file use iter.Pull while the root go.mod
// still declares go 1.22, as perfbench's go.mod does; it goes when the next
// benchmark change bumps both go.mod files.

package des

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Proc is a simulated process: a coroutine that runs cooperatively under the
// kernel. The kernel resumes it with a direct coroutine switch and every
// blocking call switches straight back, so only one process (or the kernel
// loop) executes at a time and no handoff goes through the Go scheduler.
//
// The coroutine is created at the process's start event, not in Spawn, and
// its goroutine exits when the process's function returns.
//
// A Proc must only be used from its own coroutine (the function passed to
// Spawn). Kernel callbacks must never call parking methods.
type Proc struct {
	k       *Kernel
	name    string
	id      uint64 // spawn sequence number
	parkIdx int    // index in k.parked while parked
	// fn is the process body until the start event hands it to the
	// coroutine; next resumes the coroutine and yield, called from inside
	// it, switches back to the kernel.
	fn         func(p *Proc)
	next       func() (struct{}, bool)
	yield      func(struct{}) bool
	terminated bool
	done       *Future[struct{}]
	// wait is the process's current (or last) Signal wait, and onTimeout
	// the timer callback ending it, built on the first timed wait.
	wait      sigWait
	onTimeout func()
}

// Spawn creates a process executing fn, scheduled to start at the current
// virtual time. It returns immediately; the process runs once the kernel
// reaches its start event. A panic in fn terminates the process and makes
// the kernel's Run return a *ProcPanic.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, id: k.procSeq, fn: fn}
	k.procSeq++
	p.done = NewFuture[struct{}](k)
	k.wake(p)
	return p
}

// run is the coroutine body: it executes the process function, records a
// panic, and resolves the process's done future before the coroutine ends.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	k := p.k
	defer func() {
		if r := recover(); r != nil && k.panicked == nil {
			k.panicked = &ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()}
		}
		p.terminated = true
		p.done.Set(struct{}{})
	}()
	fn := p.fn
	p.fn = nil
	fn(p)
}

// ProcPanic is the error Run returns when a simulated process panicked. The
// kernel stops at the event that resumed the process and refuses to run
// again: the model state the process left behind is not trustworthy, and
// the processes still parked stay parked.
type ProcPanic struct {
	Proc  string // name of the process
	Value any    // the value passed to panic
	Stack []byte // the process's stack at the panic
}

func (e *ProcPanic) Error() string {
	return fmt.Sprintf("des: process %q panicked: %v\n%s", e.Proc, e.Value, e.Stack)
}

// switchTo resumes p, creating its coroutine on the first call (the start
// event), and returns once p parks again or terminates. Must be called from
// kernel context.
func (k *Kernel) switchTo(p *Proc) {
	if p.terminated {
		return
	}
	if p.next == nil {
		p.next, _ = iter.Pull(p.run)
	}
	if _, running := p.next(); !running {
		p.next, p.yield = nil, nil
	}
}

// park switches back to the kernel and returns when some event resumes this
// process. A wakeup must already be registered, otherwise the kernel will
// report a deadlock when the queue drains.
func (p *Proc) park() {
	k := p.k
	p.parkIdx = len(k.parked)
	k.parked = append(k.parked, p)
	p.yield(struct{}{})
	last := len(k.parked) - 1
	moved := k.parked[last]
	k.parked[p.parkIdx] = moved
	moved.parkIdx = p.parkIdx
	k.parked[last] = nil
	k.parked = k.parked[:last]
}

// Name returns the process name (used in diagnostics).
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.k.now }

// Sleep suspends the process for d virtual seconds (d ≤ 0 yields without
// advancing time, allowing same-time events scheduled earlier to run).
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		d = 0
	}
	p.k.wakeAt(p.k.now+d, p)
	p.park()
}

// Join blocks until q terminates.
func (p *Proc) Join(q *Proc) { q.done.Get(p) }

// Done returns a future resolved when the process terminates.
func (p *Proc) Done() *Future[struct{}] { return p.done }

func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }

// Future is a write-once value that processes can block on; Reset re-arms
// a resolved one for reuse. The zero value is invalid; use NewFuture.
type Future[T any] struct {
	k       *Kernel
	set     bool
	val     T
	waiters []*Proc
	// inGet counts processes inside Get that have not yet returned: parked
	// ones, and woken ones whose resumption is still queued.
	inGet int
}

// NewFuture returns an unresolved future bound to k.
func NewFuture[T any](k *Kernel) *Future[T] {
	return &Future[T]{k: k}
}

// Set resolves the future and wakes all waiters (at the current virtual
// time, in wait order). Setting a resolved future panics: futures are
// write-once until Reset.
func (f *Future[T]) Set(v T) {
	if f.set {
		panic("des: Future.Set called twice")
	}
	f.set = true
	f.val = v
	for _, w := range f.waiters {
		f.k.wake(w)
	}
	clear(f.waiters)
	f.waiters = f.waiters[:0]
}

// Reset re-arms a resolved future so it can be Set again, keeping its
// waiter list's backing array. It panics if the future is unresolved, or if
// a process woken by the last Set has not yet returned from Get: that
// process would otherwise see the future unresolved and park again.
func (f *Future[T]) Reset() {
	if !f.set {
		panic("des: Future.Reset on an unresolved future")
	}
	if f.inGet > 0 {
		panic("des: Future.Reset while a process waits on the future")
	}
	var zero T
	f.set = false
	f.val = zero
}

// IsSet reports whether the future has been resolved.
func (f *Future[T]) IsSet() bool { return f.set }

// Get blocks p until the future resolves, then returns the value.
func (f *Future[T]) Get(p *Proc) T {
	for !f.set {
		f.waiters = append(f.waiters, p)
		f.inGet++
		p.park()
		f.inGet--
	}
	return f.val
}

// Peek returns the value and whether it was set, without blocking.
func (f *Future[T]) Peek() (T, bool) { return f.val, f.set }

// Signal is a broadcast condition variable for processes. Waiters park until
// the next Broadcast; there is no counting (a Broadcast with no waiters is
// lost), matching classic condition-variable semantics.
//
// A wait allocates nothing once warmed up: its state lives in the waiting
// Proc, and the Signal queues only (process, generation) entries. An entry
// is live while its generation is the process's current wait and that wait
// has not ended, so an entry a timed-out wait leaves behind on one Signal
// can never wake a later wait on another.
type Signal struct {
	k       *Kernel
	waiters []sigEntry
}

// sigEntry is one wait's place in a Signal's waiter list.
type sigEntry struct {
	p   *Proc
	gen uint64
}

// live reports whether the entry's wait is still pending.
func (e sigEntry) live() bool { return e.gen == e.p.wait.gen && !e.p.wait.done }

// sigWait is a process's record of its current (or last) Signal wait.
type sigWait struct {
	gen      uint64 // bumped by every wait
	timer    Timer  // zero value when waiting without timeout
	done     bool
	signaled bool
}

// NewSignal returns a Signal bound to k.
func NewSignal(k *Kernel) *Signal { return &Signal{k: k} }

// Wait parks p until the next Broadcast.
func (s *Signal) Wait(p *Proc) { s.WaitTimeout(p, -1) }

// WaitTimeout parks p until the next Broadcast or until d seconds elapse
// (d < 0 waits forever). It reports whether the wakeup was a Broadcast.
func (s *Signal) WaitTimeout(p *Proc, d float64) bool {
	// Compact ended entries so repeated timeouts do not accumulate.
	live := s.waiters[:0]
	for _, e := range s.waiters {
		if e.live() {
			live = append(live, e)
		}
	}
	clear(s.waiters[len(live):])
	s.waiters = live
	w := &p.wait
	w.gen++
	w.done, w.signaled, w.timer = false, false, Timer{}
	s.waiters = append(s.waiters, sigEntry{p: p, gen: w.gen})
	if d >= 0 {
		if p.onTimeout == nil {
			p.onTimeout = func() {
				if p.wait.done {
					return
				}
				p.wait.done = true
				p.k.switchTo(p)
			}
		}
		w.timer = s.k.After(d, p.onTimeout)
	}
	p.park()
	return w.signaled
}

// Broadcast wakes every current waiter at the current virtual time.
func (s *Signal) Broadcast() {
	for _, e := range s.waiters {
		if !e.live() {
			continue
		}
		w := &e.p.wait
		w.done = true
		w.signaled = true
		w.timer.Cancel()
		s.k.wake(e.p)
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0]
}

// Semaphore is a counting semaphore used e.g. to model CPU cores: at most
// cap processes hold a unit simultaneously; further acquirers queue FIFO.
type Semaphore struct {
	k       *Kernel
	avail   int
	waiters []*Proc
}

// NewSemaphore returns a semaphore with n available units.
func NewSemaphore(k *Kernel, n int) *Semaphore {
	if n < 0 {
		panic("des: negative semaphore capacity")
	}
	return &Semaphore{k: k, avail: n}
}

// Acquire takes one unit, parking p until one is available.
func (s *Semaphore) Acquire(p *Proc) {
	if s.avail > 0 {
		s.avail--
		return
	}
	s.waiters = append(s.waiters, p)
	p.park()
	// Ownership was transferred directly by Release; avail untouched.
}

// Release returns one unit, waking the longest-waiting process if any.
func (s *Semaphore) Release() {
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.k.wake(w)
		return
	}
	s.avail++
}

// Available reports the number of free units (waiters imply zero).
func (s *Semaphore) Available() int { return s.avail }
