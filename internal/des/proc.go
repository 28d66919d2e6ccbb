package des

import (
	"fmt"
	"runtime/debug"
)

// Proc is a simulated process: a goroutine that runs cooperatively under the
// kernel. Only one process (or the kernel loop) executes at a time; every
// blocking call parks the goroutine and returns the token to the kernel.
//
// A Proc must only be used from its own goroutine (the function passed to
// Spawn). Kernel callbacks must never call parking methods.
type Proc struct {
	k          *Kernel
	name       string
	id         uint64 // spawn sequence number
	parkIdx    int    // index in k.parked while parked
	resume     chan struct{}
	terminated bool
	done       *Future[struct{}]
}

// Spawn creates a process executing fn, scheduled to start at the current
// virtual time. It returns immediately; the process runs once the kernel
// reaches its start event. A panic in fn terminates the process and makes
// the kernel's Run return a *ProcPanic.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, id: k.procSeq, resume: make(chan struct{})}
	k.procSeq++
	p.done = NewFuture[struct{}](k)
	k.live++
	go func() {
		<-p.resume // wait for the start event to hand us the token
		defer func() {
			if r := recover(); r != nil && k.panicked == nil {
				k.panicked = &ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()}
			}
			p.terminated = true
			k.live--
			p.done.Set(struct{}{})
			k.yield <- struct{}{} // final token handoff; goroutine exits
		}()
		fn(p)
	}()
	k.wake(p)
	return p
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

// switchTo hands the execution token to p and blocks the kernel until p
// parks again or terminates. Must be called from kernel context.
func (k *Kernel) switchTo(p *Proc) {
	if p.terminated {
		return
	}
	p.resume <- struct{}{}
	<-k.yield
}

// park yields the token back to the kernel and blocks until some event
// resumes this process. A wakeup must already be registered, otherwise the
// kernel will report a deadlock when the queue drains.
func (p *Proc) park() {
	k := p.k
	p.parkIdx = len(k.parked)
	k.parked = append(k.parked, p)
	k.yield <- struct{}{}
	<-p.resume
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
type Signal struct {
	k       *Kernel
	waiters []*sigWaiter
}

type sigWaiter struct {
	p        *Proc
	timer    Timer // zero value when waiting without timeout
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
	// Compact timed-out entries so repeated timeouts do not accumulate.
	live := s.waiters[:0]
	for _, old := range s.waiters {
		if !old.done {
			live = append(live, old)
		}
	}
	s.waiters = live
	w := &sigWaiter{p: p}
	s.waiters = append(s.waiters, w)
	if d >= 0 {
		w.timer = s.k.After(d, func() {
			if w.done {
				return
			}
			w.done = true
			s.k.switchTo(w.p)
		})
	}
	p.park()
	return w.signaled
}

// Broadcast wakes every current waiter at the current virtual time.
func (s *Signal) Broadcast() {
	for _, w := range s.waiters {
		if w.done {
			continue
		}
		w.done = true
		w.signaled = true
		w.timer.Cancel()
		s.k.wake(w.p)
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
