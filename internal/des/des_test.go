package des

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(2, func() { got = append(got, 2) })
	k.At(1, func() { got = append(got, 1) })
	k.At(3, func() { got = append(got, 3) })
	k.At(1, func() { got = append(got, 10) }) // same time: scheduling order
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 10, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 3 {
		t.Fatalf("Now = %v, want 3", k.Now())
	}
}

func TestEventOrderingRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	k := NewKernel()
	var times []float64
	var fired []float64
	for i := 0; i < 1000; i++ {
		tm := rng.Float64() * 100
		times = append(times, tm)
		k.At(tm, func() { fired = append(fired, tm) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	sort.Float64s(times)
	for i := range times {
		if fired[i] != times[i] {
			t.Fatalf("event %d fired at %v, want %v", i, fired[i], times[i])
		}
	}
}

func TestTimerCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	tm := k.At(1, func() { fired = true })
	tm.Cancel()
	tm.Cancel() // idempotent
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled timer fired")
	}
}

func TestNegativeDelayClamps(t *testing.T) {
	k := NewKernel()
	k.At(5, func() {})
	fired := -1.0
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.After(-3, func() { fired = k.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 5 {
		t.Fatalf("negative-delay event fired at %v, want 5", fired)
	}
}

func TestProcSleep(t *testing.T) {
	k := NewKernel()
	var marks []float64
	k.Spawn("a", func(p *Proc) {
		p.Sleep(1.5)
		marks = append(marks, p.Now())
		p.Sleep(2.5)
		marks = append(marks, p.Now())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(marks) != 2 || marks[0] != 1.5 || marks[1] != 4.0 {
		t.Fatalf("marks = %v", marks)
	}
}

func TestTwoProcsInterleave(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("a", func(p *Proc) {
		p.Sleep(1)
		order = append(order, "a1")
		p.Sleep(2) // t=3
		order = append(order, "a3")
	})
	k.Spawn("b", func(p *Proc) {
		p.Sleep(2)
		order = append(order, "b2")
		p.Sleep(2) // t=4
		order = append(order, "b4")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b2", "a3", "b4"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFutureBlocksAndWakes(t *testing.T) {
	k := NewKernel()
	f := NewFuture[int](k)
	got := 0
	k.Spawn("waiter", func(p *Proc) { got = f.Get(p) })
	k.Spawn("setter", func(p *Proc) {
		p.Sleep(3)
		f.Set(42)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
	if !f.IsSet() {
		t.Fatal("future not set")
	}
	if v, ok := f.Peek(); !ok || v != 42 {
		t.Fatalf("Peek = %v,%v", v, ok)
	}
}

func TestFutureGetAfterSet(t *testing.T) {
	k := NewKernel()
	f := NewFuture[string](k)
	f.Set("x")
	got := ""
	k.Spawn("w", func(p *Proc) { got = f.Get(p) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "x" {
		t.Fatalf("got %q", got)
	}
}

func TestFutureDoubleSetPanics(t *testing.T) {
	k := NewKernel()
	f := NewFuture[int](k)
	f.Set(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double Set")
		}
	}()
	f.Set(2)
}

func TestJoin(t *testing.T) {
	k := NewKernel()
	end := 0.0
	child := k.Spawn("child", func(p *Proc) { p.Sleep(7) })
	k.Spawn("parent", func(p *Proc) {
		p.Join(child)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 7 {
		t.Fatalf("join returned at %v, want 7", end)
	}
}

func TestSignalBroadcast(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	woke := 0
	for i := 0; i < 3; i++ {
		k.Spawn("w", func(p *Proc) {
			s.Wait(p)
			woke++
		})
	}
	k.Spawn("b", func(p *Proc) {
		p.Sleep(1)
		s.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 3 {
		t.Fatalf("woke = %d, want 3", woke)
	}
}

func TestSignalWaitTimeoutExpires(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	var signaled bool
	var when float64
	k.Spawn("w", func(p *Proc) {
		signaled = s.WaitTimeout(p, 5)
		when = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if signaled || when != 5 {
		t.Fatalf("signaled=%v when=%v, want timeout at 5", signaled, when)
	}
}

func TestSignalWaitTimeoutSignaled(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	var signaled bool
	var when float64
	k.Spawn("w", func(p *Proc) {
		signaled = s.WaitTimeout(p, 100)
		when = p.Now()
	})
	k.Spawn("b", func(p *Proc) {
		p.Sleep(3)
		s.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !signaled || when != 3 {
		t.Fatalf("signaled=%v when=%v, want broadcast at 3", signaled, when)
	}
}

func TestSignalTimeoutThenBroadcastNoDoubleWake(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	wakes := 0
	k.Spawn("w", func(p *Proc) {
		s.WaitTimeout(p, 1)
		wakes++
		p.Sleep(10) // stay alive past the broadcast
	})
	k.Spawn("b", func(p *Proc) {
		p.Sleep(5)
		s.Broadcast() // waiter already timed out; must not re-wake it
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wakes != 1 {
		t.Fatalf("wakes = %d", wakes)
	}
}

func TestSignalRepeatedTimeoutsDoNotLeak(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	k.Spawn("poller", func(p *Proc) {
		for i := 0; i < 100; i++ {
			s.WaitTimeout(p, 1)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.waiters) > 1 {
		t.Fatalf("waiter list leaked: %d entries", len(s.waiters))
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	k.Spawn("stuck", func(p *Proc) { s.Wait(p) })
	err := k.Run()
	de, ok := err.(*ErrDeadlock)
	if !ok {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck" {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

func TestSemaphore(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(k, 2)
	var finish []float64
	for i := 0; i < 4; i++ {
		k.Spawn("u", func(p *Proc) {
			sem.Acquire(p)
			p.Sleep(10)
			sem.Release()
			finish = append(finish, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Two run [0,10], two run [10,20].
	want := []float64{10, 10, 20, 20}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
	if sem.Available() != 2 {
		t.Fatalf("available = %d, want 2", sem.Available())
	}
}

func TestRunUntilHorizon(t *testing.T) {
	k := NewKernel()
	var fired []float64
	for _, tm := range []float64{1, 2, 3, 4} {
		tm := tm
		k.At(tm, func() { fired = append(fired, tm) })
	}
	if err := k.RunUntil(2.5); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || k.Now() != 2.5 {
		t.Fatalf("fired=%v now=%v", fired, k.Now())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 {
		t.Fatalf("fired=%v", fired)
	}
}

func TestSpawnFromProc(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(1)
		child := k.Spawn("child", func(c *Proc) {
			c.Sleep(1)
			order = append(order, "child@2")
		})
		order = append(order, "spawned@1")
		p.Join(child)
		order = append(order, "joined@2")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"spawned@1", "child@2", "joined@2"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var log []string
		for i := 0; i < 5; i++ {
			name := string(rune('a' + i))
			k.Spawn(name, func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(1)
					log = append(log, name)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a, b)
		}
	}
}

func TestSleepZeroYields(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a-pre")
		p.Sleep(0)
		order = append(order, "a-post")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// a yields at t=0, letting b (scheduled later but same time) run before a resumes.
	want := []string{"a-pre", "b", "a-post"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCancelUnlinksFromHeap(t *testing.T) {
	// Regression: canceled timers used to stay queued until their deadline,
	// so cancel-heavy load grew the heap without bound. Cancel now unlinks
	// the event immediately.
	k := NewKernel()
	for i := 0; i < 10000; i++ {
		tm := k.After(1e6+float64(i), func() { t.Error("canceled timer fired") })
		tm.Cancel()
	}
	if n := k.QueueLen(); n != 0 {
		t.Fatalf("queue holds %d events after cancel-only churn, want 0", n)
	}
	// The scheduleNext pattern: one live "completion" timer retargeted on
	// every step must keep the queue at O(live), not O(cancels).
	var next Timer
	steps := 0
	var step func()
	step = func() {
		next.Cancel()
		next = k.After(1e6+float64(steps), func() {})
		if qn := k.QueueLen(); qn > 3 {
			t.Fatalf("queue grew to %d events under retarget churn", qn)
		}
		if steps++; steps < 5000 {
			k.After(0.001, step)
		} else {
			next.Cancel()
		}
	}
	k.After(0, step)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 5000 {
		t.Fatalf("steps = %d", steps)
	}
}

func TestStaleTimerHandleAfterFire(t *testing.T) {
	// Event structs are pooled: a Timer handle kept across its event's
	// firing must become inert, even once the struct is recycled for a new
	// event.
	k := NewKernel()
	fired := 0
	old := k.At(1, func() { fired++ })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// The free list guarantees the next event reuses old's struct.
	k.At(2, func() { fired += 10 })
	old.Cancel() // stale handle: must not cancel the recycled event
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 11 {
		t.Fatalf("fired = %d, want 11 (stale Cancel must be a no-op)", fired)
	}
}

func TestSameTimeFastPathOrdering(t *testing.T) {
	// Events scheduled at the current time bypass the heap, but ordering
	// must still be global (time, seq): a heap event due at the same time
	// that was scheduled earlier fires first.
	k := NewKernel()
	var order []string
	k.At(5, func() { // seq 0
		order = append(order, "c1")
		k.At(5, func() { order = append(order, "x") })                // fast path
		canceled := k.At(5, func() { order = append(order, "dead") }) // fast path
		canceled.Cancel()
		k.At(3, func() { order = append(order, "w") }) // clamped to now, fast path
	})
	k.At(5, func() { order = append(order, "y") }) // seq 1: heap, fires before x
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"c1", "y", "x", "w"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCancelSameTimeEvent(t *testing.T) {
	k := NewKernel()
	fired := false
	k.Spawn("a", func(p *Proc) {
		tm := k.At(k.Now(), func() { fired = true })
		tm.Cancel()
		p.Sleep(1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled same-time event fired")
	}
}

func TestEventPoolRecycles(t *testing.T) {
	// Steady-state scheduling must reuse event structs: after a burst
	// drains, a second burst of the same size must not grow the pool's
	// footprint (proxied here by the queue staying exact-sized).
	k := NewKernel()
	n := 0
	for burst := 0; burst < 3; burst++ {
		for i := 0; i < 100; i++ {
			k.After(float64(i)/100, func() { n++ })
		}
		if got := k.QueueLen(); got != 100 {
			t.Fatalf("burst %d: queue = %d, want 100", burst, got)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if k.QueueLen() != 0 {
			t.Fatalf("burst %d: queue not drained", burst)
		}
	}
	if n != 300 {
		t.Fatalf("n = %d, want 300", n)
	}
}

// TestSleepWakeAllocatesNothing pins closure-free wakeups: once warmed up,
// a process looping over Sleep allocates nothing per wake.
func TestSleepWakeAllocatesNothing(t *testing.T) {
	k := NewKernel()
	stop := false
	wakes := 0
	k.Spawn("sleeper", func(p *Proc) {
		for !stop {
			p.Sleep(1)
			wakes++
		}
	})
	horizon := 10.0
	if err := k.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	before := wakes
	allocs := testing.AllocsPerRun(100, func() {
		horizon++
		if err := k.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
	})
	if wakes-before != 101 {
		t.Fatalf("%d wakes while measuring, want 101", wakes-before)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per Sleep wake, want 0", allocs)
	}
	stop = true
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFutureWakeAllocatesNothing pins closure-free Future wakeups: a waiter
// looping over Get and Reset on one future, woken by a setter once per
// virtual second, allocates nothing per wake once warmed up.
func TestFutureWakeAllocatesNothing(t *testing.T) {
	k := NewKernel()
	f := NewFuture[int](k)
	stop := false
	wakes := 0
	k.Spawn("waiter", func(p *Proc) {
		for {
			if f.Get(p) < 0 {
				return
			}
			f.Reset()
			wakes++
		}
	})
	k.Spawn("setter", func(p *Proc) {
		for {
			p.Sleep(1)
			if stop {
				f.Set(-1)
				return
			}
			f.Set(wakes)
		}
	})
	horizon := 10.0
	if err := k.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	before := wakes
	allocs := testing.AllocsPerRun(100, func() {
		horizon++
		if err := k.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
	})
	if wakes-before != 101 {
		t.Fatalf("%d wakes while measuring, want 101", wakes-before)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per Future wake, want 0", allocs)
	}
	stop = true
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSignalWaitTimeoutAllocatesNothing pins allocation-free Signal waits:
// once warmed up, a process whose timed wait expires every virtual second
// and one woken by a Broadcast every virtual second allocate nothing per
// wake.
func TestSignalWaitTimeoutAllocatesNothing(t *testing.T) {
	k := NewKernel()
	idle, kick := NewSignal(k), NewSignal(k)
	stop := false
	timeouts, broadcasts := 0, 0
	k.Spawn("poller", func(p *Proc) {
		for !stop {
			if !idle.WaitTimeout(p, 1) {
				timeouts++
			}
		}
	})
	k.Spawn("waiter", func(p *Proc) {
		for !stop {
			if kick.WaitTimeout(p, 10) {
				broadcasts++
			}
		}
	})
	k.Spawn("kicker", func(p *Proc) {
		for !stop {
			p.Sleep(1)
			kick.Broadcast()
		}
	})
	horizon := 10.5
	if err := k.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	t0, b0 := timeouts, broadcasts
	allocs := testing.AllocsPerRun(100, func() {
		horizon++
		if err := k.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
	})
	if timeouts-t0 != 101 || broadcasts-b0 != 101 {
		t.Fatalf("%d timeouts and %d broadcast wakes while measuring, want 101 each",
			timeouts-t0, broadcasts-b0)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per timed-out and broadcast wait, want 0", allocs)
	}
	stop = true
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// An entry a timed-out wait leaves on one Signal must not wake the same
// process's later wait on another Signal, and a Broadcast wakes the live
// waiters in wait order around such an entry.
func TestStaleSignalEntryDoesNotWakeLaterWait(t *testing.T) {
	k := NewKernel()
	first, second := NewSignal(k), NewSignal(k)
	var order []string
	var wokeAt float64
	k.Spawn("a", func(p *Proc) {
		first.WaitTimeout(p, 1) // times out, leaving its entry on first
		if second.WaitTimeout(p, 100) {
			wokeAt = p.Now()
		}
	})
	k.Spawn("b", func(p *Proc) {
		p.Sleep(2)
		first.Wait(p)
		order = append(order, "b")
	})
	k.Spawn("c", func(p *Proc) {
		p.Sleep(2)
		first.Wait(p)
		order = append(order, "c")
	})
	k.Spawn("kicker", func(p *Proc) {
		p.Sleep(3)
		first.Broadcast()
		p.Sleep(2)
		second.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 5 {
		t.Fatalf("a woke from second at %v, want 5 (its broadcast, not first's)", wokeAt)
	}
	if got := fmt.Sprint(order); got != "[b c]" {
		t.Fatalf("wake order %s, want [b c]", got)
	}
}

// Each process's coroutine ends with its function: once a thousand short
// processes have finished, the goroutine count is back at its baseline.
func TestFinishedProcsLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	for i := 0; i < 1000; i++ {
		k.Spawn("short", func(p *Proc) { p.Sleep(float64(i % 7)) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Goroutines outside this test (the testing framework's own) may still
	// be winding down; allow them a moment, never the 1000 coroutines.
	n := runtime.NumGoroutine()
	for try := 0; n > base && try < 100; try++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Fatalf("%d goroutines after 1000 finished processes, baseline %d", n, base)
	}
}

func TestFutureResetRearms(t *testing.T) {
	k := NewKernel()
	f := NewFuture[string](k)
	var got []string
	k.Spawn("waiter", func(p *Proc) {
		got = append(got, f.Get(p))
		f.Reset()
		if f.IsSet() {
			t.Error("IsSet after Reset")
		}
		if v, ok := f.Peek(); ok || v != "" {
			t.Errorf("Peek after Reset = %q,%v, want zero value, false", v, ok)
		}
		got = append(got, f.Get(p))
	})
	k.Spawn("setter", func(p *Proc) {
		p.Sleep(1)
		f.Set("first")
		p.Sleep(1)
		f.Set("second")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("got %v, want [first second]", got)
	}
}

func TestFutureResetUnresolvedPanics(t *testing.T) {
	f := NewFuture[int](NewKernel())
	defer func() {
		if recover() == nil {
			t.Fatal("Reset of an unresolved future did not panic")
		}
	}()
	f.Reset()
}

// A waiter woken by Set has not returned from Get until its resumption
// event runs; a Reset before then would strand it, so Reset panics.
func TestFutureResetAwaitedPanics(t *testing.T) {
	k := NewKernel()
	f := NewFuture[int](k)
	got := 0
	k.Spawn("waiter", func(p *Proc) { got = f.Get(p) })
	panicked := false
	k.At(1, func() {
		f.Set(7)
		defer func() { panicked = recover() != nil }()
		f.Reset()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("Reset of an awaited future did not panic")
	}
	if got != 7 {
		t.Fatalf("waiter got %d, want 7", got)
	}
}

// The deadlock report lists parked processes in spawn order however they
// came to park, so a deadlocked run's error text is the same every time.
func TestDeadlockReportSpawnOrder(t *testing.T) {
	for run := 0; run < 20; run++ {
		k := NewKernel()
		s := NewSignal(k)
		// a parks last and c first; sleeping in between reorders the
		// parked set by swap-removal.
		k.Spawn("a", func(p *Proc) { p.Sleep(2); s.Wait(p) })
		k.Spawn("b", func(p *Proc) { p.Sleep(1); s.Wait(p) })
		k.Spawn("c", func(p *Proc) { s.Wait(p) })
		err := k.Run()
		de, ok := err.(*ErrDeadlock)
		if !ok {
			t.Fatalf("run %d: err = %v, want ErrDeadlock", run, err)
		}
		if got := fmt.Sprint(de.Blocked); got != "[a b c]" {
			t.Fatalf("run %d: blocked = %s, want [a b c]", run, got)
		}
	}
}

// A same-time burst that never lets the same-time FIFO drain (processes
// yielding with Sleep(0) forever at one instant) must reuse the FIFO's
// consumed prefix instead of growing it by one slot per event.
func TestSameTimeBurstKeepsQueueBounded(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 4; i++ {
		k.Spawn("yielder", func(p *Proc) {
			for j := 0; j < 10000; j++ {
				p.Sleep(0)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 0 {
		t.Fatalf("Now = %v, want 0", k.Now())
	}
	if c := cap(k.fastq); c > 64 {
		t.Fatalf("same-time FIFO grew to capacity %d for 4 live yielders", c)
	}
}

// A panic inside a process ends the run with a *ProcPanic naming the
// process, instead of killing the program; the kernel then stays stopped.
func TestProcPanicBecomesRunError(t *testing.T) {
	k := NewKernel()
	var after bool
	k.Spawn("steady", func(p *Proc) {
		p.Sleep(5)
		after = true
	})
	k.Spawn("faulty", func(p *Proc) {
		p.Sleep(1)
		panic("invariant broken")
	})
	err := k.Run()
	pp, ok := err.(*ProcPanic)
	if !ok {
		t.Fatalf("err = %v, want *ProcPanic", err)
	}
	if pp.Proc != "faulty" || pp.Value != "invariant broken" {
		t.Fatalf("panic = %q %v, want faulty / invariant broken", pp.Proc, pp.Value)
	}
	if k.Now() != 1 {
		t.Fatalf("Now = %v, want the panic's time 1", k.Now())
	}
	if !strings.Contains(pp.Error(), `process "faulty" panicked: invariant broken`) ||
		!strings.Contains(pp.Error(), "TestProcPanicBecomesRunError") {
		t.Fatalf("error lacks the process name, value or stack:\n%s", pp.Error())
	}
	if err := k.Run(); err != pp {
		t.Fatalf("second Run = %v, want the same panic", err)
	}
	if after {
		t.Fatal("the kernel ran on past the panic")
	}
}
