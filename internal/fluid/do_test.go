package fluid

import (
	"testing"

	"repro/internal/des"
)

// TestDoAllocatesNothing pins the allocation-free I/O step: once warmed up,
// processes looping Do on a shared resource allocate nothing, in fluid or
// in des. Each measured step advances the kernel by one round, in which
// every process completes one Do and starts the next.
func TestDoAllocatesNothing(t *testing.T) {
	const procs, roundS = 4, 4.0 // 4 × 100 units at 100 units/s
	k := des.NewKernel()
	s := NewSystem(k)
	r := s.NewResource("disk", 100)
	stop := false
	calls := 0
	for i := 0; i < procs; i++ {
		k.Spawn("app", func(p *des.Proc) {
			for !stop {
				s.Do(p, 100, 0, Use{Res: r, Coef: 1})
				calls++
			}
		})
	}
	horizon := 10 * roundS
	if err := k.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	before := calls
	allocs := testing.AllocsPerRun(100, func() {
		horizon += roundS
		if err := k.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
	})
	if calls == before {
		t.Fatal("no Do completed while measuring")
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per round of %d Dos, want 0", allocs, procs)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	stop = true
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if s.InFlight() != 0 {
		t.Fatalf("in-flight = %d, want 0", s.InFlight())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDoRecyclesActivities checks that Do's free list feeds later starts:
// sequential Dos reuse one activity, and an asynchronous Start takes a
// recycled activity too, with fresh state.
func TestDoRecyclesActivities(t *testing.T) {
	k := des.NewKernel()
	s := NewSystem(k)
	r := s.NewResource("disk", 100)
	var ends []float64
	var started *Activity
	k.Spawn("app", func(p *des.Proc) {
		for i := 0; i < 3; i++ {
			s.Do(p, 100, 0, Use{Res: r, Coef: 1})
			ends = append(ends, p.Now())
		}
		if len(s.free) != 1 {
			t.Errorf("free list holds %d activities after sequential Dos, want 1", len(s.free))
		}
		started = s.Start(50, 0, Use{Res: r, Coef: 1})
		if len(s.free) != 0 {
			t.Errorf("Start left %d activities on the free list, want 0", len(s.free))
		}
		if started.Done().IsSet() || started.Remaining() != 50 || started.StartTime() != 3 {
			t.Errorf("recycled activity not fresh: set=%v remaining=%v start=%v",
				started.Done().IsSet(), started.Remaining(), started.StartTime())
		}
		started.Await(p)
		ends = append(ends, p.Now())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 3.5}
	if len(ends) != len(want) {
		t.Fatalf("ends = %v, want %v", ends, want)
	}
	for i := range want {
		if !almost(ends[i], want[i], 1e-9) {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDoZeroAndSubEpsilonWork covers the two paths where an activity never
// joins the live set: zero work completes on a same-time event and
// sub-epsilon work completes inside start. Both must still be recycled
// detached.
func TestDoZeroAndSubEpsilonWork(t *testing.T) {
	k := des.NewKernel()
	s := NewSystem(k)
	r := s.NewResource("disk", 100)
	k.Spawn("app", func(p *des.Proc) {
		s.Do(p, 0, 0, Use{Res: r, Coef: 1})
		s.Do(p, 1e-7, 0, Use{Res: r, Coef: 1})
		s.Do(p, 100, 0, Use{Res: r, Coef: 1})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(k.Now(), 1, 1e-9) {
		t.Fatalf("finished at %v, want 1", k.Now())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
