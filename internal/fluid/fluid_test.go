package fluid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/des"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleTransferTiming(t *testing.T) {
	k := des.NewKernel()
	s := NewSystem(k)
	disk := s.NewResource("disk", 100) // 100 B/s
	var end float64
	k.Spawn("app", func(p *des.Proc) {
		s.Transfer(1000, disk).Await(p)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(end, 10, 1e-9) {
		t.Fatalf("end = %v, want 10", end)
	}
}

func TestEqualSharing(t *testing.T) {
	k := des.NewKernel()
	s := NewSystem(k)
	disk := s.NewResource("disk", 100)
	var ends []float64
	for i := 0; i < 4; i++ {
		k.Spawn("app", func(p *des.Proc) {
			s.Transfer(1000, disk).Await(p)
			ends = append(ends, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 concurrent equal transfers share 100 B/s: each runs at 25 B/s → 40 s.
	for _, e := range ends {
		if !almost(e, 40, 1e-6) {
			t.Fatalf("ends = %v, want all 40", ends)
		}
	}
}

func TestStaggeredSharing(t *testing.T) {
	k := des.NewKernel()
	s := NewSystem(k)
	disk := s.NewResource("disk", 100)
	var endA, endB float64
	k.Spawn("a", func(p *des.Proc) {
		s.Transfer(1000, disk).Await(p)
		endA = p.Now()
	})
	k.Spawn("b", func(p *des.Proc) {
		p.Sleep(5)
		s.Transfer(250, disk).Await(p)
		endB = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// a alone [0,5): 500 done. Then shared at 50 B/s each; b finishes its 250
	// at t=10; a has 250 left, alone again at 100 B/s → t=12.5.
	if !almost(endB, 10, 1e-6) {
		t.Fatalf("endB = %v, want 10", endB)
	}
	if !almost(endA, 12.5, 1e-6) {
		t.Fatalf("endA = %v, want 12.5", endA)
	}
}

func TestMultiResourceBottleneck(t *testing.T) {
	k := des.NewKernel()
	s := NewSystem(k)
	link := s.NewResource("link", 1000)
	disk := s.NewResource("disk", 100)
	var end float64
	k.Spawn("a", func(p *des.Proc) {
		// NFS-style: constrained by both link and disk; disk is bottleneck.
		s.Start(500, 0, Use{link, 1}, Use{disk, 1}).Await(p)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(end, 5, 1e-6) {
		t.Fatalf("end = %v, want 5", end)
	}
}

func TestMaxMinCrossTraffic(t *testing.T) {
	// Classic max-min: flow X uses R1 only, flow Y uses R1+R2, flow Z uses R2
	// only. R1 cap 100, R2 cap 30. Y is limited by R2: share 15 with Z.
	// X then gets the R1 leftover: 85.
	k := des.NewKernel()
	s := NewSystem(k)
	r1 := s.NewResource("r1", 100)
	r2 := s.NewResource("r2", 30)
	x := s.Start(1e9, 0, Use{r1, 1})
	y := s.Start(1e9, 0, Use{r1, 1}, Use{r2, 1})
	z := s.Start(1e9, 0, Use{r2, 1})
	if !almost(y.Rate(), 15, 1e-9) || !almost(z.Rate(), 15, 1e-9) {
		t.Fatalf("y=%v z=%v, want 15/15", y.Rate(), z.Rate())
	}
	if !almost(x.Rate(), 85, 1e-9) {
		t.Fatalf("x = %v, want 85", x.Rate())
	}
}

func TestCoefficientWeighting(t *testing.T) {
	k := des.NewKernel()
	s := NewSystem(k)
	r := s.NewResource("r", 100)
	// a consumes 3 units per progress unit, b consumes 1.
	a := s.Start(1e9, 0, Use{r, 3})
	b := s.Start(1e9, 0, Use{r, 1})
	// Progressive filling: share = 100/(3+1) = 25 for both.
	if !almost(a.Rate(), 25, 1e-9) || !almost(b.Rate(), 25, 1e-9) {
		t.Fatalf("a=%v b=%v, want 25/25", a.Rate(), b.Rate())
	}
	if !almost(s.Utilization(r), 1, 1e-9) {
		t.Fatalf("utilization = %v, want 1", s.Utilization(r))
	}
}

func TestActivityBound(t *testing.T) {
	k := des.NewKernel()
	s := NewSystem(k)
	r := s.NewResource("r", 100)
	a := s.Start(1e9, 10, Use{r, 1}) // capped at 10
	b := s.Start(1e9, 0, Use{r, 1})
	if !almost(a.Rate(), 10, 1e-9) {
		t.Fatalf("a = %v, want 10", a.Rate())
	}
	if !almost(b.Rate(), 90, 1e-9) {
		t.Fatalf("b = %v, want 90 (leftover)", b.Rate())
	}
}

func TestBoundOnlyActivity(t *testing.T) {
	k := des.NewKernel()
	s := NewSystem(k)
	var end float64
	k.Spawn("a", func(p *des.Proc) {
		s.Start(100, 20).Await(p) // pure rate-limited activity, no resource
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(end, 5, 1e-6) {
		t.Fatalf("end = %v, want 5", end)
	}
}

func TestZeroWorkCompletesImmediately(t *testing.T) {
	k := des.NewKernel()
	s := NewSystem(k)
	r := s.NewResource("r", 100)
	var end float64
	k.Spawn("a", func(p *des.Proc) {
		p.Sleep(2)
		s.Transfer(0, r).Await(p)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 2 {
		t.Fatalf("end = %v, want 2", end)
	}
}

func TestSequentialTransfersAccumulate(t *testing.T) {
	k := des.NewKernel()
	s := NewSystem(k)
	r := s.NewResource("r", 50)
	var end float64
	k.Spawn("a", func(p *des.Proc) {
		for i := 0; i < 10; i++ {
			s.Transfer(100, r).Await(p)
		}
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(end, 20, 1e-6) {
		t.Fatalf("end = %v, want 20", end)
	}
	if s.InFlight() != 0 {
		t.Fatalf("in-flight = %d, want 0", s.InFlight())
	}
}

func TestReadWriteChannelsIndependent(t *testing.T) {
	k := des.NewKernel()
	s := NewSystem(k)
	rd := s.NewResource("disk.read", 100)
	wr := s.NewResource("disk.write", 100)
	var endR, endW float64
	k.Spawn("r", func(p *des.Proc) {
		s.Transfer(1000, rd).Await(p)
		endR = p.Now()
	})
	k.Spawn("w", func(p *des.Proc) {
		s.Transfer(1000, wr).Await(p)
		endW = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(endR, 10, 1e-6) || !almost(endW, 10, 1e-6) {
		t.Fatalf("endR=%v endW=%v, want 10/10 (no contention)", endR, endW)
	}
}

// Property: after any recompute, no resource's capacity is exceeded, and if
// any activity is live, at least one resource (or bound) is saturated.
func TestPropertyCapacityAndSaturation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := des.NewKernel()
		s := NewSystem(k)
		nres := 1 + rng.Intn(4)
		for i := 0; i < nres; i++ {
			s.NewResource("r", 10+rng.Float64()*1000)
		}
		nact := 1 + rng.Intn(8)
		for i := 0; i < nact; i++ {
			var uses []Use
			for j, r := range s.resources {
				if rng.Intn(2) == 0 || (j == len(s.resources)-1 && len(uses) == 0) {
					uses = append(uses, Use{r, 0.5 + rng.Float64()*2})
				}
			}
			s.Start(1e12, 0, uses...)
		}
		// Capacity constraint.
		for _, r := range s.resources {
			used := 0.0
			for _, a := range s.acts {
				for _, u := range a.uses {
					if u.Res == r {
						used += u.Coef * a.rate
					}
				}
			}
			if used > r.capacity*(1+1e-9) {
				return false
			}
		}
		// Work conservation: at least one resource saturated.
		saturated := false
		for _, r := range s.resources {
			if s.Utilization(r) > 1-1e-9 {
				saturated = true
			}
		}
		// All rates strictly positive.
		for _, a := range s.acts {
			if a.rate <= 0 {
				return false
			}
		}
		return saturated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: total transferred bytes equal requested bytes for random
// concurrent workloads (no work lost or duplicated by recomputes).
func TestPropertyWorkConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := des.NewKernel()
		s := NewSystem(k)
		r := s.NewResource("r", 100)
		n := 1 + rng.Intn(10)
		totalWork := 0.0
		maxEnd := 0.0
		okAll := true
		for i := 0; i < n; i++ {
			delay := rng.Float64() * 10
			work := 1 + rng.Float64()*1000
			totalWork += work
			k.Spawn("a", func(p *des.Proc) {
				p.Sleep(delay)
				a := s.Transfer(work, r)
				a.Await(p)
				if p.Now() > maxEnd {
					maxEnd = p.Now()
				}
				// An activity can never finish faster than work/capacity.
				if p.Now()-a.StartTime() < work/100-1e-6 {
					okAll = false
				}
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		// The busy span is at least totalWork/capacity.
		return okAll && maxEnd >= totalWork/100-1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidResourcePanics(t *testing.T) {
	k := des.NewKernel()
	s := NewSystem(k)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive capacity")
		}
	}()
	s.NewResource("bad", 0)
}

func TestNoResourceNoBoundPanics(t *testing.T) {
	k := des.NewKernel()
	s := NewSystem(k)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unconstrained activity")
		}
	}()
	s.Start(100, 0)
}

// Property: under randomized start/complete churn — random resource
// subsets, coefficients, bounds, and staggered timing — every index
// structure the incremental solver maintains stays consistent, and every
// live rate matches the full progressive-filling oracle bit for bit.
// CheckInvariants is probed mid-flight at random instants and after every
// completed step, not just at quiescence. Most steps run through Do, so the
// free list is churned and checked too.
func TestPropertyInvariantsUnderChurn(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := des.NewKernel()
		s := NewSystem(k)
		nres := 1 + rng.Intn(6)
		res := make([]*Resource, nres)
		for i := range res {
			res[i] = s.NewResource("r", 10+rng.Float64()*1000)
		}
		var invErr error
		check := func() {
			if invErr == nil {
				invErr = s.CheckInvariants()
			}
		}
		nproc := 3 + rng.Intn(10)
		for i := 0; i < nproc; i++ {
			delay := rng.Float64() * 5
			nops := 1 + rng.Intn(3)
			plans := make([][]Use, nops)
			bounds := make([]float64, nops)
			works := make([]float64, nops)
			for j := range plans {
				var uses []Use
				for ri, r := range res {
					if rng.Intn(3) == 0 || (ri == nres-1 && len(uses) == 0 && rng.Intn(2) == 0) {
						uses = append(uses, Use{r, 0.5 + rng.Float64()*2})
					}
				}
				if len(uses) == 0 || rng.Intn(4) == 0 {
					bounds[j] = 5 + rng.Float64()*100 // sometimes bound-only or bounded
				}
				works[j] = 1 + rng.Float64()*2000
				plans[j] = uses
			}
			k.Spawn("app", func(p *des.Proc) {
				p.Sleep(delay)
				for j := range plans {
					// Mostly Do, which recycles activities into the
					// free list that later Starts and Dos draw from.
					if (i+j)%3 == 0 {
						s.Start(works[j], bounds[j], plans[j]...).Await(p)
					} else {
						s.Do(p, works[j], bounds[j], plans[j]...)
					}
					check()
				}
			})
		}
		k.Spawn("monitor", func(p *des.Proc) {
			for i := 0; i < 25 && invErr == nil; i++ {
				p.Sleep(rng.Float64() * 2)
				check()
			}
		})
		if err := k.Run(); err != nil {
			t.Logf("seed %d: run: %v", seed, err)
			return false
		}
		check()
		if invErr != nil {
			t.Logf("seed %d: invariants: %v", seed, invErr)
			return false
		}
		if s.InFlight() != 0 {
			t.Logf("seed %d: %d activities still in flight", seed, s.InFlight())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// The O(1) Utilization counter must agree with a fresh scan over the live
// activity set (the pre-index implementation) on every resource, including
// resources that just drained to zero.
func TestUtilizationMatchesScan(t *testing.T) {
	k := des.NewKernel()
	s := NewSystem(k)
	res := make([]*Resource, 4)
	for i := range res {
		res[i] = s.NewResource("r", 50+float64(40*i))
	}
	rng := rand.New(rand.NewSource(7))
	checkAll := func() {
		for _, r := range res {
			scan := 0.0
			for _, a := range s.acts {
				for _, u := range a.uses {
					if u.Res == r {
						scan += u.Coef * a.rate
					}
				}
			}
			if !almost(s.Utilization(r), scan/r.capacity, 1e-9) {
				t.Fatalf("Utilization(%s) = %v, scan says %v", r.name, s.Utilization(r), scan/r.capacity)
			}
		}
	}
	k.Spawn("driver", func(p *des.Proc) {
		var acts []*Activity
		for i := 0; i < 12; i++ {
			var uses []Use
			for _, r := range res {
				if rng.Intn(2) == 0 {
					uses = append(uses, Use{r, 0.5 + rng.Float64()})
				}
			}
			if len(uses) == 0 {
				uses = append(uses, Use{res[i%len(res)], 1})
			}
			acts = append(acts, s.Start(500+rng.Float64()*500, 0, uses...))
			checkAll()
			p.Sleep(rng.Float64())
			checkAll()
		}
		for _, a := range acts {
			a.Await(p)
		}
		checkAll() // everything drained: all counters must be exactly zero
		for _, r := range res {
			if s.Utilization(r) != 0 {
				t.Fatalf("drained resource %s has utilization %v", r.name, s.Utilization(r))
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// A started activity must be solved together with the existing users of its
// resources, and a completion must re-solve everything transitively
// connected — including chains bridged by multi-resource activities.
func TestComponentBridging(t *testing.T) {
	k := des.NewKernel()
	s := NewSystem(k)
	r1 := s.NewResource("r1", 100)
	r2 := s.NewResource("r2", 100)
	a := s.Start(1e9, 0, Use{r1, 1})
	b := s.Start(1e9, 0, Use{r2, 1})
	if !almost(a.Rate(), 100, 1e-9) || !almost(b.Rate(), 100, 1e-9) {
		t.Fatalf("isolated rates %v/%v, want 100/100", a.Rate(), b.Rate())
	}
	// Bridge the two components: all three now share one max-min problem.
	c := s.Start(1e9, 0, Use{r1, 1}, Use{r2, 1})
	if !almost(a.Rate(), 50, 1e-9) || !almost(b.Rate(), 50, 1e-9) || !almost(c.Rate(), 50, 1e-9) {
		t.Fatalf("bridged rates %v/%v/%v, want 50/50/50", a.Rate(), b.Rate(), c.Rate())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSubResolutionCompletion pins the scheduleNext time-advance guard: a
// transfer whose completion time is smaller than one ulp of the current
// virtual clock must still complete (at the next representable instant)
// instead of retargeting a dt=0 event at the same time forever. Before the
// guard this test hung: 1 B at 1 GB/s needs 1e-9 s, but one ulp of t = 2^30
// is ~1.2e-7 s, so now + dt == now.
func TestSubResolutionCompletion(t *testing.T) {
	k := des.NewKernel()
	s := NewSystem(k)
	fast := s.NewResource("mem", 1e9)
	var end float64
	k.Spawn("app", func(p *des.Proc) {
		p.Sleep(1 << 30)
		s.Transfer(1, fast).Await(p)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end < 1<<30 || end > float64(1<<30)+1e-6 {
		t.Fatalf("end = %v, want just past 2^30", end)
	}
	if s.InFlight() != 0 {
		t.Fatalf("%d activities still in flight", s.InFlight())
	}
}

// Activity sits in the 128-byte allocation size class. Start allocates one
// per transfer, so a field that pushes it into the 144-byte class raises
// perfbench's alloc_mb_per_run on concurrent-local by about 4.6 %, close to
// that metric's 5 % regression bound.
func TestActivitySizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Activity{}); n > 128 {
		t.Fatalf("unsafe.Sizeof(Activity{}) = %d, want <= 128", n)
	}
}

// TestComponentOrderAfterSwapRemoval pins the order progressive filling
// visits a component's activities in: start order, not discovery order.
// A completion swap-removes from r1's list and leaves it out of start
// order; a later start then bridges r1 and r2 into one component, so a
// breadth-first discovery from the new activity's resources meets r2's
// users first and r1's out of order. The coefficients are not exact binary
// fractions, so summing the per-resource loads in any other order changes
// the rates' low bits, which CheckInvariants compares against the full
// solve after every start and every completion.
func TestComponentOrderAfterSwapRemoval(t *testing.T) {
	k := des.NewKernel()
	s := NewSystem(k)
	r1 := s.NewResource("r1", 1000)
	r2 := s.NewResource("r2", 5000)
	var invErr error
	check := func(what string) {
		if err := s.CheckInvariants(); err != nil && invErr == nil {
			invErr = fmt.Errorf("%s: %v", what, err)
		}
	}
	reordered := false
	start := func(what string, work float64, uses ...Use) *Activity {
		a := s.Start(work, 0, uses...)
		check("start " + what)
		k.Spawn("await "+what, func(p *des.Proc) {
			a.Await(p)
			check("completion of " + what)
		})
		return a
	}
	k.Spawn("driver", func(p *des.Proc) {
		short := start("a0", 10, Use{r1, 0.7})
		start("a1", 5e5, Use{r1, 0.1})
		start("a2", 6e5, Use{r1, 0.2})
		start("a3", 7e5, Use{r1, 0.3})
		short.Await(p)
		for i := 1; i < len(r1.acts); i++ {
			reordered = reordered || r1.acts[i].a.seq < r1.acts[i-1].a.seq
		}
		start("b", 4e5, Use{r2, 0.9})
		start("bridge", 8e5, Use{r2, 1.3}, Use{r1, 0.6})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !reordered {
		t.Fatal("r1's activity list was still in start order after the swap-removal")
	}
	check("drained")
	if invErr != nil {
		t.Fatal(invErr)
	}
	if s.InFlight() != 0 {
		t.Fatalf("%d activities still in flight", s.InFlight())
	}
}
