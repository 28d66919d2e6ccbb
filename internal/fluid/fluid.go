// Package fluid implements a SimGrid-style fluid ("macroscopic") resource
// model on top of the des kernel: concurrent activities progress at rates
// determined by max-min fair sharing over one or more capacity-constrained
// resources (disk channels, memory channels, network links).
//
// Whenever an activity starts or completes, rates are recomputed with a
// progressive-filling algorithm and the next completion event is
// rescheduled. This is the bandwidth-sharing model the paper relies on:
// "These models account for bandwidth sharing between concurrent memory or
// disk accesses" (§III.A).
//
// # Complexity of the solver
//
// Rates only change for activities that share a resource — directly or
// transitively — with the activity that started or completed, so each
// resource keeps the list of activities using it and progressive filling
// runs only over that connected component of the resource↔activity graph.
// Components whose membership did not change keep their cached solution:
// max-min rates depend only on membership (capacities, coefficients,
// bounds), not on remaining work or time, so re-solving an untouched
// component would reproduce the rates it already has. Independent disks,
// hosts, and NFS mounts therefore stop paying for each other's events.
//
// With A live activities and an affected component of m activities over
// r resources needing k filling rounds (k ≤ r+1), each activity start or
// completion costs:
//
//	elapsed-work advance + completion sweep   O(A) one pass; the completion
//	                                          epsilon is fixed at start
//	component discovery (BFS over lists)      O(m)
//	component ordering                        O(A) one pass over the live
//	                                          list [was an O(m log m) sort]
//	                                          + O(r log r) resource sort
//	progressive filling                       O(k·(r+m))  [was O(k·(R+A))
//	                                          over ALL resources/activities]
//	completion-timer retarget                 O(A) min scan + O(log E) cancel
//	Utilization                               O(1) — per-resource allocated
//	                                          counters refreshed at solve
//
// The O(A) passes are deliberate. Remaining-work decrements must be
// applied at every event instant, in activity start order, so that float
// accumulation — and with it every completion time and event ordering —
// stays bit-identical to the full-solve implementation. Progressive filling
// must visit a component's activities in that same order; the live list
// already holds it, so collecting the component's marked activities from it
// costs no more than the advance pass and needs no sort. solveOracle (the
// retained full progressive filling) is the test oracle: CheckInvariants
// cross-checks the incremental solver's rates against it bit for bit.
//
// # Allocation
//
// Do is Start plus Await for a process that drops the activity once it
// completes, which is how every simulated I/O step runs. Do puts the
// finished activity, with its uses/posIn capacity and its re-armed
// completion future, on the System's free list, and the next Start or Do
// takes it from there. Starts copy the caller's uses into the activity, so
// a variadic Use list stays on the caller's stack. Together with des's
// closure-free wakeups, a steady-state I/O step allocates nothing in fluid
// or des.
package fluid

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/des"
)

// Resource is a capacity-constrained channel (e.g. a disk's read channel at
// 465 MB/s). Capacity units are arbitrary per second (bytes/s, flops/s).
type Resource struct {
	name     string
	capacity float64
	id       int

	// acts lists the live activities using this resource (unordered; each
	// entry records which Use slot points back here so removal is O(1)).
	acts []resUse
	// allocated is Σ coef·rate over acts, refreshed whenever this
	// resource's component is re-solved; it makes Utilization O(1).
	allocated float64
	// mark is the component-discovery epoch stamp.
	mark uint64

	// scratch state used during progressive filling
	capLeft float64
	load    float64
}

// resUse is one entry of a resource's activity list: activity a's uses[useIdx]
// points at this resource.
type resUse struct {
	a      *Activity
	useIdx int
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the configured capacity in units/second.
func (r *Resource) Capacity() float64 { return r.capacity }

// Use declares that an activity consumes Coef units of Res per unit of
// activity progress. Coef is normally 1 (a byte of transfer consumes a byte
// of channel capacity).
type Use struct {
	Res  *Resource
	Coef float64
}

// Activity is a unit of fluid work (a transfer, a flush, a compute burst).
type Activity struct {
	uses      []Use
	posIn     []int // posIn[i] is this activity's index in uses[i].Res.acts
	seq       uint64
	work0     float64
	remaining float64
	rate      float64
	bound     float64 // per-activity rate cap (≤0 means unbounded)
	eps       float64 // remaining work counted as finished: max(1e-6, 1e-9·work0), fixed in Start
	done      *des.Future[struct{}]
	start     float64
	frozen    bool   // scratch flag during progressive filling
	mark      uint64 // component-discovery epoch stamp
}

// Await parks p until the activity completes.
func (a *Activity) Await(p *des.Proc) { a.done.Get(p) }

// Done returns the completion future.
func (a *Activity) Done() *des.Future[struct{}] { return a.done }

// Rate returns the currently assigned progress rate (units/s).
func (a *Activity) Rate() float64 { return a.rate }

// Remaining returns the remaining work at the last recompute instant.
func (a *Activity) Remaining() float64 { return a.remaining }

// StartTime returns the virtual time the activity was started.
func (a *Activity) StartTime() float64 { return a.start }

// System owns the resources and the set of in-flight activities.
type System struct {
	k          *des.Kernel
	resources  []*Resource
	acts       []*Activity // live activities, in start order
	actSeq     uint64
	lastUpdate float64
	next       des.Timer
	onTimer    func() // bound once; rescheduled with a fresh event each time

	// epoch stamps component discovery; scratch buffers are reused across
	// solves to keep the steady state allocation-free.
	epoch    uint64
	seedRes  []*Resource
	compActs []*Activity
	compRes  []*Resource

	// free holds activities Do has finished with, detached from every
	// list and with their completion futures re-armed.
	free []*Activity
}

// NewSystem returns an empty fluid system bound to kernel k.
func NewSystem(k *des.Kernel) *System {
	s := &System{k: k}
	s.onTimer = func() {
		s.next = des.Timer{}
		seeds := s.advanceAndComplete()
		s.solveAffected(seeds, nil)
		s.scheduleNext()
	}
	return s
}

// Kernel returns the DES kernel the system schedules on.
func (s *System) Kernel() *des.Kernel { return s.k }

// NewResource registers a resource with the given capacity (> 0).
func (s *System) NewResource(name string, capacity float64) *Resource {
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		panic(fmt.Sprintf("fluid: resource %q: invalid capacity %v", name, capacity))
	}
	r := &Resource{name: name, capacity: capacity, id: len(s.resources)}
	s.resources = append(s.resources, r)
	return r
}

// Start launches an activity of `work` units across the given resource uses
// and returns it immediately; callers typically Await it. Zero or negative
// work completes at the current time (after already-queued same-time
// events). An activity must use at least one resource unless bound > 0.
func (s *System) Start(work float64, bound float64, uses ...Use) *Activity {
	return s.start(work, bound, uses)
}

// Do runs an activity to completion on behalf of p: Start followed by
// Await. The activity is then recycled for a later Start or Do, so a
// process looping over Do allocates nothing once warmed up.
func (s *System) Do(p *des.Proc, work float64, bound float64, uses ...Use) {
	a := s.start(work, bound, uses)
	a.done.Get(p)
	// Completion already detached a from s.acts, every resource list and
	// the solver's scratch; Reset panics if anyone else still waits on it.
	a.done.Reset()
	s.free = append(s.free, a)
}

// start takes an activity from the free list (or allocates one), copies
// uses into it and launches it.
func (s *System) start(work float64, bound float64, uses []Use) *Activity {
	var a *Activity
	if n := len(s.free); n > 0 {
		a = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		a = &Activity{done: des.NewFuture[struct{}](s.k)}
	}
	*a = Activity{
		uses:      append(a.uses[:0], uses...),
		posIn:     a.posIn[:0],
		work0:     work,
		remaining: work,
		bound:     bound,
		eps:       math.Max(1e-6, 1e-9*work),
		done:      a.done,
		start:     s.k.Now(),
	}
	if len(uses) == 0 && bound <= 0 {
		panic("fluid: activity with no resources and no rate bound")
	}
	for _, u := range uses {
		if u.Res == nil || u.Coef <= 0 {
			panic("fluid: invalid resource use")
		}
	}
	if work <= 0 {
		s.k.At(s.k.Now(), func() { a.done.Set(struct{}{}) })
		return a
	}
	seeds := s.advanceAndComplete()
	if a.remaining <= a.eps {
		// Sub-epsilon work: completes within the same recompute, after any
		// activities the advance pass just finished, exactly like the
		// full-solve completion sweep did.
		a.remaining = 0
		a.done.Set(struct{}{})
		s.solveAffected(seeds, nil)
		s.scheduleNext()
		return a
	}
	a.seq = s.actSeq
	s.actSeq++
	for i, u := range a.uses {
		a.posIn = append(a.posIn, len(u.Res.acts))
		u.Res.acts = append(u.Res.acts, resUse{a: a, useIdx: i})
	}
	s.acts = append(s.acts, a)
	s.solveAffected(seeds, a)
	s.scheduleNext()
	return a
}

// Transfer is the common single-resource convenience: move `bytes` through r.
func (s *System) Transfer(bytes float64, r *Resource) *Activity {
	return s.Start(bytes, 0, Use{Res: r, Coef: 1})
}

// SetCapacity changes r's capacity mid-run — the fault-injection primitive
// behind disk slowdowns, link degradation and device failures. The event
// sequence is exactly an activity start/completion: elapsed work is advanced
// first (in start order, preserving the float-accumulation determinism
// contract), then the component containing r is re-solved and the completion
// timer retargeted. Capacity 0 models a failed device: its activities freeze
// at rate 0 in place and resume when a later SetCapacity restores it.
// Negative, NaN or infinite capacities panic, mirroring NewResource.
func (s *System) SetCapacity(r *Resource, capacity float64) {
	if capacity < 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		panic(fmt.Sprintf("fluid: resource %q: invalid capacity %v", r.name, capacity))
	}
	if capacity == r.capacity {
		return
	}
	seeds := s.advanceAndComplete()
	r.capacity = capacity
	s.solveAffected(append(seeds, r), nil)
	s.scheduleNext()
}

// advanceAndComplete applies elapsed time to every in-flight activity's
// remaining work (one pass, in start order — the accumulation order is part
// of the model's determinism contract) and resolves the activities that
// reached their completion epsilon. It returns the resources the completed
// activities were using, as seeds for component re-solving. The returned
// slice is scratch owned by s, valid until the next call.
func (s *System) advanceAndComplete() []*Resource {
	now := s.k.Now()
	dt := now - s.lastUpdate
	s.lastUpdate = now
	seeds := s.seedRes[:0]
	live := s.acts[:0]
	for _, a := range s.acts {
		if dt > 0 {
			a.remaining -= a.rate * dt
			if a.remaining < 0 {
				a.remaining = 0
			}
		}
		if a.remaining <= a.eps {
			a.remaining = 0
			a.rate = 0
			s.unregister(a)
			for _, u := range a.uses {
				seeds = append(seeds, u.Res)
			}
			a.done.Set(struct{}{})
		} else {
			live = append(live, a)
		}
	}
	// Zero the tail so finished activities can be collected.
	for i := len(live); i < len(s.acts); i++ {
		s.acts[i] = nil
	}
	s.acts = live
	s.seedRes = seeds
	return seeds
}

// unregister removes a from the activity list of every resource it uses
// (O(1) swap-removal per use via the tracked positions).
func (s *System) unregister(a *Activity) {
	for i := len(a.uses) - 1; i >= 0; i-- {
		r := a.uses[i].Res
		p := a.posIn[i]
		last := len(r.acts) - 1
		moved := r.acts[last]
		r.acts[p] = moved
		moved.a.posIn[moved.useIdx] = p
		r.acts[last] = resUse{}
		r.acts = r.acts[:last]
	}
}

// solveAffected re-runs progressive filling over the connected component(s)
// of the resource↔activity graph reachable from the seed resources (those
// touched by completions) and the optional just-started activity. Rates,
// and the per-resource allocated counters, are untouched outside the
// affected subgraph: max-min rates depend only on component membership, so
// unaffected components keep their cached solution.
func (s *System) solveAffected(seedRes []*Resource, started *Activity) {
	if len(seedRes) == 0 && started == nil {
		return
	}
	s.epoch++
	epoch := s.epoch
	compActs := s.compActs[:0]
	compRes := s.compRes[:0]
	marked := 0
	if started != nil {
		started.mark = epoch
		marked++
		for _, u := range started.uses {
			if u.Res.mark != epoch {
				u.Res.mark = epoch
				compRes = append(compRes, u.Res)
			}
		}
	}
	for _, r := range seedRes {
		if r.mark != epoch {
			r.mark = epoch
			compRes = append(compRes, r)
		}
	}
	// Breadth-first expansion: resources mark their users, users pull in
	// their other resources. compRes doubles as the work queue; activities
	// are only marked and counted here, and collected in order below.
	for i := 0; i < len(compRes); i++ {
		for _, ru := range compRes[i].acts {
			a := ru.a
			if a.mark == epoch {
				continue
			}
			a.mark = epoch
			marked++
			for _, u := range a.uses {
				if u.Res.mark != epoch {
					u.Res.mark = epoch
					compRes = append(compRes, u.Res)
				}
			}
		}
	}
	if marked == 0 {
		// Only drained resources were touched: zero their allocation.
		for _, r := range compRes {
			r.allocated = 0
		}
		s.releaseScratch(compActs, compRes)
		return
	}
	// Progressive filling iterates activities in start order and resources
	// in registration order so every float operation sequence matches the
	// full solve restricted to this component (see solveOracle). Discovery
	// order is not start order (swap-removal reorders the per-resource
	// lists), but s.acts is: one pass over it collects the marked
	// activities already ordered, at the cost of the advance pass every
	// event pays anyway. The resources are sorted instead: a component
	// spans a few of them, while s.resources can be much larger.
	for _, a := range s.acts {
		if a.mark == epoch {
			compActs = append(compActs, a)
			if len(compActs) == marked {
				break
			}
		}
	}
	slices.SortFunc(compRes, cmpResID)

	for _, r := range compRes {
		r.capLeft = r.capacity
		r.allocated = 0
	}
	unfrozen := 0
	for _, a := range compActs {
		a.frozen = false
		a.rate = 0
		unfrozen++
	}
	for unfrozen > 0 {
		// Recompute per-resource loads from the unfrozen set each round:
		// incremental subtraction accumulates float residue that can leave a
		// resource "loaded" with no live users, which would stall the loop.
		for _, r := range compRes {
			r.load = 0
		}
		for _, a := range compActs {
			if a.frozen {
				continue
			}
			for _, u := range a.uses {
				u.Res.load += u.Coef
			}
		}
		// Candidate share: min over resources of capLeft/load, and over
		// activity bounds.
		share := math.Inf(1)
		var bres *Resource
		for _, r := range compRes {
			if r.load <= 0 {
				continue
			}
			c := r.capLeft / r.load
			if c < share {
				share = c
				bres = r
			}
		}
		bounded := false
		for _, a := range compActs {
			if !a.frozen && a.bound > 0 && a.bound < share {
				share = a.bound
				bounded = true
			}
		}
		if math.IsInf(share, 1) {
			panic("fluid: unconstrained activities in recompute")
		}
		// Freeze the limiting set at `share`.
		progress := false
		for _, a := range compActs {
			if a.frozen {
				continue
			}
			limiting := false
			if bounded {
				limiting = a.bound > 0 && a.bound <= share
			} else {
				for _, u := range a.uses {
					if u.Res == bres {
						limiting = true
						break
					}
				}
			}
			if !limiting {
				continue
			}
			a.frozen = true
			a.rate = share
			unfrozen--
			progress = true
			for _, u := range a.uses {
				u.Res.capLeft -= u.Coef * share
				if u.Res.capLeft < 0 {
					u.Res.capLeft = 0
				}
				u.Res.allocated += u.Coef * share
			}
		}
		if !progress {
			panic("fluid: progressive filling made no progress")
		}
	}
	s.releaseScratch(compActs, compRes)
}

func cmpResID(a, b *Resource) int { return a.id - b.id }

// releaseScratch hands the component buffers back for reuse, dropping the
// activity pointers so completed activities stay collectable.
func (s *System) releaseScratch(compActs []*Activity, compRes []*Resource) {
	for i := range compActs {
		compActs[i] = nil
	}
	for i := range compRes {
		compRes[i] = nil
	}
	s.compActs, s.compRes = compActs[:0], compRes[:0]
}

// scheduleNext (re)schedules the single pending completion event at the
// earliest activity finish time. The previous timer is unlinked from the
// event heap immediately (des.Timer.Cancel), so retargeting on every event
// does not grow the queue.
func (s *System) scheduleNext() {
	s.next.Cancel() // no-op on the zero Timer or an already-fired event
	s.next = des.Timer{}
	soonest := math.Inf(1)
	for _, a := range s.acts {
		if a.rate <= 0 {
			continue
		}
		t := a.remaining / a.rate
		if t < soonest {
			soonest = t
		}
	}
	if math.IsInf(soonest, 1) {
		return
	}
	// A completion nearer than the float resolution of the current virtual
	// time would land the event at `now` itself: the advance pass would see
	// dt = 0, burn no remaining work, and retarget the same instant forever
	// (a tiny transfer racing a fast channel late in a long run, e.g. a
	// byte-sized cache write at memory speed past t ≈ 17 s, is enough). Push
	// the event to the next representable time so the clock always advances;
	// one ulp of elapsed time then burns more than the sub-resolution
	// remainder, so the activity completes on that event.
	if now := s.k.Now(); now+soonest <= now {
		soonest = math.Nextafter(now, math.Inf(1)) - now
	}
	s.next = s.k.After(soonest, s.onTimer)
}

// InFlight returns the number of live activities (for tests/diagnostics).
func (s *System) InFlight() int { return len(s.acts) }

// Utilization returns the fraction of r's capacity currently allocated.
// O(1): reads the allocated counter maintained by the component solver.
// A failed resource (capacity 0) reports utilization 0.
func (s *System) Utilization(r *Resource) float64 {
	if r.capacity <= 0 {
		return 0
	}
	return r.allocated / r.capacity
}
