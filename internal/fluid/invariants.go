package fluid

import (
	"fmt"
	"math"
)

// solveOracle is the pre-incremental full solve, retained as the test
// oracle: one progressive-filling run over ALL resources and ALL live
// activities, exactly as the original implementation performed on every
// event. It mutates only scratch state and returns the rate each live
// activity would be assigned, aligned with s.acts.
//
// Within any connected component the incremental solver performs the same
// float operations in the same order as this full solve restricted to the
// component, so the two must agree bit for bit — CheckInvariants enforces
// exactly that.
func (s *System) solveOracle() []float64 {
	rate := make([]float64, len(s.acts))
	frozen := make([]bool, len(s.acts))
	capLeft := make([]float64, len(s.resources))
	load := make([]float64, len(s.resources))
	for _, r := range s.resources {
		capLeft[r.id] = r.capacity
	}
	unfrozen := len(s.acts)
	for unfrozen > 0 {
		for i := range load {
			load[i] = 0
		}
		for i, a := range s.acts {
			if frozen[i] {
				continue
			}
			for _, u := range a.uses {
				load[u.Res.id] += u.Coef
			}
		}
		share := math.Inf(1)
		var bres *Resource
		for _, r := range s.resources {
			if load[r.id] <= 0 {
				continue
			}
			c := capLeft[r.id] / load[r.id]
			if c < share {
				share = c
				bres = r
			}
		}
		bounded := false
		for i, a := range s.acts {
			if !frozen[i] && a.bound > 0 && a.bound < share {
				share = a.bound
				bounded = true
			}
		}
		if math.IsInf(share, 1) {
			panic("fluid: unconstrained activities in oracle solve")
		}
		progress := false
		for i, a := range s.acts {
			if frozen[i] {
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
			frozen[i] = true
			rate[i] = share
			unfrozen--
			progress = true
			for _, u := range a.uses {
				capLeft[u.Res.id] -= u.Coef * share
				if capLeft[u.Res.id] < 0 {
					capLeft[u.Res.id] = 0
				}
			}
		}
		if !progress {
			panic("fluid: oracle progressive filling made no progress")
		}
	}
	return rate
}

// CheckInvariants verifies every index structure the incremental solver
// maintains against a full rescan, symmetric with core.CheckInvariants:
//
//   - the per-resource activity lists and the per-activity position index
//     form a consistent bijection with the live activity set;
//   - per-resource allocated counters match a fresh Σ coef·rate scan and
//     never exceed capacity; on a resource whose users are all plain every
//     term of the scan is the same, so there they match bit for bit;
//   - each resource's non-plain counter matches a recount of its uses by
//     live activities that are not plain;
//   - live activities appear in start order with positive remaining work;
//   - every live rate equals, bit for bit, the rate a full progressive
//     filling over the whole system (solveOracle) would assign;
//   - every activity on the free list is detached: it is not live, no
//     resource list entry points at it, the solver's component scratch does
//     not hold it, and its completion future is re-armed.
//
// It is O(total uses + full solve) and intended for tests.
func (s *System) CheckInvariants() error {
	live := make(map[*Activity]bool, len(s.acts))
	var lastSeq uint64
	for i, a := range s.acts {
		if a == nil {
			return fmt.Errorf("acts[%d] is nil", i)
		}
		if live[a] {
			return fmt.Errorf("activity %d appears twice in acts", a.seq)
		}
		live[a] = true
		if i > 0 && a.seq <= lastSeq {
			return fmt.Errorf("acts not in start order: seq %d after %d", a.seq, lastSeq)
		}
		lastSeq = a.seq
		if a.remaining <= 0 || a.remaining > a.work0 {
			return fmt.Errorf("activity %d: remaining %v outside (0, %v]", a.seq, a.remaining, a.work0)
		}
		if a.rate < 0 {
			return fmt.Errorf("activity %d: negative rate %v", a.seq, a.rate)
		}
		if a.rate == 0 {
			// Rate 0 is legal only while stalled on a failed (capacity-0)
			// resource — see SetCapacity.
			stalled := false
			for _, u := range a.uses {
				if u.Res.capacity == 0 {
					stalled = true
					break
				}
			}
			if !stalled {
				return fmt.Errorf("activity %d: zero rate without a failed resource", a.seq)
			}
		}
		if a.bound > 0 && a.rate > a.bound*(1+1e-9) {
			return fmt.Errorf("activity %d: rate %v exceeds bound %v", a.seq, a.rate, a.bound)
		}
		if len(a.posIn) != len(a.uses) {
			return fmt.Errorf("activity %d: posIn len %d != uses len %d", a.seq, len(a.posIn), len(a.uses))
		}
		for ui, u := range a.uses {
			p := a.posIn[ui]
			if p < 0 || p >= len(u.Res.acts) {
				return fmt.Errorf("activity %d use %d: position %d outside %q's list (len %d)",
					a.seq, ui, p, u.Res.name, len(u.Res.acts))
			}
			if e := u.Res.acts[p]; e.a != a || e.useIdx != ui {
				return fmt.Errorf("activity %d use %d: %q's list entry %d does not point back",
					a.seq, ui, u.Res.name, p)
			}
		}
	}
	totalUses := 0
	nonPlain := make(map[*Resource]int)
	for _, a := range s.acts {
		totalUses += len(a.uses)
		if !a.plain {
			for _, u := range a.uses {
				nonPlain[u.Res]++
			}
		}
	}
	listed := 0
	for _, r := range s.resources {
		listed += len(r.acts)
		for i, e := range r.acts {
			if e.a == nil {
				return fmt.Errorf("resource %q: nil entry at %d", r.name, i)
			}
			if !live[e.a] {
				return fmt.Errorf("resource %q: entry %d points at a dead activity", r.name, i)
			}
		}
		if r.nonPlain != nonPlain[r] {
			return fmt.Errorf("resource %q: non-plain counter %d, recount %d", r.name, r.nonPlain, nonPlain[r])
		}
		// Allocated counter vs full rescan (tolerance: float accumulation
		// order differs between the counter and the scan, unless every
		// term is the same).
		scan := 0.0
		for _, e := range r.acts {
			scan += e.a.uses[e.useIdx].Coef * e.a.rate
		}
		tol := 1e-9 * r.capacity
		if r.nonPlain == 0 {
			tol = 0
		}
		if math.Abs(r.allocated-scan) > tol {
			return fmt.Errorf("resource %q: allocated %v, rescan %v", r.name, r.allocated, scan)
		}
		if r.allocated > r.capacity*(1+1e-9) {
			return fmt.Errorf("resource %q: allocated %v exceeds capacity %v", r.name, r.allocated, r.capacity)
		}
	}
	if listed != totalUses {
		return fmt.Errorf("resource lists hold %d entries, live activities declare %d uses", listed, totalUses)
	}
	if err := s.checkFreeList(live); err != nil {
		return err
	}
	// Incremental rates vs the full-solve oracle, bit for bit.
	oracle := s.solveOracle()
	for i, a := range s.acts {
		if a.rate != oracle[i] {
			return fmt.Errorf("activity %d: incremental rate %v != full-solve rate %v (Δ %g)",
				a.seq, a.rate, oracle[i], a.rate-oracle[i])
		}
	}
	return nil
}

// checkFreeList verifies that the recycled activities share no state with
// the live ones. live is the live activity set. The caller has checked
// that every resource list entry points into it, so a free activity that
// is not live is in no resource list either.
func (s *System) checkFreeList(live map[*Activity]bool) error {
	free := make(map[*Activity]bool, len(s.free))
	for i, a := range s.free {
		if a == nil {
			return fmt.Errorf("free[%d] is nil", i)
		}
		if free[a] {
			return fmt.Errorf("free[%d] appears twice on the free list", i)
		}
		free[a] = true
		if live[a] {
			return fmt.Errorf("free[%d] (activity %d) is still live", i, a.seq)
		}
		if a.done.IsSet() {
			return fmt.Errorf("free[%d] (activity %d): completion future not re-armed", i, a.seq)
		}
	}
	for i, a := range s.compActs[:cap(s.compActs)] {
		if a != nil && free[a] {
			return fmt.Errorf("component scratch slot %d holds a free activity", i)
		}
	}
	return nil
}
