package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// TestPropertySnapshotRoundTrip drives random churn through Algorithms 2 & 3
// — once per (replacement policy × writeback policy) registry cell — then
// snapshots the manager and checks the full restore contract:
//
//   - ManagerState survives a JSON round-trip unchanged;
//   - RestoreState into a fresh manager passes CheckInvariants (it runs it)
//     and re-snapshots to a deeply equal ManagerState;
//   - the restored manager is behaviorally identical: driven in lockstep
//     with the original through further random operations, both produce the
//     same writeback sequence, the same device traffic, the same clock, and
//     deeply equal final states;
//   - ShiftTimes rebasing the restored state to t=0 (the warm-start path)
//     keeps the invariants intact.
func TestPropertySnapshotRoundTrip(t *testing.T) {
	for _, policy := range PolicyNames() {
		for _, wb := range WritebackPolicyNames() {
			policy, wb := policy, wb
			t.Run(policy+"/"+wb, func(t *testing.T) {
				t.Parallel()
				testSnapshotRoundTrip(t, policy, wb)
			})
		}
	}
}

// snapshotRig is one manager under churn: the twin-drive phase steps two of
// these in lockstep with shared random draws.
type snapshotRig struct {
	m     *Manager
	io    *IOController
	c     *fakeCaller
	files map[string]int64
	anon  int64
}

// step applies one drawn operation. Every random draw happens before the
// twin's step with the same values, so identical starting states must evolve
// identically.
func (r *snapshotRig) step(t *testing.T, seed int64, op int, kind int, name string, amt int64, frac float64) bool {
	switch kind {
	case 0: // buffered write
		if r.files[name]+amt+r.anon > r.m.cfg.TotalMem/2 {
			return true
		}
		if err := r.io.WriteFile(r.c, name, amt); err != nil {
			t.Logf("seed %d op %d: write: %v", seed, op, err)
			return false
		}
		r.files[name] += amt
	case 1: // read a prefix of what was written
		size := r.files[name]
		if size == 0 {
			return true
		}
		n := 1 + int64(frac*float64(size))
		if n > size {
			n = size
		}
		if r.anon+n > r.m.cfg.TotalMem/2 {
			return true
		}
		if err := r.io.Read(r.c, name, n, size); err != nil {
			t.Logf("seed %d op %d: read: %v", seed, op, err)
			return false
		}
		r.anon += n
	case 2: // task end
		if r.anon > 0 {
			r.m.ReleaseAnon(r.anon)
			r.anon = 0
		}
	case 3: // periodic flusher tick
		r.m.FlushPass(r.c, 0)
	case 4: // open/close for write (populates ManagerState.Writing)
		r.m.OpenWrite(name)
	case 5:
		r.m.CloseWrite(name)
	case 6: // chaos cache drop
		r.m.DropCaches()
	case 7:
		r.m.InvalidateFile(name)
	}
	if err := r.m.CheckInvariants(); err != nil {
		t.Logf("seed %d op %d: %v", seed, op, err)
		return false
	}
	return true
}

func testSnapshotRoundTrip(t *testing.T, policy, wb string) {
	names := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		total := int64(50000 + rng.Intn(100000))
		cfg := DefaultConfig(total)
		cfg.Policy = policy
		cfg.Writeback = wb
		if rng.Intn(2) == 0 {
			cfg.DirtyBackgroundRatio = 0.10
		}
		chunk := int64(500 + rng.Intn(2000))

		newRig := func() *snapshotRig {
			m, err := NewManager(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ioc, err := NewIOController(m, chunk)
			if err != nil {
				t.Fatal(err)
			}
			return &snapshotRig{m: m, io: ioc, c: newFakeCaller(), files: map[string]int64{}}
		}

		// Phase 1: random churn on the original manager alone.
		r1 := newRig()
		for op := 0; op < 50; op++ {
			r1.c.now += rng.Float64() * 5
			if !r1.step(t, seed, op, rng.Intn(8), names[rng.Intn(len(names))],
				int64(1+rng.Intn(8000)), rng.Float64()) {
				return false
			}
		}

		// Snapshot, JSON round-trip, restore into a fresh manager.
		st := r1.m.SnapshotState()
		raw, err := json.Marshal(st)
		if err != nil {
			t.Logf("seed %d: marshal: %v", seed, err)
			return false
		}
		var decoded ManagerState
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Logf("seed %d: unmarshal: %v", seed, err)
			return false
		}
		if !reflect.DeepEqual(st, &decoded) {
			t.Logf("seed %d: ManagerState changed across the JSON round-trip", seed)
			return false
		}
		r2 := newRig()
		if err := r2.m.RestoreState(&decoded); err != nil {
			t.Logf("seed %d: restore: %v", seed, err)
			return false
		}
		if !reflect.DeepEqual(st, r2.m.SnapshotState()) {
			t.Logf("seed %d: restored manager re-snapshots differently", seed)
			return false
		}

		// Phase 2: drive original and restored twins in lockstep and demand
		// identical behavior — same flush order, same traffic, same clock.
		r2.c.now = r1.c.now
		for k, v := range r1.files {
			r2.files[k] = v
		}
		r2.anon = r1.anon
		mark := len(r1.c.writeLog)
		preDiskW, preDiskR := r1.c.diskWrites, r1.c.diskReads
		for op := 0; op < 50; op++ {
			dt := rng.Float64() * 5
			kind, name := rng.Intn(8), names[rng.Intn(len(names))]
			amt, frac := int64(1+rng.Intn(8000)), rng.Float64()
			r1.c.now += dt
			r2.c.now += dt
			if !r1.step(t, seed, op, kind, name, amt, frac) ||
				!r2.step(t, seed, op, kind, name, amt, frac) {
				return false
			}
		}
		if r1.c.now != r2.c.now {
			t.Logf("seed %d: twin clocks diverged: %v vs %v", seed, r1.c.now, r2.c.now)
			return false
		}
		if got, want := r2.c.diskWrites, r1.c.diskWrites-preDiskW; got != want {
			t.Logf("seed %d: twin disk writes %d, original continued with %d", seed, got, want)
			return false
		}
		if got, want := r2.c.diskReads, r1.c.diskReads-preDiskR; got != want {
			t.Logf("seed %d: twin disk reads %d, original continued with %d", seed, got, want)
			return false
		}
		if !slices.Equal(r1.c.writeLog[mark:], r2.c.writeLog) {
			t.Logf("seed %d: writeback order diverged:\n  original %v\n  restored %v",
				seed, r1.c.writeLog[mark:], r2.c.writeLog)
			return false
		}
		if !reflect.DeepEqual(r1.m.SnapshotState(), r2.m.SnapshotState()) {
			t.Logf("seed %d: twin final states diverged", seed)
			return false
		}

		// Warm-start rebase: restoring into a new run shifts all block times
		// back to that run's t=0; the orderings must survive a negative shift.
		r3 := newRig()
		if err := r3.m.RestoreState(&decoded); err != nil {
			t.Logf("seed %d: rebase restore: %v", seed, err)
			return false
		}
		r3.m.ShiftTimes(-r1.c.now)
		if err := r3.m.CheckInvariants(); err != nil {
			t.Logf("seed %d: after ShiftTimes(-%v): %v", seed, r1.c.now, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreStateRejects covers the restore preconditions: version drift,
// non-empty targets, and registry mismatches must fail loudly, because a
// silently wrong restore would corrupt every downstream warm-start result.
func TestRestoreStateRejects(t *testing.T) {
	build := func(policy, wb string) *Manager {
		cfg := DefaultConfig(100000)
		cfg.Policy = policy
		cfg.Writeback = wb
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	src := build("", "")
	c := newFakeCaller()
	src.WriteToCache(c, "f", 4000)
	st := src.SnapshotState()

	if err := build("", "").RestoreState(nil); err == nil {
		t.Error("nil state accepted")
	}
	for _, v := range []int{1, ManagerStateVersion + 1} {
		bad := *st
		bad.Version = v
		err := build("", "").RestoreState(&bad)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) {
			t.Errorf("snapshot version %d: got %v, want an error naming the version", v, err)
		}
	}
	if err := build("clock", "").RestoreState(st); err == nil {
		t.Error("policy mismatch accepted")
	}
	if err := build("", "file-rr").RestoreState(st); err == nil {
		t.Error("writeback mismatch accepted")
	}
	dirtyTarget := build("", "")
	dirtyTarget.AddToCache("x", 100, 0)
	if err := dirtyTarget.RestoreState(st); err == nil {
		t.Error("non-empty target accepted")
	}
	// The happy path still works after all the rejected attempts.
	m := build("", "")
	if err := m.RestoreState(st); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if m.CacheBytes() != src.CacheBytes() || m.Dirty() != src.Dirty() {
		t.Errorf("restored cache %d/%d dirty, want %d/%d",
			m.CacheBytes(), m.Dirty(), src.CacheBytes(), src.Dirty())
	}
}
