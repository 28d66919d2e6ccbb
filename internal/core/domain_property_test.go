package core

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// testDomainResolver maps the property tests' file names onto two devices,
// with "e" deliberately unresolved so the default domain 0 stays exercised.
func testDomainResolver(file string) string {
	switch file {
	case "a", "b":
		return "fast"
	case "c", "d":
		return "slow"
	}
	return ""
}

// configureTestDomains splits a fresh manager into fast/slow writeback
// domains (3:1 bandwidth share) plus the default backstop domain.
func configureTestDomains(t *testing.T, m *Manager) {
	t.Helper()
	if err := m.ConfigureDomains([]DomainConfig{
		{Dev: "fast", WriteBW: 300},
		{Dev: "slow", WriteBW: 100},
	}, testDomainResolver); err != nil {
		t.Fatal(err)
	}
}

// oracleDomainDirty rescans the main lists for one domain's dirty bytes,
// independent of the incremental per-domain counters it validates.
func oracleDomainDirty(m *Manager, dom int) int64 {
	var n int64
	for _, l := range m.pol.Lists() {
		l.Each(func(b *Block) bool {
			if b.Dirty && b.dom == dom {
				n += b.Size
			}
			return true
		})
	}
	return n
}

// TestPropertyMultiDomainIndexedStructures drives randomized operation
// sequences through a three-domain manager — once per (replacement policy ×
// writeback policy) registry cell — and after every operation cross-checks
// the per-domain state:
//
//   - CheckInvariants (which verifies every domain's dirty sublist segments,
//     expiry queue and writeback structure block by block);
//   - DomainDirty against a brute-force rescan per domain, and the domain
//     sum against the global Dirty counter;
//   - each domain's NextDirty/NextExpired selections stay inside their
//     domain, dirty, and (for expiry) past the DirtyExpire age;
//   - FlushDomain drains only its own domain: the other domains' dirty
//     bytes are unchanged.
func TestPropertyMultiDomainIndexedStructures(t *testing.T) {
	for _, policy := range PolicyNames() {
		for _, wb := range WritebackPolicyNames() {
			policy, wb := policy, wb
			t.Run(policy+"/"+wb, func(t *testing.T) {
				t.Parallel()
				testMultiDomainIndexedStructures(t, policy, wb)
			})
		}
	}
}

func testMultiDomainIndexedStructures(t *testing.T, policy, wb string) {
	files := []string{"a", "b", "c", "d", "e"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig(100000)
		cfg.Policy = policy
		cfg.Writeback = wb
		if rng.Intn(2) == 0 {
			cfg.DirtyBackgroundRatio = 0.10
		}
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		configureTestDomains(t, m)
		c := newFakeCaller()
		for i := 0; i < 200; i++ {
			c.now += rng.Float64() * 5
			file := files[rng.Intn(len(files))]
			amt := int64(1 + rng.Intn(4000))
			dom := rng.Intn(m.DomainCount())
			switch rng.Intn(9) {
			case 0:
				if free := m.Free(); free > 0 {
					if amt > free {
						amt = free
					}
					m.AddToCache(file, amt, c.now)
				}
			case 1:
				if free := m.Free(); free > 0 {
					if amt > free {
						amt = free
					}
					m.WriteToCache(c, file, amt)
				}
			case 2:
				m.Evict(amt, file)
			case 3: // global flush still drains across domains
				m.Flush(c, amt)
			case 4: // one domain's flusher slice
				before := make([]int64, m.DomainCount())
				for d := range before {
					before[d] = m.DomainDirty(d)
				}
				m.FlushDomain(c, dom, amt)
				for d := range before {
					if d != dom && m.DomainDirty(d) != before[d] {
						t.Logf("seed %d op %d: FlushDomain(%d) changed domain %d dirty %d -> %d",
							seed, i, dom, d, before[d], m.DomainDirty(d))
						return false
					}
				}
			case 5:
				m.FlushExpiredDomain(c, dom)
				m.FlushBackgroundDomain(c, dom)
			case 6:
				if cached := m.Cached(file); cached > 0 {
					m.CacheRead(c, file, 1+rng.Int63n(cached))
				}
			case 7:
				m.InvalidateFile(file)
			case 8:
				m.DropCaches()
			}
			if err := m.CheckInvariants(); err != nil {
				t.Logf("seed %d op %d: %v", seed, i, err)
				return false
			}
			var domSum int64
			for d := 0; d < m.DomainCount(); d++ {
				got, want := m.DomainDirty(d), oracleDomainDirty(m, d)
				if got != want {
					t.Logf("seed %d op %d: DomainDirty(%d) = %d, oracle %d", seed, i, d, got, want)
					return false
				}
				domSum += got
				if nd := m.DomainWritebackPolicy(d).NextDirty(m); nd != nil {
					if !nd.Dirty || nd.dom != d {
						t.Logf("seed %d op %d: domain %d NextDirty %+v out of domain", seed, i, d, nd)
						return false
					}
				} else if got != 0 {
					t.Logf("seed %d op %d: domain %d dirty %d but NextDirty nil", seed, i, d, got)
					return false
				}
				if ne := m.DomainWritebackPolicy(d).NextExpired(m, c.now); ne != nil {
					if !ne.Dirty || ne.dom != d || c.now-ne.Entry < m.cfg.DirtyExpire {
						t.Logf("seed %d op %d: domain %d NextExpired %+v invalid", seed, i, d, ne)
						return false
					}
				}
			}
			if domSum != m.Dirty() {
				t.Logf("seed %d op %d: domain dirty sum %d != global %d", seed, i, domSum, m.Dirty())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMultiDomainSnapshotRoundTrip is the per-device version of
// TestPropertySnapshotRoundTrip: random churn on a three-domain manager,
// a version-2 snapshot through a JSON round-trip into a fresh manager with
// the same domain layout, then lockstep twin-driving — the restored manager
// must produce the same per-domain flush order, traffic and final state —
// once per (replacement policy × writeback policy) registry cell.
func TestPropertyMultiDomainSnapshotRoundTrip(t *testing.T) {
	for _, policy := range PolicyNames() {
		for _, wb := range WritebackPolicyNames() {
			policy, wb := policy, wb
			t.Run(policy+"/"+wb, func(t *testing.T) {
				t.Parallel()
				testMultiDomainSnapshotRoundTrip(t, policy, wb)
			})
		}
	}
}

func testMultiDomainSnapshotRoundTrip(t *testing.T, policy, wb string) {
	names := []string{"a", "b", "c", "d", "e"}
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
			configureTestDomains(t, m)
			ioc, err := NewIOController(m, chunk)
			if err != nil {
				t.Fatal(err)
			}
			return &snapshotRig{m: m, io: ioc, c: newFakeCaller(), files: map[string]int64{}}
		}

		// step mixes the shared churn kinds with per-domain flusher ticks.
		step := func(r *snapshotRig, op, kind int, name string, amt int64, frac float64, dom int) bool {
			if kind < 8 {
				return r.step(t, seed, op, kind, name, amt, frac)
			}
			r.m.FlushExpiredDomain(r.c, dom)
			r.m.FlushBackgroundDomain(r.c, dom)
			r.m.FlushDomain(r.c, dom, amt)
			if err := r.m.CheckInvariants(); err != nil {
				t.Logf("seed %d op %d: %v", seed, op, err)
				return false
			}
			return true
		}

		r1 := newRig()
		for op := 0; op < 50; op++ {
			r1.c.now += rng.Float64() * 5
			if !step(r1, op, rng.Intn(9), names[rng.Intn(len(names))],
				int64(1+rng.Intn(8000)), rng.Float64(), rng.Intn(r1.m.DomainCount())) {
				return false
			}
		}

		st := r1.m.SnapshotState()
		if st.Version != ManagerStateVersion || len(st.Domains) != r1.m.DomainCount() {
			t.Logf("seed %d: multi-domain snapshot version %d with %d domains, want %d with %d",
				seed, st.Version, len(st.Domains), ManagerStateVersion, r1.m.DomainCount())
			return false
		}
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

		r2.c.now = r1.c.now
		for k, v := range r1.files {
			r2.files[k] = v
		}
		r2.anon = r1.anon
		mark := len(r1.c.writeLog)
		for op := 0; op < 50; op++ {
			dt := rng.Float64() * 5
			kind, name := rng.Intn(9), names[rng.Intn(len(names))]
			amt, frac := int64(1+rng.Intn(8000)), rng.Float64()
			dom := rng.Intn(r1.m.DomainCount())
			r1.c.now += dt
			r2.c.now += dt
			if !step(r1, op, kind, name, amt, frac, dom) ||
				!step(r2, op, kind, name, amt, frac, dom) {
				return false
			}
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

		// Warm-start rebase keeps every domain's orderings intact.
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
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestMultiDomainRestoreRejects covers the restore preconditions on the
// domain layout: a snapshot restores only into a manager with the same
// domains, so a 1-domain snapshot into a per-device manager, the reverse,
// and domain-name drift must all fail loudly.
func TestMultiDomainRestoreRejects(t *testing.T) {
	build := func(domains bool) *Manager {
		m, err := NewManager(DefaultConfig(100000))
		if err != nil {
			t.Fatal(err)
		}
		if domains {
			configureTestDomains(t, m)
		}
		return m
	}
	src := build(true)
	c := newFakeCaller()
	src.WriteToCache(c, "a", 4000)
	src.WriteToCache(c, "c", 3000)
	st := src.SnapshotState()
	if st.Version != ManagerStateVersion || len(st.Domains) != 3 {
		t.Fatalf("snapshot version %d with %d domains, want %d with 3",
			st.Version, len(st.Domains), ManagerStateVersion)
	}

	wantErr := func(what string, err error, substr string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), substr) {
			t.Errorf("%s: got %v, want an error containing %q", what, err, substr)
		}
	}
	wantErr("3-domain snapshot into a 1-domain manager",
		build(false).RestoreState(st), "snapshot has 3 writeback domains, manager 1")
	single := build(false)
	single.WriteToCache(newFakeCaller(), "a", 1000)
	singleSt := single.SnapshotState()
	if len(singleSt.Domains) != 1 {
		t.Fatalf("single-domain snapshot has %d domains, want 1", len(singleSt.Domains))
	}
	wantErr("1-domain snapshot into a per-device manager",
		build(true).RestoreState(singleSt), "snapshot has 1 writeback domains, manager 3")
	mismatched, err := NewManager(DefaultConfig(100000))
	if err != nil {
		t.Fatal(err)
	}
	if err := mismatched.ConfigureDomains([]DomainConfig{
		{Dev: "fast", WriteBW: 300},
		{Dev: "other", WriteBW: 100},
	}, func(string) string { return "other" }); err != nil {
		t.Fatal(err)
	}
	wantErr("domain-name mismatch", mismatched.RestoreState(st), `domain 2 is "other", snapshot "slow"`)
	// The happy path still works after the rejected attempts.
	m := build(true)
	if err := m.RestoreState(st); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if m.CacheBytes() != src.CacheBytes() || m.Dirty() != src.Dirty() {
		t.Errorf("restored cache %d/%d dirty, want %d/%d",
			m.CacheBytes(), m.Dirty(), src.CacheBytes(), src.Dirty())
	}
}
