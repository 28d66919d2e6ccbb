package core

import (
	"reflect"
	"strings"
	"testing"
)

func newPolicyManager(t *testing.T, policy string, total int64) *Manager {
	t.Helper()
	cfg := DefaultConfig(total)
	cfg.Policy = policy
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPolicyRegistry(t *testing.T) {
	names := PolicyNames()
	if want := []string{"clock", "fifo", "lfu", "lru"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("registered policies %v, want %v", names, want)
	}
	// Every constructor builds the policy its table key names: a swapped
	// entry would mislabel ablation rows and snapshot policy names.
	for _, name := range names {
		if err := ValidatePolicyName(name); err != nil {
			t.Fatalf("%s not registered: %v", name, err)
		}
		if got := newPolicyManager(t, name, 1000).Policy().Name(); got != name {
			t.Fatalf("policy %q constructs %q", name, got)
		}
	}
	// The default is LRU, both via "" and explicitly.
	for _, name := range []string{"", DefaultPolicyName} {
		m := newPolicyManager(t, name, 1000)
		if got := m.Policy().Name(); got != DefaultPolicyName {
			t.Fatalf("policy %q resolved to %q", name, got)
		}
	}
}

func TestUnknownPolicyFailsFastWithListing(t *testing.T) {
	err := ValidatePolicyName("mglru")
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	// The error must name the offender and list every registered policy so
	// a config typo is self-diagnosing.
	for _, want := range append([]string{"mglru"}, PolicyNames()...) {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	cfg := DefaultConfig(1000)
	cfg.Policy = "mglru"
	if _, err := NewManager(cfg); err == nil {
		t.Fatal("NewManager accepted unknown policy")
	}
	if err := cfg.Validate(); err == nil {
		t.Fatal("Config.Validate accepted unknown policy")
	}
}

func TestFIFOIgnoresAccesses(t *testing.T) {
	m := newPolicyManager(t, "fifo", 1000)
	c := newFakeCaller()
	m.AddToCache("a", 100, 1)
	m.AddToCache("b", 100, 2)
	// Re-reading "a" must not protect it: FIFO evicts in insertion order.
	m.CacheRead(c, "a", 100)
	mustNoInvariantErr(t, m)
	if got := m.Evict(100, ""); got != 100 {
		t.Fatalf("evicted %d", got)
	}
	if m.Cached("a") != 0 || m.Cached("b") != 100 {
		t.Fatalf("a=%d b=%d: FIFO must drop the oldest insertion", m.Cached("a"), m.Cached("b"))
	}
	mustNoInvariantErr(t, m)
}

func TestClockSecondChance(t *testing.T) {
	m := newPolicyManager(t, "clock", 1000)
	c := newFakeCaller()
	m.AddToCache("a", 100, 1)
	m.AddToCache("b", 100, 2)
	// Referencing "a" buys it exactly one sweep: the first eviction passes
	// over it (clearing the bit) and takes "b"; the second takes "a".
	m.CacheRead(c, "a", 100)
	mustNoInvariantErr(t, m)
	if got := m.Evict(100, ""); got != 100 {
		t.Fatalf("evicted %d", got)
	}
	if m.Cached("a") != 100 || m.Cached("b") != 0 {
		t.Fatalf("a=%d b=%d: referenced block must survive one sweep", m.Cached("a"), m.Cached("b"))
	}
	mustNoInvariantErr(t, m)
	if got := m.Evict(100, ""); got != 100 {
		t.Fatalf("second evict %d", got)
	}
	if m.Cached("a") != 0 {
		t.Fatalf("a=%d: spent reference bit must not protect again", m.Cached("a"))
	}
	mustNoInvariantErr(t, m)
}

func TestClockSweepTerminatesWhenAllReferenced(t *testing.T) {
	m := newPolicyManager(t, "clock", 1000)
	c := newFakeCaller()
	m.AddToCache("a", 100, 1)
	m.AddToCache("b", 100, 2)
	m.CacheRead(c, "a", 100)
	m.CacheRead(c, "b", 100)
	// Both referenced: one sweep spends both bits, then takes victims.
	if got := m.Evict(200, ""); got != 200 {
		t.Fatalf("evicted %d, want 200", got)
	}
	mustNoInvariantErr(t, m)
}

func TestClockSweepWrapsPastRotatedTail(t *testing.T) {
	// Regression: the hand must wrap around, not stop, when the last clean
	// candidate in walk order is referenced — rotating the tail block used to
	// end the sweep with the bit spent but nothing evicted, breaking the
	// Evictable/Evict contract (spurious OOMs and forced evictions upstream).
	m := newPolicyManager(t, "clock", 1000)
	c := newFakeCaller()
	m.AddToCache("a", 100, 1)
	m.CacheRead(c, "a", 100) // single referenced block, a rotated tail
	if got := m.Evict(100, ""); got != 100 {
		t.Fatalf("evicted %d, want 100 (sweep must wrap)", got)
	}
	mustNoInvariantErr(t, m)
	// Same with a dirty block pinning the front: [dirty, clean(ref)].
	m = newPolicyManager(t, "clock", 1000)
	c = newFakeCaller()
	m.WriteToCache(c, "d", 100)
	m.AddToCache("a", 100, 2)
	m.CacheRead(c, "a", 100)
	if got := m.Evict(100, ""); got != 100 {
		t.Fatalf("evicted %d, want 100 (dirty front, referenced tail)", got)
	}
	mustNoInvariantErr(t, m)
}

func TestLFUKeepsFrequentBlock(t *testing.T) {
	m := newPolicyManager(t, "lfu", 1000)
	c := newFakeCaller()
	m.AddToCache("hot", 100, 1)
	m.AddToCache("cold", 100, 2)
	// Two accesses lift "hot" to bucket 2; "cold" stays in bucket 0 and is
	// the victim even though it is the more recent insertion and "hot" was
	// not touched last.
	m.CacheRead(c, "hot", 100)
	m.CacheRead(c, "hot", 100)
	m.CacheRead(c, "cold", 100)
	mustNoInvariantErr(t, m)
	if got := m.Evict(100, ""); got != 100 {
		t.Fatalf("evicted %d", got)
	}
	if m.Cached("hot") != 100 || m.Cached("cold") != 0 {
		t.Fatalf("hot=%d cold=%d: LFU must keep the frequent block", m.Cached("hot"), m.Cached("cold"))
	}
	mustNoInvariantErr(t, m)
}

func TestLFUFrequencyDecays(t *testing.T) {
	m := newPolicyManager(t, "lfu", 1000)
	c := newFakeCaller()
	m.AddToCache("old-hot", 100, 1)
	for i := 0; i < 5; i++ {
		m.CacheRead(c, "old-hot", 100) // bucket 3 (freq ≥ 4)
	}
	// Two half-lives later a single touch halves the stored frequency twice
	// (5 → 1) before bumping: the block demotes to bucket 2, not bucket 3.
	c.now += 2 * lfuDefaultHalfLife
	m.CacheRead(c, "old-hot", 100)
	mustNoInvariantErr(t, m)
	lists := m.Policy().Lists()
	if lists[2].FileBytes("old-hot") != 100 {
		t.Fatalf("decayed block not in bucket 2: %d/%d/%d/%d",
			lists[0].FileBytes("old-hot"), lists[1].FileBytes("old-hot"),
			lists[2].FileBytes("old-hot"), lists[3].FileBytes("old-hot"))
	}
}

func TestPolicyDefaultBitIdenticalSpotCheck(t *testing.T) {
	// The explicit-"lru" manager and the empty-policy manager must be
	// operation-for-operation indistinguishable (the refactor's bit-identical
	// guarantee, spot-checked here; the experiment CSVs verify it at scale).
	run := func(policy string) Stats {
		m := newPolicyManager(t, policy, 10000)
		c := newFakeCaller()
		m.AddToCache("a", 300, 1)
		m.WriteToCache(c, "b", 200)
		m.CacheRead(c, "a", 250)
		m.Flush(c, 100)
		m.Evict(150, "b")
		m.FlushExpiredDomain(c, 0)
		mustNoInvariantErr(t, m)
		return m.Snapshot()
	}
	if a, b := run(""), run(DefaultPolicyName); a != b {
		t.Fatalf("default and lru diverge:\n%+v\n%+v", a, b)
	}
}

func TestReadHitMissCounters(t *testing.T) {
	m := newPolicyManager(t, "", 100000)
	io, err := NewIOController(m, 1000)
	if err != nil {
		t.Fatal(err)
	}
	c := newFakeCaller()
	if err := io.WriteFile(c, "f", 4000); err != nil {
		t.Fatal(err)
	}
	if err := io.ReadFile(c, "f", 4000); err != nil { // fully cached
		t.Fatal(err)
	}
	if hit, miss := m.ReadHitBytes(), m.ReadMissBytes(); hit != 4000 || miss != 0 {
		t.Fatalf("warm read: hit=%d miss=%d", hit, miss)
	}
	m.InvalidateFile("f")
	if err := io.ReadFile(c, "f", 4000); err != nil { // fully cold
		t.Fatal(err)
	}
	if hit, miss := m.ReadHitBytes(), m.ReadMissBytes(); hit != 4000 || miss != 4000 {
		t.Fatalf("cold read: hit=%d miss=%d", hit, miss)
	}
}
