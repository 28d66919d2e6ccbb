package core

import (
	"reflect"
	"strings"
	"testing"
)

// wbTestManager builds a manager with the given writeback policy on the
// default LRU replacement policy.
func wbTestManager(t *testing.T, wb string, total int64) *Manager {
	t.Helper()
	cfg := DefaultConfig(total)
	cfg.Writeback = wb
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// dirtyAt writes one n-byte dirty block of file at time now.
func dirtyAt(t *testing.T, m *Manager, c *fakeCaller, file string, n int64, now float64) {
	t.Helper()
	c.now = now
	if d := m.WriteToCache(c, file, n); d != 0 {
		t.Fatalf("WriteToCache(%s, %d) deficit %d", file, n, d)
	}
}

// flushOrder runs the scripted dirty pattern under the given writeback
// policy and returns the file order of the resulting DiskWrites.
func flushOrder(t *testing.T, wb string, script func(m *Manager, c *fakeCaller), amount int64) []string {
	t.Helper()
	m := wbTestManager(t, wb, 1<<20)
	c := newFakeCaller()
	script(m, c)
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("%s: pre-flush invariants: %v", wb, err)
	}
	m.Flush(c, amount)
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("%s: post-flush invariants: %v", wb, err)
	}
	return c.writeLog
}

// TestWritebackFlushOrders pins the defining flush order of each policy on
// scripted dirty patterns where the four orders all differ.
func TestWritebackFlushOrders(t *testing.T) {
	// Two blocks of a before one big block of b, all in the inactive list.
	burst := func(m *Manager, c *fakeCaller) {
		dirtyAt(t, m, c, "a", 100, 1)
		dirtyAt(t, m, c, "a", 100, 2)
		dirtyAt(t, m, c, "b", 300, 3)
	}
	for wb, want := range map[string][]string{
		DefaultWritebackPolicyName: {"a", "a", "b"}, // list order = creation order here
		"oldest-first":             {"a", "a", "b"}, // entry order coincides
		"file-rr":                  {"a", "b", "a"}, // per-file round robin
		"proportional":             {"b", "a", "a"}, // b holds 300 of 500 dirty bytes
	} {
		got := flushOrder(t, wb, burst, 500)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s: flush order %v, want %v", wb, got, want)
		}
	}

	// A dirty block promoted to the active list: its Entry (1) predates the
	// inactive front's (3), so list order and age order disagree. Clean
	// ballast keeps the 2:1 list ratio satisfied so the promotion does not
	// immediately demote (and split) the block again.
	promoted := func(m *Manager, c *fakeCaller) {
		c.now = 0.5
		m.AddToCache("z", 1000, c.now)
		dirtyAt(t, m, c, "a", 100, 1)
		c.now = 2
		m.CacheRead(c, "a", 100) // moves the dirty block to the active list
		dirtyAt(t, m, c, "b", 100, 3)
	}
	for wb, want := range map[string][]string{
		DefaultWritebackPolicyName: {"b", "a"}, // inactive list before active list
		"oldest-first":             {"a", "b"}, // global Entry order
	} {
		got := flushOrder(t, wb, promoted, 200)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s: flush order %v, want %v", wb, got, want)
		}
	}
}

// TestWritebackFileRRInterleavesBacklog verifies the round robin keeps
// cycling over files as queues drain, and that a drained file leaves the
// ring (no starvation, no stale cursor).
func TestWritebackFileRRInterleavesBacklog(t *testing.T) {
	m := wbTestManager(t, "file-rr", 1<<20)
	c := newFakeCaller()
	dirtyAt(t, m, c, "a", 10, 1)
	dirtyAt(t, m, c, "a", 10, 2)
	dirtyAt(t, m, c, "a", 10, 3)
	dirtyAt(t, m, c, "b", 10, 4)
	dirtyAt(t, m, c, "c", 10, 5)
	m.Flush(c, 60)
	want := "a,b,c,a,a"
	if got := strings.Join(c.writeLog, ","); got != want {
		t.Fatalf("flush order %s, want %s", got, want)
	}
	if m.Dirty() != 0 {
		t.Fatalf("dirty %d after draining flush", m.Dirty())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWritebackPartialSplitRequeues verifies a partially flushed block's
// dirty remainder keeps its queue position: the next flush of that file
// continues with the same block, and invariants hold through the split.
func TestWritebackPartialSplitRequeues(t *testing.T) {
	for _, wb := range WritebackPolicyNames() {
		m := wbTestManager(t, wb, 1<<20)
		c := newFakeCaller()
		dirtyAt(t, m, c, "a", 100, 1)
		dirtyAt(t, m, c, "b", 100, 2)
		m.Flush(c, 30) // partial: 30 of a's 100-byte block
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%s: after partial flush: %v", wb, err)
		}
		if got := m.Dirty(); got != 170 {
			t.Fatalf("%s: dirty %d after partial flush, want 170", wb, got)
		}
		m.Flush(c, 170)
		if m.Dirty() != 0 {
			t.Fatalf("%s: dirty %d after draining flush", wb, m.Dirty())
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%s: after draining flush: %v", wb, err)
		}
		// Every byte went somewhere durable exactly once.
		if c.diskWrites != 200 {
			t.Fatalf("%s: disk writes %d, want 200", wb, c.diskWrites)
		}
	}
}

// TestWritebackExpiredOrder pins the expiry order: list-order walks the
// lists (inactive before active), the others flush globally oldest first.
func TestWritebackExpiredOrder(t *testing.T) {
	script := func(m *Manager, c *fakeCaller) {
		c.now = 0.5
		m.AddToCache("z", 1000, c.now) // ballast: promotion must not demote back
		dirtyAt(t, m, c, "a", 100, 1)
		c.now = 2
		m.CacheRead(c, "a", 100) // dirty block of a → active list, Entry 1
		dirtyAt(t, m, c, "b", 100, 3)
	}
	for wb, want := range map[string][]string{
		DefaultWritebackPolicyName: {"b", "a"},
		"oldest-first":             {"a", "b"},
		"file-rr":                  {"a", "b"},
		"proportional":             {"a", "b"},
	} {
		m := wbTestManager(t, wb, 1<<20)
		c := newFakeCaller()
		script(m, c)
		c.now = 100 // everything expired (DirtyExpire 30)
		m.FlushExpiredDomain(c, 0)
		if got := strings.Join(c.writeLog, ","); got != strings.Join(want, ",") {
			t.Errorf("%s: expired flush order %v, want %v", wb, c.writeLog, want)
		}
		if m.Dirty() != 0 {
			t.Errorf("%s: dirty %d after the expiry pass", wb, m.Dirty())
		}
	}
}

// TestWritebackInvalidateCleansQueues verifies InvalidateFile retires the
// file from the writeback structures (the dequeue-without-flush path).
func TestWritebackInvalidateCleansQueues(t *testing.T) {
	for _, wb := range WritebackPolicyNames() {
		m := wbTestManager(t, wb, 1<<20)
		c := newFakeCaller()
		dirtyAt(t, m, c, "a", 100, 1)
		dirtyAt(t, m, c, "b", 100, 2)
		if got := m.InvalidateFile("a"); got != 100 {
			t.Fatalf("%s: invalidated %d", wb, got)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%s: after invalidate: %v", wb, err)
		}
		m.Flush(c, 1<<20)
		if got := strings.Join(c.writeLog, ","); got != "b" {
			t.Fatalf("%s: flushed %v after invalidating a", wb, c.writeLog)
		}
	}
}

// TestWritebackBackgroundThreshold verifies the split threshold pair:
// the background pass is a no-op at the paper-faithful default (ratio 0) and
// drains exactly to the background threshold when configured.
func TestWritebackBackgroundThreshold(t *testing.T) {
	m := wbTestManager(t, "", 1000)
	c := newFakeCaller()
	dirtyAt(t, m, c, "a", 150, 1)
	if m.DirtyBackgroundThreshold() != 0 {
		t.Fatalf("default background threshold %d, want 0 (disabled)", m.DirtyBackgroundThreshold())
	}
	if got := m.FlushBackgroundDomain(c, 0); got != 0 {
		t.Fatalf("disabled background pass flushed %d", got)
	}

	cfg := DefaultConfig(1000)
	cfg.DirtyBackgroundRatio = 0.10
	m2, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2 := newFakeCaller()
	dirtyAt(t, m2, c2, "a", 150, 1)
	if got, want := m2.DirtyBackgroundThreshold(), int64(100); got != want {
		t.Fatalf("background threshold %d, want %d", got, want)
	}
	if got := m2.FlushBackgroundDomain(c2, 0); got != 50 {
		t.Fatalf("background pass flushed %d, want 50", got)
	}
	if m2.Dirty() != 100 {
		t.Fatalf("dirty %d after background flush, want 100", m2.Dirty())
	}
	if got := m2.FlushedBytes(); got != 50 {
		t.Fatalf("FlushedBytes %d, want 50", got)
	}
}

func TestWritebackPolicyRegistry(t *testing.T) {
	names := WritebackPolicyNames()
	if want := []string{"file-rr", "list-order", "oldest-first", "proportional"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("registered writeback policies %v, want %v", names, want)
	}
	// Every constructor builds the policy its table key names: a swapped
	// entry would mislabel ablation rows and snapshot policy names.
	for _, name := range names {
		if err := ValidateWritebackPolicyName(name); err != nil {
			t.Fatalf("%s not registered: %v", name, err)
		}
		if got := wbTestManager(t, name, 1000).WritebackPolicy().Name(); got != name {
			t.Fatalf("writeback policy %q constructs %q", name, got)
		}
	}
}

// TestWritebackConfigValidation covers the new Config knobs' fail-fast
// paths: unknown writeback names and inverted threshold pairs.
func TestWritebackConfigValidation(t *testing.T) {
	base := DefaultConfig(1000)
	bad := []func(*Config){
		func(c *Config) { c.Writeback = "nope" },
		func(c *Config) { c.DirtyBackgroundRatio = -0.1 },
		func(c *Config) { c.DirtyBackgroundRatio = 0.20 }, // == DirtyRatio
		func(c *Config) { c.DirtyBackgroundRatio = 0.50 }, // > DirtyRatio
	}
	for i, mutate := range bad {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
		if _, err := NewManager(cfg); err == nil {
			t.Errorf("case %d: NewManager accepted invalid config", i)
		}
	}
	if err := ValidateWritebackPolicyName("nope"); err == nil ||
		!strings.Contains(err.Error(), DefaultWritebackPolicyName) {
		t.Fatalf("unknown-name error should list registered policies, got %v", err)
	}
	cfg := base
	cfg.Writeback = "oldest-first"
	cfg.DirtyBackgroundRatio = 0.10
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.WritebackPolicy().Name() != "oldest-first" {
		t.Fatalf("writeback policy %q", m.WritebackPolicy().Name())
	}
	if m2 := wbTestManager(t, "", 1000); m2.WritebackPolicy().Name() != DefaultWritebackPolicyName {
		t.Fatalf("default writeback policy %q", m2.WritebackPolicy().Name())
	}
}
