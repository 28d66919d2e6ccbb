package snapshot

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

func sampleFile(t *testing.T) *File {
	t.Helper()
	m, err := core.NewManager(core.DefaultConfig(100000))
	if err != nil {
		t.Fatal(err)
	}
	c := fakeCaller{}
	m.WriteToCache(&c, "data", 3000)
	m.AddToCache("data", 2000, 1.5)
	return &File{
		SavedAtSimS: 42.5,
		Hosts:       map[string]*core.ManagerState{"node0": m.SnapshotState()},
		Cgroups:     map[string]*core.ManagerState{"grp": m.SnapshotState()},
		Servers:     map[string]*core.ManagerState{"export": m.SnapshotState()},
		Files:       []FileMeta{{Name: "data", Partition: "scratch", Size: 5000}},
	}
}

// fakeCaller satisfies core.Caller for populating a manager with dirty data.
type fakeCaller struct{ now float64 }

func (f *fakeCaller) Now() float64            { return f.now }
func (f *fakeCaller) DiskRead(string, int64)  {}
func (f *fakeCaller) DiskWrite(string, int64) {}
func (f *fakeCaller) MemRead(int64)           {}
func (f *fakeCaller) MemWrite(int64)          {}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	orig := sampleFile(t)
	var buf bytes.Buffer
	if err := Encode(&buf, orig); err != nil {
		t.Fatal(err)
	}
	if orig.Version != Version {
		t.Fatalf("Encode left version %d, want %d stamped", orig.Version, Version)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("round-trip changed the document:\nwrote %+v\nread  %+v", orig, got)
	}
	// The embedded states restore into working managers.
	m, err := core.NewManager(core.DefaultConfig(100000))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreState(got.Hosts["node0"]); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	orig := sampleFile(t)
	if err := WriteFile(path, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatal("file round-trip changed the document")
	}
}

func TestDecodeRejects(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("future version accepted")
	}
	if _, err := Decode(strings.NewReader(`{"version": 1}`)); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("version-1 file: got %v, want an error naming version 1", err)
	}
	if _, err := Decode(strings.NewReader(`{"version": 1, "bogus": true}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Decode(strings.NewReader(`not json`)); err == nil {
		t.Error("malformed document accepted")
	}
}

// TestDecodeRejectsBadStates checks that every state entry is validated at
// decode time, so a null or foreign-layout state surfaces as an error naming
// the entry rather than as a nil dereference in a restorer.
func TestDecodeRejectsBadStates(t *testing.T) {
	var good bytes.Buffer
	if err := Encode(&good, sampleFile(t)); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"hosts", "cgroups", "servers"} {
		for _, tc := range []struct {
			state string
			want  string
		}{
			{`null`, `has a null state`},
			{`{"version": 1, "policy": "lru", "writeback": "list-order", "lists": [], "domains": []}`, `state version 1`},
			{`{"version": 3, "policy": "lru", "writeback": "list-order", "lists": [], "domains": []}`, `state version 3`},
		} {
			doc := fmt.Sprintf(`{"version": %d, %q: {"bad": %s}}`, Version, kind, tc.state)
			_, err := Decode(strings.NewReader(doc))
			entry := strings.TrimSuffix(kind, "s") + ` "bad"`
			if err == nil || !strings.Contains(err.Error(), entry) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s entry %s: got %v, want an error naming %s and containing %q",
					kind, tc.state, err, entry, tc.want)
			}
		}
	}
	if _, err := Decode(&good); err != nil {
		t.Fatalf("well-formed document rejected: %v", err)
	}
}

// fuzzMem is the RAM of the managers FuzzSnapshotRestore seeds from and
// restores into.
const fuzzMem = 1 << 20

// seedSnapshot encodes a snapshot of one manager under the given policies,
// taken after a short mixed sequence of writes (one past the dirty
// threshold), a read, a partial flush and an expiry pass, so its state holds
// clean and dirty blocks of several files and, for the file-queue writeback
// policies, a ring.
func seedSnapshot(tb testing.TB, policy, writeback string) []byte {
	tb.Helper()
	cfg := core.DefaultConfig(fuzzMem)
	cfg.Policy, cfg.Writeback = policy, writeback
	m, err := core.NewManager(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	io, err := core.NewIOController(m, 16<<10)
	if err != nil {
		tb.Fatal(err)
	}
	c := &fakeCaller{}
	for i, file := range []string{"a", "b", "c", "d"} {
		c.now = float64(10 * i)
		if err := io.WriteFile(c, file, 64<<10); err != nil {
			tb.Fatal(err)
		}
	}
	c.now = 35
	if err := io.ReadFile(c, "a", 64<<10); err != nil {
		tb.Fatal(err)
	}
	m.ReleaseAnon(64 << 10)
	m.Flush(c, 24<<10)
	c.now = 45
	m.FlushExpiredDomain(c, 0)
	m.OpenWrite("d")
	var buf bytes.Buffer
	if err := Encode(&buf, &File{
		SavedAtSimS: c.now,
		Hosts:       map[string]*core.ManagerState{"node0": m.SnapshotState()},
		Files:       []FileMeta{{Name: "a", Partition: "scratch", Size: 64 << 10}},
	}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSnapshotRestore decodes arbitrary bytes as a snapshot. Every accepted
// host, cgroup or server state whose policy names validate is restored into
// a fresh manager under those policies; a restore may fail, but one that
// succeeds must survive the warm-start rebase ShiftTimes(-SavedAtSimS) with
// its invariants intact. Nothing may panic.
func FuzzSnapshotRestore(f *testing.F) {
	for _, policy := range core.PolicyNames() {
		for _, writeback := range core.WritebackPolicyNames() {
			f.Add(seedSnapshot(f, policy, writeback))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, states := range []map[string]*core.ManagerState{file.Hosts, file.Cgroups, file.Servers} {
			for name, st := range states {
				if core.ValidatePolicyName(st.Policy) != nil || core.ValidateWritebackPolicyName(st.Writeback) != nil {
					continue
				}
				cfg := core.DefaultConfig(fuzzMem)
				cfg.Policy, cfg.Writeback = st.Policy, st.Writeback
				m, err := core.NewManager(cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if m.RestoreState(st) != nil {
					continue
				}
				m.ShiftTimes(-file.SavedAtSimS)
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("%s: restored state breaks invariants after ShiftTimes(%g): %v",
						name, -file.SavedAtSimS, err)
				}
			}
		}
	})
}
