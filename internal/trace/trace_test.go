package trace

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestMemSeriesCSVAndQueries(t *testing.T) {
	s := &MemSeries{}
	s.Add(MemPoint{T: 0, Used: 10, Cache: 5, Dirty: 1, Anon: 5})
	s.Add(MemPoint{T: 1, Used: 20, Cache: 10, Dirty: 8, Anon: 10})
	s.Add(MemPoint{T: 2, Used: 15, Cache: 15, Dirty: 0, Anon: 0})

	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 || lines[0] != "t,used,cache,dirty,anon" {
		t.Fatalf("csv = %q", b.String())
	}
	if s.MaxUsed() != 20 || s.MaxDirty() != 8 {
		t.Fatalf("maxUsed=%d maxDirty=%d", s.MaxUsed(), s.MaxDirty())
	}
	if p := s.At(1.5); p.Used != 20 {
		t.Fatalf("At(1.5) = %+v", p)
	}
	if p := s.At(-1); p.Used != 0 {
		t.Fatalf("At(-1) = %+v", p)
	}
}

func TestOpLogQueries(t *testing.T) {
	l := &OpLog{}
	l.Add(Op{Instance: 0, Name: "Read 1", Kind: "read", Start: 0, End: 10, Bytes: 100})
	l.Add(Op{Instance: 0, Name: "Write 1", Kind: "write", Start: 10, End: 15, Bytes: 100})
	l.Add(Op{Instance: 1, Name: "Read 1", Kind: "read", Start: 0, End: 20, Bytes: 100})
	l.Add(Op{Instance: 1, Name: "Write 1", Kind: "write", Start: 20, End: 27, Bytes: 100})

	if got := l.Duration("read", 0); got != 10 {
		t.Fatalf("read(0) = %v", got)
	}
	if got := l.Duration("read", -1); got != 30 {
		t.Fatalf("read(all) = %v", got)
	}
	// Mean per instance: (10 + 20)/2 = 15 for reads; (5+7)/2 = 6 writes.
	if got := l.MeanPerInstance("read"); got != 15 {
		t.Fatalf("mean read = %v", got)
	}
	if got := l.MeanPerInstance("write"); got != 6 {
		t.Fatalf("mean write = %v", got)
	}
	if got := l.Makespan(); got != 27 {
		t.Fatalf("makespan = %v", got)
	}
	if got := l.ByName("Read 1"); len(got) != 2 {
		t.Fatalf("ByName = %d ops", len(got))
	}
	names := l.Names()
	if len(names) != 2 || names[0] != "Read 1" || names[1] != "Write 1" {
		t.Fatalf("names = %v", names)
	}
	if l.MeanPerInstance("compute") != 0 {
		t.Fatal("missing kind should be 0")
	}
	var b strings.Builder
	if err := l.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "instance,name,kind,start,end,bytes\n") {
		t.Fatalf("csv = %q", b.String())
	}
}

func TestSnapshotLog(t *testing.T) {
	s := &SnapshotLog{}
	src := map[string]int64{"f1": 100, "f2": 50}
	s.Add("Read 1", 1.0, src)
	src["f1"] = 999 // the log must have copied
	s.Add("Write 1", 2.0, map[string]int64{"f3": 10})

	if s.Snaps[0].ByFile["f1"] != 100 {
		t.Fatal("snapshot not copied")
	}
	files := s.Files()
	want := []string{"f1", "f2", "f3"}
	if len(files) != 3 {
		t.Fatalf("files = %v", files)
	}
	for i := range want {
		if files[i] != want[i] {
			t.Fatalf("files = %v", files)
		}
	}
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Read 1,1.000,f1,100") {
		t.Fatalf("csv = %q", b.String())
	}
	if out := s.String(); !strings.Contains(out, "Write 1") {
		t.Fatalf("String() = %q", out)
	}
}

func TestMemSeriesHitRatio(t *testing.T) {
	s := &MemSeries{}
	s.Add(MemPoint{T: 1, Cache: 100, HitBytes: 0, MissBytes: 100})
	s.Add(MemPoint{T: 2, Cache: 100, HitBytes: 100, MissBytes: 100})
	if got := s.At(0.5); got.HitBytes != 0 || got.MissBytes != 0 {
		t.Fatalf("At(0.5) = %+v", got)
	}
	if got := s.At(1.5); got.MissBytes != 100 || got.HitBytes != 0 {
		t.Fatalf("At(1.5) = %+v", got)
	}
	if r := s.At(1.5).HitRatio(); r != 0 {
		t.Fatalf("cold ratio = %v", r)
	}
	if r := s.At(3).HitRatio(); r != 0.5 {
		t.Fatalf("warm ratio = %v", r)
	}
	if (MemPoint{}).HitRatio() != 0 {
		t.Fatal("empty ratio not 0")
	}
	// The memory CSV keeps its columns; zero counters stay out of JSON.
	var buf strings.Builder
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "t,used,cache,dirty,anon\n1.000,0,100,0,0\n2.000,0,100,0,0\n"; buf.String() != want {
		t.Fatalf("csv:\n%s\nwant:\n%s", buf.String(), want)
	}
	raw, err := json.Marshal(MemPoint{T: 1, Cache: 100})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"T":1,"Used":0,"Cache":100,"Dirty":0,"Anon":0}`; string(raw) != want {
		t.Fatalf("json = %s, want %s", raw, want)
	}
}
