package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/metrics"
)

// testGridArgs is a small but multi-section grid: 39 cells across four
// experiment families, fast enough to run repeatedly in a unit test.
func testGridArgs(dir string, extra ...string) []string {
	return append([]string{
		"-exp1", "-sizes", "3", "-exp3", "-exp4", "-policies",
		"-quick", "-reps", "2", "-out", dir,
	}, extra...)
}

// runTestGrid executes the test grid and returns (stdout, CSV name -> content).
func runTestGrid(t *testing.T, extra ...string) (string, map[string]string) {
	t.Helper()
	dir := t.TempDir()
	var b strings.Builder
	if code := Main(testGridArgs(dir, extra...), &b); code != 0 {
		t.Fatalf("exit %d with args %v", code, extra)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	csvs := map[string]string{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		csvs[filepath.Base(f)] = string(data)
	}
	if len(csvs) == 0 {
		t.Fatal("no CSV files produced")
	}
	return b.String(), csvs
}

// expectIdentical asserts two runs produced the same bytes everywhere.
func expectIdentical(t *testing.T, label string, stdoutA, stdoutB string, csvA, csvB map[string]string) {
	t.Helper()
	if stdoutA != stdoutB {
		t.Errorf("%s: stdout differs", label)
	}
	if len(csvA) != len(csvB) {
		t.Fatalf("%s: CSV sets differ: %d vs %d files", label, len(csvA), len(csvB))
	}
	for name, a := range csvA {
		b, ok := csvB[name]
		if !ok {
			t.Errorf("%s: CSV %s missing from second run", label, name)
			continue
		}
		if a != b {
			t.Errorf("%s: CSV %s differs", label, name)
		}
	}
}

// TestParallelOutputByteIdentical is the determinism contract: the merged
// report and every CSV must be byte-identical no matter how many workers
// the grid fans out over.
func TestParallelOutputByteIdentical(t *testing.T) {
	stdout1, csv1 := runTestGrid(t, "-workers", "1")
	stdout8, csv8 := runTestGrid(t, "-workers", "8")
	expectIdentical(t, "workers 1 vs 8", stdout1, stdout8, csv1, csv8)
}

// TestTimingsJSON checks the machine-readable utilization summary: present,
// parseable, and consistent with the run.
func TestTimingsJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "timings.json")
	runTestGrid(t, "-workers", "2", "-timings-json", path)
	rep := readTimings(t, path)
	if rep.Cells != 39 {
		t.Errorf("cells = %d, want the test grid's 39", rep.Cells)
	}
	if rep.Failed != 0 || rep.Workers != 2 || len(rep.PerWorkerBusySeconds) != 2 {
		t.Errorf("report = %+v", rep)
	}
}

// readTimings parses a -timings-json file.
func readTimings(t *testing.T, path string) metrics.TimingsReport {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep metrics.TimingsReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("parsing %s: %v\n%s", path, err, data)
	}
	return rep
}

// TestFailingCellFailsSectionNotRun injects failing cells (exp1 at 1000 GB
// overflows the simulated scratch partition and the pysim host's RAM) and
// checks the run reports the failure with exit 1 while still rendering the
// healthy sections.
func TestFailingCellFailsSectionNotRun(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	code := Main([]string{"-exp1", "-sizes", "1000,3", "-exp4", "-out", dir, "-workers", "2"}, &b)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (failed section)", code)
	}
	out := b.String()
	if !strings.Contains(out, "3.00GB") {
		t.Error("healthy exp1 section missing from output")
	}
	if !strings.Contains(out, "Fig 6") {
		t.Error("healthy exp4 section missing from output")
	}
	if got := strings.Count(out, "== Exp 1"); got != 1 {
		t.Errorf("want exactly the healthy Exp 1 section rendered, got %d headings", got)
	}
}

func TestTablesOutput(t *testing.T) {
	var b strings.Builder
	if code := Main([]string{"-tables"}, &b); code != 0 {
		t.Fatalf("exit %d", code)
	}
	out := b.String()
	for _, want := range []string{"Table I", "Table II", "Table III", "6860", "Nighres", "100.00GB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in tables output", want)
		}
	}
}

func TestExp1SmallSize(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	code := Main([]string{"-exp1", "-sizes", "3", "-out", dir}, &b)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	out := b.String()
	for _, want := range []string{"Fig 4a", "wrench-cache", "mean"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q", want)
		}
	}
	// Memory-profile CSVs written for every stack.
	files, err := filepath.Glob(filepath.Join(dir, "exp1_3gb_mem_*.csv"))
	if err != nil || len(files) < 3 {
		t.Fatalf("csv files = %v (%v)", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil || !strings.HasPrefix(string(data), "t,used") {
		t.Fatalf("csv content bad: %v", err)
	}
}

func TestExp4Flag(t *testing.T) {
	var b strings.Builder
	if code := Main([]string{"-exp4"}, &b); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(b.String(), "Fig 6") {
		t.Fatal("missing Fig 6")
	}
}

func TestBadSizeFlag(t *testing.T) {
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-exp1", "-sizes", "abc"},
		{"-exp1", "-sizes", "0"},
		{"-exp1", "-sizes", "3,-5"},
		{"-exp1", "-sizes", "1,1"},
		{"-exp1", "-sizes", "10000000000"},
		{"-exp2", "-quick", "-reps", "0"},
		{"-tables", "-exp4", "-cache", notADir},
	} {
		var b strings.Builder
		if code := Main(append(args, "-out", t.TempDir()), &b); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if b.Len() != 0 {
			t.Errorf("%v: wrote to stdout: %q", args, b.String())
		}
	}
}

// TestREADMENamesEveryFamily checks that README.md names every experiment
// family's selector flag.
func TestREADMENamesEveryFamily(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range exp.Families {
		if !strings.Contains(string(readme), "`-"+f.Flag+"`") {
			t.Errorf("family flag -%s is not in README.md", f.Flag)
		}
	}
}
