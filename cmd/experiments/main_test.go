package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles as the worker-subprocess helper: with
// EXPERIMENTS_WORKER_TEST set the test binary behaves as `experiments
// -worker`, so the -worker-cmd fan-out path is exercised end to end against
// a real subprocess speaking the real protocol.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_WORKER_TEST") == "1" {
		os.Exit(Main([]string{"-worker"}, os.Stdout))
	}
	os.Exit(m.Run())
}

// runGridArgs is a small but multi-section grid: 19 cells across four
// experiment families, fast enough to run repeatedly in a unit test.
func runGridArgs(dir string, extra ...string) []string {
	return append([]string{
		"-exp1", "-sizes", "3", "-exp3", "-exp4", "-policies",
		"-quick", "-reps", "2", "-out", dir,
	}, extra...)
}

// runGrid executes the test grid and returns (stdout, CSV name -> content).
func runGrid(t *testing.T, extra ...string) (string, map[string]string) {
	t.Helper()
	dir := t.TempDir()
	var b strings.Builder
	if code := Main(runGridArgs(dir, extra...), &b); code != 0 {
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
	stdout1, csv1 := runGrid(t, "-workers", "1")
	stdout8, csv8 := runGrid(t, "-workers", "8")
	expectIdentical(t, "workers 1 vs 8", stdout1, stdout8, csv1, csv8)
}

// TestSubprocessFanoutByteIdentical runs the same grid over -worker-cmd
// subprocesses (the test binary in worker mode), from memory and through a
// durable queue, and demands the same bytes as the in-process
// single-worker run.
func TestSubprocessFanoutByteIdentical(t *testing.T) {
	stdout1, csv1 := runGrid(t, "-workers", "1")
	t.Setenv("EXPERIMENTS_WORKER_TEST", "1") // inherited by the spawned workers
	stdoutSub, csvSub := runGrid(t, "-workers", "3", "-worker-cmd", os.Args[0])
	expectIdentical(t, "in-process vs subprocess", stdout1, stdoutSub, csv1, csvSub)
	qdir := filepath.Join(t.TempDir(), "q")
	stdoutQ, csvQ := runGrid(t, "-workers", "3", "-worker-cmd", os.Args[0], "-queue-dir", qdir)
	expectIdentical(t, "in-process vs queue subprocess", stdout1, stdoutQ, csv1, csvQ)
}

// TestFailingCellFailsSectionNotRun injects a failing cell kind (exp1 at a
// negative size panics deep in the engine) and checks the run reports the
// failure with exit 1 while still rendering the healthy sections.
func TestFailingCellFailsSectionNotRun(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	code := Main([]string{"-exp1", "-sizes", "-1,3", "-exp4", "-out", dir, "-workers", "2"}, &b)
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
	var b strings.Builder
	if code := Main([]string{"-exp1", "-sizes", "abc"}, &b); code == 0 {
		t.Fatal("bad -sizes accepted")
	}
}
