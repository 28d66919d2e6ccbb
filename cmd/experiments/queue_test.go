package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/queue"
)

// TestQueueRunByteIdentical: the acceptance contract's first half — an
// uninterrupted queue-backed run produces the same bytes as the sequential
// in-memory pool.
func TestQueueRunByteIdentical(t *testing.T) {
	stdout1, csv1 := runGrid(t, "-workers", "1")
	qdir := filepath.Join(t.TempDir(), "q")
	stdoutQ, csvQ := runGrid(t, "-workers", "4", "-queue-dir", qdir)
	expectIdentical(t, "pool vs queue", stdout1, stdoutQ, csv1, csvQ)
}

// TestQueueResumeByteIdentical is the acceptance test: enqueue, drain
// partially with a worker fleet, simulate a kill -9'd worker (an abandoned
// lease), then resume the coordinator with a different worker count — the
// merged stdout and every CSV must match an uninterrupted -workers 1 run
// byte for byte.
func TestQueueResumeByteIdentical(t *testing.T) {
	stdout1, csv1 := runGrid(t, "-workers", "1")

	qdir := filepath.Join(t.TempDir(), "q")

	// Phase 1: a coordinator enqueues and exits without draining.
	var b strings.Builder
	if code := Main(runGridArgs(t.TempDir(), "-queue-dir", qdir, "-queue-enqueue"), &b); code != 0 {
		t.Fatalf("enqueue exit %d", code)
	}
	if b.Len() != 0 {
		t.Fatalf("enqueue-only run wrote to stdout: %q", b.String())
	}

	// Phase 2: a worker fleet drains part of the grid, then stops (spot
	// capacity reclaimed / operator ctrl-C between cells).
	if code := Main([]string{"-queue-dir", qdir, "-queue-worker", "-workers", "2", "-queue-max-cells", "3"}, &b); code != 0 {
		t.Fatalf("partial worker exit %d", code)
	}

	// Phase 3: a worker claims a cell and dies without completing it — the
	// journal now holds a lease that will never be fulfilled, exactly what a
	// kill -9 mid-cell leaves behind.
	q, err := queue.Open(qdir)
	if err != nil {
		t.Fatal(err)
	}
	ttl := 50 * time.Millisecond
	if _, ok, _, err := q.Source(ttl).Claim(0); err != nil || !ok {
		t.Fatalf("crash-sim claim: ok=%v err=%v", ok, err)
	}
	time.Sleep(ttl + 20*time.Millisecond)

	// Phase 4: a fresh coordinator resumes with a different worker count. It
	// must skip the finished cells, reclaim the dead worker's lease, drain the
	// rest, and merge to the exact baseline bytes.
	stdoutR, csvR := runGrid(t, "-queue-dir", qdir, "-workers", "3", "-queue-lease-ttl", "1s")
	expectIdentical(t, "interrupted+resumed vs sequential", stdout1, stdoutR, csv1, csvR)

	st, err := q.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Finished() || st.Failed != 0 {
		t.Fatalf("final status = %+v, want everything done", st)
	}
	if st.Releases == 0 {
		t.Fatal("the crashed worker's cell was never re-leased — the crash was not simulated")
	}
}

// TestQueueBadWorkerCmdFails: -worker-cmd applies to queue drains too. A
// worker command that cannot start fails every cell, so a queue coordinator
// exits 1 exactly as the in-memory path does, and a -queue-worker fleet
// journals the failures for its coordinator to report.
func TestQueueBadWorkerCmdFails(t *testing.T) {
	const bad = "/nonexistent/worker"
	for _, extra := range [][]string{
		{"-workers", "2", "-worker-cmd", bad},
		{"-workers", "2", "-worker-cmd", bad, "-queue-dir", filepath.Join(t.TempDir(), "q")},
	} {
		var b strings.Builder
		if code := Main(runGridArgs(t.TempDir(), extra...), &b); code != 1 {
			t.Errorf("%v: exit %d, want 1", extra, code)
		}
	}

	qdir := filepath.Join(t.TempDir(), "q")
	var b strings.Builder
	if code := Main(runGridArgs(t.TempDir(), "-queue-dir", qdir, "-queue-enqueue"), &b); code != 0 {
		t.Fatalf("enqueue exit %d", code)
	}
	if code := Main([]string{"-queue-dir", qdir, "-queue-worker", "-workers", "2", "-worker-cmd", bad}, &b); code != 0 {
		t.Fatalf("queue worker exit %d, want 0 (cell failures belong to the coordinator)", code)
	}
	q, err := queue.Open(qdir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := q.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed != st.Cells {
		t.Fatalf("%d of %d cells failed, want every cell", st.Failed, st.Cells)
	}
	if err := st.FailedCells[0].Err; !strings.Contains(err, "starting worker") {
		t.Fatalf("cell error %q, want a worker start failure", err)
	}
}

// TestQueueStatusReport drains a queue and checks the consolidated report.
func TestQueueStatusReport(t *testing.T) {
	qdir := filepath.Join(t.TempDir(), "q")
	runGrid(t, "-queue-dir", qdir, "-workers", "2")

	var b strings.Builder
	if code := Main([]string{"-queue-status", "-queue-dir", qdir}, &b); code != 0 {
		t.Fatalf("status exit %d", code)
	}
	out := b.String()
	for _, want := range []string{"== Queue", "cells", "done", "pending 0", "workers", "aggregate: busy"} {
		if !strings.Contains(out, want) {
			t.Errorf("status output missing %q:\n%s", want, out)
		}
	}
}

// TestQueueFingerprintRefusal: pointing a different experiment selection at
// an existing queue directory must fail fast with a config error, not
// silently merge mismatched grids.
func TestQueueFingerprintRefusal(t *testing.T) {
	qdir := filepath.Join(t.TempDir(), "q")
	var b strings.Builder
	if code := Main(runGridArgs(t.TempDir(), "-queue-dir", qdir, "-queue-enqueue"), &b); code != 0 {
		t.Fatalf("enqueue exit %d", code)
	}
	// Same queue dir, different grid (one section instead of four).
	code := Main([]string{"-exp4", "-out", t.TempDir(), "-queue-dir", qdir}, &b)
	if code != 2 {
		t.Fatalf("exit %d, want 2 (refuse a different enumeration)", code)
	}
}

// TestQueueMissingParentFailsFast: a typoed -queue-dir whose parent does not
// exist is a config error before any cell runs.
func TestQueueMissingParentFailsFast(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "parent", "q")
	var b strings.Builder
	if code := Main(runGridArgs(t.TempDir(), "-queue-dir", bad), &b); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestQueueSubFlagsRequireDir: the queue sub-commands without -queue-dir are
// config errors.
func TestQueueSubFlagsRequireDir(t *testing.T) {
	for _, flag := range []string{"-queue-worker", "-queue-status", "-queue-enqueue"} {
		var b strings.Builder
		if code := Main([]string{flag}, &b); code != 2 {
			t.Errorf("%s without -queue-dir: exit %d, want 2", flag, code)
		}
	}
}

// TestQueueStatusOnNonQueue: -queue-status against a directory that is not a
// queue reports a config error.
func TestQueueStatusOnNonQueue(t *testing.T) {
	var b strings.Builder
	if code := Main([]string{"-queue-status", "-queue-dir", t.TempDir()}, &b); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestTimingsJSON checks the machine-readable utilization summary satellite:
// present, parseable, and consistent with the run.
func TestTimingsJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "timings.json")
	runGrid(t, "-workers", "2", "-timings-json", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep metrics.TimingsReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("parsing %s: %v\n%s", path, err, data)
	}
	if rep.Cells != 39 {
		t.Errorf("cells = %d, want the test grid's 39", rep.Cells)
	}
	if rep.Failed != 0 || rep.Workers != 2 || len(rep.PerWorkerBusySeconds) != 2 {
		t.Errorf("report = %+v", rep)
	}
	if rep.WorkerIDs != nil {
		t.Errorf("in-process pool must not name workers, got %v", rep.WorkerIDs)
	}
}

// TestTimingsJSONQueueNamesWorkers: through the queue, the same JSON document
// carries the journal's worker ids.
func TestTimingsJSONQueueNamesWorkers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "timings.json")
	qdir := filepath.Join(t.TempDir(), "q")
	runGrid(t, "-queue-dir", qdir, "-workers", "2", "-timings-json", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep metrics.TimingsReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Cells != 39 || rep.Failed != 0 {
		t.Errorf("report = %+v", rep)
	}
	if len(rep.WorkerIDs) == 0 || len(rep.WorkerIDs) != rep.Workers {
		t.Errorf("queue run must name its workers: %+v", rep)
	}
}
