package queue

// Crash-recovery coverage: every test here simulates a worker or coordinator
// dying mid-run and asserts the queue converges to the same terminal state an
// uninterrupted run reaches. "Dying" is modeled as what a kill -9 leaves
// behind — an abandoned lease (flock is released by the kernel with the fd,
// so a dead claimer never blocks anyone) or a torn journal tail.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/grid"
)

// abandonCell claims one cell under a short TTL and walks away — the journal
// now looks exactly like a worker that was kill -9'd mid-cell.
func abandonCell(t *testing.T, q *Queue, worker string, ttl time.Duration) int {
	t.Helper()
	c, ok, _, err := namedSource(q, worker, ttl).Claim(0)
	if err != nil || !ok {
		t.Fatalf("abandon claim: ok=%v err=%v", ok, err)
	}
	return c.Cell
}

func TestExpiredLeaseReclaimed(t *testing.T) {
	q := mustCreate(t, squareSpecs(3))
	dead := abandonCell(t, q, "crashed-worker", 10*time.Millisecond)
	time.Sleep(20 * time.Millisecond)

	// A healthy worker drains everything, including the dead worker's cell.
	stats := drain(t, q, grid.Options{}, nil)
	if stats.Cells != 3 || stats.Failed != 0 {
		t.Fatalf("stats = %+v, want all 3 cells run", stats)
	}
	st, err := q.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Finished() || st.Done != 3 {
		t.Fatalf("status = %+v, want 3 done", st)
	}
	if st.Releases != 1 {
		t.Fatalf("releases = %d, want exactly the crashed cell re-leased", st.Releases)
	}
	if res, err := q.Result(dead); err != nil || res.Coord.I != dead {
		t.Fatalf("reclaimed cell %d result: %+v err=%v", dead, res, err)
	}
}

func TestLiveLeaseNotStolen(t *testing.T) {
	q := mustCreate(t, squareSpecs(1))
	if c := abandonCell(t, q, "holder", time.Minute); c != 0 {
		t.Fatalf("claimed cell %d, want 0", c)
	}
	_, ok, poll, err := q.Source(time.Minute).Claim(0)
	if err != nil || ok || poll == 0 {
		t.Fatalf("ok=%v poll=%v err=%v, want a poll while the lease is live", ok, poll, err)
	}
}

func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	q := mustCreate(t, squareSpecs(1))
	ttl := 40 * time.Millisecond
	abandonCell(t, q, "beater", ttl)
	// Keep beating past several TTLs; the cell must stay unclaimable.
	deadline := time.Now().Add(4 * ttl)
	for time.Now().Before(deadline) {
		if err := namedSource(q, "beater", ttl).Beat(0); err != nil {
			t.Fatal(err)
		}
		if _, ok, poll, err := q.Source(ttl).Claim(0); err != nil || ok || poll == 0 {
			t.Fatalf("ok=%v poll=%v err=%v, want a poll while heartbeats flow", ok, poll, err)
		}
		time.Sleep(ttl / 4)
	}
	// Stop beating: one TTL later the cell is claimable again.
	time.Sleep(ttl + 10*time.Millisecond)
	if _, ok, _, err := q.Source(time.Minute).Claim(0); err != nil || !ok {
		t.Fatalf("ok=%v err=%v, want a claim after heartbeats stop", ok, err)
	}
}

func TestLeaseBudgetDeclaresPoisonCellFailed(t *testing.T) {
	q := mustCreate(t, squareSpecs(1))
	ttl := time.Millisecond
	// The cell "crashes" leaseBudget workers in a row.
	for i := 0; i < leaseBudget; i++ {
		abandonCell(t, q, fmt.Sprintf("victim-%d", i), ttl)
		time.Sleep(3 * ttl)
	}
	// The next claimer declares it failed instead of leasing it again.
	_, ok, poll, err := q.Source(time.Minute).Claim(0)
	if err != nil || ok || poll != 0 {
		t.Fatalf("ok=%v poll=%v err=%v, want drained after budget exhaustion", ok, poll, err)
	}
	st, err := q.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed != 1 || len(st.FailedCells) != 1 {
		t.Fatalf("status = %+v, want the poison cell failed", st)
	}
	if !strings.Contains(st.FailedCells[0].Err, "lease limit") {
		t.Fatalf("failure reason = %q", st.FailedCells[0].Err)
	}
}

func TestDrainReclaimsMidRun(t *testing.T) {
	// A worker dies mid-queue; a drain started while its lease is still live
	// polls (every TTL/4 of its own leases), waits it out, and finishes the
	// whole grid.
	q := mustCreate(t, squareSpecs(4))
	ttl := 60 * time.Millisecond
	abandonCell(t, q, "crashed", ttl)
	stats, err := grid.Drain(q.Source(100*time.Millisecond), grid.Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cells != 4 {
		t.Fatalf("ran %d cells, want 4 (crashed worker's cell included)", stats.Cells)
	}
	st, _ := q.Status()
	if !st.Finished() || st.Done != 4 {
		t.Fatalf("status = %+v", st)
	}
}

func TestTornJournalTailTolerated(t *testing.T) {
	q := mustCreate(t, squareSpecs(2))
	drain(t, q, grid.Options{MaxCells: 1}, nil)
	// A crash mid-append leaves a torn, newline-less fragment at the tail.
	jf, err := os.OpenFile(filepath.Join(q.Dir(), journalFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.WriteString(`{"t":"done","cell":1,"wor`); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	st, err := q.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.JournalSkipped != 1 {
		t.Fatalf("skipped = %d, want the torn line counted", st.JournalSkipped)
	}
	if st.Done != 1 || st.Pending != 1 {
		t.Fatalf("status = %+v: torn line must not count as a completion", st)
	}

	// The next append isolates the fragment with a separating newline, and the
	// journal stays fully usable: the remaining cell drains normally.
	drain(t, q, grid.Options{}, nil)
	st, _ = q.Status()
	if !st.Finished() || st.Done != 2 {
		t.Fatalf("status after recovery = %+v, want 2 done", st)
	}
	if st.JournalSkipped != 1 {
		t.Fatalf("skipped = %d after recovery, want still exactly 1", st.JournalSkipped)
	}

	var b strings.Builder
	st.Render(&b)
	if !strings.Contains(b.String(), "torn/unparseable") {
		t.Fatalf("status report hides the torn line:\n%s", b.String())
	}
}

func TestGarbageJournalLinesSkipped(t *testing.T) {
	q := mustCreate(t, squareSpecs(1))
	jf := filepath.Join(q.Dir(), journalFile)
	garbage := "not json at all\n" +
		`{"t":"mystery-record","cell":0,"at":1}` + "\n" +
		`{"t":"done","cell":99,"worker":"x","at":1}` + "\n" // out-of-range cell
	if err := os.WriteFile(jf, []byte(garbage), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := q.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.JournalSkipped != 3 {
		t.Fatalf("skipped = %d, want 3", st.JournalSkipped)
	}
	if st.Pending != 1 {
		t.Fatalf("status = %+v, want the cell untouched", st)
	}
}

func TestCoordinatorResumeSkipsDoneCells(t *testing.T) {
	// Coordinator killed mid-run: the queue directory outlives it. A resumed
	// coordinator (CreateOrResume + WaitDrain) must deliver the already-done
	// cells from the result store without re-running them, and a concurrent
	// drain finishes the rest.
	specs := squareSpecs(6)
	q := mustCreate(t, specs)
	drain(t, q, grid.Options{MaxCells: 3}, nil)

	// "New process": re-attach by path with the same enumeration.
	q2, resumed, err := CreateOrResume(q.Dir(), specs)
	if err != nil || !resumed {
		t.Fatalf("resume: %v (resumed=%v)", err, resumed)
	}
	var mu sync.Mutex
	ran := map[int]bool{}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		grid.Drain(q2.Source(time.Minute), grid.Options{Workers: 1}, func(r grid.Result) {
			mu.Lock()
			ran[r.Coord.I] = true
			mu.Unlock()
		})
	}()
	var got []int
	err = q2.WaitDrain(5*time.Millisecond, func(r grid.Result) {
		got = append(got, r.Coord.I)
		var p map[string]float64
		if err := json.Unmarshal(r.Payload, &p); err != nil {
			t.Errorf("cell %d payload: %v", r.Coord.I, err)
		} else if p["y"] != float64(r.Coord.I*r.Coord.I) {
			t.Errorf("cell %d: y=%g", r.Coord.I, p["y"])
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-drained
	if len(got) != 6 {
		t.Fatalf("delivered %d cells, want 6", len(got))
	}
	st, _ := q2.Status()
	if st.Releases != 0 {
		t.Fatalf("releases = %d: resume must not re-run finished cells", st.Releases)
	}
	if len(ran) != 3 {
		t.Fatalf("session-2 ran %d cells, want exactly the 3 unfinished ones", len(ran))
	}
}

func TestDoneRecordWithoutResultIsAnError(t *testing.T) {
	// The inverse write order (journal first, result file second) would make
	// this state reachable by crash; completing result-first means it only
	// arises from manual deletion — and WaitDrain must refuse to fabricate a
	// payload for it.
	q := mustCreate(t, squareSpecs(1))
	drain(t, q, grid.Options{}, nil)
	if err := os.Remove(q.resultPath(0)); err != nil {
		t.Fatal(err)
	}
	err := q.WaitDrain(time.Millisecond, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "result is unreadable") {
		t.Fatalf("want unreadable-result error, got %v", err)
	}
}
