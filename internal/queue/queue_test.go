package queue

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
	"repro/internal/metrics"
)

// Test cell kinds. The grid registry is global and process-wide, so each
// kind is registered exactly once here and parameterized through its args.

type qArgs struct {
	X     float64 `json:"x"`
	Sleep int     `json:"sleep_ms,omitempty"`
}

func init() {
	grid.RegisterCell("queue-square", func(a qArgs) (any, error) {
		if a.Sleep > 0 {
			time.Sleep(time.Duration(a.Sleep) * time.Millisecond)
		}
		return map[string]float64{"y": a.X * a.X}, nil
	})
	grid.RegisterCell("queue-error", func(a qArgs) (any, error) {
		return nil, fmt.Errorf("deterministic failure at x=%g", a.X)
	})
}

func qspec(kind string, i int, cost float64) grid.Spec {
	return grid.NewSpec(kind, grid.Coord{Section: "q", I: i}, fmt.Sprintf("%s#%d", kind, i), cost, qArgs{X: float64(i)})
}

func squareSpecs(n int) []grid.Spec {
	specs := make([]grid.Spec, n)
	for i := range specs {
		specs[i] = qspec("queue-square", i, float64(i%5))
	}
	return specs
}

func mustCreate(t *testing.T, specs []grid.Spec) *Queue {
	t.Helper()
	q, err := Create(filepath.Join(t.TempDir(), "q"), specs)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// namedSource is q's Source whose slot 0 claims as the named worker.
func namedSource(q *Queue, worker string, ttl time.Duration) *leaseSource {
	s := q.Source(ttl).(*leaseSource)
	s.ids[0] = worker
	return s
}

// drain runs grid.Drain over q with one-minute leases (one slot unless
// opts sets Workers) and fails the test on a drain error. Call it from the
// test goroutine only.
func drain(t *testing.T, q *Queue, opts grid.Options, deliver func(grid.Result)) metrics.GridStats {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 1
	}
	stats, err := grid.Drain(q.Source(time.Minute), opts, deliver)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestCreateOpenRoundTrip(t *testing.T) {
	specs := squareSpecs(5)
	q := mustCreate(t, specs)
	q2, err := Open(q.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if q2.Cells() != 5 {
		t.Fatalf("Cells() = %d, want 5", q2.Cells())
	}
	if q2.Meta().Fingerprint != q.Meta().Fingerprint {
		t.Fatal("fingerprint changed across open")
	}
	for i := range specs {
		got, _ := json.Marshal(q2.Spec(i))
		want, _ := json.Marshal(specs[i])
		if string(got) != string(want) {
			t.Fatalf("spec %d did not round-trip: %s vs %s", i, got, want)
		}
	}
}

func TestCreateMissingParentFailsFast(t *testing.T) {
	_, err := Create(filepath.Join(t.TempDir(), "no", "such", "parent", "q"), squareSpecs(2))
	if err == nil || !strings.Contains(err.Error(), "parent directory") {
		t.Fatalf("want parent-directory error, got %v", err)
	}
}

func TestCreateEmptyQueueRefused(t *testing.T) {
	if _, err := Create(filepath.Join(t.TempDir(), "q"), nil); err == nil {
		t.Fatal("empty enumeration accepted")
	}
}

func TestCreateOverNonQueueDirRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "stray.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Create(dir, squareSpecs(2))
	if err == nil || !strings.Contains(err.Error(), "not a queue directory") {
		t.Fatalf("want not-a-queue error, got %v", err)
	}
}

func TestOpenNotAQueue(t *testing.T) {
	_, err := Open(t.TempDir())
	if err == nil || !strings.Contains(err.Error(), "missing queue.json") {
		t.Fatalf("want missing-meta error, got %v", err)
	}
}

func TestOpenVersionMismatch(t *testing.T) {
	q := mustCreate(t, squareSpecs(2))
	meta := q.Meta()
	meta.Version = FormatVersion + 1
	mb, _ := json.Marshal(meta)
	if err := os.WriteFile(filepath.Join(q.Dir(), metaFile), mb, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(q.Dir())
	if err == nil || !strings.Contains(err.Error(), "format version") {
		t.Fatalf("want version error, got %v", err)
	}
}

func TestOpenTamperedCellsRejected(t *testing.T) {
	q := mustCreate(t, squareSpecs(3))
	cells, err := encodeSpecs(squareSpecs(2)) // different enumeration under the old meta
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(q.Dir(), cellsFile), cells, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(q.Dir()); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("want fingerprint error, got %v", err)
	}
}

func TestCreateOrResumeFingerprintMismatch(t *testing.T) {
	q := mustCreate(t, squareSpecs(4))
	_, _, err := CreateOrResume(q.Dir(), squareSpecs(5))
	if err == nil || !strings.Contains(err.Error(), "different grid enumeration") {
		t.Fatalf("want enumeration-mismatch refusal, got %v", err)
	}
	// The matching enumeration resumes.
	q2, resumed, err := CreateOrResume(q.Dir(), squareSpecs(4))
	if err != nil || !resumed {
		t.Fatalf("matching resume failed: resumed=%v err=%v", resumed, err)
	}
	if q2.Cells() != 4 {
		t.Fatalf("resumed cells = %d, want 4", q2.Cells())
	}
}

func TestClaimOrderCostDescending(t *testing.T) {
	specs := []grid.Spec{
		qspec("queue-square", 0, 1),
		qspec("queue-square", 1, 9),
		qspec("queue-square", 2, 4),
		qspec("queue-square", 3, 9), // tie keeps enumeration order
	}
	q := mustCreate(t, specs)
	want := []int{1, 3, 2, 0}
	src := q.Source(time.Minute)
	for _, wi := range want {
		c, ok, _, err := src.Claim(0)
		if err != nil || !ok {
			t.Fatalf("claim: ok=%v err=%v", ok, err)
		}
		if c.Cell != wi {
			t.Fatalf("claimed cell %d, want %d", c.Cell, wi)
		}
	}
	if _, ok, poll, _ := src.Claim(0); ok || poll == 0 {
		t.Fatalf("all cells leased: ok=%v poll=%v, want a poll period", ok, poll)
	}
}

func TestCompleteAndResultRoundTrip(t *testing.T) {
	q := mustCreate(t, squareSpecs(2))
	src := q.Source(time.Minute)
	c, ok, _, err := src.Claim(0)
	if err != nil || !ok {
		t.Fatalf("claim failed: ok=%v err=%v", ok, err)
	}
	res := grid.RunSpec(c.Spec)
	if err := src.Complete(0, c, res); err != nil {
		t.Fatal(err)
	}
	got, err := q.Result(c.Cell)
	if err != nil {
		t.Fatal(err)
	}
	if got.Coord != c.Spec.Coord || string(got.Payload) != string(res.Payload) {
		t.Fatalf("result did not round-trip: %+v", got)
	}
	st, err := q.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 || st.Pending != 1 || st.Leased != 0 {
		t.Fatalf("status = %+v, want 1 done / 1 pending", st)
	}
}

func TestDrainRunsEverything(t *testing.T) {
	q := mustCreate(t, squareSpecs(9))
	stats := drain(t, q, grid.Options{}, nil)
	if stats.Cells != 9 || stats.Failed != 0 {
		t.Fatalf("drain stats = %+v, want 9 ran", stats)
	}
	st, err := q.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Finished() || st.Done != 9 {
		t.Fatalf("status = %+v, want finished with 9 done", st)
	}
	for i := 0; i < 9; i++ {
		res, err := q.Result(i)
		if err != nil {
			t.Fatal(err)
		}
		var p map[string]float64
		if err := json.Unmarshal(res.Payload, &p); err != nil {
			t.Fatal(err)
		}
		if p["y"] != float64(i*i) {
			t.Fatalf("cell %d: y = %g, want %d", i, p["y"], i*i)
		}
	}
}

func TestConcurrentDrainsEachCellOnce(t *testing.T) {
	// Two drains (as two processes would run them), two slots each.
	q := mustCreate(t, squareSpecs(24))
	var wg sync.WaitGroup
	for d := 0; d < 2; d++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if _, err := grid.Drain(q.Source(time.Minute), grid.Options{Workers: 2}, nil); err != nil {
				t.Errorf("drain %d: %v", id, err)
			}
		}(d)
	}
	wg.Wait()
	st, err := q.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 24 || st.Releases != 0 {
		t.Fatalf("status = %+v, want 24 done with no re-leases", st)
	}
	// The journal holds exactly one lease and one done record per cell.
	rs, err := q.replay()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range rs.cells {
		if c.Leases != 1 || c.State != Done {
			t.Fatalf("cell %d: leases=%d state=%v, want one lease, done", i, c.Leases, c.State)
		}
	}
}

func TestDeterministicFailureNotReleased(t *testing.T) {
	specs := []grid.Spec{qspec("queue-error", 0, 1), qspec("queue-square", 1, 0)}
	q := mustCreate(t, specs)
	stats := drain(t, q, grid.Options{}, nil)
	if stats.Cells != 2 || stats.Failed != 1 {
		t.Fatalf("stats = %+v, want 2 ran / 1 failed", stats)
	}
	st, err := q.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed != 1 || st.Done != 1 || !st.Finished() {
		t.Fatalf("status = %+v, want finished 1 done / 1 failed", st)
	}
	if len(st.FailedCells) != 1 || !strings.Contains(st.FailedCells[0].Err, "deterministic failure") {
		t.Fatalf("failed cells = %+v", st.FailedCells)
	}
	// A second drain finds nothing to do: failures are terminal.
	if stats = drain(t, q, grid.Options{}, nil); stats.Cells != 0 {
		t.Fatalf("re-drain ran %d cells, want 0", stats.Cells)
	}
}

func TestMaxCellsBoundsDrain(t *testing.T) {
	q := mustCreate(t, squareSpecs(6))
	if stats := drain(t, q, grid.Options{MaxCells: 2}, nil); stats.Cells != 2 {
		t.Fatalf("stats = %+v, want exactly 2 ran", stats)
	}
	st, _ := q.Status()
	if st.Done != 2 || st.Pending != 4 {
		t.Fatalf("status = %+v, want 2 done / 4 pending", st)
	}
}

func TestWaitDrainDeliversEachCellOnce(t *testing.T) {
	q := mustCreate(t, squareSpecs(8))
	// Pre-complete half in a "previous session", then drain the rest
	// concurrently with the watcher.
	drain(t, q, grid.Options{MaxCells: 4}, nil)
	go func() {
		grid.Drain(q.Source(time.Minute), grid.Options{Workers: 1}, nil)
	}()
	seen := map[int]int{}
	var order []int
	err := q.WaitDrain(5*time.Millisecond, func(r grid.Result) {
		seen[r.Coord.I]++
		order = append(order, r.Coord.I)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 8 {
		t.Fatalf("delivered %d distinct cells, want 8", len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("cell %d delivered %d times", i, n)
		}
	}
}

func TestStatusRender(t *testing.T) {
	q := mustCreate(t, squareSpecs(3))
	drain(t, q, grid.Options{MaxCells: 1}, nil)
	if _, ok, _, err := namedSource(q, "render-w1", time.Minute).Claim(0); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	st, err := q.Status()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	st.Render(&b)
	out := b.String()
	if len(st.Workers) != 2 {
		t.Fatalf("workers = %+v, want the drain slot and render-w1", st.Workers)
	}
	for _, want := range []string{
		"3 cells", "done 1", "leased 1", "pending 1",
		st.Workers[0].ID, st.Workers[1].ID, "render-w1", "last seen", "aggregate: busy",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("status report missing %q:\n%s", want, out)
		}
	}
}

func TestGridStatsAggregation(t *testing.T) {
	q := mustCreate(t, squareSpecs(4))
	drain(t, q, grid.Options{MaxCells: 3}, nil)
	drain(t, q, grid.Options{}, nil)
	st, err := q.Status()
	if err != nil {
		t.Fatal(err)
	}
	gs := st.GridStats()
	if gs.Cells != 4 || gs.Failed != 0 {
		t.Fatalf("grid stats = %+v", gs)
	}
	if len(gs.WorkerIDs) != 2 || gs.WorkerIDs[0] >= gs.WorkerIDs[1] {
		t.Fatalf("worker ids = %v, want two distinct ids, sorted", gs.WorkerIDs)
	}
	if len(gs.BusySeconds) != 2 {
		t.Fatalf("busy slots = %d, want 2", len(gs.BusySeconds))
	}
	rep := gs.Report()
	if rep.Workers != 2 || rep.Cells != 4 || len(rep.WorkerIDs) != 2 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestDefaultWorkerIDsUnique(t *testing.T) {
	a, b := DefaultWorkerID(), DefaultWorkerID()
	if a == b {
		t.Fatalf("ids not unique: %s", a)
	}
}
