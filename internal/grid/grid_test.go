package grid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/des"
)

// TestMain doubles as the subprocess-worker helper: with GRID_WORKER_HELPER
// set the test binary serves the stdin/stdout cell protocol instead of
// running tests, so the procWorker path is exercised against a real process.
func TestMain(m *testing.M) {
	if os.Getenv("GRID_WORKER_HELPER") == "1" {
		if err := ServeWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Test cell kinds. The registry is global and process-wide, so each kind is
// registered exactly once here and parameterized through its args.

type testArgs struct {
	X     float64 `json:"x"`
	Sleep int     `json:"sleep_ms,omitempty"`
}

// flakyCount tracks per-key attempt counts for the "test-flaky" kind.
// flakyRuns makes every key unique (see flakyCase), so -count=N reruns start
// from a fresh attempt counter.
var (
	flakyMu    sync.Mutex
	flakyCount = map[string]int{}
	flakyRuns  atomic.Int64
)

// flakyCase returns test-flaky args keyed to this run of test t.
func flakyCase(t *testing.T) map[string]string {
	return map[string]string{"case": fmt.Sprintf("%s#%d", t.Name(), flakyRuns.Add(1))}
}

func init() {
	RegisterCell("test-square", func(a testArgs) (any, error) {
		if a.Sleep > 0 {
			time.Sleep(time.Duration(a.Sleep) * time.Millisecond)
		}
		return map[string]float64{"y": a.X * a.X}, nil
	})
	RegisterCell("test-panic", func(a testArgs) (any, error) {
		panic("cell exploded")
	})
	RegisterCell("test-proc-panic", func(a testArgs) (any, error) {
		k := des.NewKernel()
		k.Spawn("bad-proc", func(p *des.Proc) {
			p.Sleep(a.X)
			panic("proc exploded")
		})
		return nil, k.Run()
	})
	RegisterCell("test-error", func(a testArgs) (any, error) {
		return nil, fmt.Errorf("cell failed with x=%g", a.X)
	})
	Register("test-flaky", func(raw json.RawMessage) (any, error) {
		key := string(raw)
		flakyMu.Lock()
		flakyCount[key]++
		n := flakyCount[key]
		flakyMu.Unlock()
		if n < 3 {
			return nil, fmt.Errorf("transient failure %d", n)
		}
		return map[string]int{"attempts": n}, nil
	})
	RegisterCell("test-hang", func(a testArgs) (any, error) {
		time.Sleep(5 * time.Second)
		return map[string]string{"status": "finished"}, nil
	})
}

func spec(kind string, i int, cost float64) Spec {
	return NewSpec(kind, Coord{Section: "t", I: i}, fmt.Sprintf("%s#%d", kind, i), cost, testArgs{X: float64(i)})
}

func TestCoordLess(t *testing.T) {
	cases := []struct {
		a, b Coord
		want bool
	}{
		{Coord{Section: "a"}, Coord{Section: "b"}, true},
		{Coord{Section: "b"}, Coord{Section: "a"}, false},
		{Coord{Section: "a", I: 1}, Coord{Section: "a", I: 2}, true},
		{Coord{Section: "a", I: 1, J: 3}, Coord{Section: "a", I: 1, J: 4}, true},
		{Coord{Section: "a", I: 1, J: 3, K: 1}, Coord{Section: "a", I: 1, J: 3, K: 2}, true},
		{Coord{Section: "a", I: 1, J: 3, K: 2}, Coord{Section: "a", I: 1, J: 3, K: 2}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestClampWorkers(t *testing.T) {
	cases := []struct {
		requested, cells, want int
	}{
		{0, 100, 0},  // 0 resolves to GOMAXPROCS; checked separately below
		{-3, 100, 0}, // negative too
		{4, 100, 4},  // explicit count passes through
		{16, 4, 4},   // clamped to the cell count
		{16, 0, 16},  // no cells: no clamp (Run returns before spawning)
		{1, 1, 1},
	}
	for _, c := range cases {
		got := clampWorkers(c.requested, c.cells)
		want := c.want
		if want == 0 {
			if got < 1 {
				t.Errorf("clampWorkers(%d,%d) = %d, want >= 1", c.requested, c.cells, got)
			}
			continue
		}
		if got != want {
			t.Errorf("clampWorkers(%d,%d) = %d, want %d", c.requested, c.cells, got, want)
		}
	}
}

func TestScheduleOrderLongestFirst(t *testing.T) {
	specs := []Spec{
		spec("test-square", 0, 1),
		spec("test-square", 1, 5),
		spec("test-square", 2, 3),
		spec("test-square", 3, 5), // ties keep enumeration order (stable)
		spec("test-square", 4, 0),
	}
	got := ClaimOrder(specs)
	wantI := []int{1, 3, 2, 0, 4}
	for i, c := range got {
		if c != wantI[i] {
			t.Fatalf("claim position %d: got cell %d, want %d", i, c, wantI[i])
		}
	}
	// The input slice is untouched.
	for i, s := range specs {
		if s.Coord.I != i {
			t.Fatalf("ClaimOrder mutated its input at %d", i)
		}
	}
}

func TestScheduleOrderDrivesExecution(t *testing.T) {
	// On a single worker the execution order IS the schedule order.
	specs := []Spec{
		spec("test-square", 0, 1),
		spec("test-square", 1, 9),
		spec("test-square", 2, 4),
	}
	var order []int
	_, err := Run(specs, Options{Workers: 1}, func(r Result) {
		order = append(order, r.Coord.I)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

func TestRunSpecComputesPayload(t *testing.T) {
	r := RunSpec(spec("test-square", 7, 0))
	if r.Err != "" {
		t.Fatalf("unexpected error: %s", r.Err)
	}
	var p map[string]float64
	if err := json.Unmarshal(r.Payload, &p); err != nil {
		t.Fatal(err)
	}
	if p["y"] != 49 {
		t.Fatalf("payload y = %g, want 49", p["y"])
	}
}

func TestRunSpecUnknownKind(t *testing.T) {
	r := RunSpec(Spec{Kind: "test-unregistered"})
	if !strings.Contains(r.Err, "unknown cell kind") {
		t.Fatalf("want unknown-kind error, got %q", r.Err)
	}
}

func TestPanicIsolation(t *testing.T) {
	// A panicking cell yields a Result with the panic and stack; the pool and
	// the surrounding cells are unaffected.
	specs := []Spec{
		spec("test-square", 0, 0),
		spec("test-panic", 1, 0),
		spec("test-square", 2, 0),
	}
	var ok, failed int
	stats, err := Run(specs, Options{Workers: 2}, func(r Result) {
		if r.Err == "" {
			ok++
			return
		}
		failed++
		if r.Coord.I != 1 {
			t.Errorf("unexpected failing cell %v", r.Coord)
		}
		if !strings.Contains(r.Err, "panic: cell exploded") {
			t.Errorf("want panic message, got %q", r.Err)
		}
		if !strings.Contains(r.Err, "goroutine") {
			t.Errorf("want a stack trace in the error, got %q", r.Err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok != 2 || failed != 1 {
		t.Fatalf("ok=%d failed=%d, want 2/1", ok, failed)
	}
	if stats.Failed != 1 || stats.Cells != 3 {
		t.Fatalf("stats = %+v, want Failed=1 Cells=3", stats)
	}
}

func TestProcPanicFailsOnlyItsCell(t *testing.T) {
	// A panic inside a simulated process surfaces as the cell's error
	// through des.Kernel.Run; the in-process drain completes every other
	// cell.
	specs := []Spec{
		spec("test-square", 0, 0),
		spec("test-proc-panic", 1, 0),
		spec("test-square", 2, 0),
		spec("test-square", 3, 0),
	}
	var ok, failed int
	stats, err := Run(specs, Options{Workers: 2}, func(r Result) {
		if r.Err == "" {
			ok++
			return
		}
		failed++
		if r.Coord.I != 1 {
			t.Errorf("unexpected failing cell %v: %s", r.Coord, r.Err)
		}
		if !strings.Contains(r.Err, `process "bad-proc" panicked: proc exploded`) {
			t.Errorf("want the process panic, got %q", r.Err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok != 3 || failed != 1 || stats.Failed != 1 {
		t.Fatalf("ok=%d failed=%d stats=%+v, want 3/1", ok, failed, stats)
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	// test-flaky fails its first two attempts per unique args value.
	s := NewSpec("test-flaky", Coord{Section: "t"}, "flaky", 0, flakyCase(t))
	var got Result
	stats, err := Run([]Spec{s}, Options{Workers: 1, Retries: 2}, func(r Result) { got = r })
	if err != nil {
		t.Fatal(err)
	}
	if got.Err != "" {
		t.Fatalf("cell failed after retries: %s", got.Err)
	}
	if got.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", got.Attempts)
	}
	if stats.Retried != 1 || stats.Failed != 0 {
		t.Fatalf("stats = %+v, want Retried=1 Failed=0", stats)
	}
}

func TestRetryExhausted(t *testing.T) {
	s := NewSpec("test-flaky", Coord{Section: "t"}, "flaky", 0, flakyCase(t))
	var got Result
	stats, err := Run([]Spec{s}, Options{Workers: 1, Retries: 1}, func(r Result) { got = r })
	if err != nil {
		t.Fatal(err)
	}
	if got.Err == "" {
		t.Fatal("want failure after exhausting retries")
	}
	if got.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", got.Attempts)
	}
	if stats.Failed != 1 || stats.Retried != 1 {
		t.Fatalf("stats = %+v, want Failed=1 Retried=1", stats)
	}
}

func TestInProcessTimeout(t *testing.T) {
	s := spec("test-hang", 0, 0)
	var got Result
	_, err := Run([]Spec{s}, Options{Workers: 1, Timeout: 50 * time.Millisecond}, func(r Result) { got = r })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got.Err, "timed out") {
		t.Fatalf("want timeout error, got %q", got.Err)
	}
}

func TestRunDeliversEveryCell(t *testing.T) {
	var specs []Spec
	for i := 0; i < 40; i++ {
		specs = append(specs, spec("test-square", i, float64(i%7)))
	}
	seen := map[int]float64{}
	stats, err := Run(specs, Options{Workers: 8}, func(r Result) {
		if r.Err != "" {
			t.Errorf("cell %v failed: %s", r.Coord, r.Err)
			return
		}
		var p map[string]float64
		if err := json.Unmarshal(r.Payload, &p); err != nil {
			t.Errorf("cell %v payload: %v", r.Coord, err)
			return
		}
		if _, dup := seen[r.Coord.I]; dup {
			t.Errorf("cell %v delivered twice", r.Coord)
		}
		seen[r.Coord.I] = p["y"]
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 40 {
		t.Fatalf("delivered %d cells, want 40", len(seen))
	}
	for i := 0; i < 40; i++ {
		if seen[i] != float64(i*i) {
			t.Fatalf("cell %d: y = %g, want %d", i, seen[i], i*i)
		}
	}
	if stats.Cells != 40 || stats.Failed != 0 {
		t.Fatalf("stats = %+v, want Cells=40 Failed=0", stats)
	}
	if stats.Workers() != 8 {
		t.Fatalf("stats.Workers() = %d, want 8", stats.Workers())
	}
}

func TestSortPayloads(t *testing.T) {
	ps := []Payload{
		{Coord: Coord{Section: "b", I: 0}},
		{Coord: Coord{Section: "a", I: 1, K: 1}},
		{Coord: Coord{Section: "a", I: 1}},
		{Coord: Coord{Section: "a", I: 0, J: 2}},
	}
	SortPayloads(ps)
	want := []Coord{
		{Section: "a", I: 0, J: 2},
		{Section: "a", I: 1},
		{Section: "a", I: 1, K: 1},
		{Section: "b", I: 0},
	}
	for i, p := range ps {
		if p.Coord != want[i] {
			t.Fatalf("position %d: %v, want %v", i, p.Coord, want[i])
		}
	}
}

func TestServeWorkerProtocol(t *testing.T) {
	// Drive the worker protocol over in-memory pipes: specs in, results out,
	// in request order, panic isolated, EOF is a clean shutdown.
	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	for _, s := range []Spec{spec("test-square", 3, 0), spec("test-panic", 4, 0), spec("test-square", 5, 0)} {
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := ServeWorker(&in, &out); err != nil {
		t.Fatalf("ServeWorker: %v", err)
	}
	dec := json.NewDecoder(&out)
	var results []Result
	for {
		var r Result
		if err := dec.Decode(&r); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
		results = append(results, r)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	var p map[string]float64
	if err := json.Unmarshal(results[0].Payload, &p); err != nil || p["y"] != 9 {
		t.Fatalf("result 0: payload %s err %v, want y=9", results[0].Payload, err)
	}
	if !strings.Contains(results[1].Err, "panic: cell exploded") {
		t.Fatalf("result 1: want isolated panic, got %q", results[1].Err)
	}
	if err := json.Unmarshal(results[2].Payload, &p); err != nil || p["y"] != 25 {
		t.Fatalf("result 2: payload %s err %v, want y=25", results[2].Payload, err)
	}
}

func TestServeWorkerGarbageInput(t *testing.T) {
	err := ServeWorker(strings.NewReader("this is not json"), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "decoding spec") {
		t.Fatalf("want protocol error, got %v", err)
	}
}

func TestSubprocessPool(t *testing.T) {
	var specs []Spec
	for i := 0; i < 10; i++ {
		specs = append(specs, spec("test-square", i, float64(i)))
	}
	seen := map[int]float64{}
	stats, err := Run(specs, Options{
		Workers:   2,
		WorkerCmd: []string{os.Args[0]},
		WorkerEnv: []string{"GRID_WORKER_HELPER=1"},
	}, func(r Result) {
		if r.Err != "" {
			t.Errorf("cell %v failed: %s", r.Coord, r.Err)
			return
		}
		var p map[string]float64
		if err := json.Unmarshal(r.Payload, &p); err != nil {
			t.Errorf("cell %v payload: %v", r.Coord, err)
			return
		}
		seen[r.Coord.I] = p["y"]
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 10 {
		t.Fatalf("delivered %d cells, want 10", len(seen))
	}
	for i := 0; i < 10; i++ {
		if seen[i] != float64(i*i) {
			t.Fatalf("cell %d: y = %g, want %d", i, seen[i], i*i)
		}
	}
	if stats.Failed != 0 {
		t.Fatalf("stats = %+v, want Failed=0", stats)
	}
}

func TestSubprocessTimeoutKillsAndRestartsWorker(t *testing.T) {
	// The hanging cell's worker is killed on timeout; the next cell must
	// still run (on a lazily restarted process).
	specs := []Spec{
		spec("test-hang", 0, 9),
		spec("test-square", 1, 1),
	}
	byCell := map[int]Result{}
	_, err := Run(specs, Options{
		Workers:   1,
		Timeout:   100 * time.Millisecond,
		WorkerCmd: []string{os.Args[0]},
		WorkerEnv: []string{"GRID_WORKER_HELPER=1"},
	}, func(r Result) { byCell[r.Coord.I] = r })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(byCell[0].Err, "timed out") {
		t.Fatalf("hanging cell: want timeout, got %q", byCell[0].Err)
	}
	if byCell[1].Err != "" {
		t.Fatalf("cell after the killed worker failed: %s", byCell[1].Err)
	}
	var p map[string]float64
	if err := json.Unmarshal(byCell[1].Payload, &p); err != nil || p["y"] != 1 {
		t.Fatalf("restarted worker produced %s (err %v), want y=1", byCell[1].Payload, err)
	}
}

func TestPayloadJSONRoundTripIsExact(t *testing.T) {
	// The byte-identical guarantee rests on Go's float64 JSON encoding being
	// exact under round-trip (shortest representation that parses back to the
	// same bit pattern). Spot-check adversarial values.
	vals := []float64{0, 1.0 / 3, 0.1, 1e-300, 1e300, 12345.678901234567, 2.2250738585072014e-308}
	for _, v := range vals {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var back float64
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if back != v {
			t.Fatalf("float64 %v did not round-trip (got %v)", v, back)
		}
	}
}

// failingSource hands out cells forever and fails every completion.
type failingSource struct {
	mu     sync.Mutex
	claims int
}

func (f *failingSource) Claim(int) (Claim, bool, time.Duration, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.claims++
	return Claim{Cell: f.claims, Spec: spec("test-square", f.claims, 0)}, true, 0, nil
}

func (f *failingSource) Beat(int) error { return nil }

func (f *failingSource) Complete(int, Claim, Result) error {
	return fmt.Errorf("result store gone")
}

func TestDrainStopsOnSourceError(t *testing.T) {
	// A source error is a drain error: every slot stops claiming and Drain
	// returns it, instead of looping over a source that cannot record work.
	src := &failingSource{}
	stats, err := Drain(src, Options{Workers: 3}, func(r Result) {
		t.Errorf("cell %v delivered although its completion failed", r.Coord)
	})
	if err == nil || !strings.Contains(err.Error(), "result store gone") {
		t.Fatalf("err = %v, want the source's error", err)
	}
	if stats.Cells != 0 || src.claims > 3 {
		t.Fatalf("stats = %+v after %d claims: want no cells and one claim per slot", stats, src.claims)
	}
}
