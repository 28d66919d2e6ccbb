package grid_test

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
)

// The cell kinds used here (test-square, test-flaky, test-hang, test-error,
// test-panic) and the GRID_WORKER_HELPER subprocess mode are defined by the
// package's internal tests, which share this binary.

// flakyRuns makes every test-flaky key unique, so -count=N reruns start
// from a fresh attempt counter.
var flakyRuns atomic.Int64

type cellArgs struct {
	X    float64 `json:"x"`
	Case string  `json:"case,omitempty"` // keys test-flaky's attempt counter
}

func cell(kind string, i int, cost float64, key string) grid.Spec {
	return grid.NewSpec(kind, grid.Coord{Section: "d", I: i}, "", cost, cellArgs{X: float64(i), Case: key})
}

// TestRunSharedLoop checks the one scheduler's contract: each cell
// delivered once with the right payload, costliest first on one slot,
// retries, the in-process timeout, subprocess slots, and the Failed and
// Retried counts of GridStats.
func TestRunSharedLoop(t *testing.T) {
	cases := []struct {
		name        string
		specs       func(key string) []grid.Spec
		opts        grid.Options
		wantOrder   []int // delivery order on one slot; nil: any
		wantCells   int
		wantFailed  int
		wantRetried int
		check       func(t *testing.T, byCell map[int]grid.Result)
	}{
		{
			name: "each cell once",
			specs: func(string) []grid.Spec {
				var specs []grid.Spec
				for i := 0; i < 12; i++ {
					specs = append(specs, cell("test-square", i, float64(i%4), ""))
				}
				return specs
			},
			opts:      grid.Options{Workers: 3},
			wantCells: 12,
			check: func(t *testing.T, byCell map[int]grid.Result) {
				for i := 0; i < 12; i++ {
					var p map[string]float64
					if err := json.Unmarshal(byCell[i].Payload, &p); err != nil || p["y"] != float64(i*i) {
						t.Errorf("cell %d: payload %s (err %v), want y=%d", i, byCell[i].Payload, err, i*i)
					}
				}
			},
		},
		{
			name: "costliest first",
			specs: func(string) []grid.Spec {
				return []grid.Spec{
					cell("test-square", 0, 1, ""),
					cell("test-square", 1, 9, ""),
					cell("test-square", 2, 4, ""),
					cell("test-square", 3, 9, ""), // tie keeps enumeration order
				}
			},
			opts:      grid.Options{Workers: 1},
			wantOrder: []int{1, 3, 2, 0},
			wantCells: 4,
		},
		{
			name: "retries succeed",
			specs: func(key string) []grid.Spec {
				return []grid.Spec{cell("test-flaky", 0, 0, key), cell("test-square", 1, 0, "")}
			},
			opts:        grid.Options{Workers: 1, Retries: 2},
			wantCells:   2,
			wantRetried: 1,
			check: func(t *testing.T, byCell map[int]grid.Result) {
				if r := byCell[0]; r.Err != "" || r.Attempts != 3 {
					t.Errorf("flaky cell: err %q after %d attempts, want success on attempt 3", r.Err, r.Attempts)
				}
			},
		},
		{
			name: "retries exhausted",
			specs: func(key string) []grid.Spec {
				return []grid.Spec{cell("test-flaky", 0, 0, key), cell("test-error", 1, 0, "")}
			},
			opts:        grid.Options{Workers: 2, Retries: 1},
			wantCells:   2,
			wantFailed:  2,
			wantRetried: 2,
			check: func(t *testing.T, byCell map[int]grid.Result) {
				if r := byCell[0]; r.Err == "" || r.Attempts != 2 {
					t.Errorf("flaky cell: err %q after %d attempts, want failure after 2", r.Err, r.Attempts)
				}
			},
		},
		{
			name: "in-process timeout",
			specs: func(string) []grid.Spec {
				return []grid.Spec{cell("test-hang", 0, 1, ""), cell("test-square", 1, 0, "")}
			},
			opts:       grid.Options{Workers: 1, Timeout: 50 * time.Millisecond},
			wantCells:  2,
			wantFailed: 1,
			check: func(t *testing.T, byCell map[int]grid.Result) {
				if !strings.Contains(byCell[0].Err, "timed out") {
					t.Errorf("hanging cell: err %q, want a timeout", byCell[0].Err)
				}
				if byCell[1].Err != "" {
					t.Errorf("cell after the timeout failed: %s", byCell[1].Err)
				}
			},
		},
		{
			name: "subprocess slots",
			specs: func(string) []grid.Spec {
				var specs []grid.Spec
				for i := 0; i < 6; i++ {
					specs = append(specs, cell("test-square", i, 0, ""))
				}
				return append(specs, cell("test-panic", 6, 0, ""))
			},
			opts: grid.Options{Workers: 2, WorkerCmd: []string{os.Args[0]},
				WorkerEnv: []string{"GRID_WORKER_HELPER=1"}},
			wantCells:  7,
			wantFailed: 1,
			check: func(t *testing.T, byCell map[int]grid.Result) {
				if !strings.Contains(byCell[6].Err, "panic: cell exploded") {
					t.Errorf("panicking cell: err %q, want the worker's isolated panic", byCell[6].Err)
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			byCell := map[int]grid.Result{}
			var order []int
			key := fmt.Sprintf("%s#%d", t.Name(), flakyRuns.Add(1))
			stats, err := grid.Run(c.specs(key), c.opts, func(r grid.Result) {
				if _, dup := byCell[r.Coord.I]; dup {
					t.Errorf("cell %v delivered twice", r.Coord)
				}
				byCell[r.Coord.I] = r
				order = append(order, r.Coord.I)
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(byCell) != c.wantCells || stats.Cells != c.wantCells {
				t.Fatalf("delivered %d cells (stats %d), want %d", len(byCell), stats.Cells, c.wantCells)
			}
			if c.wantOrder != nil && fmt.Sprint(order) != fmt.Sprint(c.wantOrder) {
				t.Errorf("delivery order %v, want %v", order, c.wantOrder)
			}
			if stats.Failed != c.wantFailed || stats.Retried != c.wantRetried {
				t.Errorf("stats Failed=%d Retried=%d, want %d/%d", stats.Failed, stats.Retried, c.wantFailed, c.wantRetried)
			}
			if c.check != nil {
				c.check(t, byCell)
			}
		})
	}
}
