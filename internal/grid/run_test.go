package grid_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/grid"
)

// The cell kinds used here (test-square, test-hang) are defined by the
// package's internal tests, which share this binary.

type cellArgs struct {
	X float64 `json:"x"`
}

func cell(kind string, i int, cost float64) grid.Spec {
	return grid.NewSpec(kind, grid.Coord{Section: "d", I: i}, "", cost, cellArgs{X: float64(i)})
}

// TestRunSharedLoop checks the one scheduler's contract: each cell
// delivered once with the right payload, costliest first on one slot, the
// in-process timeout, and the Failed count of GridStats.
func TestRunSharedLoop(t *testing.T) {
	cases := []struct {
		name       string
		specs      func() []grid.Spec
		opts       grid.Options
		wantOrder  []int // delivery order on one slot; nil: any
		wantCells  int
		wantFailed int
		check      func(t *testing.T, byCell map[int]grid.Result)
	}{
		{
			name: "each cell once",
			specs: func() []grid.Spec {
				var specs []grid.Spec
				for i := 0; i < 12; i++ {
					specs = append(specs, cell("test-square", i, float64(i%4)))
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
			specs: func() []grid.Spec {
				return []grid.Spec{
					cell("test-square", 0, 1),
					cell("test-square", 1, 9),
					cell("test-square", 2, 4),
					cell("test-square", 3, 9), // tie keeps enumeration order
				}
			},
			opts:      grid.Options{Workers: 1},
			wantOrder: []int{1, 3, 2, 0},
			wantCells: 4,
		},
		{
			name: "in-process timeout",
			specs: func() []grid.Spec {
				return []grid.Spec{cell("test-hang", 0, 1), cell("test-square", 1, 0)}
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
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			byCell := map[int]grid.Result{}
			var order []int
			stats, err := grid.Run(c.specs(), c.opts, func(r grid.Result) {
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
			if stats.Failed != c.wantFailed {
				t.Errorf("stats Failed=%d, want %d", stats.Failed, c.wantFailed)
			}
			if c.check != nil {
				c.check(t, byCell)
			}
		})
	}
}
