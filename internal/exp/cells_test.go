package exp

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/grid"
)

// echoArgs parameterizes the trivial test kind: it echoes V back.
type echoArgs struct {
	V int `json:"v"`
}

func init() {
	grid.RegisterCell("exptest-echo", func(a echoArgs) (any, error) {
		if a.V < 0 {
			return nil, fmt.Errorf("negative v %d", a.V)
		}
		return map[string]int{"v": a.V}, nil
	})
}

func echoSpec(section string, i, v int) grid.Spec {
	return grid.NewSpec("exptest-echo", grid.Coord{Section: section, I: i},
		fmt.Sprintf("%s#%d", section, i), 0, echoArgs{V: v})
}

// echoSection renders "<key>: v0 v1 ..." from its coordinate-sorted payloads
// and writes one CSV with the same values.
func echoSection(key string, vals ...int) Section {
	specs := make([]grid.Spec, len(vals))
	for i, v := range vals {
		specs[i] = echoSpec(key, i, v)
	}
	return Section{
		Key:   key,
		Specs: specs,
		Merge: func(ps []grid.Payload) (*Output, error) {
			if err := wantCells(ps, len(vals)); err != nil {
				return nil, err
			}
			pays, err := decodeAll[map[string]int](ps)
			if err != nil {
				return nil, err
			}
			var parts []string
			for _, p := range pays {
				parts = append(parts, fmt.Sprintf("%d", p["v"]))
			}
			line := key + ": " + strings.Join(parts, " ")
			return &Output{
				Render: func(w io.Writer) { fmt.Fprintln(w, line) },
				CSVs: []CSV{{Name: key + ".csv", Write: func(w io.Writer) error {
					_, err := fmt.Fprintln(w, line)
					return err
				}}},
			}, nil
		},
	}
}

func result(section string, i, v int) grid.Result {
	return grid.RunSpec(echoSpec(section, i, v))
}

// TestEmitterStreamsInSectionOrder delivers results out of order — the
// second section completes entirely before the first — and checks the
// report still comes out in section order with coordinate-sorted cells.
func TestEmitterStreamsInSectionOrder(t *testing.T) {
	dir := t.TempDir()
	secs := []Section{echoSection("alpha", 10, 11), echoSection("beta", 20, 21)}
	var b strings.Builder
	em := NewEmitter(&b, dir, secs)

	// beta completes first; nothing may render until alpha is done.
	em.Deliver(result("beta", 1, 21))
	em.Deliver(result("beta", 0, 20))
	if b.Len() != 0 {
		t.Fatalf("rendered before the leading section completed: %q", b.String())
	}
	// alpha's cells arrive reversed; both sections must flush, in order.
	em.Deliver(result("alpha", 1, 11))
	em.Deliver(result("alpha", 0, 10))

	want := "alpha: 10 11\nbeta: 20 21\n"
	if b.String() != want {
		t.Fatalf("stdout = %q, want %q", b.String(), want)
	}
	if fails := em.Failures(); len(fails) != 0 {
		t.Fatalf("unexpected failures: %v", fails)
	}
	for _, name := range []string{"alpha.csv", "beta.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("CSV %s: %v", name, err)
		}
		prefix := strings.TrimSuffix(name, ".csv") + ": "
		if !strings.HasPrefix(string(data), prefix) {
			t.Fatalf("CSV %s content = %q", name, data)
		}
	}
}

// TestEmitterFailedSectionSkipped checks a failing cell suppresses its own
// section, is reported, and leaves the other sections intact.
func TestEmitterFailedSectionSkipped(t *testing.T) {
	secs := []Section{echoSection("alpha", 10, -1), echoSection("beta", 20)}
	var b strings.Builder
	em := NewEmitter(&b, "", secs)
	em.Deliver(result("alpha", 0, 10))
	em.Deliver(result("alpha", 1, -1)) // the cell errors
	em.Deliver(result("beta", 0, 20))

	if want := "beta: 20\n"; b.String() != want {
		t.Fatalf("stdout = %q, want %q", b.String(), want)
	}
	fails := em.Failures()
	if len(fails) != 1 || !strings.Contains(fails[0], "negative v") {
		t.Fatalf("failures = %v, want one negative-v failure", fails)
	}
}

// TestRunCellsFailsFast checks RunCells surfaces the first cell failure as
// an error.
func TestRunCellsFailsFast(t *testing.T) {
	_, err := RunCells([]grid.Spec{echoSpec("s", 0, 1), echoSpec("s", 1, -5)}, grid.Options{})
	if err == nil || !strings.Contains(err.Error(), "negative v") {
		t.Fatalf("err = %v, want the failing cell's error", err)
	}
}

// TestCostGB sanity-checks the shared cost estimator.
func TestCostGB(t *testing.T) {
	if got := costGB(3e9, 4); got != 12 {
		t.Fatalf("costGB(3e9, 4) = %v, want 12", got)
	}
}
