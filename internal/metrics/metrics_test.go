package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestAbsRelErr(t *testing.T) {
	if got := AbsRelErr(150, 100); got != 50 {
		t.Fatalf("got %v", got)
	}
	if got := AbsRelErr(50, 100); got != 50 {
		t.Fatalf("got %v", got)
	}
	if got := AbsRelErr(100, 100); got != 0 {
		t.Fatalf("got %v", got)
	}
	if !math.IsNaN(AbsRelErr(1, 0)) {
		t.Fatal("zero reference must yield NaN")
	}
	if got := AbsRelErr(-50, -100); got != 50 {
		t.Fatalf("negative reference: got %v", got)
	}
}

func TestMeanIgnoresNaN(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("got %v", got)
	}
	if got := Mean([]float64{1, math.NaN(), 3}); got != 2 {
		t.Fatalf("got %v", got)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Mean([]float64{math.NaN()})) {
		t.Fatal("empty/all-NaN mean must be NaN")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, math.NaN(), -1, 7})
	if lo != -1 || hi != 7 {
		t.Fatalf("lo=%v hi=%v", lo, hi)
	}
}

func TestFitExactLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	f := Fit(xs, ys)
	if math.Abs(f.Slope-2) > 1e-12 || math.Abs(f.Intercept-1) > 1e-12 {
		t.Fatalf("fit = %+v", f)
	}
	if math.Abs(f.R2-1) > 1e-12 {
		t.Fatalf("R² = %v, want 1", f.R2)
	}
}

func TestFitDegenerate(t *testing.T) {
	if f := Fit([]float64{1}, []float64{2}); f.Slope != 0 || f.N != 1 {
		t.Fatalf("single point fit = %+v", f)
	}
	if f := Fit([]float64{2, 2, 2}, []float64{1, 2, 3}); f.Slope != 0 {
		t.Fatalf("vertical-line fit = %+v", f)
	}
}

func TestFitLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Fit([]float64{1, 2}, []float64{1})
}

// Property: fitting y = a·x + b recovers a and b for random a, b.
func TestPropertyFitRecovers(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.Abs(a) > 1e6 {
			return true
		}
		if math.IsNaN(b) || math.IsInf(b, 0) || math.Abs(b) > 1e6 {
			return true
		}
		var xs, ys []float64
		for x := 0.0; x < 10; x++ {
			xs = append(xs, x)
			ys = append(ys, a*x+b)
		}
		fit := Fit(xs, ys)
		tol := 1e-6 * (1 + math.Abs(a) + math.Abs(b))
		return math.Abs(fit.Slope-a) < tol && math.Abs(fit.Intercept-b) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestErrorsAndMeanErr(t *testing.T) {
	rows := Errors([]string{"a", "b"}, []float64{100, 200}, []float64{150, 100})
	if rows[0].ErrPct != 50 || rows[1].ErrPct != 50 {
		t.Fatalf("rows = %+v", rows)
	}
	if MeanErr(rows) != 50 {
		t.Fatalf("mean = %v", MeanErr(rows))
	}
}

func TestErrorsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Errors([]string{"a"}, []float64{1, 2}, []float64{1})
}

func TestLinRegString(t *testing.T) {
	s := LinReg{Slope: 0.05, Intercept: -0.19, R2: 0.99, N: 32}.String()
	if s == "" {
		t.Fatal("empty string")
	}
}

func TestGridStats(t *testing.T) {
	s := GridStats{
		Cells:       10,
		Failed:      1,
		WallSeconds: 10,
		BusySeconds: []float64{8, 6, 4, 2}, // 20s busy on 4 workers
	}
	if s.Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4", s.Workers())
	}
	if s.Busy() != 20 {
		t.Fatalf("Busy() = %v, want 20", s.Busy())
	}
	if got, want := s.Utilization(), 0.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Utilization() = %v, want %v", got, want)
	}
	if got, want := s.Parallelism(), 2.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Parallelism() = %v, want %v", got, want)
	}
}

func TestGridStatsDegenerate(t *testing.T) {
	var zero GridStats
	if zero.Workers() != 0 || zero.Busy() != 0 || zero.Utilization() != 0 || zero.Parallelism() != 0 {
		t.Fatalf("zero stats should report zeros, got %+v", zero)
	}
	noWall := GridStats{BusySeconds: []float64{1}}
	if noWall.Utilization() != 0 || noWall.Parallelism() != 0 {
		t.Fatal("wall=0 must not divide by zero")
	}
}

func TestTimingsReportRoundTrip(t *testing.T) {
	s := GridStats{
		Cells:       10,
		Failed:      1,
		WallSeconds: 10,
		BusySeconds: []float64{8, 6, 4, 2},
	}
	rep := s.Report()
	if rep.Workers != 4 || rep.BusySeconds != 20 || rep.Cells != 10 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Utilization != s.Utilization() || rep.EffectiveParallelism != s.Parallelism() {
		t.Fatalf("derived fields drifted from GridStats: %+v", rep)
	}

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if out[len(out)-1] != '\n' {
		t.Fatal("JSON output must end with a newline")
	}
	// The document parses back losslessly.
	var back TimingsReport
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rep) {
		t.Fatalf("JSON did not round-trip:\n%+v\n%+v", back, rep)
	}
	// The document's keys are exactly these: a field added or dropped is a
	// format change this list must record.
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{
		"busy_seconds", "cells", "effective_parallelism", "failed",
		"per_worker_busy_seconds", "utilization", "wall_seconds", "workers",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("JSON keys %v, want %v:\n%s", keys, want, out)
	}
}

func TestTimingsReportAnonymousWorkers(t *testing.T) {
	// Grid slots are anonymous: the report names no workers.
	s := GridStats{Cells: 1, WallSeconds: 1, BusySeconds: []float64{1}}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("worker_ids")) {
		t.Fatalf("report must not name workers:\n%s", buf.String())
	}
}
