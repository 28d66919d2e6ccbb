// Package metrics provides the error and regression statistics the paper's
// evaluation reports: absolute relative simulation error (Figs 4a, 6),
// summary statistics (Figs 5, 7 min–max intervals), and least-squares linear
// regression (Fig 8 slopes).
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// AbsRelErr returns |sim − real| / real as a percentage. A zero real value
// yields NaN (callers filter those points, as the paper implicitly does).
func AbsRelErr(sim, real float64) float64 {
	if real == 0 {
		return math.NaN()
	}
	return math.Abs(sim-real) / math.Abs(real) * 100
}

// Mean returns the arithmetic mean of xs, ignoring NaNs. Empty (or all-NaN)
// input returns NaN.
func Mean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		sum += x
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// MinMax returns the minimum and maximum of xs, ignoring NaNs.
func MinMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

// LinReg is a least-squares fit y = Slope·x + Intercept.
type LinReg struct {
	Slope, Intercept float64
	R2               float64
	N                int
}

// Fit computes the least-squares regression of ys on xs. It panics if the
// lengths differ and returns a zero fit for fewer than two points.
func Fit(xs, ys []float64) LinReg {
	if len(xs) != len(ys) {
		panic("metrics: length mismatch in Fit")
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return LinReg{N: len(xs)}
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinReg{N: len(xs)}
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	// R² from the correlation coefficient.
	vy := n*syy - sy*sy
	r2 := 0.0
	if vy > 0 {
		r := (n*sxy - sx*sy) / math.Sqrt(den*vy)
		r2 = r * r
	}
	return LinReg{Slope: slope, Intercept: intercept, R2: r2, N: len(xs)}
}

func (r LinReg) String() string {
	return fmt.Sprintf("y=%.4fx%+.4f (R²=%.3f, n=%d)", r.Slope, r.Intercept, r.R2, r.N)
}

// ErrRow is a labeled simulation-vs-reference comparison (one bar in
// Fig 4a/Fig 6).
type ErrRow struct {
	Label     string
	Real, Sim float64
	ErrPct    float64
}

// Errors builds rows comparing sims to reals with shared labels.
func Errors(labels []string, reals, sims []float64) []ErrRow {
	if len(labels) != len(reals) || len(labels) != len(sims) {
		panic("metrics: length mismatch in Errors")
	}
	out := make([]ErrRow, len(labels))
	for i := range labels {
		out[i] = ErrRow{
			Label:  labels[i],
			Real:   reals[i],
			Sim:    sims[i],
			ErrPct: AbsRelErr(sims[i], reals[i]),
		}
	}
	return out
}

// MeanErr averages the ErrPct column, ignoring NaNs.
func MeanErr(rows []ErrRow) float64 {
	xs := make([]float64, len(rows))
	for i, r := range rows {
		xs[i] = r.ErrPct
	}
	return Mean(xs)
}

// GridStats aggregates the experiment-grid runner's own counters: how many
// cells ran or failed, and how well the worker pool kept its workers busy.
type GridStats struct {
	Cells  int
	Failed int
	// Retried is always 0: the grid runs each cell once. It stays only for
	// the benchmark harness, which still reports it.
	Retried int
	// WallSeconds is the run's wall-clock duration; BusySeconds[w] is the
	// total cell-execution time worker w accumulated.
	WallSeconds float64
	BusySeconds []float64
}

// Workers returns the pool size.
func (s GridStats) Workers() int { return len(s.BusySeconds) }

// Busy returns the total cell-execution time across all workers — the
// wall-clock a one-worker pool would have needed for the same cells.
func (s GridStats) Busy() float64 {
	var sum float64
	for _, b := range s.BusySeconds {
		sum += b
	}
	return sum
}

// Utilization returns Busy / (Workers × Wall) in [0, 1]: 1 means no worker
// ever idled; low values indicate a straggler tail or too many workers.
func (s GridStats) Utilization() float64 {
	if s.WallSeconds <= 0 || len(s.BusySeconds) == 0 {
		return 0
	}
	return s.Busy() / (float64(len(s.BusySeconds)) * s.WallSeconds)
}

// Parallelism returns Busy / Wall: the effective number of concurrently
// busy workers, i.e. the wall-clock speedup over draining the same cells
// sequentially.
func (s GridStats) Parallelism() float64 {
	if s.WallSeconds <= 0 {
		return 0
	}
	return s.Busy() / s.WallSeconds
}

// TimingsReport is GridStats in its machine-readable form: the JSON document
// `experiments -timings-json` writes. It covers the cells the run executed;
// cells answered from a result cache are not counted.
type TimingsReport struct {
	Cells                int       `json:"cells"`
	Failed               int       `json:"failed"`
	Workers              int       `json:"workers"`
	WallSeconds          float64   `json:"wall_seconds"`
	BusySeconds          float64   `json:"busy_seconds"`
	PerWorkerBusySeconds []float64 `json:"per_worker_busy_seconds"`
	Utilization          float64   `json:"utilization"`
	EffectiveParallelism float64   `json:"effective_parallelism"`
}

// Report converts the stats to their serializable form.
func (s GridStats) Report() TimingsReport {
	return TimingsReport{
		Cells:                s.Cells,
		Failed:               s.Failed,
		Workers:              s.Workers(),
		WallSeconds:          s.WallSeconds,
		BusySeconds:          s.Busy(),
		PerWorkerBusySeconds: s.BusySeconds,
		Utilization:          s.Utilization(),
		EffectiveParallelism: s.Parallelism(),
	}
}

// WriteJSON writes the report as indented JSON with a trailing newline.
func (s GridStats) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s.Report(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
