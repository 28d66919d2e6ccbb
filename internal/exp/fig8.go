package exp

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/units"
)

// SimTimeSeries is one line of Fig 8: wall-clock simulation time (this Go
// implementation's, not the authors' C++) as a function of concurrent
// application instances, with its least-squares fit.
type SimTimeSeries struct {
	Label   string
	N       []int
	Seconds []float64
	Fit     metrics.LinReg
}

// SimTimeResult is the full Fig 8: four configurations.
type SimTimeResult struct {
	Series []SimTimeSeries
	// Timings includes the wall-clock seconds and their fits in Render and
	// WriteCSV. Off by default: wall-clock numbers vary run to run, and
	// omitting them keeps `experiments` output byte-for-byte diffable.
	Timings bool
}

// fig8Configs are the four measured configurations; Coord.I indexes them.
var fig8Configs = []struct {
	label  string
	mode   engine.Mode
	remote bool
}{
	{"WRENCH (local)", engine.ModeCacheless, false},
	{"WRENCH (NFS)", engine.ModeCacheless, true},
	{"WRENCH-cache (local)", engine.ModeWriteback, false},
	{"WRENCH-cache (NFS)", engine.ModeWriteback, true},
}

// fig8Args parameterizes one timing cell: one (configuration, n) run.
type fig8Args struct {
	Mode   engine.Mode `json:"mode"`
	Remote bool        `json:"remote"`
	N      int         `json:"n"`
}

// fig8Payload is the measured wall-clock of one cell. When the cell runs on
// a busy multi-worker pool the measurement includes scheduling contention;
// run `-fig8 -timings -workers 1` for clean fits.
type fig8Payload struct {
	Seconds float64 `json:"seconds"`
}

func init() {
	grid.RegisterCell("fig8", func(a fig8Args) (any, error) {
		s, err := simTimeCell(a)
		if err != nil {
			return nil, err
		}
		return &fig8Payload{Seconds: s}, nil
	})
}

// doc places the cell's n synthetic instances on 3 GB files on the
// simulators' local or NFS platform in the cell's mode.
func (a fig8Args) doc() (*scenario.Doc, scenario.RunOpts, error) {
	d := paperDoc(fmt.Sprintf("fig8 mode=%v remote=%v n=%d", a.Mode, a.Remote, a.N), a.Mode, false, a.Remote)
	addSynthetic(d, a.N, 3*units.GB, 0, 0)
	return d, scenario.RunOpts{}, nil
}

// payload reads the run's Fig 5/7 observables; the timed cell keeps only
// its wall-clock.
func (fig8Args) payload(res *scenario.Result) any { return concurrentPayloadOf(res) }

// Fig8Cells enumerates the Fig 8 sweep: one timing cell per
// (configuration, level). Coordinates are (config index, level index).
func Fig8Cells(section string, levels []int) []grid.Spec {
	var specs []grid.Spec
	for ci, cfg := range fig8Configs {
		for li, n := range levels {
			cost := costGB(3*units.GB, n)
			if cfg.remote {
				cost *= 2
			}
			specs = append(specs, grid.NewSpec("fig8",
				grid.Coord{Section: section, I: ci, J: li},
				fmt.Sprintf("fig8 %s n=%d", cfg.label, n),
				cost, fig8Args{Mode: cfg.mode, Remote: cfg.remote, N: n}))
		}
	}
	return specs
}

// MergeFig8 assembles the timing cells into the four fitted series.
func MergeFig8(levels []int, timings bool, ps []grid.Payload) (*SimTimeResult, error) {
	if err := wantCells(ps, len(fig8Configs)*len(levels)); err != nil {
		return nil, fmt.Errorf("fig8: %w", err)
	}
	pays, err := decodeAll[fig8Payload](ps)
	if err != nil {
		return nil, err
	}
	res := &SimTimeResult{Timings: timings}
	for ci, cfg := range fig8Configs {
		s := SimTimeSeries{Label: cfg.label}
		for li, n := range levels {
			s.N = append(s.N, n)
			s.Seconds = append(s.Seconds, pays[ci*len(levels)+li].Seconds)
		}
		s.Fit = fitSeries(s)
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// RunSimTimeConfig measures one Fig 8 configuration (used by the root
// benchmarks, where the Go benchmark harness provides the repetitions).
func RunSimTimeConfig(mode engine.Mode, remote bool, levels []int) (SimTimeSeries, error) {
	s := SimTimeSeries{Label: fmt.Sprintf("%v remote=%v", mode, remote)}
	for _, n := range levels {
		sec, err := simTimeCell(fig8Args{Mode: mode, Remote: remote, N: n})
		if err != nil {
			return s, fmt.Errorf("fig8 %s n=%d: %w", s.Label, n, err)
		}
		s.N = append(s.N, n)
		s.Seconds = append(s.Seconds, sec)
	}
	s.Fit = fitSeries(s)
	return s, nil
}

// simTimeCell times one concurrent run, from its platform build to its
// result; compiling the cell's document is not timed.
func simTimeCell(a fig8Args) (float64, error) {
	d, opts, err := a.doc()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := runDoc(d, opts); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

func fitSeries(s SimTimeSeries) metrics.LinReg {
	xs := make([]float64, len(s.N))
	for i, n := range s.N {
		xs[i] = float64(n)
	}
	return metrics.Fit(xs, s.Seconds)
}
