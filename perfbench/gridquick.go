package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/exp"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/units"
)

// gridShape selects the experiment grid. The full shape is what
// `experiments -quick` runs (every section of -all): Exp 1 at 20 and
// 100 GB, Exps 2 and 3 at five concurrency levels with two reference
// repetitions, Exp 4, Fig 8 and the ablations — 79 cells.
type gridShape struct {
	exp1GB       []int64
	levels       []int
	reps         int
	ablationSize int64
}

var (
	gridQuick      = gridShape{exp1GB: []int64{20, 100}, levels: []int{1, 4, 8, 16, 32}, reps: 2, ablationSize: 100 * units.GB}
	gridQuickSmall = gridShape{exp1GB: []int64{1}, levels: []int{1, 2}, reps: 1, ablationSize: units.GB}
)

// gridWorkers is the pool size. With two workers on a two-vCPU VM a run's
// wall time also depended on how much of the second vCPU the host gave it
// (wall/CPU 0.51–0.55 across invocations), which made the median run time
// of consecutive invocations spread 0.17 against 0.10 for its CPU time.
const gridWorkers = 1

// section is one report unit: its cells and the merge that renders them.
// merge writes the section's stdout block and CSVs to w and returns the
// WRENCH-cache errors against the reference stack it computed, if any.
type section struct {
	key   string
	specs []grid.Spec
	merge func(ps []grid.Payload, w io.Writer) ([]float64, error)
}

// gridWorkload drains the experiment grid through grid.Run and merges it
// with the exp package's Merge functions. Its inputs are the paper's, so it
// takes no seed.
type gridWorkload struct{ shape gridShape }

func (w *gridWorkload) describe(out io.Writer) {
	n := len(allSpecs(w.sections()))
	fmt.Fprintf(out, "inputs: experiment grid, %d cells, %d workers (paper inputs; seed unused)\n", n, gridWorkers)
}

// modelErrPct is the mean WRENCH-cache error against the reference stack
// over the Exp 1 and Exp 4 merges, computed by the run itself.
func (w *gridWorkload) modelErrPct(o outcome) (float64, error) { return o.modelErr, nil }

func (w *gridWorkload) setup(traced bool) (job, error) {
	return &gridJob{sections: w.sections(), traced: traced}, nil
}

// sections enumerates the grid through exp's public *Cells functions, in
// report order, rendering each section as cmd/experiments does.
func (w *gridWorkload) sections() []section {
	sh := w.shape
	var out []section
	for _, gb := range sh.exp1GB {
		size := gb * units.GB
		key := fmt.Sprintf("exp1-%dgb", gb)
		out = append(out, section{key: key, specs: exp.Exp1Cells(key, size),
			merge: func(ps []grid.Payload, w io.Writer) ([]float64, error) {
				res, err := exp.MergeExp1(size, ps)
				if err != nil {
					return nil, err
				}
				res.Render(w)
				res.RenderMemProfiles(w)
				res.RenderCacheContents(w)
				for _, st := range exp.Exp1Stacks() {
					if ms := res.Mem[st]; ms != nil {
						if err := ms.WriteCSV(w); err != nil {
							return nil, err
						}
					}
				}
				return []float64{res.MeanErr[exp.StackCache]}, nil
			}})
	}
	for _, remote := range []bool{false, true} {
		key := "exp2"
		if remote {
			key = "exp3"
		}
		out = append(out, section{key: key,
			specs: exp.ConcurrentCells(key, remote, 3*units.GB, sh.levels, sh.reps),
			merge: func(ps []grid.Payload, w io.Writer) ([]float64, error) {
				res, err := exp.MergeConcurrent(remote, sh.levels, sh.reps, ps)
				if err != nil {
					return nil, err
				}
				res.Render(w)
				return nil, res.WriteCSV(w)
			}})
	}
	out = append(out, section{key: "exp4", specs: exp.Exp4Cells("exp4"),
		merge: func(ps []grid.Payload, w io.Writer) ([]float64, error) {
			res, err := exp.MergeExp4(ps)
			if err != nil {
				return nil, err
			}
			res.Render(w)
			return []float64{res.MeanErr[exp.StackCache]}, nil
		}})
	// Fig 8's payloads are wall-clock times; merged without timings, its
	// render and CSV omit them, so the digest stays deterministic.
	out = append(out, section{key: "fig8", specs: exp.Fig8Cells("fig8", sh.levels),
		merge: func(ps []grid.Payload, w io.Writer) ([]float64, error) {
			res, err := exp.MergeFig8(sh.levels, false, ps)
			if err != nil {
				return nil, err
			}
			res.Render(w)
			return nil, res.WriteCSV(w)
		}})
	out = append(out, section{key: "ablations", specs: exp.AblationCells("ablations", sh.ablationSize),
		merge: func(ps []grid.Payload, w io.Writer) ([]float64, error) {
			res, err := exp.MergeAblation(sh.ablationSize, ps)
			if err != nil {
				return nil, err
			}
			res.Render(w)
			return nil, nil
		}})
	return out
}

func allSpecs(sections []section) []grid.Spec {
	var specs []grid.Spec
	for _, s := range sections {
		specs = append(specs, s.specs...)
	}
	return specs
}

// gridJob is one drain and merge of the grid.
type gridJob struct {
	sections []section
	traced   bool

	stats   metrics.GridStats
	results []grid.Result
	digest  string
	errs    []float64
	mergeS  float64
}

func (j *gridJob) run() error {
	var err error
	j.stats, err = grid.Run(allSpecs(j.sections), grid.Options{Workers: gridWorkers}, func(r grid.Result) {
		j.results = append(j.results, r)
	})
	if err != nil {
		return err
	}
	if j.stats.Failed > 0 {
		return fmt.Errorf("%d of %d cells failed", j.stats.Failed, j.stats.Cells)
	}
	bySection := map[string][]grid.Payload{}
	for _, r := range j.results {
		bySection[r.Coord.Section] = append(bySection[r.Coord.Section], grid.Payload{Coord: r.Coord, Raw: r.Payload})
	}
	var out bytes.Buffer
	for _, s := range j.sections {
		ps := bySection[s.key]
		grid.SortPayloads(ps)
		start := time.Now()
		errs, err := s.merge(ps, &out)
		j.mergeS += time.Since(start).Seconds()
		if err != nil {
			return fmt.Errorf("merging %s: %w", s.key, err)
		}
		j.errs = append(j.errs, errs...)
	}
	j.digest = fmt.Sprintf("%x", sha256.Sum256(out.Bytes()))
	return nil
}

func (j *gridJob) finish() (outcome, error) {
	if n := len(allSpecs(j.sections)); len(j.results) != n {
		return outcome{}, fmt.Errorf("grid delivered %d results for %d cells", len(j.results), n)
	}
	o := outcome{fingerprint: "digest=" + j.digest, modelErr: metrics.Mean(j.errs)}
	if math.IsNaN(o.modelErr) {
		return outcome{}, fmt.Errorf("no WRENCH-cache error computed")
	}
	if j.traced {
		lv, err := j.layers()
		if err != nil {
			return outcome{}, err
		}
		o.layers = lv
	}
	return o, nil
}

// layers reports the grid and exp layers. A cell is on the reference
// stack when its arguments name the "real" stack or the ablations' real
// reference run.
func (j *gridJob) layers() (layerValues, error) {
	ref := map[grid.Coord]bool{}
	for _, s := range allSpecs(j.sections) {
		var a struct{ Stack, Variant string }
		if err := json.Unmarshal(s.Args, &a); err != nil {
			return nil, fmt.Errorf("decoding %s args: %w", s.Coord, err)
		}
		ref[s.Coord] = a.Stack == string(exp.StackReal) || a.Variant == "real reference"
	}
	var refS, simS, maxS float64
	for _, r := range j.results {
		if ref[r.Coord] {
			refS += r.Seconds
		} else {
			simS += r.Seconds
		}
		maxS = math.Max(maxS, r.Seconds)
	}
	st := j.stats
	return layerValues{
		"grid.cell_s.real":  refS,
		"grid.cell_s.sim":   simS,
		"grid.cell_s_max":   maxS,
		"grid.busy_s":       st.Busy(),
		"grid.utilization":  st.Utilization(),
		"grid.overhead_s":   st.WallSeconds - st.Busy()/float64(st.Workers()),
		"exp.merge_s":       j.mergeS,
		"grid.cells_failed": float64(st.Failed),
		"grid.retried":      float64(st.Retried),
	}, nil
}
