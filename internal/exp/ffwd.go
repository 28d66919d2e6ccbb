package exp

import (
	"fmt"
	"io"
	"math"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/scenario"
	"repro/internal/textplot"
	"repro/internal/units"
)

// FFwdRow is one workload configuration of the fast-forward ablation: the
// exact and fast-forwarded runs of the same repeated-iteration pipeline,
// side by side.
type FFwdRow struct {
	Workload      string
	Iterations    int
	MakespanExact float64
	MakespanFFwd  float64
	ErrPct        float64 // |ffwd − exact| / exact × 100
	HitExact      float64
	HitFFwd       float64
	Simulated     int // iterations the ffwd run actually simulated
	Skipped       int // iterations it skipped analytically
}

// FFwdResult collects the fast-forward speedup/error ablation.
type FFwdResult struct {
	Rows []FFwdRow
}

// ffwdWorkload is one repeated-iteration pipeline configuration. ram
// overrides the paper node's 250 GiB when > 0 — the pressured cell forces
// eviction churn inside each iteration, the hard case for phase detection.
type ffwdWorkload struct {
	name       string
	iterations int
	size       int64
	ram        int64
	cost       float64
}

// ffwdWorkloads lists the ablation's configurations; quick keeps the two
// small pipelines.
func ffwdWorkloads(quick bool) []ffwdWorkload {
	workloads := []ffwdWorkload{
		{name: "iter-60x1gb", iterations: 60, size: units.GB, ram: 8 * units.GiB, cost: costGB(units.GB, 60)},
		{name: "iter-200x1gb", iterations: 200, size: units.GB, ram: 8 * units.GiB, cost: costGB(units.GB, 200)},
	}
	if !quick {
		workloads = append(workloads,
			ffwdWorkload{name: "iter-500x2gb", iterations: 500, size: 2 * units.GB, ram: 16 * units.GiB, cost: costGB(2*units.GB, 500)},
			ffwdWorkload{name: "iter-200x1gb-pressured", iterations: 200, size: units.GB, ram: 3 * units.GiB, cost: costGB(units.GB, 200)},
		)
	}
	return workloads
}

func ffwdWorkloadByName(name string) (ffwdWorkload, error) {
	for _, w := range ffwdWorkloads(false) {
		if w.name == name {
			return w, nil
		}
	}
	return ffwdWorkload{}, fmt.Errorf("unknown ffwd workload %q", name)
}

// ffwdArgs parameterizes one (workload, exact-or-ffwd) cell.
type ffwdArgs struct {
	Workload string `json:"workload"`
	FFwd     bool   `json:"ffwd"`
}

// ffwdPayload is one cell's observables.
type ffwdPayload struct {
	Makespan  float64 `json:"makespan"`
	HitRatio  float64 `json:"hit_ratio"`
	Simulated int     `json:"simulated"`
	Skipped   int     `json:"skipped"`
}

func init() {
	grid.RegisterCell("ffwd", func(a ffwdArgs) (any, error) { return runDocCell(a) })
}

// doc runs the workload's pipeline on the paper's local platform in
// writeback mode with the workload's RAM, fast-forwarded or exact.
func (a ffwdArgs) doc() (*scenario.Doc, scenario.RunOpts, error) {
	w, err := ffwdWorkloadByName(a.Workload)
	if err != nil {
		return nil, scenario.RunOpts{}, err
	}
	d := paperDoc("ffwd ablation "+a.Workload, engine.ModeWriteback, false, false)
	d.Platform.Hosts[0].RAM = byteStr(w.ram)
	addWorkload(d, scenario.WorkloadDoc{Name: "iter", Kind: "iterative", Size: byteStr(w.size), Iterations: w.iterations})
	var opts scenario.RunOpts
	if a.FFwd {
		opts.FastForward = &engine.FFwdConfig{}
	}
	return d, opts, nil
}

func (ffwdArgs) payload(res *scenario.Result) any {
	rep := res.Sim.FFwdReport()
	return &ffwdPayload{
		Makespan: res.Makespan, HitRatio: res.ReadHitRatio(res.Doc.Platform.Hosts[0].Name),
		Simulated: rep.IterationsSimulated, Skipped: rep.IterationsSkipped,
	}
}

// FFwdCells enumerates the ablation grid: coordinates are
// (workload index, 0=exact / 1=fast-forward).
func FFwdCells(section string, quick bool) []grid.Spec {
	var specs []grid.Spec
	for wi, w := range ffwdWorkloads(quick) {
		for fi, ffwd := range []bool{false, true} {
			label := "exact"
			if ffwd {
				label = "ffwd"
			}
			specs = append(specs, grid.NewSpec("ffwd",
				grid.Coord{Section: section, I: wi, J: fi},
				fmt.Sprintf("ffwd %s/%s", w.name, label),
				w.cost, ffwdArgs{Workload: w.name, FFwd: ffwd}))
		}
	}
	return specs
}

// MergeFFwd pairs each workload's exact and fast-forwarded cells into rows.
func MergeFFwd(quick bool, ps []grid.Payload) (*FFwdResult, error) {
	workloads := ffwdWorkloads(quick)
	if err := wantCells(ps, 2*len(workloads)); err != nil {
		return nil, fmt.Errorf("ffwd ablation: %w", err)
	}
	pays, err := decodeAll[ffwdPayload](ps)
	if err != nil {
		return nil, err
	}
	res := &FFwdResult{}
	for wi, w := range workloads {
		exact, ffwd := pays[2*wi], pays[2*wi+1]
		errPct := 0.0
		if exact.Makespan > 0 {
			errPct = math.Abs(ffwd.Makespan-exact.Makespan) / exact.Makespan * 100
		}
		res.Rows = append(res.Rows, FFwdRow{
			Workload: w.name, Iterations: w.iterations,
			MakespanExact: exact.Makespan, MakespanFFwd: ffwd.Makespan,
			ErrPct:   errPct,
			HitExact: exact.HitRatio, HitFFwd: ffwd.HitRatio,
			Simulated: ffwd.Simulated, Skipped: ffwd.Skipped,
		})
	}
	return res, nil
}

// Render prints the ablation as one table, exact vs fast-forwarded.
func (r *FFwdResult) Render(w io.Writer) {
	fmt.Fprintln(w, "== Fast-forward ablation: exact vs phase-skipped repeated pipelines ==")
	t := &textplot.Table{Header: []string{
		"workload", "iters", "exact (s)", "ffwd (s)", "err %", "simulated", "skipped",
	}}
	for _, row := range r.Rows {
		t.Add(row.Workload, fmt.Sprintf("%d", row.Iterations),
			fmt.Sprintf("%.2f", row.MakespanExact), fmt.Sprintf("%.2f", row.MakespanFFwd),
			fmt.Sprintf("%.4f", row.ErrPct),
			fmt.Sprintf("%d", row.Simulated), fmt.Sprintf("%d", row.Skipped))
	}
	t.Render(w)
}

// WriteCSV emits one row per workload configuration.
func (r *FFwdResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "workload,iterations,makespan_exact_s,makespan_ffwd_s,err_pct,iters_simulated,iters_skipped,hit_ratio_exact,hit_ratio_ffwd"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%s,%d,%.3f,%.3f,%.4f,%d,%d,%.4f,%.4f\n",
			row.Workload, row.Iterations, row.MakespanExact, row.MakespanFFwd,
			row.ErrPct, row.Simulated, row.Skipped, row.HitExact, row.HitFFwd); err != nil {
			return err
		}
	}
	return nil
}
