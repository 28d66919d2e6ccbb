package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/snapshot"
	"repro/internal/textplot"
	"repro/internal/units"
)

// oracleMaxErrPct is the makespan error (percent) above which -ffwd-oracle
// fails the run.
const oracleMaxErrPct = 1.0

// run executes a compiled document. pcsim's one workload failing fails the
// run.
func run(doc *scenario.Doc, opts scenario.RunOpts) (*scenario.Result, error) {
	res, err := scenario.Run(doc, opts)
	if err == nil {
		err = res.WorkloadErr()
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// report writes the flag mode's result: a header, the op or task table and
// the makespan line.
func (o *options) report(res *scenario.Result, w io.Writer) {
	wl := res.Doc.Workloads[0]
	hr := res.Hosts[wl.Host]
	ram := units.FormatBytes(hr.Host.Spec().MemoryCap)
	size := fileSize(wl)
	switch {
	case wl.Kind == "workflow":
		x := res.Workflows[wl.Name+"[0]"]
		fmt.Fprintf(w, "pcsim: workflow %s on platform %s (host %s, mode %s)\n",
			x.Workflow.Name, o.platform, wl.Host, hr.Mode)
		t := &textplot.Table{Header: []string{"task", "start (s)", "end (s)"}}
		for _, tt := range x.Report.OrderedTimings() {
			t.Add(tt.Name, fmt.Sprintf("%.2f", tt.Start), fmt.Sprintf("%.2f", tt.End))
		}
		t.Render(w)
		fmt.Fprintf(w, "makespan: %s\n", units.FormatSeconds(x.Report.Makespan))
	case wl.Kind == "iterative":
		fmt.Fprintf(w, "pcsim: iterative pipeline, %d iterations, %s per file, mode=%s, RAM=%s\n",
			wl.Iterations, size, hr.Mode, ram)
		if rep := res.Sim.FFwdReport(); rep.Steady {
			fmt.Fprintf(w, "fast-forward: simulated %d iterations, skipped %d analytically (steady at t=%.6gs, iteration period %.6gs)\n",
				rep.IterationsSimulated, rep.IterationsSkipped, rep.SteadyAtSimS, rep.IterSimS)
		} else if rep.Enabled {
			fmt.Fprintln(w, "fast-forward: no steady state detected; every iteration simulated")
		}
		fmt.Fprintf(w, "makespan: %s   read hit ratio: %.4f\n",
			units.FormatSeconds(res.Makespan), res.ReadHitRatio(wl.Host))
	case o.platform != "":
		fmt.Fprintf(w, "pcsim: synthetic pipeline on platform %s (host %s, mode %s)\n", o.platform, wl.Host, hr.Mode)
		opTable(res, w)
		fmt.Fprintf(w, "makespan: %s\n", units.FormatSeconds(res.Makespan))
	default:
		fmt.Fprintf(w, "pcsim: %d instance(s), %s files, mode=%s, RAM=%s\n", wl.Instances, size, hr.Mode, ram)
		opTable(res, w)
		fmt.Fprintf(w, "makespan: %s   read total: %.1fs   write total: %.1fs\n",
			units.FormatSeconds(res.Makespan), res.Sim.Log.Duration("read", -1), res.Sim.Log.Duration("write", -1))
	}
}

// fileSize formats the workload's per-file size.
func fileSize(wl scenario.WorkloadDoc) string {
	size, _ := units.ParseBytes(wl.Size)
	return units.FormatBytes(size)
}

// opTable renders each logged op name's mean duration and total bytes.
func opTable(res *scenario.Result, w io.Writer) {
	log := res.Sim.Log
	t := &textplot.Table{Header: []string{"op", "mean duration (s)", "total bytes"}}
	for _, name := range log.Names() {
		ops := log.ByName(name)
		var d float64
		var bytes int64
		for _, op := range ops {
			d += op.Duration()
			bytes += op.Bytes
		}
		t.Add(name, fmt.Sprintf("%.2f", d/float64(len(ops))), units.FormatBytes(bytes))
	}
	t.Render(w)
}

// writeOutputs writes the -snapshot-out and -csv files.
func (o *options) writeOutputs(res *scenario.Result, w io.Writer) error {
	if o.snapOut != "" {
		snap, err := res.SnapshotState()
		if err == nil && len(snap.Hosts)+len(snap.Cgroups)+len(snap.Servers) == 0 {
			err = errors.New("this run has no cache state to snapshot")
		}
		if err == nil {
			err = snapshot.WriteFile(o.snapOut, snap)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "cache snapshot written to %s\n", o.snapOut)
	}
	if o.csv != "" {
		f, err := os.Create(o.csv)
		if err != nil {
			return err
		}
		err = res.Hosts[res.Doc.Workloads[0].Host].MemTrace.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "memory profile written to %s\n", o.csv)
	}
	return nil
}

// runOracle runs the document exactly and with fast-forward, back to back,
// and reports the makespan and hit-ratio error, failing when the makespan
// error exceeds oracleMaxErrPct or no steady state was detected.
func (o *options) runOracle(doc *scenario.Doc, ffwd *engine.FFwdConfig, w io.Writer) int {
	t0 := time.Now()
	exact, err := run(doc, scenario.RunOpts{})
	if err != nil {
		return fail(fmt.Errorf("exact run: %w", err), 1)
	}
	exWall := time.Since(t0)
	t1 := time.Now()
	fast, err := run(doc, scenario.RunOpts{FastForward: ffwd})
	if err != nil {
		return fail(fmt.Errorf("fast-forward run: %w", err), 1)
	}
	ffWall := time.Since(t1)

	wl := doc.Workloads[0]
	exMk, ffMk := exact.Makespan, fast.Makespan
	errPct := math.Abs(ffMk-exMk) / exMk * 100
	exHit, ffHit := exact.ReadHitRatio(wl.Host), fast.ReadHitRatio(wl.Host)
	rep := fast.Sim.FFwdReport()

	fmt.Fprintf(w, "ffwd oracle: %d iterations, %s per file, mode=%s\n",
		wl.Iterations, fileSize(wl), exact.Hosts[wl.Host].Mode)
	fmt.Fprintf(w, "  exact:        makespan %.6gs   hit ratio %.4f\n", exMk, exHit)
	fmt.Fprintf(w, "  fast-forward: makespan %.6gs   hit ratio %.4f   (simulated %d, skipped %d)\n",
		ffMk, ffHit, rep.IterationsSimulated, rep.IterationsSkipped)
	fmt.Fprintf(w, "  makespan error: %.4f%%   hit-ratio error: %.4f\n", errPct, math.Abs(ffHit-exHit))
	fmt.Fprintf(w, "  wall-clock: exact %.3fs, fast-forward %.3fs (speedup %.1fx)\n",
		exWall.Seconds(), ffWall.Seconds(), float64(exWall)/float64(ffWall))
	if errPct > oracleMaxErrPct {
		fmt.Fprintf(w, "oracle: FAIL (makespan error %.4f%% > %g%%)\n", errPct, oracleMaxErrPct)
		return 1
	}
	if !rep.Steady {
		fmt.Fprintln(w, "oracle: FAIL (no steady state detected)")
		return 1
	}
	fmt.Fprintln(w, "oracle: PASS")
	return 0
}
