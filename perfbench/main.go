// Command perfbench is the simulator's end-to-end and per-layer benchmark.
//
//	perfbench --workload concurrent-local --seed 1 --seconds 45 --trace 0
//
// It builds one workload's inputs from the seed, runs the workload
// repeatedly for the given host seconds, checks every run's outputs, and
// prints its metrics; the last line of standard output is one JSON object
// with keys correct, attempted, failed and metrics. With --trace 0 the
// metrics are the end-to-end ones, measured untraced; with --trace 1 they
// are the per-layer ones, from traced runs in this process, plus the
// tracer's own overhead against untraced runs. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: concurrent-local or grid-quick")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 45, "host seconds to measure for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := newWorkload(*name, *seed, false)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d): %v\n", *name, *seconds, *trace, err)
		return 2
	}
	// One P (and one grid worker, see gridWorkers): a simulation runs one
	// process at a time, and with a second P every handoff between its
	// processes wakes the other CPU, which on a shared VM adds a wake-up
	// latency that varies with the host's load (concurrent-local ran 20 %
	// slower with GOMAXPROCS 2).
	runtime.GOMAXPROCS(1)
	fmt.Fprintf(stdout, "workload: %s seed=%d seconds=%v trace=%d\n", *name, *seed, *seconds, *trace)
	env, err := json.Marshal(environment())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "env: %s\n", env)
	w.describe(stdout)
	res, err := bench(w, time.Duration(*seconds*float64(time.Second)), *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := report(res, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// report prints one line per metric and then the result object as the
// last line.
func report(res *result, w io.Writer) error {
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(w, "metric: %-24s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// benchWorkload is one benchmark workload with its generated inputs.
type benchWorkload interface {
	// describe logs the generated inputs.
	describe(w io.Writer)
	// setup builds one run.
	setup(traced bool) (job, error)
	// modelErrPct is the simulator's error against the reference stack,
	// given the outcome of one of this workload's runs.
	modelErrPct(o outcome) (float64, error)
}

// job is one built run.
type job interface {
	run() error
	// finish checks the run's outputs and returns its outcome.
	finish() (outcome, error)
}

// outcome is what a finished run produced.
type outcome struct {
	// fingerprint covers every simulated result the run checks; all runs
	// of one invocation, traced or not, must agree on it.
	fingerprint   string
	readT, writeT float64 // mean per-instance read and write phase seconds
	modelErr      float64 // grid only: WRENCH-cache error from the merges
	layers        layerValues
}

// layerValues maps per-layer metric names to one traced run's values.
type layerValues map[string]float64

func newWorkload(name string, seed int64, small bool) (benchWorkload, error) {
	switch name {
	case "concurrent-local":
		if small {
			return newLocalWorkload(concurrentLocalSmall, seed), nil
		}
		return newLocalWorkload(concurrentLocal, seed), nil
	case "grid-quick":
		if small {
			return &gridWorkload{shape: gridQuickSmall}, nil
		}
		return &gridWorkload{shape: gridQuick}, nil
	}
	return nil, errors.New("unknown workload")
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// perLayerUnits lists every per-layer metric with its unit. A workload
// reports zero for a layer it does not enter.
var perLayerUnits = map[string]string{
	"core.self_s":           "s",
	"core.calls":            "count",
	"core.blocks_end":       "count",
	"core.read_hit_ratio":   "ratio",
	"core.flushed_gb":       "GB",
	"core.throttle_sim_s":   "sim_s",
	"engine.io_steps":       "count",
	"engine.rest_s":         "s",
	"engine.ns_per_io_step": "ns",
	"fluid.inflight_max":    "count",
	"des.queue_max":         "count",
	"grid.cell_s.real":      "s",
	"grid.cell_s.sim":       "s",
	"grid.cell_s_max":       "s",
	"grid.busy_s":           "s",
	"grid.utilization":      "ratio",
	"grid.overhead_s":       "s",
	"exp.merge_s":           "s",
	"grid.cells_failed":     "count",
	"grid.retried":          "count",
	"trace_overhead_pct":    "%",
}

// sample is one measured run.
type sample struct {
	setup, wall, cpu, allocMB float64
	traced                    bool
}

// runs holds the measured runs of one workload.
type runs struct {
	samples []sample
	outs    []outcome
	warm    int // warm-up runs that passed their checks
	failed  int
}

// attempted counts every run made, warm-up included.
func (rs *runs) attempted() int { return len(rs.samples) + rs.warm + rs.failed }

// measure makes one untraced warm-up run, then repeats runs of w for at
// least budget (and at least one run), collecting the heap before each so
// runs start alike. The warm-up run grows the heap and is checked like the
// others, but not sampled. With alternate, the sampled runs alternate
// between untraced and traced, starting untraced, with at least one of
// each. A run whose execution, checks or fingerprint fails is counted in
// failed and logged; every run must reproduce the first successful run's
// fingerprint.
func measure(w benchWorkload, alternate bool, budget time.Duration, log io.Writer) (*runs, error) {
	rs := &runs{}
	minRuns := 2
	if alternate {
		minRuns = 3
	}
	ref := ""
	var start time.Time
	for i := 0; i < minRuns || time.Since(start) < budget; i++ {
		if i == 1 {
			start = time.Now()
		}
		traced := alternate && i > 0 && i%2 == 0
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		j, err := w.setup(traced)
		if err != nil {
			return nil, fmt.Errorf("setting up run %d: %w", i, err)
		}
		setup := time.Since(t0)
		cpu0 := cpuSeconds()
		t1 := time.Now()
		err = j.run()
		wall := time.Since(t1)
		cpu := cpuSeconds() - cpu0
		runtime.ReadMemStats(&m1)
		var o outcome
		if err == nil {
			o, err = j.finish()
		}
		if err == nil && ref != "" && o.fingerprint != ref {
			err = fmt.Errorf("fingerprint %q differs from %q", o.fingerprint, ref)
		}
		if err != nil {
			rs.failed++
			fmt.Fprintf(log, "run %d (traced=%v) FAILED: %v\n", i, traced, err)
			continue
		}
		if ref == "" {
			ref = o.fingerprint
			fmt.Fprintf(log, "fingerprint: %s\n", ref)
		}
		if i == 0 {
			rs.warm++
			fmt.Fprintf(log, "run %d (traced=%v): warm-up, wall %.6fs\n", i, traced, wall.Seconds())
			continue
		}
		s := sample{
			setup: setup.Seconds(), wall: wall.Seconds(), cpu: cpu,
			allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6, traced: traced,
		}
		fmt.Fprintf(log, "run %d (traced=%v): setup %.6fs wall %.6fs cpu %.6fs alloc %.3fMB\n", i, traced, s.setup, s.wall, s.cpu, s.allocMB)
		rs.samples = append(rs.samples, s)
		rs.outs = append(rs.outs, o)
	}
	return rs, nil
}

// bench runs w for budget and reports its end-to-end metrics, or with
// traced its per-layer metrics.
func bench(w benchWorkload, budget time.Duration, traced bool, log io.Writer) (*result, error) {
	if traced {
		return benchTraced(w, budget, log)
	}
	rs, err := measure(w, false, budget, log)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: rs.attempted(), Failed: rs.failed, Metrics: map[string]metric{}}
	if len(rs.samples) > 0 {
		errPct, err := w.modelErrPct(rs.outs[0])
		if err != nil {
			fmt.Fprintf(log, "model error FAILED: %v\n", err)
			res.Attempted++
			res.Failed++
		}
		walls := column(rs.samples, func(s sample) float64 { return s.wall })
		fmt.Fprintf(log, "samples: %d runs\n", len(walls))
		res.Metrics = map[string]metric{
			"run_s_p50":        {quantile(walls, 0.5), "s"},
			"cpu_s_per_run":    {quantile(column(rs.samples, func(s sample) float64 { return s.cpu }), 0.5), "s"},
			"alloc_mb_per_run": {quantile(column(rs.samples, func(s sample) float64 { return s.allocMB }), 0.5), "MB"},
			"max_rss_mb":       {maxRSSMB(), "MB"},
			"setup_s":          {quantile(column(rs.samples, func(s sample) float64 { return s.setup }), 0.5), "s"},
			"model_err_pct":    {errPct, "%"},
		}
	}
	res.Correct = res.Failed == 0 && len(rs.samples) > 0
	return res, nil
}

// benchTraced alternates untraced and traced runs, so that both see the
// host alike. Every traced run must fingerprint like the untraced runs, so
// the tracer provably does not change what is simulated; the difference
// between their median wall times is the tracer's overhead.
func benchTraced(w benchWorkload, budget time.Duration, log io.Writer) (*result, error) {
	rs, err := measure(w, true, budget, log)
	if err != nil {
		return nil, err
	}
	var plainWalls, tracedWalls []float64
	var traced []outcome
	for i, s := range rs.samples {
		if s.traced {
			tracedWalls = append(tracedWalls, s.wall)
			traced = append(traced, rs.outs[i])
		} else {
			plainWalls = append(plainWalls, s.wall)
		}
	}
	res := &result{
		Attempted: rs.attempted(),
		Failed:    rs.failed,
		Correct:   rs.failed == 0 && len(plainWalls) > 0 && len(tracedWalls) > 0,
		Metrics:   map[string]metric{},
	}
	if !res.Correct {
		return res, nil
	}
	for name, unit := range perLayerUnits {
		vals := make([]float64, len(traced))
		for i, o := range traced {
			vals[i] = o.layers[name]
		}
		res.Metrics[name] = metric{quantile(vals, 0.5), unit}
	}
	overhead := quantile(tracedWalls, 0.5)/quantile(plainWalls, 0.5) - 1
	res.Metrics["trace_overhead_pct"] = metric{overhead * 100, "%"}
	return res, nil
}

func column(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSMB is the process's peak resident set size (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// env is the environment stamp printed next to every result.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func environment() env {
	e := env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", Go: runtime.Version(), Commit: os.Getenv("PERFBENCH_COMMIT"),
	}
	if e.Commit == "" {
		e.Commit = "unknown"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
