// Command pcsim runs one page-cache simulation with user-chosen parameters
// — a quick way to explore cache behaviour outside the paper's fixed
// experiment grid. Every mode builds one scenario document (see
// internal/scenario) and runs it through scenario.Run: -scenario loads the
// document from a file, and the flag modes compile their flags into one.
//
// Examples:
//
//	pcsim -size 20GB -mode writeback
//	pcsim -size 3GB -mode cacheless -instances 8
//	pcsim -size 10GB -mode writeback -ram 32GiB -dirty-ratio 0.4 -csv mem.csv
//	pcsim -size 20GB -mode writeback -ram 32GiB -policy clock
//	pcsim -size 20GB -mode writeback -ram 32GiB -writeback file-rr -dirty-background 0.1
//	pcsim -platform cluster.json -workflow nighres.json
//	pcsim -scenario testdata/scenarios/nfs-server-restart.json
//	pcsim -scenario testdata/scenarios/random-chaos.json -chaos-seed 7
//	pcsim -scenario testdata/scenarios/mixed-disk-slowdown.json
//
// The flag modes run one workload on the first partition of the first host:
//
//   - the synthetic pipeline (the default; -size, -cpu, -instances);
//   - the repeated-iteration pipeline (-iterations N; -size, -cpu), which
//     reads one input file, computes, and rewrites a scratch output every
//     iteration. Once K consecutive iterations produce matching phase
//     signatures the engine skips the rest analytically (disable with
//     -ffwd=false; tune with -ffwd-k and -ffwd-tol). -ffwd-oracle runs both
//     paths and reports the makespan and hit-ratio error, failing above 1%
//     makespan error;
//   - a JSON workflow (-workflow, which requires -platform).
//
// The host is node0, flag-built from -ram, -mem-bw and -disk-bw (32 cores
// at 1 GFLOPS, disk node0.disk on partition scratch), or the -platform
// file's first host. -mode, -chunk, -policy, -writeback, -dirty-ratio,
// -dirty-background and -dirty-expire apply to every host of either;
// -csv, -snapshot-in and -snapshot-out to every flag mode. A flag the
// chosen mode cannot honour exits 2 and names the flag: -ram, -mem-bw or
// -disk-bw with -platform; -size, -cpu, -instances or -iterations with
// -workflow; -instances with -iterations; -ffwd-oracle, -ffwd-k or
// -ffwd-tol without -iterations; -ffwd, -csv or -snapshot-out with
// -ffwd-oracle; -chaos-seed without -scenario; and with -scenario every
// flag but -chaos-seed and -snapshot-out. (-ffwd is accepted in every flag
// mode: only iterative runs have anything to fast-forward.)
//
// Platform JSON hosts accept "writebackPolicy" and "dirtyBackgroundRatio"
// (overridden host-wide by -writeback and -dirty-background), and
// "perDeviceWriteback": true. Every host's page cache has one writeback
// domain with one flusher by default; perDeviceWriteback adds a domain per
// disk — per-device dirty thresholds scaled by bandwidth share, a flusher
// per device running the same loop, writer-driven wakeups, and per-device
// writer-throttle accounting. Per-disk "dirtyRatio" /
// "dirtyBackgroundRatio" override a single domain's scaled thresholds
// (they require the host to set perDeviceWriteback). Scenario documents
// can bound a device's writer stalls with the "max-device-throttle"
// assertion; mixed-disk-slowdown.json is the worked example.
//
// -snapshot-out saves the final cache state (and the backing-file list) as
// versioned JSON, each cache in one layout that lists its writeback
// domains. -snapshot-in restores one through the scenario "warmup" stanza:
// into a platform with the same hosts and domains, block timestamps rebased
// to the new run's t=0 and the cache counters zeroed, so hit ratios and the
// counters of a chained -snapshot-out cover the new run only. Snapshots
// written before that layout (version 1) are rejected; re-create them with
// -snapshot-out.
//
//	pcsim -iterations 60 -size 1GB -ram 8GiB -ffwd-oracle
//	pcsim -iterations 500 -size 1GB -ram 8GiB
//	pcsim -size 20GB -snapshot-out warm.snap.json
//	pcsim -size 20GB -snapshot-in warm.snap.json
//
// Exit codes: 0 success; 1 the run failed (or a scenario assertion did);
// 2 the flags or the scenario document are invalid.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/engine"
	"repro/internal/phase"
	"repro/internal/scenario"
)

func main() {
	os.Exit(Main(os.Args[1:], os.Stdout))
}

// options are pcsim's parsed flags.
type options struct {
	size, mode, ram, chunk, policy, writeback string
	csv, platform, workflow, scenario         string
	snapOut, snapIn                           string
	instances, iterations, ffwdK              int
	dirtyRatio, expire, dirtyBG               float64
	memBW, diskBW, cpu, ffwdTol               float64
	chaosSeed                                 int64
	ffwd, oracle                              bool
	// set lists the flags given on the command line, sorted.
	set []string
}

// Main runs the pcsim CLI and returns a process exit code.
func Main(args []string, stdout io.Writer) int {
	o, err := parseFlags(args)
	if err != nil {
		return 2
	}
	if name, why := o.misplaced(); name != "" {
		return fail(fmt.Errorf("-%s cannot be used %s", name, why), 2)
	}
	if o.scenario != "" {
		return o.runScenario(stdout)
	}

	plat, err := o.loadPlatform()
	if err != nil {
		return fail(err, 1)
	}
	doc, err := o.compile(plat)
	if err != nil {
		return fail(err, 2)
	}
	ffwd := &engine.FFwdConfig{Phase: phase.Config{K: o.ffwdK, Tol: o.ffwdTol}}
	if o.oracle {
		return o.runOracle(doc, ffwd, stdout)
	}
	var opts scenario.RunOpts
	if o.iterations > 0 && o.ffwd {
		opts.FastForward = ffwd
	}
	res, err := run(doc, opts)
	if err != nil {
		return fail(err, 1)
	}
	o.report(res, stdout)
	if err := o.writeOutputs(res, stdout); err != nil {
		return fail(err, 1)
	}
	return 0
}

// parseFlags parses the command line; the flag package reports errors.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("pcsim", flag.ContinueOnError)
	fs.StringVar(&o.size, "size", "20GB", "per-file size (e.g. 3GB, 500MB)")
	fs.StringVar(&o.mode, "mode", "writeback", "cacheless | writeback | writethrough | directio")
	fs.IntVar(&o.instances, "instances", 1, "concurrent synthetic pipeline instances")
	fs.StringVar(&o.ram, "ram", "250GiB", "host RAM (flag-built host)")
	fs.StringVar(&o.chunk, "chunk", "100MB", "I/O chunk size")
	fs.Float64Var(&o.dirtyRatio, "dirty-ratio", 0.20, "vm.dirty_ratio as a fraction")
	fs.Float64Var(&o.expire, "dirty-expire", 30, "dirty expiry seconds")
	fs.StringVar(&o.policy, "policy", "", "cache replacement policy (default: lru; also clock, fifo, lfu)")
	fs.StringVar(&o.writeback, "writeback", "", "writeback policy (default: list-order; also oldest-first, file-rr, proportional)")
	fs.Float64Var(&o.dirtyBG, "dirty-background", 0, "vm.dirty_background_ratio as a fraction (0 disables background writeback)")
	fs.Float64Var(&o.memBW, "mem-bw", 4812, "memory bandwidth (MBps, symmetric; flag-built host)")
	fs.Float64Var(&o.diskBW, "disk-bw", 465, "disk bandwidth (MBps, symmetric; flag-built host)")
	fs.Float64Var(&o.cpu, "cpu", -1, "injected CPU seconds per task or iteration (default: Table I fit)")
	fs.StringVar(&o.csv, "csv", "", "write the workload host's memory profile CSV here")
	fs.StringVar(&o.platform, "platform", "", "platform description JSON (instead of the flag-built host)")
	fs.StringVar(&o.workflow, "workflow", "", "workflow description JSON (runs instead of the synthetic pipeline; requires -platform)")
	fs.StringVar(&o.scenario, "scenario", "", "scenario description JSON (platform + workloads + chaos + assertions)")
	fs.Int64Var(&o.chaosSeed, "chaos-seed", 0, "override the scenario's chaos seed (with -scenario)")
	fs.IntVar(&o.iterations, "iterations", 0, "run the repeated-iteration pipeline with this many iterations instead of the synthetic pipeline")
	fs.BoolVar(&o.ffwd, "ffwd", true, "fast-forward steady-state iterations analytically (with -iterations)")
	fs.BoolVar(&o.oracle, "ffwd-oracle", false, "run both the exact and fast-forwarded paths and report the error (with -iterations)")
	fs.IntVar(&o.ffwdK, "ffwd-k", phase.DefaultK, "consecutive matching iterations before steady state is declared")
	fs.Float64Var(&o.ffwdTol, "ffwd-tol", phase.DefaultTol, "relative tolerance on the continuous phase-signature components")
	fs.StringVar(&o.snapOut, "snapshot-out", "", "write the final cache state to this snapshot file")
	fs.StringVar(&o.snapIn, "snapshot-in", "", "restore cache state from this snapshot file before the run")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) { o.set = append(o.set, f.Name) })
	return o, nil
}

// misplaced returns the first flag given on the command line that the
// chosen mode cannot honour, and why; empty when every flag applies.
func (o *options) misplaced() (name, why string) {
	for _, name := range o.set {
		switch {
		case o.scenario != "":
			if !in(name, "scenario", "chaos-seed", "snapshot-out") {
				return name, "with -scenario"
			}
		case name == "chaos-seed":
			return name, "without -scenario"
		case o.platform != "" && in(name, "ram", "mem-bw", "disk-bw"):
			return name, "with -platform"
		case o.workflow != "" && in(name, "size", "cpu", "instances", "iterations"):
			return name, "with -workflow"
		case o.iterations <= 0 && in(name, "ffwd-oracle", "ffwd-k", "ffwd-tol"):
			return name, "without -iterations"
		case o.iterations > 0 && name == "instances":
			return name, "with -iterations"
		case o.oracle && in(name, "ffwd", "csv", "snapshot-out"):
			return name, "with -ffwd-oracle"
		}
	}
	return "", ""
}

// runScenario runs a scenario file: exit 0 when every assertion passes, 1
// when one fails, 2 when the document (or its chaos stanza) is invalid.
func (o *options) runScenario(stdout io.Writer) int {
	doc, err := scenario.Load(o.scenario)
	if err != nil {
		return fail(err, 2)
	}
	res, err := scenario.Run(doc, scenario.RunOpts{ChaosSeed: o.chaosSeed, OverrideSeed: in("chaos-seed", o.set...)})
	if err != nil {
		return fail(err, 2)
	}
	res.Report(stdout)
	if err := o.writeOutputs(res, stdout); err != nil {
		return fail(err, 1)
	}
	if !res.Passed {
		fmt.Fprintln(os.Stderr, "pcsim: scenario assertions failed")
		return 1
	}
	return 0
}

// in reports whether name is one of names.
func in(name string, names ...string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// fail reports err on stderr and returns the exit code.
func fail(err error, code int) int {
	fmt.Fprintf(os.Stderr, "pcsim: %v\n", err)
	return code
}
