// Command pcsim runs one page-cache simulation with user-chosen parameters
// — a quick way to explore cache behaviour outside the paper's fixed
// experiment grid. It runs either the built-in synthetic pipeline or a
// JSON workflow on a flag-built or JSON-described platform.
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
// The repeated-iteration pipeline (-iterations) reads one input file,
// computes, and rewrites a scratch output every iteration; once K
// consecutive iterations produce matching phase signatures the engine skips
// the rest analytically (disable with -ffwd=false; tune with -ffwd-k and
// -ffwd-tol). -ffwd-oracle runs both paths and reports the makespan and
// hit-ratio error, failing above 1% makespan error. -snapshot-out saves the
// final cache state (and the backing-file list) as versioned JSON, each
// cache in one layout that lists its writeback domains; -snapshot-in
// restores one into a host with the same domains, rebasing block timestamps
// to the new run's t=0 — scenario documents get the same via their "warmup"
// stanza. Snapshots written before that layout (version 1) are rejected;
// re-create them with -snapshot-out.
//
//	pcsim -iterations 60 -size 1GB -ram 8GiB -ffwd-oracle
//	pcsim -iterations 500 -size 1GB -ram 8GiB
//	pcsim -size 20GB -snapshot-out warm.snap.json
//	pcsim -size 20GB -snapshot-in warm.snap.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/phase"
	"repro/internal/platform"
	"repro/internal/textplot"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	os.Exit(Main(os.Args[1:], os.Stdout))
}

// Main runs the pcsim CLI and returns a process exit code.
func Main(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("pcsim", flag.ContinueOnError)
	var (
		sizeStr    = fs.String("size", "20GB", "per-file size (e.g. 3GB, 500MB)")
		modeStr    = fs.String("mode", "writeback", "cacheless | writeback | writethrough | directio")
		instances  = fs.Int("instances", 1, "concurrent application instances")
		ramStr     = fs.String("ram", "250GiB", "host RAM")
		chunkStr   = fs.String("chunk", "100MB", "I/O chunk size")
		dirtyRatio = fs.Float64("dirty-ratio", 0.20, "vm.dirty_ratio as a fraction")
		expire     = fs.Float64("dirty-expire", 30, "dirty expiry seconds")
		policyStr  = fs.String("policy", "", "cache replacement policy (default: lru; also clock, fifo, lfu)")
		wbStr      = fs.String("writeback", "", "writeback policy (default: list-order; also oldest-first, file-rr, proportional)")
		dirtyBG    = fs.Float64("dirty-background", 0, "vm.dirty_background_ratio as a fraction (0 disables background writeback)")
		memBW      = fs.Float64("mem-bw", 4812, "memory bandwidth (MBps, symmetric)")
		diskBW     = fs.Float64("disk-bw", 465, "disk bandwidth (MBps, symmetric)")
		cpuSec     = fs.Float64("cpu", -1, "injected CPU seconds per task (default: Table I fit)")
		csvPath    = fs.String("csv", "", "write the memory profile CSV here")
		platPath   = fs.String("platform", "", "platform description JSON (overrides -ram/-mem-bw/-disk-bw)")
		wfPath     = fs.String("workflow", "", "workflow description JSON (runs instead of the synthetic pipeline; requires -platform)")
		scenPath   = fs.String("scenario", "", "scenario description JSON (platform + workloads + chaos + assertions; ignores the other flags)")
		chaosSeed  = fs.Int64("chaos-seed", 0, "override the scenario's chaos seed (with -scenario)")
		iterations = fs.Int("iterations", 0, "run the repeated-iteration pipeline with this many iterations instead of the synthetic pipeline")
		ffwdOn     = fs.Bool("ffwd", true, "fast-forward steady-state iterations analytically (with -iterations)")
		ffwdOracle = fs.Bool("ffwd-oracle", false, "run both the exact and fast-forwarded paths and report the error (with -iterations)")
		ffwdK      = fs.Int("ffwd-k", phase.DefaultK, "consecutive matching iterations before steady state is declared")
		ffwdTol    = fs.Float64("ffwd-tol", phase.DefaultTol, "relative tolerance on the continuous phase-signature components")
		snapOut    = fs.String("snapshot-out", "", "write the final cache state to this snapshot file")
		snapIn     = fs.String("snapshot-in", "", "restore cache state from this snapshot file before the run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "chaos-seed" {
			seedSet = true
		}
	})
	if *scenPath != "" {
		return runScenario(*scenPath, *chaosSeed, seedSet, stdout)
	}
	if err := core.ValidatePolicyName(*policyStr); err != nil {
		// Fail fast at configuration time, listing the registered policies.
		fmt.Fprintf(os.Stderr, "pcsim: %v\n", err)
		return 2
	}
	if err := core.ValidateWritebackPolicyName(*wbStr); err != nil {
		fmt.Fprintf(os.Stderr, "pcsim: %v\n", err)
		return 2
	}
	if *wfPath != "" || *platPath != "" {
		return runFromFiles(*platPath, *wfPath, *modeStr, *chunkStr, *sizeStr, *cpuSec, *policyStr, *wbStr, *dirtyBG, stdout)
	}
	size, err := units.ParseBytes(*sizeStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcsim: %v\n", err)
		return 2
	}
	ram, err := units.ParseBytes(*ramStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcsim: %v\n", err)
		return 2
	}
	chunk, err := units.ParseBytes(*chunkStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcsim: %v\n", err)
		return 2
	}
	var mode engine.Mode
	switch *modeStr {
	case "cacheless":
		mode = engine.ModeCacheless
	case "writeback":
		mode = engine.ModeWriteback
	case "writethrough":
		mode = engine.ModeWritethrough
	case "directio":
		mode = engine.ModeDirectIO
	default:
		fmt.Fprintf(os.Stderr, "pcsim: unknown mode %q\n", *modeStr)
		return 2
	}
	cpu := *cpuSec
	if cpu < 0 {
		cpu = workload.SyntheticCPU(size)
	}

	sim := engine.NewSimulation()
	memSpec := platform.DeviceSpec{Name: "node0.mem", ReadBW: units.MBps(*memBW), WriteBW: units.MBps(*memBW)}
	host := platform.HostSpec{Name: "node0", Cores: 32, FlopRate: 1e9, MemoryCap: ram, Memory: memSpec}
	cfg := core.Config{
		TotalMem: ram, DirtyRatio: *dirtyRatio, DirtyBackgroundRatio: *dirtyBG,
		DirtyExpire: *expire, FlushInterval: 5, Policy: *policyStr, Writeback: *wbStr,
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "pcsim: %v\n", err)
		return 2
	}
	if *ffwdOracle && *iterations <= 0 {
		fmt.Fprintln(os.Stderr, "pcsim: -ffwd-oracle requires -iterations")
		return 2
	}
	if *iterations > 0 {
		return runIterative(iterConfig{
			iterations: *iterations, size: size, cpu: cpu,
			ram: ram, chunk: chunk, mode: mode, cache: cfg,
			memBW: *memBW, diskBW: *diskBW,
			k: *ffwdK, tol: *ffwdTol,
			snapIn: *snapIn, snapOut: *snapOut,
		}, *ffwdOn, *ffwdOracle, stdout)
	}
	hr, err := sim.AddHost(host, mode, cfg, chunk)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcsim: %v\n", err)
		return 1
	}
	part, err := hr.AddDisk(platform.DeviceSpec{
		Name: "node0.disk", ReadBW: units.MBps(*diskBW), WriteBW: units.MBps(*diskBW),
	}, "scratch", 100*size*int64(*instances)+units.GiB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcsim: %v\n", err)
		return 1
	}
	hr.EnableMemTrace(1)
	if *snapIn != "" {
		if err := restoreHostSnapshot(*snapIn, sim, hr, part); err != nil {
			fmt.Fprintf(os.Stderr, "pcsim: %v\n", err)
			return 1
		}
	}
	for i := 0; i < *instances; i++ {
		files := workload.SyntheticFiles(i)
		if _, ok := part.Lookup(files[0]); !ok {
			if _, err := part.CreateSized(files[0], size); err != nil {
				fmt.Fprintf(os.Stderr, "pcsim: %v\n", err)
				return 1
			}
		}
		if err := sim.NS.Place(files[0], part); err != nil {
			fmt.Fprintf(os.Stderr, "pcsim: %v\n", err)
			return 1
		}
	}
	for i := 0; i < *instances; i++ {
		files := workload.SyntheticFiles(i)
		sim.SpawnApp(hr, i, fmt.Sprintf("app%d", i), func(a *engine.App) error {
			return workload.RunSynthetic(&workload.EngineRunner{App: a, Part: part}, workload.SyntheticSpec{
				Size: size, CPU: cpu, Files: files,
			})
		})
	}
	if err := sim.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "pcsim: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "pcsim: %d instance(s), %s files, mode=%s, RAM=%s\n",
		*instances, units.FormatBytes(size), mode, units.FormatBytes(ram))
	t := &textplot.Table{Header: []string{"op", "mean duration (s)", "total bytes"}}
	for _, name := range sim.Log.Names() {
		ops := sim.Log.ByName(name)
		var d float64
		var bytes int64
		for _, o := range ops {
			d += o.Duration()
			bytes += o.Bytes
		}
		t.Add(name, fmt.Sprintf("%.2f", d/float64(len(ops))), units.FormatBytes(bytes))
	}
	t.Render(stdout)
	fmt.Fprintf(stdout, "makespan: %s   read total: %.1fs   write total: %.1fs\n",
		units.FormatSeconds(sim.Makespan()),
		sim.Log.Duration("read", -1), sim.Log.Duration("write", -1))

	if *snapOut != "" {
		if err := writeHostSnapshot(*snapOut, sim, hr); err != nil {
			fmt.Fprintf(os.Stderr, "pcsim: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "cache snapshot written to %s\n", *snapOut)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pcsim: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := hr.MemTrace.WriteCSV(f); err != nil {
			fmt.Fprintf(os.Stderr, "pcsim: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "memory profile written to %s\n", *csvPath)
	}
	return 0
}
