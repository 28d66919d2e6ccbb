// Command experiments reproduces the paper's evaluation: tables I–III and
// figures 4a–8, printing the same rows/series the paper reports and writing
// CSV data under -out.
//
// Every experiment enumerates its independent simulation cells into one
// grid, run over -workers in-process slots and merged deterministically:
// the report is byte-identical for every worker count (see README.md).
//
// With -cache DIR each successful cell's payload is stored under DIR, keyed
// by the binary, the cell's kind and its arguments, so a re-run or a run
// resumed after a crash executes only the cells it has no entry for, and
// prints the same bytes (see README.md).
//
// Usage:
//
//	experiments                      # everything, full scale
//	experiments -quick               # thinned sweeps for a fast pass
//	experiments -quick -workers 8    # same bytes, 8-way parallel
//	experiments -exp1 -sizes 20,100  # just Exp 1 at selected sizes (GB)
//	experiments -exp2 -exp3 -reps 5  # concurrency experiments
//	experiments -fig8 -ablations
//	experiments -policies            # cache-policy ablation (lru/clock/fifo/lfu)
//	experiments -writebacks          # writeback-policy ablation (list-order/oldest-first/file-rr/proportional)
//	experiments -devices             # per-device writeback ablation (mixed-speed host vs CAWL model)
//	experiments -ffwd                # fast-forward speedup/error ablation (exact vs phase-skipped)
//	experiments -quick -cache c      # store results in c; a re-run executes no cell
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/exp"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/textplot"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	os.Exit(Main(os.Args[1:], os.Stdout))
}

// Main runs the experiments CLI and returns a process exit code. It is
// called by main and exercised directly by tests.
func Main(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		all      = fs.Bool("all", false, "run every experiment (default when no selector given)")
		quick    = fs.Bool("quick", false, "thin the sweeps for a fast pass")
		timings  = fs.Bool("timings", false, "include wall-clock timings in Fig 8 output and print per-cell progress plus the grid utilization summary (nondeterministic across runs)")
		tables   = fs.Bool("tables", false, "print Tables I-III")
		profiles = fs.Bool("profiles", false, "print Fig 4b memory profiles (with -exp1)")
		contents = fs.Bool("contents", false, "print Fig 4c cache contents (with -exp1)")
		sizes    = fs.String("sizes", "20,100", "Exp 1 file sizes in GB, comma-separated")
		reps     = fs.Int("reps", 5, "real-proxy repetitions for Exps 2-3")
		outDir   = fs.String("out", "results", "output directory for CSV files")

		workers     = fs.Int("workers", 0, "grid worker count (0: GOMAXPROCS)")
		cellTO      = fs.Duration("cell-timeout", 0, "per-cell timeout (0: none)")
		cacheDir    = fs.String("cache", "", "result cache directory: replay the stored payload of every cell this binary already computed there, run the rest and store them")
		timingsJSON = fs.String("timings-json", "", "write the grid utilization summary as machine-readable JSON to FILE")
	)
	selected := make(map[string]*bool, len(exp.Families))
	for _, f := range exp.Families {
		selected[f.Flag] = fs.Bool(f.Flag, false, f.Usage)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drain := grid.Options{Workers: *workers, Timeout: *cellTO}
	chosen := *tables
	for _, on := range selected {
		chosen = chosen || *on
	}
	if !chosen {
		*all = true
	}
	if *all {
		for _, f := range exp.Families {
			if f.InAll {
				*selected[f.Flag] = true
			}
		}
		*tables, *profiles, *contents = true, true, true
	}
	if *reps < 1 {
		fmt.Fprintf(os.Stderr, "experiments: -reps must be at least 1, got %d\n", *reps)
		return 2
	}
	levels := exp.ConcurrencyLevels(32, 1)
	if *quick {
		levels = []int{1, 4, 8, 16, 32}
		if *reps > 2 {
			*reps = 2
		}
	}
	var sizesGB []int
	if *selected["exp1"] {
		seen := map[int]bool{}
		for _, gbStr := range strings.Split(*sizes, ",") {
			gb, err := strconv.Atoi(strings.TrimSpace(gbStr))
			switch {
			case err != nil:
			case gb <= 0:
				err = fmt.Errorf("size must be positive")
			case int64(gb) > math.MaxInt64/units.GB:
				err = fmt.Errorf("%d GB overflows int64 bytes", gb)
			case seen[gb]:
				err = fmt.Errorf("size %d GB repeated", gb)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: bad -sizes entry %q: %v\n", gbStr, err)
				return 2
			}
			seen[gb] = true
			sizesGB = append(sizesGB, gb)
		}
	}
	var cache *grid.Cache
	if *cacheDir != "" {
		var err error
		if cache, err = grid.OpenCache(*cacheDir); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: cache: %v\n", err)
			return 2
		}
	}

	if *tables {
		printTables(stdout)
	}

	// Build the report's sections in output order; the grid runs their cells
	// in one shared pool and the emitter streams each section out as soon as
	// its cells and every earlier section are done.
	opts := exp.Options{Quick: *quick, SizesGB: sizesGB, Levels: levels, Reps: *reps,
		Timings: *timings, Profiles: *profiles, Contents: *contents}
	var sections []exp.Section
	for _, f := range exp.Families {
		if *selected[f.Flag] {
			sections = append(sections, f.Sections(opts)...)
		}
	}
	if len(sections) == 0 {
		return 0
	}

	em := exp.NewEmitter(stdout, *outDir, sections)
	specs, deliver := exp.SpecsOf(sections), em.Deliver
	if cache != nil {
		specs, deliver = cached(cache, specs, em.Deliver)
	}
	stats, err := grid.Run(specs, drain, withProgress(*timings, len(specs), deliver))
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 1
	}
	if *timings {
		fmt.Fprintf(stdout, "== Grid: %d cells on %d workers ==\n", stats.Cells, stats.Workers())
		fmt.Fprintf(stdout, "wall %.1fs, busy %.1fs, utilization %.0f%%, effective parallelism %.1fx\n",
			stats.WallSeconds, stats.Busy(), 100*stats.Utilization(), stats.Parallelism())
		if stats.Failed > 0 {
			fmt.Fprintf(stdout, "failed %d\n", stats.Failed)
		}
		fmt.Fprintln(stdout)
	}
	if code := writeTimingsJSON(*timingsJSON, stats); code != 0 {
		return code
	}
	if fails := em.Failures(); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "experiments: %s\n", f)
		}
		return 1
	}
	return 0
}

// writeTimingsJSON saves the utilization summary as JSON when a path was
// given.
func writeTimingsJSON(path string, stats metrics.GridStats) int {
	if path == "" {
		return 0
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 1
	}
	defer f.Close()
	if err := stats.WriteJSON(f); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", path, err)
		return 1
	}
	return 0
}

// printProgress is the -timings per-cell progress line on stderr.
func printProgress(done, total int, r grid.Result) {
	status := "ok"
	if r.Err != "" {
		status = "FAILED"
	}
	fmt.Fprintf(os.Stderr, "experiments: [%d/%d] %s %s (%.1fs)\n", done, total, r.Coord, status, r.Seconds)
}

// withProgress wraps a drain's deliver callback to print each delivered
// cell's progress line out of total when on is set.
func withProgress(on bool, total int, deliver func(grid.Result)) func(grid.Result) {
	if !on {
		return deliver
	}
	done := 0
	return func(r grid.Result) {
		done++
		printProgress(done, total, r)
		deliver(r)
	}
}

// cached answers every cell of specs that has an entry in cache by handing
// its stored payload to deliver, and returns the cells left to run with a
// deliver that stores each successful result before passing it on. An
// entry that cannot be trusted is reported and its cell re-run.
func cached(cache *grid.Cache, specs []grid.Spec, deliver func(grid.Result)) ([]grid.Spec, func(grid.Result)) {
	misses := map[grid.Coord]grid.Spec{}
	var run []grid.Spec
	for _, s := range specs {
		payload, ok, err := cache.Load(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: cache: %v, re-running\n", err)
		}
		if ok {
			deliver(grid.Result{Coord: s.Coord, Kind: s.Kind, Payload: payload})
			continue
		}
		misses[s.Coord] = s
		run = append(run, s)
	}
	return run, func(r grid.Result) {
		if err := cache.Store(misses[r.Coord], r); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: cache: storing %s: %v\n", r.Coord, err)
		}
		deliver(r)
	}
}

func printTables(w io.Writer) {
	fmt.Fprintln(w, "== Table I: synthetic application parameters ==")
	t1 := &textplot.Table{Header: []string{"Input size", "CPU time (s)"}}
	for _, row := range workload.TableI {
		t1.Add(units.FormatBytes(row.Size), fmt.Sprintf("%.1f", row.CPU))
	}
	t1.Render(w)

	fmt.Fprintln(w, "\n== Table II: Nighres application parameters ==")
	t2 := &textplot.Table{Header: []string{"Workflow step", "Input (MB)", "Output (MB)", "CPU time (s)"}}
	for _, s := range workload.NighresSteps() {
		t2.Add(s.Name,
			fmt.Sprintf("%d", s.InputBytes/units.MB),
			fmt.Sprintf("%d", s.OutputSize/units.MB),
			fmt.Sprintf("%.0f", s.CPU))
	}
	t2.Render(w)

	fmt.Fprintln(w, "\n== Table III: bandwidths (MBps) ==")
	b := platform.TableIII()
	t3 := &textplot.Table{Header: []string{"Device", "Cluster (real)", "Simulators"}}
	t3.Add("Memory read", fmt.Sprintf("%.0f", b.MemReadMBps), fmt.Sprintf("%.0f", b.SimMemMBps))
	t3.Add("Memory write", fmt.Sprintf("%.0f", b.MemWriteMBps), fmt.Sprintf("%.0f", b.SimMemMBps))
	t3.Add("Local disk read", fmt.Sprintf("%.0f", b.LocalReadMBps), fmt.Sprintf("%.0f", b.SimLocalMBps))
	t3.Add("Local disk write", fmt.Sprintf("%.0f", b.LocalWriteMBps), fmt.Sprintf("%.0f", b.SimLocalMBps))
	t3.Add("Remote disk read", fmt.Sprintf("%.0f", b.RemoteReadMBps), fmt.Sprintf("%.0f", b.SimNFSbps))
	t3.Add("Remote disk write", fmt.Sprintf("%.0f", b.RemoteWriteMBps), fmt.Sprintf("%.0f", b.SimNFSbps))
	t3.Add("Network", fmt.Sprintf("%.0f", b.NetworkMBps), fmt.Sprintf("%.0f", b.NetworkMBps))
	t3.Render(w)
	fmt.Fprintln(w)
}
