// Command experiments reproduces the paper's evaluation: tables I–III and
// figures 4a–8, printing the same rows/series the paper reports and writing
// CSV data under -out.
//
// Every experiment enumerates its independent simulation cells into one
// grid, fanned out over -workers in-process workers (or -worker-cmd
// subprocesses) and merged deterministically: the report is byte-identical
// for every worker count. See README.md for the fan-out protocol.
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
//	experiments -worker              # serve cells over stdin/stdout (spawned via -worker-cmd)
//
// With -queue-dir the grid runs through a durable, file-backed queue that
// survives coordinator and worker crashes and that several hosts sharing the
// directory can drain concurrently (see README.md):
//
//	experiments -quick -queue-dir /shared/q            # coordinator: enqueue/resume, drain, merge
//	experiments -queue-worker -queue-dir /shared/q     # extra worker fleet (any host, e.g. over ssh)
//	experiments -queue-status -queue-dir /shared/q     # pending/leased/done/failed + heartbeat ages
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/queue"
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
		all       = fs.Bool("all", false, "run every experiment (default when no selector given)")
		quick     = fs.Bool("quick", false, "thin the sweeps for a fast pass")
		exp1      = fs.Bool("exp1", false, "Exp 1: single-threaded accuracy (Figs 4a-4c)")
		exp2      = fs.Bool("exp2", false, "Exp 2: concurrent applications, local disk (Fig 5)")
		exp3      = fs.Bool("exp3", false, "Exp 3: concurrent applications, NFS (Fig 7)")
		exp4      = fs.Bool("exp4", false, "Exp 4: Nighres workflow (Fig 6)")
		fig8      = fs.Bool("fig8", false, "Fig 8: simulation-time scaling")
		timings   = fs.Bool("timings", false, "include wall-clock timings in Fig 8 output and print per-cell progress plus the grid utilization summary (nondeterministic across runs)")
		ablations = fs.Bool("ablations", false, "design-choice ablations")
		policies  = fs.Bool("policies", false, "cache-policy ablation across registered policies (not part of -all)")
		wbacks    = fs.Bool("writebacks", false, "writeback-policy ablation across registered writeback policies (not part of -all)")
		devs      = fs.Bool("devices", false, "per-device writeback ablation on a mixed-speed NVMe+HDD host vs the CAWL write cost model (not part of -all)")
		ffwd      = fs.Bool("ffwd", false, "fast-forward speedup/error ablation on repeated-iteration pipelines (not part of -all)")
		tables    = fs.Bool("tables", false, "print Tables I-III")
		profiles  = fs.Bool("profiles", false, "print Fig 4b memory profiles (with -exp1)")
		contents  = fs.Bool("contents", false, "print Fig 4c cache contents (with -exp1)")
		sizes     = fs.String("sizes", "20,100", "Exp 1 file sizes in GB, comma-separated")
		reps      = fs.Int("reps", 5, "real-proxy repetitions for Exps 2-3")
		outDir    = fs.String("out", "results", "output directory for CSV files")

		workers   = fs.Int("workers", 0, "grid worker count (0: GOMAXPROCS)")
		worker    = fs.Bool("worker", false, "serve as a grid worker: read JSON cell specs on stdin, stream JSON results on stdout")
		workerCmd = fs.String("worker-cmd", "", "fan cells out to subprocesses: argv spawned once per worker slot (e.g. \"./experiments -worker\" or \"ssh host experiments -worker\")")
		cellTO    = fs.Duration("cell-timeout", 0, "per-cell attempt timeout (0: none)")
		cellRetry = fs.Int("cell-retries", 0, "extra attempts after a failed cell (error, panic, timeout, dead worker)")

		queueDir     = fs.String("queue-dir", "", "durable work queue directory: enumerate cells into it (or resume it), drain with -workers local workers plus any attached fleets, and merge the result store")
		queueWorker  = fs.Bool("queue-worker", false, "attach -workers drain loops to the -queue-dir queue and exit when it is drained (no report; run on any host sharing the directory)")
		queueStatus  = fs.Bool("queue-status", false, "print the -queue-dir queue's consolidated status report (cells, per-worker heartbeat ages, aggregate busy time) and exit")
		queueEnqueue = fs.Bool("queue-enqueue", false, "create or validate the -queue-dir queue from the selected experiments and exit without draining or merging")
		queueTTL     = fs.Duration("queue-lease-ttl", 30*time.Second, "queue cell lease TTL: heartbeats renew it at TTL/4; a worker silent past its TTL forfeits its cells")
		queueMax     = fs.Int("queue-max-cells", 0, "with -queue-worker, each drain loop runs at most N cells then exits (0: until drained)")
		timingsJSON  = fs.String("timings-json", "", "write the grid utilization summary as machine-readable JSON to FILE (the BENCH_* field format)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *worker {
		// Stdout carries nothing but protocol frames in worker mode.
		if err := grid.ServeWorker(os.Stdin, stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
		return 0
	}
	if (*queueWorker || *queueStatus || *queueEnqueue) && *queueDir == "" {
		fmt.Fprintln(os.Stderr, "experiments: -queue-worker, -queue-status and -queue-enqueue require -queue-dir")
		return 2
	}
	if *queueStatus {
		q, err := queue.Open(*queueDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 2
		}
		st, err := q.Status()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
		st.Render(stdout)
		return 0
	}
	// Every drain — the in-memory grid, the queue coordinator's local slots
	// and a -queue-worker fleet — runs its cells the same way.
	drain := grid.Options{Workers: *workers, Timeout: *cellTO, Retries: *cellRetry,
		WorkerCmd: strings.Fields(*workerCmd)}
	if *queueWorker {
		drain.MaxCells = *queueMax
		return queueWorkerMain(*queueDir, *queueTTL, drain, *timings)
	}
	if !(*exp1 || *exp2 || *exp3 || *exp4 || *fig8 || *ablations || *tables || *policies || *wbacks || *devs || *ffwd) {
		*all = true
	}
	if *all {
		*exp1, *exp2, *exp3, *exp4, *fig8, *ablations, *tables = true, true, true, true, true, true, true
		*profiles, *contents = true, true
	}
	levels := exp.ConcurrencyLevels(32, 1)
	if *quick {
		levels = []int{1, 4, 8, 16, 32}
		if *reps > 2 {
			*reps = 2
		}
	}
	var sizesGB []int
	if *exp1 {
		for _, gbStr := range strings.Split(*sizes, ",") {
			gb, err := strconv.Atoi(strings.TrimSpace(gbStr))
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: bad -sizes entry %q: %v\n", gbStr, err)
				return 2
			}
			sizesGB = append(sizesGB, gb)
		}
	}

	if *tables {
		printTables(stdout)
	}

	// Build the report's sections in output order; the grid runs their cells
	// in one shared pool and the emitter streams each section out as soon as
	// its cells and every earlier section are done.
	var sections []exp.Section
	if *exp1 {
		for _, gb := range sizesGB {
			gb := gb
			size := int64(gb) * units.GB
			key := fmt.Sprintf("exp1-%dgb", gb)
			sections = append(sections, exp.Section{
				Key:   key,
				Specs: exp.Exp1Cells(key, size),
				Merge: func(ps []grid.Payload) (*exp.Output, error) {
					res, err := exp.MergeExp1(size, ps)
					if err != nil {
						return nil, err
					}
					out := &exp.Output{Render: func(w io.Writer) {
						res.Render(w)
						if *profiles {
							res.RenderMemProfiles(w)
						}
						if *contents {
							res.RenderCacheContents(w)
						}
						fmt.Fprintln(w)
					}}
					for _, st := range exp.Exp1Stacks() {
						ms := res.Mem[st]
						if ms == nil {
							continue
						}
						out.CSVs = append(out.CSVs, exp.CSV{
							Name:  fmt.Sprintf("exp1_%dgb_mem_%s.csv", gb, st),
							Write: ms.WriteCSV,
						})
					}
					return out, nil
				},
			})
		}
	}
	if *exp2 {
		sections = append(sections, concurrentSection("exp2", false, levels, *reps, "exp2_fig5.csv"))
	}
	if *exp3 {
		sections = append(sections, concurrentSection("exp3", true, levels, *reps, "exp3_fig7.csv"))
	}
	if *exp4 {
		sections = append(sections, exp.Section{
			Key:   "exp4",
			Specs: exp.Exp4Cells("exp4"),
			Merge: func(ps []grid.Payload) (*exp.Output, error) {
				res, err := exp.MergeExp4(ps)
				if err != nil {
					return nil, err
				}
				return &exp.Output{Render: renderThenBlank(res.Render)}, nil
			},
		})
	}
	if *fig8 {
		sections = append(sections, exp.Section{
			Key:   "fig8",
			Specs: exp.Fig8Cells("fig8", levels),
			Merge: func(ps []grid.Payload) (*exp.Output, error) {
				res, err := exp.MergeFig8(levels, *timings, ps)
				if err != nil {
					return nil, err
				}
				return &exp.Output{
					Render: renderThenBlank(res.Render),
					CSVs:   []exp.CSV{{Name: "fig8_simtime.csv", Write: res.WriteCSV}},
				}, nil
			},
		})
	}
	if *ablations {
		sections = append(sections, exp.Section{
			Key:   "ablations",
			Specs: exp.AblationCells("ablations", 100*units.GB),
			Merge: func(ps []grid.Payload) (*exp.Output, error) {
				res, err := exp.MergeAblation(100*units.GB, ps)
				if err != nil {
					return nil, err
				}
				return &exp.Output{Render: renderThenBlank(res.Render)}, nil
			},
		})
	}
	if *policies {
		sections = append(sections, exp.Section{
			Key:   "policies",
			Specs: exp.PolicyCells("policies", *quick),
			Merge: func(ps []grid.Payload) (*exp.Output, error) {
				res, err := exp.MergePolicy(*quick, ps)
				if err != nil {
					return nil, err
				}
				return &exp.Output{
					Render: renderThenBlank(res.Render),
					CSVs:   []exp.CSV{{Name: "policy_ablation.csv", Write: res.WriteCSV}},
				}, nil
			},
		})
	}
	if *wbacks {
		sections = append(sections, exp.Section{
			Key:   "writebacks",
			Specs: exp.WritebackCells("writebacks", *quick),
			Merge: func(ps []grid.Payload) (*exp.Output, error) {
				res, err := exp.MergeWriteback(*quick, ps)
				if err != nil {
					return nil, err
				}
				return &exp.Output{
					Render: renderThenBlank(res.Render),
					CSVs: []exp.CSV{
						{Name: "writeback_ablation.csv", Write: res.WriteCSV},
						{Name: "writeback_hitratio.csv", Write: res.WriteSeriesCSV},
					},
				}, nil
			},
		})
	}
	if *devs {
		sections = append(sections, exp.Section{
			Key:   "devices",
			Specs: exp.DevicesCells("devices", *quick),
			Merge: func(ps []grid.Payload) (*exp.Output, error) {
				res, err := exp.MergeDevices(ps)
				if err != nil {
					return nil, err
				}
				return &exp.Output{
					Render: renderThenBlank(res.Render),
					CSVs:   []exp.CSV{{Name: "device_ablation.csv", Write: res.WriteCSV}},
				}, nil
			},
		})
	}
	if *ffwd {
		sections = append(sections, exp.Section{
			Key:   "ffwd",
			Specs: exp.FFwdCells("ffwd", *quick),
			Merge: func(ps []grid.Payload) (*exp.Output, error) {
				res, err := exp.MergeFFwd(*quick, ps)
				if err != nil {
					return nil, err
				}
				return &exp.Output{
					Render: renderThenBlank(res.Render),
					CSVs:   []exp.CSV{{Name: "ffwd_ablation.csv", Write: res.WriteCSV}},
				}, nil
			},
		})
	}
	if len(sections) == 0 {
		return 0
	}

	em := exp.NewEmitter(stdout, *outDir, sections)
	var stats metrics.GridStats
	if *queueDir != "" {
		var progress func(done, total int, r grid.Result)
		if *timings {
			progress = printProgress
		}
		var err error
		stats, err = exp.RunQueue(em, sections, exp.QueueRunOptions{
			Dir:         *queueDir,
			LeaseTTL:    *queueTTL,
			EnqueueOnly: *queueEnqueue,
			Drain:       drain,
			Progress:    progress,
			Log:         os.Stderr,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 2
		}
		if *queueEnqueue {
			return writeTimingsJSON(*timingsJSON, stats)
		}
	} else {
		specs := exp.SpecsOf(sections)
		var err error
		stats, err = grid.Run(specs, drain, withProgress(*timings, len(specs), em.Deliver))
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
	}
	if *timings {
		fmt.Fprintf(stdout, "== Grid: %d cells on %d workers ==\n", stats.Cells, stats.Workers())
		fmt.Fprintf(stdout, "wall %.1fs, busy %.1fs, utilization %.0f%%, effective parallelism %.1fx\n",
			stats.WallSeconds, stats.Busy(), 100*stats.Utilization(), stats.Parallelism())
		if stats.Failed > 0 || stats.Retried > 0 {
			fmt.Fprintf(stdout, "failed %d, retried %d\n", stats.Failed, stats.Retried)
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
// given (the -timings-json satellite: one machine-readable format shared by
// queue-wide aggregation and the BENCH_* baselines).
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
		if deliver != nil {
			deliver(r)
		}
	}
}

// queueWorkerMain drains an existing queue with grid.Drain and exits when it
// is drained (or each slot has run its -queue-max-cells share). Cell
// failures are recorded in the queue, not in the exit code: the coordinator
// owns reporting.
func queueWorkerMain(dir string, ttl time.Duration, drain grid.Options, verbose bool) int {
	q, err := queue.Open(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 2
	}
	stats, err := grid.Drain(q.Source(ttl), drain, withProgress(verbose, q.Cells(), nil))
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "experiments: queue worker done: ran %d cells (%d failed) in %.1fs busy\n",
		stats.Cells, stats.Failed, stats.Busy())
	return 0
}

// concurrentSection builds the Exp 2/3 (Fig 5/7) section.
func concurrentSection(key string, remote bool, levels []int, reps int, csvName string) exp.Section {
	return exp.Section{
		Key:   key,
		Specs: exp.ConcurrentCells(key, remote, 3*units.GB, levels, reps),
		Merge: func(ps []grid.Payload) (*exp.Output, error) {
			res, err := exp.MergeConcurrent(remote, levels, reps, ps)
			if err != nil {
				return nil, err
			}
			return &exp.Output{
				Render: renderThenBlank(res.Render),
				CSVs:   []exp.CSV{{Name: csvName, Write: res.WriteCSV}},
			}, nil
		},
	}
}

// renderThenBlank appends the blank separator line every section ends with.
func renderThenBlank(render func(io.Writer)) func(io.Writer) {
	return func(w io.Writer) {
		render(w)
		fmt.Fprintln(w)
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
