// Phase detection + analytical fast-forward — representative-interval
// simulation for the page-cache model: a long iterative workload converges
// to a steady state after a few iterations, and simulating the rest adds no
// information. The engine detects the steady phase from per-iteration
// signatures (bytes moved, cache levels, op-sequence fingerprint) and skips
// the remaining iterations analytically: the DES clock warps, cached-block
// timestamps shift with it, and the converged iteration's counter deltas
// are accumulated once per skipped iteration.
//
// This example runs the same 100-iteration pipeline three ways:
//  1. exact — every iteration simulated;
//  2. fast-forwarded — a handful simulated, the rest skipped (same makespan);
//  3. warm-started — the final cache state of run 2 is snapshotted to JSON
//     and restored into a fresh run through the scenario's "warmup"
//     stanza, which therefore hits in cache from its very first iteration.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/phase"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/snapshot"
	"repro/internal/units"
)

const iterations = 100

// iterDoc is the 100-iteration, 1 GB pipeline on the paper's 32-core host
// with 8 GiB of memory, warm-started from snapFile when it is not "".
func iterDoc(name, snapFile string) *scenario.Doc {
	d := &scenario.Doc{
		Name: name,
		Platform: &platform.Config{Hosts: []platform.HostConfig{{
			Name: "node0", Cores: 32, GFlops: 1, RAM: "8GiB",
			MemReadMBps: 4812, MemWriteMBps: 4812,
			Disks: []platform.DiskConfig{{Name: "node0.disk", ReadMBps: 465, WriteMBps: 465,
				Capacity: "9GiB", Partition: "scratch"}},
		}}},
		Workloads: []scenario.WorkloadDoc{{Name: "iter", Host: "node0", Kind: "iterative",
			Partition: "scratch", Size: "1GB", Iterations: iterations}},
	}
	if snapFile != "" {
		d.Warmup = &scenario.WarmupDoc{SnapshotFile: snapFile}
	}
	return d
}

// run executes d, returning the finished run and its wall-clock time.
func run(d *scenario.Doc, opts scenario.RunOpts) (*scenario.Result, time.Duration) {
	start := time.Now()
	res, err := scenario.Run(d, opts)
	if err == nil {
		err = res.WorkloadErr()
	}
	if err != nil {
		log.Fatal(err)
	}
	return res, time.Since(start)
}

func main() {
	// 1. Exact: all 100 iterations simulated one by one.
	exact, exactWall := run(iterDoc("exact", ""), scenario.RunOpts{})
	fmt.Printf("exact:        makespan %s   hit ratio %.4f   (%d iterations simulated)\n",
		units.FormatSeconds(exact.Makespan), exact.ReadHitRatio("node0"), iterations)

	// 2. Fast-forwarded: the detector declares steady state after K matching
	// iterations and the engine warps past the rest. Defaults: steady after
	// K=3 matching iterations, 1% tolerance on the continuous signature
	// components (tune via phase.Config{K, Tol}).
	ffwd, ffwdWall := run(iterDoc("fast-forward", ""),
		scenario.RunOpts{FastForward: &engine.FFwdConfig{Phase: phase.Config{}}})
	rep := ffwd.Sim.FFwdReport()
	fmt.Printf("fast-forward: makespan %s   hit ratio %.4f   (%d simulated, %d skipped at t=%s)\n",
		units.FormatSeconds(ffwd.Makespan), ffwd.ReadHitRatio("node0"),
		rep.IterationsSimulated, rep.IterationsSkipped, units.FormatSeconds(rep.SteadyAtSimS))
	errPct := 100 * (ffwd.Makespan - exact.Makespan) / exact.Makespan
	if errPct < 0 {
		errPct = -errPct
	}
	fmt.Printf("fast-forward vs exact: %.4f%% makespan error, %.0fx less wall-clock\n",
		errPct, float64(exactWall)/float64(ffwdWall))

	// 3. Snapshot the warmed cache and restore it into a fresh run. The
	// snapshot records the manager state plus the backing files; the
	// warmup stanza recreates the files, zeroes the cumulative counters
	// (so the hit ratio below measures only this run) and rebases block
	// timestamps to its own t=0. (cmd/pcsim exposes the same via
	// -snapshot-out/-snapshot-in.)
	dir, err := os.MkdirTemp("", "ffwd-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "warm.snap.json")
	snap, err := ffwd.SnapshotState()
	if err == nil {
		err = snapshot.WriteFile(snapPath, snap)
	}
	if err != nil {
		log.Fatal(err)
	}
	warm, _ := run(iterDoc("warm restart", snapPath), scenario.RunOpts{})
	fmt.Printf("warm restart: makespan %s   hit ratio %.4f   (cache restored from %s)\n",
		units.FormatSeconds(warm.Makespan), warm.ReadHitRatio("node0"), filepath.Base(snapPath))
}
