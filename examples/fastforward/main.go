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
//     and restored into a fresh run, which therefore hits in cache from its
//     very first iteration.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/phase"
	"repro/internal/platform"
	"repro/internal/snapshot"
	"repro/internal/storage"
	"repro/internal/units"
	"repro/internal/workload"
)

const (
	iterations = 100
	fileSize   = units.GB
	ram        = 8 * units.GiB
)

type run struct {
	sim  *engine.Simulation
	hr   *engine.HostRuntime
	mgr  *core.Manager
	part *storage.Partition
}

func build(ffwd bool) *run {
	sim := engine.NewSimulation()
	if ffwd {
		// Defaults: steady after K=3 matching iterations, 1% tolerance on the
		// continuous signature components (tune via phase.Config{K, Tol}).
		sim.EnableFastForward(engine.FFwdConfig{Phase: phase.Config{}})
	}
	mgr, err := core.NewManager(core.DefaultConfig(ram))
	if err != nil {
		log.Fatal(err)
	}
	model, err := engine.NewCoreModel(mgr, 100*units.MB, engine.ModeWriteback)
	if err != nil {
		log.Fatal(err)
	}
	spec := platform.PaperHostSpec("node0", platform.SimMemorySpec("node0.mem"))
	spec.MemoryCap = ram
	hr, err := sim.AddHostWithModel(spec, engine.ModeWriteback, model)
	if err != nil {
		log.Fatal(err)
	}
	part, err := hr.AddDisk(platform.SimLocalDiskSpec("node0.disk"), "scratch", 8*fileSize+units.GiB)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := part.CreateSized("iter_input", fileSize); err != nil {
		log.Fatal(err)
	}
	if err := sim.NS.Place("iter_input", part); err != nil {
		log.Fatal(err)
	}
	return &run{sim: sim, hr: hr, mgr: mgr, part: part}
}

func (r *run) execute() time.Duration {
	r.sim.SpawnApp(r.hr, 0, "iter0", func(app *engine.App) error {
		return workload.RunIterative(&workload.EngineRunner{App: app, Part: r.part}, workload.IterativeSpec{
			Iterations: iterations, Size: fileSize, CPU: workload.SyntheticCPU(fileSize),
			Input: "iter_input", Output: "iter_scratch",
		})
	})
	start := time.Now()
	if err := r.sim.Run(); err != nil {
		log.Fatal(err)
	}
	return time.Since(start)
}

func (r *run) hitRatio() float64 {
	hit, miss := r.mgr.ReadHitBytes(), r.mgr.ReadMissBytes()
	if hit+miss == 0 {
		return 0
	}
	return float64(hit) / float64(hit+miss)
}

func main() {
	// 1. Exact: all 100 iterations simulated one by one.
	exact := build(false)
	exactWall := exact.execute()
	fmt.Printf("exact:        makespan %s   hit ratio %.4f   (%d iterations simulated)\n",
		units.FormatSeconds(exact.sim.Makespan()), exact.hitRatio(), iterations)

	// 2. Fast-forwarded: the detector declares steady state after K matching
	// iterations and the engine warps past the rest.
	ffwd := build(true)
	ffwdWall := ffwd.execute()
	rep := ffwd.sim.FFwdReport()
	fmt.Printf("fast-forward: makespan %s   hit ratio %.4f   (%d simulated, %d skipped at t=%s)\n",
		units.FormatSeconds(ffwd.sim.Makespan()), ffwd.hitRatio(),
		rep.IterationsSimulated, rep.IterationsSkipped, units.FormatSeconds(rep.SteadyAtSimS))
	errPct := 100 * (ffwd.sim.Makespan() - exact.sim.Makespan()) / exact.sim.Makespan()
	if errPct < 0 {
		errPct = -errPct
	}
	fmt.Printf("fast-forward vs exact: %.4f%% makespan error, %.0fx less wall-clock\n",
		errPct, float64(exactWall)/float64(ffwdWall))

	// 3. Snapshot the warmed cache and restore it into a fresh run. The
	// snapshot records the manager state plus the backing files; the restorer
	// recreates the files and rebases block timestamps to its own t=0.
	// (cmd/pcsim exposes the same via -snapshot-out/-snapshot-in, and the
	// scenario DSL via its "warmup" stanza.)
	dir, err := os.MkdirTemp("", "ffwd-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "warm.snap.json")
	st := ffwd.mgr.SnapshotState()
	doc := &snapshot.File{
		SavedAtSimS: ffwd.sim.Makespan(),
		Hosts:       map[string]*core.ManagerState{"node0": st},
		Files: []snapshot.FileMeta{
			{Name: "iter_input", Partition: "scratch", Size: fileSize},
			{Name: "iter_scratch", Partition: "scratch", Size: fileSize},
		},
	}
	if err := snapshot.WriteFile(snapPath, doc); err != nil {
		log.Fatal(err)
	}

	warm := build(false)
	loaded, err := snapshot.ReadFile(snapPath)
	if err != nil {
		log.Fatal(err)
	}
	for _, fm := range loaded.Files {
		if _, ok := warm.part.Lookup(fm.Name); !ok {
			if _, err := warm.part.CreateSized(fm.Name, fm.Size); err != nil {
				log.Fatal(err)
			}
		}
		if err := warm.sim.NS.Place(fm.Name, warm.part); err != nil {
			log.Fatal(err)
		}
	}
	warmSt := loaded.Hosts["node0"]
	// Zero the cumulative counters so the hit ratio below measures only this
	// run (the scenario warmup stanza, and so pcsim -snapshot-in, does the
	// same).
	warmSt.ReadHits, warmSt.ReadMisses, warmSt.FlushedBytes = 0, 0, 0
	warmSt.ThrottledSec, warmSt.ForcedEvictions = 0, 0
	if err := warm.mgr.RestoreState(warmSt); err != nil {
		log.Fatal(err)
	}
	warm.mgr.ShiftTimes(-loaded.SavedAtSimS) // rebase block ages to this run's t=0
	warm.execute()
	fmt.Printf("warm restart: makespan %s   hit ratio %.4f   (cache restored from %s)\n",
		units.FormatSeconds(warm.sim.Makespan()), warm.hitRatio(), filepath.Base(snapPath))
}
