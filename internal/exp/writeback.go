package exp

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/textplot"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// WritebackRow is one (workload, writeback policy, background ratio) cell
// of the writeback-ablation study.
type WritebackRow struct {
	Workload  string
	Writeback string
	BGRatio   float64 // vm.dirty_background_ratio (0: disabled)
	Makespan  float64 // simulated seconds until the last operation completes
	Flushed   int64   // bytes written back by the flush passes
	Throttled float64 // simulated seconds writers spent throttled
	HitRatio  float64 // cached fraction of application read bytes
}

// WritebackSeries is the hit-ratio evolution of one local cell (the
// time-series observable the end-state tables cannot show).
type WritebackSeries struct {
	Workload  string
	Writeback string
	BGRatio   float64
	Points    []trace.HitPoint
}

// WritebackResult collects the writeback ablation: every registered
// writeback policy, with background writeback off and on, run on
// write-heavy local and NFS workloads.
type WritebackResult struct {
	Workloads []string
	Policies  []string
	Rows      []WritebackRow
	Series    []WritebackSeries
}

// wbMetrics reads the ablation observables off a manager.
type wbMetrics struct{ mgr *core.Manager }

func (w wbMetrics) payload(makespan float64) writebackPayload {
	return writebackPayload{
		Makespan:  makespan,
		Flushed:   w.mgr.FlushedBytes(),
		Throttled: w.mgr.WriteThrottledSeconds(),
		HitBytes:  w.mgr.ReadHitBytes(),
		MissBytes: w.mgr.ReadMissBytes(),
	}
}

// wbRig is a local cell's simulation: one host with one partition. Its
// writers are bare processes no scenario workload kind expresses, so the
// writeback cells build their simulations directly.
type wbRig struct {
	sim  *engine.Simulation
	host *engine.HostRuntime
	part *storage.Partition
}

// newWritebackRig builds the paper's single-node platform in writeback mode
// with the given writeback policy, background ratio and RAM, returning the
// host's manager so the flush/throttle/hit counters are observable.
func newWritebackRig(writeback string, bg float64, ram int64) (*wbRig, *core.Manager, error) {
	if ram <= 0 {
		ram = RAM
	}
	sim := engine.NewSimulation()
	cfg := core.DefaultConfig(ram)
	cfg.Writeback = writeback
	cfg.DirtyBackgroundRatio = bg
	mgr, err := core.NewManager(cfg)
	if err != nil {
		return nil, nil, err
	}
	model, err := engine.NewCoreModel(mgr, ChunkSize, engine.ModeWriteback)
	if err != nil {
		return nil, nil, err
	}
	spec := platform.PaperHostSpec("node0", platform.SimMemorySpec("node0.mem"))
	spec.MemoryCap = ram
	hr, err := sim.AddHostWithModel(spec, engine.ModeWriteback, model)
	if err != nil {
		return nil, nil, err
	}
	part, err := hr.AddDisk(platform.SimLocalDiskSpec("node0.disk"), "scratch", DiskCap)
	if err != nil {
		return nil, nil, err
	}
	return &wbRig{sim: sim, host: hr, part: part}, mgr, nil
}

// runWriteBurst places one write-then-reread application per entry of
// sizes: each writes its own file and reads it back after a short compute
// phase. The aggregate working set exceeds RAM and the sizes are
// deliberately skewed, so per-file dirty backlogs differ and the writeback
// order decides which blocks are clean (evictable) when the rereads arrive
// — the write-heavy pattern that separates the policies. (With symmetric
// writers all four orders coincide: interleaved equal-rate writers produce
// the same effective schedule under list, age, round-robin and
// proportional order alike.)
func runWriteBurst(rig *wbRig, sizes []int64) error {
	for i, size := range sizes {
		i, size := i, size
		out := fmt.Sprintf("burst%d.bin", i)
		rig.sim.SpawnApp(rig.host, i, fmt.Sprintf("writer%d", i), func(a *engine.App) error {
			if err := a.WriteFile(out, size, rig.part, "Write 1"); err != nil {
				return err
			}
			a.Compute(5, "Compute 1")
			if err := a.ReadFile(out, "Read 1"); err != nil {
				return err
			}
			a.ReleaseTaskMemory()
			return nil
		})
	}
	return rig.sim.Run()
}

// runPipeline runs one instance of the synthetic pipeline on size-byte
// files.
func runPipeline(rig *wbRig, size int64) error {
	files := workload.SyntheticFiles(0)
	if _, err := rig.part.CreateSized(files[0], size); err != nil {
		return fmt.Errorf("exp: creating input %s: %w", files[0], err)
	}
	if err := rig.sim.NS.Place(files[0], rig.part); err != nil {
		return err
	}
	rig.sim.SpawnApp(rig.host, 0, "app0", func(a *engine.App) error {
		return workload.RunSynthetic(&workload.EngineRunner{App: a, Part: rig.part}, workload.SyntheticSpec{
			Size: size, CPU: workload.SyntheticCPU(size), Files: files,
		})
	})
	return rig.sim.Run()
}

// runWritebackNFS executes the NFS cell: one client application per entry
// of sizes writes its file through to a writeback server (dirty throttling
// and flush scheduling run server-side) and reads it back. Returns the
// server manager the observables are read from.
func runWritebackNFS(writeback string, bg float64, srvRAM int64, sizes []int64) (*core.Manager, float64, error) {
	sim := engine.NewSimulation()
	client, err := sim.AddHost(
		platform.PaperHostSpec("client", platform.SimMemorySpec("client.mem")),
		engine.ModeWriteback, core.DefaultConfig(RAM), ChunkSize)
	if err != nil {
		return nil, 0, err
	}
	server, err := sim.AddHost(
		platform.PaperHostSpec("server", platform.SimMemorySpec("server.mem")),
		engine.ModeWriteback, core.DefaultConfig(RAM), ChunkSize)
	if err != nil {
		return nil, 0, err
	}
	part, err := server.AddDisk(platform.SimRemoteDiskSpec("server.disk"), "export", DiskCap)
	if err != nil {
		return nil, 0, err
	}
	link, err := platform.NewLink(sim.Sys, platform.ClusterNetworkSpec("net"))
	if err != nil {
		return nil, 0, err
	}
	srvCfg := core.DefaultConfig(srvRAM)
	srvCfg.Writeback = writeback
	srvCfg.DirtyBackgroundRatio = bg
	srvMgr, err := core.NewManager(srvCfg)
	if err != nil {
		return nil, 0, err
	}
	if err := client.MountRemote(part, link, engine.MountOpts{
		SrvMgr: srvMgr, SrvMem: server.Host.Memory(), Chunk: ChunkSize,
		ServerWriteback: true,
	}); err != nil {
		return nil, 0, err
	}
	for i, size := range sizes {
		i, size := i, size
		out := fmt.Sprintf("remote%d.bin", i)
		sim.SpawnApp(client, i, fmt.Sprintf("client%d", i), func(a *engine.App) error {
			if err := a.WriteFile(out, size, part, "Write 1"); err != nil {
				return err
			}
			a.Compute(5, "Compute 1")
			if err := a.ReadFile(out, "Read 1"); err != nil {
				return err
			}
			a.ReleaseTaskMemory()
			return nil
		})
	}
	if err := sim.Run(); err != nil {
		return nil, 0, err
	}
	return srvMgr, sim.Makespan(), nil
}

// wbWorkload is one placeable cell family of the writeback ablation.
type wbWorkload struct {
	name string
	ram  int64   // 0: the paper's 250 GiB
	cost float64 // relative cell cost for the grid scheduler
	// run executes the workload on a prepared rig (nil for the NFS cell,
	// which builds its own client/server pair).
	run func(rig *wbRig) error
	nfs bool
}

// wbBGRatios are the studied background-writeback settings: disabled (the
// paper's single-threshold model) and the Linux default 0.10. Coord.K
// indexes it.
var wbBGRatios = []float64{0, 0.10}

// wbWorkloads lists the ablation's workloads; quick thins the grid to the
// write burst and the NFS cell.
func wbWorkloads(quick bool) []wbWorkload {
	burstSizes := []int64{12 * units.GB, 6 * units.GB, 3 * units.GB, 3 * units.GB}
	burst := wbWorkload{name: "writeburst-skewed24gb-32gbram", ram: 32 * units.GiB,
		cost: costGB(24*units.GB, 1),
		run: func(rig *wbRig) error {
			return runWriteBurst(rig, burstSizes)
		}}
	pipeline := wbWorkload{name: "synthetic-20gb-32gbram", ram: 32 * units.GiB,
		cost: costGB(20*units.GB, 1),
		run: func(rig *wbRig) error {
			return runPipeline(rig, 20*units.GB)
		}}
	nfsCell := wbWorkload{name: "nfs-writeburst-skewed12gb-8gbram", nfs: true,
		cost: costGB(12*units.GB, 1) * 2}
	if quick {
		return []wbWorkload{burst, nfsCell}
	}
	return []wbWorkload{burst, pipeline, nfsCell}
}

// wbWorkloadByName resolves a cell's workload (cells reference workloads by
// name so specs stay self-describing across processes).
func wbWorkloadByName(name string) (wbWorkload, error) {
	for _, w := range wbWorkloads(false) {
		if w.name == name {
			return w, nil
		}
	}
	return wbWorkload{}, fmt.Errorf("unknown writeback workload %q", name)
}

// writebackArgs parameterizes one (workload, policy, bg ratio) cell.
type writebackArgs struct {
	Workload  string  `json:"workload"`
	Writeback string  `json:"writeback"`
	BG        float64 `json:"bg"`
}

// writebackPayload is one cell's observables. Points is the hit-ratio
// evolution — recorded by local cells only (the NFS cell's counters live
// server-side where no trace hook is wired).
type writebackPayload struct {
	Makespan  float64          `json:"makespan"`
	Flushed   int64            `json:"flushed"`
	Throttled float64          `json:"throttled"`
	HitBytes  int64            `json:"hit_bytes"`
	MissBytes int64            `json:"miss_bytes"`
	Points    []trace.HitPoint `json:"points,omitempty"`
}

func (p writebackPayload) row(workload, wb string, bg float64) WritebackRow {
	return WritebackRow{
		Workload: workload, Writeback: wb, BGRatio: bg, Makespan: p.Makespan,
		Flushed: p.Flushed, Throttled: p.Throttled,
		HitRatio: trace.HitPoint{HitBytes: p.HitBytes, MissBytes: p.MissBytes}.Ratio(),
	}
}

func init() {
	grid.RegisterCell("writeback", func(a writebackArgs) (any, error) { return runWritebackCell(a) })
}

func runWritebackCell(a writebackArgs) (*writebackPayload, error) {
	w, err := wbWorkloadByName(a.Workload)
	if err != nil {
		return nil, err
	}
	if w.nfs {
		mgr, makespan, err := runWritebackNFS(a.Writeback, a.BG, 8*units.GiB,
			[]int64{6 * units.GB, 3 * units.GB, 1500 * units.MB, 1500 * units.MB})
		if err != nil {
			return nil, fmt.Errorf("writeback ablation %s/%s/bg=%g: %w", a.Workload, a.Writeback, a.BG, err)
		}
		pay := wbMetrics{mgr}.payload(makespan)
		return &pay, nil
	}
	rig, mgr, err := newWritebackRig(a.Writeback, a.BG, w.ram)
	if err != nil {
		return nil, fmt.Errorf("writeback ablation %s/%s/bg=%g: %w", a.Workload, a.Writeback, a.BG, err)
	}
	rig.host.EnableHitTrace(20)
	if err := w.run(rig); err != nil {
		return nil, fmt.Errorf("writeback ablation %s/%s/bg=%g: %w", a.Workload, a.Writeback, a.BG, err)
	}
	pay := wbMetrics{mgr}.payload(rig.sim.Makespan())
	pay.Points = rig.host.HitTrace.Points
	return &pay, nil
}

// WritebackCells enumerates the ablation grid: coordinates are
// (workload index, writeback-policy index, background-ratio index).
func WritebackCells(section string, quick bool) []grid.Spec {
	var specs []grid.Spec
	for wi, w := range wbWorkloads(quick) {
		for pi, wb := range core.WritebackPolicyNames() {
			for bi, bg := range wbBGRatios {
				specs = append(specs, grid.NewSpec("writeback",
					grid.Coord{Section: section, I: wi, J: pi, K: bi},
					fmt.Sprintf("writeback %s/%s/bg=%g", w.name, wb, bg),
					w.cost, writebackArgs{Workload: w.name, Writeback: wb, BG: bg}))
			}
		}
	}
	return specs
}

// MergeWriteback assembles the grid's rows — and, for local cells, the
// hit-ratio series — in (workload, policy, bg ratio) order.
func MergeWriteback(quick bool, ps []grid.Payload) (*WritebackResult, error) {
	workloads := wbWorkloads(quick)
	policies := core.WritebackPolicyNames()
	if err := wantCells(ps, len(workloads)*len(policies)*len(wbBGRatios)); err != nil {
		return nil, fmt.Errorf("writeback ablation: %w", err)
	}
	pays, err := decodeAll[writebackPayload](ps)
	if err != nil {
		return nil, err
	}
	res := &WritebackResult{Policies: policies}
	i := 0
	for _, w := range workloads {
		res.Workloads = append(res.Workloads, w.name)
		for _, wb := range policies {
			for _, bg := range wbBGRatios {
				pay := pays[i]
				i++
				res.Rows = append(res.Rows, pay.row(w.name, wb, bg))
				if w.nfs {
					continue
				}
				res.Series = append(res.Series, WritebackSeries{
					Workload: w.name, Writeback: wb, BGRatio: bg,
					Points: pay.Points,
				})
			}
		}
	}
	return res, nil
}

// RunWritebackAblation runs every registered writeback policy — with
// background writeback disabled (the paper's single-threshold model) and
// enabled at the Linux default 0.10 — across write-heavy workloads:
// a concurrent write-then-reread burst under memory pressure, the paper's
// synthetic pipeline on a pressured node, and an NFS write burst against a
// writeback server. Each cell reports makespan, flushed bytes, writer
// throttle time and read-hit ratio; local cells additionally record the
// hit-ratio evolution as a time series. quick thins the grid to the write
// burst and the NFS cell. Cells fan out over the default in-process pool.
func RunWritebackAblation(quick bool) (*WritebackResult, error) {
	ps, err := runGrid(WritebackCells("writebacks", quick))
	if err != nil {
		return nil, fmt.Errorf("writeback ablation: %w", err)
	}
	return MergeWriteback(quick, ps)
}

// Render prints the ablation as one table per workload.
func (r *WritebackResult) Render(w io.Writer) {
	fmt.Fprintln(w, "== Writeback ablation: flush scheduling per writeback policy ==")
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, "\n-- %s --\n", wl)
		t := &textplot.Table{Header: []string{
			"writeback", "bg ratio", "makespan (s)", "flushed", "throttled (s)", "read-hit ratio"}}
		for _, row := range r.Rows {
			if row.Workload != wl {
				continue
			}
			t.Add(row.Writeback, fmt.Sprintf("%.2f", row.BGRatio),
				fmt.Sprintf("%.1f", row.Makespan), units.FormatBytes(row.Flushed),
				fmt.Sprintf("%.1f", row.Throttled), fmt.Sprintf("%.3f", row.HitRatio))
		}
		t.Render(w)
	}
}

// WriteCSV emits the per-cell summary rows.
func (r *WritebackResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w,
		"workload,writeback,dirty_background_ratio,makespan_s,flushed_bytes,write_throttle_s,read_hit_ratio"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%.2f,%.3f,%d,%.3f,%.4f\n",
			row.Workload, row.Writeback, row.BGRatio, row.Makespan,
			row.Flushed, row.Throttled, row.HitRatio); err != nil {
			return err
		}
	}
	return nil
}

// WriteSeriesCSV emits the hit-ratio evolution rows of the local cells.
func (r *WritebackResult) WriteSeriesCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w,
		"workload,writeback,dirty_background_ratio,t,hit_bytes,miss_bytes,hit_ratio"); err != nil {
		return err
	}
	for _, s := range r.Series {
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%s,%s,%.2f,%.3f,%d,%d,%.4f\n",
				s.Workload, s.Writeback, s.BGRatio, p.T, p.HitBytes, p.MissBytes, p.Ratio()); err != nil {
				return err
			}
		}
	}
	return nil
}
