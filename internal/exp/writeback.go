package exp

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/scenario"
	"repro/internal/textplot"
	"repro/internal/trace"
	"repro/internal/units"
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
// time-series observable the end-state tables cannot show), read off the
// node's memory trace.
type WritebackSeries struct {
	Workload  string
	Writeback string
	BGRatio   float64
	Points    []trace.MemPoint
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

// wbWorkload is one placeable cell family of the writeback ablation.
type wbWorkload struct {
	name string
	// ram is the RAM of the host whose cache writes back: the local node,
	// or the NFS cell's server.
	ram int64
	// sizes are the write volumes of the write-then-reread instances; the
	// pipeline cell runs the synthetic pipeline on sizes[0] instead.
	sizes    []int64
	pipeline bool
	nfs      bool
}

// cost is the relative cell cost for the grid scheduler.
func (w wbWorkload) cost() float64 {
	var total int64
	for _, size := range w.sizes {
		total += size
	}
	if w.nfs {
		return costGB(total, 1) * 2
	}
	return costGB(total, 1)
}

// wbBGRatios are the studied background-writeback settings: disabled (the
// paper's single-threshold model) and the Linux default 0.10. Coord.K
// indexes it.
var wbBGRatios = []float64{0, 0.10}

// wbWorkloads lists the ablation's workloads; quick thins the grid to the
// write burst and the NFS cell.
//
// The write burst places one write-then-reread application per size on a
// pressured node: each writes its own file and reads it back after a short
// compute phase. The aggregate working set exceeds RAM and the sizes are
// deliberately skewed, so per-file dirty backlogs differ and the writeback
// order decides which blocks are clean (evictable) when the rereads arrive
// — the write-heavy pattern that separates the policies. (With symmetric
// writers all four orders coincide: interleaved equal-rate writers produce
// the same effective schedule under list, age, round-robin and
// proportional order alike.) The NFS cell runs a smaller burst whose
// clients write through to a writeback server: dirty throttling and flush
// scheduling run server-side.
func wbWorkloads(quick bool) []wbWorkload {
	burst := wbWorkload{name: "writeburst-skewed24gb-32gbram", ram: 32 * units.GiB,
		sizes: []int64{12 * units.GB, 6 * units.GB, 3 * units.GB, 3 * units.GB}}
	pipeline := wbWorkload{name: "synthetic-20gb-32gbram", ram: 32 * units.GiB,
		sizes: []int64{20 * units.GB}, pipeline: true}
	nfsCell := wbWorkload{name: "nfs-writeburst-skewed12gb-8gbram", ram: 8 * units.GiB,
		sizes: []int64{6 * units.GB, 3 * units.GB, 1500 * units.MB, 1500 * units.MB}, nfs: true}
	if quick {
		return []wbWorkload{burst, nfsCell}
	}
	return []wbWorkload{burst, pipeline, nfsCell}
}

// wbWorkloadByName resolves a cell's workload (cells reference workloads by
// name so a spec's args stay plain JSON the cache can key on).
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

// writebackPayload is one cell's observables. Points is the memory and
// hit-counter series — recorded by local cells only (the NFS cell's
// counters live server-side, where no host sampler runs).
type writebackPayload struct {
	Makespan  float64          `json:"makespan"`
	Flushed   int64            `json:"flushed"`
	Throttled float64          `json:"throttled"`
	HitBytes  int64            `json:"hit_bytes"`
	MissBytes int64            `json:"miss_bytes"`
	Points    []trace.MemPoint `json:"points,omitempty"`
}

func (p writebackPayload) row(workload, wb string, bg float64) WritebackRow {
	return WritebackRow{
		Workload: workload, Writeback: wb, BGRatio: bg, Makespan: p.Makespan,
		Flushed: p.Flushed, Throttled: p.Throttled,
		HitRatio: trace.MemPoint{HitBytes: p.HitBytes, MissBytes: p.MissBytes}.HitRatio(),
	}
}

func init() {
	grid.RegisterCell("writeback", func(a writebackArgs) (any, error) {
		w, err := wbWorkloadByName(a.Workload)
		if err != nil {
			return nil, err
		}
		return runDocCell(writebackCell{w: w, wb: a.Writeback, bg: a.BG})
	})
}

// writebackCell is one cell with its workload resolved.
type writebackCell struct {
	w  wbWorkload
	wb string
	bg float64
}

// doc places the workload in writeback mode on the paper's node, or for
// the NFS cell on the paper's client writing through to a writeback server
// cache; the host whose cache writes back gets the cell's writeback policy,
// background ratio and the workload's RAM. Local cells sample the node's
// memory and hit counters every 20 s.
func (c writebackCell) doc() (*scenario.Doc, scenario.RunOpts, error) {
	d := paperDoc(fmt.Sprintf("writeback ablation %s/%s/bg=%g", c.w.name, c.wb, c.bg),
		engine.ModeWriteback, false, c.w.nfs)
	h := &d.Platform.Hosts[0]
	if c.w.nfs {
		h = &d.Platform.Hosts[1]
		d.Mounts[0].ServerWriteback = true
	} else {
		d.TraceMemS = 20
	}
	h.RAM, h.WritebackPolicy, h.DirtyBackgroundRatio = byteStr(c.w.ram), c.wb, c.bg
	if c.w.pipeline {
		addSynthetic(d, 1, c.w.sizes[0], 0, 0)
		return d, scenario.RunOpts{}, nil
	}
	cpu := 5.0
	for i, size := range c.w.sizes {
		addWorkload(d, scenario.WorkloadDoc{Name: fmt.Sprintf("writer%d", i), Kind: "writeread",
			Size: byteStr(size), CPUS: &cpu})
	}
	return d, scenario.RunOpts{}, nil
}

func (c writebackCell) payload(res *scenario.Result) any {
	var mgr *core.Manager
	var points []trace.MemPoint
	if c.w.nfs {
		mgr = res.SrvMgrs[res.Doc.Mounts[0].Partition]
	} else {
		h := res.Hosts[res.Doc.Platform.Hosts[0].Name]
		mgr, points = h.Model.(engine.ManagerProvider).Manager(), h.MemTrace.Points
	}
	return &writebackPayload{
		Makespan: res.Makespan, Flushed: mgr.FlushedBytes(), Throttled: mgr.WriteThrottledSeconds(),
		HitBytes: mgr.ReadHitBytes(), MissBytes: mgr.ReadMissBytes(), Points: points,
	}
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
					w.cost(), writebackArgs{Workload: w.name, Writeback: wb, BG: bg}))
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
				s.Workload, s.Writeback, s.BGRatio, p.T, p.HitBytes, p.MissBytes, p.HitRatio()); err != nil {
				return err
			}
		}
	}
	return nil
}
