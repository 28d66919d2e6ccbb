package exp

import (
	"fmt"
	"io"
	"math"

	"repro/internal/cawl"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/textplot"
	"repro/internal/units"
)

// The per-device ablation's mixed-speed host: one fast NVMe-class disk and
// one slow HDD-class disk behind a 16 GiB page cache, each written
// concurrently by its own application. With one global writeback domain the
// slow disk's dirty backlog consumes the shared threshold and the global
// flush order interleaves both devices, so the fast writer stalls behind
// HDD writeback; with per-device domains each writer is throttled only by
// its own device. The CAWL write cost model (internal/cawl) provides the
// per-device analytic prediction both modes are compared against.
const (
	devRAM      = 16 * units.GiB
	devNVMeMBps = 2000
	devHDDMBps  = 120
	devBG       = 0.10
)

// devModes are the compared writeback layouts; Coord.I indexes it.
var devModes = []string{"global", "per-device"}

// devSizes returns the per-writer write volume (quick thins the storm).
func devSizes(quick bool) int64 {
	if quick {
		return 8 * units.GB
	}
	return 24 * units.GB
}

// DeviceRow is one (mode, device) row of the per-device writeback ablation.
type DeviceRow struct {
	Mode      string  // "global" or "per-device"
	Dev       string  // device name
	Written   int64   // bytes the device's writer pushed
	Wall      float64 // simulated seconds until that writer finished
	Throttled float64 // writer-throttle seconds (per-domain split in per-device mode; host total in global mode)
	CAWLPred  float64 // CAWL-modeled write seconds for this device
	CAWLErr   float64 // (Wall - CAWLPred) / CAWLPred, in percent
}

// DevicesResult collects the ablation rows in (mode, device) order.
type DevicesResult struct {
	Rows []DeviceRow
}

// devicesArgs parameterizes one mode cell.
type devicesArgs struct {
	Mode  string `json:"mode"`
	Quick bool   `json:"quick"`
}

// deviceWriterPayload is one writer's observables.
type deviceWriterPayload struct {
	Dev       string  `json:"dev"`
	Bytes     int64   `json:"bytes"`
	Wall      float64 `json:"wall"`
	Throttled float64 `json:"throttled"`
	Pred      float64 `json:"pred"`
}

// devicesPayload is one cell's observables, writers in disk-attach order.
type devicesPayload struct {
	Writers []deviceWriterPayload `json:"writers"`
}

func init() {
	grid.RegisterCell("devices", func(a devicesArgs) (any, error) {
		return runDevices(a.Mode, devRAM, devSizes(a.Quick), ChunkSize)
	})
}

// devDisk describes one disk of the ablation host.
type devDisk struct {
	name string
	part string
	mbps float64
}

func devDisks() []devDisk {
	return []devDisk{
		{name: "nvme0", part: "fastpart", mbps: devNVMeMBps},
		{name: "hdd0", part: "slowpart", mbps: devHDDMBps},
	}
}

// devicesCell is one mode cell: each disk's writer writes size bytes to it
// on a host with ram bytes of memory, in chunk-byte I/O steps.
type devicesCell struct {
	mode             string
	ram, size, chunk int64
}

// runDevices runs one mode cell.
func runDevices(mode string, ram, size, chunk int64) (*devicesPayload, error) {
	pay, err := runDocCell(devicesCell{mode: mode, ram: ram, size: size, chunk: chunk})
	if err != nil {
		return nil, err
	}
	return pay.(*devicesPayload), nil
}

// doc places one writer per disk on the paper's node, its disks replaced
// by the mixed-speed pair, with background writeback on and, in
// per-device mode, one writeback domain per disk.
func (c devicesCell) doc() (*scenario.Doc, scenario.RunOpts, error) {
	d := paperDoc("device ablation "+c.mode, engine.ModeWriteback, false, false)
	d.Chunk = byteStr(c.chunk)
	h := &d.Platform.Hosts[0]
	h.RAM, h.DirtyBackgroundRatio, h.PerDeviceWriteback = byteStr(c.ram), devBG, c.mode == "per-device"
	h.Disks = nil
	for _, dk := range devDisks() {
		h.Disks = append(h.Disks, platform.DiskConfig{Name: dk.name, ReadMBps: dk.mbps, WriteMBps: dk.mbps,
			Capacity: byteStr(64 * units.GiB), Partition: dk.part})
		d.Workloads = append(d.Workloads, scenario.WorkloadDoc{Name: "writer-" + dk.name, Host: h.Name,
			Kind: "write", Partition: dk.part, Size: byteStr(c.size)})
	}
	return d, scenario.RunOpts{}, nil
}

// payload reads each writer's wall time off its write and its throttle
// time off the host cache: the writer's own domain in per-device mode, the
// host-wide total (unsplittable) in global mode.
func (c devicesCell) payload(res *scenario.Result) any {
	mgr := res.Hosts[res.Doc.Platform.Hosts[0].Name].Model.(engine.ManagerProvider).Manager()
	byDev := map[string]core.DomainStat{}
	for _, st := range mgr.DomainStats() {
		byDev[st.Dev] = st
	}
	walls := make([]float64, len(res.Doc.Workloads))
	for _, op := range res.Sim.Log.ByName("Write 1") {
		walls[op.Instance] = op.End
	}
	memBW := platform.SimMemorySpec("mem").WriteBW
	pay := &devicesPayload{}
	for i, dk := range devDisks() {
		throttled := mgr.WriteThrottledSeconds()
		limit := mgr.DirtyThreshold()
		if st, ok := byDev[dk.name]; ok {
			throttled = st.WriteThrottledSeconds
			limit = st.DirtyThreshold
		}
		pred := cawl.Model{
			MemBW: memBW, DevBW: units.MBps(dk.mbps), DirtyLimit: limit,
		}.WriteTime(c.size)
		pay.Writers = append(pay.Writers, deviceWriterPayload{
			Dev: dk.name, Bytes: c.size, Wall: walls[i], Throttled: throttled, Pred: pred,
		})
	}
	return pay
}

// DevicesCells enumerates the ablation grid: one cell per writeback mode.
func DevicesCells(section string, quick bool) []grid.Spec {
	var specs []grid.Spec
	cost := costGB(2*devSizes(quick), 1)
	for mi, mode := range devModes {
		specs = append(specs, grid.NewSpec("devices",
			grid.Coord{Section: section, I: mi},
			fmt.Sprintf("devices %s", mode), cost,
			devicesArgs{Mode: mode, Quick: quick}))
	}
	return specs
}

// MergeDevices assembles the rows in (mode, device) order.
func MergeDevices(ps []grid.Payload) (*DevicesResult, error) {
	if err := wantCells(ps, len(devModes)); err != nil {
		return nil, fmt.Errorf("device ablation: %w", err)
	}
	pays, err := decodeAll[devicesPayload](ps)
	if err != nil {
		return nil, err
	}
	res := &DevicesResult{}
	for mi, mode := range devModes {
		for _, w := range pays[mi].Writers {
			errPct := math.Inf(1)
			if w.Pred > 0 {
				errPct = 100 * (w.Wall - w.Pred) / w.Pred
			}
			res.Rows = append(res.Rows, DeviceRow{
				Mode: mode, Dev: w.Dev, Written: w.Bytes, Wall: w.Wall,
				Throttled: w.Throttled, CAWLPred: w.Pred, CAWLErr: errPct,
			})
		}
	}
	return res, nil
}

// Render prints the ablation table.
func (r *DevicesResult) Render(w io.Writer) {
	fmt.Fprintln(w, "== Per-device writeback ablation: mixed-speed flush storm vs CAWL ==")
	t := &textplot.Table{Header: []string{
		"mode", "device", "written", "wall (s)", "throttled (s)", "CAWL pred (s)", "CAWL err"}}
	for _, row := range r.Rows {
		t.Add(row.Mode, row.Dev, units.FormatBytes(row.Written),
			fmt.Sprintf("%.1f", row.Wall), fmt.Sprintf("%.1f", row.Throttled),
			fmt.Sprintf("%.1f", row.CAWLPred), fmt.Sprintf("%+.1f%%", row.CAWLErr))
	}
	t.Render(w)
}

// WriteCSV emits the per-row summary.
func (r *DevicesResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w,
		"mode,device,written_bytes,wall_s,write_throttle_s,cawl_pred_s,cawl_err_pct"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%.3f,%.3f,%.3f,%.2f\n",
			row.Mode, row.Dev, row.Written, row.Wall, row.Throttled,
			row.CAWLPred, row.CAWLErr); err != nil {
			return err
		}
	}
	return nil
}
