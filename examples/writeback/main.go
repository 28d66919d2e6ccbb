// Writeback: run the same skewed write burst under every registered
// writeback policy — with background writeback off (the paper's
// single-threshold model) and on (Linux's dirty_background_ratio) — and
// compare makespans, flushed bytes, writer throttle time and read-hit
// ratios: the walkthrough for the WritebackPolicy seam (core.WritebackPolicy,
// Config.Writeback/DirtyBackgroundRatio, and the platform
// "writebackPolicy"/"dirtyBackgroundRatio" knobs).
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/units"
)

// runBurst executes three concurrent writers with skewed file sizes (4, 2
// and 1 GB) on an 8 GiB node, each rereading its file afterwards. The
// writes overrun the dirty threshold, so the writeback policy decides which
// file's blocks are persisted (and thus evictable) first; the skew makes
// the orders genuinely different — symmetric writers would produce the same
// schedule under every policy.
func runBurst(writeback string, bg float64) (makespan, throttled, hitRatio float64, flushed int64, err error) {
	ram := 8 * units.GiB
	sizes := []int64{4 * units.GB, 2 * units.GB, 1 * units.GB}

	sim := engine.NewSimulation()
	cfg := core.DefaultConfig(ram)
	cfg.Writeback = writeback // "" would select the default list order
	cfg.DirtyBackgroundRatio = bg
	mgr, err := core.NewManager(cfg)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	model, err := engine.NewCoreModel(mgr, 100*units.MB, engine.ModeWriteback)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	host, err := sim.AddHostWithModel(platform.HostSpec{
		Name: "node0", Cores: 4, FlopRate: 1e9, MemoryCap: ram,
		Memory: platform.SimMemorySpec("node0.mem"),
	}, engine.ModeWriteback, model)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	disk, err := host.AddDisk(platform.SimLocalDiskSpec("node0.disk"), "scratch", 100*units.GiB)
	if err != nil {
		return 0, 0, 0, 0, err
	}

	for i, size := range sizes {
		i, size := i, size
		out := fmt.Sprintf("out%d.bin", i)
		sim.SpawnApp(host, i, fmt.Sprintf("writer%d", i), func(a *engine.App) error {
			if err := a.WriteFile(out, size, disk, fmt.Sprintf("write %d", i)); err != nil {
				return err
			}
			a.Compute(3, fmt.Sprintf("compute %d", i))
			if err := a.ReadFile(out, fmt.Sprintf("reread %d", i)); err != nil {
				return err
			}
			a.ReleaseTaskMemory()
			return nil
		})
	}
	if err := sim.Run(); err != nil {
		return 0, 0, 0, 0, err
	}
	ratio := trace.MemPoint{HitBytes: mgr.ReadHitBytes(), MissBytes: mgr.ReadMissBytes()}.HitRatio()
	return sim.Makespan(), mgr.WriteThrottledSeconds(), ratio, mgr.FlushedBytes(), nil
}

// runMixed executes the per-device walkthrough: an NVMe-class and an
// HDD-class disk on one 16 GiB host, each written concurrently by its own
// 12 GB writer. With one global domain the HDD backlog throttles the NVMe
// writer; with EnablePerDeviceWriteback each writer stalls only on its own
// device — compare the per-device wall and throttle columns.
func runMixed(perDevice bool) ([]core.DomainStat, []float64, error) {
	ram := 16 * units.GiB
	size := 12 * units.GB
	disks := []struct {
		name string
		mbps float64
	}{{"nvme0", 2000}, {"hdd0", 120}}

	sim := engine.NewSimulation()
	cfg := core.DefaultConfig(ram)
	cfg.DirtyBackgroundRatio = 0.10
	mgr, err := core.NewManager(cfg)
	if err != nil {
		return nil, nil, err
	}
	model, err := engine.NewCoreModel(mgr, 100*units.MB, engine.ModeWriteback)
	if err != nil {
		return nil, nil, err
	}
	host, err := sim.AddHostWithModel(platform.HostSpec{
		Name: "node0", Cores: 4, FlopRate: 1e9, MemoryCap: ram,
		Memory: platform.SimMemorySpec("node0.mem"),
	}, engine.ModeWriteback, model)
	if err != nil {
		return nil, nil, err
	}
	walls := make([]float64, len(disks))
	for i, d := range disks {
		i, d := i, d
		bw := d.mbps * 1e6
		part, err := host.AddDisk(platform.DeviceSpec{
			Name: d.name, ReadBW: bw, WriteBW: bw, Capacity: 64 * units.GiB,
		}, d.name+"p", 64*units.GiB)
		if err != nil {
			return nil, nil, err
		}
		sim.SpawnApp(host, i, "writer-"+d.name, func(a *engine.App) error {
			if err := a.WriteFile("out-"+d.name, size, part, "write"); err != nil {
				return err
			}
			walls[i] = a.Now()
			return nil
		})
	}
	if perDevice {
		// Must run after the disks exist and before sim.Run: it derives one
		// writeback domain per attached disk (bandwidth-share thresholds)
		// and swaps the host-wide flusher for per-domain flusher procs with
		// writer-driven wakeups.
		if err := host.EnablePerDeviceWriteback(nil); err != nil {
			return nil, nil, err
		}
	}
	if err := sim.Run(); err != nil {
		return nil, nil, err
	}
	return mgr.DomainStats(), walls, nil
}

func main() {
	fmt.Println("writeback comparison: skewed 4+2+1 GB write burst, 8 GiB RAM")
	fmt.Printf("%-14s %9s %12s %10s %13s %15s\n",
		"writeback", "bg ratio", "makespan (s)", "flushed", "throttled (s)", "read-hit ratio")
	for _, wb := range core.WritebackPolicyNames() {
		for _, bg := range []float64{0, 0.10} {
			makespan, throttled, ratio, flushed, err := runBurst(wb, bg)
			if err != nil {
				log.Fatalf("%s/bg=%g: %v", wb, bg, err)
			}
			fmt.Printf("%-14s %9.2f %12.1f %10s %13.1f %15.3f\n",
				wb, bg, makespan, units.FormatBytes(flushed), throttled, ratio)
		}
	}
	// Expected: with background writeback off, every policy flushes only
	// what the throttled writers force out, and the order decides which
	// file's blocks are clean when the rereads arrive (file-rr and
	// oldest-first spread writeback over all files; proportional
	// concentrates on the 4 GB backlog). With dirty_background_ratio set,
	// the async flusher runs ahead of the throttle: more bytes are flushed,
	// writers stall less, and rereads find more of the cache clean.

	fmt.Println()
	fmt.Println("per-device writeback: concurrent 12 GB writers on NVMe + HDD, 16 GiB RAM")
	fmt.Printf("%-12s %-8s %10s %15s %10s\n",
		"mode", "device", "wall (s)", "throttled (s)", "flushed")
	for _, perDevice := range []bool{false, true} {
		stats, walls, err := runMixed(perDevice)
		if err != nil {
			log.Fatalf("mixed perDevice=%v: %v", perDevice, err)
		}
		mode := "global"
		if perDevice {
			mode = "per-device"
		}
		// Domain 0 is the global backstop; per-device stats follow in disk
		// order. In global mode there is only domain 0 — the host total.
		byDev := map[string]core.DomainStat{}
		for _, st := range stats {
			byDev[st.Dev] = st
		}
		for i, dev := range []string{"nvme0", "hdd0"} {
			st, ok := byDev[dev]
			if !ok {
				st = stats[0] // single global domain: host-wide counters
			}
			fmt.Printf("%-12s %-8s %10.1f %15.1f %10s\n",
				mode, dev, walls[i], st.WriteThrottledSeconds,
				units.FormatBytes(st.FlushedBytes))
		}
	}
	// Expected: in global mode the NVMe writer's wall time is a multiple of
	// its isolated write time — the HDD backlog holds the shared dirty
	// threshold down and the flush order interleaves both devices. In
	// per-device mode each domain throttles only its own writer and the
	// NVMe wall time collapses to roughly the CAWL-modeled write time
	// (see `experiments -devices` for the calibrated comparison).
}
