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
	"repro/internal/scenario"
	"repro/internal/units"
)

// node is the example's 4-core host with ram bytes of memory, no disks.
func node(ram string) platform.HostConfig {
	return platform.HostConfig{Name: "node0", Cores: 4, GFlops: 1, RAM: ram,
		MemReadMBps: 4812, MemWriteMBps: 4812}
}

// run runs d and returns the finished run and its host's cache manager.
func run(d *scenario.Doc) (*scenario.Result, *core.Manager) {
	res, err := scenario.Run(d, scenario.RunOpts{})
	if err == nil {
		err = res.WorkloadErr()
	}
	if err != nil {
		log.Fatalf("%s: %v", d.Name, err)
	}
	return res, res.Hosts["node0"].Model.(engine.ManagerProvider).Manager()
}

// burstDoc places three concurrent writers with skewed file sizes (4, 2
// and 1 GB) on an 8 GiB node, each rereading its file afterwards. The
// writes overrun the dirty threshold, so the writeback policy decides which
// file's blocks are persisted (and thus evictable) first; the skew makes
// the orders genuinely different — symmetric writers would produce the same
// schedule under every policy.
func burstDoc(writeback string, bg float64) *scenario.Doc {
	h := node("8GiB")
	h.WritebackPolicy = writeback // "" would select the default list order
	h.DirtyBackgroundRatio = bg
	h.Disks = []platform.DiskConfig{{Name: "node0.disk", ReadMBps: 465, WriteMBps: 465,
		Capacity: "100GiB", Partition: "scratch"}}
	d := &scenario.Doc{Name: fmt.Sprintf("burst %s bg=%g", writeback, bg),
		Platform: &platform.Config{Hosts: []platform.HostConfig{h}}}
	cpuS := 3.0
	for i, size := range []string{"4GB", "2GB", "1GB"} {
		d.Workloads = append(d.Workloads, scenario.WorkloadDoc{Name: fmt.Sprintf("writer%d", i),
			Host: "node0", Kind: "writeread", Partition: "scratch", Size: size, CPUS: &cpuS})
	}
	return d
}

// mixedDoc is the per-device walkthrough: an NVMe-class and an HDD-class
// disk on one 16 GiB host, each written concurrently by its own 12 GB
// writer. With one global domain the HDD backlog throttles the NVMe
// writer; with perDeviceWriteback each writer stalls only on its own
// device — compare the per-device wall and throttle columns.
func mixedDoc(perDevice bool) *scenario.Doc {
	h := node("16GiB")
	h.DirtyBackgroundRatio = 0.10
	h.PerDeviceWriteback = perDevice
	d := &scenario.Doc{Name: fmt.Sprintf("mixed perDevice=%v", perDevice)}
	for _, dk := range []struct {
		name string
		mbps float64
	}{{"nvme0", 2000}, {"hdd0", 120}} {
		h.Disks = append(h.Disks, platform.DiskConfig{Name: dk.name, ReadMBps: dk.mbps, WriteMBps: dk.mbps,
			Capacity: "64GiB", Partition: dk.name + "p"})
		d.Workloads = append(d.Workloads, scenario.WorkloadDoc{Name: "writer-" + dk.name,
			Host: "node0", Kind: "write", Partition: dk.name + "p", Size: "12GB"})
	}
	d.Platform = &platform.Config{Hosts: []platform.HostConfig{h}}
	return d
}

func main() {
	fmt.Println("writeback comparison: skewed 4+2+1 GB write burst, 8 GiB RAM")
	fmt.Printf("%-14s %9s %12s %10s %13s %15s\n",
		"writeback", "bg ratio", "makespan (s)", "flushed", "throttled (s)", "read-hit ratio")
	for _, wb := range core.WritebackPolicyNames() {
		for _, bg := range []float64{0, 0.10} {
			res, mgr := run(burstDoc(wb, bg))
			fmt.Printf("%-14s %9.2f %12.1f %10s %13.1f %15.3f\n",
				wb, bg, res.Makespan, units.FormatBytes(mgr.FlushedBytes()),
				mgr.WriteThrottledSeconds(), res.ReadHitRatio("node0"))
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
		res, mgr := run(mixedDoc(perDevice))
		mode := "global"
		if perDevice {
			mode = "per-device"
		}
		// Each writer's wall time is the end of its write; its instance
		// index is its disk's.
		walls := make([]float64, 2)
		for _, op := range res.Sim.Log.ByName("Write 1") {
			walls[op.Instance] = op.End
		}
		// Domain 0 is the global backstop; per-device stats follow in disk
		// order. In global mode there is only domain 0 — the host total.
		stats := mgr.DomainStats()
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
