package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"

	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/units"
)

// loadPlatform reads the -platform file (nil when none is given).
func (o *options) loadPlatform() (*platform.Config, error) {
	if o.platform == "" {
		return nil, nil
	}
	f, err := os.Open(o.platform)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return platform.LoadConfig(f)
}

// compile builds the scenario document the flags describe: one workload —
// synthetic, iterative or workflow — on the first partition of the first
// host of plat, or of the flag-built host node0 when plat is nil. The
// document is validated.
func (o *options) compile(plat *platform.Config) (*scenario.Doc, error) {
	if o.workflow != "" && plat == nil {
		return nil, errors.New("-workflow requires -platform")
	}
	if o.dirtyRatio <= 0 { // the document reads 0 as "the default"
		return nil, errors.New("-dirty-ratio must be positive")
	}
	if o.instances <= 0 {
		return nil, errors.New("-instances must be positive")
	}
	wl := scenario.WorkloadDoc{Name: "app", Kind: "synthetic", Size: o.size, Instances: o.instances}
	switch {
	case o.workflow != "":
		wl = scenario.WorkloadDoc{Name: "workflow", Kind: "workflow", WorkflowFile: o.workflow}
	case o.iterations > 0:
		wl = scenario.WorkloadDoc{Name: "iter", Kind: "iterative", Size: o.size, Iterations: o.iterations}
	}
	if o.cpu >= 0 {
		wl.CPUS = &o.cpu
	}
	if plat == nil {
		size, err := units.ParseBytes(o.size)
		if err != nil {
			return nil, fmt.Errorf("-size: %w", err)
		}
		ram, err := units.ParseBytes(o.ram)
		if err != nil {
			return nil, fmt.Errorf("-ram: %w", err)
		}
		capacity := 100*size*int64(o.instances) + units.GiB
		if wl.Kind == "iterative" {
			capacity = 4*size + units.GiB
		}
		plat = &platform.Config{Hosts: []platform.HostConfig{{
			Name: "node0", Cores: 32, GFlops: 1, RAM: strconv.FormatInt(ram, 10),
			MemReadMBps: o.memBW, MemWriteMBps: o.memBW,
			Disks: []platform.DiskConfig{{
				Name: "node0.disk", ReadMBps: o.diskBW, WriteMBps: o.diskBW,
				Capacity: strconv.FormatInt(capacity, 10), Partition: "scratch",
			}},
		}}}
	}
	for i := range plat.Hosts {
		h := &plat.Hosts[i]
		if o.policy != "" {
			h.CachePolicy = o.policy
		}
		if o.writeback != "" {
			h.WritebackPolicy = o.writeback
		}
		if o.dirtyBG != 0 {
			h.DirtyBackgroundRatio = o.dirtyBG
		}
	}
	host := plat.Hosts[0]
	if len(host.Disks) == 0 {
		return nil, errors.New("first platform host has no disk to place the workload on")
	}
	wl.Host, wl.Partition = host.Name, host.Disks[0].Partition
	doc := &scenario.Doc{
		Name: "pcsim", Platform: plat, Mode: o.mode, Chunk: o.chunk,
		DirtyRatio: o.dirtyRatio, DirtyExpireS: &o.expire,
		Workloads: []scenario.WorkloadDoc{wl},
	}
	if o.csv != "" {
		doc.TraceMemS = 1
	}
	if o.snapIn != "" {
		doc.Warmup = &scenario.WarmupDoc{SnapshotFile: o.snapIn}
	}
	return doc, doc.Validate()
}
