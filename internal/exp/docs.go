package exp

import (
	"fmt"
	"strconv"

	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// This file is the simulation side of the engine-backed cells: each one
// compiles to one scenario.Doc (the paper's platform, the stack's cache
// model, the workloads) and runs through scenario.Run, the path pcsim and
// the shipped scenarios take too. That includes the writeback and device
// ablations, whose bare writers are the write and writeread workload
// kinds. Only the pysim stack, the separate prototype, builds its own
// simulation.

// docCell is the argument struct of an engine-backed cell kind.
type docCell interface {
	// doc compiles the cell to its document and run options.
	doc() (*scenario.Doc, scenario.RunOpts, error)
	// payload reads the cell's observables off the finished run.
	payload(res *scenario.Result) any
}

// runDocCell runs an engine-backed cell.
func runDocCell(c docCell) (any, error) {
	d, opts, err := c.doc()
	if err != nil {
		return nil, err
	}
	res, err := runDoc(d, opts)
	if err != nil {
		return nil, err
	}
	return c.payload(res), nil
}

// runDoc runs a cell's document. A failed workload fails the run with the
// error of the first failed instance in key order.
func runDoc(d *scenario.Doc, opts scenario.RunOpts) (*scenario.Result, error) {
	res, err := scenario.Run(d, opts)
	if err == nil {
		err = res.WorkloadErr()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.Name, err)
	}
	return res, nil
}

// paperDoc starts a cell's document on the paper's platform (§III.D) in the
// given mode. Local, it is one node, "node0", writing to the partition
// "scratch" of its disk. Remote, it is the Exp 3 pair: "client" writes to
// the partition "export" of "server", mounted over the link "net" with the
// paper's writethrough server read cache (none for the cacheless
// baseline). Bandwidths are Table III's: the simulators' symmetric ones, or
// the measured asymmetric ones.
func paperDoc(name string, mode engine.Mode, measured, remote bool) *scenario.Doc {
	t := platform.TableIII()
	host := func(name string) platform.HostConfig {
		h := platform.HostConfig{Name: name, Cores: Cores, GFlops: FlopRate / 1e9, RAM: byteStr(RAM),
			MemReadMBps: t.SimMemMBps, MemWriteMBps: t.SimMemMBps}
		if measured {
			h.MemReadMBps, h.MemWriteMBps = t.MemReadMBps, t.MemWriteMBps
		}
		return h
	}
	disk := func(name, part string, simMBps, readMBps, writeMBps float64) []platform.DiskConfig {
		d := platform.DiskConfig{Name: name, ReadMBps: simMBps, WriteMBps: simMBps,
			Capacity: byteStr(DiskCap), Partition: part}
		if measured {
			d.ReadMBps, d.WriteMBps = readMBps, writeMBps
		}
		return []platform.DiskConfig{d}
	}
	d := &scenario.Doc{Name: name, Mode: mode.String(), Platform: &platform.Config{}}
	if !remote {
		node := host("node0")
		node.Disks = disk("node0.disk", "scratch", t.SimLocalMBps, t.LocalReadMBps, t.LocalWriteMBps)
		d.Platform.Hosts = []platform.HostConfig{node}
		return d
	}
	server := host("server")
	server.Disks = disk("server.disk", "export", t.SimNFSbps, t.RemoteReadMBps, t.RemoteWriteMBps)
	d.Platform.Hosts = []platform.HostConfig{host("client"), server}
	d.Platform.Links = []platform.LinkConfig{{Name: "net", MBps: t.NetworkMBps}}
	d.Mounts = []scenario.MountDoc{{Client: "client", Partition: "export", Link: "net",
		ServerCache: mode != engine.ModeCacheless}}
	return d
}

// stackDoc starts a cell's document for stack st on the paper's local or
// NFS platform: the simulators' bandwidths in the stack's mode, or for the
// real proxy the measured ones and a linuxref workload host.
func stackDoc(name string, st Stack, remote bool) (*scenario.Doc, error) {
	switch st {
	case StackCacheless:
		return paperDoc(name, engine.ModeCacheless, false, remote), nil
	case StackCache:
		return paperDoc(name, engine.ModeWriteback, false, remote), nil
	case StackReal:
		d := paperDoc(name, engine.ModeWriteback, true, remote)
		d.Platform.Hosts[0].Model = platform.ModelLinuxref
		return d, nil
	}
	return nil, fmt.Errorf("%s: unknown stack %q", name, st)
}

// addWorkload places wl on the document's first host, writing to the
// partition that host mounts, or else to its own.
func addWorkload(d *scenario.Doc, wl scenario.WorkloadDoc) {
	wl.Host = d.Platform.Hosts[0].Name
	if len(d.Mounts) > 0 {
		wl.Partition = d.Mounts[0].Partition
	} else {
		wl.Partition = d.Platform.Hosts[0].Disks[0].Partition
	}
	d.Workloads = append(d.Workloads, wl)
}

// addSynthetic places n instances of the synthetic pipeline on size-byte
// files. With jitter > 0 each instance is a workload of its own whose
// compute time is scaled by jitterScale(i, rep, jitter): the real
// cluster's repetition noise.
func addSynthetic(d *scenario.Doc, n int, size int64, jitter float64, rep int) {
	wl := scenario.WorkloadDoc{Name: "app", Kind: "synthetic", Size: byteStr(size), Instances: n}
	if jitter <= 0 {
		addWorkload(d, wl)
		return
	}
	cpu := workload.SyntheticCPU(size)
	for i := 0; i < n; i++ {
		cpuS := cpu * jitterScale(i, rep, jitter)
		wl.Name, wl.Instances, wl.CPUS = fmt.Sprintf("app%d", i), 1, &cpuS
		addWorkload(d, wl)
	}
}

// byteStr spells a byte count for a document, exactly.
func byteStr(n int64) string { return strconv.FormatInt(n, 10) }
