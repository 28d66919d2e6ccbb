// Package exp reproduces the paper's evaluation: experiments 1–4 plus the
// simulation-time study, each emitting the same rows/series the paper's
// tables and figures report, with the paper's published numbers embedded for
// side-by-side comparison in the report cmd/experiments prints.
package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/linuxref"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/units"
)

// Stack identifies one of the compared simulators.
type Stack string

const (
	// StackReal is the linuxref ground-truth proxy standing in for the
	// paper's "Real execution" (measured asymmetric bandwidths, folio
	// granularity, kernel heuristics).
	StackReal Stack = "real"
	// StackPysim is the sequential prototype.
	StackPysim Stack = "pysim"
	// StackCacheless is the original-WRENCH baseline.
	StackCacheless Stack = "wrench"
	// StackCache is the paper's contribution (WRENCH-cache).
	StackCache Stack = "wrench-cache"
)

// Paper-wide constants (§III.D).
const (
	RAM       = 250 * units.GiB
	Cores     = 32
	FlopRate  = 1e9
	ChunkSize = 100 * units.MB
	DiskCap   = 450 * units.GiB
)

// LocalRig is a single-host simulation with one local disk partition.
type LocalRig struct {
	Sim  *engine.Simulation
	Host *engine.HostRuntime
	Part *storage.Partition
}

// NewLocalSim builds the simulators' single-node platform (symmetric
// Table III bandwidths) in the given mode.
func NewLocalSim(mode engine.Mode) (*LocalRig, error) {
	sim := engine.NewSimulation()
	spec := platform.PaperHostSpec("node0", platform.SimMemorySpec("node0.mem"))
	hr, err := sim.AddHost(spec, mode, core.DefaultConfig(RAM), ChunkSize)
	if err != nil {
		return nil, err
	}
	part, err := hr.AddDisk(platform.SimLocalDiskSpec("node0.disk"), "scratch", DiskCap)
	if err != nil {
		return nil, err
	}
	return &LocalRig{Sim: sim, Host: hr, Part: part}, nil
}

// NewLocalReal builds the ground-truth single-node platform: measured
// asymmetric bandwidths and the linuxref model. jitter perturbs compute
// phases per repetition (0 for Exp 1/4).
func NewLocalReal(jitter float64) (*LocalRig, *linuxref.Model, error) {
	sim := engine.NewSimulation()
	cfg := linuxref.DefaultConfig(RAM)
	cfg.ReadChunk = ChunkSize
	cfg.Jitter = jitter
	model, err := linuxref.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	spec := platform.PaperHostSpec("node0", platform.RealMemorySpec("node0.mem"))
	hr, err := sim.AddHostWithModel(spec, engine.ModeWriteback, model)
	if err != nil {
		return nil, nil, err
	}
	part, err := hr.AddDisk(platform.RealLocalDiskSpec("node0.disk"), "scratch", DiskCap)
	if err != nil {
		return nil, nil, err
	}
	return &LocalRig{Sim: sim, Host: hr, Part: part}, model, nil
}

// NFSRig is a client/server pair with a remote partition mounted on the
// client (Exp 3 topology).
type NFSRig struct {
	Sim    *engine.Simulation
	Client *engine.HostRuntime
	Server *engine.HostRuntime
	Part   *storage.Partition
	SrvMgr *core.Manager
}

// NewNFSSim builds the simulators' NFS platform in the given client mode.
// The server cache is writethrough with read caching, per the paper; the
// cacheless baseline gets an uncached server.
func NewNFSSim(mode engine.Mode) (*NFSRig, error) {
	sim := engine.NewSimulation()
	client, err := sim.AddHost(
		platform.PaperHostSpec("client", platform.SimMemorySpec("client.mem")),
		mode, core.DefaultConfig(RAM), ChunkSize)
	if err != nil {
		return nil, err
	}
	server, err := sim.AddHost(
		platform.PaperHostSpec("server", platform.SimMemorySpec("server.mem")),
		engine.ModeWriteback, core.DefaultConfig(RAM), ChunkSize)
	if err != nil {
		return nil, err
	}
	part, err := server.AddDisk(platform.SimRemoteDiskSpec("server.disk"), "export", DiskCap)
	if err != nil {
		return nil, err
	}
	link, err := platform.NewLink(sim.Sys, platform.ClusterNetworkSpec("net"))
	if err != nil {
		return nil, err
	}
	opts := engine.MountOpts{Chunk: ChunkSize}
	var srvMgr *core.Manager
	if mode != engine.ModeCacheless {
		srvMgr, err = core.NewManager(core.DefaultConfig(RAM))
		if err != nil {
			return nil, err
		}
		opts.SrvMgr = srvMgr
		opts.SrvMem = server.Host.Memory()
	}
	if err := client.MountRemote(part, link, opts); err != nil {
		return nil, err
	}
	return &NFSRig{Sim: sim, Client: client, Server: server, Part: part, SrvMgr: srvMgr}, nil
}

// NewNFSReal builds the ground-truth NFS platform: linuxref on the client,
// measured asymmetric bandwidths everywhere, server read cache in
// writethrough (block-granularity server cache; see internal/nfs).
func NewNFSReal(jitter float64) (*NFSRig, error) {
	sim := engine.NewSimulation()
	cfg := linuxref.DefaultConfig(RAM)
	cfg.ReadChunk = ChunkSize
	cfg.Jitter = jitter
	model, err := linuxref.New(cfg)
	if err != nil {
		return nil, err
	}
	client, err := sim.AddHostWithModel(
		platform.PaperHostSpec("client", platform.RealMemorySpec("client.mem")),
		engine.ModeWriteback, model)
	if err != nil {
		return nil, err
	}
	server, err := sim.AddHost(
		platform.PaperHostSpec("server", platform.RealMemorySpec("server.mem")),
		engine.ModeWriteback, core.DefaultConfig(RAM), ChunkSize)
	if err != nil {
		return nil, err
	}
	part, err := server.AddDisk(platform.RealRemoteDiskSpec("server.disk"), "export", DiskCap)
	if err != nil {
		return nil, err
	}
	link, err := platform.NewLink(sim.Sys, platform.ClusterNetworkSpec("net"))
	if err != nil {
		return nil, err
	}
	srvMgr, err := core.NewManager(core.DefaultConfig(RAM))
	if err != nil {
		return nil, err
	}
	if err := client.MountRemote(part, link, engine.MountOpts{
		SrvMgr: srvMgr, SrvMem: server.Host.Memory(), Chunk: ChunkSize,
	}); err != nil {
		return nil, err
	}
	return &NFSRig{Sim: sim, Client: client, Server: server, Part: part, SrvMgr: srvMgr}, nil
}

// coreDefault is the paper's cache configuration for a 250 GiB node.
func coreDefault() core.Config { return core.DefaultConfig(RAM) }

// createInput registers a pre-existing input file on a partition.
func createInput(sim *engine.Simulation, part *storage.Partition, name string, size int64) error {
	if _, err := part.CreateSized(name, size); err != nil {
		return fmt.Errorf("exp: creating input %s: %w", name, err)
	}
	return sim.NS.Place(name, part)
}
