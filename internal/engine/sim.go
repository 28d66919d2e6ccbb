package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/fluid"
	"repro/internal/nfs"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Simulation assembles hosts, storage and instrumentation over one DES
// kernel and runs application processes to completion.
type Simulation struct {
	K   *des.Kernel
	Sys *fluid.System
	NS  *storage.Namespace
	Log *trace.OpLog

	hosts   []*HostRuntime
	apps    []*des.Proc
	appErrs []error
	started map[CacheModel]bool
	running bool
	// ffwd is the phase-detection + fast-forward machinery; nil (the
	// default) means off and the run is byte-identical to pre-ffwd builds.
	ffwd *ffwdState
	// partHost maps each partition to the host whose disk backs it, to
	// distinguish local from remote access.
	partHost map[*storage.Partition]*HostRuntime
}

// NewSimulation returns an empty simulation.
func NewSimulation() *Simulation {
	k := des.NewKernel()
	return &Simulation{
		K:        k,
		Sys:      fluid.NewSystem(k),
		NS:       storage.NewNamespace(),
		Log:      &trace.OpLog{},
		partHost: make(map[*storage.Partition]*HostRuntime),
		running:  true,
	}
}

// HostRuntime is one simulated host: hardware, cache model, local
// partitions, and remote mounts.
type HostRuntime struct {
	sim     *Simulation
	Host    *platform.Host
	Model   CacheModel
	Mode    Mode
	disks   []*platform.Device
	parts   []*storage.Partition
	remotes map[*storage.Partition]*mount

	MemTrace *trace.MemSeries
	Snaps    *trace.SnapshotLog
}

// mount is a client-side view of a remote partition.
type mount struct {
	remote           *nfs.Remote
	chunk            int64
	clientWriteCache bool
}

// AddHost realizes spec and attaches a cache model for the given mode.
// cacheCfg is ignored in cacheless mode.
func (s *Simulation) AddHost(spec platform.HostSpec, mode Mode, cacheCfg core.Config, chunk int64) (*HostRuntime, error) {
	var model CacheModel
	switch mode {
	case ModeCacheless:
		model = NewCachelessModel(chunk)
	default:
		mgr, err := core.NewManager(cacheCfg)
		if err != nil {
			return nil, err
		}
		model, err = NewCoreModel(mgr, chunk, mode)
		if err != nil {
			return nil, err
		}
	}
	return s.AddHostWithModel(spec, mode, model)
}

// AddHostWithModel realizes spec with a caller-supplied cache model (used to
// plug in the linuxref ground-truth proxy) and starts the model's background
// processes.
func (s *Simulation) AddHostWithModel(spec platform.HostSpec, mode Mode, model CacheModel) (*HostRuntime, error) {
	h, err := platform.NewHost(s.K, s.Sys, spec)
	if err != nil {
		return nil, err
	}
	hr := &HostRuntime{
		sim:     s,
		Host:    h,
		Mode:    mode,
		Model:   model,
		remotes: make(map[*storage.Partition]*mount),
		Snaps:   &trace.SnapshotLog{},
	}
	s.hosts = append(s.hosts, hr)
	hr.Model.Start(s.K, func(p *des.Proc) core.Caller { return &procCaller{p: p, hr: hr} },
		func() bool { return s.running })
	return hr, nil
}

// AddDisk attaches a local disk and a partition covering it.
func (hr *HostRuntime) AddDisk(spec platform.DeviceSpec, partName string, capacity int64) (*storage.Partition, error) {
	dev, err := platform.NewDevice(hr.sim.Sys, spec)
	if err != nil {
		return nil, err
	}
	part, err := storage.NewPartition(partName, capacity, dev)
	if err != nil {
		return nil, err
	}
	hr.disks = append(hr.disks, dev)
	hr.parts = append(hr.parts, part)
	hr.sim.partHost[part] = hr
	return part, nil
}

// MountOpts configures a remote mount. The zero value plus a server manager
// gives the paper's Exp 3 configuration: server read cache in writethrough,
// no client write cache.
type MountOpts struct {
	// SrvMgr is the server-side page cache (nil: uncached server).
	SrvMgr *core.Manager
	// SrvMem is the server host's RAM device (required when SrvMgr is set).
	SrvMem *platform.Device
	// Chunk is the transfer granularity (bytes).
	Chunk int64
	// ServerWriteback selects a writeback server cache (paper: false).
	ServerWriteback bool
	// ClientWriteCache lets client writes go through the client's own page
	// cache and reach the server via (delayed) flushes (paper: false — "no
	// client write cache").
	ClientWriteCache bool
	// Retry is the mount's failure-handling policy while the server is
	// down (the zero value is a Linux hard mount: stall until recovery).
	Retry nfs.RetryConfig
}

// MountRemote makes server-partition part reachable from hr over link. The
// server host must be in the same simulation and back the partition with a
// local disk.
func (hr *HostRuntime) MountRemote(part *storage.Partition, link *platform.Link, opts MountOpts) error {
	owner := hr.sim.partHost[part]
	if owner == nil {
		return fmt.Errorf("engine: partition %s has no owner host", part.Name())
	}
	if owner == hr {
		return fmt.Errorf("engine: partition %s is local to %s", part.Name(), hr.Host.Name())
	}
	if opts.Chunk <= 0 {
		return fmt.Errorf("engine: mount of %s: chunk must be positive", part.Name())
	}
	r, err := nfs.New(hr.sim.Sys, link, part.Device(), opts.SrvMem, opts.SrvMgr, opts.Chunk)
	if err != nil {
		return err
	}
	r.ServerWriteback = opts.ServerWriteback
	r.Retry = opts.Retry
	hr.remotes[part] = &mount{remote: r, chunk: opts.Chunk, clientWriteCache: opts.ClientWriteCache}
	if opts.ServerWriteback && opts.SrvMgr != nil {
		s := hr.sim
		s.K.Spawn("nfsd-flush", func(p *des.Proc) {
			core.RunFlusher(p.Now, opts.SrvMgr.Config().FlushInterval, func() { r.BackgroundTick(p) },
				p.Sleep, func() bool { return s.running })
		})
	}
	return nil
}

// Remote returns the NFS handle for a mounted partition (nil if local).
func (hr *HostRuntime) Remote(part *storage.Partition) *nfs.Remote {
	if m := hr.remotes[part]; m != nil {
		return m.remote
	}
	return nil
}

// Caller returns a core.Caller routing I/O for process p on this host —
// the hook the chaos engine and scenario runner use to drive reclaim
// (cache drops, cgroup shrinks, end-of-run syncs) with correctly charged
// simulated transfer time.
func (hr *HostRuntime) Caller(p *des.Proc) core.Caller {
	return &procCaller{p: p, hr: hr}
}

// Disks returns the host's local disk devices in attach order.
func (hr *HostRuntime) Disks() []*platform.Device { return hr.disks }

// EnableMemTrace samples the host's memory accounting and cumulative
// read-hit counters every dt seconds for the duration of the run. Models
// that do not track hits (cacheless) sample them as zeros.
func (hr *HostRuntime) EnableMemTrace(dt float64) {
	hr.MemTrace = &trace.MemSeries{}
	s := hr.sim
	s.K.Spawn(hr.Host.Name()+"-sampler", func(p *des.Proc) {
		for s.running {
			st := hr.Model.Snapshot()
			hr.MemTrace.Add(trace.MemPoint{
				T: p.Now(), Used: st.Anon + st.Cache, Cache: st.Cache,
				Dirty: st.Dirty, Anon: st.Anon,
				HitBytes: st.ReadHitBytes, MissBytes: st.ReadMissBytes,
			})
			p.Sleep(dt)
		}
	})
}

// SnapshotCache records the host's per-file cache contents under a label
// (Fig 4c data points).
func (hr *HostRuntime) SnapshotCache(label string, t float64) {
	hr.Snaps.Add(label, t, hr.Model.CachedByFile())
}

// SpawnApp starts an application process. body runs in simulated time; its
// error (if any) is reported by Run.
func (s *Simulation) SpawnApp(hr *HostRuntime, instance int, name string, body func(a *App) error) {
	s.spawn(hr, hr.Model, instance, name, body)
}

// SpawnAppWithModel starts an application whose I/O goes through a
// dedicated cache model — e.g. a cgroup's private page cache — instead of
// the host-wide model. The model's background processes are started on
// first use.
func (s *Simulation) SpawnAppWithModel(hr *HostRuntime, model CacheModel, instance int, name string, body func(a *App) error) {
	if !s.started[model] {
		if s.started == nil {
			s.started = make(map[CacheModel]bool)
		}
		s.started[model] = true
		model.Start(s.K, func(p *des.Proc) core.Caller { return &procCaller{p: p, hr: hr} },
			func() bool { return s.running })
	}
	s.spawn(hr, model, instance, name, body)
}

func (s *Simulation) spawn(hr *HostRuntime, model CacheModel, instance int, name string, body func(a *App) error) {
	idx := len(s.appErrs)
	s.appErrs = append(s.appErrs, nil)
	p := s.K.Spawn(name, func(p *des.Proc) {
		a := &App{sim: s, hr: hr, model: model, p: p, instance: instance}
		s.appErrs[idx] = body(a)
	})
	s.apps = append(s.apps, p)
}

// Run executes the simulation until all applications finish, then stops
// background processes and drains the kernel. It returns the first
// application error, if any.
func (s *Simulation) Run() error {
	s.K.Spawn("supervisor", func(p *des.Proc) {
		for _, app := range s.apps {
			p.Join(app)
		}
		s.running = false
	})
	if err := s.K.Run(); err != nil {
		return err
	}
	for _, err := range s.appErrs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Makespan returns the completion time of the last logged operation.
func (s *Simulation) Makespan() float64 { return s.Log.Makespan() }

// CheckSubstrate verifies the fluid solver's incremental index structures
// and rates against a full rescan and a full progressive-filling solve
// (fluid.System.CheckInvariants). Tests call it mid-run and after Run,
// symmetric with core.Manager.CheckInvariants for the cache model.
func (s *Simulation) CheckSubstrate() error { return s.Sys.CheckInvariants() }
