package scenario

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"repro/internal/cgroup"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/units"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// RunOpts tunes a scenario execution.
type RunOpts struct {
	// ChaosSeed overrides the document's chaos seed when OverrideSeed is
	// set (the -chaos-seed flag).
	ChaosSeed    int64
	OverrideSeed bool
	// FastForward, when set, arms the engine's analytical fast-forward of
	// steady-state iterations (iterative workloads) for the main run.
	FastForward *engine.FFwdConfig
}

// AssertionResult is one evaluated assertion.
type AssertionResult struct {
	Desc   string // e.g. "makespan-below 100s"
	OK     bool
	Detail string // observed value, e.g. "makespan 62.31s"
}

// Result is a finished scenario run.
type Result struct {
	Doc        *Doc
	Sim        *engine.Simulation
	Hosts      map[string]*engine.HostRuntime
	Partitions map[string]*storage.Partition
	Makespan   float64
	// ChaosLog is the injector's deterministic applied-fault log.
	ChaosLog []string
	// WorkloadErrs maps "name[i]" (per instance) to its error, nil when the
	// instance completed.
	WorkloadErrs map[string]error
	// Workflows maps "name[i]" of each workflow-kind instance to its
	// execution (per-task timings).
	Workflows  map[string]*workflow.Execution
	Assertions []AssertionResult
	Passed     bool

	// SrvMgrs holds each mounted partition's server cache, by partition
	// name: its flush, throttle and hit counters, and the state
	// SnapshotState captures for warm-starting another run.
	SrvMgrs map[string]*core.Manager

	// groups keeps the cgroup cache managers reachable after the run, so
	// SnapshotState can capture them.
	groups map[string]*cgroup.Group
}

// Report writes the deterministic run report: chaos log, assertion
// verdicts, makespan. Byte-identical across runs of the same document and
// seed — the determinism contract CI enforces.
func (r *Result) Report(w io.Writer) {
	fmt.Fprintf(w, "scenario: %s\n", r.Doc.Name)
	if len(r.ChaosLog) > 0 {
		fmt.Fprintln(w, "chaos log:")
		for _, line := range r.ChaosLog {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
	for _, k := range r.failedWorkloads() {
		fmt.Fprintf(w, "workload %s failed: %v\n", k, r.WorkloadErrs[k])
	}
	if len(r.Assertions) > 0 {
		fmt.Fprintln(w, "assertions:")
		for _, a := range r.Assertions {
			verdict := "PASS"
			if !a.OK {
				verdict = "FAIL"
			}
			fmt.Fprintf(w, "  %s %s (%s)\n", verdict, a.Desc, a.Detail)
		}
	}
	fmt.Fprintf(w, "makespan: %.6gs\n", r.Makespan)
}

// failedWorkloads lists the keys of the failed workload instances, sorted.
func (r *Result) failedWorkloads() []string {
	var keys []string
	for k, err := range r.WorkloadErrs {
		if err != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// WorkloadErr returns the error of the first failed workload instance in
// key order, naming the instance, or nil when every instance completed.
func (r *Result) WorkloadErr() error {
	if keys := r.failedWorkloads(); len(keys) > 0 {
		return fmt.Errorf("workload %s: %w", keys[0], r.WorkloadErrs[keys[0]])
	}
	return nil
}

// ReadHitRatio is a host's read hit ratio over the run (0 when no reads
// ran).
func (r *Result) ReadHitRatio(host string) float64 {
	st := r.Hosts[host].Model.Snapshot()
	if tot := st.ReadHitBytes + st.ReadMissBytes; tot > 0 {
		return float64(st.ReadHitBytes) / float64(tot)
	}
	return 0
}

// cgroupTarget adapts a controller group to chaos.CgroupTarget, routing
// reclaim I/O through the host it lives on.
type cgroupTarget struct {
	ctl  *cgroup.Controller
	name string
	hr   *engine.HostRuntime
}

func (t *cgroupTarget) Limit() int64 { return t.ctl.Group(t.name).Limit() }
func (t *cgroupTarget) SetLimit(p *des.Proc, limit int64) (int64, error) {
	return t.ctl.SetLimit(t.hr.Caller(p), t.name, limit)
}

// Run executes a validated document: builds the platform, mounts, cgroups
// and files in document order, arms the chaos injector, runs every
// workload, syncs where assertions require it, and evaluates the
// assertions. The returned error covers configuration and substrate
// problems; workload failures and failed assertions land in the Result.
func Run(d *Doc, opts RunOpts) (*Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	mode, _ := parseMode(d.Mode)
	chunkStr := d.Chunk
	if chunkStr == "" {
		chunkStr = "100MB"
	}
	chunk, _ := units.ParseBytes(chunkStr)

	sim := engine.NewSimulation()
	if opts.FastForward != nil {
		sim.EnableFastForward(*opts.FastForward)
	}
	plat, err := sim.BuildPlatform(d.Platform, mode, chunk, d.tuneCache)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Doc: d, Sim: sim,
		Hosts: plat.Hosts, Partitions: plat.Partitions,
		WorkloadErrs: make(map[string]error),
		Workflows:    make(map[string]*workflow.Execution),
	}

	// Chaos registries. Disks register as "host/disk" and, when the bare
	// name is unambiguous, as the disk name itself. HostRuntime.Disks()
	// preserves config order, so indices line up.
	inj := chaos.NewInjector(sim.K)
	diskCount := map[string]int{}
	for _, hc := range d.Platform.Hosts {
		for _, dc := range hc.Disks {
			diskCount[dc.Name]++
		}
	}
	for _, hc := range d.Platform.Hosts {
		hr := plat.Hosts[hc.Name]
		for i, dc := range hc.Disks {
			dev := hr.Disks()[i]
			inj.RegisterDisk(hc.Name+"/"+dc.Name, dev)
			if diskCount[dc.Name] == 1 {
				inj.RegisterDisk(dc.Name, dev)
			}
		}
		if mp, ok := hr.Model.(engine.ManagerProvider); ok {
			inj.RegisterCache(hc.Name, mp.Manager())
		}
	}
	for _, lc := range d.Platform.Links {
		inj.RegisterLink(lc.Name, plat.Links[lc.Name])
	}

	// Mounts, sharing one server cache per partition.
	srvMgrs := map[string]*core.Manager{}
	for _, m := range d.Mounts {
		client := plat.Hosts[m.Client]
		part := plat.Partitions[m.Partition]
		owner := hostOf(d, m.Partition)
		mopts := engine.MountOpts{
			Chunk:            chunk,
			ServerWriteback:  m.ServerWriteback,
			ClientWriteCache: m.ClientWriteCache,
		}
		if m.ServerCache {
			mgr, ok := srvMgrs[m.Partition]
			if !ok {
				cfg, err := d.hostCacheConfig(owner)
				if err != nil {
					return nil, err
				}
				if mgr, err = core.NewManager(cfg); err != nil {
					return nil, err
				}
				srvMgrs[m.Partition] = mgr
				inj.RegisterCache(m.Partition+".server-cache", mgr)
			}
			mopts.SrvMgr = mgr
			mopts.SrvMem = plat.Hosts[owner].Host.Memory()
		}
		mopts.Retry, _ = m.Retry.Config()
		if err := client.MountRemote(part, plat.Links[m.Link], mopts); err != nil {
			return nil, err
		}
		inj.RegisterServer(m.Partition, client.Remote(part))
	}

	// Cgroups: one controller per host, groups inheriting the host's cache
	// configuration.
	ctls := map[string]*cgroup.Controller{}
	groups := map[string]*cgroup.Group{}
	for _, g := range d.Cgroups {
		ctl, ok := ctls[g.Host]
		if !ok {
			base, err := d.hostCacheConfig(g.Host)
			if err != nil {
				return nil, err
			}
			ctl, err = cgroup.NewController(base.TotalMem, base, chunk)
			if err != nil {
				return nil, err
			}
			ctls[g.Host] = ctl
		}
		limit, _ := units.ParseBytes(g.Limit)
		grp, err := ctl.NewGroupSpec(cgroup.Spec{
			Name: g.Name, Limit: limit,
			CachePolicy: g.CachePolicy, WritebackPolicy: g.WritebackPolicy,
		})
		if err != nil {
			return nil, err
		}
		groups[g.Name] = grp
		inj.RegisterCgroup(g.Name, &cgroupTarget{ctl: ctl, name: g.Name, hr: plat.Hosts[g.Host]})
		inj.RegisterCache(g.Name, grp.Manager())
	}

	res.groups = groups
	res.SrvMgrs = srvMgrs

	if d.TraceMemS > 0 {
		for _, hc := range d.Platform.Hosts {
			plat.Hosts[hc.Name].EnableMemTrace(d.TraceMemS)
		}
	}

	// Warm-start: restore a cache snapshot (from a file or a throwaway
	// warmup run) into the still-empty managers, creating the backing files
	// the cached blocks refer to. Runs before the main file setup so
	// createInput tolerates files the warm state already placed.
	if d.Warmup != nil {
		if err := applyWarmup(d, sim, plat, groups, srvMgrs); err != nil {
			return nil, err
		}
	}

	// Pre-existing files: the explicit list, then each workload's inputs —
	// all before any application spawns, mirroring the hand-coded
	// experiment drivers.
	for _, f := range d.Files {
		size, _ := units.ParseBytes(f.Size)
		if err := createInput(sim, plat.Partitions[f.Partition], f.Name, size); err != nil {
			return nil, err
		}
	}
	type appSpec struct {
		wl       WorkloadDoc
		instance int
		key      string
		wf       *workflow.Workflow
	}
	var apps []appSpec
	instance := 0
	nighresInputs := map[string]bool{} // partitions with t1_image placed
	for _, wl := range d.Workloads {
		part := plat.Partitions[wl.Partition]
		var wf *workflow.Workflow
		if wl.Kind == "workflow" {
			if wf, err = loadWorkflow(sim, part, wl.WorkflowFile); err != nil {
				return nil, err
			}
		}
		n := wl.Instances
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			size, _ := units.ParseBytes(wl.Size)
			switch wl.Kind {
			case "synthetic":
				files := workload.SyntheticFiles(instance)
				if err := createInput(sim, part, files[0], size); err != nil {
					return nil, err
				}
			case "iterative":
				if err := createInput(sim, part, workload.IterInput, size); err != nil {
					return nil, err
				}
			case "nighres":
				if !nighresInputs[wl.Partition] {
					nighresInputs[wl.Partition] = true
					if err := createInput(sim, part, workload.NighresInput, workload.NighresInputSize); err != nil {
						return nil, err
					}
				}
			}
			apps = append(apps, appSpec{wl: wl, instance: instance, key: instanceKey(wl.Name, i), wf: wf})
			instance++
		}
	}
	for k := range apps {
		as := &apps[k]
		wl := &as.wl
		hr := plat.Hosts[wl.Host]
		part := plat.Partitions[wl.Partition]
		spawn := func(name string, body func(*engine.App) error) {
			delayed := func(a *engine.App) error {
				if wl.StartS > 0 {
					a.Sleep(wl.StartS)
				}
				return body(a)
			}
			if wl.Cgroup != "" {
				sim.SpawnAppWithModel(hr, groups[wl.Cgroup], as.instance, name, delayed)
			} else {
				sim.SpawnApp(hr, as.instance, name, delayed)
			}
		}
		if as.wf != nil {
			x, err := workflow.Start(sim, part, as.wf, func(_ int, name string, body func(*engine.App) error) {
				spawn(name, body)
			})
			if err != nil {
				return nil, err
			}
			res.Workflows[as.key] = x
			continue
		}
		// Workload failures are scenario data (completed/failed
		// assertions), not run failures: record them and return nil so one
		// expected error does not abort the simulation.
		spawn(wl.Name+strconv.Itoa(as.instance), func(a *engine.App) error {
			res.WorkloadErrs[as.key] = runWorkload(&workload.EngineRunner{App: a, Part: part}, *wl, as.instance, d.SnapshotOps)
			return nil
		})
	}

	// Arm the fault injector last: every queued event validates against the
	// registries built above, and with no chaos stanza this adds zero
	// simulated events — the run stays bit-identical to a chaos-free one.
	if c := d.Chaos; c != nil {
		seed := c.Seed
		if opts.OverrideSeed {
			seed = opts.ChaosSeed
		}
		for _, e := range c.Events {
			ev, _ := e.Event()
			inj.Add(ev)
		}
		if r := c.Random; r != nil {
			menu := make([]chaos.Event, len(r.Menu))
			for i, e := range r.Menu {
				menu[i], _ = e.Event()
			}
			evs, err := chaos.Generate(seed, chaos.RandomSpec{
				Count: r.Count, StartS: r.StartS, EndS: r.EndS, Menu: menu,
			})
			if err != nil {
				return nil, err
			}
			inj.Add(evs...)
		}
	}
	if err := inj.Arm(); err != nil {
		return nil, err
	}

	if err := sim.Run(); err != nil {
		return nil, err
	}
	if err := inj.Err(); err != nil {
		return nil, err
	}
	for key, x := range res.Workflows {
		res.WorkloadErrs[key] = x.Err()
	}
	res.Makespan = sim.Makespan()
	res.ChaosLog = inj.AppliedLog()

	// sync(2) before dirty assertions: drain the asserted hosts' caches
	// (and their cgroups') in a post-run kernel pass.
	if hostsToSync := dirtyAssertHosts(d); len(hostsToSync) > 0 {
		for _, hn := range hostsToSync {
			hn := hn
			hr := plat.Hosts[hn]
			var syncers []engine.Syncer
			if s, ok := hr.Model.(engine.Syncer); ok {
				syncers = append(syncers, s)
			}
			for _, g := range d.Cgroups {
				if g.Host == hn {
					syncers = append(syncers, groups[g.Name].CacheModel.(engine.Syncer))
				}
			}
			sim.K.Spawn("sync-"+hn, func(p *des.Proc) {
				for _, s := range syncers {
					s.SyncAll(hr.Caller(p))
				}
			})
		}
		if err := sim.K.Run(); err != nil {
			return nil, err
		}
	}

	res.Assertions = evaluate(d, plat, groups, res)
	res.Passed = true
	for _, a := range res.Assertions {
		if !a.OK {
			res.Passed = false
		}
	}
	return res, nil
}

// hostOf returns the config host owning a partition ("" if none).
func hostOf(d *Doc, part string) string {
	for _, h := range d.Platform.Hosts {
		for _, dk := range h.Disks {
			if dk.Partition == part {
				return h.Name
			}
		}
	}
	return ""
}

// tuneCache applies the document's run-wide cache overrides to one host's
// cache configuration.
func (d *Doc) tuneCache(cfg *core.Config) {
	if d.DirtyRatio > 0 {
		cfg.DirtyRatio = d.DirtyRatio
	}
	if d.DirtyExpireS != nil {
		cfg.DirtyExpire = *d.DirtyExpireS
	}
}

// hostCacheConfig is the cache config BuildPlatform gives a host, so
// validation checks it, and cgroups and the server caches of the host's
// exported partitions inherit the same policies and ratios.
func (d *Doc) hostCacheConfig(name string) (core.Config, error) {
	for _, h := range d.Platform.Hosts {
		if h.Name == name {
			spec, err := h.HostSpec()
			if err != nil {
				return core.Config{}, err
			}
			cfg := engine.HostCacheConfig(h, spec.MemoryCap)
			d.tuneCache(&cfg)
			return cfg, nil
		}
	}
	return core.Config{}, fmt.Errorf("scenario: unknown host %q", name)
}

// runWorkload runs one instance of a synthetic, iterative, nighres, write
// or writeread workload; snapshot records a synthetic one's per-op cache
// contents.
func runWorkload(r *workload.EngineRunner, wl WorkloadDoc, instance int, snapshot bool) error {
	size, _ := units.ParseBytes(wl.Size)
	cpu := workload.SyntheticCPU(size)
	if wl.CPUS != nil {
		cpu = *wl.CPUS
	}
	switch wl.Kind {
	case "synthetic":
		return workload.RunSynthetic(r, workload.SyntheticSpec{
			Size: size, CPU: cpu, Files: workload.SyntheticFiles(instance), Snapshot: snapshot,
		})
	case "iterative":
		return workload.RunIterative(r, workload.IterativeSpec{
			Iterations: wl.Iterations, Size: size, CPU: cpu,
			Input: workload.IterInput, Output: workload.IterOutput,
		})
	case "write", "writeread":
		return workload.RunWriteRead(r, workload.WriteReadSpec{
			File: "app" + strconv.Itoa(instance) + "_out", Size: size, CPU: cpu,
			ReadBack: wl.Kind == "writeread",
		})
	default:
		return workload.RunNighres(r)
	}
}

// loadWorkflow reads a workflow file and creates its source files on part,
// each sized by the largest partial read a task requests.
func loadWorkflow(sim *engine.Simulation, part *storage.Partition, path string) (*workflow.Workflow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	defer f.Close()
	w, err := workflow.LoadJSON(f)
	if err != nil {
		return nil, err
	}
	sources, err := w.SourceFiles()
	if err != nil {
		return nil, err
	}
	for _, src := range sources {
		size := w.SourceSize(src)
		if size <= 0 {
			return nil, fmt.Errorf("scenario: workflow %s: source file %s: no task states its size (use \"bytes\")", w.Name, src)
		}
		if err := createInput(sim, part, src, size); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// dirtyAssertHosts lists hosts named by all-dirty-flushed assertions, in
// first-appearance order, deduplicated.
func dirtyAssertHosts(d *Doc) []string {
	var out []string
	seen := map[string]bool{}
	for _, a := range d.Assertions {
		if a.Kind == AssertAllDirtyFlushed && !seen[a.Host] {
			seen[a.Host] = true
			out = append(out, a.Host)
		}
	}
	return out
}

func createInput(sim *engine.Simulation, part *storage.Partition, name string, size int64) error {
	// A warm-start restore may have created this input already (at its
	// warmed size); keep that copy.
	if _, ok := part.Lookup(name); ok {
		return sim.NS.Place(name, part)
	}
	if _, err := part.CreateSized(name, size); err != nil {
		return fmt.Errorf("scenario: creating input %s: %w", name, err)
	}
	return sim.NS.Place(name, part)
}

// instanceKey names instance i of workload name in Result.WorkloadErrs.
func instanceKey(name string, i int) string { return name + "[" + strconv.Itoa(i) + "]" }

// evaluate runs every assertion (plus the implicit completion assertions)
// against the finished simulation.
func evaluate(d *Doc, plat *engine.Platform, groups map[string]*cgroup.Group, res *Result) []AssertionResult {
	var out []AssertionResult
	add := func(desc string, ok bool, detail string, args ...any) {
		out = append(out, AssertionResult{Desc: desc, OK: ok, Detail: fmt.Sprintf(detail, args...)})
	}
	wlErr := func(name string) (failures int, instances int, first error) {
		for _, w := range d.Workloads {
			if w.Name != name {
				continue
			}
			n := w.Instances
			if n == 0 {
				n = 1
			}
			for i := 0; i < n; i++ {
				instances++
				if err := res.WorkloadErrs[instanceKey(name, i)]; err != nil {
					failures++
					if first == nil {
						first = err
					}
				}
			}
		}
		return
	}

	// Implicit: workloads not named in a completed/failed assertion must
	// complete — an unexpected error is never silent.
	expected := map[string]bool{}
	for _, a := range d.Assertions {
		if a.Kind == AssertCompleted || a.Kind == AssertFailed {
			expected[a.Workload] = true
		}
	}
	for _, w := range d.Workloads {
		if expected[w.Name] {
			continue
		}
		failures, n, first := wlErr(w.Name)
		if failures == 0 {
			add("completed "+w.Name, true, "%d/%d instances", n, n)
		} else {
			add("completed "+w.Name, false, "%v", first)
		}
	}

	for _, a := range d.Assertions {
		switch a.Kind {
		case AssertMakespanBelow:
			add(fmt.Sprintf("makespan-below %gs", a.Seconds), res.Makespan <= a.Seconds,
				"makespan %.6gs", res.Makespan)
		case AssertMakespanAbove:
			add(fmt.Sprintf("makespan-above %gs", a.Seconds), res.Makespan >= a.Seconds,
				"makespan %.6gs", res.Makespan)
		case AssertMinReadHitRatio:
			ratio := res.ReadHitRatio(a.Host)
			add(fmt.Sprintf("min-read-hit-ratio %s >= %g", a.Host, a.Ratio), ratio >= a.Ratio,
				"ratio %.4f", ratio)
		case AssertAllDirtyFlushed:
			dirty := plat.Hosts[a.Host].Model.Snapshot().Dirty
			for _, g := range d.Cgroups {
				if g.Host == a.Host {
					dirty += groups[g.Name].Manager().Dirty()
				}
			}
			add("all-dirty-flushed "+a.Host, dirty == 0, "dirty %d B after sync", dirty)
		case AssertNoDataLoss:
			var lost int64
			for _, m := range d.Mounts {
				if m.Partition == a.Partition {
					if r := plat.Hosts[m.Client].Remote(plat.Partitions[m.Partition]); r != nil {
						lost += r.LostWriteBytes()
					}
				}
			}
			add("no-data-loss "+a.Partition, lost == 0, "lost %d B", lost)
		case AssertCompleted:
			failures, n, first := wlErr(a.Workload)
			if failures == 0 {
				add("completed "+a.Workload, true, "%d/%d instances", n, n)
			} else {
				add("completed "+a.Workload, false, "%v", first)
			}
		case AssertFailed:
			failures, n, first := wlErr(a.Workload)
			if failures > 0 {
				add("failed "+a.Workload, true, "%d/%d instances failed: %v", failures, n, first)
			} else {
				add("failed "+a.Workload, false, "all %d instances completed", n)
			}
		case AssertMaxForcedEvict:
			var forced int64
			if mp, ok := plat.Hosts[a.Host].Model.(engine.ManagerProvider); ok {
				forced = mp.Manager().ForcedEvictions
			}
			add(fmt.Sprintf("max-forced-evictions %s <= %d", a.Host, a.Count), forced <= a.Count,
				"forced %d", forced)
		case AssertMaxDevThrottle:
			throttled, found := -1.0, false
			if mp, ok := plat.Hosts[a.Host].Model.(engine.ManagerProvider); ok {
				for _, st := range mp.Manager().DomainStats() {
					if st.Dev == a.Device {
						throttled, found = st.WriteThrottledSeconds, true
					}
				}
			}
			add(fmt.Sprintf("max-device-throttle %s/%s <= %gs", a.Host, a.Device, a.Seconds),
				found && throttled <= a.Seconds, "throttled %.6gs", throttled)
		}
	}
	return out
}
