// Package scenario is the declarative front door to the simulator: a JSON
// document describes a platform (reusing the platform.Config schema), NFS
// mounts, cgroups, pre-existing files, a workload mix, a chaos stanza of
// timed faults (see internal/chaos), and end-of-run assertions — makespan
// bounds, read-hit-ratio floors, all-dirty-flushed, no-data-loss,
// per-workload completion. Load validates fail-fast in the platform-config
// style; Run maps the document onto an engine.Simulation and evaluates the
// assertions into a deterministic report, so fault scenarios double as
// regression tests (`pcsim -scenario file.json`).
//
// Workload kinds are the paper's synthetic pipeline, the Nighres workflow,
// the repeated-iteration pipeline ("iterative", the fast-forward target;
// RunOpts.FastForward arms the engine's phase detection) and any JSON task
// DAG ("workflow", from a workflowFile). An omitted "cpuS" gives the
// synthetic and iterative kinds the Table I CPU fit; "cpuS": 0 given
// explicitly means no compute.
//
// Run is the simulator's one run path for single simulations: pcsim's
// flag modes compile to a Doc and run through it too.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/nfs"
	"repro/internal/platform"
	"repro/internal/units"
)

// Doc is one scenario document. Platform may be given inline ("platform")
// or by reference ("platformFile", resolved relative to the scenario file);
// exactly one is required.
type Doc struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	Platform     *platform.Config `json:"platform,omitempty"`
	PlatformFile string           `json:"platformFile,omitempty"`

	// Mode is the cache model for every host: cacheless, writeback
	// (default), writethrough or directio.
	Mode string `json:"mode,omitempty"`
	// Chunk is the I/O granularity (default "100MB").
	Chunk string `json:"chunk,omitempty"`
	// DirtyRatio overrides vm.dirty_ratio on every host when > 0.
	DirtyRatio float64 `json:"dirtyRatio,omitempty"`
	// DirtyExpireS, when given, overrides every host's dirty expiry age in
	// seconds (omitted: 30 s).
	DirtyExpireS *float64 `json:"dirtyExpireS,omitempty"`
	// TraceMemS samples every host's memory accounting at this period
	// (0: no memory trace).
	TraceMemS float64 `json:"traceMemS,omitempty"`

	Mounts     []MountDoc     `json:"mounts,omitempty"`
	Cgroups    []CgroupDoc    `json:"cgroups,omitempty"`
	Files      []FileDoc      `json:"files,omitempty"`
	Warmup     *WarmupDoc     `json:"warmup,omitempty"`
	Workloads  []WorkloadDoc  `json:"workloads"`
	Chaos      *ChaosDoc      `json:"chaos,omitempty"`
	Assertions []AssertionDoc `json:"assertions,omitempty"`
}

// WarmupDoc warm-starts the run's caches before any main workload spawns.
// Exactly one of the two forms is required: "snapshotFile" restores a cache
// snapshot written by `pcsim -snapshot-out` (resolved relative to the
// scenario file), while "workloads" runs the listed workloads in a separate
// throwaway simulation of the same platform and carries its final cache
// state over. Either way the restored block timestamps are rebased to the
// main run's t=0 and the cache counters are reset, so assertions measure the
// main run only. Backing files the warm cache refers to are created before
// the main run's own file setup; workloads whose writes append to those
// files see them at their warmed size (the nighres workflow reads fixed byte
// counts and is unaffected; synthetic whole-file re-reads grow).
type WarmupDoc struct {
	SnapshotFile string        `json:"snapshotFile,omitempty"`
	Workloads    []WorkloadDoc `json:"workloads,omitempty"`
}

// MountDoc mounts a server partition on a client host over a link, in the
// paper's Exp 3 style: optional shared server read cache, writethrough
// server persistence, no client write cache.
type MountDoc struct {
	Client    string `json:"client"`
	Partition string `json:"partition"`
	Link      string `json:"link"`
	// ServerCache gives the server a page cache (shared by every mount of
	// the same partition), sized to the server host's RAM.
	ServerCache bool `json:"serverCache,omitempty"`
	// ServerWriteback makes the server cache writeback instead of the
	// paper's writethrough.
	ServerWriteback bool `json:"serverWriteback,omitempty"`
	// ClientWriteCache routes client writes through the client page cache.
	ClientWriteCache bool `json:"clientWriteCache,omitempty"`
	// Retry is the mount's behavior while the server is down (nil: Linux
	// hard mount — stall until recovery).
	Retry *RetryDoc `json:"retry,omitempty"`
}

// RetryDoc tunes a mount's failure handling (see nfs.RetryConfig; zero
// fields take the nfs defaults).
type RetryDoc struct {
	// Policy is hard (default), backoff, or error.
	Policy        string  `json:"policy,omitempty"`
	TimeoutS      float64 `json:"timeoutS,omitempty"`
	BackoffFactor float64 `json:"backoffFactor,omitempty"`
	MaxBackoffS   float64 `json:"maxBackoffS,omitempty"`
	MaxRetries    int     `json:"maxRetries,omitempty"`
}

// Config converts the document to an nfs.RetryConfig.
func (r *RetryDoc) Config() (nfs.RetryConfig, error) {
	if r == nil {
		return nfs.RetryConfig{}, nil
	}
	pol, err := nfs.ParseRetryPolicy(r.Policy)
	if err != nil {
		return nfs.RetryConfig{}, err
	}
	return nfs.RetryConfig{
		Policy: pol, TimeoutS: r.TimeoutS, BackoffFactor: r.BackoffFactor,
		MaxBackoffS: r.MaxBackoffS, MaxRetries: r.MaxRetries,
	}, nil
}

// CgroupDoc creates a memory cgroup on a host. Workloads join it by name.
type CgroupDoc struct {
	Host  string `json:"host"`
	Name  string `json:"name"`
	Limit string `json:"limit"` // e.g. "10GiB"
	// CachePolicy / WritebackPolicy override the group's private policies
	// (empty: the host's).
	CachePolicy     string `json:"cachePolicy,omitempty"`
	WritebackPolicy string `json:"writebackPolicy,omitempty"`
}

// FileDoc pre-creates a file on a partition before the run.
type FileDoc struct {
	Name      string `json:"name"`
	Partition string `json:"partition"`
	Size      string `json:"size"`
}

// WorkloadDoc places instances of a workload primitive on a host. Instance
// indices are assigned globally in document order, so file names
// (app<i>_file<j>) never collide across workloads.
type WorkloadDoc struct {
	Name string `json:"name"`
	Host string `json:"host"`
	// Kind is synthetic (the paper's three-task pipeline), nighres (the
	// Table II workflow), iterative (the repeated-iteration pipeline: read
	// the input, compute, rewrite a scratch output, Iterations times) or
	// workflow (the task DAG of WorkflowFile).
	Kind string `json:"kind"`
	// Partition receives the workload's writes (a local partition or a
	// mounted remote one).
	Partition string `json:"partition"`
	// Instances is the number of concurrent copies (default 1).
	Instances int `json:"instances,omitempty"`
	// Size is the per-file size (required for synthetic and iterative).
	Size string `json:"size,omitempty"`
	// CPUS is the injected CPU seconds per synthetic task or iteration
	// (omitted: the Table I fit; 0: no compute).
	CPUS *float64 `json:"cpuS,omitempty"`
	// Iterations is the iterative pipeline's iteration count (required for
	// iterative).
	Iterations int `json:"iterations,omitempty"`
	// WorkflowFile is the workflow kind's JSON task DAG (see
	// workflow.LoadJSON), resolved relative to the scenario file. Source
	// files are created on Partition, sized by the largest partial read a
	// task requests.
	WorkflowFile string `json:"workflowFile,omitempty"`
	// Cgroup places the workload in a cgroup on its host.
	Cgroup string `json:"cgroup,omitempty"`
	// StartS delays the workload's start.
	StartS float64 `json:"startS,omitempty"`
}

// ChaosDoc is the fault-injection stanza: explicit timed events and/or a
// seeded random draw from a menu. Omitting it entirely leaves the run
// bit-identical to a chaos-free simulation.
type ChaosDoc struct {
	// Seed drives the random stanza (and is what `pcsim -chaos-seed`
	// overrides).
	Seed   int64      `json:"seed,omitempty"`
	Events []EventDoc `json:"events,omitempty"`
	Random *RandomDoc `json:"random,omitempty"`
}

// EventDoc is one timed fault. Targets are names registered by the runner:
// disks by config name (or "host/disk"), links by name, NFS servers by
// partition name, host caches by host name, server caches by
// "<partition>.server-cache", cgroup caches and limits by group name.
type EventDoc struct {
	AtS    float64 `json:"atS"`
	Kind   string  `json:"kind"`
	Target string  `json:"target"`
	Factor float64 `json:"factor,omitempty"`
	DurS   float64 `json:"durS,omitempty"`
	Bytes  string  `json:"bytes,omitempty"` // balloon size / cgroup limit
}

// Event converts the document form (human-readable byte sizes) to a
// chaos.Event.
func (e EventDoc) Event() (chaos.Event, error) {
	var bytes int64
	if e.Bytes != "" {
		var err error
		bytes, err = units.ParseBytes(e.Bytes)
		if err != nil {
			return chaos.Event{}, fmt.Errorf("scenario: chaos %s %q: bad bytes: %v", e.Kind, e.Target, err)
		}
	}
	return chaos.Event{
		At: e.AtS, Kind: e.Kind, Target: e.Target,
		Factor: e.Factor, DurS: e.DurS, Bytes: bytes,
	}, nil
}

// RandomDoc draws Count events uniformly from Menu over [StartS, EndS),
// deterministically from the chaos seed.
type RandomDoc struct {
	Count  int        `json:"count"`
	StartS float64    `json:"startS,omitempty"`
	EndS   float64    `json:"endS"`
	Menu   []EventDoc `json:"menu"`
}

// AssertionDoc is one end-of-run check. Kinds and their parameters:
//
//	makespan-below / makespan-above  — "seconds"
//	min-read-hit-ratio               — "host", "ratio" in [0,1]
//	all-dirty-flushed                — "host" (sync runs first; the host's
//	                                   cache and its cgroups must drain)
//	no-data-loss                     — "partition" (a mounted one; no dirty
//	                                   server bytes lost to restarts)
//	completed / failed               — "workload" (every instance finished /
//	                                   at least one instance errored)
//	max-forced-evictions             — "host", "count"
//	max-device-throttle              — "host", "device", "seconds" (the host
//	                                   must set perDeviceWriteback; writers of
//	                                   the device's writeback domain spent at
//	                                   most that long throttled)
//
// Workloads not named in any completed/failed assertion are implicitly
// asserted to complete.
type AssertionDoc struct {
	Kind      string  `json:"kind"`
	Seconds   float64 `json:"seconds,omitempty"`
	Host      string  `json:"host,omitempty"`
	Device    string  `json:"device,omitempty"`
	Ratio     float64 `json:"ratio,omitempty"`
	Partition string  `json:"partition,omitempty"`
	Workload  string  `json:"workload,omitempty"`
	Count     int64   `json:"count,omitempty"`
}

// Assertion kinds.
const (
	AssertMakespanBelow   = "makespan-below"
	AssertMakespanAbove   = "makespan-above"
	AssertMinReadHitRatio = "min-read-hit-ratio"
	AssertAllDirtyFlushed = "all-dirty-flushed"
	AssertNoDataLoss      = "no-data-loss"
	AssertCompleted       = "completed"
	AssertFailed          = "failed"
	AssertMaxForcedEvict  = "max-forced-evictions"
	AssertMaxDevThrottle  = "max-device-throttle"
)

// Load reads, resolves and validates a scenario file. A platformFile
// reference is loaded into Platform (and cleared), and snapshotFile and
// workflowFile paths are made relative to the scenario file's directory.
func Load(path string) (*Doc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	defer f.Close()
	return LoadReader(f, filepath.Dir(path))
}

// LoadReader parses a scenario from r, resolving platformFile,
// snapshotFile and workflowFile against baseDir, and validates it.
func LoadReader(r io.Reader, baseDir string) (*Doc, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var d Doc
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("scenario: parsing: %w", err)
	}
	if d.PlatformFile != "" {
		if d.Platform != nil {
			return nil, fmt.Errorf("scenario: give either platform or platformFile, not both")
		}
		pf, err := os.Open(filepath.Join(baseDir, d.PlatformFile))
		if err != nil {
			return nil, fmt.Errorf("scenario: platformFile: %v", err)
		}
		defer pf.Close()
		cfg, err := platform.LoadConfig(pf)
		if err != nil {
			return nil, err
		}
		d.Platform, d.PlatformFile = cfg, ""
	}
	resolve := func(path *string) {
		if *path != "" && !filepath.IsAbs(*path) {
			*path = filepath.Join(baseDir, *path)
		}
	}
	for i := range d.Workloads {
		resolve(&d.Workloads[i].WorkflowFile)
	}
	if d.Warmup != nil {
		resolve(&d.Warmup.SnapshotFile)
		for i := range d.Warmup.Workloads {
			resolve(&d.Warmup.Workloads[i].WorkflowFile)
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// parseMode maps the document spelling to an engine mode; it is the repo's
// one mode-name parser.
func parseMode(s string) (engine.Mode, error) {
	switch s {
	case "", "writeback":
		return engine.ModeWriteback, nil
	case "cacheless":
		return engine.ModeCacheless, nil
	case "writethrough":
		return engine.ModeWritethrough, nil
	case "directio":
		return engine.ModeDirectIO, nil
	}
	return 0, fmt.Errorf("scenario: unknown mode %q", s)
}

// Validate checks the document for structural errors, fail-fast with the
// first problem found. Chaos targets are resolved later, when the runner
// has built its registries.
func (d *Doc) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if d.Platform == nil {
		return fmt.Errorf("scenario: %s: needs a platform (inline or platformFile)", d.Name)
	}
	if err := d.Platform.Validate(); err != nil {
		return err
	}
	if _, err := parseMode(d.Mode); err != nil {
		return err
	}
	if d.Chunk != "" {
		if _, err := units.ParseBytes(d.Chunk); err != nil {
			return fmt.Errorf("scenario: %s: bad chunk: %v", d.Name, err)
		}
	}
	if d.DirtyRatio < 0 || d.DirtyRatio > 1 {
		return fmt.Errorf("scenario: %s: dirtyRatio must be in [0,1]", d.Name)
	}
	if d.DirtyExpireS != nil && *d.DirtyExpireS < 0 {
		return fmt.Errorf("scenario: %s: negative dirtyExpireS", d.Name)
	}
	for _, h := range d.Platform.Hosts {
		cfg, err := d.hostCacheConfig(h.Name)
		if err == nil {
			err = cfg.Validate()
		}
		if err != nil {
			return fmt.Errorf("scenario: %s: host %q: %w", d.Name, h.Name, err)
		}
	}
	if d.TraceMemS < 0 {
		return fmt.Errorf("scenario: %s: negative traceMemS", d.Name)
	}

	hosts := map[string]bool{}
	partOwner := map[string]string{} // partition -> host
	perDevHosts := map[string]bool{} // hosts with perDeviceWriteback
	hostDisks := map[string]bool{}   // "host/disk"
	links := map[string]bool{}
	for _, h := range d.Platform.Hosts {
		hosts[h.Name] = true
		perDevHosts[h.Name] = h.PerDeviceWriteback
		for _, dk := range h.Disks {
			partOwner[dk.Partition] = h.Name
			hostDisks[h.Name+"/"+dk.Name] = true
		}
	}
	for _, l := range d.Platform.Links {
		links[l.Name] = true
	}

	mounted := map[string]bool{} // client "/" partition
	for _, m := range d.Mounts {
		if !hosts[m.Client] {
			return fmt.Errorf("scenario: mount: unknown client host %q", m.Client)
		}
		owner, ok := partOwner[m.Partition]
		if !ok {
			return fmt.Errorf("scenario: mount: unknown partition %q", m.Partition)
		}
		if owner == m.Client {
			return fmt.Errorf("scenario: mount: partition %q is local to %q", m.Partition, m.Client)
		}
		if !links[m.Link] {
			return fmt.Errorf("scenario: mount: unknown link %q", m.Link)
		}
		key := m.Client + "/" + m.Partition
		if mounted[key] {
			return fmt.Errorf("scenario: duplicate mount of %q on %q", m.Partition, m.Client)
		}
		mounted[key] = true
		if _, err := m.Retry.Config(); err != nil {
			return fmt.Errorf("scenario: mount %q on %q: %w", m.Partition, m.Client, err)
		}
	}

	groups := map[string]bool{}
	for _, g := range d.Cgroups {
		if g.Name == "" {
			return fmt.Errorf("scenario: cgroup with empty name")
		}
		if groups[g.Name] {
			return fmt.Errorf("scenario: duplicate cgroup %q", g.Name)
		}
		groups[g.Name] = true
		if !hosts[g.Host] {
			return fmt.Errorf("scenario: cgroup %q: unknown host %q", g.Name, g.Host)
		}
		if n, err := units.ParseBytes(g.Limit); err != nil || n <= 0 {
			return fmt.Errorf("scenario: cgroup %q: bad limit %q", g.Name, g.Limit)
		}
	}

	files := map[string]bool{}
	for _, f := range d.Files {
		if f.Name == "" {
			return fmt.Errorf("scenario: file with empty name")
		}
		if files[f.Name] {
			return fmt.Errorf("scenario: duplicate file %q", f.Name)
		}
		files[f.Name] = true
		if _, ok := partOwner[f.Partition]; !ok {
			return fmt.Errorf("scenario: file %q: unknown partition %q", f.Name, f.Partition)
		}
		if n, err := units.ParseBytes(f.Size); err != nil || n <= 0 {
			return fmt.Errorf("scenario: file %q: bad size %q", f.Name, f.Size)
		}
	}

	if len(d.Workloads) == 0 {
		return fmt.Errorf("scenario: %s: no workloads", d.Name)
	}
	wlNames := map[string]bool{}
	for _, w := range d.Workloads {
		if err := validateWorkload(w, "workload", hosts, partOwner, mounted, groups, wlNames); err != nil {
			return err
		}
	}

	if wu := d.Warmup; wu != nil {
		if (wu.SnapshotFile != "") == (len(wu.Workloads) > 0) {
			return fmt.Errorf("scenario: %s: warmup needs exactly one of snapshotFile or workloads", d.Name)
		}
		warmNames := map[string]bool{}
		for _, w := range wu.Workloads {
			if err := validateWorkload(w, "warmup workload", hosts, partOwner, mounted, groups, warmNames); err != nil {
				return err
			}
		}
	}

	if c := d.Chaos; c != nil {
		for _, e := range c.Events {
			if err := validateEventDoc(e); err != nil {
				return err
			}
		}
		if r := c.Random; r != nil {
			if r.Count <= 0 {
				return fmt.Errorf("scenario: chaos random: count must be positive")
			}
			if r.EndS <= r.StartS || r.StartS < 0 {
				return fmt.Errorf("scenario: chaos random: bad window [%g, %g)", r.StartS, r.EndS)
			}
			if len(r.Menu) == 0 {
				return fmt.Errorf("scenario: chaos random: empty menu")
			}
			for _, e := range r.Menu {
				if err := validateEventDoc(e); err != nil {
					return err
				}
			}
		}
	}

	for _, a := range d.Assertions {
		switch a.Kind {
		case AssertMakespanBelow, AssertMakespanAbove:
			if a.Seconds <= 0 {
				return fmt.Errorf("scenario: assertion %s: seconds must be positive", a.Kind)
			}
		case AssertMinReadHitRatio:
			if !hosts[a.Host] {
				return fmt.Errorf("scenario: assertion %s: unknown host %q", a.Kind, a.Host)
			}
			if a.Ratio < 0 || a.Ratio > 1 {
				return fmt.Errorf("scenario: assertion %s: ratio must be in [0,1]", a.Kind)
			}
		case AssertAllDirtyFlushed:
			if !hosts[a.Host] {
				return fmt.Errorf("scenario: assertion %s: unknown host %q", a.Kind, a.Host)
			}
		case AssertNoDataLoss:
			if _, ok := partOwner[a.Partition]; !ok {
				return fmt.Errorf("scenario: assertion %s: unknown partition %q", a.Kind, a.Partition)
			}
		case AssertCompleted, AssertFailed:
			if !wlNames[a.Workload] {
				return fmt.Errorf("scenario: assertion %s: unknown workload %q", a.Kind, a.Workload)
			}
		case AssertMaxForcedEvict:
			if !hosts[a.Host] {
				return fmt.Errorf("scenario: assertion %s: unknown host %q", a.Kind, a.Host)
			}
			if a.Count < 0 {
				return fmt.Errorf("scenario: assertion %s: negative count", a.Kind)
			}
		case AssertMaxDevThrottle:
			if !hosts[a.Host] {
				return fmt.Errorf("scenario: assertion %s: unknown host %q", a.Kind, a.Host)
			}
			if !hostDisks[a.Host+"/"+a.Device] {
				return fmt.Errorf("scenario: assertion %s: host %q has no disk %q", a.Kind, a.Host, a.Device)
			}
			if !perDevHosts[a.Host] {
				return fmt.Errorf("scenario: assertion %s: host %q does not set perDeviceWriteback", a.Kind, a.Host)
			}
			if a.Seconds < 0 {
				return fmt.Errorf("scenario: assertion %s: negative seconds", a.Kind)
			}
		default:
			return fmt.Errorf("scenario: unknown assertion kind %q", a.Kind)
		}
	}
	return nil
}

// validateWorkload checks one workload entry against the platform maps,
// recording its name in seen for duplicate detection. where names the stanza
// ("workload" or "warmup workload") in error messages.
func validateWorkload(w WorkloadDoc, where string, hosts map[string]bool, partOwner map[string]string, mounted, groups, seen map[string]bool) error {
	if w.Name == "" {
		return fmt.Errorf("scenario: %s with empty name", where)
	}
	if seen[w.Name] {
		return fmt.Errorf("scenario: duplicate %s %q", where, w.Name)
	}
	seen[w.Name] = true
	if !hosts[w.Host] {
		return fmt.Errorf("scenario: %s %q: unknown host %q", where, w.Name, w.Host)
	}
	if _, ok := partOwner[w.Partition]; !ok {
		return fmt.Errorf("scenario: %s %q: unknown partition %q", where, w.Name, w.Partition)
	}
	if partOwner[w.Partition] != w.Host && !mounted[w.Host+"/"+w.Partition] {
		return fmt.Errorf("scenario: %s %q: partition %q is not local to %q and not mounted",
			where, w.Name, w.Partition, w.Host)
	}
	switch w.Kind {
	case "synthetic", "iterative":
		if n, err := units.ParseBytes(w.Size); err != nil || n <= 0 {
			return fmt.Errorf("scenario: %s %q: %s needs a size", where, w.Name, w.Kind)
		}
		if w.Kind == "iterative" && w.Iterations <= 0 {
			return fmt.Errorf("scenario: %s %q: iterative needs a positive iterations", where, w.Name)
		}
	case "nighres":
	case "workflow":
		if w.WorkflowFile == "" {
			return fmt.Errorf("scenario: %s %q: workflow needs a workflowFile", where, w.Name)
		}
	default:
		return fmt.Errorf("scenario: %s %q: unknown kind %q (want synthetic, nighres, iterative or workflow)", where, w.Name, w.Kind)
	}
	if w.Instances < 0 {
		return fmt.Errorf("scenario: %s %q: negative instances", where, w.Name)
	}
	if w.CPUS != nil && *w.CPUS < 0 {
		return fmt.Errorf("scenario: %s %q: negative cpuS", where, w.Name)
	}
	if w.StartS < 0 {
		return fmt.Errorf("scenario: %s %q: negative startS", where, w.Name)
	}
	if w.Cgroup != "" && !groups[w.Cgroup] {
		return fmt.Errorf("scenario: %s %q: unknown cgroup %q", where, w.Name, w.Cgroup)
	}
	return nil
}

func validateEventDoc(e EventDoc) error {
	if !chaos.KnownKind(e.Kind) {
		return fmt.Errorf("scenario: chaos: unknown event kind %q", e.Kind)
	}
	if e.Target == "" {
		return fmt.Errorf("scenario: chaos %s: missing target", e.Kind)
	}
	_, err := e.Event()
	return err
}
