package scenario

import (
	"fmt"
	"sort"

	"repro/internal/cgroup"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/snapshot"
)

// applyWarmup warm-starts the main run's caches from the document's warmup
// stanza: either a snapshot file written earlier, or the final cache state
// of a throwaway run of the warmup workloads on the same platform. Called
// before any main-run file or workload setup, while every manager is still
// empty.
func applyWarmup(d *Doc, sim *engine.Simulation, plat *engine.Platform, groups map[string]*cgroup.Group, srvMgrs map[string]*core.Manager) error {
	var snap *snapshot.File
	if d.Warmup.SnapshotFile != "" {
		var err error
		snap, err = snapshot.ReadFile(d.Warmup.SnapshotFile)
		if err != nil {
			return fmt.Errorf("scenario: warmup: %w", err)
		}
	} else {
		warm := &Doc{
			Name:         d.Name + " (warmup)",
			Platform:     d.Platform,
			Mode:         d.Mode,
			Chunk:        d.Chunk,
			DirtyRatio:   d.DirtyRatio,
			DirtyExpireS: d.DirtyExpireS,
			Mounts:       d.Mounts,
			Cgroups:      d.Cgroups,
			Files:        d.Files,
			Workloads:    d.Warmup.Workloads,
		}
		wres, err := Run(warm, RunOpts{})
		if err != nil {
			return fmt.Errorf("scenario: warmup run: %w", err)
		}
		if werr := wres.WorkloadErr(); werr != nil {
			return fmt.Errorf("scenario: warmup %v", werr)
		}
		snap, err = wres.SnapshotState()
		if err != nil {
			return err
		}
	}
	return restoreSnapshot(sim, plat, groups, srvMgrs, snap)
}

// restoreSnapshot loads a cache snapshot into the simulation's managers:
// backing files are recreated first (so restored dirty blocks always have a
// flush target), then each recorded manager state is restored into its
// still-empty counterpart, rebased to the main run's t=0, with the cache
// counters zeroed so assertions measure the main run only.
func restoreSnapshot(sim *engine.Simulation, plat *engine.Platform, groups map[string]*cgroup.Group, srvMgrs map[string]*core.Manager, snap *snapshot.File) error {
	for _, fm := range snap.Files {
		part, ok := plat.Partitions[fm.Partition]
		if !ok {
			return fmt.Errorf("scenario: warmup: snapshot references unknown partition %q", fm.Partition)
		}
		if _, exists := part.Lookup(fm.Name); !exists {
			if _, err := part.CreateSized(fm.Name, fm.Size); err != nil {
				return fmt.Errorf("scenario: warmup: recreating %s: %w", fm.Name, err)
			}
		}
		if err := sim.NS.Place(fm.Name, part); err != nil {
			return fmt.Errorf("scenario: warmup: %w", err)
		}
	}

	restore := func(kind, name string, mgr *core.Manager, st *core.ManagerState) error {
		// Warm-start carries cache contents, not history: counters belong
		// to the run that produced the snapshot.
		cp := *st
		cp.ReadHits, cp.ReadMisses, cp.FlushedBytes = 0, 0, 0
		cp.ThrottledSec, cp.ForcedEvictions = 0, 0
		cp.Domains = append([]core.DomainSnapshot(nil), st.Domains...)
		for i := range cp.Domains {
			cp.Domains[i].FlushedBytes, cp.Domains[i].ThrottledSec = 0, 0
		}
		if err := mgr.RestoreState(&cp); err != nil {
			return fmt.Errorf("scenario: warmup: restoring %s %q: %w", kind, name, err)
		}
		mgr.ShiftTimes(-snap.SavedAtSimS)
		return nil
	}
	for _, name := range sortedStateKeys(snap.Hosts) {
		hr, ok := plat.Hosts[name]
		if !ok {
			return fmt.Errorf("scenario: warmup: snapshot references unknown host %q", name)
		}
		mp, ok := hr.Model.(engine.ManagerProvider)
		if !ok {
			return fmt.Errorf("scenario: warmup: host %q has no page cache to restore into", name)
		}
		if err := restore("host", name, mp.Manager(), snap.Hosts[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedStateKeys(snap.Cgroups) {
		grp, ok := groups[name]
		if !ok {
			return fmt.Errorf("scenario: warmup: snapshot references unknown cgroup %q", name)
		}
		if err := restore("cgroup", name, grp.Manager(), snap.Cgroups[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedStateKeys(snap.Servers) {
		mgr, ok := srvMgrs[name]
		if !ok {
			return fmt.Errorf("scenario: warmup: snapshot references unknown server cache %q", name)
		}
		if err := restore("server cache", name, mgr, snap.Servers[name]); err != nil {
			return err
		}
	}
	return nil
}

// SnapshotState captures the finished run's complete cache state — host,
// cgroup and NFS-server managers plus the backing files their blocks refer
// to — as a snapshot document, in the deterministic order hosts, cgroups,
// servers (names sorted within each). Cacheless hosts have no state and are
// left out. pcsim -snapshot-out writes it; a warmup stanza reads it back.
func (r *Result) SnapshotState() (*snapshot.File, error) {
	f := &snapshot.File{Version: snapshot.Version, SavedAtSimS: r.Makespan}
	seen := map[string]bool{}
	addFiles := func(st *core.ManagerState) error {
		for _, l := range st.Lists {
			for _, b := range l.Blocks {
				if seen[b.File] {
					continue
				}
				seen[b.File] = true
				part, err := r.Sim.NS.Locate(b.File)
				if err != nil {
					return fmt.Errorf("scenario: snapshot: %w", err)
				}
				fl, ok := part.Lookup(b.File)
				if !ok {
					return fmt.Errorf("scenario: snapshot: cached file %s missing from %s", b.File, part.Name())
				}
				f.Files = append(f.Files, snapshot.FileMeta{Name: b.File, Partition: part.Name(), Size: fl.Size})
			}
		}
		return nil
	}

	hostNames := make([]string, 0, len(r.Hosts))
	for name := range r.Hosts {
		hostNames = append(hostNames, name)
	}
	sort.Strings(hostNames)
	for _, name := range hostNames {
		mp, ok := r.Hosts[name].Model.(engine.ManagerProvider)
		if !ok {
			continue // cacheless hosts have no state worth carrying
		}
		st := mp.Manager().SnapshotState()
		if f.Hosts == nil {
			f.Hosts = map[string]*core.ManagerState{}
		}
		f.Hosts[name] = st
		if err := addFiles(st); err != nil {
			return nil, err
		}
	}
	groupNames := make([]string, 0, len(r.groups))
	for name := range r.groups {
		groupNames = append(groupNames, name)
	}
	sort.Strings(groupNames)
	for _, name := range groupNames {
		st := r.groups[name].Manager().SnapshotState()
		if f.Cgroups == nil {
			f.Cgroups = map[string]*core.ManagerState{}
		}
		f.Cgroups[name] = st
		if err := addFiles(st); err != nil {
			return nil, err
		}
	}
	srvNames := make([]string, 0, len(r.SrvMgrs))
	for name := range r.SrvMgrs {
		srvNames = append(srvNames, name)
	}
	sort.Strings(srvNames)
	for _, name := range srvNames {
		st := r.SrvMgrs[name].SnapshotState()
		if f.Servers == nil {
			f.Servers = map[string]*core.ManagerState{}
		}
		f.Servers[name] = st
		if err := addFiles(st); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func sortedStateKeys(m map[string]*core.ManagerState) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
