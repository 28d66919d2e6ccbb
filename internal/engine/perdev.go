package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/platform"
)

// enablePerDeviceWriteback adds one writeback domain per local disk to the
// host's cache, next to the default domain 0, which stays the cross-device
// backstop for files that live on no local disk (remote mounts, unplaced
// files). Each new domain gets its own dirty thresholds and its own flusher
// proc scheduled through the DES kernel, and every domain — domain 0
// included — gets writer-driven wakeups: a write crossing a domain's
// background threshold kicks that domain's flusher signal immediately
// instead of waiting out the FlushInterval poll.
//
// BuildPlatform calls it for a host that sets perDeviceWriteback, after
// the host's disks are attached and so before any workload spawns; the
// host's model must be the engine's core.Manager-backed model. disks are
// the host's disk descriptions in attach order, or nil: a disk's nonzero
// "dirtyRatio"/"dirtyBackgroundRatio" override its domain's thresholds,
// which otherwise are the global ratios scaled by the disk's share of the
// host's disk write bandwidth (Linux's proportional bdi split). Strictly
// opt-in: other hosts keep one domain, whose flusher never wakes early.
func (hr *HostRuntime) enablePerDeviceWriteback(disks []platform.DiskConfig) error {
	cm, ok := hr.Model.(*coreModel)
	if !ok {
		return fmt.Errorf("engine: per-device writeback on %s: model has no core.Manager", hr.Host.Name())
	}
	if len(hr.disks) == 0 {
		return fmt.Errorf("engine: per-device writeback on %s: host has no disks", hr.Host.Name())
	}
	m := cm.Manager()
	devs := make([]core.DomainConfig, 0, len(hr.disks))
	for i, dev := range hr.disks {
		dc := core.DomainConfig{Dev: dev.Name(), WriteBW: dev.Spec().WriteBW}
		if i < len(disks) {
			dc.DirtyRatio = disks[i].DirtyRatio
			dc.DirtyBackgroundRatio = disks[i].DirtyBackgroundRatio
		}
		devs = append(devs, dc)
	}
	if err := m.ConfigureDomains(devs, hr.writebackDeviceOf); err != nil {
		return fmt.Errorf("engine: per-device writeback on %s: %w", hr.Host.Name(), err)
	}
	// Domain 0's flusher is the model's own "pdflush"; each device domain
	// gets its own proc. Each waits on its own signal so writers wake
	// exactly their device's flusher.
	if cm.flushSig != nil {
		m.SetDomainWake(0, cm.flushSig.Broadcast)
	}
	s := hr.sim
	running := func() bool { return s.running }
	for dom := 1; dom < m.DomainCount(); dom++ {
		sig := spawnFlusher(s.K, "pdflush-"+m.DomainDev(dom), hr.Caller, m, dom, running)
		m.SetDomainWake(dom, sig.Broadcast)
	}
	return nil
}

// writebackDeviceOf maps a file to the local device backing it — the bdi
// key of the host's writeback domains. Files on remote mounts or foreign
// partitions, and unplaced files, resolve to "" (the backstop domain):
// their dirty data is bounded by the global thresholds, as before.
func (hr *HostRuntime) writebackDeviceOf(file string) string {
	part, err := hr.sim.NS.Locate(file)
	if err != nil || hr.remotes[part] != nil || hr.sim.partHost[part] != hr {
		return ""
	}
	return hr.sim.NS.DeviceOf(file)
}
