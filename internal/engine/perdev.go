package engine

import (
	"fmt"

	"repro/internal/core"
)

// DiskWritebackKnobs are one disk's optional writeback-threshold overrides
// for per-device writeback (platform JSON: the disk's "dirtyRatio" and
// "dirtyBackgroundRatio" fields). Zero values mean "derive from the global
// ratios scaled by the disk's write-bandwidth share", Linux's default
// bandwidth-proportional bdi split.
type DiskWritebackKnobs struct {
	DirtyRatio           float64
	DirtyBackgroundRatio float64
}

// EnablePerDeviceWriteback adds one writeback domain per local disk to the
// host's cache, next to the default domain 0, which stays the cross-device
// backstop for files that live on no local disk (remote mounts, unplaced
// files). Each new domain gets its own dirty thresholds and its own flusher
// proc scheduled through the DES kernel, and every domain — domain 0
// included — gets writer-driven wakeups: a write crossing a domain's
// background threshold kicks that domain's flusher signal immediately
// instead of waiting out the FlushInterval poll.
//
// Must be called after the host's disks are attached and before the
// simulation runs; the host's model must be the engine's core.Manager-backed
// model (AddHost, NewCoreModel). knobs may be nil or name a subset of the
// disks. Strictly opt-in: hosts that never call this keep one domain, whose
// flusher never wakes early.
func (hr *HostRuntime) EnablePerDeviceWriteback(knobs map[string]DiskWritebackKnobs) error {
	cm, ok := hr.Model.(*coreModel)
	if !ok {
		return fmt.Errorf("engine: per-device writeback on %s: model has no core.Manager", hr.Host.Name())
	}
	if len(hr.disks) == 0 {
		return fmt.Errorf("engine: per-device writeback on %s: host has no disks", hr.Host.Name())
	}
	m := cm.Manager()
	devs := make([]core.DomainConfig, 0, len(hr.disks))
	for _, dev := range hr.disks {
		dc := core.DomainConfig{Dev: dev.Name(), WriteBW: dev.Spec().WriteBW}
		if k, ok := knobs[dev.Name()]; ok {
			dc.DirtyRatio = k.DirtyRatio
			dc.DirtyBackgroundRatio = k.DirtyBackgroundRatio
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
