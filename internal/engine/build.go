package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/linuxref"
	"repro/internal/platform"
	"repro/internal/storage"
)

// Platform is a realized platform.Config: hosts, partitions and links by
// name, ready for workload placement.
type Platform struct {
	Hosts      map[string]*HostRuntime
	Partitions map[string]*storage.Partition
	Links      map[string]*platform.Link
}

// BuildPlatform realizes a JSON platform description on the simulation. All
// hosts get the given cache mode and the cache configuration
// HostCacheConfig derives from each host's description, passed through tune
// (nil: unchanged) for run-wide overrides such as vm.dirty_ratio. Hosts
// with "perDeviceWriteback" get one writeback domain and flusher per disk
// (per-disk "dirtyRatio" / "dirtyBackgroundRatio" overriding the
// bandwidth-share split) with writer-driven wakeups; cacheless hosts ignore
// the flag. A host with model "linuxref" gets the reference stack instead,
// with the default kernel settings for its RAM and chunk as its read size;
// it runs in writeback mode only, and tune does not reach it.
func (s *Simulation) BuildPlatform(cfg *platform.Config, mode Mode, chunk int64, tune func(*core.Config)) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Platform{
		Hosts:      make(map[string]*HostRuntime),
		Partitions: make(map[string]*storage.Partition),
		Links:      make(map[string]*platform.Link),
	}
	for _, hc := range cfg.Hosts {
		spec, err := hc.HostSpec()
		if err != nil {
			return nil, err
		}
		var hr *HostRuntime
		if hc.Model == platform.ModelLinuxref {
			hr, err = s.addLinuxrefHost(spec, mode, chunk)
		} else {
			cacheCfg := HostCacheConfig(hc, spec.MemoryCap)
			if tune != nil {
				tune(&cacheCfg)
			}
			hr, err = s.AddHost(spec, mode, cacheCfg, chunk)
		}
		if err != nil {
			return nil, fmt.Errorf("engine: building host %s: %w", hc.Name, err)
		}
		p.Hosts[hc.Name] = hr
		for _, dc := range hc.Disks {
			dspec, capacity, err := dc.DeviceSpec()
			if err != nil {
				return nil, err
			}
			part, err := hr.AddDisk(dspec, dc.Partition, capacity)
			if err != nil {
				return nil, fmt.Errorf("engine: building disk %s: %w", dc.Name, err)
			}
			p.Partitions[dc.Partition] = part
		}
		if hc.PerDeviceWriteback && mode != ModeCacheless {
			if err := hr.enablePerDeviceWriteback(hc.Disks); err != nil {
				return nil, err
			}
		}
	}
	for _, lc := range cfg.Links {
		link, err := platform.NewLink(s.Sys, lc.LinkSpec())
		if err != nil {
			return nil, err
		}
		p.Links[lc.Name] = link
	}
	return p, nil
}

// addLinuxrefHost realizes spec with the linuxref reference model.
func (s *Simulation) addLinuxrefHost(spec platform.HostSpec, mode Mode, chunk int64) (*HostRuntime, error) {
	if mode != ModeWriteback {
		return nil, fmt.Errorf("model %s runs in writeback mode, not %v", platform.ModelLinuxref, mode)
	}
	cfg := linuxref.DefaultConfig(spec.MemoryCap)
	cfg.ReadChunk = chunk
	model, err := linuxref.New(cfg)
	if err != nil {
		return nil, err
	}
	return s.AddHostWithModel(spec, mode, model)
}

// HostCacheConfig is the page-cache configuration a host description
// implies: core.DefaultConfig of its RAM, the replacement policy from
// "cachePolicy" (empty: the default LRU), the writeback policy from
// "writebackPolicy" (empty: the paper's list order), the background
// writeback threshold from "dirtyBackgroundRatio" (0: disabled) and the
// open-write eviction protection from "evictExcludesOpenWrites".
func HostCacheConfig(hc platform.HostConfig, ram int64) core.Config {
	cfg := core.DefaultConfig(ram)
	cfg.Policy = hc.CachePolicy
	cfg.Writeback = hc.WritebackPolicy
	cfg.DirtyBackgroundRatio = hc.DirtyBackgroundRatio
	cfg.EvictExcludesOpenWrites = hc.EvictExcludesOpenWrites
	return cfg
}
