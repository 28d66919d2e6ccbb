package platform

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/units"
)

// Config is a JSON-loadable platform description (hosts with disks, plus
// network links), the role SimGrid's platform XML plays for WRENCH.
//
// Example:
//
//	{
//	  "hosts": [{
//	    "name": "node0", "cores": 32, "gflops": 1,
//	    "ram": "250GiB", "memReadMBps": 6860, "memWriteMBps": 2764,
//	    "cachePolicy": "lru",
//	    "disks": [{"name": "ssd0", "readMBps": 510, "writeMBps": 420,
//	               "capacity": "450GiB", "partition": "scratch"}]
//	  }],
//	  "links": [{"name": "net", "mbps": 3000}]
//	}
//
// "cachePolicy" selects the host's page-cache replacement policy by
// core policy name ("lru", "clock", "fifo", "lfu"; empty or omitted means
// the paper's two-list LRU), and "writebackPolicy" the dirty-flush order
// ("list-order", "oldest-first", "file-rr", "proportional"; empty or
// omitted means the paper's list order). Unknown names are rejected when
// the config is loaded, with the registered names listed.
// "dirtyBackgroundRatio" sets vm.dirty_background_ratio (0 or omitted:
// background writeback disabled, the paper's single-threshold model).
// "perDeviceWriteback" splits the host's writeback into per-disk domains —
// each disk gets its own dirty thresholds (scaled by its write-bandwidth
// share, or overridden by the disk's "dirtyRatio"/"dirtyBackgroundRatio"),
// its own flusher, and writer-driven wakeups — matching Linux's per-bdi
// flusher threads.
// "evictExcludesOpenWrites" keeps the blocks of files open for writing out
// of eviction (core.Config.EvictExcludesOpenWrites; the paper's model
// evicts them). "model" selects the host's cache model: omitted is the
// paper's block model, and "linuxref" is the reference stack of
// internal/linuxref, the repository's stand-in for the paper's real
// executions, which brings its own kernel policies and so takes none of
// the cache settings above.
type Config struct {
	Hosts []HostConfig `json:"hosts"`
	Links []LinkConfig `json:"links"`
}

// HostConfig describes one host.
type HostConfig struct {
	Name         string  `json:"name"`
	Cores        int     `json:"cores"`
	GFlops       float64 `json:"gflops"` // per core
	RAM          string  `json:"ram"`    // e.g. "250GiB"
	MemReadMBps  float64 `json:"memReadMBps"`
	MemWriteMBps float64 `json:"memWriteMBps"`
	CachePolicy  string  `json:"cachePolicy"` // page-cache policy ("" = default LRU)
	// WritebackPolicy selects the dirty-flush order ("" = paper list order).
	WritebackPolicy string `json:"writebackPolicy"`
	// DirtyBackgroundRatio is vm.dirty_background_ratio (0 = disabled).
	DirtyBackgroundRatio float64 `json:"dirtyBackgroundRatio"`
	// PerDeviceWriteback gives each of the host's disks its own writeback
	// domain — per-device dirty thresholds, flusher and writer-driven
	// wakeups — instead of the single host-wide flusher (false, the
	// default, keeps the original byte-identical behavior).
	PerDeviceWriteback bool `json:"perDeviceWriteback"`
	// EvictExcludesOpenWrites protects blocks of files open for writing
	// from eviction.
	EvictExcludesOpenWrites bool `json:"evictExcludesOpenWrites,omitempty"`
	// Model is the cache model: "" (the paper's) or "linuxref".
	Model string       `json:"model,omitempty"`
	Disks []DiskConfig `json:"disks"`
}

// ModelLinuxref names the reference-stack cache model.
const ModelLinuxref = "linuxref"

// DiskConfig describes one disk and its (single) partition.
type DiskConfig struct {
	Name          string  `json:"name"`
	ReadMBps      float64 `json:"readMBps"`
	WriteMBps     float64 `json:"writeMBps"`
	Capacity      string  `json:"capacity"`
	Partition     string  `json:"partition"`
	LatencyS      float64 `json:"latencyS"`
	SharedChannel bool    `json:"sharedChannel"`
	// DirtyRatio / DirtyBackgroundRatio override this disk's writeback
	// domain thresholds when the host sets perDeviceWriteback (0 or
	// omitted: the host's global ratios scaled by the disk's share of the
	// host's total disk write bandwidth, Linux's proportional bdi split).
	DirtyRatio           float64 `json:"dirtyRatio"`
	DirtyBackgroundRatio float64 `json:"dirtyBackgroundRatio"`
}

// LinkConfig describes one full-duplex network link.
type LinkConfig struct {
	Name     string  `json:"name"`
	MBps     float64 `json:"mbps"`
	LatencyS float64 `json:"latencyS"`
}

// LoadConfig parses and validates a JSON platform description.
func LoadConfig(r io.Reader) (*Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("platform: parsing config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Validate checks the description for structural errors.
func (c *Config) Validate() error {
	if len(c.Hosts) == 0 {
		return fmt.Errorf("platform: config has no hosts")
	}
	hostNames := map[string]bool{}
	partNames := map[string]bool{}
	for _, h := range c.Hosts {
		if h.Name == "" {
			return fmt.Errorf("platform: host with empty name")
		}
		if hostNames[h.Name] {
			return fmt.Errorf("platform: duplicate host %q", h.Name)
		}
		hostNames[h.Name] = true
		if h.Cores <= 0 {
			return fmt.Errorf("platform: host %q: cores must be positive", h.Name)
		}
		if h.GFlops <= 0 {
			return fmt.Errorf("platform: host %q: gflops must be positive", h.Name)
		}
		if _, err := units.ParseBytes(h.RAM); err != nil {
			return fmt.Errorf("platform: host %q: bad ram: %v", h.Name, err)
		}
		if h.MemReadMBps <= 0 || h.MemWriteMBps <= 0 {
			return fmt.Errorf("platform: host %q: memory bandwidths must be positive", h.Name)
		}
		if err := core.ValidatePolicyName(h.CachePolicy); err != nil {
			return fmt.Errorf("platform: host %q: %w", h.Name, err)
		}
		if err := core.ValidateWritebackPolicyName(h.WritebackPolicy); err != nil {
			return fmt.Errorf("platform: host %q: %w", h.Name, err)
		}
		if h.DirtyBackgroundRatio < 0 || h.DirtyBackgroundRatio >= 1 {
			return fmt.Errorf("platform: host %q: dirtyBackgroundRatio must be in [0,1)", h.Name)
		}
		if err := h.validateModel(); err != nil {
			return err
		}
		for _, d := range h.Disks {
			if d.Name == "" || d.Partition == "" {
				return fmt.Errorf("platform: host %q: disk needs name and partition", h.Name)
			}
			if partNames[d.Partition] {
				return fmt.Errorf("platform: duplicate partition %q", d.Partition)
			}
			partNames[d.Partition] = true
			if d.ReadMBps <= 0 || d.WriteMBps <= 0 {
				return fmt.Errorf("platform: disk %q: bandwidths must be positive", d.Name)
			}
			if _, err := units.ParseBytes(d.Capacity); err != nil {
				return fmt.Errorf("platform: disk %q: bad capacity: %v", d.Name, err)
			}
			if d.LatencyS < 0 {
				return fmt.Errorf("platform: disk %q: negative latency", d.Name)
			}
			if d.DirtyRatio < 0 || d.DirtyRatio >= 1 {
				return fmt.Errorf("platform: disk %q: dirtyRatio must be in [0,1)", d.Name)
			}
			if d.DirtyBackgroundRatio < 0 || d.DirtyBackgroundRatio >= 1 {
				return fmt.Errorf("platform: disk %q: dirtyBackgroundRatio must be in [0,1)", d.Name)
			}
			if (d.DirtyRatio > 0 || d.DirtyBackgroundRatio > 0) && !h.PerDeviceWriteback {
				return fmt.Errorf("platform: disk %q: per-disk writeback ratios require host perDeviceWriteback", d.Name)
			}
		}
	}
	linkNames := map[string]bool{}
	for _, l := range c.Links {
		if l.Name == "" {
			return fmt.Errorf("platform: link with empty name")
		}
		if linkNames[l.Name] {
			return fmt.Errorf("platform: duplicate link %q", l.Name)
		}
		linkNames[l.Name] = true
		if l.MBps <= 0 {
			return fmt.Errorf("platform: link %q: bandwidth must be positive", l.Name)
		}
		if l.LatencyS < 0 {
			return fmt.Errorf("platform: link %q: negative latency", l.Name)
		}
	}
	return nil
}

// validateModel rejects an unknown model, and cache settings the linuxref
// model would silently ignore.
func (h HostConfig) validateModel() error {
	switch h.Model {
	case "":
		return nil
	case ModelLinuxref:
	default:
		return fmt.Errorf("platform: host %q: unknown model %q (want omitted or %q)", h.Name, h.Model, ModelLinuxref)
	}
	for _, f := range []struct {
		set  bool
		name string
	}{
		{h.CachePolicy != "", "cachePolicy"},
		{h.WritebackPolicy != "", "writebackPolicy"},
		{h.DirtyBackgroundRatio != 0, "dirtyBackgroundRatio"},
		{h.PerDeviceWriteback, "perDeviceWriteback"},
		{h.EvictExcludesOpenWrites, "evictExcludesOpenWrites"},
	} {
		if f.set {
			return fmt.Errorf("platform: host %q: model %s takes no %s", h.Name, ModelLinuxref, f.name)
		}
	}
	return nil
}

// HostSpec converts one host description into realizable specs.
func (h HostConfig) HostSpec() (HostSpec, error) {
	ram, err := units.ParseBytes(h.RAM)
	if err != nil {
		return HostSpec{}, err
	}
	return HostSpec{
		Name:      h.Name,
		Cores:     h.Cores,
		FlopRate:  h.GFlops * 1e9,
		MemoryCap: ram,
		Memory: DeviceSpec{
			Name:    h.Name + ".mem",
			ReadBW:  units.MBps(h.MemReadMBps),
			WriteBW: units.MBps(h.MemWriteMBps),
		},
	}, nil
}

// DeviceSpec converts one disk description into a realizable spec.
func (d DiskConfig) DeviceSpec() (DeviceSpec, int64, error) {
	capacity, err := units.ParseBytes(d.Capacity)
	if err != nil {
		return DeviceSpec{}, 0, err
	}
	mode := SplitChannels
	if d.SharedChannel {
		mode = SharedChannel
	}
	return DeviceSpec{
		Name:     d.Name,
		ReadBW:   units.MBps(d.ReadMBps),
		WriteBW:  units.MBps(d.WriteMBps),
		LatencyS: d.LatencyS,
		Capacity: capacity,
		Channels: mode,
	}, capacity, nil
}

// LinkSpec converts one link description into a realizable spec.
func (l LinkConfig) LinkSpec() LinkSpec {
	return LinkSpec{Name: l.Name, BW: units.MBps(l.MBps), LatencyS: l.LatencyS}
}
