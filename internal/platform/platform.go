// Package platform describes simulated hardware: hosts (cores/flops), memory
// devices, disks, and network links, bound to fluid resources. It also ships
// the exact configurations the paper uses (Table III) as ready-made builders.
package platform

import (
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/fluid"
	"repro/internal/units"
)

// DiskChannelMode selects how a device's read and write traffic contend.
type DiskChannelMode int

const (
	// SplitChannels gives the device independent read and write channels
	// (SimGrid's storage model [21]; the default for all simulators here).
	SplitChannels DiskChannelMode = iota
	// SharedChannel forces reads and writes through one channel whose
	// capacity is the read bandwidth; used by ablation benchmarks.
	SharedChannel
)

// DeviceSpec configures a storage-class device (disk or RAM viewed as a
// transfer device). Bandwidths are bytes/second.
type DeviceSpec struct {
	Name      string
	ReadBW    float64
	WriteBW   float64
	LatencyS  float64 // per-operation fixed latency, seconds
	Capacity  int64   // bytes; ≤0 means unlimited (RAM uses its own accounting)
	Channels  DiskChannelMode
	PerStream float64 // optional per-stream rate cap (≤0: none)
}

// Device is a realized storage-class device on a fluid system.
type Device struct {
	spec  DeviceSpec
	sys   *fluid.System
	read  *fluid.Resource
	write *fluid.Resource
}

// NewDevice realizes spec on the fluid system.
func NewDevice(sys *fluid.System, spec DeviceSpec) (*Device, error) {
	if spec.ReadBW <= 0 || spec.WriteBW <= 0 {
		return nil, fmt.Errorf("platform: device %q: bandwidths must be positive", spec.Name)
	}
	d := &Device{spec: spec, sys: sys}
	switch spec.Channels {
	case SplitChannels:
		d.read = sys.NewResource(spec.Name+".read", spec.ReadBW)
		d.write = sys.NewResource(spec.Name+".write", spec.WriteBW)
	case SharedChannel:
		shared := sys.NewResource(spec.Name+".rw", spec.ReadBW)
		d.read, d.write = shared, shared
	default:
		return nil, fmt.Errorf("platform: device %q: unknown channel mode", spec.Name)
	}
	return d, nil
}

// Spec returns the device configuration.
func (d *Device) Spec() DeviceSpec { return d.spec }

// Name returns the device name.
func (d *Device) Name() string { return d.spec.Name }

// ReadRes and WriteRes expose the underlying fluid resources, e.g. for
// building multi-constraint remote-I/O activities.
func (d *Device) ReadRes() *fluid.Resource  { return d.read }
func (d *Device) WriteRes() *fluid.Resource { return d.write }

// SetBandwidthScale rescales the device's channel capacities to factor ×
// the nominal spec bandwidths — the fault-injection hook for disk
// slowdowns (factor < 1), failures (factor 0: in-flight transfers stall in
// place) and recovery (factor 1). A shared channel is rescaled once
// against ReadBW, mirroring NewDevice. Negative, NaN and infinite factors
// panic.
func (d *Device) SetBandwidthScale(factor float64) {
	if factor < 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		panic(fmt.Sprintf("platform: device %q: invalid bandwidth scale %v", d.spec.Name, factor))
	}
	d.sys.SetCapacity(d.read, d.spec.ReadBW*factor)
	if d.write != d.read {
		d.sys.SetCapacity(d.write, d.spec.WriteBW*factor)
	}
}

// Read blocks p for the fair-shared duration of an n-byte read.
func (d *Device) Read(p *des.Proc, n int64) {
	if n <= 0 {
		return
	}
	if d.spec.LatencyS > 0 {
		p.Sleep(d.spec.LatencyS)
	}
	d.sys.Do(p, float64(n), d.spec.PerStream, fluid.Use{Res: d.read, Coef: 1})
}

// Write blocks p for the fair-shared duration of an n-byte write.
func (d *Device) Write(p *des.Proc, n int64) {
	if n <= 0 {
		return
	}
	if d.spec.LatencyS > 0 {
		p.Sleep(d.spec.LatencyS)
	}
	d.sys.Do(p, float64(n), d.spec.PerStream, fluid.Use{Res: d.write, Coef: 1})
}

// LinkSpec configures a network link (full-duplex: each direction is an
// independent channel of the given bandwidth).
type LinkSpec struct {
	Name     string
	BW       float64 // bytes/second per direction
	LatencyS float64
}

// Link is a realized network link.
type Link struct {
	spec LinkSpec
	up   *fluid.Resource
	down *fluid.Resource
	sys  *fluid.System
}

// NewLink realizes spec on the fluid system.
func NewLink(sys *fluid.System, spec LinkSpec) (*Link, error) {
	if spec.BW <= 0 {
		return nil, fmt.Errorf("platform: link %q: bandwidth must be positive", spec.Name)
	}
	return &Link{
		spec: spec,
		sys:  sys,
		up:   sys.NewResource(spec.Name+".up", spec.BW),
		down: sys.NewResource(spec.Name+".down", spec.BW),
	}, nil
}

// Spec returns the link configuration.
func (l *Link) Spec() LinkSpec { return l.spec }

// Up is the client→server direction resource; Down is server→client.
func (l *Link) Up() *fluid.Resource   { return l.up }
func (l *Link) Down() *fluid.Resource { return l.down }

// SetBandwidthScale rescales both directions to factor × the nominal spec
// bandwidth — the fault-injection hook for link degradation (factor < 1),
// partition (factor 0: in-flight transfers stall in place) and recovery
// (factor 1). Negative, NaN and infinite factors panic.
func (l *Link) SetBandwidthScale(factor float64) {
	if factor < 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		panic(fmt.Sprintf("platform: link %q: invalid bandwidth scale %v", l.spec.Name, factor))
	}
	l.sys.SetCapacity(l.up, l.spec.BW*factor)
	l.sys.SetCapacity(l.down, l.spec.BW*factor)
}

// HostSpec configures a simulated host.
type HostSpec struct {
	Name      string
	Cores     int
	FlopRate  float64 // flops/second per core (paper: 1 Gflop/s)
	MemoryCap int64   // RAM bytes (paper: 250 GiB)
	Memory    DeviceSpec
}

// Host is a realized host: cores as a semaphore, RAM as a transfer device.
type Host struct {
	spec  HostSpec
	cores *des.Semaphore
	mem   *Device
	k     *des.Kernel
}

// NewHost realizes spec.
func NewHost(k *des.Kernel, sys *fluid.System, spec HostSpec) (*Host, error) {
	if spec.Cores <= 0 {
		return nil, fmt.Errorf("platform: host %q: needs at least one core", spec.Name)
	}
	if spec.FlopRate <= 0 {
		return nil, fmt.Errorf("platform: host %q: flop rate must be positive", spec.Name)
	}
	if spec.MemoryCap <= 0 {
		return nil, fmt.Errorf("platform: host %q: memory capacity must be positive", spec.Name)
	}
	mem, err := NewDevice(sys, spec.Memory)
	if err != nil {
		return nil, err
	}
	return &Host{spec: spec, cores: des.NewSemaphore(k, spec.Cores), mem: mem, k: k}, nil
}

// Spec returns the host configuration.
func (h *Host) Spec() HostSpec { return h.spec }

// Name returns the host name.
func (h *Host) Name() string { return h.spec.Name }

// Memory returns the RAM transfer device (page-cache reads/writes go here).
func (h *Host) Memory() *Device { return h.mem }

// Compute occupies one core for flops/FlopRate seconds, queuing if all cores
// are busy (the paper injects measured CPU seconds as flops on a 1 Gflop/s
// core).
func (h *Host) Compute(p *des.Proc, flops float64) {
	h.cores.Acquire(p)
	p.Sleep(flops / h.spec.FlopRate)
	h.cores.Release()
}

// ComputeSeconds is a convenience for directly-injected CPU seconds.
func (h *Host) ComputeSeconds(p *des.Proc, s float64) {
	h.Compute(p, s*h.spec.FlopRate)
}

// ---------------------------------------------------------------------------
// Paper configurations (Table III), in MBps as reported.

// PaperBandwidths groups the Table III bandwidth measurements (MBps).
type PaperBandwidths struct {
	MemReadMBps, MemWriteMBps           float64
	LocalReadMBps, LocalWriteMBps       float64
	RemoteReadMBps, RemoteWriteMBps     float64
	NetworkMBps                         float64
	SimMemMBps, SimLocalMBps, SimNFSbps float64
}

// TableIII returns the measured and simulator bandwidth values from the
// paper's Table III.
func TableIII() PaperBandwidths {
	return PaperBandwidths{
		MemReadMBps: 6860, MemWriteMBps: 2764,
		LocalReadMBps: 510, LocalWriteMBps: 420,
		RemoteReadMBps: 515, RemoteWriteMBps: 375,
		NetworkMBps: 3000,
		SimMemMBps:  4812, SimLocalMBps: 465, SimNFSbps: 445,
	}
}

// SimMemorySpec returns the paper's simulator memory device (symmetric
// 4812 MBps — the mean of the measured read/write bandwidths).
func SimMemorySpec(name string) DeviceSpec {
	bw := units.MBps(TableIII().SimMemMBps)
	return DeviceSpec{Name: name, ReadBW: bw, WriteBW: bw}
}

// SimLocalDiskSpec returns the paper's simulated local SSD (symmetric
// 465 MBps, 450 GiB).
func SimLocalDiskSpec(name string) DeviceSpec {
	bw := units.MBps(TableIII().SimLocalMBps)
	return DeviceSpec{Name: name, ReadBW: bw, WriteBW: bw, Capacity: 450 * units.GiB}
}

// SimRemoteDiskSpec returns the paper's simulated NFS server disk
// (symmetric 445 MBps).
func SimRemoteDiskSpec(name string) DeviceSpec {
	bw := units.MBps(TableIII().SimNFSbps)
	return DeviceSpec{Name: name, ReadBW: bw, WriteBW: bw, Capacity: 450 * units.GiB}
}

// RealMemorySpec returns the measured (asymmetric) cluster memory device —
// used by the linuxref ground-truth proxy.
func RealMemorySpec(name string) DeviceSpec {
	t := TableIII()
	return DeviceSpec{Name: name, ReadBW: units.MBps(t.MemReadMBps), WriteBW: units.MBps(t.MemWriteMBps)}
}

// RealLocalDiskSpec returns the measured local SSD (510/420 MBps).
func RealLocalDiskSpec(name string) DeviceSpec {
	t := TableIII()
	return DeviceSpec{
		Name: name, ReadBW: units.MBps(t.LocalReadMBps), WriteBW: units.MBps(t.LocalWriteMBps),
		Capacity: 450 * units.GiB,
	}
}

// ClusterNetworkSpec returns the 25 Gbps (measured 3000 MBps) cluster link.
func ClusterNetworkSpec(name string) LinkSpec {
	return LinkSpec{Name: name, BW: units.MBps(TableIII().NetworkMBps)}
}

// PaperHostSpec returns a cluster compute node: 32 cores, 1 Gflop/s
// calibration rate, 250 GiB RAM.
func PaperHostSpec(name string, mem DeviceSpec) HostSpec {
	return HostSpec{
		Name: name, Cores: 32, FlopRate: 1e9,
		MemoryCap: 250 * units.GiB, Memory: mem,
	}
}
