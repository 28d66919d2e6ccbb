package engine

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/linuxref"
	"repro/internal/platform"
)

const twoNodeConfig = `{
  "hosts": [
    {"name": "client", "cores": 4, "gflops": 1, "ram": "8GiB",
     "memReadMBps": 1000, "memWriteMBps": 1000},
    {"name": "server", "cores": 4, "gflops": 1, "ram": "8GiB",
     "memReadMBps": 1000, "memWriteMBps": 1000,
     "disks": [{"name": "srv.disk", "readMBps": 100, "writeMBps": 100,
                "capacity": "100GiB", "partition": "export"}]}
  ],
  "links": [{"name": "net", "mbps": 500}]
}`

func TestBuildPlatformFromConfig(t *testing.T) {
	cfg, err := platform.LoadConfig(strings.NewReader(twoNodeConfig))
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulation()
	p, err := sim.BuildPlatform(cfg, ModeWriteback, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hosts) != 2 || len(p.Partitions) != 1 || len(p.Links) != 1 {
		t.Fatalf("platform: hosts=%d parts=%d links=%d", len(p.Hosts), len(p.Partitions), len(p.Links))
	}
	client, server := p.Hosts["client"], p.Hosts["server"]
	if client == nil || server == nil {
		t.Fatal("hosts missing")
	}
	export := p.Partitions["export"]
	if export == nil || export.Capacity() != 100<<30 {
		t.Fatalf("partition: %+v", export)
	}
	// The built platform is fully usable: mount and run an app.
	if err := client.MountRemote(export, p.Links["net"], MountOpts{Chunk: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := export.CreateSized("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := sim.NS.Place("f", export); err != nil {
		t.Fatal(err)
	}
	sim.SpawnApp(client, 0, "app", func(a *App) error {
		err := a.ReadFile("f", "r")
		a.ReleaseTaskMemory()
		return err
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sim.Log.ByName("r")) != 1 {
		t.Fatal("op not logged")
	}
}

func TestBuildPlatformDirtyRatioOverride(t *testing.T) {
	cfg, err := platform.LoadConfig(strings.NewReader(twoNodeConfig))
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulation()
	p, err := sim.BuildPlatform(cfg, ModeWriteback, 1<<20, func(c *core.Config) { c.DirtyRatio = 0.5 })
	if err != nil {
		t.Fatal(err)
	}
	st := p.Hosts["client"].Model.Snapshot()
	if st.DirtyThreshold != int64(0.5*float64(st.Available)) {
		t.Fatalf("dirty threshold %d of %d", st.DirtyThreshold, st.Available)
	}
}

// TestBuildPlatformPerDiskWritebackRatios checks that a perDeviceWriteback
// host's per-disk ratios reach the disk's own writeback domain, and that a
// disk without them keeps its bandwidth-share thresholds.
func TestBuildPlatformPerDiskWritebackRatios(t *testing.T) {
	cfg := &platform.Config{Hosts: []platform.HostConfig{{
		Name: "h", Cores: 4, GFlops: 1, RAM: "8GiB", MemReadMBps: 1000, MemWriteMBps: 1000,
		PerDeviceWriteback: true, DirtyBackgroundRatio: 0.1,
		Disks: []platform.DiskConfig{
			{Name: "fast0", ReadMBps: 300, WriteMBps: 300, Capacity: "10GiB", Partition: "pfast"},
			{Name: "slow0", ReadMBps: 100, WriteMBps: 100, Capacity: "10GiB", Partition: "pslow",
				DirtyRatio: 0.04, DirtyBackgroundRatio: 0.02},
		},
	}}}
	p, err := NewSimulation().BuildPlatform(cfg, ModeWriteback, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := p.Hosts["h"].Model.(ManagerProvider).Manager()
	avail := float64(m.Available())
	want := map[string][2]int64{
		"fast0": {int64(0.20 * 0.75 * avail), int64(0.1 * 0.75 * avail)},
		"slow0": {int64(0.04 * avail), int64(0.02 * avail)},
	}
	if m.DomainCount() != 3 {
		t.Fatalf("%d domains, want the backstop plus one per disk", m.DomainCount())
	}
	for dom := 1; dom < m.DomainCount(); dom++ {
		w := want[m.DomainDev(dom)]
		if got := [2]int64{m.DomainDirtyThreshold(dom), m.DomainBackgroundThreshold(dom)}; got != w {
			t.Errorf("%s: dirty/background thresholds %v, want %v", m.DomainDev(dom), got, w)
		}
	}
}

func TestBuildPlatformRejectsInvalid(t *testing.T) {
	sim := NewSimulation()
	if _, err := sim.BuildPlatform(&platform.Config{}, ModeWriteback, 1<<20, nil); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestBuildPlatformCachePolicy(t *testing.T) {
	// The per-host "cachePolicy" knob must reach the built cache model. A
	// FIFO host keeps a single list, so a warm read never populates an
	// active list; an LRU host promotes re-read blocks.
	run := func(policy string) int64 {
		cfg, err := platform.LoadConfig(strings.NewReader(twoNodeConfig))
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfg.Hosts {
			cfg.Hosts[i].CachePolicy = policy
		}
		sim := NewSimulation()
		p, err := sim.BuildPlatform(cfg, ModeWriteback, 1<<20, nil)
		if err != nil {
			t.Fatal(err)
		}
		server := p.Hosts["server"]
		export := p.Partitions["export"]
		if _, err := export.CreateSized("f", 1<<20); err != nil {
			t.Fatal(err)
		}
		if err := sim.NS.Place("f", export); err != nil {
			t.Fatal(err)
		}
		sim.SpawnApp(server, 0, "app", func(a *App) error {
			if err := a.ReadFile("f", "cold"); err != nil {
				return err
			}
			a.ReleaseTaskMemory()
			err := a.ReadFile("f", "warm")
			a.ReleaseTaskMemory()
			return err
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return server.Model.Snapshot().ActiveBytes
	}
	if active := run("fifo"); active != 0 {
		t.Fatalf("fifo host has active bytes %d", active)
	}
	if active := run("lru"); active == 0 {
		t.Fatal("lru host promoted nothing on a warm read")
	}

	// Unknown names fail at build/validation time.
	cfg, err := platform.LoadConfig(strings.NewReader(twoNodeConfig))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Hosts[0].CachePolicy = "mglru"
	if _, err := NewSimulation().BuildPlatform(cfg, ModeWriteback, 1<<20, nil); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestBuildPlatformWritebackKnobs(t *testing.T) {
	// The per-host "writebackPolicy" and "dirtyBackgroundRatio" knobs must
	// reach the built cache model.
	cfg, err := platform.LoadConfig(strings.NewReader(twoNodeConfig))
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.Hosts {
		cfg.Hosts[i].WritebackPolicy = "oldest-first"
		cfg.Hosts[i].DirtyBackgroundRatio = 0.05
	}
	sim := NewSimulation()
	p, err := sim.BuildPlatform(cfg, ModeWriteback, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Hosts["client"].Model.Snapshot()
	if want := int64(0.05 * float64(st.Available)); st.DirtyBackgroundThreshold != want {
		t.Fatalf("background threshold %d, want %d", st.DirtyBackgroundThreshold, want)
	}

	cfg2, err := platform.LoadConfig(strings.NewReader(twoNodeConfig))
	if err != nil {
		t.Fatal(err)
	}
	cfg2.Hosts[0].WritebackPolicy = "elevator"
	if _, err := NewSimulation().BuildPlatform(cfg2, ModeWriteback, 1<<20, nil); err == nil {
		t.Fatal("unknown writeback policy accepted")
	}
}

func TestBuildPlatformModelAndEvictFlag(t *testing.T) {
	// "model": "linuxref" builds the reference stack with the chunk as its
	// read size, in writeback mode only; "evictExcludesOpenWrites" reaches
	// the core config.
	cfg, err := platform.LoadConfig(strings.NewReader(twoNodeConfig))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Hosts[0].Model = platform.ModelLinuxref
	cfg.Hosts[1].EvictExcludesOpenWrites = true
	p, err := NewSimulation().BuildPlatform(cfg, ModeWriteback, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := p.Hosts["client"].Model.(*linuxref.Model); !ok || m.Config().ReadChunk != 1<<20 {
		t.Fatalf("client model = %T, want *linuxref.Model reading 1 MiB chunks", p.Hosts["client"].Model)
	}
	if !p.Hosts["server"].Model.(ManagerProvider).Manager().Config().EvictExcludesOpenWrites {
		t.Fatal("evictExcludesOpenWrites did not reach the server's cache config")
	}
	if _, err := NewSimulation().BuildPlatform(cfg, ModeCacheless, 1<<20, nil); err == nil ||
		!strings.Contains(err.Error(), "writeback mode") {
		t.Fatalf("linuxref host in cacheless mode: err = %v", err)
	}
}

func TestEnableHitTraceSeries(t *testing.T) {
	// The memory sampler records the cumulative hit counters: a cold read
	// then a warm read must show the miss before the hit in the series, with
	// the final sample matching the model's end-state counters.
	cfg, err := platform.LoadConfig(strings.NewReader(twoNodeConfig))
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulation()
	p, err := sim.BuildPlatform(cfg, ModeWriteback, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	server := p.Hosts["server"]
	export := p.Partitions["export"]
	if _, err := export.CreateSized("f", 10<<20); err != nil {
		t.Fatal(err)
	}
	if err := sim.NS.Place("f", export); err != nil {
		t.Fatal(err)
	}
	server.EnableMemTrace(0.01)
	sim.SpawnApp(server, 0, "app", func(a *App) error {
		if err := a.ReadFile("f", "cold"); err != nil {
			return err
		}
		a.ReleaseTaskMemory()
		err := a.ReadFile("f", "warm")
		a.ReleaseTaskMemory()
		return err
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	pts := server.MemTrace.Points
	if len(pts) < 2 {
		t.Fatalf("only %d hit samples", len(pts))
	}
	last := pts[len(pts)-1]
	st := server.Model.Snapshot()
	if st.ReadHitBytes != 10<<20 || st.ReadMissBytes != 10<<20 {
		t.Fatalf("model counters %d/%d, want 10MiB hits and misses", st.ReadHitBytes, st.ReadMissBytes)
	}
	// The sampler stops with the run, so the last sample may predate the
	// final hits — but it can never exceed the end-state counters.
	if last.HitBytes > st.ReadHitBytes || last.MissBytes > st.ReadMissBytes {
		t.Fatalf("final sample %+v exceeds model %d/%d", last, st.ReadHitBytes, st.ReadMissBytes)
	}
	if last.HitBytes == 0 {
		t.Fatal("series never observed the warm (hit) phase")
	}
	// Counters are cumulative and non-decreasing; misses lead hits in time.
	sawMissOnly := false
	for i, p := range pts {
		if i > 0 && (p.HitBytes < pts[i-1].HitBytes || p.MissBytes < pts[i-1].MissBytes) {
			t.Fatalf("sample %d went backwards: %+v after %+v", i, p, pts[i-1])
		}
		if p.MissBytes > 0 && p.HitBytes == 0 {
			sawMissOnly = true
		}
	}
	if !sawMissOnly {
		t.Fatal("series never showed the cold (miss-only) phase")
	}
}
