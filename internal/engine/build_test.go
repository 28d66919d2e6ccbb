package engine

import (
	"strings"
	"testing"

	"repro/internal/core"
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
	// The per-host "writebackPolicy", "dirtyBackgroundRatio" and
	// "lfuHalfLife" knobs must reach the built cache model.
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

func TestEnableHitTraceSeries(t *testing.T) {
	// The hit sampler records cumulative counters: a cold read then a warm
	// read must show the miss before the hit in the series, with the final
	// sample matching the model's end-state counters.
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
	server.EnableHitTrace(0.01)
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
	pts := server.HitTrace.Points
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
