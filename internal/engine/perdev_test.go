package engine

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/trace"
)

// perDevRig is a two-disk host (fast 50 B/s, slow 5 B/s) running per-device
// writeback, with the manager exposed for counter assertions.
type perDevRig struct {
	sim      *Simulation
	hr       *HostRuntime
	mgr      *core.Manager
	fast     *storage.Partition
	slow     *storage.Partition
	fastDisk platform.DeviceSpec
}

func newPerDevRig(t *testing.T, bg float64, perDevice bool) *perDevRig {
	t.Helper()
	sim := NewSimulation()
	cfg := core.DefaultConfig(1000)
	cfg.DirtyBackgroundRatio = bg
	mgr, err := core.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewCoreModel(mgr, 10, ModeWriteback)
	if err != nil {
		t.Fatal(err)
	}
	spec := platform.HostSpec{
		Name: "h", Cores: 4, FlopRate: 1e9, MemoryCap: 1000,
		Memory: platform.DeviceSpec{Name: "h.mem", ReadBW: 100, WriteBW: 100},
	}
	hr, err := sim.AddHostWithModel(spec, ModeWriteback, model)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := hr.AddDisk(platform.DeviceSpec{Name: "fast0", ReadBW: 50, WriteBW: 50}, "pfast", 100000)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := hr.AddDisk(platform.DeviceSpec{Name: "slow0", ReadBW: 5, WriteBW: 5}, "pslow", 100000)
	if err != nil {
		t.Fatal(err)
	}
	if perDevice {
		if err := hr.enablePerDeviceWriteback(nil); err != nil {
			t.Fatal(err)
		}
	}
	return &perDevRig{sim: sim, hr: hr, mgr: mgr, fast: fast, slow: slow}
}

// TestWriterWakeupBeforeTick pins the writer-driven wakeup contract: a write
// that crosses a domain's background threshold kicks that device's flusher
// immediately, so background flushing starts well before the first
// FlushInterval (5 s) poll. The same write under the single global flusher
// sees no flush traffic until the 5 s tick — the control proving the early
// flush really is the wakeup.
func TestWriterWakeupBeforeTick(t *testing.T) {
	run := func(perDevice bool) (flushedAt4 int64) {
		// bg threshold = 0.1 × 1000 = 100 B globally, 90.9 B for the fast
		// domain (50/55 share). A 150 B write crosses it but stays under the
		// 200 B dirty threshold, so only a flusher can write anything back.
		r := newPerDevRig(t, 0.10, perDevice)
		r.sim.SpawnApp(r.hr, 0, "writer", func(a *App) error {
			return a.WriteFile("f", 150, r.fast, "w")
		})
		r.sim.SpawnApp(r.hr, 1, "probe", func(a *App) error {
			a.Compute(4, "wait")
			flushedAt4 = r.mgr.FlushedBytes()
			return nil
		})
		if err := r.sim.Run(); err != nil {
			t.Fatal(err)
		}
		return flushedAt4
	}
	if got := run(true); got == 0 {
		t.Error("per-device: write crossed the background threshold but nothing was flushed before the first 5s tick")
	}
	if got := run(false); got != 0 {
		t.Errorf("global flusher: %d B flushed before the first 5s tick — the control no longer isolates the wakeup", got)
	}
}

// TestPerDeviceFlusherIsolation pins the tentpole's throttling contract at
// engine scale: with a saturated slow disk, per-device domains keep the fast
// disk's writer un-throttled while the single global domain stalls it on the
// shared threshold and cross-device flush order.
func TestPerDeviceFlusherIsolation(t *testing.T) {
	run := func(perDevice bool) (fastWall float64) {
		r := newPerDevRig(t, 0.10, perDevice)
		r.sim.SpawnApp(r.hr, 0, "slow-writer", func(a *App) error {
			return a.WriteFile("big", 400, r.slow, "ws")
		})
		r.sim.SpawnApp(r.hr, 1, "fast-writer", func(a *App) error {
			if err := a.WriteFile("quick", 150, r.fast, "wf"); err != nil {
				return err
			}
			fastWall = a.Now()
			return nil
		})
		if err := r.sim.Run(); err != nil {
			t.Fatal(err)
		}
		return fastWall
	}
	split := run(true)
	global := run(false)
	if split >= global {
		t.Errorf("fast writer wall time %.3fs per-device vs %.3fs global: slow backlog still throttles the fast device", split, global)
	}
	// The isolated fast write is 150 B at ~50 B/s memory share: a few
	// seconds, not the slow disk's tens.
	if split > 10 {
		t.Errorf("fast writer took %.3fs under per-device writeback, want < 10s", split)
	}
}

// perDeviceDeterminismRun is one full mixed-speed per-device experiment:
// concurrent writers on both devices plus a re-reader, with writer-driven
// wakeups racing the periodic flusher ticks on both domains.
func perDeviceDeterminismRun(t *testing.T) ([]trace.Op, core.Stats, float64) {
	t.Helper()
	r := newPerDevRig(t, 0.10, true)
	for i := 0; i < 2; i++ {
		i := i
		r.sim.SpawnApp(r.hr, i, "fast-writer", func(a *App) error {
			name := []string{"fa", "fb"}[i]
			if err := a.WriteFile(name, 120, r.fast, "Write 1"); err != nil {
				return err
			}
			a.Compute(0.5, "Compute 1")
			if err := a.ReadFile(name, "Read 1"); err != nil {
				return err
			}
			a.ReleaseTaskMemory()
			return nil
		})
	}
	r.sim.SpawnApp(r.hr, 2, "slow-writer", func(a *App) error {
		return a.WriteFile("sb", 300, r.slow, "Write 1")
	})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if err := r.sim.CheckSubstrate(); err != nil {
		t.Fatal(err)
	}
	return r.sim.Log.Ops, r.hr.Model.Snapshot(), r.sim.Makespan()
}

// TestPerDeviceRunDeterminism runs the same per-device experiment twice and
// requires identical op logs, cache snapshots and makespans: writer-driven
// wakeup ordering may not depend on anything but the model inputs.
func TestPerDeviceRunDeterminism(t *testing.T) {
	ops1, snap1, mk1 := perDeviceDeterminismRun(t)
	ops2, snap2, mk2 := perDeviceDeterminismRun(t)
	if len(ops1) == 0 {
		t.Fatal("experiment logged no operations")
	}
	if !reflect.DeepEqual(ops1, ops2) {
		for i := range ops1 {
			if i < len(ops2) && ops1[i] != ops2[i] {
				t.Fatalf("op %d differs between runs:\n  %+v\n  %+v", i, ops1[i], ops2[i])
			}
		}
		t.Fatalf("op logs differ in length: %d vs %d", len(ops1), len(ops2))
	}
	if snap1 != snap2 || mk1 != mk2 {
		t.Fatalf("runs differ beyond the op log: %+v/%.6f vs %+v/%.6f", snap1, mk1, snap2, mk2)
	}
}
