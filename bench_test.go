// Package repro's root benchmark harness: one testing.B benchmark per table
// and figure of the paper's evaluation (named after it; cmd/experiments/
// README.md lists the experiments), plus the design-choice ablations and
// substrate micro-benchmarks.
//
// Figure benchmarks execute the same experiment code as cmd/experiments at
// a reduced sweep so `go test -bench=.` finishes in minutes; the full-scale
// sweeps are run by `cmd/experiments -all`.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/fluid"
	"repro/internal/grid"
	"repro/internal/platform"
	"repro/internal/units"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Tables I-III

func BenchmarkTable1_SyntheticParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, row := range workload.TableI {
			if got := workload.SyntheticCPU(row.Size); got != row.CPU {
				b.Fatalf("CPU(%d) = %v, want %v", row.Size, got, row.CPU)
			}
		}
	}
}

func BenchmarkTable2_NighresParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		steps := workload.NighresSteps()
		if len(steps) != 4 {
			b.Fatal("Table II must have four steps")
		}
	}
}

// BenchmarkTable3_Bandwidths verifies the simulated devices deliver their
// configured Table III bandwidths end to end (a calibration check, not just
// a constant lookup): a 1 GB transfer on the 465 MB/s disk must take
// 1000/465 s of virtual time.
func BenchmarkTable3_Bandwidths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := des.NewKernel()
		sys := fluid.NewSystem(k)
		disk, err := platform.NewDevice(sys, platform.SimLocalDiskSpec("d"))
		if err != nil {
			b.Fatal(err)
		}
		var elapsed float64
		k.Spawn("probe", func(p *des.Proc) {
			start := p.Now()
			disk.Read(p, units.GB)
			elapsed = p.Now() - start
		})
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		want := float64(units.GB) / units.MBps(465)
		if diff := elapsed - want; diff > 1e-6 || diff < -1e-6 {
			b.Fatalf("read took %v, want %v", elapsed, want)
		}
	}
}

// runMerged runs one experiment family's cells on the default pool and
// merges their payloads.
func runMerged[R any](b *testing.B, specs []grid.Spec, merge func([]grid.Payload) (R, error)) R {
	b.Helper()
	ps, err := exp.RunCells(specs, grid.Options{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := merge(ps)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// ---------------------------------------------------------------------------
// Fig 4 (Exp 1)

func runExp1(b *testing.B, size int64) *exp.Exp1Result {
	return runMerged(b, exp.Exp1Cells("exp1", size),
		func(ps []grid.Payload) (*exp.Exp1Result, error) { return exp.MergeExp1(size, ps) })
}

func benchExp1(b *testing.B, size int64) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := runExp1(b, size)
		if i == 0 {
			b.ReportMetric(res.MeanErr[exp.StackCacheless], "wrench-err-%")
			b.ReportMetric(res.MeanErr[exp.StackCache], "cache-err-%")
		}
	}
}

func BenchmarkFig4a_Exp1Errors20GB(b *testing.B)  { benchExp1(b, 20*units.GB) }
func BenchmarkFig4a_Exp1Errors100GB(b *testing.B) { benchExp1(b, 100*units.GB) }

func BenchmarkFig4b_MemoryProfiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runExp1(b, 20*units.GB)
		for _, st := range []exp.Stack{exp.StackReal, exp.StackPysim, exp.StackCache} {
			if len(res.Mem[st].Points) == 0 {
				b.Fatalf("no memory profile for %s", st)
			}
		}
	}
}

func BenchmarkFig4c_CacheContents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runExp1(b, 20*units.GB)
		for _, st := range []exp.Stack{exp.StackReal, exp.StackCache} {
			if len(res.Snaps[st].Snaps) != 6 {
				b.Fatalf("%s: %d snapshots, want 6", st, len(res.Snaps[st].Snaps))
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Fig 5 (Exp 2), Fig 6 (Exp 4), Fig 7 (Exp 3)

func benchConcurrent(b *testing.B, remote bool) {
	levels := []int{1, 8, 32}
	for i := 0; i < b.N; i++ {
		runMerged(b, exp.ConcurrentCells("concurrent", remote, 3*units.GB, levels, 2),
			func(ps []grid.Payload) (*exp.ConcurrentResult, error) {
				return exp.MergeConcurrent(remote, levels, 2, ps)
			})
	}
}

func BenchmarkFig5_Exp2Concurrent(b *testing.B) { benchConcurrent(b, false) }

func BenchmarkFig6_Exp4Nighres(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runMerged(b, exp.Exp4Cells("exp4"), exp.MergeExp4)
		if i == 0 {
			b.ReportMetric(res.MeanErr[exp.StackCacheless], "wrench-err-%")
			b.ReportMetric(res.MeanErr[exp.StackCache], "cache-err-%")
		}
	}
}

func BenchmarkFig7_Exp3NFS(b *testing.B) { benchConcurrent(b, true) }

// ---------------------------------------------------------------------------
// Fig 8: the benchmark IS the figure — wall-clock simulation time per
// configuration and instance count.

func benchSimTime(b *testing.B, mode engine.Mode, remote bool, n int) {
	levels := []int{n}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := exp.RunSimTimeConfig(mode, remote, levels)
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

func BenchmarkFig8_WrenchLocal32(b *testing.B) { benchSimTime(b, engine.ModeCacheless, false, 32) }
func BenchmarkFig8_WrenchNFS32(b *testing.B)   { benchSimTime(b, engine.ModeCacheless, true, 32) }
func BenchmarkFig8_CacheLocal32(b *testing.B)  { benchSimTime(b, engine.ModeWriteback, false, 32) }
func BenchmarkFig8_CacheNFS32(b *testing.B)    { benchSimTime(b, engine.ModeWriteback, true, 32) }

// ---------------------------------------------------------------------------
// Ablations (the design choices listed in internal/exp/ablation.go)

func BenchmarkAblation_DesignChoices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runMerged(b, exp.AblationCells("ablations", 20*units.GB),
			func(ps []grid.Payload) (*exp.AblationResult, error) { return exp.MergeAblation(20*units.GB, ps) })
		if i == 0 {
			for _, row := range res.Rows {
				b.Logf("%-32s %6.1f%%", row.Name, row.MeanErr)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks

func BenchmarkMicro_DESEventThroughput(b *testing.B) {
	k := des.NewKernel()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(1, tick)
		}
	}
	k.After(1, tick)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkMicro_FluidRecompute(b *testing.B) {
	k := des.NewKernel()
	sys := fluid.NewSystem(k)
	r := sys.NewResource("r", 1e9)
	// 32 long-running activities; each Start triggers a full recompute.
	for i := 0; i < 32; i++ {
		sys.Start(1e18, 0, fluid.Use{Res: r, Coef: 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Start(1e18, 0, fluid.Use{Res: r, Coef: 1})
	}
}

func BenchmarkMicro_LRUCacheRead(b *testing.B) {
	mgr, err := core.NewManager(core.DefaultConfig(1 << 40))
	if err != nil {
		b.Fatal(err)
	}
	c := &benchCaller{}
	for i := 0; i < 1000; i++ {
		mgr.AddToCache("f", 1<<20, float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.now = float64(1000 + i)
		mgr.CacheRead(c, "f", 1<<22)
	}
}

func BenchmarkMicro_ManagerFlush(b *testing.B) {
	c := &benchCaller{}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mgr, err := core.NewManager(core.DefaultConfig(1 << 40))
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 256; j++ {
			mgr.WriteToCache(c, fmt.Sprintf("f%d", j%8), 1<<20)
		}
		b.StartTimer()
		mgr.Flush(c, 256<<20)
	}
}

// benchCaller is a zero-cost Caller for micro-benchmarks.
type benchCaller struct{ now float64 }

func (c *benchCaller) Now() float64            { return c.now }
func (c *benchCaller) DiskRead(string, int64)  {}
func (c *benchCaller) DiskWrite(string, int64) {}
func (c *benchCaller) MemRead(int64)           {}
func (c *benchCaller) MemWrite(int64)          {}
