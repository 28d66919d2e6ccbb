// BenchmarkFluid* / BenchmarkDES*: micro-benchmarks for the simulation
// substrate under the cache model — the fluid max-min fair-sharing solver
// and the DES event core. These are the scaling scenarios the incremental
// solver (per-resource activity lists, component-scoped progressive
// filling) and the lean event core (heap unlink on cancel, event pooling,
// same-time fast path) exist for; before that refactor every activity
// start/completion re-ran progressive filling over all resources and all
// in-flight activities, and every canceled timer rotted in the event heap
// until its deadline.
//
// CI runs them with -benchtime=1x as a smoke test; run them with the
// default benchtime for real numbers.
package repro

import (
	"testing"

	"repro/internal/des"
	"repro/internal/fluid"
)

const (
	fluidBenchResources = 100  // independent channels (disks, links)
	fluidBenchActs      = 1000 // concurrent activities at peak
	fluidBenchRounds    = 3    // sequential transfers per process
)

// BenchmarkFluidChurn is the ISSUE 2 headline scenario: 1000 concurrent
// activities spread over 100 independent resources, with start/completion
// churn as each process runs several back-to-back transfers. The full-solve
// implementation re-ran progressive filling over every resource and every
// activity on each of the ~6000 events; the component solver only touches
// the ~10 activities sharing the affected resource.
func BenchmarkFluidChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := des.NewKernel()
		s := fluid.NewSystem(k)
		res := make([]*fluid.Resource, fluidBenchResources)
		for r := range res {
			// Varied capacities so progressive filling cannot freeze all
			// resources in one lucky round.
			res[r] = s.NewResource("disk", 100+float64(r))
		}
		for a := 0; a < fluidBenchActs; a++ {
			a := a
			r := res[a%fluidBenchResources]
			k.Spawn("app", func(p *des.Proc) {
				for j := 0; j < fluidBenchRounds; j++ {
					// Varied sizes so completions interleave instead of
					// collapsing into a handful of simultaneous batches.
					s.Transfer(1000+float64(13*a+7*j), r).Await(p)
				}
			})
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		if s.InFlight() != 0 {
			b.Fatalf("in-flight = %d, want 0", s.InFlight())
		}
	}
}

// BenchmarkFluidComponents measures event cost isolation between unrelated
// components: 100 single-activity components (one process per private
// resource, many short sequential transfers). Independent disks must not
// pay for each other's events.
func BenchmarkFluidComponents(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := des.NewKernel()
		s := fluid.NewSystem(k)
		for r := 0; r < fluidBenchResources; r++ {
			r := r
			own := s.NewResource("disk", 50+float64(r))
			k.Spawn("app", func(p *des.Proc) {
				for j := 0; j < 50; j++ {
					s.Transfer(100+float64(3*r+j), own).Await(p)
				}
			})
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		if s.InFlight() != 0 {
			b.Fatalf("in-flight = %d, want 0", s.InFlight())
		}
	}
}

// BenchmarkFluidSharedChurn is the one-big-component shape of perfbench's
// concurrent-local workload: 64 processes run back-to-back transfers that
// each cross one shared memory channel and one shared disk channel, so every
// start and completion re-solves a component holding every live activity.
// It isolates the per-solve cost of ordering that component.
func BenchmarkFluidSharedChurn(b *testing.B) {
	const procs, rounds = 64, 50
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := des.NewKernel()
		s := fluid.NewSystem(k)
		mem := s.NewResource("mem", 4812e6)
		disk := s.NewResource("disk", 465e6)
		for a := 0; a < procs; a++ {
			a := a
			k.Spawn("app", func(p *des.Proc) {
				for j := 0; j < rounds; j++ {
					// Varied sizes so completions interleave and the shared
					// lists are churned by swap-removal.
					bytes := 16e6 + float64((37*a+11*j)%64)*1e5
					s.Start(bytes, 0, fluid.Use{Res: mem, Coef: 1}, fluid.Use{Res: disk, Coef: 1}).Await(p)
				}
			})
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		if s.InFlight() != 0 {
			b.Fatalf("in-flight = %d, want 0", s.InFlight())
		}
	}
}

// BenchmarkDESTimerChurn is the scheduleNext pattern: a long-lived
// simulation keeps one "next completion" timer alive by canceling and
// rescheduling it on nearly every event. Before Cancel unlinked events
// from the heap, every canceled timer stayed queued until its far-future
// deadline, so the heap grew with the number of cancels rather than the
// number of live timers.
func BenchmarkDESTimerChurn(b *testing.B) {
	const churn = 100000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := des.NewKernel()
		fired := 0
		var next des.Timer
		var step func()
		n := 0
		step = func() {
			next.Cancel() // previous far-future completion is now stale
			next = k.After(1e9+float64(n), func() { fired++ })
			if n++; n < churn {
				k.After(1e-3, step)
			} else {
				next.Cancel()
			}
		}
		k.After(0, step)
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		if fired != 0 {
			b.Fatalf("fired = %d, want 0 (every completion canceled)", fired)
		}
	}
}

// BenchmarkDESHandoff measures process handoffs, the other half of every
// simulated I/O step: 16 pairs of processes (32 in all) ping-pong over two
// reused Futures per pair, each side yielding with Sleep(0) before it
// hands over. One op is one round trip per pair. Wakeups are pooled events
// that carry the process, so allocs/op falls to the spawn cost amortized
// over b.N rounds.
func BenchmarkDESHandoff(b *testing.B) {
	const pairs = 16
	b.ReportAllocs()
	k := des.NewKernel()
	for i := 0; i < pairs; i++ {
		toA, toB := des.NewFuture[int](k), des.NewFuture[int](k)
		k.Spawn("ping", func(p *des.Proc) {
			for n := 0; n < b.N; n++ {
				p.Sleep(0)
				toB.Set(n)
				toA.Get(p)
				toA.Reset()
			}
		})
		k.Spawn("pong", func(p *des.Proc) {
			for n := 0; n < b.N; n++ {
				toB.Get(p)
				toB.Reset()
				p.Sleep(0)
				toA.Set(n)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
