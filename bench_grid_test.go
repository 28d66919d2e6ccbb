package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/exp"
	"repro/internal/grid"
	"repro/internal/units"
)

// benchGridSpecs is the fan-out workload: a thinned Fig 5 sweep (12 cells,
// 1 GB files, mixed costs) whose kinds the exp import registers.
func benchGridSpecs() []grid.Spec {
	return exp.ConcurrentCells("bench", false, units.GB, []int{1, 2, 4, 8}, 1)
}

// BenchmarkGridFanout measures the experiment-grid runner draining the same
// cell set with one worker vs GOMAXPROCS workers. The sequential/parallel
// wall-clock ratio is the runner's speedup; the merged bytes are identical
// either way, which the determinism tests assert. perfbench's grid-quick
// workload measures the whole -quick grid.
func BenchmarkGridFanout(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				failed := 0
				stats, err := grid.Run(benchGridSpecs(), grid.Options{Workers: workers}, func(r grid.Result) {
					if r.Err != "" {
						failed++
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				if failed > 0 || stats.Failed > 0 {
					b.Fatalf("%d cells failed", stats.Failed)
				}
			}
		})
	}
}
