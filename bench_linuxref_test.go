// BenchmarkLinuxref*: the reference stack (internal/linuxref) under
// concurrent writers, the cells that dominate the experiment grid's run
// time. Besides ns/op it reports reclaim work as exact per-run counts:
// visits/op (folios reclaim scans examined) against decisions/op (folios
// they evicted or promoted). A reclaim that re-walks the dirty and
// write-protected prefix of the inactive list shows as visits/op far above
// decisions/op.
//
// CI runs them with -benchtime=1x as a smoke test; run them with the
// default benchtime for real numbers.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/linuxref"
	"repro/internal/units"
	"repro/internal/workload"
)

// BenchmarkLinuxrefConcurrentWrites runs 16 concurrent synthetic pipelines
// (read, compute, write, three times) on 6 GB files on the Exp 2
// ground-truth platform: enough data to keep reclaim running while 16 files
// are open for writing.
func BenchmarkLinuxrefConcurrentWrites(b *testing.B) {
	const n, size = 16, 6 * units.GB
	b.ReportAllocs()
	var st linuxref.ReclaimStats
	for i := 0; i < b.N; i++ {
		rig, model, err := exp.NewLocalReal(0)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < n; j++ {
			in := workload.SyntheticFiles(j)[0]
			if _, err := rig.Part.CreateSized(in, size); err != nil {
				b.Fatal(err)
			}
			if err := rig.Sim.NS.Place(in, rig.Part); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < n; j++ {
			files := workload.SyntheticFiles(j)
			rig.Sim.SpawnApp(rig.Host, j, fmt.Sprintf("app%d", j), func(a *engine.App) error {
				return workload.RunSynthetic(&workload.EngineRunner{App: a, Part: rig.Part}, workload.SyntheticSpec{
					Size: size, CPU: workload.SyntheticCPU(size), Files: files,
				})
			})
		}
		if err := rig.Sim.Run(); err != nil {
			b.Fatal(err)
		}
		st = model.ReclaimStats()
	}
	b.ReportMetric(float64(st.Visits), "visits/op")
	b.ReportMetric(float64(st.Evictions+st.Promotions), "decisions/op")
}
