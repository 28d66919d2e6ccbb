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
	"testing"

	"repro/internal/exp"
	"repro/internal/linuxref"
	"repro/internal/scenario"
	"repro/internal/units"
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
		d, err := exp.ConcurrentDoc(n, size, exp.StackReal)
		if err != nil {
			b.Fatal(err)
		}
		res, err := scenario.Run(d, scenario.RunOpts{})
		if err == nil {
			err = res.WorkloadErr()
		}
		if err != nil {
			b.Fatal(err)
		}
		st = res.Hosts["node0"].Model.(*linuxref.Model).ReclaimStats()
	}
	b.ReportMetric(float64(st.Visits), "visits/op")
	b.ReportMetric(float64(st.Evictions+st.Promotions), "decisions/op")
}
