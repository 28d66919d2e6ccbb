package linuxref_test

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/linuxref"
	"repro/internal/units"
	"repro/internal/workload"
)

// runConcurrentWriters runs n concurrent synthetic pipelines on size-byte
// files on the Exp 2 ground-truth platform and returns its reference model.
func runConcurrentWriters(n int, size int64) (*linuxref.Model, error) {
	rig, model, err := exp.NewLocalReal(0)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		in := workload.SyntheticFiles(i)[0]
		if _, err := rig.Part.CreateSized(in, size); err != nil {
			return nil, err
		}
		if err := rig.Sim.NS.Place(in, rig.Part); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		files := workload.SyntheticFiles(i)
		rig.Sim.SpawnApp(rig.Host, i, fmt.Sprintf("app%d", i), func(a *engine.App) error {
			return workload.RunSynthetic(&workload.EngineRunner{App: a, Part: rig.Part}, workload.SyntheticSpec{
				Size: size, CPU: workload.SyntheticCPU(size), Files: files,
			})
		})
	}
	return model, rig.Sim.Run()
}

// TestReclaimVisitsBoundedByDecisions gates reclaim work on an exact,
// deterministic count: under 16 concurrent writers, reclaim passes may
// examine only a few folios per folio they evict or promote. A scan that
// re-walks the dirty and write-protected prefix of the inactive list on
// every call exceeds this bound by two orders of magnitude.
func TestReclaimVisitsBoundedByDecisions(t *testing.T) {
	model, err := runConcurrentWriters(16, 6*units.GB)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := model.ReclaimStats()
	t.Logf("reclaim work: %+v", st)
	decisions := st.Evictions + st.Promotions
	if decisions == 0 {
		t.Fatal("workload never reclaimed")
	}
	if bound := 4*decisions + st.Scans; st.Visits > bound {
		t.Fatalf("%d folio visits for %d evictions+promotions over %d scans, want ≤ %d",
			st.Visits, decisions, st.Scans, bound)
	}
}
