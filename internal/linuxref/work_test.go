package linuxref_test

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/linuxref"
	"repro/internal/scenario"
	"repro/internal/units"
)

// runConcurrentWriters runs the Exp 2 ground-truth cell (the paper's node
// with Table III's measured bandwidths and the linuxref model) with n
// concurrent synthetic pipelines on size-byte files and returns its
// reference model.
func runConcurrentWriters(n int, size int64) (*linuxref.Model, error) {
	d, err := exp.ConcurrentDoc(n, size, exp.StackReal)
	if err != nil {
		return nil, err
	}
	res, err := scenario.Run(d, scenario.RunOpts{})
	if err == nil {
		err = res.WorkloadErr()
	}
	if err != nil {
		return nil, err
	}
	return res.Hosts["node0"].Model.(*linuxref.Model), nil
}

// TestReclaimVisitsBoundedByDecisions gates reclaim work on an exact,
// deterministic count: under 16 concurrent writers, reclaim passes may
// examine only a few folios per folio they evict or promote. A scan that
// re-walks the dirty and write-protected prefix of the inactive list on
// every call exceeds this bound by two orders of magnitude. The counts
// themselves are pinned: a change to how folios are stored, listed or
// queued for writeback must make exactly the same reclaim decisions.
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
	if want := (linuxref.ReclaimStats{Scans: 1927, Visits: 747781, Evictions: 178401, Promotions: 271872}); st != want {
		t.Errorf("reclaim work %+v, want %+v", st, want)
	}
	decisions := st.Evictions + st.Promotions
	if decisions == 0 {
		t.Fatal("workload never reclaimed")
	}
	if bound := 4*decisions + st.Scans; st.Visits > bound {
		t.Fatalf("%d folio visits for %d evictions+promotions over %d scans, want ≤ %d",
			st.Visits, decisions, st.Scans, bound)
	}
}
