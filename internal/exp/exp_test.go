package exp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/units"
)

// These tests assert the paper's qualitative claims (the "shape" of every
// figure) on reduced-scale runs, so the full evaluation in cmd/experiments
// is continuously verified by `go test`.

// runMerged runs specs on pool opts and merges their payloads, failing the
// test on the first cell or merge error.
func runMerged[R any](t *testing.T, specs []grid.Spec, opts grid.Options, merge func([]grid.Payload) (R, error)) R {
	t.Helper()
	ps, err := RunCells(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := merge(ps)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func exp1(t *testing.T, size int64) *Exp1Result {
	t.Helper()
	return runMerged(t, Exp1Cells("exp1", size), grid.Options{},
		func(ps []grid.Payload) (*Exp1Result, error) { return MergeExp1(size, ps) })
}

func concurrent(t *testing.T, remote bool, levels []int, reps int) *ConcurrentResult {
	t.Helper()
	return runMerged(t, ConcurrentCells("concurrent", remote, 3*units.GB, levels, reps), grid.Options{},
		func(ps []grid.Payload) (*ConcurrentResult, error) { return MergeConcurrent(remote, levels, reps, ps) })
}

// simTime runs Fig 8 on a one-worker pool: it measures time, and
// co-scheduled cells would contend.
func simTime(t *testing.T, levels []int) *SimTimeResult {
	t.Helper()
	return runMerged(t, Fig8Cells("fig8", levels), grid.Options{Workers: 1},
		func(ps []grid.Payload) (*SimTimeResult, error) { return MergeFig8(levels, false, ps) })
}

func TestExp1HeadlineErrorReduction(t *testing.T) {
	for _, gb := range []int64{20, 100} {
		res := exp1(t, gb*units.GB)
		wrench := res.MeanErr[StackCacheless]
		cache := res.MeanErr[StackCache]
		// The paper's headline: the page-cache model reduces error by a
		// large factor (up to 9× in the paper; we require ≥3× to be robust
		// to proxy drift).
		if cache*3 > wrench {
			t.Fatalf("%dGB: cache err %.1f%% not ≪ wrench err %.1f%%", gb, cache, wrench)
		}
		// First read is uncached: every simulator must get it nearly right
		// (paper: "The first read was not impacted").
		if e := res.Errors[StackCache][0].ErrPct; e > 15 {
			t.Fatalf("%dGB: Read 1 error %.1f%%, want small", gb, e)
		}
		if e := res.Errors[StackCacheless][0].ErrPct; e > 15 {
			t.Fatalf("%dGB: cacheless Read 1 error %.1f%%, want small", gb, e)
		}
	}
}

func TestExp1WrenchErrorDropsAt100GB(t *testing.T) {
	// Paper: "WRENCH simulation errors were substantially lower with 100 GB
	// files than with 20 GB files" (part of the data no longer fits in
	// cache, so a cacheless model is less wrong).
	res20 := exp1(t, 20*units.GB)
	res100 := exp1(t, 100*units.GB)
	if res100.MeanErr[StackCacheless] >= res20.MeanErr[StackCacheless] {
		t.Fatalf("wrench err: 20GB=%.0f%% 100GB=%.0f%%, expected decrease",
			res20.MeanErr[StackCacheless], res100.MeanErr[StackCacheless])
	}
	// Conversely the cache models get harder at 100 GB (kernel
	// idiosyncrasies under memory pressure).
	if res100.MeanErr[StackCache] <= res20.MeanErr[StackCache] {
		t.Fatalf("cache err: 20GB=%.0f%% 100GB=%.0f%%, expected increase",
			res20.MeanErr[StackCache], res100.MeanErr[StackCache])
	}
}

func TestExp1IntermediateSizes(t *testing.T) {
	// Paper: "Results with files of 50 GB and 75 GB showed similar
	// behaviors and are not reported for brevity." Verify the claim: the
	// headline reduction holds at those sizes, and errors vary smoothly
	// between the 20 GB and 100 GB regimes.
	for _, gb := range []int64{20, 50, 75, 100} {
		res := exp1(t, gb*units.GB)
		cache, wrench := res.MeanErr[StackCache], res.MeanErr[StackCacheless]
		if cache*3 > wrench {
			t.Fatalf("%dGB: reduction lost (cache %.0f%%, wrench %.0f%%)", gb, cache, wrench)
		}
		if cache > 150 {
			t.Fatalf("%dGB: cache error %.0f%% out of band", gb, cache)
		}
		// Note: the cache error is NOT monotone in size — it dips at
		// 50/75 GB (everything fits comfortably, no pressure effects) and
		// spikes at 100 GB where the kernel's eviction idiosyncrasies
		// appear. The paper reports 50/75 GB as "similar behaviors".
	}
}

func TestExp1PysimAgreesWithEngine(t *testing.T) {
	// The paper validates its WRENCH implementation by agreement with the
	// prototype ("exhibited nearly identical memory profiles"). At 20 GB
	// (no memory pressure) the two must match op-for-op.
	res := exp1(t, 20*units.GB)
	for i, op := range res.Ops {
		p := res.Durations[StackPysim][i]
		c := res.Durations[StackCache][i]
		diff := p - c
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.05*(p+c)/2+1e-9 {
			t.Fatalf("%s: pysim %.2f vs engine %.2f", op, p, c)
		}
	}
}

func TestExp1MemoryProfilesConsistent(t *testing.T) {
	res := exp1(t, 20*units.GB)
	for _, st := range []Stack{StackReal, StackPysim, StackCache} {
		ms := res.Mem[st]
		if ms == nil || len(ms.Points) == 0 {
			t.Fatalf("%s: no memory profile", st)
		}
		for _, p := range ms.Points {
			if p.Used != p.Anon+p.Cache {
				t.Fatalf("%s: used != anon+cache at t=%v", st, p.T)
			}
			if p.Dirty > p.Cache {
				t.Fatalf("%s: dirty > cache at t=%v", st, p.T)
			}
		}
		// Peak usage reaches at least 2× the file size (anon + cache).
		if ms.MaxUsed() < 40*units.GB {
			t.Fatalf("%s: peak used %d too small", st, ms.MaxUsed())
		}
	}
}

func TestExp1CacheContentsAllFilesCached20GB(t *testing.T) {
	// Paper Fig 4c: "With 20 GB files, the simulated cache content exactly
	// matched reality, since all files fitted in page cache."
	res := exp1(t, 20*units.GB)
	for _, st := range []Stack{StackReal, StackCache} {
		last := res.Snaps[st].Snaps[len(res.Snaps[st].Snaps)-1]
		var total int64
		for _, v := range last.ByFile {
			total += v
		}
		if total < 75*units.GB { // 4 files × 20 GB, allowing folio rounding
			t.Fatalf("%s: final cache %d, want ≈80GB", st, total)
		}
	}
}

func TestExp2Shapes(t *testing.T) {
	res := concurrent(t, false, []int{1, 16, 32}, 2)
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	// Reads: cache model tracks real; cacheless hugely over.
	if last.ReadTime[StackCacheless] < 2*last.ReadTime[StackReal] {
		t.Fatalf("cacheless read %.0f not ≫ real %.0f", last.ReadTime[StackCacheless], last.ReadTime[StackReal])
	}
	relErr := func(sim, real float64) float64 {
		d := sim - real
		if d < 0 {
			d = -d
		}
		return d / real
	}
	if e := relErr(last.ReadTime[StackCache], last.ReadTime[StackReal]); e > 0.5 {
		t.Fatalf("cache read err %.2f at N=32", e)
	}
	// Monotonic growth with N for every stack.
	for _, st := range []Stack{StackReal, StackCacheless, StackCache} {
		if last.ReadTime[st] <= first.ReadTime[st] {
			t.Fatalf("%s read time not growing with N", st)
		}
	}
	// Real min–max interval brackets the mean.
	if last.RealReadMin > last.ReadTime[StackReal] || last.RealReadMax < last.ReadTime[StackReal] {
		t.Fatal("repetition interval does not bracket the mean")
	}
}

func TestExp3WritesDiskBoundForAll(t *testing.T) {
	res := concurrent(t, true, []int{1, 16}, 2)
	// Paper: NFS server is writethrough, so page-cache simulation
	// "manifested only for reads" — both simulators put writes at disk
	// speed, and both slightly underestimate the real writes.
	for _, p := range res.Points {
		cacheW, wrenchW := p.WriteTime[StackCache], p.WriteTime[StackCacheless]
		diff := cacheW - wrenchW
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.05*wrenchW {
			t.Fatalf("N=%d: write times diverge: cache %.0f vs wrench %.0f", p.N, cacheW, wrenchW)
		}
		if p.WriteTime[StackReal] < wrenchW {
			t.Fatalf("N=%d: real write %.0f faster than simulated %.0f", p.N, p.WriteTime[StackReal], wrenchW)
		}
	}
	// Reads: cache model must beat the baseline.
	last := res.Points[len(res.Points)-1]
	if last.ReadTime[StackCacheless] < 2*last.ReadTime[StackCache] {
		t.Fatalf("NFS reads: wrench %.0f not ≫ cache %.0f", last.ReadTime[StackCacheless], last.ReadTime[StackCache])
	}
}

func TestExp4NighresErrorReduction(t *testing.T) {
	res := runMerged(t, Exp4Cells("exp4"), grid.Options{}, MergeExp4)
	if res.MeanErr[StackCache]*3 > res.MeanErr[StackCacheless] {
		t.Fatalf("cache %.0f%% not ≪ wrench %.0f%%",
			res.MeanErr[StackCache], res.MeanErr[StackCacheless])
	}
	// Paper: "The first read happened entirely from disk and was therefore
	// very accurately simulated by both."
	if e := res.Errors[StackCacheless][0].ErrPct; e > 15 {
		t.Fatalf("wrench Read 1 err %.1f%%", e)
	}
	if e := res.Errors[StackCache][0].ErrPct; e > 15 {
		t.Fatalf("cache Read 1 err %.1f%%", e)
	}
}

func TestSimTimeScalesLinearly(t *testing.T) {
	res := simTime(t, []int{1, 8, 16, 24, 32})
	for _, s := range res.Series {
		if len(s.N) != 5 {
			t.Fatalf("%s: %d points", s.Label, len(s.N))
		}
		if s.Fit.Slope < 0 {
			t.Fatalf("%s: negative slope %v", s.Label, s.Fit.Slope)
		}
		// Wall times are tiny but must grow overall.
		if s.Seconds[4] <= s.Seconds[0] {
			t.Fatalf("%s: no growth: %v", s.Label, s.Seconds)
		}
	}
}

func TestSimTimeTimingsGate(t *testing.T) {
	res := simTime(t, []int{1, 2})
	var render, csv strings.Builder
	res.Render(&render)
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	// Default output carries no wall-clock numbers: byte-for-byte diffable.
	if strings.Contains(csv.String(), "seconds") || !strings.Contains(csv.String(), "configuration,n\n") {
		t.Fatalf("default CSV leaks timings:\n%s", csv.String())
	}
	if !strings.Contains(render.String(), "timings omitted") {
		t.Fatalf("default render:\n%s", render.String())
	}
	res.Timings = true
	render.Reset()
	csv.Reset()
	res.Render(&render)
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "configuration,n,seconds") {
		t.Fatalf("-timings CSV missing seconds:\n%s", csv.String())
	}
	if !strings.Contains(render.String(), "fit") || !strings.Contains(render.String(), "paper slopes") {
		t.Fatalf("-timings render missing fits:\n%s", render.String())
	}
}

func TestAblationOrdering(t *testing.T) {
	res := runMerged(t, AblationCells("ablations", 100*units.GB), grid.Options{},
		func(ps []grid.Payload) (*AblationResult, error) { return MergeAblation(100*units.GB, ps) })
	byName := map[string]float64{}
	for _, r := range res.Rows {
		byName[r.Name] = r.MeanErr
	}
	base := byName["paper default (symmetric bw)"]
	// The paper's two identified error sources must each help, and combined
	// must help the most.
	if byName["asymmetric bandwidths"] >= base {
		t.Fatalf("asymmetric bw did not help: %.1f vs %.1f", byName["asymmetric bandwidths"], base)
	}
	if byName["evict-protects-open-writes"] >= base {
		t.Fatalf("protection did not help: %.1f vs %.1f", byName["evict-protects-open-writes"], base)
	}
	both := byName["asymmetric + protection"]
	if both >= byName["asymmetric bandwidths"] || both >= byName["evict-protects-open-writes"] {
		t.Fatalf("combined fix not best: %.1f", both)
	}
	// Chunk size is a robustness knob, not an accuracy one.
	if d := byName["chunk 10 MB"] - base; d > 5 || d < -5 {
		t.Fatalf("chunk size unexpectedly matters: %.1f vs %.1f", byName["chunk 10 MB"], base)
	}
}

func TestPolicyAblationQuick(t *testing.T) {
	res := runMerged(t, PolicyCells("policies", true), grid.Options{},
		func(ps []grid.Payload) (*PolicyResult, error) { return MergePolicy(true, ps) })
	if len(res.Policies) < 4 {
		t.Fatalf("expected ≥4 registered policies, got %v", res.Policies)
	}
	if len(res.Rows) != len(res.Policies)*len(res.Workloads) {
		t.Fatalf("grid incomplete: %d rows for %d policies × %d workloads",
			len(res.Rows), len(res.Policies), len(res.Workloads))
	}
	byCell := map[string]map[string]PolicyRow{}
	for _, row := range res.Rows {
		if row.Makespan <= 0 {
			t.Fatalf("%s/%s: non-positive makespan", row.Workload, row.Policy)
		}
		if row.HitRatio < 0 || row.HitRatio > 1 {
			t.Fatalf("%s/%s: hit ratio %v out of [0,1]", row.Workload, row.Policy, row.HitRatio)
		}
		if byCell[row.Workload] == nil {
			byCell[row.Workload] = map[string]PolicyRow{}
		}
		byCell[row.Workload][row.Policy] = row
	}
	// Without eviction pressure (4×20 GB well inside 250 GiB) the policy
	// cannot matter: every policy must produce the same makespan.
	base := byCell["synthetic-20gb"]["lru"].Makespan
	for p, row := range byCell["synthetic-20gb"] {
		if row.Makespan != base {
			t.Fatalf("no-pressure run differs under %s: %v vs %v", p, row.Makespan, base)
		}
	}
	// Under pressure (32 GiB node) victim choice is visible: at least two
	// policies must disagree.
	distinct := map[float64]bool{}
	for _, row := range byCell["synthetic-20gb-32gbram"] {
		distinct[row.Makespan] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("pressured run shows no policy effect: %v", byCell["synthetic-20gb-32gbram"])
	}

	var b strings.Builder
	res.Render(&b)
	if !strings.Contains(b.String(), "Policy ablation") {
		t.Fatal("render broken")
	}
	b.Reset()
	if err := res.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "workload,policy,makespan_s,read_hit_ratio") {
		t.Fatalf("csv header: %q", b.String()[:40])
	}
}

func TestRendersProduceOutput(t *testing.T) {
	res1 := exp1(t, 20*units.GB)
	var b strings.Builder
	res1.Render(&b)
	res1.RenderMemProfiles(&b)
	res1.RenderCacheContents(&b)
	out := b.String()
	for _, want := range []string{"Fig 4a", "Fig 4b", "Fig 4c", "wrench-cache", "paper"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
	res2 := concurrent(t, false, []int{1, 4}, 1)
	b.Reset()
	res2.Render(&b)
	if !strings.Contains(b.String(), "Fig 5") {
		t.Fatal("Fig 5 render broken")
	}
	b.Reset()
	if err := res2.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "n,read_real") {
		t.Fatalf("csv header: %q", b.String()[:40])
	}
}

func TestConcurrencyLevels(t *testing.T) {
	ls := ConcurrencyLevels(32, 1)
	if len(ls) != 32 || ls[0] != 1 || ls[31] != 32 {
		t.Fatalf("levels = %v", ls)
	}
	ls = ConcurrencyLevels(32, 5)
	if ls[len(ls)-1] != 32 {
		t.Fatalf("stride levels must end at max: %v", ls)
	}
}

func TestConcurrentRunsDeterministic(t *testing.T) {
	// The DES kernel, fluid model and engine must produce bit-identical
	// results across runs — reproducibility is one of the paper's stated
	// motivations for simulation.
	type obs struct {
		concurrentPayload
		makespan float64
	}
	run := func(a concurrentArgs) obs {
		d, opts, err := a.doc()
		if err != nil {
			t.Fatal(err)
		}
		res, err := runDoc(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		return obs{*concurrentPayloadOf(res), res.Makespan}
	}
	cache := concurrentArgs{N: 8, Size: 3 * units.GB, Stack: StackCache}
	if o1, o2 := run(cache), run(cache); o1 != o2 {
		t.Fatalf("non-deterministic: %+v vs %+v", o1, o2)
	}
	// The jittered real proxy is deterministic per repetition seed too.
	realProxy := func(rep int) float64 {
		return run(concurrentArgs{N: 4, Size: 3 * units.GB, Stack: StackReal, Rep: rep, Jitter: 0.03}).makespan
	}
	if realProxy(1) != realProxy(1) {
		t.Fatal("real proxy not deterministic for fixed rep")
	}
	if realProxy(1) == realProxy(2) {
		t.Fatal("repetition jitter has no effect")
	}
}

func TestPaperConstants(t *testing.T) {
	p := Paper()
	if p.Exp1WrenchErr != 345 || p.Exp1CacheErr != 39 || p.Exp4WrenchErr != 337 {
		t.Fatalf("paper constants drifted: %+v", p)
	}
}

func TestWritebackAblationQuick(t *testing.T) {
	res := runMerged(t, WritebackCells("writebacks", true), grid.Options{},
		func(ps []grid.Payload) (*WritebackResult, error) { return MergeWriteback(true, ps) })
	if len(res.Policies) < 4 {
		t.Fatalf("expected ≥4 registered writeback policies, got %v", res.Policies)
	}
	// Grid: workloads × policies × {bg off, bg on}.
	if len(res.Rows) != 2*len(res.Policies)*len(res.Workloads) {
		t.Fatalf("grid incomplete: %d rows for %d policies × %d workloads × 2 bg ratios",
			len(res.Rows), len(res.Policies), len(res.Workloads))
	}
	type cell struct {
		wb string
		bg float64
	}
	byCell := map[string]map[cell]WritebackRow{}
	for _, row := range res.Rows {
		if row.Makespan <= 0 {
			t.Fatalf("%s/%s: non-positive makespan", row.Workload, row.Writeback)
		}
		if row.Flushed <= 0 {
			t.Fatalf("%s/%s: nothing flushed in a write-heavy workload", row.Workload, row.Writeback)
		}
		if row.Throttled < 0 || row.HitRatio < 0 || row.HitRatio > 1 {
			t.Fatalf("%s/%s: bad observables %+v", row.Workload, row.Writeback, row)
		}
		if byCell[row.Workload] == nil {
			byCell[row.Workload] = map[cell]WritebackRow{}
		}
		byCell[row.Workload][cell{row.Writeback, row.BGRatio}] = row
	}
	// The write burst under memory pressure throttles writers under every
	// policy, and background writeback must change the outcome vs the
	// paper's single-threshold model.
	for _, wb := range res.Policies {
		off := byCell["writeburst-skewed24gb-32gbram"][cell{wb, 0}]
		on := byCell["writeburst-skewed24gb-32gbram"][cell{wb, 0.10}]
		if off.Throttled <= 0 {
			t.Fatalf("%s: pressured write burst never throttled", wb)
		}
		if off.Makespan == on.Makespan && off.Flushed == on.Flushed {
			t.Fatalf("%s: background writeback changed nothing", wb)
		}
	}
	// Flush order must be visible somewhere: at least two writeback
	// policies disagree on some observable of some cell.
	distinct := map[string]bool{}
	for _, row := range res.Rows {
		if row.BGRatio != 0 {
			continue
		}
		distinct[fmt.Sprintf("%s/%.3f/%d/%.3f", row.Workload, row.Makespan, row.Flushed, row.HitRatio)] = true
	}
	if len(distinct) <= len(res.Workloads) {
		t.Fatalf("no writeback-policy effect anywhere: %v", distinct)
	}
	// Hit-ratio evolution was recorded for the local cells.
	if len(res.Series) == 0 {
		t.Fatal("no hit-ratio series recorded")
	}
	for _, s := range res.Series {
		if len(s.Points) == 0 {
			t.Fatalf("empty hit series for %s/%s", s.Workload, s.Writeback)
		}
	}

	var b strings.Builder
	res.Render(&b)
	if !strings.Contains(b.String(), "Writeback ablation") {
		t.Fatal("render broken")
	}
	b.Reset()
	if err := res.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "workload,writeback,dirty_background_ratio,makespan_s,flushed_bytes,write_throttle_s,read_hit_ratio") {
		t.Fatalf("csv header: %q", b.String()[:60])
	}
	b.Reset()
	if err := res.WriteSeriesCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "workload,writeback,dirty_background_ratio,t,hit_bytes,miss_bytes,hit_ratio") {
		t.Fatalf("series csv header: %q", b.String()[:60])
	}
}
