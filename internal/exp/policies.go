package exp

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/scenario"
	"repro/internal/textplot"
	"repro/internal/units"
	"repro/internal/workload"
)

// PolicyRow is one (workload, policy) cell of the policy-ablation study.
type PolicyRow struct {
	Workload string
	Policy   string
	Makespan float64 // simulated seconds until the last operation completes
	HitRatio float64 // cached fraction of application read bytes
}

// PolicyResult collects the replacement-policy ablation: every registered
// cache policy run on the paper's workloads under the writeback model.
type PolicyResult struct {
	Workloads []string
	Policies  []string
	Rows      []PolicyRow
}

// policyWorkload is one placeable workload of the ablation grid. ram
// overrides the paper's 250 GiB node when > 0: the 20 GB pipeline fits the
// paper node entirely, so a reduced-RAM cell is included to put the
// policies under the eviction pressure that actually separates them.
type policyWorkload struct {
	name string
	ram  int64
	cost float64 // relative cell cost for the grid scheduler
	wl   scenario.WorkloadDoc
}

// syntheticPolicyWorkload places `instances` copies of the paper's synthetic
// pipeline (Table I) at the given per-file size.
func syntheticPolicyWorkload(name string, size int64, instances int) policyWorkload {
	return policyWorkload{name: name, cost: costGB(size, instances), wl: scenario.WorkloadDoc{
		Name: "app", Kind: "synthetic", Size: byteStr(size), Instances: instances}}
}

// nighresPolicyWorkload places the four-step Nighres workflow (Table II).
func nighresPolicyWorkload() policyWorkload {
	return policyWorkload{name: "nighres", cost: costGB(workload.NighresInputSize, 4),
		wl: scenario.WorkloadDoc{Name: "nighres", Kind: "nighres"}}
}

// policyWorkloads lists the ablation's workloads; quick thins the grid to
// the 20 GB synthetic (paper node + pressured node) and Nighres runs.
func policyWorkloads(quick bool) []policyWorkload {
	pressured := syntheticPolicyWorkload("synthetic-20gb-32gbram", 20*units.GB, 1)
	pressured.ram = 32 * units.GiB
	workloads := []policyWorkload{
		syntheticPolicyWorkload("synthetic-20gb", 20*units.GB, 1),
		pressured,
		nighresPolicyWorkload(),
	}
	if !quick {
		workloads = append(workloads,
			syntheticPolicyWorkload("synthetic-100gb", 100*units.GB, 1),
			syntheticPolicyWorkload("concurrent-8x3gb", 3*units.GB, 8),
		)
	}
	return workloads
}

// policyWorkloadByName resolves a cell's workload (cells reference
// workloads by name so a spec's args stay plain JSON the cache can key on).
func policyWorkloadByName(name string) (policyWorkload, error) {
	for _, w := range policyWorkloads(false) {
		if w.name == name {
			return w, nil
		}
	}
	return policyWorkload{}, fmt.Errorf("unknown policy workload %q", name)
}

// policyArgs parameterizes one (workload, policy) cell.
type policyArgs struct {
	Workload string `json:"workload"`
	Policy   string `json:"policy"`
}

// policyPayload is one cell's observables.
type policyPayload struct {
	Makespan float64 `json:"makespan"`
	HitRatio float64 `json:"hit_ratio"`
}

func init() {
	grid.RegisterCell("policy", func(a policyArgs) (any, error) { return runDocCell(a) })
}

// doc places the workload on the paper's local platform in writeback
// mode with the cell's replacement policy and the workload's RAM.
func (a policyArgs) doc() (*scenario.Doc, scenario.RunOpts, error) {
	w, err := policyWorkloadByName(a.Workload)
	if err != nil {
		return nil, scenario.RunOpts{}, err
	}
	d := paperDoc("policy ablation "+a.Workload+"/"+a.Policy, engine.ModeWriteback, false, false)
	d.Platform.Hosts[0].CachePolicy = a.Policy
	if w.ram > 0 {
		d.Platform.Hosts[0].RAM = byteStr(w.ram)
	}
	addWorkload(d, w.wl)
	return d, scenario.RunOpts{}, nil
}

func (policyArgs) payload(res *scenario.Result) any {
	return &policyPayload{Makespan: res.Makespan, HitRatio: res.ReadHitRatio(res.Doc.Platform.Hosts[0].Name)}
}

// PolicyCells enumerates the ablation grid: coordinates are
// (workload index, policy index).
func PolicyCells(section string, quick bool) []grid.Spec {
	var specs []grid.Spec
	for wi, w := range policyWorkloads(quick) {
		for pi, policy := range core.PolicyNames() {
			specs = append(specs, grid.NewSpec("policy",
				grid.Coord{Section: section, I: wi, J: pi},
				fmt.Sprintf("policy %s/%s", w.name, policy),
				w.cost, policyArgs{Workload: w.name, Policy: policy}))
		}
	}
	return specs
}

// MergePolicy assembles the grid's rows in (workload, policy) order.
func MergePolicy(quick bool, ps []grid.Payload) (*PolicyResult, error) {
	workloads := policyWorkloads(quick)
	policies := core.PolicyNames()
	if err := wantCells(ps, len(workloads)*len(policies)); err != nil {
		return nil, fmt.Errorf("policy ablation: %w", err)
	}
	pays, err := decodeAll[policyPayload](ps)
	if err != nil {
		return nil, err
	}
	res := &PolicyResult{Policies: policies}
	for wi, w := range workloads {
		res.Workloads = append(res.Workloads, w.name)
		for pi, policy := range policies {
			pay := pays[wi*len(policies)+pi]
			res.Rows = append(res.Rows, PolicyRow{
				Workload: w.name,
				Policy:   policy,
				Makespan: pay.Makespan,
				HitRatio: pay.HitRatio,
			})
		}
	}
	return res, nil
}

// Render prints the ablation as one table per workload, best makespan first
// within each.
func (r *PolicyResult) Render(w io.Writer) {
	fmt.Fprintln(w, "== Policy ablation: makespan and read-hit ratio per cache policy ==")
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, "\n-- %s --\n", wl)
		t := &textplot.Table{Header: []string{"policy", "makespan (s)", "read-hit ratio"}}
		for _, row := range r.Rows {
			if row.Workload != wl {
				continue
			}
			t.Add(row.Policy, fmt.Sprintf("%.1f", row.Makespan), fmt.Sprintf("%.3f", row.HitRatio))
		}
		t.Render(w)
	}
}

// WriteCSV emits "workload,policy,makespan_s,read_hit_ratio" rows.
func (r *PolicyResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "workload,policy,makespan_s,read_hit_ratio"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%.3f,%.4f\n",
			row.Workload, row.Policy, row.Makespan, row.HitRatio); err != nil {
			return err
		}
	}
	return nil
}
