package exp

import (
	"fmt"
	"io"

	"repro/internal/grid"
	"repro/internal/units"
)

// Options is what the experiment families' sections depend on: the
// resolved command line of cmd/experiments.
type Options struct {
	Quick    bool  // thin the ablation sweeps
	SizesGB  []int // Exp 1 file sizes in GB, one section each
	Levels   []int // concurrency levels of Exps 2-3 and Fig 8
	Reps     int   // real-proxy repetitions of Exps 2-3
	Timings  bool  // wall-clock fits in Fig 8's output
	Profiles bool  // Fig 4b memory profiles in Exp 1's output
	Contents bool  // Fig 4c cache contents in Exp 1's output
}

// Family is one experiment family of the report: the flag that selects it
// and the sections it contributes, in report order.
type Family struct {
	Flag, Usage string
	InAll       bool // selected by -all, the default selection
	Sections    func(Options) []Section
}

// Families lists every experiment family in report order.
var Families = []Family{
	{Flag: "exp1", Usage: "Exp 1: single-threaded accuracy (Figs 4a-4c)", InAll: true, Sections: exp1Sections},
	{Flag: "exp2", Usage: "Exp 2: concurrent applications, local disk (Fig 5)", InAll: true,
		Sections: func(o Options) []Section { return concurrentSections("exp2", false, "exp2_fig5.csv", o) }},
	{Flag: "exp3", Usage: "Exp 3: concurrent applications, NFS (Fig 7)", InAll: true,
		Sections: func(o Options) []Section { return concurrentSections("exp3", true, "exp3_fig7.csv", o) }},
	{Flag: "exp4", Usage: "Exp 4: Nighres workflow (Fig 6)", InAll: true,
		Sections: func(Options) []Section {
			return familySection("exp4", Exp4Cells("exp4"), MergeExp4, (*Exp4Result).Render, nil)
		}},
	{Flag: "fig8", Usage: "Fig 8: simulation-time scaling", InAll: true,
		Sections: func(o Options) []Section {
			return familySection("fig8", Fig8Cells("fig8", o.Levels),
				func(ps []grid.Payload) (*SimTimeResult, error) { return MergeFig8(o.Levels, o.Timings, ps) },
				(*SimTimeResult).Render,
				func(r *SimTimeResult) []CSV { return []CSV{{"fig8_simtime.csv", r.WriteCSV}} })
		}},
	{Flag: "ablations", Usage: "design-choice ablations", InAll: true,
		Sections: func(Options) []Section {
			return familySection("ablations", AblationCells("ablations", 100*units.GB),
				func(ps []grid.Payload) (*AblationResult, error) { return MergeAblation(100*units.GB, ps) },
				(*AblationResult).Render, nil)
		}},
	{Flag: "policies", Usage: "cache-policy ablation across registered policies (not part of -all)",
		Sections: func(o Options) []Section {
			return familySection("policies", PolicyCells("policies", o.Quick),
				func(ps []grid.Payload) (*PolicyResult, error) { return MergePolicy(o.Quick, ps) },
				(*PolicyResult).Render,
				func(r *PolicyResult) []CSV { return []CSV{{"policy_ablation.csv", r.WriteCSV}} })
		}},
	{Flag: "writebacks", Usage: "writeback-policy ablation across registered writeback policies (not part of -all)",
		Sections: func(o Options) []Section {
			return familySection("writebacks", WritebackCells("writebacks", o.Quick),
				func(ps []grid.Payload) (*WritebackResult, error) { return MergeWriteback(o.Quick, ps) },
				(*WritebackResult).Render,
				func(r *WritebackResult) []CSV {
					return []CSV{{"writeback_ablation.csv", r.WriteCSV}, {"writeback_hitratio.csv", r.WriteSeriesCSV}}
				})
		}},
	{Flag: "devices", Usage: "per-device writeback ablation on a mixed-speed NVMe+HDD host vs the CAWL write cost model (not part of -all)",
		Sections: func(o Options) []Section {
			return familySection("devices", DevicesCells("devices", o.Quick), MergeDevices,
				(*DevicesResult).Render,
				func(r *DevicesResult) []CSV { return []CSV{{"device_ablation.csv", r.WriteCSV}} })
		}},
	{Flag: "ffwd", Usage: "fast-forward speedup/error ablation on repeated-iteration pipelines (not part of -all)",
		Sections: func(o Options) []Section {
			return familySection("ffwd", FFwdCells("ffwd", o.Quick),
				func(ps []grid.Payload) (*FFwdResult, error) { return MergeFFwd(o.Quick, ps) },
				(*FFwdResult).Render,
				func(r *FFwdResult) []CSV { return []CSV{{"ffwd_ablation.csv", r.WriteCSV}} })
		}},
}

// familySection builds a one-section family: its cells, merged into a
// result R that renders followed by the blank line every section ends
// with, plus the CSV files csvs names for it (none when csvs is nil).
func familySection[R any](key string, specs []grid.Spec, merge func([]grid.Payload) (R, error),
	render func(R, io.Writer), csvs func(R) []CSV) []Section {
	return []Section{{Key: key, Specs: specs, Merge: func(ps []grid.Payload) (*Output, error) {
		res, err := merge(ps)
		if err != nil {
			return nil, err
		}
		out := &Output{Render: func(w io.Writer) {
			render(res, w)
			fmt.Fprintln(w)
		}}
		if csvs != nil {
			out.CSVs = csvs(res)
		}
		return out, nil
	}}}
}

// exp1Sections runs Exp 1 once per size, each its own section, with one
// memory-profile CSV per stack that recorded one.
func exp1Sections(o Options) []Section {
	var out []Section
	for _, gb := range o.SizesGB {
		gb, size := gb, int64(gb)*units.GB
		key := fmt.Sprintf("exp1-%dgb", gb)
		out = append(out, familySection(key, Exp1Cells(key, size),
			func(ps []grid.Payload) (*Exp1Result, error) { return MergeExp1(size, ps) },
			func(r *Exp1Result, w io.Writer) {
				r.Render(w)
				if o.Profiles {
					r.RenderMemProfiles(w)
				}
				if o.Contents {
					r.RenderCacheContents(w)
				}
			},
			func(r *Exp1Result) []CSV {
				var csvs []CSV
				for _, st := range exp1Stacks {
					if ms := r.Mem[st]; ms != nil {
						csvs = append(csvs, CSV{fmt.Sprintf("exp1_%dgb_mem_%s.csv", gb, st), ms.WriteCSV})
					}
				}
				return csvs
			})...)
	}
	return out
}

// concurrentSections is Exp 2 (local disk) or Exp 3 (NFS): the Fig 5/7
// sweep over o.Levels on 3 GB files.
func concurrentSections(key string, remote bool, csvName string, o Options) []Section {
	return familySection(key, ConcurrentCells(key, remote, 3*units.GB, o.Levels, o.Reps),
		func(ps []grid.Payload) (*ConcurrentResult, error) {
			return MergeConcurrent(remote, o.Levels, o.Reps, ps)
		},
		(*ConcurrentResult).Render,
		func(r *ConcurrentResult) []CSV { return []CSV{{csvName, r.WriteCSV}} })
}
