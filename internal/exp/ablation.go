package exp

import (
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/textplot"
	"repro/internal/units"
	"repro/internal/workload"
)

// AblationRow reports one model variant's Exp 1 accuracy.
type AblationRow struct {
	Name    string
	MeanErr float64 // vs the standard real proxy (%)
	Note    string
}

// AblationResult collects the design-choice study.
type AblationResult struct {
	Size int64
	Rows []AblationRow
}

// ablationVariant is one configuration of the page-cache model in the
// design-choice study.
type ablationVariant struct {
	name, note string
	measured   bool   // Table III's measured asymmetric bandwidths
	protect    bool   // blocks of files open for writing are not evicted
	sharedDisk bool   // reads and writes share one disk channel
	chunk      string // I/O granularity ("": the paper's 100 MB)
}

// ablationVariants lists the studied design choices:
//
//   - symmetric averaged bandwidths (the paper's SimGrid 3.25 constraint)
//     vs measured asymmetric bandwidths (the paper's anticipated fix);
//   - eviction protection for open-for-write files (the kernel heuristic
//     the paper could not model) off vs on;
//   - chunk-size sensitivity;
//   - split vs shared disk channels.
//
// Cells reference variants by name, so the list is the lookup table a cell
// resolves its variant through.
func ablationVariants() []ablationVariant {
	return []ablationVariant{
		{name: "paper default (symmetric bw)", note: "baseline configuration"},
		{name: "asymmetric bandwidths", note: "paper's anticipated SimGrid improvement", measured: true},
		{name: "evict-protects-open-writes", note: "kernel heuristic the paper couldn't model", protect: true},
		{name: "asymmetric + protection", note: "both fixes combined", measured: true, protect: true},
		{name: "chunk 10 MB", note: "finer I/O granularity", chunk: "10MB"},
		{name: "chunk 1 GB", note: "coarser I/O granularity", chunk: "1GB"},
		{name: "shared disk channel", note: "reads and writes contend", sharedDisk: true},
	}
}

// ablationReference names the real-proxy reference cell.
const ablationReference = "real reference"

// ablationArgs parameterizes one ablation cell: the reference run or one
// named variant at the given size.
type ablationArgs struct {
	Size    int64  `json:"size"`
	Variant string `json:"variant"`
}

// ablationPayload is one run's op durations.
type ablationPayload struct {
	Durations []float64 `json:"durations"`
}

func init() {
	grid.RegisterCell("ablation", func(a ablationArgs) (any, error) { return runDocCell(a) })
}

// AblationCells enumerates the study: the reference run at Coord.I 0,
// the variants after it in table order.
func AblationCells(section string, size int64) []grid.Spec {
	specs := []grid.Spec{grid.NewSpec("ablation", grid.Coord{Section: section, I: 0},
		"ablation "+ablationReference, costGB(size, 1),
		ablationArgs{Size: size, Variant: ablationReference})}
	for i, v := range ablationVariants() {
		specs = append(specs, grid.NewSpec("ablation", grid.Coord{Section: section, I: i + 1},
			"ablation "+v.name, costGB(size, 1),
			ablationArgs{Size: size, Variant: v.name}))
	}
	return specs
}

// MergeAblation scores every variant against the reference run.
func MergeAblation(size int64, ps []grid.Payload) (*AblationResult, error) {
	variants := ablationVariants()
	if err := wantCells(ps, len(variants)+1); err != nil {
		return nil, fmt.Errorf("ablation: %w", err)
	}
	pays, err := decodeAll[ablationPayload](ps)
	if err != nil {
		return nil, err
	}
	ops := workload.SyntheticOps()
	real := pays[0].Durations
	res := &AblationResult{Size: size}
	for i, v := range variants {
		rows := metrics.Errors(ops, real, pays[i+1].Durations)
		res.Rows = append(res.Rows, AblationRow{Name: v.name, MeanErr: metrics.MeanErr(rows), Note: v.note})
	}
	return res, nil
}

// doc runs the synthetic pipeline once on the reference stack or on the
// named variant of the page-cache model's local platform.
func (a ablationArgs) doc() (*scenario.Doc, scenario.RunOpts, error) {
	name := "ablation " + a.Variant
	var d *scenario.Doc
	if a.Variant == ablationReference {
		d, _ = stackDoc(name, StackReal, false) // every Stack constant has a document
	}
	for _, v := range ablationVariants() {
		if v.name == a.Variant {
			d = paperDoc(name, engine.ModeWriteback, v.measured, false)
			h := &d.Platform.Hosts[0]
			h.EvictExcludesOpenWrites = v.protect
			h.Disks[0].SharedChannel = v.sharedDisk
			d.Chunk = v.chunk
		}
	}
	if d == nil {
		return nil, scenario.RunOpts{}, fmt.Errorf("ablation: unknown variant %q", a.Variant)
	}
	addSynthetic(d, 1, a.Size, 0, 0)
	return d, scenario.RunOpts{}, nil
}

func (ablationArgs) payload(res *scenario.Result) any {
	return &ablationPayload{Durations: opDurations(res.Sim.Log, workload.SyntheticOps())}
}

// Render prints the ablation table.
func (r *AblationResult) Render(w io.Writer) {
	fmt.Fprintf(w, "== Ablations (Exp 1 workload, %s): mean error vs real proxy ==\n", units.FormatBytes(r.Size))
	t := &textplot.Table{Header: []string{"variant", "mean err (%)", "note"}}
	for _, row := range r.Rows {
		t.Add(row.Name, fmt.Sprintf("%.1f", row.MeanErr), row.Note)
	}
	t.Render(w)
}
