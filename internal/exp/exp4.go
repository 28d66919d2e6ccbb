package exp

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// Exp4Result compares the Nighres workflow across stacks (Fig 6).
type Exp4Result struct {
	Ops       []string
	Durations map[Stack][]float64
	Errors    map[Stack][]metrics.ErrRow
	MeanErr   map[Stack]float64
}

// exp4Stacks orders the compared stacks; a cell's Coord.I indexes it.
var exp4Stacks = []Stack{StackReal, StackCacheless, StackCache}

// exp4Args parameterizes one Nighres cell.
type exp4Args struct {
	Stack Stack `json:"stack"`
}

// exp4Payload is one stack's op durations.
type exp4Payload struct {
	Durations []float64 `json:"durations"`
}

func init() {
	grid.RegisterCell("exp4", func(a exp4Args) (any, error) { return runDocCell(a) })
}

// Exp4Cells enumerates the Nighres experiment: one cell per stack.
func Exp4Cells(section string) []grid.Spec {
	specs := make([]grid.Spec, len(exp4Stacks))
	for i, st := range exp4Stacks {
		specs[i] = grid.NewSpec("exp4", grid.Coord{Section: section, I: i},
			fmt.Sprintf("exp4 nighres %s", st),
			costGB(workload.NighresInputSize, 4), exp4Args{Stack: st})
	}
	return specs
}

// MergeExp4 assembles the per-stack durations and computes the Fig 6 rows.
func MergeExp4(ps []grid.Payload) (*Exp4Result, error) {
	if err := wantCells(ps, len(exp4Stacks)); err != nil {
		return nil, fmt.Errorf("exp4: %w", err)
	}
	res := &Exp4Result{
		Ops:       workload.NighresOps(),
		Durations: map[Stack][]float64{},
		Errors:    map[Stack][]metrics.ErrRow{},
		MeanErr:   map[Stack]float64{},
	}
	pays, err := decodeAll[exp4Payload](ps)
	if err != nil {
		return nil, err
	}
	for i, pay := range pays {
		res.Durations[exp4Stacks[ps[i].Coord.I]] = pay.Durations
	}
	real := res.Durations[StackReal]
	for _, st := range []Stack{StackCacheless, StackCache} {
		rows := metrics.Errors(res.Ops, real, res.Durations[st])
		res.Errors[st] = rows
		res.MeanErr[st] = metrics.MeanErr(rows)
	}
	return res, nil
}

// doc runs the Nighres workflow once on the stack's local platform.
func (a exp4Args) doc() (*scenario.Doc, scenario.RunOpts, error) {
	d, err := NighresDoc(a.Stack)
	return d, scenario.RunOpts{}, err
}

// NighresDoc is the document of one Fig 6 cell: the Nighres workflow once
// on stack st's local platform, on the host "node0". For StackReal that
// host runs the linuxref model.
func NighresDoc(st Stack) (*scenario.Doc, error) {
	d, err := stackDoc("exp4 nighres "+string(st), st, false)
	if err != nil {
		return nil, err
	}
	addWorkload(d, scenario.WorkloadDoc{Name: "nighres", Kind: "nighres"})
	return d, nil
}

func (exp4Args) payload(res *scenario.Result) any {
	return &exp4Payload{Durations: opDurations(res.Sim.Log, workload.NighresOps())}
}
