package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/pysim"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// Exp1Result holds one single-threaded run comparison (Figs 4a–4c for one
// input size).
type Exp1Result struct {
	Size int64
	Ops  []string
	// Durations[stack][i] is the duration of Ops[i] in seconds.
	Durations map[Stack][]float64
	// Errors[stack] are per-op absolute relative errors vs StackReal (%).
	Errors map[Stack][]metrics.ErrRow
	// MeanErr[stack] averages the per-op errors (the paper's headline).
	MeanErr map[Stack]float64
	// Mem[stack] is the memory profile (Fig 4b).
	Mem map[Stack]*trace.MemSeries
	// Snaps[stack] are the per-op cache contents (Fig 4c; real and cache).
	Snaps map[Stack]*trace.SnapshotLog
}

// exp1Stacks orders the four compared stacks; a cell's Coord.I indexes it.
var exp1Stacks = []Stack{StackReal, StackPysim, StackCacheless, StackCache}

// Exp1Stacks lists the compared stacks in cell order (callers emit one
// memory-profile CSV per stack).
func Exp1Stacks() []Stack { return append([]Stack(nil), exp1Stacks...) }

// exp1Args parameterizes one Exp 1 cell: one (size, stack) run.
type exp1Args struct {
	Size  int64 `json:"size"`
	Stack Stack `json:"stack"`
}

// exp1Payload is one stack's observables.
type exp1Payload struct {
	Durations []float64          `json:"durations"`
	Mem       *trace.MemSeries   `json:"mem,omitempty"`
	Snaps     *trace.SnapshotLog `json:"snaps,omitempty"`
}

func init() {
	grid.RegisterCell("exp1", func(a exp1Args) (any, error) {
		if a.Stack == StackPysim {
			return runExp1Pysim(a.Size)
		}
		return runDocCell(a)
	})
}

// Exp1Cells enumerates Exp 1 at one size: one cell per stack.
func Exp1Cells(section string, size int64) []grid.Spec {
	specs := make([]grid.Spec, len(exp1Stacks))
	for i, st := range exp1Stacks {
		specs[i] = grid.NewSpec("exp1", grid.Coord{Section: section, I: i},
			fmt.Sprintf("exp1 %s %s", units.FormatBytes(size), st),
			costGB(size, 1), exp1Args{Size: size, Stack: st})
	}
	return specs
}

// MergeExp1 assembles the per-stack payloads (coordinate order) and computes
// the Fig 4a error rows exactly as the sequential runner did.
func MergeExp1(size int64, ps []grid.Payload) (*Exp1Result, error) {
	if err := wantCells(ps, len(exp1Stacks)); err != nil {
		return nil, fmt.Errorf("exp1: %w", err)
	}
	res := &Exp1Result{
		Size:      size,
		Ops:       workload.SyntheticOps(),
		Durations: map[Stack][]float64{},
		Errors:    map[Stack][]metrics.ErrRow{},
		MeanErr:   map[Stack]float64{},
		Mem:       map[Stack]*trace.MemSeries{},
		Snaps:     map[Stack]*trace.SnapshotLog{},
	}
	pays, err := decodeAll[exp1Payload](ps)
	if err != nil {
		return nil, err
	}
	for i, pay := range pays {
		st := exp1Stacks[ps[i].Coord.I]
		res.Durations[st] = pay.Durations
		res.Mem[st] = pay.Mem
		res.Snaps[st] = pay.Snaps
	}
	real := res.Durations[StackReal]
	for _, st := range []Stack{StackPysim, StackCacheless, StackCache} {
		rows := metrics.Errors(res.Ops, real, res.Durations[st])
		res.Errors[st] = rows
		res.MeanErr[st] = metrics.MeanErr(rows)
	}
	return res, nil
}

// doc runs the synthetic pipeline once on the stack's local platform,
// sampling memory every second and snapshotting the cache after every op.
func (a exp1Args) doc() (*scenario.Doc, scenario.RunOpts, error) {
	d, err := stackDoc(fmt.Sprintf("exp1 %s %s", units.FormatBytes(a.Size), a.Stack), a.Stack, false)
	if err != nil {
		return nil, scenario.RunOpts{}, err
	}
	d.TraceMemS, d.SnapshotOps = 1, true
	addSynthetic(d, 1, a.Size, 0, 0)
	return d, scenario.RunOpts{}, nil
}

func (exp1Args) payload(res *scenario.Result) any {
	h := res.Hosts[res.Doc.Platform.Hosts[0].Name]
	return &exp1Payload{
		Durations: opDurations(res.Sim.Log, workload.SyntheticOps()),
		Mem:       h.MemTrace,
		Snaps:     h.Snaps,
	}
}

// runExp1Pysim runs the Exp 1 cell of the sequential prototype.
func runExp1Pysim(size int64) (*exp1Payload, error) {
	t3 := platform.TableIII()
	sim, err := pysim.New(pysim.Config{
		MemBW:  units.MBps(t3.SimMemMBps),
		DiskBW: units.MBps(t3.SimLocalMBps),
		Cache:  core.DefaultConfig(RAM),
		Chunk:  ChunkSize,
	})
	if err != nil {
		return nil, err
	}
	files := workload.SyntheticFiles(0)
	sim.CreateFile(files[0], size)
	if err := workload.RunSynthetic(sim, workload.SyntheticSpec{
		Size: size, CPU: workload.SyntheticCPU(size), Files: files, Snapshot: true,
	}); err != nil {
		return nil, fmt.Errorf("exp1 pysim: %w", err)
	}
	return &exp1Payload{
		Durations: opDurations(sim.Log, workload.SyntheticOps()),
		Mem:       sim.MemTrace,
		Snaps:     sim.Snaps,
	}, nil
}

// opDurations extracts op durations in the given order (one op per label).
func opDurations(log *trace.OpLog, ops []string) []float64 {
	out := make([]float64, len(ops))
	for i, name := range ops {
		recs := log.ByName(name)
		var d float64
		for _, o := range recs {
			d += o.Duration()
		}
		out[i] = d
	}
	return out
}
