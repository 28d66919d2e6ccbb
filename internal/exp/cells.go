package exp

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/grid"
)

// This file is the experiment side of the grid seam: every experiment family
// enumerates its independent simulation cells as grid.Specs (self-describing
// coordinates + parameters) and provides a Merge that reassembles the
// coordinate-ordered payloads into the family's result struct. The merge
// performs the exact arithmetic the old sequential loops did, in the same
// order, so reports and CSVs are byte-identical to a sequential run
// regardless of worker count or cache state.

// CSV is one output file of a section.
type CSV struct {
	Name  string
	Write func(io.Writer) error
}

// Output is a section's rendered deliverable: the stdout block (including
// its trailing blank line) and the CSV files to save.
type Output struct {
	Render func(io.Writer)
	CSVs   []CSV
}

// Section is one report unit of the experiment grid: an ordered set of cells
// plus the merge that turns their payloads into the section's output.
// Sections render in list order; cells complete in any order.
type Section struct {
	// Key names the section and is stamped into every cell's Coord.Section;
	// it must be unique within a run.
	Key   string
	Specs []grid.Spec
	// Merge receives the section's payloads sorted by coordinate.
	Merge func(ps []grid.Payload) (*Output, error)
}

// SpecsOf concatenates the sections' cells (the pool input: one list across
// all sections maximizes overlap and shortens the straggler tail).
func SpecsOf(sections []Section) []grid.Spec {
	var out []grid.Spec
	for _, s := range sections {
		out = append(out, s.Specs...)
	}
	return out
}

// runGridOpts executes specs on a pool and returns the payloads in
// coordinate order; the first cell failure aborts with that cell's error
// (the programmatic API keeps the old fail-fast contract, while
// cmd/experiments' emitter degrades per section instead).
func runGridOpts(specs []grid.Spec, opts grid.Options) ([]grid.Payload, error) {
	var failed error
	var ps []grid.Payload
	if _, err := grid.Run(specs, opts, func(r grid.Result) {
		if r.Err != "" {
			if failed == nil {
				failed = fmt.Errorf("%s (%s): %s", r.Coord, r.Kind, r.Err)
			}
			return
		}
		ps = append(ps, grid.Payload{Coord: r.Coord, Raw: r.Payload})
	}); err != nil {
		return nil, err
	}
	if failed != nil {
		return nil, failed
	}
	grid.SortPayloads(ps)
	return ps, nil
}

// runGrid is runGridOpts on the default in-process pool (GOMAXPROCS
// workers). The merge discipline makes the result identical for any pool.
func runGrid(specs []grid.Spec) ([]grid.Payload, error) {
	return runGridOpts(specs, grid.Options{})
}

// decodePayload unmarshals one cell payload into its typed form.
func decodePayload[P any](p grid.Payload) (P, error) {
	var v P
	if err := json.Unmarshal(p.Raw, &v); err != nil {
		return v, fmt.Errorf("decoding %s payload: %w", p.Coord, err)
	}
	return v, nil
}

// decodeAll unmarshals a section's payloads, preserving order.
func decodeAll[P any](ps []grid.Payload) ([]P, error) {
	out := make([]P, len(ps))
	for i, p := range ps {
		v, err := decodePayload[P](p)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// wantCells checks a section received exactly its cell count (a merge
// precondition: the emitter only merges complete sections, and runGrid
// fails fast, so a mismatch means mis-enumerated coordinates).
func wantCells(ps []grid.Payload, n int) error {
	if len(ps) != n {
		return fmt.Errorf("got %d cell payloads, want %d", len(ps), n)
	}
	return nil
}

// costGB expresses a cell cost in simulated gigabytes moved — the common
// cost unit cells self-estimate with (size × instances); the scheduler only
// compares these values, so any consistent unit works.
func costGB(size int64, instances int) float64 {
	return float64(size) * float64(instances) / 1e9
}
