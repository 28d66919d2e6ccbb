// Package exp reproduces the paper's evaluation: experiments 1–4 plus the
// simulation-time study, each emitting the same rows/series the paper's
// tables and figures report, with the paper's published numbers embedded for
// side-by-side comparison in the report cmd/experiments prints.
package exp

import "repro/internal/units"

// Stack identifies one of the compared simulators.
type Stack string

const (
	// StackReal is the linuxref ground-truth proxy standing in for the
	// paper's "Real execution" (measured asymmetric bandwidths, folio
	// granularity, kernel heuristics).
	StackReal Stack = "real"
	// StackPysim is the sequential prototype.
	StackPysim Stack = "pysim"
	// StackCacheless is the original-WRENCH baseline.
	StackCacheless Stack = "wrench"
	// StackCache is the paper's contribution (WRENCH-cache).
	StackCache Stack = "wrench-cache"
)

// Paper-wide constants (§III.D).
const (
	RAM       = 250 * units.GiB
	Cores     = 32
	FlopRate  = 1e9
	ChunkSize = 100 * units.MB
	DiskCap   = 450 * units.GiB
)
