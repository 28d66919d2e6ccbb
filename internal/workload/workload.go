// Package workload defines the applications the paper evaluates with: the
// synthetic three-task pipeline (Table I) and the Nighres cortical
// reconstruction workflow (Table II), plus the concurrent-instance scenarios
// of Exps 2–3. Workloads run against any Runner (the engine in any mode, the
// pysim prototype, or the linuxref-backed engine), which is how one workload
// definition drives every simulator the paper compares.
package workload

import (
	"fmt"

	"repro/internal/units"
)

// Runner abstracts an application's execution substrate.
type Runner interface {
	// ReadFile reads the whole named file.
	ReadFile(file, label string) error
	// ReadFileN reads the first n bytes of the named file.
	ReadFileN(file string, n int64, label string) error
	// WriteFile writes size bytes of the named file.
	WriteFile(file string, size int64, label string) error
	// Compute burns injected CPU seconds.
	Compute(seconds float64, label string)
	// ReleaseTaskMemory frees the application's anonymous memory (called at
	// task end, as the paper's applications do).
	ReleaseTaskMemory()
	// SnapshotCache labels current per-file cache contents (Fig 4c hooks).
	SnapshotCache(label string)
	// DeleteFile removes the named file and invalidates its cached state
	// (iterative workloads overwrite scratch outputs each iteration).
	DeleteFile(file string) error
}

// IterationObserver is implemented by runners whose substrate can
// fast-forward steady-state iterations (EngineRunner over an engine with
// EnableFastForward armed). IterationDone reports that `done` of `total`
// iterations completed and returns how many further iterations the
// substrate skipped analytically; the workload loop must advance past them.
// Runners without the capability simply don't implement it.
type IterationObserver interface {
	IterationDone(done, total int) int
}

// TableI maps synthetic input sizes to measured CPU times (paper Table I).
var TableI = []struct {
	Size int64
	CPU  float64
}{
	{3 * units.GB, 4.4},
	{20 * units.GB, 28},
	{50 * units.GB, 75},
	{75 * units.GB, 110},
	{100 * units.GB, 155},
}

// SyntheticCPU returns the Table I CPU seconds for a given input size,
// interpolating linearly for untabulated sizes (the paper's task CPU time is
// essentially proportional to bytes processed).
func SyntheticCPU(size int64) float64 {
	for _, row := range TableI {
		if row.Size == size {
			return row.CPU
		}
	}
	// Linear fit through the tabulated points (≈1.5 s/GB + ~0).
	return float64(size) / float64(units.GB) * 1.5
}

// SyntheticSpec parameterizes one instance of the synthetic application:
// three single-core sequential tasks; task i reads file i, increments every
// byte (modeled as injected CPU time), and writes file i+1 of equal size.
type SyntheticSpec struct {
	Size     int64     // bytes per file
	CPU      float64   // seconds per task (Table I)
	Files    [4]string // file names; Files[0] is the pre-existing input
	CPUScale float64   // multiplicative jitter (0 → 1.0)
	Snapshot bool      // record Fig 4c cache snapshots after each I/O op
}

// SyntheticFiles returns the conventional file names for an instance.
func SyntheticFiles(instance int) [4]string {
	var f [4]string
	for i := range f {
		f[i] = fmt.Sprintf("app%d_file%d", instance, i+1)
	}
	return f
}

// RunSynthetic executes the synthetic application on r.
func RunSynthetic(r Runner, spec SyntheticSpec) error {
	scale := spec.CPUScale
	if scale == 0 {
		scale = 1
	}
	for task := 0; task < 3; task++ {
		op := fmt.Sprintf("Read %d", task+1)
		if err := r.ReadFile(spec.Files[task], op); err != nil {
			return fmt.Errorf("%s: %w", op, err)
		}
		if spec.Snapshot {
			r.SnapshotCache(op)
		}
		r.Compute(spec.CPU*scale, fmt.Sprintf("Compute %d", task+1))
		op = fmt.Sprintf("Write %d", task+1)
		if err := r.WriteFile(spec.Files[task+1], spec.Size, op); err != nil {
			return fmt.Errorf("%s: %w", op, err)
		}
		if spec.Snapshot {
			r.SnapshotCache(op)
		}
		r.ReleaseTaskMemory()
	}
	return nil
}

// SyntheticOps lists the six I/O operation labels of the synthetic app in
// execution order (the Fig 4a x-axis).
func SyntheticOps() []string {
	return []string{"Read 1", "Write 1", "Read 2", "Write 2", "Read 3", "Write 3"}
}

// IterativeSpec parameterizes the repeated-iteration pipeline: each
// iteration reads the whole input file, computes, and (re)writes a scratch
// output of equal significance — the shape of iterative analysis pipelines
// (e.g. fixed-point solvers re-reading their working set every sweep) whose
// cache behavior converges after a few iterations. The steady prefix is the
// fast-forward target: with phase detection armed, the engine simulates
// iterations until K match and skips the rest analytically.
type IterativeSpec struct {
	// Iterations is the total iteration count N.
	Iterations int
	// Size is the bytes read from Input and written to Output per iteration.
	Size int64
	// CPU is the injected compute seconds per iteration.
	CPU float64
	// Input names the pre-existing input file; Output the per-iteration
	// scratch output, deleted before each rewrite so cache state is periodic.
	Input, Output string
}

// File names of the iterative pipeline as the scenario runner (and so
// pcsim -iterations) places it: one pre-existing input, one rewritten
// scratch output.
const (
	IterInput  = "iter_input"
	IterOutput = "iter_scratch"
)

// RunIterative executes the repeated-iteration pipeline on r. When r
// implements IterationObserver (the engine with fast-forward armed), the
// loop advances past analytically skipped iterations; otherwise every
// iteration is simulated.
func RunIterative(r Runner, spec IterativeSpec) error {
	if spec.Iterations <= 0 {
		return fmt.Errorf("iterative: Iterations must be positive")
	}
	obs, _ := r.(IterationObserver)
	for i := 0; i < spec.Iterations; {
		if err := r.ReadFile(spec.Input, "IterRead"); err != nil {
			return fmt.Errorf("iterative read: %w", err)
		}
		r.Compute(spec.CPU, "IterCompute")
		if i > 0 {
			// Overwrite semantics: drop the previous iteration's output (and
			// its still-dirty cache blocks) before rewriting, so every
			// iteration leaves the same cache state behind.
			if err := r.DeleteFile(spec.Output); err != nil {
				return fmt.Errorf("iterative delete: %w", err)
			}
		}
		if err := r.WriteFile(spec.Output, spec.Size, "IterWrite"); err != nil {
			return fmt.Errorf("iterative write: %w", err)
		}
		r.ReleaseTaskMemory()
		i++
		if obs != nil {
			i += obs.IterationDone(i, spec.Iterations)
		}
	}
	return nil
}

// NighresStep is one step of the cortical reconstruction workflow
// (Table II). InputFile/InputBytes encode the DAG: each step reads (part of)
// a file produced earlier — region extraction consumes the tissue
// classification output (1376 MB, exact match), cortical reconstruction the
// skull stripping output (393 MB, exact match), and tissue classification a
// 197 MB subset of the skull stripping output (the input sizes of Table II,
// listed in NighresSteps).
type NighresStep struct {
	Name       string
	InputFile  string
	InputBytes int64
	OutputFile string
	OutputSize int64
	CPU        float64
}

// NighresInput is the pre-existing 295 MB brain image.
const NighresInput = "t1_image"

// NighresInputSize is the input image size.
const NighresInputSize = 295 * units.MB

// NighresSteps returns the Table II workflow.
func NighresSteps() []NighresStep {
	return []NighresStep{
		{"Skull stripping", NighresInput, 295 * units.MB, "skull_strip", 393 * units.MB, 137},
		{"Tissue classification", "skull_strip", 197 * units.MB, "tissue_class", 1376 * units.MB, 614},
		{"Region extraction", "tissue_class", 1376 * units.MB, "region_extract", 885 * units.MB, 76},
		{"Cortical reconstruction", "skull_strip", 393 * units.MB, "cortical_recon", 786 * units.MB, 272},
	}
}

// NighresOps lists the eight I/O operation labels (the Fig 6 x-axis).
func NighresOps() []string {
	return []string{
		"Read 1", "Write 1", "Read 2", "Write 2",
		"Read 3", "Write 3", "Read 4", "Write 4",
	}
}

// RunNighres executes the Nighres workflow on r.
func RunNighres(r Runner) error {
	for i, step := range NighresSteps() {
		op := fmt.Sprintf("Read %d", i+1)
		if err := r.ReadFileN(step.InputFile, step.InputBytes, op); err != nil {
			return fmt.Errorf("nighres %s: %w", step.Name, err)
		}
		r.Compute(step.CPU, fmt.Sprintf("Compute %d", i+1))
		op = fmt.Sprintf("Write %d", i+1)
		if err := r.WriteFile(step.OutputFile, step.OutputSize, op); err != nil {
			return fmt.Errorf("nighres %s: %w", step.Name, err)
		}
		r.ReleaseTaskMemory()
	}
	return nil
}

// WriteReadSpec parameterizes a bare writer: it writes Size bytes to File
// ("Write 1") and, with ReadBack, computes CPU seconds ("Compute 1"), reads
// the file back ("Read 1") and releases the task memory — the
// write-then-reread pattern of write-heavy workloads.
type WriteReadSpec struct {
	File     string
	Size     int64
	CPU      float64
	ReadBack bool
}

// RunWriteRead executes a bare writer on r.
func RunWriteRead(r Runner, spec WriteReadSpec) error {
	if err := r.WriteFile(spec.File, spec.Size, "Write 1"); err != nil || !spec.ReadBack {
		return err
	}
	r.Compute(spec.CPU, "Compute 1")
	if err := r.ReadFile(spec.File, "Read 1"); err != nil {
		return err
	}
	r.ReleaseTaskMemory()
	return nil
}
