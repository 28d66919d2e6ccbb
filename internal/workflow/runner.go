package workflow

import (
	"fmt"
	"sort"

	"repro/internal/des"
	"repro/internal/engine"
	"repro/internal/storage"
)

// TaskTiming records one executed task.
type TaskTiming struct {
	Name       string
	Start, End float64
}

// RunReport summarizes a workflow execution.
type RunReport struct {
	Timings  map[string]TaskTiming
	Makespan float64
}

// OrderedTimings returns the timings sorted by start time (ties by name).
func (r *RunReport) OrderedTimings() []TaskTiming {
	out := make([]TaskTiming, 0, len(r.Timings))
	for _, t := range r.Timings {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Execution is a workflow whose tasks are spawned on a simulation (see
// Start). Once the simulation has run, Report holds the per-task timings and
// Err the first task failure.
type Execution struct {
	Workflow *Workflow
	Report   *RunReport
	done     map[string]*des.Future[error]
}

// Start validates the workflow and spawns one application per task through
// spawn(task index, process name, body). Every task waits for its
// dependencies, reads its inputs (charging anonymous memory), computes on
// one core, writes its outputs to part, and releases its memory — the task
// semantics of the paper's applications (§III.D). Independent tasks run
// concurrently, bounded by the host's cores for compute and by fluid sharing
// for I/O. Task bodies report failures through the Execution and return nil.
//
// Source files must already exist (see Workflow.SourceFiles). The caller
// runs the simulation.
func Start(sim *engine.Simulation, part *storage.Partition, w *Workflow, spawn func(task int, name string, body func(*engine.App) error)) (*Execution, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	sources, err := w.SourceFiles()
	if err != nil {
		return nil, err
	}
	for _, f := range sources {
		p, err := sim.NS.Locate(f)
		if err != nil {
			return nil, fmt.Errorf("workflow %s: source file %s not on storage: %w", w.Name, f, err)
		}
		if _, ok := p.Lookup(f); !ok {
			return nil, fmt.Errorf("workflow %s: source file %s missing", w.Name, f)
		}
	}
	deps, err := w.deps()
	if err != nil {
		return nil, err
	}
	x := &Execution{
		Workflow: w,
		Report:   &RunReport{Timings: make(map[string]TaskTiming, len(w.order))},
		done:     make(map[string]*des.Future[error], len(w.order)),
	}
	report, done := x.Report, x.done
	for _, name := range w.order {
		done[name] = des.NewFuture[error](sim.K)
	}
	for i, name := range w.order {
		name := name
		t := w.tasks[name]
		spawn(i, "wf:"+name, func(a *engine.App) error {
			// Wait for dependencies; abort on upstream failure.
			for _, d := range deps[name] {
				if err := done[d].Get(a.Proc()); err != nil {
					failure := fmt.Errorf("workflow %s: task %s: dependency %s failed: %w", w.Name, name, d, err)
					done[name].Set(failure)
					return nil // reported through the task future
				}
			}
			start := a.Now()
			err := runTask(a, part, t)
			report.Timings[name] = TaskTiming{Name: name, Start: start, End: a.Now()}
			if a.Now() > report.Makespan {
				report.Makespan = a.Now()
			}
			if err != nil {
				done[name].Set(fmt.Errorf("workflow %s: task %s: %w", w.Name, name, err))
				return nil
			}
			done[name].Set(nil)
			return nil
		})
	}
	return x, nil
}

// Err returns the first failed task's error in task order, nil when every
// task completed. Valid after the simulation ran.
func (x *Execution) Err() error {
	for _, name := range x.Workflow.order {
		if err, _ := x.done[name].Peek(); err != nil {
			return err
		}
	}
	return nil
}

// Run starts the workflow on one engine host (task i as application
// instance i, outputs on part), runs the simulation and returns the
// per-task timings.
func Run(sim *engine.Simulation, host *engine.HostRuntime, part *storage.Partition, w *Workflow) (*RunReport, error) {
	x, err := Start(sim, part, w, func(task int, name string, body func(*engine.App) error) {
		sim.SpawnApp(host, task, name, body)
	})
	if err != nil {
		return nil, err
	}
	if err := sim.Run(); err != nil {
		return nil, err
	}
	return x.Report, x.Err()
}

func runTask(a *engine.App, part *storage.Partition, t *Task) error {
	for _, in := range t.Inputs {
		label := fmt.Sprintf("%s/read %s", t.Name, in.Name)
		if err := a.ReadFileN(in.Name, in.Bytes, label); err != nil {
			return err
		}
	}
	if t.CPUSeconds > 0 {
		a.Compute(t.CPUSeconds, t.Name+"/compute")
	}
	for _, o := range t.Outputs {
		label := fmt.Sprintf("%s/write %s", t.Name, o.Name)
		if err := a.WriteFile(o.Name, o.Size, part, label); err != nil {
			return err
		}
	}
	a.ReleaseTaskMemory()
	return nil
}
