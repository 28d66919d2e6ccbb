// Package workflow provides the task-DAG abstraction the paper's simulator
// inherits from WRENCH: tasks that read (parts of) files, compute, and
// write files, with dependencies implied by file production and executed
// concurrently on a simulated host. The paper's applications are linear
// chains; this package generalizes them to arbitrary DAGs (fork/join), the
// shape real workflow management systems schedule.
package workflow

import (
	"fmt"
	"sort"
)

// FileRef names a task input and how much of it the task reads
// (Bytes < 0: the whole file — whatever size it has when the task starts).
type FileRef struct {
	Name  string
	Bytes int64
}

// OutFile declares a task output of a fixed size.
type OutFile struct {
	Name string
	Size int64
}

// Task is one node of the DAG.
type Task struct {
	Name       string
	CPUSeconds float64
	Inputs     []FileRef
	Outputs    []OutFile
	// After lists extra control dependencies (task names) beyond the
	// data dependencies implied by input files.
	After []string
}

// Workflow is a validated collection of tasks.
type Workflow struct {
	Name  string
	tasks map[string]*Task
	order []string // insertion order, for deterministic iteration
}

// New returns an empty workflow.
func New(name string) *Workflow {
	return &Workflow{Name: name, tasks: make(map[string]*Task)}
}

// Add registers a task. Task names must be unique.
func (w *Workflow) Add(t Task) error {
	if t.Name == "" {
		return fmt.Errorf("workflow %s: task with empty name", w.Name)
	}
	if _, ok := w.tasks[t.Name]; ok {
		return fmt.Errorf("workflow %s: duplicate task %q", w.Name, t.Name)
	}
	if t.CPUSeconds < 0 {
		return fmt.Errorf("workflow %s: task %q: negative CPU time", w.Name, t.Name)
	}
	for _, o := range t.Outputs {
		if o.Size < 0 {
			return fmt.Errorf("workflow %s: task %q: negative output size for %s", w.Name, t.Name, o.Name)
		}
	}
	cp := t
	w.tasks[t.Name] = &cp
	w.order = append(w.order, t.Name)
	return nil
}

// MustAdd is Add for static workflow construction; it panics on error.
func (w *Workflow) MustAdd(t Task) {
	if err := w.Add(t); err != nil {
		panic(err)
	}
}

// Tasks returns the tasks in insertion order.
func (w *Workflow) Tasks() []*Task {
	out := make([]*Task, 0, len(w.order))
	for _, n := range w.order {
		out = append(out, w.tasks[n])
	}
	return out
}

// Task returns a task by name (nil if absent).
func (w *Workflow) Task(name string) *Task { return w.tasks[name] }

// Producers maps every output file to the task that writes it, failing on
// files produced by two tasks.
func (w *Workflow) Producers() (map[string]string, error) {
	prod := make(map[string]string)
	for _, name := range w.order {
		for _, o := range w.tasks[name].Outputs {
			if prev, ok := prod[o.Name]; ok {
				return nil, fmt.Errorf("workflow %s: file %s produced by both %s and %s",
					w.Name, o.Name, prev, name)
			}
			prod[o.Name] = name
		}
	}
	return prod, nil
}

// SourceFiles returns the input files no task produces (they must exist on
// storage before the run), sorted.
func (w *Workflow) SourceFiles() ([]string, error) {
	prod, err := w.Producers()
	if err != nil {
		return nil, err
	}
	set := map[string]bool{}
	for _, name := range w.order {
		for _, in := range w.tasks[name].Inputs {
			if _, ok := prod[in.Name]; !ok {
				set[in.Name] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out, nil
}

// SourceSize returns the size a source file must have: the largest partial
// read any task requests from it (0 when every reference reads the whole
// file, which leaves the size unstated).
func (w *Workflow) SourceSize(name string) int64 {
	var size int64
	for _, t := range w.order {
		for _, in := range w.tasks[t].Inputs {
			if in.Name == name && in.Bytes > size {
				size = in.Bytes
			}
		}
	}
	return size
}

// deps returns each task's dependency set (data + control), validated.
func (w *Workflow) deps() (map[string][]string, error) {
	prod, err := w.Producers()
	if err != nil {
		return nil, err
	}
	out := make(map[string][]string, len(w.order))
	for _, name := range w.order {
		t := w.tasks[name]
		seen := map[string]bool{}
		var ds []string
		add := func(d string) {
			if d != "" && d != name && !seen[d] {
				seen[d] = true
				ds = append(ds, d)
			}
		}
		for _, in := range t.Inputs {
			add(prod[in.Name]) // absent producer → source file, no dep
		}
		for _, d := range t.After {
			if _, ok := w.tasks[d]; !ok {
				return nil, fmt.Errorf("workflow %s: task %q depends on unknown task %q", w.Name, name, d)
			}
			add(d)
		}
		out[name] = ds
	}
	return out, nil
}

// TopoOrder returns a dependency-respecting task order, or an error naming
// a cycle member. Ties break by insertion order (deterministic).
func (w *Workflow) TopoOrder() ([]string, error) {
	deps, err := w.deps()
	if err != nil {
		return nil, err
	}
	indeg := make(map[string]int, len(w.order))
	rdeps := make(map[string][]string)
	for _, name := range w.order {
		indeg[name] = len(deps[name])
		for _, d := range deps[name] {
			rdeps[d] = append(rdeps[d], name)
		}
	}
	var ready, out []string
	for _, name := range w.order {
		if indeg[name] == 0 {
			ready = append(ready, name)
		}
	}
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		out = append(out, n)
		for _, m := range rdeps[n] {
			indeg[m]--
			if indeg[m] == 0 {
				ready = append(ready, m)
			}
		}
	}
	if len(out) != len(w.order) {
		for _, name := range w.order {
			if indeg[name] > 0 {
				return nil, fmt.Errorf("workflow %s: dependency cycle involving %q", w.Name, name)
			}
		}
	}
	return out, nil
}

// Validate checks the whole workflow: unique producers, known control
// dependencies, acyclicity.
func (w *Workflow) Validate() error {
	if len(w.order) == 0 {
		return fmt.Errorf("workflow %s: no tasks", w.Name)
	}
	_, err := w.TopoOrder()
	return err
}

// CriticalPathCPU returns the longest chain of CPU seconds through the DAG
// — a lower bound on makespan with infinite cores and free I/O.
func (w *Workflow) CriticalPathCPU() (float64, error) {
	order, err := w.TopoOrder()
	if err != nil {
		return 0, err
	}
	deps, err := w.deps()
	if err != nil {
		return 0, err
	}
	finish := map[string]float64{}
	var longest float64
	for _, name := range order {
		start := 0.0
		for _, d := range deps[name] {
			if finish[d] > start {
				start = finish[d]
			}
		}
		finish[name] = start + w.tasks[name].CPUSeconds
		if finish[name] > longest {
			longest = finish[name]
		}
	}
	return longest, nil
}
