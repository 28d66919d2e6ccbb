package exp

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/grid"
	"repro/internal/textplot"
	"repro/internal/units"
)

// Render prints the Fig 4a error table and supporting duration table.
func (r *Exp1Result) Render(w io.Writer) {
	fmt.Fprintf(w, "== Exp 1 (single-threaded, %s files): operation durations (s) ==\n", units.FormatBytes(r.Size))
	dt := &textplot.Table{Header: append([]string{"stack"}, r.Ops...)}
	for _, st := range []Stack{StackReal, StackPysim, StackCacheless, StackCache} {
		dt.AddF(string(st), "%.1f", r.Durations[st]...)
	}
	dt.Render(w)

	fmt.Fprintf(w, "\n-- Fig 4a: absolute relative error vs real proxy (%%) --\n")
	et := &textplot.Table{Header: append([]string{"stack"}, append(r.Ops, "mean")...)}
	for _, st := range []Stack{StackPysim, StackCacheless, StackCache} {
		vals := make([]float64, 0, len(r.Ops)+1)
		for _, row := range r.Errors[st] {
			vals = append(vals, row.ErrPct)
		}
		vals = append(vals, r.MeanErr[st])
		et.AddF(string(st), "%.0f", vals...)
	}
	et.Render(w)
	fmt.Fprintf(w, "paper (all sizes avg): wrench=%v%% pysim=%v%% wrench-cache=%v%%\n",
		Paper().Exp1WrenchErr, Paper().Exp1PysimErr, Paper().Exp1CacheErr)
}

// RenderMemProfiles prints Fig 4b as ASCII charts.
func (r *Exp1Result) RenderMemProfiles(w io.Writer) {
	fmt.Fprintf(w, "\n-- Fig 4b: memory profiles (%s) --\n", units.FormatBytes(r.Size))
	for _, st := range []Stack{StackReal, StackPysim, StackCache} {
		ms := r.Mem[st]
		if ms == nil || len(ms.Points) == 0 {
			continue
		}
		var tx, used, cache, dirty []float64
		for _, p := range ms.Points {
			tx = append(tx, p.T)
			used = append(used, float64(p.Used)/1e9)
			cache = append(cache, float64(p.Cache)/1e9)
			dirty = append(dirty, float64(p.Dirty)/1e9)
		}
		ch := &textplot.Chart{
			Title:  fmt.Sprintf("%s memory profile (GB vs s)", st),
			Series: []textplot.Series{{Name: "used", X: tx, Y: used}, {Name: "cache", X: tx, Y: cache}, {Name: "dirty", X: tx, Y: dirty}},
			Width:  72, Height: 12,
		}
		ch.Render(w)
		fmt.Fprintln(w)
	}
}

// RenderCacheContents prints Fig 4c: per-file cache contents after each op.
func (r *Exp1Result) RenderCacheContents(w io.Writer) {
	fmt.Fprintf(w, "\n-- Fig 4c: cache contents after each op (GB, %s) --\n", units.FormatBytes(r.Size))
	for _, st := range []Stack{StackReal, StackCache} {
		sl := r.Snaps[st]
		if sl == nil {
			continue
		}
		files := sl.Files()
		t := &textplot.Table{Header: append([]string{st.label() + " op"}, files...)}
		for _, sn := range sl.Snaps {
			vals := make([]float64, len(files))
			for i, f := range files {
				vals[i] = float64(sn.ByFile[f]) / 1e9
			}
			t.AddF(sn.Label, "%.1f", vals...)
		}
		t.Render(w)
		fmt.Fprintln(w)
	}
}

func (s Stack) label() string { return string(s) }

// Render prints a Fig 5/7 table plus ASCII chart.
func (r *ConcurrentResult) Render(w io.Writer) {
	name, fig := "Exp 2 (local disk)", "Fig 5"
	if r.Remote {
		name, fig = "Exp 3 (NFS)", "Fig 7"
	}
	fmt.Fprintf(w, "== %s — %s: concurrent 3 GB applications ==\n", name, fig)
	t := &textplot.Table{Header: []string{"N",
		"read real", "read wrench", "read cache",
		"write real", "write wrench", "write cache",
		"real read min-max", "real write min-max"}}
	for _, p := range r.Points {
		t.Add(fmt.Sprintf("%d", p.N),
			fmt.Sprintf("%.0f", p.ReadTime[StackReal]),
			fmt.Sprintf("%.0f", p.ReadTime[StackCacheless]),
			fmt.Sprintf("%.0f", p.ReadTime[StackCache]),
			fmt.Sprintf("%.0f", p.WriteTime[StackReal]),
			fmt.Sprintf("%.0f", p.WriteTime[StackCacheless]),
			fmt.Sprintf("%.0f", p.WriteTime[StackCache]),
			fmt.Sprintf("[%.0f,%.0f]", p.RealReadMin, p.RealReadMax),
			fmt.Sprintf("[%.0f,%.0f]", p.RealWriteMin, p.RealWriteMax),
		)
	}
	t.Render(w)
	for _, kind := range []string{"read", "write"} {
		var xs []float64
		series := map[Stack][]float64{}
		for _, p := range r.Points {
			xs = append(xs, float64(p.N))
			for _, st := range []Stack{StackReal, StackCacheless, StackCache} {
				v := p.ReadTime[st]
				if kind == "write" {
					v = p.WriteTime[st]
				}
				series[st] = append(series[st], v)
			}
		}
		ch := &textplot.Chart{
			Title: fmt.Sprintf("%s: %s time (s) vs concurrent applications", fig, kind),
			Width: 72, Height: 12,
			Series: []textplot.Series{
				{Name: "real", X: xs, Y: series[StackReal]},
				{Name: "wrench", X: xs, Y: series[StackCacheless]},
				{Name: "wrench-cache", X: xs, Y: series[StackCache]},
			},
		}
		fmt.Fprintln(w)
		ch.Render(w)
	}
}

// WriteCSV emits the Fig 5/7 series.
func (r *ConcurrentResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "n,read_real,read_wrench,read_cache,write_real,write_wrench,write_cache,read_real_min,read_real_max,write_real_min,write_real_max"); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n",
			p.N, p.ReadTime[StackReal], p.ReadTime[StackCacheless], p.ReadTime[StackCache],
			p.WriteTime[StackReal], p.WriteTime[StackCacheless], p.WriteTime[StackCache],
			p.RealReadMin, p.RealReadMax, p.RealWriteMin, p.RealWriteMax); err != nil {
			return err
		}
	}
	return nil
}

// Render prints the Fig 6 error table.
func (r *Exp4Result) Render(w io.Writer) {
	fmt.Fprintln(w, "== Exp 4 (Nighres workflow): operation durations (s) ==")
	dt := &textplot.Table{Header: append([]string{"stack"}, r.Ops...)}
	for _, st := range []Stack{StackReal, StackCacheless, StackCache} {
		dt.AddF(string(st), "%.1f", r.Durations[st]...)
	}
	dt.Render(w)
	fmt.Fprintln(w, "\n-- Fig 6: absolute relative error vs real proxy (%) --")
	et := &textplot.Table{Header: append([]string{"stack"}, append(r.Ops, "mean")...)}
	for _, st := range []Stack{StackCacheless, StackCache} {
		vals := make([]float64, 0, len(r.Ops)+1)
		for _, row := range r.Errors[st] {
			vals = append(vals, row.ErrPct)
		}
		vals = append(vals, r.MeanErr[st])
		et.AddF(string(st), "%.0f", vals...)
	}
	et.Render(w)
	fmt.Fprintf(w, "paper: wrench=%v%% wrench-cache=%v%%\n", Paper().Exp4WrenchErr, Paper().Exp4CacheErr)
}

// Render prints the Fig 8 table. Wall-clock fits only appear with Timings
// set (`experiments -timings`): they differ run to run, and the default
// output stays byte-for-byte diffable.
func (r *SimTimeResult) Render(w io.Writer) {
	fmt.Fprintln(w, "== Fig 8: wall-clock simulation time vs concurrent applications ==")
	if r.Timings {
		t := &textplot.Table{Header: []string{"configuration", "fit", "points"}}
		for _, s := range r.Series {
			t.Add(s.Label, s.Fit.String(), fmt.Sprintf("%d", len(s.N)))
		}
		t.Render(w)
		p := Paper()
		fmt.Fprintf(w, "paper slopes (authors' machine): wrench-local=%.2f cache-local=%.2f cache-nfs=%.2f s/app\n",
			p.Fig8WrenchLocalSlope, p.Fig8CacheLocalSlope, p.Fig8CacheNFSSlope)
		return
	}
	t := &textplot.Table{Header: []string{"configuration", "points"}}
	for _, s := range r.Series {
		t.Add(s.Label, fmt.Sprintf("%d", len(s.N)))
	}
	t.Render(w)
	fmt.Fprintln(w, "wall-clock timings omitted; rerun with -timings for fits")
}

// WriteCSV emits the Fig 8 series; the nondeterministic seconds column
// only with Timings set.
func (r *SimTimeResult) WriteCSV(w io.Writer) error {
	if !r.Timings {
		if _, err := fmt.Fprintln(w, "configuration,n"); err != nil {
			return err
		}
		for _, s := range r.Series {
			for i := range s.N {
				if _, err := fmt.Fprintf(w, "%s,%d\n", s.Label, s.N[i]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if _, err := fmt.Fprintln(w, "configuration,n,seconds"); err != nil {
		return err
	}
	for _, s := range r.Series {
		for i := range s.N {
			if _, err := fmt.Fprintf(w, "%s,%d,%.4f\n", s.Label, s.N[i], s.Seconds[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// SaveCSV writes content produced by fn into dir/name.
func SaveCSV(dir, name string, fn func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(f)
}

// Emitter streams a grid run's report in section order. Results arrive in
// completion order; each section renders as soon as its cells have all
// completed AND every earlier section has been emitted, so stdout and the
// CSV files are byte-identical to a sequential run while a large grid never
// buffers more than the in-flight sections' payloads (each section's
// payloads are released as it is emitted).
//
// A failed cell fails its section — the section is skipped and recorded in
// Failures() — but never the rest of the run.
type Emitter struct {
	w        io.Writer
	outDir   string // "" disables CSV output
	sections []Section

	index    map[string]int // section key -> position
	pending  []int          // cells not yet delivered, per section
	payloads [][]grid.Payload
	failed   []bool
	next     int // first section not yet emitted
	failures []string
}

// NewEmitter prepares streaming emission for the given sections, in order.
// Every spec's Coord.Section must match its section's Key.
func NewEmitter(w io.Writer, outDir string, sections []Section) *Emitter {
	e := &Emitter{
		w: w, outDir: outDir, sections: sections,
		index:    make(map[string]int, len(sections)),
		pending:  make([]int, len(sections)),
		payloads: make([][]grid.Payload, len(sections)),
		failed:   make([]bool, len(sections)),
	}
	for i, s := range sections {
		if _, dup := e.index[s.Key]; dup {
			panic(fmt.Sprintf("exp: duplicate section key %q", s.Key))
		}
		e.index[s.Key] = i
		e.pending[i] = len(s.Specs)
	}
	return e
}

// Deliver accepts one cell result. It is called serially (grid.Run's
// deliver callback is never concurrent). Sections whose turn has come are
// flushed before it returns.
func (e *Emitter) Deliver(r grid.Result) {
	si, ok := e.index[r.Coord.Section]
	if !ok {
		e.failures = append(e.failures, fmt.Sprintf("%s: result for unknown section", r.Coord))
		return
	}
	e.pending[si]--
	if r.Err != "" {
		if !e.failed[si] {
			e.failed[si] = true
			e.payloads[si] = nil // free what accumulated; the section won't render
		}
		e.failures = append(e.failures, fmt.Sprintf("%s (%s): %s", r.Coord, r.Kind, r.Err))
	} else if !e.failed[si] {
		e.payloads[si] = append(e.payloads[si], grid.Payload{Coord: r.Coord, Raw: r.Payload})
	}
	e.flush()
}

// flush emits every leading section whose cells have all completed.
func (e *Emitter) flush() {
	for e.next < len(e.sections) && e.pending[e.next] == 0 {
		si := e.next
		e.next++
		if e.failed[si] {
			continue
		}
		ps := e.payloads[si]
		e.payloads[si] = nil
		grid.SortPayloads(ps)
		out, err := e.sections[si].Merge(ps)
		if err != nil {
			e.failures = append(e.failures, fmt.Sprintf("section %s: %v", e.sections[si].Key, err))
			continue
		}
		out.Render(e.w)
		if e.outDir == "" {
			continue
		}
		for _, c := range out.CSVs {
			if err := SaveCSV(e.outDir, c.Name, c.Write); err != nil {
				e.failures = append(e.failures, fmt.Sprintf("section %s: save %s: %v", e.sections[si].Key, c.Name, err))
			}
		}
	}
}

// Failures lists everything that went wrong, in delivery order. Empty means
// every section rendered and saved.
func (e *Emitter) Failures() []string { return e.failures }
