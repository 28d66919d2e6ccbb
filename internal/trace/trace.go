// Package trace collects simulation observables: memory-profile time series
// with read-hit counters (the atop/collectl role in the paper's
// experiments), per-operation timing logs, and per-file cache-content
// snapshots (Figs 4b, 4c).
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// MemPoint is one sample of the host memory state and its cumulative
// read-hit counters (all bytes).
type MemPoint struct {
	T     float64
	Used  int64 // anonymous + cache
	Cache int64
	Dirty int64
	Anon  int64
	// HitBytes and MissBytes are the cumulative application read bytes
	// served from the cache and from disk.
	HitBytes  int64 `json:",omitempty"`
	MissBytes int64 `json:",omitempty"`
}

// HitRatio returns the cumulative read-hit ratio at the sample (0 before
// any read).
func (p MemPoint) HitRatio() float64 {
	if p.HitBytes+p.MissBytes == 0 {
		return 0
	}
	return float64(p.HitBytes) / float64(p.HitBytes+p.MissBytes)
}

// MemSeries is a time-ordered memory profile.
type MemSeries struct {
	Points []MemPoint
}

// Add appends a sample (callers sample with non-decreasing time).
func (s *MemSeries) Add(p MemPoint) { s.Points = append(s.Points, p) }

// WriteCSV emits "t,used,cache,dirty,anon" rows.
func (s *MemSeries) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "t,used,cache,dirty,anon"); err != nil {
		return err
	}
	for _, p := range s.Points {
		if _, err := fmt.Fprintf(w, "%.3f,%d,%d,%d,%d\n", p.T, p.Used, p.Cache, p.Dirty, p.Anon); err != nil {
			return err
		}
	}
	return nil
}

// At returns the last sample at or before t (zero value before first).
func (s *MemSeries) At(t float64) MemPoint {
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > t })
	if i == 0 {
		return MemPoint{T: t}
	}
	return s.Points[i-1]
}

// MaxUsed returns the peak Used value.
func (s *MemSeries) MaxUsed() int64 {
	var m int64
	for _, p := range s.Points {
		if p.Used > m {
			m = p.Used
		}
	}
	return m
}

// MaxDirty returns the peak Dirty value.
func (s *MemSeries) MaxDirty() int64 {
	var m int64
	for _, p := range s.Points {
		if p.Dirty > m {
			m = p.Dirty
		}
	}
	return m
}

// Op is one timed application operation ("Read 1", "Write 3", ...).
type Op struct {
	Instance int     // application instance index
	Name     string  // e.g. "Read 1"
	Kind     string  // "read", "write" or "compute"
	Start    float64 // seconds
	End      float64
	Bytes    int64
}

// Duration returns End − Start.
func (o Op) Duration() float64 { return o.End - o.Start }

// OpLog is an append-only log of operations.
type OpLog struct {
	Ops []Op
}

// Add appends an operation record.
func (l *OpLog) Add(o Op) { l.Ops = append(l.Ops, o) }

// ByName returns the operations with the given name, in log order.
func (l *OpLog) ByName(name string) []Op {
	var out []Op
	for _, o := range l.Ops {
		if o.Name == name {
			out = append(out, o)
		}
	}
	return out
}

// Duration sums durations of all ops with the given kind for instance i
// (i < 0 matches all instances).
func (l *OpLog) Duration(kind string, instance int) float64 {
	var d float64
	for _, o := range l.Ops {
		if o.Kind == kind && (instance < 0 || o.Instance == instance) {
			d += o.Duration()
		}
	}
	return d
}

// MeanPerInstance returns the mean over instances of each instance's summed
// durations of the given kind (the Exp 2/3 "read time"/"write time" metric).
// Summation follows instance order so results are bit-reproducible (float
// addition is not associative; map order must not leak into metrics).
func (l *OpLog) MeanPerInstance(kind string) float64 {
	sums := map[int]float64{}
	for _, o := range l.Ops {
		if o.Kind == kind {
			sums[o.Instance] += o.Duration()
		}
	}
	if len(sums) == 0 {
		return 0
	}
	ids := make([]int, 0, len(sums))
	for id := range sums {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var total float64
	for _, id := range ids {
		total += sums[id]
	}
	return total / float64(len(sums))
}

// Makespan returns the latest End over all ops.
func (l *OpLog) Makespan() float64 {
	var m float64
	for _, o := range l.Ops {
		if o.End > m {
			m = o.End
		}
	}
	return m
}

// Names returns the distinct op names in first-appearance order.
func (l *OpLog) Names() []string {
	seen := map[string]bool{}
	var out []string
	for _, o := range l.Ops {
		if !seen[o.Name] {
			seen[o.Name] = true
			out = append(out, o.Name)
		}
	}
	return out
}

// Fingerprint hashes the access pattern of the ops in log positions
// [from, to): names, kinds, byte counts and their order, deliberately
// excluding timestamps (two iterations with identical operation sequences
// but slightly jittered timings fingerprint equal — the phase detector
// compares durations separately, under a tolerance). FNV-1a over the
// serialized fields; to is clamped to the log length.
func (l *OpLog) Fingerprint(from, to int) uint64 {
	if from < 0 {
		from = 0
	}
	if to > len(l.Ops) {
		to = len(l.Ops)
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	mixStr := func(s string) {
		for i := 0; i < len(s); i++ {
			mix(s[i])
		}
		mix(0)
	}
	mixInt := func(v uint64) {
		for i := 0; i < 8; i++ {
			mix(byte(v >> (8 * i)))
		}
	}
	for i := from; i < to; i++ {
		o := &l.Ops[i]
		mixStr(o.Name)
		mixStr(o.Kind)
		mixInt(uint64(o.Instance))
		mixInt(uint64(o.Bytes))
	}
	return h
}

// WriteCSV emits "instance,name,kind,start,end,bytes" rows.
func (l *OpLog) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "instance,name,kind,start,end,bytes"); err != nil {
		return err
	}
	for _, o := range l.Ops {
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%.3f,%.3f,%d\n",
			o.Instance, o.Name, o.Kind, o.Start, o.End, o.Bytes); err != nil {
			return err
		}
	}
	return nil
}

// CacheSnapshot captures per-file cached bytes at a labeled instant
// (Fig 4c: "cache contents after application I/O operations").
type CacheSnapshot struct {
	Label  string
	T      float64
	ByFile map[string]int64
}

// SnapshotLog is an ordered list of cache snapshots.
type SnapshotLog struct {
	Snaps []CacheSnapshot
}

// Add appends a snapshot, copying the map.
func (s *SnapshotLog) Add(label string, t float64, byFile map[string]int64) {
	cp := make(map[string]int64, len(byFile))
	for k, v := range byFile {
		cp[k] = v
	}
	s.Snaps = append(s.Snaps, CacheSnapshot{Label: label, T: t, ByFile: cp})
}

// Files returns all file names appearing in any snapshot, sorted.
func (s *SnapshotLog) Files() []string {
	set := map[string]bool{}
	for _, sn := range s.Snaps {
		for f := range sn.ByFile {
			set[f] = true
		}
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// WriteCSV emits "label,t,file,bytes" rows.
func (s *SnapshotLog) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "label,t,file,bytes"); err != nil {
		return err
	}
	for _, sn := range s.Snaps {
		for _, f := range sortedKeys(sn.ByFile) {
			if _, err := fmt.Fprintf(w, "%s,%.3f,%s,%d\n", sn.Label, sn.T, f, sn.ByFile[f]); err != nil {
				return err
			}
		}
	}
	return nil
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String renders the snapshot log as a compact table (tests, debugging).
func (s *SnapshotLog) String() string {
	var b strings.Builder
	for _, sn := range s.Snaps {
		fmt.Fprintf(&b, "%-10s t=%8.1f ", sn.Label, sn.T)
		for _, f := range sortedKeys(sn.ByFile) {
			fmt.Fprintf(&b, " %s=%d", f, sn.ByFile[f])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
