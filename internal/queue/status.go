package queue

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/grid"
	"repro/internal/metrics"
)

// FailedCell identifies one terminally failed cell.
type FailedCell struct {
	Cell  int
	Coord grid.Coord
	Err   string
}

// Status is a point-in-time consolidated view of the queue across every run,
// coordinator, and worker that ever touched it.
type Status struct {
	Dir   string
	Cells int
	// State counts. Leased counts live leases only; Expired counts leases
	// past their TTL (claimable, awaiting reclaim); Pending counts cells
	// never leased or whose journal shows no live claim.
	Pending, Leased, Expired, Done, Failed int
	// Workers lists every worker id seen in the journal, sorted by id.
	Workers []WorkerInfo
	// FailedCells lists terminal failures with their errors.
	FailedCells []FailedCell
	// Releases counts cells that were leased more than once (crash
	// recoveries and duplicate runs).
	Releases int
	// JournalSkipped counts unparseable journal lines tolerated during
	// replay (crash-torn appends).
	JournalSkipped int
	// At is when the snapshot was taken (heartbeat ages are relative to it).
	At time.Time
}

// Status replays the journal into a consolidated snapshot. It takes no lock:
// a racing appender costs at worst one torn line, skipped and re-read
// complete on the next call.
func (q *Queue) Status() (Status, error) {
	rs, err := q.replay()
	if err != nil {
		return Status{}, err
	}
	now := time.Now()
	st := Status{Dir: q.dir, Cells: len(q.specs), At: now, JournalSkipped: rs.skipped}
	for i, c := range rs.cells {
		if c.Leases > 1 {
			st.Releases++
		}
		switch c.State {
		case Done:
			st.Done++
		case Failed:
			st.Failed++
			st.FailedCells = append(st.FailedCells, FailedCell{Cell: i, Coord: q.specs[i].Coord, Err: c.Err})
		case Leased:
			if c.Expiry < now.UnixNano() {
				st.Expired++
			} else {
				st.Leased++
			}
			if w := rs.workers[c.Worker]; w != nil {
				w.Holding = append(w.Holding, i)
			}
		default:
			st.Pending++
		}
	}
	for _, w := range rs.workers {
		st.Workers = append(st.Workers, *w)
	}
	sort.Slice(st.Workers, func(a, b int) bool { return st.Workers[a].ID < st.Workers[b].ID })
	return st, nil
}

// Finished reports whether every cell reached a terminal state.
func (s Status) Finished() bool { return s.Done+s.Failed == s.Cells }

// GridStats aggregates the journal's per-worker accounting into the same
// shape grid.Drain reports, with WorkerIDs naming the slots. Wall
// clock is the caller's to fill in: the journal spans arbitrarily many
// sessions, so only a live coordinator knows its own wall time.
func (s Status) GridStats() metrics.GridStats {
	gs := metrics.GridStats{
		Cells:       s.Cells,
		Failed:      s.Failed,
		Retried:     s.Releases,
		BusySeconds: make([]float64, len(s.Workers)),
		WorkerIDs:   make([]string, len(s.Workers)),
	}
	for i, w := range s.Workers {
		gs.BusySeconds[i] = w.BusySeconds
		gs.WorkerIDs[i] = w.ID
	}
	return gs
}

// Render prints the consolidated text report: state counts, per-worker
// heartbeat ages and held leases, and failed cells.
func (s Status) Render(w io.Writer) {
	fmt.Fprintf(w, "== Queue %s: %d cells ==\n", s.Dir, s.Cells)
	fmt.Fprintf(w, "done %d, failed %d, leased %d (%d expired), pending %d\n",
		s.Done, s.Failed, s.Leased, s.Expired, s.Pending)
	if len(s.Workers) > 0 {
		fmt.Fprintf(w, "workers (%d seen):\n", len(s.Workers))
		for _, wi := range s.Workers {
			age := time.Duration(s.At.UnixNano()-wi.LastSeen) * time.Nanosecond
			line := fmt.Sprintf("  %-24s done %-3d failed %-2d busy %7.1fs  last seen %s ago",
				wi.ID, wi.Done, wi.Failed, wi.BusySeconds, formatAge(age))
			if len(wi.Holding) > 0 {
				var coords []string
				for _, c := range wi.Holding {
					coords = append(coords, fmt.Sprint(c))
				}
				line += fmt.Sprintf("  holds cell %s", strings.Join(coords, ","))
			}
			fmt.Fprintln(w, line)
		}
		gs := s.GridStats()
		fmt.Fprintf(w, "aggregate: busy %.1fs across %d workers", gs.Busy(), len(s.Workers))
		if s.Releases > 0 {
			fmt.Fprintf(w, ", %d cells re-leased", s.Releases)
		}
		fmt.Fprintln(w)
	}
	if s.JournalSkipped > 0 {
		fmt.Fprintf(w, "journal: %d torn/unparseable lines skipped\n", s.JournalSkipped)
	}
	for _, f := range s.FailedCells {
		err := f.Err
		if i := strings.IndexByte(err, '\n'); i >= 0 {
			err = err[:i]
		}
		fmt.Fprintf(w, "failed %s: %s\n", f.Coord, err)
	}
}

// formatAge renders a heartbeat age coarsely (sub-second precision would
// only churn the report).
func formatAge(d time.Duration) string {
	if d < 0 {
		d = 0
	}
	switch {
	case d < time.Minute:
		return fmt.Sprintf("%.1fs", d.Seconds())
	case d < time.Hour:
		return fmt.Sprintf("%.0fm", d.Minutes())
	default:
		return fmt.Sprintf("%.1fh", d.Hours())
	}
}
