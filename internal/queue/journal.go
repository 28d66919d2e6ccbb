package queue

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/grid"
)

// The journal is the queue's single source of truth for cell state: an
// append-only file of one JSON record per line. Appends are single O_APPEND
// writes taken under an exclusive flock on the lock file — the lock is what
// makes a claim's read-modify-write (replay, pick a cell, append the lease)
// atomic across processes and hosts sharing the directory. Reads take no
// lock: a reader racing an appender sees at worst a torn final line, which
// replay ignores and the next poll re-reads complete.
//
// Record types:
//
//	{"t":"lease","cell":5,"worker":"w0","exp":<unixnano>,"at":<unixnano>}
//	{"t":"beat","worker":"w0","exp":<unixnano>,"at":...}   renews every lease w0 holds
//	{"t":"done","cell":5,"worker":"w0","sec":1.2,"att":1,"at":...}
//	{"t":"fail","cell":5,"worker":"w0","err":"...","sec":...,"att":...,"at":...}
//
// Replay tolerates unparseable lines (crash-torn appends) by skipping them:
// every transition is safe to lose, because cells are idempotent — a lost
// "done" re-runs the cell to identical bytes, a lost lease double-runs it.
// Skipped lines are counted and surfaced in Status for observability.

const (
	recLease = "lease"
	recBeat  = "beat"
	recDone  = "done"
	recFail  = "fail"
)

type record struct {
	T       string  `json:"t"`
	Cell    int     `json:"cell,omitempty"`
	Worker  string  `json:"worker,omitempty"`
	Expiry  int64   `json:"exp,omitempty"` // lease/beat: lease expiry, unix nanoseconds
	Seconds float64 `json:"sec,omitempty"` // done/fail: execution wall-clock
	Att     int     `json:"att,omitempty"` // done/fail: attempts
	Err     string  `json:"err,omitempty"` // fail: the cell's error
	At      int64   `json:"at"`            // record time, unix nanoseconds
}

// CellState is a cell's position in the queue's state machine.
type CellState int

const (
	// Pending cells have never been leased, or only by leases that expired.
	Pending CellState = iota
	// Leased cells are claimed by a worker whose lease has not expired.
	Leased
	// Done cells completed successfully; their payload is in the result store.
	Done
	// Failed cells errored (a deterministic failure is not re-leased) or
	// exhausted their lease budget crashing workers.
	Failed
)

func (s CellState) String() string {
	switch s {
	case Pending:
		return "pending"
	case Leased:
		return "leased"
	case Done:
		return "done"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("CellState(%d)", int(s))
}

// cellInfo is one cell's replayed state.
type cellInfo struct {
	State   CellState
	Worker  string // last lessee
	Expiry  int64  // lease expiry, unix nanoseconds
	Leases  int    // total leases ever granted
	Att     int    // attempts recorded at completion
	Seconds float64
	Err     string // fail record's error
}

// WorkerInfo aggregates one worker id's journal activity.
type WorkerInfo struct {
	ID          string
	Done        int
	Failed      int
	BusySeconds float64
	LastSeen    int64 // unix nanoseconds of the worker's latest record
	Holding     []int // cells currently leased (expired or not)
}

// replayState is the journal folded into per-cell and per-worker state.
type replayState struct {
	cells   []cellInfo
	workers map[string]*WorkerInfo
	skipped int // unparseable journal lines tolerated
}

// replay reads and folds the whole journal. Journals are small — O(cells)
// completions plus heartbeat noise — so re-reading per claim keeps every
// operation stateless and multi-process safe.
func (q *Queue) replay() (*replayState, error) {
	rs := &replayState{
		cells:   make([]cellInfo, len(q.specs)),
		workers: map[string]*WorkerInfo{},
	}
	f, err := os.Open(filepath.Join(q.dir, journalFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024) // fail records carry panic stacks
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			rs.skipped++
			continue
		}
		rs.apply(r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("queue: reading journal: %w", err)
	}
	return rs, nil
}

func (rs *replayState) apply(r record) {
	w := rs.worker(r.Worker)
	if w != nil && r.At > w.LastSeen {
		w.LastSeen = r.At
	}
	switch r.T {
	case recLease:
		if !rs.validCell(r.Cell) {
			rs.skipped++
			return
		}
		c := &rs.cells[r.Cell]
		if c.State == Done || c.State == Failed {
			return // late or replayed lease on a finished cell: inert
		}
		c.State = Leased
		c.Worker = r.Worker
		c.Expiry = r.Expiry
		c.Leases++
	case recBeat:
		// A heartbeat renews every lease its worker currently holds.
		for i := range rs.cells {
			c := &rs.cells[i]
			if c.State == Leased && c.Worker == r.Worker {
				c.Expiry = r.Expiry
			}
		}
	case recDone, recFail:
		if !rs.validCell(r.Cell) {
			rs.skipped++
			return
		}
		c := &rs.cells[r.Cell]
		if c.State == Done || c.State == Failed {
			return // duplicate completion (lease-expiry double run): first wins
		}
		c.Worker = r.Worker
		c.Att = r.Att
		c.Seconds = r.Seconds
		if r.T == recDone {
			c.State = Done
		} else {
			c.State = Failed
			c.Err = r.Err
		}
		if w != nil {
			w.BusySeconds += r.Seconds
			if r.T == recDone {
				w.Done++
			} else {
				w.Failed++
			}
		}
	default:
		rs.skipped++
	}
}

func (rs *replayState) validCell(i int) bool { return i >= 0 && i < len(rs.cells) }

func (rs *replayState) worker(id string) *WorkerInfo {
	if id == "" {
		return nil
	}
	w, ok := rs.workers[id]
	if !ok {
		w = &WorkerInfo{ID: id}
		rs.workers[id] = w
	}
	return w
}

// finished counts cells in a terminal state.
func (rs *replayState) finished() int {
	n := 0
	for _, c := range rs.cells {
		if c.State == Done || c.State == Failed {
			n++
		}
	}
	return n
}

// withLock runs fn holding the queue's exclusive advisory lock. Each call
// opens its own descriptor, so goroutines of one process exclude each other
// exactly like separate processes do; closing the descriptor releases the
// lock even if the process dies mid-critical-section (kill -9 included —
// the kernel drops flocks with the descriptor, so a dead claimer can never
// wedge the queue).
func (q *Queue) withLock(fn func() error) error {
	f, err := os.OpenFile(filepath.Join(q.dir, lockFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		return fmt.Errorf("queue: locking %s: %w", q.dir, err)
	}
	defer syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
	return fn()
}

// appendRecord appends one journal line. Callers hold the lock. If a crashed
// writer left a torn final line (no trailing newline), a separating newline
// is written first so the fragment stays an isolated, skippable line instead
// of corrupting this record.
func (q *Queue) appendRecord(r record) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(q.dir, journalFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		tail := make([]byte, 1)
		if _, err := f.ReadAt(tail, st.Size()-1); err == nil && tail[0] != '\n' {
			data = append([]byte{'\n'}, data...)
		}
	}
	_, err = f.Write(append(data, '\n'))
	return err
}

// leaseBudget is how many leases a cell may see expire before a claimer
// declares it failed instead of re-leasing it: it has crashed that many
// workers, and an unbounded re-lease loop would wedge the fleet on one
// poisonous cell.
const leaseBudget = 5

// Claim atomically leases the next runnable cell to slot's worker id: the
// costliest cell that is pending or whose lease has expired. A cell whose
// lease has expired leaseBudget times is declared failed instead. With
// nothing claimable it reports the poll period while unexpired leases are
// outstanding (a holder may finish or die), and 0 once every cell is done
// or failed.
func (s *leaseSource) Claim(slot int) (claim grid.Claim, ok bool, poll time.Duration, err error) {
	q, worker := s.q, s.worker(slot)
	err = q.withLock(func() error {
		rs, err := q.replay()
		if err != nil {
			return err
		}
		now := time.Now()
		finished := rs.finished()
		for _, i := range q.order {
			c := rs.cells[i]
			switch {
			case c.State == Pending:
			case c.State == Leased && c.Expiry < now.UnixNano():
				if c.Leases >= leaseBudget {
					rec := record{
						T: recFail, Cell: i, Worker: worker, Att: c.Leases,
						Err: fmt.Sprintf("lease limit: %d leases expired without completion (cell crashes its workers?)", c.Leases),
						At:  now.UnixNano(),
					}
					if err := q.appendRecord(rec); err != nil {
						return err
					}
					finished++
					continue
				}
			default:
				continue
			}
			rec := record{
				T: recLease, Cell: i, Worker: worker,
				Expiry: now.Add(s.ttl).UnixNano(), At: now.UnixNano(),
			}
			if err := q.appendRecord(rec); err != nil {
				return err
			}
			claim, ok = grid.Claim{Cell: i, Spec: q.specs[i], Beat: s.ttl / 4}, true
			return nil
		}
		if finished < len(rs.cells) {
			poll = s.poll
		}
		return nil
	})
	return claim, ok, poll, err
}

// Beat renews every lease slot's worker id holds to now+TTL. Drain beats
// while a cell runs so long cells outlive their initial TTL; a worker that
// stops beating — crash, kill -9, network partition — loses its leases one
// TTL later and its cells are re-run elsewhere.
func (s *leaseSource) Beat(slot int) error {
	now, worker := time.Now(), s.worker(slot)
	return s.q.withLock(func() error {
		return s.q.appendRecord(record{
			T: recBeat, Worker: worker,
			Expiry: now.Add(s.ttl).UnixNano(), At: now.UnixNano(),
		})
	})
}

// Complete records the claimed cell's execution outcome. Successful results
// land in the result store first (atomic rename), then the journal's done
// record — so a done record always has its payload on disk. Failures
// journal the error only: a deterministic failure has no payload to store,
// and the journal entry is what keeps the cell from being re-leased.
func (s *leaseSource) Complete(slot int, c grid.Claim, res grid.Result) error {
	q, i, worker := s.q, c.Cell, s.worker(slot)
	if i < 0 || i >= len(q.specs) {
		return fmt.Errorf("queue: completing unknown cell %d", i)
	}
	if res.Attempts == 0 {
		res.Attempts = 1
	}
	now := time.Now().UnixNano()
	if res.Err != "" {
		return q.withLock(func() error {
			return q.appendRecord(record{
				T: recFail, Cell: i, Worker: worker,
				Seconds: res.Seconds, Att: res.Attempts, Err: res.Err, At: now,
			})
		})
	}
	data, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("queue: encoding result for cell %d: %w", i, err)
	}
	if err := writeFileAtomic(q.resultPath(i), append(data, '\n')); err != nil {
		return err
	}
	return q.withLock(func() error {
		return q.appendRecord(record{
			T: recDone, Cell: i, Worker: worker,
			Seconds: res.Seconds, Att: res.Attempts, At: now,
		})
	})
}
