package queue

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/grid"
)

// defaultLeaseTTL is the lease TTL of a Source opened with ttl ≤ 0.
const defaultLeaseTTL = 30 * time.Second

var workerSeq atomic.Int64

// DefaultWorkerID returns a journal-unique worker id: host-pid-wN. Every
// drain slot needs its own id — leases and heartbeats are per-id.
func DefaultWorkerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "host"
	}
	return fmt.Sprintf("%s-%d-w%d", host, os.Getpid(), workerSeq.Add(1)-1)
}

// Source opens the queue as a grid.Source, the journal backend of
// grid.Drain. Each drain slot claims under its own journal worker id
// (DefaultWorkerID) and every lease it takes has the given TTL (≤0: 30s).
// Both periods derive from the TTL: Drain renews a running cell's lease
// every TTL/4, and a slot that finds every remaining cell leased elsewhere
// polls every TTL/4, clamped to [25ms, 2s] — the holder may finish, or die
// and forfeit its lease. So the TTL bounds crash detection, not cell
// runtime.
func (q *Queue) Source(ttl time.Duration) grid.Source {
	if ttl <= 0 {
		ttl = defaultLeaseTTL
	}
	poll := min(max(ttl/4, 25*time.Millisecond), 2*time.Second)
	return &leaseSource{q: q, ttl: ttl, poll: poll, ids: map[int]string{}}
}

// leaseSource is a Queue seen through grid.Source (its Claim, Beat and
// Complete live with the journal they append to).
type leaseSource struct {
	q         *Queue
	ttl, poll time.Duration
	mu        sync.Mutex
	ids       map[int]string // drain slot -> journal worker id
}

func (s *leaseSource) worker(slot int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.ids[slot]
	if !ok {
		id = DefaultWorkerID()
		s.ids[slot] = id
	}
	return id
}

// StopWait makes every WaitDrain on this handle return err at its next
// poll: a coordinator whose own drain failed must not wait forever for
// cells nobody is left to finish. The queue on disk is untouched.
func (q *Queue) StopWait(err error) {
	if err != nil {
		q.stopErr.CompareAndSwap(nil, &err)
	}
}

// WaitDrain watches the queue until every cell reaches a terminal state,
// delivering each finished cell's Result exactly once (ascending cell index
// within each poll round). Done cells are read from the result store; failed
// cells are synthesized from their journal record. This is the coordinator's
// merge feed: cells completed by any worker on any host — including cells
// finished before this process started — arrive through the same path.
// StopWait ends it early with an error.
func (q *Queue) WaitDrain(poll time.Duration, deliver func(grid.Result), progress func(done, total int, r grid.Result)) error {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	delivered := make([]bool, len(q.specs))
	n := 0
	for {
		if err := q.stopErr.Load(); err != nil {
			return *err
		}
		rs, err := q.replay()
		if err != nil {
			return err
		}
		for i := range rs.cells {
			c := rs.cells[i]
			if delivered[i] || (c.State != Done && c.State != Failed) {
				continue
			}
			var res grid.Result
			if c.State == Done {
				res, err = q.Result(i)
				if err != nil {
					return fmt.Errorf("queue: cell %d journaled done but its result is unreadable: %w", i, err)
				}
			} else {
				res = grid.Result{
					Coord: q.specs[i].Coord, Kind: q.specs[i].Kind,
					Err: c.Err, Attempts: c.Att, Seconds: c.Seconds,
				}
			}
			delivered[i] = true
			n++
			if progress != nil {
				progress(n, len(q.specs), res)
			}
			if deliver != nil {
				deliver(res)
			}
		}
		if n == len(q.specs) {
			return nil
		}
		time.Sleep(poll)
	}
}
