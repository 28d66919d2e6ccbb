package exp

import (
	"fmt"
	"io"
	"time"

	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/queue"
)

// QueueRunOptions configures a durable-queue coordinator run.
type QueueRunOptions struct {
	// Dir is the queue directory (created if absent; resumed — after a
	// fingerprint check — if present).
	Dir string
	// LeaseTTL is the lease TTL of the local drain slots (0: the queue
	// default).
	LeaseTTL time.Duration
	// EnqueueOnly creates/validates the queue and returns without draining
	// or merging — the fleet attaches later with `-queue-worker`.
	EnqueueOnly bool
	// Drain configures the local grid.Drain over the queue: slot count,
	// per-cell timeout and retries, and -worker-cmd subprocesses.
	Drain grid.Options
	// Progress, if set, is called serially as finished cells stream out of
	// the queue's result store (cells done by remote workers included).
	Progress func(done, total int, r grid.Result)
	// Log receives coordinator diagnostics (resume notices); nil discards.
	Log io.Writer
}

// RunQueue is the durable-queue counterpart of grid.Run for a full report:
// it enumerates the sections' cells into the queue at Dir (or resumes an
// interrupted run, skipping completed cells), drains it locally with
// grid.Drain over the queue's Source, and feeds every finished cell from
// the queue's result store into the emitter, which renders sections in
// report order exactly as the in-memory path does. If the local drain
// fails, RunQueue returns its error instead of waiting for cells nobody is
// left to finish. The returned stats aggregate the journal's per-worker
// busy time across every participating worker — local, remote, and from
// prior interrupted sessions — with this call's wall clock.
func RunQueue(em *Emitter, sections []Section, o QueueRunOptions) (metrics.GridStats, error) {
	specs := SpecsOf(sections)
	q, resumed, err := queue.CreateOrResume(o.Dir, specs)
	if err != nil {
		return metrics.GridStats{}, err
	}
	logf := func(format string, args ...any) {
		if o.Log != nil {
			fmt.Fprintf(o.Log, format, args...)
		}
	}
	st, err := q.Status()
	if err != nil {
		return metrics.GridStats{}, err
	}
	if resumed {
		logf("resuming queue %s: %d/%d cells already finished\n", q.Dir(), st.Done+st.Failed, q.Cells())
	} else {
		logf("created queue %s: %d cells\n", q.Dir(), q.Cells())
	}
	if o.EnqueueOnly {
		return st.GridStats(), nil
	}

	start := time.Now()
	drained := make(chan error, 1)
	go func() {
		_, err := grid.Drain(q.Source(o.LeaseTTL), o.Drain, nil)
		if err != nil {
			q.StopWait(err)
		}
		drained <- err
	}()
	// The emitter reads from the queue's result store: every cell that any
	// worker — this process, another coordinator, a remote fleet, a previous
	// interrupted run — completed arrives through WaitDrain exactly once.
	waitErr := q.WaitDrain(0, em.Deliver, o.Progress)
	if err := <-drained; err != nil {
		return metrics.GridStats{}, err
	}
	if waitErr != nil {
		return metrics.GridStats{}, waitErr
	}
	st, err = q.Status()
	if err != nil {
		return metrics.GridStats{}, err
	}
	stats := st.GridStats()
	stats.WallSeconds = time.Since(start).Seconds()
	return stats, nil
}
