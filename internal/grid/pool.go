package grid

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Options configures a drain.
type Options struct {
	// Workers is the number of drain slots; ≤0 selects GOMAXPROCS. Run
	// clamps it to the cell count (idle slots would only cost startup).
	Workers int
	// Timeout bounds one cell; 0 disables. A cell that times out is
	// abandoned (its goroutine left to finish, result discarded — a stuck
	// simulation cannot be killed, only orphaned).
	Timeout time.Duration
}

// Run is the grid's one cell scheduler. Each of opts.Workers slots (clamped
// to the cell count) takes specs costliest first from one channel and runs
// each in process under opts' timeout. deliver is called serially, from
// the calling goroutine, with each finished Result. A failed cell is
// reported in its Result, so the returned error is always nil. Zero specs
// start no slot and return zero stats.
func Run(specs []Spec, opts Options, deliver func(Result)) (metrics.GridStats, error) {
	if len(specs) == 0 {
		return metrics.GridStats{}, nil
	}
	n := clampWorkers(opts.Workers, len(specs))
	todo := make(chan Spec, len(specs))
	for _, i := range claimOrder(specs) {
		todo <- specs[i]
	}
	close(todo)

	stats := metrics.GridStats{BusySeconds: make([]float64, n)}
	results := make(chan Result, n)
	var wg sync.WaitGroup
	start := time.Now()
	for slot := 0; slot < n; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			runSlot(todo, slot, opts.Timeout, results)
		}(slot)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	for r := range results {
		stats.Cells++
		stats.BusySeconds[r.Worker] += r.Seconds
		if r.Err != "" {
			stats.Failed++
		}
		if deliver != nil {
			deliver(r)
		}
	}
	stats.WallSeconds = time.Since(start).Seconds()
	return stats, nil
}

// runSlot is one slot's take → run → send loop.
func runSlot(todo <-chan Spec, slot int, timeout time.Duration, out chan<- Result) {
	for s := range todo {
		start := time.Now()
		res := runInProcess(s, timeout)
		res.Seconds = time.Since(start).Seconds()
		res.Worker = slot
		out <- res
	}
}

// clampWorkers resolves the requested slot count: ≤0 means GOMAXPROCS, and
// the result is clamped to [1, cells].
func clampWorkers(requested, cells int) int {
	n := requested
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return max(1, min(n, cells))
}

// claimOrder returns the longest-cell-first run order of specs, as indices:
// descending self-estimated cost, stable on the enumeration order so
// equal-cost cells keep a deterministic sequence. Starting the costliest
// cells first keeps a drain's tail short: the last cells to finish are the
// cheap ones.
func claimOrder(specs []Spec) []int {
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return specs[order[a]].Cost > specs[order[b]].Cost })
	return order
}

// runInProcess executes one cell in this process, bounding it with the
// timeout if one is set.
func runInProcess(s Spec, timeout time.Duration) Result {
	if timeout <= 0 {
		return RunSpec(s)
	}
	done := make(chan Result, 1)
	go func() { done <- RunSpec(s) }()
	select {
	case r := <-done:
		return r
	case <-time.After(timeout):
		return Result{Coord: s.Coord, Kind: s.Kind,
			Err: fmt.Sprintf("cell timed out after %v", timeout)}
	}
}
