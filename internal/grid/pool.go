package grid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Options configures a drain.
type Options struct {
	// Workers is the number of drain slots; ≤0 selects GOMAXPROCS. Run
	// clamps it to the cell count (idle slots would only cost startup).
	Workers int
	// Timeout bounds one cell attempt; 0 disables. An in-process attempt
	// that times out is abandoned (its goroutine left to finish, result
	// discarded — a stuck simulation cannot be killed, only orphaned); a
	// subprocess attempt's worker is killed and restarted.
	Timeout time.Duration
	// Retries is the number of extra attempts after a failed one (error,
	// panic, timeout, or dead worker). 0 means one attempt.
	Retries int
	// WorkerCmd, when set, execs this argv once per slot and feeds it cells
	// over the stdin/stdout JSON protocol (see ServeWorker) instead of
	// running them in-process. "ssh host experiments -worker" fans the same
	// drain out across hosts.
	WorkerCmd []string
	// WorkerEnv appends to the subprocess environment (tests use it to put
	// the test binary into worker mode).
	WorkerEnv []string
	// WorkerStderr receives subprocess worker diagnostics, each line
	// prefixed with the worker's slot id so multi-host failure output stays
	// attributable; nil selects os.Stderr.
	WorkerStderr io.Writer
}

// Run is the grid's one cell scheduler. Each of opts.Workers slots (clamped
// to the cell count) takes specs costliest first from one channel and runs
// each in process, or on the slot's WorkerCmd subprocess, under opts'
// timeout and retries. deliver is called serially, from the calling
// goroutine, with each finished Result. A failed cell is reported in its
// Result, so the returned error is always nil. Zero specs start no slot
// and return zero stats.
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
			runSlot(todo, slot, opts, results)
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
		if r.Attempts > 1 {
			stats.Retried++
		}
		if deliver != nil {
			deliver(r)
		}
	}
	stats.WallSeconds = time.Since(start).Seconds()
	return stats, nil
}

// runSlot is one slot's take → run → send loop.
func runSlot(todo <-chan Spec, slot int, opts Options, out chan<- Result) {
	exec := cellExec(runInProcess)
	if len(opts.WorkerCmd) > 0 {
		pw := &procWorker{cmdline: opts.WorkerCmd, env: opts.WorkerEnv,
			id: slot, stderr: opts.WorkerStderr}
		defer pw.stop()
		exec = pw.exec
	}
	for s := range todo {
		res := runCell(s, opts, exec)
		// The executor owns the payload; the spec owns the identity.
		res.Coord, res.Kind, res.Worker = s.Coord, s.Kind, slot
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

// cellExec runs one attempt of one cell.
type cellExec func(s Spec, timeout time.Duration) Result

// runCell drives the attempt/retry loop for one cell.
func runCell(s Spec, opts Options, exec cellExec) Result {
	var res Result
	start := time.Now()
	for attempt := 1; ; attempt++ {
		res = exec(s, opts.Timeout)
		res.Attempts = attempt
		if res.Err == "" || attempt > opts.Retries {
			break
		}
	}
	res.Seconds = time.Since(start).Seconds()
	return res
}

// runInProcess executes one attempt in this process, bounding it with the
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

// procWorker owns one worker subprocess and its protocol pipes. A dead or
// timed-out worker is killed and lazily restarted on the next cell, so a
// crashing cell costs one process, not the drain slot.
type procWorker struct {
	cmdline []string
	env     []string
	id      int       // drain slot, stamped onto relayed stderr lines
	stderr  io.Writer // nil: os.Stderr
	pre     *prefixWriter
	cmd     *exec.Cmd
	in      io.WriteCloser
	dec     *json.Decoder
}

func (p *procWorker) start() error {
	cmd := exec.Command(p.cmdline[0], p.cmdline[1:]...)
	if len(p.env) > 0 {
		cmd.Env = append(os.Environ(), p.env...)
	}
	dst := p.stderr
	if dst == nil {
		dst = os.Stderr
	}
	// Relay the worker's stderr line by line, prefixed with the slot id, so
	// interleaved diagnostics from a multi-host fan-out stay attributable.
	// Handing exec a plain io.Writer makes cmd.Wait drain the pipe fully
	// before returning — no tail lines lost on worker death.
	p.pre = &prefixWriter{dst: dst, prefix: fmt.Sprintf("[worker %d] ", p.id)}
	cmd.Stderr = p.pre
	in, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	p.cmd, p.in, p.dec = cmd, in, json.NewDecoder(out)
	return nil
}

// prefixWriter stamps a prefix onto every complete line written through it.
// exec's copy goroutine is the only writer, so no locking is needed; Flush
// emits a crashed worker's unterminated last line.
type prefixWriter struct {
	dst    io.Writer
	prefix string
	buf    []byte
}

func (w *prefixWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		fmt.Fprintf(w.dst, "%s%s\n", w.prefix, w.buf[:i])
		w.buf = w.buf[i+1:]
	}
}

// Flush emits any buffered partial line (a worker killed mid-write).
func (w *prefixWriter) Flush() {
	if len(w.buf) > 0 {
		fmt.Fprintf(w.dst, "%s%s\n", w.prefix, w.buf)
		w.buf = nil
	}
}

// stop closes the worker's stdin (EOF ends ServeWorker cleanly) and reaps it.
func (p *procWorker) stop() {
	if p.cmd == nil {
		return
	}
	p.in.Close()
	p.cmd.Wait()
	p.pre.Flush()
	p.cmd = nil
}

// kill terminates a wedged or desynchronized worker.
func (p *procWorker) kill() {
	if p.cmd == nil {
		return
	}
	p.in.Close()
	p.cmd.Process.Kill()
	p.cmd.Wait()
	p.pre.Flush()
	p.cmd = nil
}

func (p *procWorker) exec(s Spec, timeout time.Duration) Result {
	fail := func(format string, args ...any) Result {
		return Result{Coord: s.Coord, Kind: s.Kind, Err: fmt.Sprintf(format, args...)}
	}
	if p.cmd == nil {
		if err := p.start(); err != nil {
			return fail("starting worker %q: %v", strings.Join(p.cmdline, " "), err)
		}
	}
	if err := json.NewEncoder(p.in).Encode(s); err != nil {
		p.kill()
		return fail("sending spec to worker: %v", err)
	}
	type reply struct {
		res Result
		err error
	}
	ch := make(chan reply, 1)
	dec := p.dec
	go func() {
		var r Result
		err := dec.Decode(&r)
		ch <- reply{r, err}
	}()
	var timer <-chan time.Time
	if timeout > 0 {
		timer = time.After(timeout)
	}
	select {
	case rp := <-ch:
		if rp.err != nil {
			p.kill()
			return fail("worker died mid-cell: %v", rp.err)
		}
		return rp.res
	case <-timer:
		p.kill()
		return fail("cell timed out after %v (worker killed)", timeout)
	}
}
