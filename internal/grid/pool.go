package grid

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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
	// MaxCells, when positive, stops each slot after that many cells.
	// Bounded drains suit spot capacity and make interruption testable.
	MaxCells int
	// WorkerCmd, when set, execs this argv once per slot and feeds it cells
	// over the stdin/stdout JSON protocol (see ServeWorker) instead of
	// running them in-process. "ssh host experiments -worker" fans the same
	// source out across hosts.
	WorkerCmd []string
	// WorkerEnv appends to the subprocess environment (tests use it to put
	// the test binary into worker mode).
	WorkerEnv []string
	// WorkerStderr receives subprocess worker diagnostics, each line
	// prefixed with the worker's slot id so multi-host failure output stays
	// attributable; nil selects os.Stderr.
	WorkerStderr io.Writer
}

// Claim is one cell a Source handed to a drain slot.
type Claim struct {
	// Cell is the source's handle on the cell, passed back to Complete.
	Cell int
	Spec Spec
	// Beat is how often Drain calls Source.Beat while the cell runs; 0 means
	// the claim never expires and needs no heartbeat.
	Beat time.Duration
}

// Source is where Drain's slots claim cells and return their results: the
// in-memory spec list behind Run, or the durable queue journal
// (queue.Queue.Source), which leases cells under a TTL. It must be safe
// for concurrent use by all slots.
type Source interface {
	// Claim hands slot its next cell. Otherwise ok is false and poll is 0
	// when every cell is finished, or how long to wait before asking again
	// while other claimers hold every remaining cell.
	Claim(slot int) (c Claim, ok bool, poll time.Duration, err error)
	// Beat renews slot's claim while its cell runs.
	Beat(slot int) error
	// Complete records the outcome of slot's claim c.
	Complete(slot int, c Claim, r Result) error
}

// Run drains specs from memory: Drain over a source that hands the specs
// out costliest first and never leases, beats or polls. Workers is clamped
// to the cell count.
func Run(specs []Spec, opts Options, deliver func(Result)) (metrics.GridStats, error) {
	opts.Workers = clampWorkers(opts.Workers, len(specs))
	src := make(memSource, len(specs))
	for _, i := range ClaimOrder(specs) {
		src <- Claim{Cell: i, Spec: specs[i]}
	}
	close(src)
	return Drain(src, opts, deliver)
}

// Drain is the grid's one cell scheduler. Each of opts.Workers slots
// claims a cell from src, runs it (in process, or on the slot's WorkerCmd
// subprocess) under opts' timeout and retries, heartbeats the claim
// meanwhile, and completes it. deliver is called serially, from the
// calling goroutine, with each completed Result. A failed cell is reported
// in its Result, never as a drain error. A source error stops every slot
// from claiming more and is returned once the running cells finish. The
// stats cover the cells this drain ran.
func Drain(src Source, opts Options, deliver func(Result)) (metrics.GridStats, error) {
	n := clampWorkers(opts.Workers, 0)
	stats := metrics.GridStats{BusySeconds: make([]float64, n)}
	results := make(chan Result, n)
	errs := make([]error, n)
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for slot := 0; slot < n; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			if errs[slot] = drainSlot(src, slot, opts, &stop, results); errs[slot] != nil {
				stop.Store(true)
			}
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
	return stats, errors.Join(errs...)
}

// drainSlot is one slot's claim → run → complete loop.
func drainSlot(src Source, slot int, opts Options, stop *atomic.Bool, out chan<- Result) error {
	exec := cellExec(runInProcess)
	if len(opts.WorkerCmd) > 0 {
		pw := &procWorker{cmdline: opts.WorkerCmd, env: opts.WorkerEnv,
			id: slot, stderr: opts.WorkerStderr}
		defer pw.stop()
		exec = pw.exec
	}
	for ran := 0; opts.MaxCells <= 0 || ran < opts.MaxCells; ran++ {
		c, ok, err := claim(src, slot, stop)
		if err != nil {
			return fmt.Errorf("grid: claiming a cell: %w", err)
		}
		if !ok {
			return nil
		}
		endBeat := heartbeat(src, slot, c.Beat)
		res := runCell(c.Spec, opts, exec)
		endBeat()
		// The executor owns the payload; the spec owns the identity.
		res.Coord, res.Kind, res.Worker = c.Spec.Coord, c.Spec.Kind, slot
		if err := src.Complete(slot, c, res); err != nil {
			return fmt.Errorf("grid: completing %s: %w", c.Spec.Coord, err)
		}
		out <- res
	}
	return nil
}

// claim asks src for slot's next cell, polling while other claimers hold
// every remaining one. ok is false once src is drained or the drain stops.
func claim(src Source, slot int, stop *atomic.Bool) (c Claim, ok bool, err error) {
	for !stop.Load() {
		c, ok, poll, err := src.Claim(slot)
		if err != nil || ok || poll <= 0 {
			return c, ok, err
		}
		time.Sleep(poll)
	}
	return Claim{}, false, nil
}

// heartbeat calls src.Beat for slot every period until the returned stop
// function is called; a zero period starts nothing. A failed beat (a
// transient filesystem error) is not fatal: the claim just ages toward
// expiry and the next beat retries.
func heartbeat(src Source, slot int, period time.Duration) (stop func()) {
	if period <= 0 {
		return func() {}
	}
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				src.Beat(slot)
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// memSource hands out in-memory claims in queued order. They never expire,
// so it never beats, polls or records anything.
type memSource chan Claim

func (m memSource) Claim(int) (Claim, bool, time.Duration, error) {
	c, ok := <-m
	return c, ok, 0, nil
}

func (memSource) Beat(int) error                    { return nil }
func (memSource) Complete(int, Claim, Result) error { return nil }

// clampWorkers resolves the requested slot count: ≤0 means GOMAXPROCS, and
// the result is clamped to [1, cells] (cells 0: no upper clamp).
func clampWorkers(requested, cells int) int {
	n := requested
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if cells > 0 && n > cells {
		n = cells
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ClaimOrder returns the longest-cell-first claim order of specs, as
// indices: descending self-estimated cost, stable on the enumeration order
// so equal-cost cells keep a deterministic sequence. Starting the costliest
// cells first keeps a drain's tail short: the last cells to finish are the
// cheap ones. Both sources claim in this order.
func ClaimOrder(specs []Spec) []int {
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
