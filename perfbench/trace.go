package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/engine"
)

// layer is one side of the global layer clock.
type layer int

const (
	// layerRest is everything outside the cache model: application glue in
	// internal/engine, DES dispatch and process handoffs in internal/des,
	// and fluid re-solves in internal/fluid.
	layerRest layer = iota
	// layerModel is time inside an engine.CacheModel method (internal/core
	// or linuxref), excluding the Caller steps it makes.
	layerModel
)

// tracer attributes one simulation's host wall time to the cache-model
// layer and to the rest, and counts work at the two seams it wraps:
// engine.CacheModel and core.Caller.
//
// Only one simulated process runs at a time, so a single clock switched at
// every wrapped boundary gives exact self times. Per-call intervals would
// not: a model call that blocks in a Caller step overlaps every other
// process that runs meanwhile.
type tracer struct {
	sim   *engine.Simulation
	cur   layer
	since time.Time
	self  [2]time.Duration

	modelCalls  int64
	ioSteps     int64
	inflightMax int
	queueMax    int
}

// start begins attributing wall time, in layerRest.
func (t *tracer) start() {
	t.cur, t.since = layerRest, time.Now()
}

// stop closes the current interval.
func (t *tracer) stop() { t.switchTo(layerRest) }

func (t *tracer) switchTo(l layer) {
	now := time.Now()
	t.self[t.cur] += now.Sub(t.since)
	t.cur, t.since = l, now
}

// step counts one Caller step and samples the substrate's peaks.
func (t *tracer) step() {
	t.ioSteps++
	if n := t.sim.Sys.InFlight(); n > t.inflightMax {
		t.inflightMax = n
	}
	if n := t.sim.K.QueueLen(); n > t.queueMax {
		t.queueMax = n
	}
}

// tracedModel wraps a CacheModel so the time spent inside it is charged to
// layerModel.
type tracedModel struct {
	inner engine.CacheModel
	t     *tracer
}

func (m *tracedModel) enter() {
	m.t.modelCalls++
	m.t.switchTo(layerModel)
}

func (m *tracedModel) leave() { m.t.switchTo(layerRest) }

func (m *tracedModel) ReadFile(c core.Caller, file string, n, fileSize int64) error {
	m.enter()
	defer m.leave()
	return m.inner.ReadFile(&tracedCaller{inner: c, t: m.t, switches: true}, file, n, fileSize)
}

func (m *tracedModel) WriteFile(c core.Caller, file string, size int64) error {
	m.enter()
	defer m.leave()
	return m.inner.WriteFile(&tracedCaller{inner: c, t: m.t, switches: true}, file, size)
}

func (m *tracedModel) ReleaseAnon(n int64) {
	m.enter()
	defer m.leave()
	m.inner.ReleaseAnon(n)
}

func (m *tracedModel) InvalidateFile(file string) {
	m.enter()
	defer m.leave()
	m.inner.InvalidateFile(file)
}

func (m *tracedModel) Snapshot() core.Stats {
	m.enter()
	defer m.leave()
	return m.inner.Snapshot()
}

func (m *tracedModel) CachedByFile() map[string]int64 {
	m.enter()
	defer m.leave()
	return m.inner.CachedByFile()
}

// Start hands the model's background processes (flushers) callers that
// count steps but never switch the clock: those processes were not entered
// through a wrapped model call, so their callbacks must not re-enter
// layerModel.
func (m *tracedModel) Start(k *des.Kernel, mkCaller func(*des.Proc) core.Caller, running func() bool) {
	m.inner.Start(k, func(p *des.Proc) core.Caller {
		return &tracedCaller{inner: mkCaller(p), t: m.t}
	}, running)
}

// tracedCaller wraps the Caller a model call received. A step leaves the
// model for the substrate and returns to it afterwards.
type tracedCaller struct {
	inner    core.Caller
	t        *tracer
	switches bool
}

// procCarrier is the optional Caller method linuxref uses for condition
// waits; the wrapper must forward it or linuxref cannot throttle writers.
type procCarrier interface{ Proc() *des.Proc }

// Proc forwards the wrapped caller's process (nil when it has none, which
// is what linuxref sees for a caller without the method).
func (c *tracedCaller) Proc() *des.Proc {
	if pc, ok := c.inner.(procCarrier); ok {
		return pc.Proc()
	}
	return nil
}

func (c *tracedCaller) Now() float64 { return c.inner.Now() }

func (c *tracedCaller) DiskRead(file string, n int64) {
	c.enter()
	c.inner.DiskRead(file, n)
	c.leave()
}

func (c *tracedCaller) DiskWrite(file string, n int64) {
	c.enter()
	c.inner.DiskWrite(file, n)
	c.leave()
}

func (c *tracedCaller) MemRead(n int64) {
	c.enter()
	c.inner.MemRead(n)
	c.leave()
}

func (c *tracedCaller) MemWrite(n int64) {
	c.enter()
	c.inner.MemWrite(n)
	c.leave()
}

func (c *tracedCaller) enter() {
	c.t.step()
	if c.switches {
		c.t.switchTo(layerRest)
	}
}

func (c *tracedCaller) leave() {
	if c.switches {
		c.t.switchTo(layerModel)
	}
}
