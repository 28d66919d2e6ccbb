package main

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/linuxref"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/units"
	"repro/internal/workload"
)

// localShape sizes a single-host workload: instances of the synthetic
// Table I pipeline (read, compute, write, three times) on one writeback
// host at the paper's bandwidths.
type localShape struct {
	instances int
	size      int64   // bytes per file
	cpuJitter float64 // per-instance compute spread, relative
	chunk     int64
	ram       int64
}

// concurrent-local has many processes with cheap I/O steps, so DES
// dispatch, handoffs and fluid re-solves dominate. The smoke test's
// reduced shape keeps its character at a fraction of the cost.
var (
	concurrentLocal      = localShape{instances: 32, size: 3 * units.GB, cpuJitter: 0.03, chunk: 16 * units.MB, ram: exp.RAM}
	concurrentLocalSmall = localShape{instances: 4, size: 300 * units.MB, cpuJitter: 0.03, chunk: 16 * units.MB, ram: exp.RAM}
)

// cpuScales derives each pipeline's compute-time scale from the seed:
// evenly spaced values in [1-j, 1+j] in an order the seed draws. Every seed
// simulates the same set of pipelines, so host-time figures stay
// comparable across seeds, while which pipeline computes longest — and so
// how their I/O interleaves — changes with the seed.
//
// File sizes do not vary: the core's cost depends steeply on how far the
// pipelines drift apart, because block insertions land deeper in its
// lists. With ±3 % size and compute jitter, concurrent-local's error
// against the reference stack ranged over 10–16 % depending on the seed.
func cpuScales(sh localShape, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, sh.instances)
	for i, k := range r.Perm(sh.instances) {
		out[i] = 1
		if sh.instances > 1 {
			out[i] += sh.cpuJitter * (2*float64(k)/float64(sh.instances-1) - 1)
		}
	}
	return out
}

// localWorkload is a seeded single-host pipeline workload.
type localWorkload struct {
	shape  localShape
	scales []float64
}

func newLocalWorkload(sh localShape, seed int64) *localWorkload {
	return &localWorkload{shape: sh, scales: cpuScales(sh, seed)}
}

func (w *localWorkload) describe(out io.Writer) {
	sh := w.shape
	fmt.Fprintf(out, "inputs: %d pipelines, files %s, chunk %s, RAM %s\n", sh.instances,
		units.FormatBytes(sh.size), units.FormatBytes(sh.chunk), units.FormatBytes(sh.ram))
	for i, s := range w.scales {
		fmt.Fprintf(out, "inputs: app%d cpu_scale=%.6f\n", i, s)
	}
}

func (w *localWorkload) setup(traced bool) (job, error) {
	return w.build(false, traced)
}

// modelErrPct runs the same inputs once on the reference stack (linuxref
// with the measured asymmetric bandwidths) and returns the mean absolute
// relative error of WRENCH-cache's per-instance read and write phase times
// against it, as Figs 5 and 7 compare them.
func (w *localWorkload) modelErrPct(cache outcome) (float64, error) {
	j, err := w.build(true, false)
	if err != nil {
		return 0, err
	}
	if err := j.run(); err != nil {
		return 0, fmt.Errorf("reference run: %w", err)
	}
	ref, err := j.finish()
	if err != nil {
		return 0, fmt.Errorf("reference run: %w", err)
	}
	return metrics.Mean([]float64{
		metrics.AbsRelErr(cache.readT, ref.readT),
		metrics.AbsRelErr(cache.writeT, ref.writeT),
	}), nil
}

// build assembles one run with the engine calls exp.concurrentRun uses,
// except that the host's model is passed in through AddHostWithModel so it
// can be wrapped. reference selects linuxref on the measured platform
// instead of the paper's model on the simulators' platform.
func (w *localWorkload) build(reference, traced bool) (*localJob, error) {
	sh := w.shape
	sim := engine.NewSimulation()
	j := &localJob{sim: sim, apps: sh.instances, size: sh.size}
	var model engine.CacheModel
	mem, disk := platform.SimMemorySpec("node0.mem"), platform.SimLocalDiskSpec("node0.disk")
	if reference {
		cfg := linuxref.DefaultConfig(sh.ram)
		cfg.ReadChunk = sh.chunk
		m, err := linuxref.New(cfg)
		if err != nil {
			return nil, err
		}
		model = m
		mem, disk = platform.RealMemorySpec("node0.mem"), platform.RealLocalDiskSpec("node0.disk")
	} else {
		mgr, err := core.NewManager(core.DefaultConfig(sh.ram))
		if err != nil {
			return nil, err
		}
		if model, err = engine.NewCoreModel(mgr, sh.chunk, engine.ModeWriteback); err != nil {
			return nil, err
		}
		j.mgr = mgr
	}
	if traced {
		j.tr = &tracer{sim: sim}
		model = &tracedModel{inner: model, t: j.tr}
	}
	hr, err := sim.AddHostWithModel(platform.PaperHostSpec("node0", mem), engine.ModeWriteback, model)
	if err != nil {
		return nil, err
	}
	part, err := hr.AddDisk(disk, "scratch", exp.DiskCap)
	if err != nil {
		return nil, err
	}
	for i := range w.scales {
		if err := createInput(sim, part, workload.SyntheticFiles(i)[0], sh.size); err != nil {
			return nil, err
		}
	}
	for i, scale := range w.scales {
		spec := workload.SyntheticSpec{
			Size: sh.size, CPU: workload.SyntheticCPU(sh.size),
			Files: workload.SyntheticFiles(i), CPUScale: scale,
		}
		sim.SpawnApp(hr, i, fmt.Sprintf("app%d", i), func(a *engine.App) error {
			return workload.RunSynthetic(&workload.EngineRunner{App: a, Part: part}, spec)
		})
	}
	return j, nil
}

func createInput(sim *engine.Simulation, part *storage.Partition, name string, size int64) error {
	if _, err := part.CreateSized(name, size); err != nil {
		return fmt.Errorf("creating input %s: %w", name, err)
	}
	return sim.NS.Place(name, part)
}

// localJob is one built simulation.
type localJob struct {
	sim  *engine.Simulation
	mgr  *core.Manager // nil on the reference stack
	tr   *tracer       // nil when untraced
	apps int
	size int64 // bytes per file
}

func (j *localJob) run() error {
	if j.tr != nil {
		j.tr.start()
		defer j.tr.stop()
	}
	return j.sim.Run()
}

// finish checks the run's outputs and fingerprints them.
func (j *localJob) finish() (outcome, error) {
	if err := j.checkOps(); err != nil {
		return outcome{}, err
	}
	if err := j.sim.CheckSubstrate(); err != nil {
		return outcome{}, fmt.Errorf("substrate: %w", err)
	}
	log := j.sim.Log
	o := outcome{
		readT:  log.MeanPerInstance("read"),
		writeT: log.MeanPerInstance("write"),
	}
	fp := fmt.Sprintf("ops=%016x makespan=%v", log.Fingerprint(0, len(log.Ops)), j.sim.Makespan())
	if m := j.mgr; m != nil {
		if err := m.CheckInvariants(); err != nil {
			return outcome{}, fmt.Errorf("cache invariants: %w", err)
		}
		read := int64(j.apps) * 3 * j.size
		if got := m.ReadHitBytes() + m.ReadMissBytes(); got != read {
			return outcome{}, fmt.Errorf("read hit+miss = %d bytes, want the %d bytes read", got, read)
		}
		fp += fmt.Sprintf(" hit=%d miss=%d flushed=%d", m.ReadHitBytes(), m.ReadMissBytes(), m.FlushedBytes())
	}
	o.fingerprint = fp
	if j.tr != nil && j.mgr != nil {
		o.layers = j.layers()
	}
	return o, nil
}

// checkOps requires every instance to have completed each of the
// pipeline's nine operations exactly once, each I/O moving the instance's
// file size.
func (j *localJob) checkOps() error {
	want := append(workload.SyntheticOps(), "Compute 1", "Compute 2", "Compute 3")
	count := make([]map[string]int, j.apps)
	for i := range count {
		count[i] = map[string]int{}
	}
	for _, op := range j.sim.Log.Ops {
		if op.Instance < 0 || op.Instance >= j.apps {
			return fmt.Errorf("operation %q from unknown instance %d", op.Name, op.Instance)
		}
		if op.Kind != "compute" && op.Bytes != j.size {
			return fmt.Errorf("app%d %s moved %d bytes, want %d", op.Instance, op.Name, op.Bytes, j.size)
		}
		count[op.Instance][op.Name]++
	}
	for i, c := range count {
		for _, name := range want {
			if c[name] != 1 {
				return fmt.Errorf("app%d completed %s %d times, want once", i, name, c[name])
			}
		}
		if len(c) != len(want) {
			return fmt.Errorf("app%d logged %d distinct operations, want %d", i, len(c), len(want))
		}
	}
	return nil
}

// layers reports the traced run's per-layer values.
func (j *localJob) layers() layerValues {
	t, m := j.tr, j.mgr
	st := m.Snapshot()
	hit, miss := float64(m.ReadHitBytes()), float64(m.ReadMissBytes())
	rest := t.self[layerRest].Seconds()
	lv := layerValues{
		"core.self_s":           t.self[layerModel].Seconds(),
		"core.calls":            float64(t.modelCalls),
		"core.blocks_end":       float64(st.ActiveBlocks + st.InactiveBlocks),
		"core.read_hit_ratio":   hit / (hit + miss),
		"core.flushed_gb":       float64(m.FlushedBytes()) / 1e9,
		"core.throttle_sim_s":   m.WriteThrottledSeconds(),
		"engine.io_steps":       float64(t.ioSteps),
		"engine.rest_s":         rest,
		"fluid.inflight_max":    float64(t.inflightMax),
		"des.queue_max":         float64(t.queueMax),
		"engine.ns_per_io_step": 0,
	}
	if t.ioSteps > 0 {
		lv["engine.ns_per_io_step"] = rest * 1e9 / float64(t.ioSteps)
	}
	return lv
}
