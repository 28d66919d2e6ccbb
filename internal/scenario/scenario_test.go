package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/units"
	"repro/internal/workload"
)

// onePlat is a single-host platform used by most tests.
func onePlat() *platform.Config {
	return &platform.Config{
		Hosts: []platform.HostConfig{{
			Name: "node0", Cores: 4, GFlops: 1, RAM: "1GiB",
			MemReadMBps: 1000, MemWriteMBps: 1000,
			Disks: []platform.DiskConfig{{
				Name: "disk0", ReadMBps: 100, WriteMBps: 100,
				Capacity: "50GiB", Partition: "scratch",
			}},
		}},
	}
}

// nfsPlat is a client/server pair joined by one link.
func nfsPlat() *platform.Config {
	c := onePlat()
	c.Hosts[0].Disks = nil
	c.Hosts = append(c.Hosts, platform.HostConfig{
		Name: "server", Cores: 4, GFlops: 1, RAM: "1GiB",
		MemReadMBps: 1000, MemWriteMBps: 1000,
		Disks: []platform.DiskConfig{{
			Name: "disk0", ReadMBps: 100, WriteMBps: 100,
			Capacity: "50GiB", Partition: "export",
		}},
	})
	c.Links = []platform.LinkConfig{{Name: "net", MBps: 100}}
	return c
}

// cpuS returns a pointer to an explicit per-task CPU time.
func cpuS(s float64) *float64 { return &s }

func baseDoc() *Doc {
	return &Doc{
		Name:     "t",
		Platform: onePlat(),
		Chunk:    "10MB",
		Workloads: []WorkloadDoc{{
			Name: "app", Host: "node0", Kind: "synthetic",
			Partition: "scratch", Size: "100MB", CPUS: cpuS(0.1),
		}},
	}
}

// TestNoChaosMatchesHandCodedRun is the bit-identical-equivalence
// guarantee: a chaos-free scenario reproduces a hand-coded engine run of
// the same setup exactly — same op log, same makespan.
func TestNoChaosMatchesHandCodedRun(t *testing.T) {
	res, err := Run(baseDoc(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}

	sim := engine.NewSimulation()
	plat, err := sim.BuildPlatform(onePlat(), engine.ModeWriteback, 10*units.MB, nil)
	if err != nil {
		t.Fatal(err)
	}
	hr, part := plat.Hosts["node0"], plat.Partitions["scratch"]
	files := workload.SyntheticFiles(0)
	if _, err := part.CreateSized(files[0], 100*units.MB); err != nil {
		t.Fatal(err)
	}
	if err := sim.NS.Place(files[0], part); err != nil {
		t.Fatal(err)
	}
	sim.SpawnApp(hr, 0, "app0", func(a *engine.App) error {
		return workload.RunSynthetic(&workload.EngineRunner{App: a, Part: part}, workload.SyntheticSpec{
			Size: 100 * units.MB, CPU: 0.1, Files: files,
		})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(res.Sim.Log, sim.Log) {
		t.Error("scenario op log differs from hand-coded run")
	}
	if res.Makespan != sim.Makespan() {
		t.Errorf("makespan %v != hand-coded %v", res.Makespan, sim.Makespan())
	}
	if !res.Passed {
		t.Errorf("implicit completion assertion failed: %+v", res.Assertions)
	}
}

// TestChaosRunsAreDeterministic runs a faulted scenario twice and demands
// byte-identical reports and identical op logs.
func TestChaosRunsAreDeterministic(t *testing.T) {
	doc := func() *Doc {
		d := baseDoc()
		d.TraceMemS = 0.5
		d.Chaos = &ChaosDoc{
			Seed: 7,
			Events: []EventDoc{
				{AtS: 0.2, Kind: "disk-slow", Target: "disk0", Factor: 0.25, DurS: 1},
				{AtS: 0.5, Kind: "drop-caches", Target: "node0"},
				{AtS: 0.7, Kind: "balloon", Target: "node0", Bytes: "600MiB", DurS: 1},
			},
			Random: &RandomDoc{
				Count: 3, StartS: 0, EndS: 3,
				Menu: []EventDoc{
					{Kind: "disk-slow", Target: "disk0", Factor: 0.5, DurS: 0.3},
					{Kind: "drop-caches", Target: "node0"},
				},
			},
		}
		d.Assertions = []AssertionDoc{
			{Kind: AssertMakespanAbove, Seconds: 0.1},
			{Kind: AssertAllDirtyFlushed, Host: "node0"},
		}
		return d
	}
	r1, err := Run(doc(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(doc(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	r1.Report(&b1)
	r2.Report(&b2)
	if b1.String() != b2.String() {
		t.Errorf("reports differ:\n%s\n---\n%s", b1.String(), b2.String())
	}
	if !reflect.DeepEqual(r1.Sim.Log, r2.Sim.Log) {
		t.Error("op logs differ between identical runs")
	}
	if !reflect.DeepEqual(r1.ChaosLog, r2.ChaosLog) {
		t.Error("chaos logs differ between identical runs")
	}
	if len(r1.ChaosLog) == 0 {
		t.Error("chaos ran but applied log is empty")
	}
	if !r1.Passed {
		t.Errorf("assertions failed:\n%s", b1.String())
	}

	// A different seed must actually change the random draw.
	r3, err := Run(doc(), RunOpts{ChaosSeed: 8, OverrideSeed: true})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(r1.ChaosLog, r3.ChaosLog) {
		t.Error("seed override did not change the chaos schedule")
	}
}

// TestServerRestartScenario exercises the NFS path: a soft mount errors
// out during a server restart (failed assertion), while a hard mount rides
// it out (completed + no-data-loss).
func TestServerRestartScenario(t *testing.T) {
	doc := func(policy string) *Doc {
		return &Doc{
			Name:     "nfs",
			Platform: nfsPlat(),
			Chunk:    "10MB",
			Mounts: []MountDoc{{
				Client: "node0", Partition: "export", Link: "net",
				ServerCache: true,
				Retry:       &RetryDoc{Policy: policy, TimeoutS: 0.5},
			}},
			Workloads: []WorkloadDoc{{
				Name: "app", Host: "node0", Kind: "synthetic",
				Partition: "export", Size: "100MB", CPUS: cpuS(0.1),
			}},
			Chaos: &ChaosDoc{Events: []EventDoc{
				{AtS: 0.5, Kind: "server-restart", Target: "export", DurS: 30},
			}},
		}
	}

	soft := doc("error")
	soft.Assertions = []AssertionDoc{{Kind: AssertFailed, Workload: "app"}}
	rs, err := Run(soft, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Passed {
		var b bytes.Buffer
		rs.Report(&b)
		t.Errorf("soft-mount scenario failed:\n%s", b.String())
	}

	hard := doc("hard")
	hard.Assertions = []AssertionDoc{
		{Kind: AssertCompleted, Workload: "app"},
		{Kind: AssertNoDataLoss, Partition: "export"},
		{Kind: AssertMakespanAbove, Seconds: 30}, // it stalled through the outage
	}
	rh, err := Run(hard, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !rh.Passed {
		var b bytes.Buffer
		rh.Report(&b)
		t.Errorf("hard-mount scenario failed:\n%s", b.String())
	}
	if rh.Makespan <= rs.Makespan {
		t.Errorf("hard mount (%.2fs) should outlast soft mount (%.2fs)", rh.Makespan, rs.Makespan)
	}
}

// TestCgroupScenario squeezes a cgroup mid-run and checks the workload
// still completes with its private cache drained.
func TestCgroupScenario(t *testing.T) {
	d := baseDoc()
	d.Cgroups = []CgroupDoc{{Host: "node0", Name: "g1", Limit: "512MiB"}}
	d.Workloads[0].Cgroup = "g1"
	d.Chaos = &ChaosDoc{Events: []EventDoc{
		{AtS: 0.5, Kind: "cgroup-limit", Target: "g1", Bytes: "256MiB", DurS: 1},
	}}
	d.Assertions = []AssertionDoc{
		{Kind: AssertCompleted, Workload: "app"},
		{Kind: AssertAllDirtyFlushed, Host: "node0"},
	}
	res, err := Run(d, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		var b bytes.Buffer
		res.Report(&b)
		t.Errorf("cgroup scenario failed:\n%s", b.String())
	}
	found := false
	for _, line := range res.ChaosLog {
		if strings.Contains(line, "cgroup-limit g1") {
			found = true
		}
	}
	if !found {
		t.Errorf("cgroup-limit fault not applied: %q", res.ChaosLog)
	}
}

// TestImplicitCompletionCatchesFailures: an unexpected workload error must
// fail the run even without any explicit assertion.
func TestImplicitCompletionCatchesFailures(t *testing.T) {
	d := &Doc{
		Name:     "nfs",
		Platform: nfsPlat(),
		Chunk:    "10MB",
		Mounts: []MountDoc{{
			Client: "node0", Partition: "export", Link: "net",
			Retry: &RetryDoc{Policy: "error", TimeoutS: 0.5},
		}},
		Workloads: []WorkloadDoc{{
			Name: "app", Host: "node0", Kind: "synthetic",
			Partition: "export", Size: "100MB", CPUS: cpuS(0.1),
		}},
		Chaos: &ChaosDoc{Events: []EventDoc{
			{AtS: 0.5, Kind: "server-restart", Target: "export", DurS: 30},
		}},
	}
	res, err := Run(d, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed {
		t.Error("run passed despite an unasserted workload failure")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Doc)
		want string
	}{
		{"no name", func(d *Doc) { d.Name = "" }, "missing name"},
		{"no platform", func(d *Doc) { d.Platform = nil }, "needs a platform"},
		{"bad mode", func(d *Doc) { d.Mode = "turbo" }, "unknown mode"},
		{"bad chunk", func(d *Doc) { d.Chunk = "fast" }, "bad chunk"},
		{"bad dirty ratio", func(d *Doc) { d.DirtyRatio = 1.5 }, "dirtyRatio"},
		{"no workloads", func(d *Doc) { d.Workloads = nil }, "no workloads"},
		{"bad workload host", func(d *Doc) { d.Workloads[0].Host = "ghost" }, "unknown host"},
		{"bad workload kind", func(d *Doc) { d.Workloads[0].Kind = "quantum" }, "unknown kind"},
		{"synthetic needs size", func(d *Doc) { d.Workloads[0].Size = "" }, "needs a size"},
		{"iterative needs iterations", func(d *Doc) { d.Workloads[0].Kind = "iterative" }, "positive iterations"},
		{"workflow needs a file", func(d *Doc) { d.Workloads[0].Kind = "workflow" }, "needs a workflowFile"},
		{"negative cpuS", func(d *Doc) { d.Workloads[0].CPUS = cpuS(-1) }, "negative cpuS"},
		{"negative dirty expire", func(d *Doc) { d.DirtyExpireS = cpuS(-1) }, "negative dirtyExpireS"},
		{"invalid host cache config", func(d *Doc) {
			d.DirtyRatio = 0.1
			d.Platform.Hosts[0].DirtyBackgroundRatio = 0.2
		}, "DirtyBackgroundRatio"},
		{"unknown cgroup ref", func(d *Doc) { d.Workloads[0].Cgroup = "g9" }, "unknown cgroup"},
		{"dup workload", func(d *Doc) { d.Workloads = append(d.Workloads, d.Workloads[0]) }, "duplicate workload"},
		{"bad cgroup limit", func(d *Doc) {
			d.Cgroups = []CgroupDoc{{Host: "node0", Name: "g", Limit: "0"}}
		}, "bad limit"},
		{"bad chaos kind", func(d *Doc) {
			d.Chaos = &ChaosDoc{Events: []EventDoc{{Kind: "meteor", Target: "x"}}}
		}, "unknown event kind"},
		{"chaos missing target", func(d *Doc) {
			d.Chaos = &ChaosDoc{Events: []EventDoc{{Kind: "disk-slow"}}}
		}, "missing target"},
		{"bad chaos bytes", func(d *Doc) {
			d.Chaos = &ChaosDoc{Events: []EventDoc{{Kind: "balloon", Target: "node0", Bytes: "much", DurS: 1}}}
		}, "bad bytes"},
		{"bad random window", func(d *Doc) {
			d.Chaos = &ChaosDoc{Random: &RandomDoc{Count: 1, StartS: 5, EndS: 1,
				Menu: []EventDoc{{Kind: "drop-caches", Target: "node0"}}}}
		}, "bad window"},
		{"bad assertion kind", func(d *Doc) {
			d.Assertions = []AssertionDoc{{Kind: "vibes-good"}}
		}, "unknown assertion kind"},
		{"assertion unknown host", func(d *Doc) {
			d.Assertions = []AssertionDoc{{Kind: AssertAllDirtyFlushed, Host: "ghost"}}
		}, "unknown host"},
		{"assertion unknown workload", func(d *Doc) {
			d.Assertions = []AssertionDoc{{Kind: AssertCompleted, Workload: "ghost"}}
		}, "unknown workload"},
		{"mount unknown link", func(d *Doc) {
			*d = *baseDoc()
			d.Platform = nfsPlat()
			d.Workloads[0].Partition = "export"
			d.Mounts = []MountDoc{{Client: "node0", Partition: "export", Link: "wifi"}}
		}, "unknown link"},
		{"mount local partition", func(d *Doc) {
			d.Mounts = []MountDoc{{Client: "node0", Partition: "scratch", Link: "net"}}
		}, "local to"},
		{"unmounted remote workload", func(d *Doc) {
			*d = *baseDoc()
			d.Platform = nfsPlat()
			d.Workloads[0].Partition = "export"
		}, "not mounted"},
		{"bad retry policy", func(d *Doc) {
			*d = *baseDoc()
			d.Platform = nfsPlat()
			d.Workloads[0].Partition = "export"
			d.Mounts = []MountDoc{{Client: "node0", Partition: "export", Link: "net",
				Retry: &RetryDoc{Policy: "yolo"}}}
		}, "unknown retry policy"},
	}
	for _, tc := range cases {
		d := baseDoc()
		tc.mut(d)
		err := d.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestUnknownChaosTargetFailsAtArm: targets resolve against the runner's
// registries, so a typo'd target is a Run-time configuration error.
func TestUnknownChaosTargetFailsAtArm(t *testing.T) {
	d := baseDoc()
	d.Chaos = &ChaosDoc{Events: []EventDoc{{AtS: 1, Kind: "disk-slow", Target: "nope", Factor: 0.5}}}
	if _, err := Run(d, RunOpts{}); err == nil || !strings.Contains(err.Error(), "unknown disk") {
		t.Fatalf("err = %v, want unknown disk", err)
	}
}

// TestLoadReader parses a complete JSON document end to end.
func TestLoadReader(t *testing.T) {
	const js = `{
	  "name": "smoke",
	  "platform": {
	    "hosts": [{"name": "n0", "cores": 2, "gflops": 1, "ram": "1GiB",
	               "memReadMBps": 1000, "memWriteMBps": 1000,
	               "disks": [{"name": "d0", "readMBps": 100, "writeMBps": 100,
	                          "capacity": "10GiB", "partition": "scratch"}]}]
	  },
	  "chunk": "10MB",
	  "workloads": [{"name": "w", "host": "n0", "kind": "synthetic",
	                 "partition": "scratch", "size": "50MB", "cpuS": 0.05}],
	  "chaos": {"events": [{"atS": 0.1, "kind": "drop-caches", "target": "n0"}]},
	  "assertions": [{"kind": "makespan-below", "seconds": 1000}]
	}`
	d, err := LoadReader(strings.NewReader(js), ".")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		var b bytes.Buffer
		res.Report(&b)
		t.Errorf("smoke scenario failed:\n%s", b.String())
	}
	if _, err := LoadReader(strings.NewReader(`{"name": "x", "bogusField": 1}`), "."); err == nil {
		t.Error("unknown field accepted")
	}
}

// TestWarmupSnapshotFileWithNullStateFails feeds a snapshot whose host
// entry is null to the warmup stanza: the run must fail with an error naming
// the entry, never dereference the missing state.
func TestWarmupSnapshotFileWithNullStateFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "null.snap.json")
	if err := os.WriteFile(path, []byte(`{"version": 2, "hosts": {"node0": null}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	d := baseDoc()
	d.Warmup = &WarmupDoc{SnapshotFile: path}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	_, err := Run(d, RunOpts{})
	if err == nil || !strings.Contains(err.Error(), `host "node0" has a null state`) {
		t.Fatalf("err = %v, want the null host state named", err)
	}
}

// TestIterativeAndWorkflowKinds runs the two kinds pcsim's -iterations and
// -workflow compile to. An explicit "cpuS": 0 means no compute; a
// workflowFile resolves against the scenario's directory, and the run
// records its per-task timings.
func TestIterativeAndWorkflowKinds(t *testing.T) {
	d := baseDoc()
	d.Workloads[0] = WorkloadDoc{Name: "iter", Host: "node0", Kind: "iterative",
		Partition: "scratch", Size: "100MB", Iterations: 5, CPUS: cpuS(0)}
	res, err := Run(d, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Sim.Log.ByName("IterRead")); n != 5 {
		t.Errorf("%d iterations read, want 5", n)
	}
	for _, op := range res.Sim.Log.ByName("IterCompute") {
		if op.Duration() != 0 {
			t.Fatalf("cpuS 0 computed for %gs", op.Duration())
		}
	}

	const js = `{
	  "name": "wf", "platformFile": "cluster.json",
	  "workloads": [{"name": "dag", "host": "node0", "kind": "workflow",
	                 "partition": "scratch", "workflowFile": "nighres.json"}]
	}`
	d, err = LoadReader(strings.NewReader(js), "../../testdata")
	if err != nil {
		t.Fatal(err)
	}
	if d.PlatformFile != "" || d.Workloads[0].WorkflowFile != filepath.Join("../../testdata", "nighres.json") {
		t.Fatalf("file references not resolved: %q, %q", d.PlatformFile, d.Workloads[0].WorkflowFile)
	}
	res, err = Run(d, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	x := res.Workflows["dag[0]"]
	if x == nil || len(x.Report.Timings) != 4 || !res.Passed {
		t.Fatalf("workflow run: %+v, passed %v", x, res.Passed)
	}
	if x.Report.Makespan != res.Makespan {
		t.Errorf("workflow makespan %v, run makespan %v", x.Report.Makespan, res.Makespan)
	}
}
