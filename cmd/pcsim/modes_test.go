package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

var updateSeeds = flag.Bool("update", false, "rewrite the scenario fuzzer's compiled-Doc seeds")

const (
	clusterJSON = "../../testdata/cluster.json"
	nighresJSON = "../../testdata/nighres.json"
)

// runMain runs the CLI and captures its exit code, stdout and stderr.
func runMain(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	var b strings.Builder
	code = Main(args, &b)
	os.Stderr = saved
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, b.String(), string(data)
}

// TestPcsimRejectsFlagsTheModeCannotHonour: every flag the chosen mode
// cannot honour exits 2 with a message naming it.
func TestPcsimRejectsFlagsTheModeCannotHonour(t *testing.T) {
	const scen = "../../testdata/scenarios/baseline.json"
	wf := []string{"-platform", clusterJSON, "-workflow", nighresJSON}
	cases := []struct {
		flag string
		args []string
	}{
		{"ram", []string{"-platform", clusterJSON, "-ram", "8GiB"}},
		{"mem-bw", []string{"-platform", clusterJSON, "-mem-bw", "100"}},
		{"disk-bw", []string{"-platform", clusterJSON, "-disk-bw", "100"}},
		{"size", append(wf, "-size", "1GB")},
		{"cpu", append(wf, "-cpu", "1")},
		{"instances", append(wf, "-instances", "2")},
		{"iterations", append(wf, "-iterations", "5")},
		{"instances", []string{"-iterations", "5", "-instances", "2"}},
		{"ffwd-oracle", []string{"-ffwd-oracle"}},
		{"ffwd-oracle", []string{"-platform", clusterJSON, "-ffwd-oracle"}},
		{"ffwd-oracle", append(wf, "-ffwd-oracle")},
		{"ffwd-k", []string{"-ffwd-k", "2"}},
		{"ffwd-tol", []string{"-ffwd-tol", "0.1"}},
		{"ffwd", []string{"-iterations", "5", "-ffwd-oracle", "-ffwd=false"}},
		{"csv", []string{"-iterations", "5", "-ffwd-oracle", "-csv", "m.csv"}},
		{"snapshot-out", []string{"-iterations", "5", "-ffwd-oracle", "-snapshot-out", "s.json"}},
		{"chaos-seed", []string{"-chaos-seed", "7"}},
	}
	// With -scenario, every flag but -chaos-seed and -snapshot-out.
	for _, fv := range [][2]string{
		{"size", "1GB"}, {"mode", "cacheless"}, {"instances", "2"}, {"ram", "8GiB"},
		{"chunk", "10MB"}, {"dirty-ratio", "0.3"}, {"dirty-expire", "5"}, {"policy", "clock"},
		{"writeback", "file-rr"}, {"dirty-background", "0.1"}, {"mem-bw", "100"},
		{"disk-bw", "100"}, {"cpu", "1"}, {"csv", "m.csv"}, {"platform", clusterJSON},
		{"workflow", nighresJSON}, {"iterations", "5"}, {"ffwd", "false"},
		{"ffwd-oracle", "true"}, {"ffwd-k", "2"}, {"ffwd-tol", "0.1"}, {"snapshot-in", "s.json"},
	} {
		cases = append(cases, struct {
			flag string
			args []string
		}{fv[0], []string{"-scenario", scen, "-" + fv[0] + "=" + fv[1]}})
	}
	for _, tc := range cases {
		code, stdout, stderr := runMain(t, tc.args...)
		if code != 2 || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no output", tc.args, code, stdout)
		}
		if want := fmt.Sprintf("-%s cannot be used", tc.flag); !strings.Contains(stderr, want) {
			t.Errorf("%v: stderr %q does not name -%s", tc.args, stderr, tc.flag)
		}
	}
}

// TestPcsimPlatformHonoursFlags: flags -platform used to drop silently now
// change the run.
func TestPcsimPlatformHonoursFlags(t *testing.T) {
	plat := []string{"-platform", clusterJSON, "-size", "20GB"}
	cases := []struct {
		name      string
		base, set []string
	}{
		{"instances", nil, []string{"-instances", "2"}},
		{"dirty-ratio", nil, []string{"-dirty-ratio", "0.05"}},
		{"dirty-expire", []string{"-dirty-ratio", "0.05"}, []string{"-dirty-ratio", "0.05", "-dirty-expire", "1"}},
		{"iterations", nil, []string{"-iterations", "5"}},
	}
	for _, tc := range cases {
		code, base, _ := runMain(t, append(plat, tc.base...)...)
		if code != 0 {
			t.Fatalf("%s: baseline exit %d", tc.name, code)
		}
		code, out, stderr := runMain(t, append(plat, tc.set...)...)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", tc.name, code, stderr)
		}
		if out == base {
			t.Errorf("%s: output unchanged by %v:\n%s", tc.name, tc.set, out)
		}
	}
	csv := filepath.Join(t.TempDir(), "mem.csv")
	if code, out, stderr := runMain(t, append(plat, "-csv", csv)...); code != 0 || !strings.Contains(out, "memory profile written to") {
		t.Fatalf("-csv: exit %d, stdout %q, stderr %q", code, out, stderr)
	}
	if data, err := os.ReadFile(csv); err != nil || !strings.HasPrefix(string(data), "t,used,cache,dirty,anon") {
		t.Fatalf("-csv file: %v %.40q", err, data)
	}
}

// TestPcsimIterationsFastForward: -iterations reports the skipped
// iterations with -ffwd and simulates them all without, to the same
// makespan.
func TestPcsimIterationsFastForward(t *testing.T) {
	args := []string{"-iterations", "60", "-size", "1GB", "-ram", "8GiB"}
	code, on, _ := runMain(t, args...)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	code, off, _ := runMain(t, append(args, "-ffwd=false")...)
	if code != 0 {
		t.Fatalf("-ffwd=false: exit %d", code)
	}
	if !strings.Contains(on, "fast-forward: simulated 4 iterations, skipped 56 analytically") {
		t.Errorf("no fast-forward report:\n%s", on)
	}
	if strings.Contains(off, "fast-forward") {
		t.Errorf("-ffwd=false still fast-forwarded:\n%s", off)
	}
	last := func(s string) string {
		lines := strings.Split(strings.TrimSpace(s), "\n")
		return lines[len(lines)-1]
	}
	if want := "makespan: 116.9s   read hit ratio: 0.9833"; last(on) != want || last(off) != want {
		t.Errorf("makespan lines %q / %q, want %q", last(on), last(off), want)
	}
}

func TestPcsimFfwdOraclePasses(t *testing.T) {
	code, out, _ := runMain(t, "-iterations", "60", "-size", "1GB", "-ram", "8GiB", "-ffwd-oracle")
	if code != 0 || !strings.Contains(out, "makespan error: 0.0000%") || !strings.HasSuffix(out, "oracle: PASS\n") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

// TestPcsimFailedWorkloadNamesInstance: four 20 GB pipelines on a 16 GiB
// host run out of memory by design, so the run exits 1, prints no report,
// and its error names the instance that failed.
func TestPcsimFailedWorkloadNamesInstance(t *testing.T) {
	code, out, stderr := runMain(t, "-size", "20GB", "-ram", "16GiB", "-instances", "4")
	if code != 1 || out != "" {
		t.Fatalf("exit %d, stdout %q; want exit 1 and no output", code, out)
	}
	if !strings.HasPrefix(stderr, "pcsim: workload app[0]: ") || !strings.Contains(stderr, "out of memory") {
		t.Errorf("stderr %q, want the failed instance app[0] and its out-of-memory error", stderr)
	}
}

// TestPcsimSnapshotRoundTrip saves a cache with -snapshot-out and restores
// it with -snapshot-in. The restored run starts with the saved run's cache
// and its grown output files, so its whole-file re-reads move more bytes;
// both makespans are pinned.
func TestPcsimSnapshotRoundTrip(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "warm.snap.json")
	args := []string{"-size", "3GB", "-ram", "8GiB"}
	code, saved, _ := runMain(t, append(args, "-snapshot-out", snap)...)
	if code != 0 || !strings.Contains(saved, "cache snapshot written to "+snap) {
		t.Fatalf("-snapshot-out: exit %d:\n%s", code, saved)
	}
	code, restored, stderr := runMain(t, append(args, "-snapshot-in", snap)...)
	if code != 0 {
		t.Fatalf("-snapshot-in: exit %d: %s", code, stderr)
	}
	if want := "makespan: 40.34s"; !strings.Contains(saved, want) {
		t.Errorf("saving run missing %q:\n%s", want, saved)
	}
	for _, want := range []string{"Read 2                 15.31       6.00GB", "makespan: 67.56s"} {
		if !strings.Contains(restored, want) {
			t.Errorf("restoring run missing %q:\n%s", want, restored)
		}
	}
}

// TestPcsimSnapshotInResetsCounters pins the counter reset: after
// -snapshot-in, the hit ratio covers this run only. The saved run missed
// its first read; every read of the warm run hits.
func TestPcsimSnapshotInResetsCounters(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "iter.snap.json")
	args := []string{"-iterations", "50", "-size", "1GB", "-ram", "8GiB"}
	code, out, _ := runMain(t, append(args, "-snapshot-out", snap)...)
	if code != 0 || !strings.Contains(out, "read hit ratio: 0.9800") {
		t.Fatalf("saving run: exit %d:\n%s", code, out)
	}
	code, out, _ = runMain(t, append(args, "-snapshot-in", snap)...)
	if code != 0 || !strings.Contains(out, "makespan: 96.64s   read hit ratio: 1.0000") {
		t.Fatalf("restoring run: exit %d:\n%s", code, out)
	}
}

func TestPcsimWorkflowTaskTable(t *testing.T) {
	code, out, _ := runMain(t, "-platform", clusterJSON, "-workflow", nighresJSON)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	want := `task        start (s)  end (s)
----------  ---------  -------
skullstrip       0.00   137.72
cortical       137.72   410.09
tissue         137.72   752.28
region         752.28   828.80
makespan: 828.8s
`
	if !strings.HasSuffix(out, want) {
		t.Fatalf("task table:\n%s\nwant suffix:\n%s", out, want)
	}
}

// TestScenarioSnapshotOut: -snapshot-out works with -scenario, and a
// second document restores the file through warmup.snapshotFile.
func TestScenarioSnapshotOut(t *testing.T) {
	const file = "../../testdata/scenarios/warm-drop-caches.json"
	snap := filepath.Join(t.TempDir(), "scenario.snap.json")
	code, out, _ := runMain(t, "-scenario", file, "-snapshot-out", snap)
	if code != 0 || !strings.HasSuffix(out, "cache snapshot written to "+snap+"\n") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	doc, err := scenario.Load(file)
	if err != nil {
		t.Fatal(err)
	}
	doc.Warmup = &scenario.WarmupDoc{SnapshotFile: snap}
	res, err := scenario.Run(doc, scenario.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if r := res.ReadHitRatio("node0"); r == 0 {
		t.Errorf("restored run read hit ratio %v: the snapshot warmed nothing", r)
	}
}

// seedArgs are one pcsim invocation per flag mode; their compiled Docs seed
// the scenario package's FuzzScenarioLoad.
var seedArgs = map[string][]string{
	"synthetic": {"-size", "1GB", "-ram", "8GiB", "-instances", "2", "-cpu", "0", "-csv", "mem.csv"},
	"iterative": {"-iterations", "60", "-size", "1GB", "-ram", "8GiB", "-snapshot-in", "warm.snap.json"},
	"platform":  {"-platform", clusterJSON, "-size", "1GB", "-policy", "clock", "-dirty-expire", "10"},
	"workflow":  {"-platform", clusterJSON, "-workflow", nighresJSON},
}

// TestCompiledDocsSeedScenarioFuzzer keeps the fuzzer's compiled-Doc seed
// corpus in step with the compiler (go test -run CompiledDocs -update
// rewrites it).
func TestCompiledDocsSeedScenarioFuzzer(t *testing.T) {
	for mode, args := range seedArgs {
		o, err := parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		plat, err := o.loadPlatform()
		if err != nil {
			t.Fatal(err)
		}
		doc, err := o.compile(plat)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		js, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		seed := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", js)
		path := filepath.Join("../../internal/scenario/testdata/fuzz/FuzzScenarioLoad", "pcsim-"+mode)
		if *updateSeeds {
			if err := os.WriteFile(path, []byte(seed), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != seed {
			t.Errorf("%s: seed %s is stale (err %v); rerun with -update", mode, path, err)
		}
	}
}
