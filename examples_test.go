package repro

import (
	"os/exec"
	"strings"
	"testing"
)

// TestExamplesRun executes every example binary end to end and checks for
// its key output lines, so the documented entry points cannot rot. The
// simulations are deterministic, so each example that prints a table also
// pins one of its rows: a silent change to the simulated numbers fails here.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples take a few seconds each")
	}
	cases := []struct {
		dir  string
		want []string
	}{
		{"quickstart", []string{"page cache:"}},
		{"concurrent", []string{"cacheless baseline",
			"  32  read    228 write    451  read    619 write    619\n"}},
		{"nfsmount", []string{"server cache now holds"}},
		{"nighres", []string{"page-cache model vs cacheless baseline",
			"Write 1              0.08           0.85    10.3x\n"}},
		{"dagpipeline", []string{"cacheless overestimates the workflow"}},
		{"cgroups", []string{"cgroup usage"}},
		{"burstbuffer", []string{"burst buffer"}},
		{"policies", []string{"policy comparison",
			"clock            38.3            0.667\n"}},
		{"writeback", []string{"writeback comparison",
			"per-device   nvme0           4.8             2.2    12.00GB\n"}},
		{"fastforward", []string{"fast-forward vs exact",
			"warm restart: makespan 192.4s   hit ratio 1.0000   (cache restored from warm.snap.json)\n"}},
		{"chaos", []string{"scenario: server-restart",
			"the restart cost 10.1s of simulated makespan\n"}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.dir, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", "./examples/"+c.dir).CombinedOutput()
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", c.dir, err, out)
			}
			for _, want := range c.want {
				if !strings.Contains(string(out), want) {
					t.Fatalf("example %s output missing %q:\n%s", c.dir, want, out)
				}
			}
		})
	}
}
