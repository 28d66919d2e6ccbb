package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScenarioLoad feeds arbitrary documents to LoadReader, resolving
// file references against the shipped scenarios' directory. Seeds: every
// shipped scenario, one Doc per pcsim flag mode as pcsim compiles it
// (testdata/fuzz/FuzzScenarioLoad, kept in step by cmd/pcsim's tests), and
// a linuxref host as the experiment grid's reference cells use it.
// Property: no panic, and an accepted document re-marshals to JSON that
// loads again.
func FuzzScenarioLoad(f *testing.F) {
	dir, err := filepath.Abs("../../testdata/scenarios")
	if err != nil {
		f.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no shipped scenarios (%v)", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name": "linuxref host",
  "platform": {"hosts": [{"name": "node0", "cores": 32, "gflops": 1, "ram": "250GiB",
    "memReadMBps": 6860, "memWriteMBps": 2764, "model": "linuxref",
    "disks": [{"name": "node0.disk", "readMBps": 510, "writeMBps": 420,
               "capacity": "450GiB", "partition": "scratch"}]}]},
  "mode": "writeback", "traceMemS": 1, "snapshotOps": true,
  "workloads": [{"name": "app", "host": "node0", "partition": "scratch",
                 "kind": "synthetic", "instances": 2, "size": "3GB"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := LoadReader(bytes.NewReader(data), dir)
		if err != nil {
			return
		}
		out, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("accepted document does not marshal: %v", err)
		}
		if _, err := LoadReader(bytes.NewReader(out), dir); err != nil {
			t.Fatalf("re-marshalled document rejected: %v\n%s", err, out)
		}
	})
}
