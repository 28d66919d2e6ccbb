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
// (testdata/fuzz/FuzzScenarioLoad, kept in step by cmd/pcsim's tests), a
// linuxref host as the experiment grid's reference cells use it, and the
// bare write and writeread writers of the writeback and device ablations.
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
	f.Add([]byte(`{"name": "bare writers",
  "platform": {"hosts": [{"name": "node0", "cores": 4, "gflops": 1, "ram": "1GiB",
    "memReadMBps": 1000, "memWriteMBps": 1000, "perDeviceWriteback": true,
    "disks": [{"name": "fast", "readMBps": 2000, "writeMBps": 2000,
               "capacity": "10GiB", "partition": "fastpart"},
              {"name": "slow", "readMBps": 120, "writeMBps": 120,
               "capacity": "10GiB", "partition": "slowpart"}]}]},
  "traceMemS": 20,
  "workloads": [{"name": "storm", "host": "node0", "partition": "fastpart",
                 "kind": "write", "size": "2GB"},
                {"name": "burst", "host": "node0", "partition": "slowpart",
                 "kind": "writeread", "instances": 2, "size": "500MB", "cpuS": 5}]}`))
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
