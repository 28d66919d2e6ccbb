package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/storage"
	"repro/internal/units"
)

// TestCellDocsRoundTrip checks that a cell's document describes the cell
// fully: for one cell of each engine-backed family, at reduced size, the
// document marshalled to JSON, reloaded with scenario.LoadReader and run
// gives the same payload bytes as the cell itself.
func TestCellDocsRoundTrip(t *testing.T) {
	wb := wbWorkloads(false) // burst, pipeline, NFS; RAM and volumes cut to 1/16
	for i := range wb {
		wb[i].ram /= 16
		for j := range wb[i].sizes {
			wb[i].sizes[j] /= 16
		}
	}
	cells := map[string]docCell{
		"exp1":       exp1Args{Size: units.GB, Stack: StackReal},
		"concurrent": concurrentArgs{N: 3, Size: 300 * units.MB, Remote: true, Stack: StackReal, Rep: 1, Jitter: 0.03},
		"exp4":       exp4Args{Stack: StackCache},
		"ablation":   ablationArgs{Size: units.GB, Variant: "asymmetric + protection"},
		"ablation2":  ablationArgs{Size: units.GB, Variant: "shared disk channel"},
		"policy":     policyArgs{Workload: "synthetic-20gb-32gbram", Policy: "clock"},
		"ffwd":       ffwdArgs{Workload: "iter-60x1gb", FFwd: true},
		"fig8":       fig8Args{Mode: engine.ModeCacheless, Remote: true, N: 2},
		"writeback":  writebackCell{w: wb[0], wb: "file-rr", bg: 0.1},
		"writeback2": writebackCell{w: wb[1], wb: "oldest-first"},
		"writeback3": writebackCell{w: wb[2], wb: "proportional", bg: 0.1},
		"devices":    devicesCell{mode: "per-device", ram: 2 * units.GiB, size: 3 * units.GB, chunk: 10 * units.MB},
	}
	for name, c := range cells {
		want, err := runDocCell(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantRaw, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		d, opts, err := c.doc()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := scenario.LoadReader(bytes.NewReader(raw), "")
		if err != nil {
			t.Fatalf("%s: reloading its document: %v\n%s", name, err, raw)
		}
		res, err := runDoc(loaded, opts)
		if err != nil {
			t.Fatalf("%s: running the reloaded document: %v", name, err)
		}
		gotRaw, err := json.Marshal(c.payload(res))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotRaw, wantRaw) {
			t.Errorf("%s: reloaded document's payload differs:\n got %s\nwant %s", name, gotRaw, wantRaw)
		}
	}
}

// fullDiskCell is a cell whose pipelines write more than their partition
// holds.
type fullDiskCell struct{}

func (fullDiskCell) doc() (*scenario.Doc, scenario.RunOpts, error) {
	d := paperDoc("full disk", engine.ModeWriteback, false, false)
	d.Platform.Hosts[0].Disks[0].Capacity = byteStr(3 * units.GB)
	addSynthetic(d, 2, units.GB, 0, 0)
	return d, scenario.RunOpts{}, nil
}

func (fullDiskCell) payload(*scenario.Result) any { return "payload of a failed run" }

// TestFailedWorkloadFailsCell: scenario.Run records workload failures in
// the result rather than returning them; a cell must not turn such a run
// into a payload.
func TestFailedWorkloadFailsCell(t *testing.T) {
	pay, err := runDocCell(fullDiskCell{})
	if err == nil {
		t.Fatalf("cell succeeded with payload %v", pay)
	}
	var full *storage.ErrNoSpace
	if !errors.As(err, &full) {
		t.Fatalf("err = %v, want the partition-full error", err)
	}
	if !strings.Contains(err.Error(), "full disk: workload app[0]: ") {
		t.Fatalf("err = %v, want it to name the document and the first failed instance", err)
	}
}
