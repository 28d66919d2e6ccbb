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
// shipped scenario, plus one Doc per pcsim flag mode as pcsim compiles it
// (testdata/fuzz/FuzzScenarioLoad, kept in step by cmd/pcsim's tests).
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
