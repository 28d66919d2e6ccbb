package platform

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzPlatformConfig feeds arbitrary documents to LoadConfig. Seeds: the
// shipped cluster description and the inline platform of every shipped
// scenario. Property: no panic; an accepted config converts every host,
// disk and link to its spec without error and with sizes that are not
// negative, and re-marshals to JSON that loads again.
func FuzzPlatformConfig(f *testing.F) {
	cluster, err := os.ReadFile("../../testdata/cluster.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(cluster)
	files, err := filepath.Glob("../../testdata/scenarios/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no shipped scenarios (%v)", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var doc struct {
			Platform json.RawMessage `json:"platform"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		if len(doc.Platform) > 0 {
			f.Add([]byte(doc.Platform))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := LoadConfig(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, h := range c.Hosts {
			hs, err := h.HostSpec()
			if err != nil || hs.MemoryCap < 0 {
				t.Fatalf("accepted host %q converts to RAM %d (err %v)", h.Name, hs.MemoryCap, err)
			}
			for _, d := range h.Disks {
				if _, capacity, err := d.DeviceSpec(); err != nil || capacity < 0 {
					t.Fatalf("accepted disk %q converts to capacity %d (err %v)", d.Name, capacity, err)
				}
			}
		}
		for _, l := range c.Links {
			l.LinkSpec()
		}
		out, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("accepted config does not marshal: %v", err)
		}
		if _, err := LoadConfig(bytes.NewReader(out)); err != nil {
			t.Fatalf("re-marshalled config rejected: %v\n%s", err, out)
		}
	})
}
