package platform

import (
	"strings"
	"testing"

	"repro/internal/units"
)

const goodConfig = `{
  "hosts": [{
    "name": "node0", "cores": 32, "gflops": 1,
    "ram": "250GiB", "memReadMBps": 6860, "memWriteMBps": 2764,
    "disks": [{"name": "ssd0", "readMBps": 510, "writeMBps": 420,
               "capacity": "450GiB", "partition": "scratch"}]
  }],
  "links": [{"name": "net", "mbps": 3000}]
}`

func TestLoadConfigGood(t *testing.T) {
	c, err := LoadConfig(strings.NewReader(goodConfig))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Hosts) != 1 || len(c.Links) != 1 {
		t.Fatalf("config = %+v", c)
	}
	spec, err := c.Hosts[0].HostSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Cores != 32 || spec.FlopRate != 1e9 || spec.MemoryCap != 250*units.GiB {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.Memory.ReadBW != units.MBps(6860) || spec.Memory.WriteBW != units.MBps(2764) {
		t.Fatalf("memory = %+v", spec.Memory)
	}
	dspec, capacity, err := c.Hosts[0].Disks[0].DeviceSpec()
	if err != nil {
		t.Fatal(err)
	}
	if dspec.ReadBW != units.MBps(510) || capacity != 450*units.GiB {
		t.Fatalf("disk = %+v cap=%d", dspec, capacity)
	}
	if l := c.Links[0].LinkSpec(); l.BW != units.MBps(3000) {
		t.Fatalf("link = %+v", l)
	}
}

func TestLoadConfigRejections(t *testing.T) {
	cases := []struct{ name, json string }{
		{"empty hosts", `{"hosts": []}`},
		{"unknown field", `{"hosts": [{"name":"a","cores":1,"gflops":1,"ram":"1GiB","memReadMBps":1,"memWriteMBps":1}], "bogus": 1}`},
		{"no name", `{"hosts": [{"cores":1,"gflops":1,"ram":"1GiB","memReadMBps":1,"memWriteMBps":1}]}`},
		{"zero cores", `{"hosts": [{"name":"a","cores":0,"gflops":1,"ram":"1GiB","memReadMBps":1,"memWriteMBps":1}]}`},
		{"bad ram", `{"hosts": [{"name":"a","cores":1,"gflops":1,"ram":"lots","memReadMBps":1,"memWriteMBps":1}]}`},
		{"zero mem bw", `{"hosts": [{"name":"a","cores":1,"gflops":1,"ram":"1GiB","memReadMBps":0,"memWriteMBps":1}]}`},
		{"dup host", `{"hosts": [
			{"name":"a","cores":1,"gflops":1,"ram":"1GiB","memReadMBps":1,"memWriteMBps":1},
			{"name":"a","cores":1,"gflops":1,"ram":"1GiB","memReadMBps":1,"memWriteMBps":1}]}`},
		{"disk no partition", `{"hosts": [{"name":"a","cores":1,"gflops":1,"ram":"1GiB","memReadMBps":1,"memWriteMBps":1,
			"disks":[{"name":"d","readMBps":1,"writeMBps":1,"capacity":"1GiB"}]}]}`},
		{"dup partition", `{"hosts": [{"name":"a","cores":1,"gflops":1,"ram":"1GiB","memReadMBps":1,"memWriteMBps":1,
			"disks":[{"name":"d1","readMBps":1,"writeMBps":1,"capacity":"1GiB","partition":"p"},
			         {"name":"d2","readMBps":1,"writeMBps":1,"capacity":"1GiB","partition":"p"}]}]}`},
		{"bad capacity", `{"hosts": [{"name":"a","cores":1,"gflops":1,"ram":"1GiB","memReadMBps":1,"memWriteMBps":1,
			"disks":[{"name":"d","readMBps":1,"writeMBps":1,"capacity":"??","partition":"p"}]}]}`},
		{"zero link bw", `{"hosts": [{"name":"a","cores":1,"gflops":1,"ram":"1GiB","memReadMBps":1,"memWriteMBps":1}],
			"links":[{"name":"l","mbps":0}]}`},
		{"dup link", `{"hosts": [{"name":"a","cores":1,"gflops":1,"ram":"1GiB","memReadMBps":1,"memWriteMBps":1}],
			"links":[{"name":"l","mbps":1},{"name":"l","mbps":2}]}`},
		{"negative latency", `{"hosts": [{"name":"a","cores":1,"gflops":1,"ram":"1GiB","memReadMBps":1,"memWriteMBps":1,
			"disks":[{"name":"d","readMBps":1,"writeMBps":1,"capacity":"1GiB","partition":"p","latencyS":-1}]}]}`},
		{"unknown cache policy", `{"hosts": [{"name":"a","cores":1,"gflops":1,"ram":"1GiB","memReadMBps":1,"memWriteMBps":1,
			"cachePolicy":"mglru"}]}`},
	}
	for _, c := range cases {
		if _, err := LoadConfig(strings.NewReader(c.json)); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
}

func TestCachePolicyConfig(t *testing.T) {
	// A registered policy name is accepted and surfaced on the host config;
	// the rejection error for an unknown name lists the registered ones.
	cfg := strings.Replace(goodConfig, `"memWriteMBps": 2764,`, `"memWriteMBps": 2764, "cachePolicy": "clock",`, 1)
	c, err := LoadConfig(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if c.Hosts[0].CachePolicy != "clock" {
		t.Fatalf("cachePolicy = %q", c.Hosts[0].CachePolicy)
	}
	bad := strings.Replace(goodConfig, `"memWriteMBps": 2764,`, `"memWriteMBps": 2764, "cachePolicy": "mglru",`, 1)
	_, err = LoadConfig(strings.NewReader(bad))
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	for _, want := range []string{"mglru", "lru", "clock", "fifo", "lfu", "node0"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

func TestSharedChannelConfig(t *testing.T) {
	cfg := strings.Replace(goodConfig, `"partition": "scratch"`, `"partition": "scratch", "sharedChannel": true`, 1)
	c, err := LoadConfig(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	dspec, _, err := c.Hosts[0].Disks[0].DeviceSpec()
	if err != nil {
		t.Fatal(err)
	}
	if dspec.Channels != SharedChannel {
		t.Fatal("sharedChannel not honored")
	}
}

func TestWritebackPolicyConfig(t *testing.T) {
	// The writeback knobs parse and surface on the host config; unknown
	// names and out-of-range ratios are rejected at load time.
	cfg := strings.Replace(goodConfig, `"memWriteMBps": 2764,`,
		`"memWriteMBps": 2764, "writebackPolicy": "file-rr", "dirtyBackgroundRatio": 0.1,`, 1)
	c, err := LoadConfig(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	h := c.Hosts[0]
	if h.WritebackPolicy != "file-rr" || h.DirtyBackgroundRatio != 0.1 {
		t.Fatalf("host = %+v", h)
	}
	bad := strings.Replace(goodConfig, `"memWriteMBps": 2764,`, `"memWriteMBps": 2764, "writebackPolicy": "elevator",`, 1)
	_, err = LoadConfig(strings.NewReader(bad))
	if err == nil {
		t.Fatal("unknown writeback policy accepted")
	}
	for _, want := range []string{"elevator", "list-order", "oldest-first", "file-rr", "proportional", "node0"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	for _, field := range []string{`"dirtyBackgroundRatio": -0.1,`, `"dirtyBackgroundRatio": 1.0,`} {
		bad := strings.Replace(goodConfig, `"memWriteMBps": 2764,`, `"memWriteMBps": 2764, `+field, 1)
		if _, err := LoadConfig(strings.NewReader(bad)); err == nil {
			t.Fatalf("accepted %s", field)
		}
	}
}
