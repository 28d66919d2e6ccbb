// Chaos walkthrough: build a fault scenario programmatically, inject a
// mid-run NFS server restart, and check recovery assertions.
//
// The same document ships as JSON in testdata/scenarios/ and runs with
//
//	pcsim -scenario testdata/scenarios/nfs-server-restart.json
//
// Here it is built as a scenario.Doc in Go, run twice — once fault-free,
// once with the restart — to show the chaos stanza is the only difference,
// and once more with a seeded random fault draw to show determinism.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/platform"
	"repro/internal/scenario"
)

func clientServerPlatform() *platform.Config {
	return &platform.Config{
		Hosts: []platform.HostConfig{
			{Name: "client", Cores: 4, GFlops: 1, RAM: "1GiB",
				MemReadMBps: 1000, MemWriteMBps: 1000},
			{Name: "server", Cores: 4, GFlops: 1, RAM: "1GiB",
				MemReadMBps: 1000, MemWriteMBps: 1000,
				Disks: []platform.DiskConfig{{
					Name: "disk0", ReadMBps: 100, WriteMBps: 100,
					Capacity: "50GiB", Partition: "export",
				}}},
		},
		Links: []platform.LinkConfig{{Name: "net", MBps: 100}},
	}
}

// baseDoc is the paper's Exp 3 shape: a diskless client running one
// synthetic application against an NFS-mounted export with a shared
// server read cache and a Linux hard mount.
func baseDoc(name string) *scenario.Doc {
	return &scenario.Doc{
		Name:     name,
		Platform: clientServerPlatform(),
		Chunk:    "10MB",
		Mounts: []scenario.MountDoc{{
			Client: "client", Partition: "export", Link: "net",
			ServerCache: true,
			Retry:       &scenario.RetryDoc{Policy: "hard", TimeoutS: 0.5},
		}},
		Workloads: []scenario.WorkloadDoc{{
			Name: "app", Host: "client", Kind: "synthetic",
			Partition: "export", Size: "100MB",
		}},
	}
}

func run(d *scenario.Doc, opts scenario.RunOpts) *scenario.Result {
	res, err := scenario.Run(d, opts)
	if err != nil {
		log.Fatal(err)
	}
	res.Report(os.Stdout)
	fmt.Println()
	if !res.Passed {
		log.Fatalf("%s: assertions failed", d.Name)
	}
	return res
}

func main() {
	// 1. Fault-free baseline. No chaos stanza means the run is
	// bit-identical to a hand-coded engine.Simulation of the same setup.
	calm := baseDoc("calm-baseline")
	calm.Assertions = []scenario.AssertionDoc{
		{Kind: scenario.AssertMakespanBelow, Seconds: 10},
		{Kind: scenario.AssertNoDataLoss, Partition: "export"},
	}
	calmRes := run(calm, scenario.RunOpts{})

	// 2. The same document plus one fault: the server restarts at t=0.5s
	// and stays down for ten seconds. The hard mount stalls and retries;
	// the in-flight request loses its reply and replays after recovery;
	// the writethrough server cache means no data is lost. The recovery
	// assertions encode exactly that.
	restart := baseDoc("server-restart")
	restart.Chaos = &scenario.ChaosDoc{
		Events: []scenario.EventDoc{{
			AtS: 0.5, Kind: "server-restart", Target: "export", DurS: 10,
		}},
	}
	restart.Assertions = []scenario.AssertionDoc{
		{Kind: scenario.AssertCompleted, Workload: "app"},
		{Kind: scenario.AssertMakespanAbove, Seconds: 10},
		{Kind: scenario.AssertMakespanBelow, Seconds: 60},
		{Kind: scenario.AssertNoDataLoss, Partition: "export"},
	}
	restartRes := run(restart, scenario.RunOpts{})
	fmt.Printf("the restart cost %.4gs of simulated makespan\n\n",
		restartRes.Makespan-calmRes.Makespan)

	// 3. Seeded random chaos: draw three faults from a menu over the first
	// five simulated seconds. The same seed always draws the same faults
	// at the same times — rerun this example and the report is
	// byte-identical. pcsim -chaos-seed overrides the seed from the CLI.
	random := baseDoc("random-chaos")
	random.Chaos = &scenario.ChaosDoc{
		Seed: 42,
		Random: &scenario.RandomDoc{
			Count: 3, EndS: 5,
			Menu: []scenario.EventDoc{
				{Kind: "disk-slow", Target: "disk0", Factor: 0.25, DurS: 1},
				{Kind: "link-degrade", Target: "net", Factor: 0.1, DurS: 0.5},
				{Kind: "drop-caches", Target: "server"},
			},
		},
	}
	random.Assertions = []scenario.AssertionDoc{
		{Kind: scenario.AssertMakespanBelow, Seconds: 60},
		{Kind: scenario.AssertNoDataLoss, Partition: "export"},
	}
	run(random, scenario.RunOpts{})
}
