// Policies: run the same memory-pressured pipeline under every registered
// page-cache replacement policy and compare makespans and read-hit ratios —
// the walkthrough for the Policy seam (core.Policy, Config.Policy, and the
// platform "cachePolicy" knob).
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/scenario"
)

// pipelineDoc is a synthetic three-task pipeline on an 8 GiB node under
// the given policy: each task reads the previous task's 3 GB file and
// writes a new one, so the working set (12 GB across four files) exceeds
// RAM and the policy's victim choice decides which rereads hit the cache.
func pipelineDoc(policy string) *scenario.Doc {
	cpuS := 4.0
	return &scenario.Doc{
		Name: "policies " + policy,
		Platform: &platform.Config{Hosts: []platform.HostConfig{{
			Name: "node0", Cores: 4, GFlops: 1, RAM: "8GiB",
			MemReadMBps: 4812, MemWriteMBps: 4812,
			CachePolicy: policy, // "" would select the default two-list LRU
			Disks: []platform.DiskConfig{{Name: "node0.disk", ReadMBps: 465, WriteMBps: 465,
				Capacity: "100GiB", Partition: "scratch"}},
		}}},
		Workloads: []scenario.WorkloadDoc{{Name: "pipeline", Host: "node0", Kind: "synthetic",
			Partition: "scratch", Size: "3GB", CPUS: &cpuS}},
	}
}

func main() {
	fmt.Println("policy comparison: 3-stage pipeline, 3 GB files, 8 GiB RAM")
	fmt.Printf("%-8s %12s %16s\n", "policy", "makespan (s)", "read-hit ratio")
	for _, policy := range core.PolicyNames() {
		res, err := scenario.Run(pipelineDoc(policy), scenario.RunOpts{})
		if err == nil {
			err = res.WorkloadErr()
		}
		if err != nil {
			log.Fatalf("%s: %v", policy, err)
		}
		fmt.Printf("%-8s %12.1f %16.3f\n", policy, res.Makespan, res.ReadHitRatio("node0"))
	}
	// Expected: each stage rereads the file the previous stage just wrote.
	// That is a recency-friendly pattern, but under pressure the dirty data
	// must be flushed and the policies differ in which clean blocks they
	// sacrifice: FIFO and CLOCK tend to drop the oldest (already-consumed)
	// stages, while strict recency/frequency orders can evict exactly the
	// bytes the next stage is about to read.
}
