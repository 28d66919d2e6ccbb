// Concurrent applications sharing one disk (the paper's Exp 2 scenario):
// shows bandwidth sharing, the page cache absorbing writes until the dirty
// threshold, and how the cacheless baseline mispredicts both. Each run is
// the Exp 2 grid cell's own scenario document (exp.ConcurrentDoc).
package main

import (
	"fmt"
	"log"

	"repro/internal/exp"
	"repro/internal/scenario"
	"repro/internal/units"
)

func run(st exp.Stack, n int) (read, write float64) {
	d, err := exp.ConcurrentDoc(n, 3*units.GB, st)
	if err != nil {
		log.Fatal(err)
	}
	res, err := scenario.Run(d, scenario.RunOpts{})
	if err == nil {
		err = res.WorkloadErr()
	}
	if err != nil {
		log.Fatal(err)
	}
	return res.Sim.Log.MeanPerInstance("read"), res.Sim.Log.MeanPerInstance("write")
}

func main() {
	fmt.Println("mean per-instance read/write time (s) for N concurrent 3 GB pipelines")
	fmt.Printf("%4s  %22s  %22s\n", "N", "writeback cache", "cacheless baseline")
	for _, n := range []int{1, 4, 8, 16, 32} {
		r1, w1 := run(exp.StackCache, n)
		r2, w2 := run(exp.StackCacheless, n)
		fmt.Printf("%4d  read %6.0f write %6.0f  read %6.0f write %6.0f\n", n, r1, w1, r2, w2)
	}
	// With the cache, re-reads hit memory and writes are buffered until the
	// dirty threshold saturates (the Fig 5 plateau); the baseline scales
	// every operation with disk contention.
}
