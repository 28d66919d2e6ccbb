// The Nighres cortical-reconstruction workflow (the paper's Exp 4): a
// four-step neuroimaging pipeline whose intermediate files make page
// caching matter — and where a cacheless simulator overestimates I/O times
// several-fold. Each run is the Exp 4 grid cell's own scenario document
// (exp.NighresDoc).
package main

import (
	"fmt"
	"log"

	"repro/internal/exp"
	"repro/internal/scenario"
	"repro/internal/workload"
)

func run(st exp.Stack) map[string]float64 {
	d, err := exp.NighresDoc(st)
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
	out := map[string]float64{}
	for _, op := range res.Sim.Log.Ops {
		if op.Kind != "compute" {
			out[op.Name] += op.Duration()
		}
	}
	return out
}

func main() {
	withCache := run(exp.StackCache)
	baseline := run(exp.StackCacheless)

	fmt.Println("Nighres I/O op durations (s): page-cache model vs cacheless baseline")
	fmt.Printf("%-10s %14s %14s %8s\n", "op", "with cache", "cacheless", "ratio")
	steps := workload.NighresSteps()
	for i := range steps {
		for _, kind := range []string{"Read", "Write"} {
			name := fmt.Sprintf("%s %d", kind, i+1)
			c, b := withCache[name], baseline[name]
			ratio := b / c
			fmt.Printf("%-10s %14.2f %14.2f %7.1fx\n", name, c, b, ratio)
		}
	}
	fmt.Println("\nsteps:", func() (s string) {
		for i, st := range steps {
			if i > 0 {
				s += " → "
			}
			s += st.Name
		}
		return
	}())
	// Reads 2-4 consume files written by earlier steps; with the page cache
	// they are memory-speed hits, which is why the baseline overestimates
	// them by large factors (the paper reports a 337% mean error).
}
