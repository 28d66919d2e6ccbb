package exp

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/scenario"
)

// ConcurrentPoint is one x-position of Figs 5/7: N concurrent application
// instances, with per-stack mean read and write times (mean over instances
// of the instance's summed read/write-phase durations), plus the real
// proxy's min–max interval over repetitions.
type ConcurrentPoint struct {
	N         int
	ReadTime  map[Stack]float64
	WriteTime map[Stack]float64
	// RealReadMin/Max and RealWriteMin/Max bound the repetition spread.
	RealReadMin, RealReadMax   float64
	RealWriteMin, RealWriteMax float64
}

// ConcurrentResult is a full Fig 5 (local) or Fig 7 (NFS) series.
type ConcurrentResult struct {
	Remote bool
	Points []ConcurrentPoint
}

// ConcurrencyLevels returns the paper's 1..32 instance counts (cluster
// nodes have 32 cores). A stride lets callers thin the sweep for quick
// runs; stride 1 reproduces the full figure.
func ConcurrencyLevels(max, stride int) []int {
	var out []int
	for n := 1; n <= max; n += stride {
		out = append(out, n)
	}
	if len(out) == 0 || out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

// concurrentArgs parameterizes one Fig 5/7 cell: one simulation of n
// instances on one stack (one repetition for the jittered real proxy).
type concurrentArgs struct {
	N      int     `json:"n"`
	Size   int64   `json:"size"`
	Remote bool    `json:"remote"`
	Stack  Stack   `json:"stack"`
	Rep    int     `json:"rep"`
	Jitter float64 `json:"jitter"`
}

// concurrentPayload is one cell's pair of Fig 5/7 observables.
type concurrentPayload struct {
	ReadT  float64 `json:"read_t"`
	WriteT float64 `json:"write_t"`
}

func init() {
	grid.RegisterCell("concurrent", func(a concurrentArgs) (any, error) { return runDocCell(a) })
}

// doc places the cell's n synthetic instances on its stack's platform.
func (a concurrentArgs) doc() (*scenario.Doc, scenario.RunOpts, error) {
	d, err := stackDoc(fmt.Sprintf("concurrent n=%d %s", a.N, a.Stack), a.Stack, a.Remote)
	if err != nil {
		return nil, scenario.RunOpts{}, err
	}
	addSynthetic(d, a.N, a.Size, a.Jitter, a.Rep)
	return d, scenario.RunOpts{}, nil
}

func (concurrentArgs) payload(res *scenario.Result) any { return concurrentPayloadOf(res) }

// ConcurrentDoc is the document of one local Fig 5 cell without repetition
// jitter: n concurrent synthetic pipelines on size-byte files on stack st,
// on the host "node0". For StackReal that host runs the linuxref model.
func ConcurrentDoc(n int, size int64, st Stack) (*scenario.Doc, error) {
	d, _, err := concurrentArgs{N: n, Size: size, Stack: st}.doc()
	return d, err
}

// concurrentPayloadOf reads the instances' mean read and write times.
func concurrentPayloadOf(res *scenario.Result) *concurrentPayload {
	return &concurrentPayload{
		ReadT:  res.Sim.Log.MeanPerInstance("read"),
		WriteT: res.Sim.Log.MeanPerInstance("write"),
	}
}

// concurrentStacks orders a level's cells: Coord.J indexes it, with the
// real proxy's repetitions distinguished by Coord.K.
var concurrentStacks = []Stack{StackCacheless, StackCache, StackReal}

// ConcurrentCells enumerates a Fig 5/7 sweep: per level, one deterministic
// cell per simulator stack plus reps jittered real-proxy repetitions.
// Coordinates are (level index, stack index, repetition).
func ConcurrentCells(section string, remote bool, size int64, levels []int, reps int) []grid.Spec {
	var specs []grid.Spec
	cost := func(n int) float64 {
		c := costGB(size, n)
		if remote {
			// The NFS topology simulates the bytes twice (client + server).
			c *= 2
		}
		return c
	}
	for li, n := range levels {
		for ji, st := range concurrentStacks {
			if st == StackReal {
				for rep := 0; rep < reps; rep++ {
					specs = append(specs, grid.NewSpec("concurrent",
						grid.Coord{Section: section, I: li, J: ji, K: rep},
						fmt.Sprintf("%s n=%d real rep=%d", section, n, rep),
						cost(n),
						concurrentArgs{N: n, Size: size, Remote: remote, Stack: st, Rep: rep, Jitter: 0.03}))
				}
				continue
			}
			specs = append(specs, grid.NewSpec("concurrent",
				grid.Coord{Section: section, I: li, J: ji},
				fmt.Sprintf("%s n=%d %s", section, n, st),
				cost(n),
				concurrentArgs{N: n, Size: size, Remote: remote, Stack: st}))
		}
	}
	return specs
}

// MergeConcurrent reassembles a sweep's payloads into the Fig 5/7 series,
// accumulating the real proxy's repetitions in repetition order (float
// addition order is part of the byte-identical contract).
func MergeConcurrent(remote bool, levels []int, reps int, ps []grid.Payload) (*ConcurrentResult, error) {
	if err := wantCells(ps, len(levels)*(2+reps)); err != nil {
		return nil, fmt.Errorf("concurrent: %w", err)
	}
	pays, err := decodeAll[concurrentPayload](ps)
	if err != nil {
		return nil, err
	}
	byCoord := make(map[grid.Coord]concurrentPayload, len(ps))
	for i, p := range ps {
		c := p.Coord
		c.Section = "" // sections never mix sweeps; key on the axes alone
		byCoord[c] = pays[i]
	}
	res := &ConcurrentResult{Remote: remote}
	for li, n := range levels {
		pt := ConcurrentPoint{
			N:         n,
			ReadTime:  map[Stack]float64{},
			WriteTime: map[Stack]float64{},
		}
		pt.ReadTime[StackCacheless] = byCoord[grid.Coord{I: li, J: 0}].ReadT
		pt.WriteTime[StackCacheless] = byCoord[grid.Coord{I: li, J: 0}].WriteT
		pt.ReadTime[StackCache] = byCoord[grid.Coord{I: li, J: 1}].ReadT
		pt.WriteTime[StackCache] = byCoord[grid.Coord{I: li, J: 1}].WriteT
		var rsum, wsum float64
		rmin, rmax := 1e300, -1e300
		wmin, wmax := 1e300, -1e300
		for rep := 0; rep < reps; rep++ {
			p := byCoord[grid.Coord{I: li, J: 2, K: rep}]
			rsum += p.ReadT
			wsum += p.WriteT
			rmin, rmax = minF(rmin, p.ReadT), maxF(rmax, p.ReadT)
			wmin, wmax = minF(wmin, p.WriteT), maxF(wmax, p.WriteT)
		}
		pt.ReadTime[StackReal] = rsum / float64(reps)
		pt.WriteTime[StackReal] = wsum / float64(reps)
		pt.RealReadMin, pt.RealReadMax = rmin, rmax
		pt.RealWriteMin, pt.RealWriteMax = wmin, wmax
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// jitterScale derives a deterministic per-instance, per-repetition compute
// perturbation in [1−j, 1+j] (the real cluster's repetition noise).
func jitterScale(instance, rep int, j float64) float64 {
	h := uint32(instance*2654435761 + rep*40503 + 12345)
	h ^= h >> 13
	h *= 2246822519
	h ^= h >> 16
	x := float64(h%2000)/1000 - 1 // [-1, 1)
	return 1 + j*x
}
