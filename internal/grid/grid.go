// Package grid drains the experiment grid's independent simulation cells
// and hands the results back for a deterministic, coordinate-ordered merge.
//
// A cell is a Spec: a registered kind plus JSON-encoded arguments and a grid
// Coord. There is one scheduler, Run: its slots take cells costliest first
// and run each in this process, panic-isolated and under the Options
// timeout. A cell is a pure function of its Kind, its Args and the binary,
// which is what Cache keys on: a run can skip the cells an earlier run
// already computed and replay their stored payloads.
//
// Payloads always round-trip through JSON, fresh ones included, so a run's
// bytes cannot depend on whether a cell was computed now or replayed from
// the cache: Go's float64 encoding is exact under round-trip, and the
// merger orders payloads by Coord, so stdout reports and CSVs are
// byte-identical for every worker count and cache state.
package grid

import (
	"encoding/json"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
)

// Coord is a cell's position in the experiment grid: the section it belongs
// to (one report unit, e.g. "exp2") and up to three axis indices within it
// (level, stack, repetition — each section documents its own axes). The
// merger orders a section's payloads by (I, J, K), which is what makes the
// merged report independent of completion order.
type Coord struct {
	Section string `json:"section"`
	I       int    `json:"i"`
	J       int    `json:"j"`
	K       int    `json:"k"`
}

// Less orders coordinates lexicographically by (Section, I, J, K).
func (c Coord) Less(o Coord) bool {
	if c.Section != o.Section {
		return c.Section < o.Section
	}
	if c.I != o.I {
		return c.I < o.I
	}
	if c.J != o.J {
		return c.J < o.J
	}
	return c.K < o.K
}

func (c Coord) String() string {
	return fmt.Sprintf("%s[%d,%d,%d]", c.Section, c.I, c.J, c.K)
}

// Spec is one self-describing cell of the grid.
type Spec struct {
	Coord Coord  `json:"coord"`
	Kind  string `json:"kind"`
	Label string `json:"label,omitempty"`
	// Cost is the cell's self-estimated relative cost (any consistent unit;
	// the exp package uses simulated bytes × instances). Run starts
	// costlier cells first so a long cell starts early instead of becoming
	// the straggler tail.
	Cost float64         `json:"cost,omitempty"`
	Args json.RawMessage `json:"args,omitempty"`
}

// NewSpec builds a Spec, marshaling args. Args are plain parameter structs;
// a marshal failure is a programming error and panics.
func NewSpec(kind string, coord Coord, label string, cost float64, args any) Spec {
	raw, err := json.Marshal(args)
	if err != nil {
		panic(fmt.Sprintf("grid: unmarshalable args for cell kind %q: %v", kind, err))
	}
	return Spec{Coord: coord, Kind: kind, Label: label, Cost: cost, Args: raw}
}

// Result carries one executed cell back to the merger.
type Result struct {
	Coord   Coord
	Kind    string
	Payload json.RawMessage
	// Err is the cell's failure (execution error, panic, or timeout);
	// empty on success. A failed cell fails its section, never the run.
	Err     string
	Seconds float64 // execution wall-clock
	Worker  int     // the drain slot that ran the cell
}

// Payload is a successful cell's coordinate-tagged raw payload, ready for a
// section merger to decode.
type Payload struct {
	Coord Coord
	Raw   json.RawMessage
}

// SortPayloads orders payloads by coordinate (the deterministic merge order).
func SortPayloads(ps []Payload) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Coord.Less(ps[j].Coord) })
}

var (
	regMu    sync.RWMutex
	registry = map[string]func(json.RawMessage) (any, error){}
)

// Register adds a cell kind. The run function receives the spec's raw args
// and returns a JSON-marshalable payload. Registration happens at init time,
// by importing the registering package; duplicate kinds panic, matching the
// core registries.
func Register(kind string, run func(args json.RawMessage) (any, error)) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[kind]; dup {
		panic(fmt.Sprintf("grid: cell kind %q registered twice", kind))
	}
	registry[kind] = run
}

// RegisterCell registers a kind with typed args: the raw JSON is unmarshaled
// into A before run is called.
func RegisterCell[A any](kind string, run func(A) (any, error)) {
	Register(kind, func(raw json.RawMessage) (any, error) {
		var a A
		if err := json.Unmarshal(raw, &a); err != nil {
			return nil, fmt.Errorf("decoding %s args: %w", kind, err)
		}
		return run(a)
	})
}

func lookup(kind string) (func(json.RawMessage) (any, error), bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	run, ok := registry[kind]
	return run, ok
}

// RunSpec executes one cell in the current process with panic isolation: a
// panicking cell yields a Result carrying the panic value and stack, never
// an aborted run.
func RunSpec(s Spec) Result {
	res := Result{Coord: s.Coord, Kind: s.Kind}
	run, ok := lookup(s.Kind)
	if !ok {
		res.Err = fmt.Sprintf("unknown cell kind %q", s.Kind)
		return res
	}
	payload, err := func() (p any, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
			}
		}()
		return run(s.Args)
	}()
	if err != nil {
		res.Err = err.Error()
		return res
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		res.Err = fmt.Sprintf("encoding payload: %v", err)
		return res
	}
	res.Payload = raw
	return res
}
