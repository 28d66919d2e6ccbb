// Package grid drains the experiment grid's independent simulation cells
// and hands the results back for a deterministic, coordinate-ordered merge.
//
// A cell is a Spec: a registered kind plus JSON-encoded arguments and a grid
// Coord. Specs are self-describing — any process that imports the package
// that registered the kind can execute one — which is what lets
// `experiments -worker` subprocesses (including workers on other hosts fed
// through ssh pipes) run cells for the same drain as in-process slots.
//
// There is one scheduler, Drain: its slots claim cells from a Source, run
// each with the attempt/retry/timeout policy of Options (in process, or on
// the slot's -worker-cmd subprocess), heartbeat the claim, and complete it.
// A Source has two backends: the in-memory spec list behind Run, and the
// durable queue journal of package queue, which leases cells under a TTL so
// several processes and hosts can drain it. Both claim costliest first
// (ClaimOrder).
//
// Payloads always round-trip through JSON, in-process included, so a run's
// bytes cannot depend on which side of a process boundary a cell happened to
// execute on: Go's float64 encoding is exact under round-trip, and the
// merger orders payloads by Coord, so stdout reports and CSVs are
// byte-identical for every worker count, fan-out mode and source.
package grid

import (
	"encoding/json"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"
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
	// the exp package uses simulated bytes × instances). Drain claims
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
	Coord   Coord           `json:"coord"`
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload,omitempty"`
	// Err is the cell's failure (execution error, panic, or timeout) after
	// all retry attempts; empty on success. A failed cell fails its section,
	// never the run.
	Err      string  `json:"err,omitempty"`
	Attempts int     `json:"attempts,omitempty"`
	Seconds  float64 `json:"seconds,omitempty"` // execution wall-clock, all attempts
	// Worker is the drain slot that ran the cell (not part of the protocol;
	// subprocess workers don't know their slot).
	Worker int `json:"-"`
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
// and returns a JSON-marshalable payload. Registration happens at init time
// (both the coordinator and `-worker` subprocesses run it by importing the
// registering package); duplicate kinds panic, matching the core registries.
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
// an aborted run. Used by both in-process drain slots and worker
// subprocesses.
func RunSpec(s Spec) Result {
	res := Result{Coord: s.Coord, Kind: s.Kind}
	start := time.Now()
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
	res.Seconds = time.Since(start).Seconds()
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
