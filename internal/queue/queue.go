// Package queue implements a durable, file-backed work queue that several
// coordinators and worker fleets — on one host or many sharing a filesystem —
// can drain concurrently, with cell-level resume of interrupted runs.
//
// A queue directory holds the enumerated grid.Spec cells as an append-only
// record file plus a journal of state transitions (pending → leased →
// done/failed). The queue is one of the two sources of grid.Drain, the
// grid's one cell scheduler (the other is the in-memory list behind
// grid.Run): through Queue.Source, drain slots claim cells under short
// leases with TTLs renewed by heartbeats, and any claimer reclaims an
// expired lease, so a kill -9'd worker's cell is transparently re-run. Cells are pure functions of their Spec, so
// re-running one is idempotent: completed-cell records carry the JSON Result
// payloads and the deterministic coordinate-ordered merge produces
// byte-identical output regardless of how many interruptions, hosts, or
// workers touched the queue.
//
// Directory layout:
//
//	queue.json     meta: format version, cell count, grid fingerprint
//	cells.jsonl    one grid.Spec per line; the line number is the cell index
//	journal.jsonl  append-only state transitions (see journal.go)
//	lock           flock target serializing claim read-modify-write cycles
//	results/       cell-NNNNNN.json: one grid.Result per completed cell,
//	               written to a temp file and atomically renamed
//
// Crash safety is by construction, not by recovery code: journal appends are
// single O_APPEND writes under flock, result files land via rename, and
// replay tolerates torn or lost records because every transition is safe to
// redo — a lost "done" record merely re-runs an idempotent cell, a doubled
// lease merely runs it twice with identical bytes.
package queue

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/grid"
)

// FormatVersion stamps queue.json; a binary refuses to touch a queue written
// by an incompatible format.
const FormatVersion = 1

const (
	metaFile    = "queue.json"
	cellsFile   = "cells.jsonl"
	journalFile = "journal.jsonl"
	lockFile    = "lock"
	resultsDir  = "results"
)

// Meta is the queue's identity, persisted as queue.json. The fingerprint
// hashes the exact cell enumeration (the bytes of cells.jsonl), so a
// coordinator can refuse to merge — and a resumed run can refuse to attach
// to — a queue built from a different grid.
type Meta struct {
	Version     int    `json:"version"`
	Cells       int    `json:"cells"`
	Fingerprint string `json:"fingerprint"`
	Created     string `json:"created"` // RFC3339, informational only
}

// Queue is an open handle on a queue directory. It holds no file descriptors
// between operations — every claim, heartbeat, and completion opens, locks,
// and closes on its own — so a Queue is safe for concurrent use by any
// number of goroutines and processes.
type Queue struct {
	dir     string
	meta    Meta
	specs   []grid.Spec
	order   []int                 // claim order: grid.ClaimOrder
	stopErr atomic.Pointer[error] // set by StopWait
}

// encodeSpecs serializes the enumeration as cells.jsonl bytes: one compact
// JSON spec per line, enumeration order. These exact bytes are what the
// fingerprint covers.
func encodeSpecs(specs []grid.Spec) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, s := range specs {
		if err := enc.Encode(s); err != nil {
			return nil, fmt.Errorf("encoding cell %d: %w", i, err)
		}
	}
	return buf.Bytes(), nil
}

// Fingerprint returns the hex SHA-256 of the enumeration's serialized form.
// Two grids fingerprint equal iff they enumerate the same cells in the same
// order with the same arguments.
func Fingerprint(specs []grid.Spec) (string, error) {
	data, err := encodeSpecs(specs)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Create initializes a new queue at dir from the enumerated cells. The
// directory itself is created, but its parent must already exist — a typoed
// path fails fast instead of silently growing a directory tree. dir may
// exist only if it is empty. queue.json is written last, so a half-created
// directory is never mistaken for a valid queue.
func Create(dir string, specs []grid.Spec) (*Queue, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("queue: refusing to create an empty queue at %s", dir)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	parent := filepath.Dir(abs)
	if st, err := os.Stat(parent); err != nil || !st.IsDir() {
		return nil, fmt.Errorf("queue: parent directory %s does not exist", parent)
	}
	if err := os.Mkdir(abs, 0o755); err != nil {
		if !os.IsExist(err) {
			return nil, err
		}
		entries, rerr := os.ReadDir(abs)
		if rerr != nil {
			return nil, rerr
		}
		if len(entries) > 0 {
			return nil, fmt.Errorf("queue: %s exists and is not a queue directory (no %s)", abs, metaFile)
		}
	}
	if err := os.Mkdir(filepath.Join(abs, resultsDir), 0o755); err != nil && !os.IsExist(err) {
		return nil, err
	}
	cells, err := encodeSpecs(specs)
	if err != nil {
		return nil, err
	}
	if err := writeFileAtomic(filepath.Join(abs, cellsFile), cells); err != nil {
		return nil, err
	}
	for _, name := range []string{journalFile, lockFile} {
		f, err := os.OpenFile(filepath.Join(abs, name), os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, err
		}
		f.Close()
	}
	sum := sha256.Sum256(cells)
	meta := Meta{
		Version:     FormatVersion,
		Cells:       len(specs),
		Fingerprint: hex.EncodeToString(sum[:]),
		Created:     time.Now().UTC().Format(time.RFC3339),
	}
	mb, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := writeFileAtomic(filepath.Join(abs, metaFile), append(mb, '\n')); err != nil {
		return nil, err
	}
	return newQueue(abs, meta, specs), nil
}

// Open attaches to an existing queue directory, validating its format
// version, cell count, and fingerprint. Workers and status readers use Open:
// the cells file is self-contained, so they need no knowledge of how the
// grid was enumerated.
func Open(dir string) (*Queue, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	mb, err := os.ReadFile(filepath.Join(abs, metaFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("queue: %s is not a queue directory (missing %s)", abs, metaFile)
		}
		return nil, err
	}
	var meta Meta
	if err := json.Unmarshal(mb, &meta); err != nil {
		return nil, fmt.Errorf("queue: corrupt %s: %w", metaFile, err)
	}
	if meta.Version != FormatVersion {
		return nil, fmt.Errorf("queue: %s has format version %d; this binary supports version %d",
			abs, meta.Version, FormatVersion)
	}
	cells, err := os.ReadFile(filepath.Join(abs, cellsFile))
	if err != nil {
		return nil, fmt.Errorf("queue: reading cells: %w", err)
	}
	sum := sha256.Sum256(cells)
	if got := hex.EncodeToString(sum[:]); got != meta.Fingerprint {
		return nil, fmt.Errorf("queue: %s does not match the fingerprint in %s (corrupt queue)", cellsFile, metaFile)
	}
	var specs []grid.Spec
	dec := json.NewDecoder(bytes.NewReader(cells))
	for dec.More() {
		var s grid.Spec
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("queue: corrupt %s: %w", cellsFile, err)
		}
		specs = append(specs, s)
	}
	if len(specs) != meta.Cells {
		return nil, fmt.Errorf("queue: %s holds %d cells, %s says %d (corrupt queue)",
			cellsFile, len(specs), metaFile, meta.Cells)
	}
	return newQueue(abs, meta, specs), nil
}

// CreateOrResume opens the queue at dir if one exists — refusing to attach
// when its fingerprint does not match this enumeration — and creates it
// otherwise. The returned bool reports whether an existing queue was
// resumed.
func CreateOrResume(dir string, specs []grid.Spec) (*Queue, bool, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, false, err
	}
	if _, err := os.Stat(filepath.Join(abs, metaFile)); err == nil {
		q, err := Open(abs)
		if err != nil {
			return nil, false, err
		}
		want, err := Fingerprint(specs)
		if err != nil {
			return nil, false, err
		}
		if want != q.meta.Fingerprint {
			return nil, false, fmt.Errorf(
				"queue: refusing to resume %s: it was built from a different grid enumeration (%d cells, fingerprint %.12s…) than this invocation (%d cells, fingerprint %.12s…); rerun with the original experiment selection or point -queue-dir at a fresh directory",
				abs, q.meta.Cells, q.meta.Fingerprint, len(specs), want)
		}
		return q, true, nil
	}
	q, err := Create(abs, specs)
	return q, false, err
}

func newQueue(dir string, meta Meta, specs []grid.Spec) *Queue {
	return &Queue{dir: dir, meta: meta, specs: specs, order: grid.ClaimOrder(specs)}
}

// Dir returns the queue directory's absolute path.
func (q *Queue) Dir() string { return q.dir }

// Meta returns the queue's persisted identity.
func (q *Queue) Meta() Meta { return q.meta }

// Cells returns the number of enumerated cells.
func (q *Queue) Cells() int { return len(q.specs) }

// Spec returns cell i's spec.
func (q *Queue) Spec(i int) grid.Spec { return q.specs[i] }

// resultPath returns cell i's result file path.
func (q *Queue) resultPath(i int) string {
	return filepath.Join(q.dir, resultsDir, fmt.Sprintf("cell-%06d.json", i))
}

// Result loads cell i's stored Result from the result store.
func (q *Queue) Result(i int) (grid.Result, error) {
	var res grid.Result
	data, err := os.ReadFile(q.resultPath(i))
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return res, fmt.Errorf("queue: corrupt result for cell %d: %w", i, err)
	}
	return res, nil
}

// writeFileAtomic writes data to path via a temp file and rename, so readers
// never observe a partial file and a crash mid-write leaves no trace under
// the final name.
func writeFileAtomic(path string, data []byte) error {
	tmp := fmt.Sprintf("%s.tmp-%d", path, os.Getpid())
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
