// Package snapshot defines the versioned on-disk cache-snapshot format: the
// complete cache state of a simulation — host page caches, per-cgroup
// caches, NFS-server caches (all as core.ManagerState) plus the backing
// files the cached blocks refer to — serialized as JSON. It is written by
// cmd/pcsim (-snapshot-out) and consumed by -snapshot-in and the scenario
// DSL's "warmup": {"snapshotFile": ...} stanza, so a steady state captured
// once can warm-start any number of later runs.
//
// Every ManagerState has one layout, core.ManagerStateVersion: the cache's
// writeback domains as a list, domain 0 included (a host without per-device
// writeback has exactly that one). Timestamps inside the ManagerStates are
// in the saving run's simulated clock; SavedAtSimS records that clock so
// restorers can rebase block times to their own t=0 with
// Manager.ShiftTimes(-SavedAtSimS).
package snapshot

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/core"
)

// Version is the file-format version written and read by this build: its
// embedded states are core.ManagerStateVersion. Version-1 files, whose
// states kept a single domain in top-level fields, are rejected; re-create
// them with pcsim -snapshot-out.
const Version = 2

// FileMeta describes one backing file the snapshot's cache state refers to.
// Restorers recreate missing files before restoring managers, so restored
// dirty blocks always have a placed backing file to be flushed to.
type FileMeta struct {
	Name      string `json:"name"`
	Partition string `json:"partition"`
	Size      int64  `json:"size"`
}

// File is the on-disk snapshot document.
type File struct {
	Version     int     `json:"version"`
	SavedAtSimS float64 `json:"savedAtSimS"`
	// Hosts maps host name → host page-cache state.
	Hosts map[string]*core.ManagerState `json:"hosts,omitempty"`
	// Cgroups maps cgroup name → that cgroup's private cache state.
	Cgroups map[string]*core.ManagerState `json:"cgroups,omitempty"`
	// Servers maps remote-partition name → NFS-server cache state.
	Servers map[string]*core.ManagerState `json:"servers,omitempty"`
	// Files lists every backing file referenced by the states above.
	Files []FileMeta `json:"files,omitempty"`
}

// Encode writes f as indented JSON.
func Encode(w io.Writer, f *File) error {
	if f.Version == 0 {
		f.Version = Version
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Decode reads a snapshot document, rejecting unknown fields, a file
// version other than Version, and any host, cgroup or server entry whose
// state is null or not core.ManagerStateVersion — so restorers never see a
// nil or foreign-layout state.
func Decode(r io.Reader) (*File, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("snapshot: decoding: %w", err)
	}
	if f.Version != Version {
		return nil, fmt.Errorf("snapshot: file version %d, this build reads %d", f.Version, Version)
	}
	for _, group := range []struct {
		kind   string
		states map[string]*core.ManagerState
	}{{"host", f.Hosts}, {"cgroup", f.Cgroups}, {"server", f.Servers}} {
		names := make([]string, 0, len(group.states))
		for name := range group.states {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			st := group.states[name]
			if st == nil {
				return nil, fmt.Errorf("snapshot: %s %q has a null state", group.kind, name)
			}
			if st.Version != core.ManagerStateVersion {
				return nil, fmt.Errorf("snapshot: %s %q state version %d, this build reads %d",
					group.kind, name, st.Version, core.ManagerStateVersion)
			}
		}
	}
	return &f, nil
}

// WriteFile saves f to path.
func WriteFile(path string, f *File) error {
	out, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := Encode(out, f); err != nil {
		out.Close()
		return fmt.Errorf("snapshot: encoding %s: %w", path, err)
	}
	return out.Close()
}

// ReadFile loads the snapshot at path.
func ReadFile(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer in.Close()
	return Decode(in)
}
