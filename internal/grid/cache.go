package grid

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// Cache stores successful cell payloads in a directory, one file per cell,
// so a run can skip every cell an earlier run (or a run killed part-way)
// already computed. A cell is a pure function of its Kind, its Args and
// the binary that runs it, so the key is the SHA-256 over exactly those:
// Coord, Label and Cost never reach the cell and stay out of it. Any edit
// to the program changes the binary's hash and so starts a fresh key
// space; stale entries are never read again.
//
// Entries are written to a temp file in the directory and renamed into
// place, so processes sharing the directory may duplicate work but never
// read a torn entry. A present entry that cannot be trusted is a miss.
type Cache struct {
	dir string
	bin []byte // SHA-256 of the running binary
}

// cacheEntry is the JSON document stored per cell, DIR/<key>.json.
type cacheEntry struct {
	Key     string          `json:"key"`
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload"`
}

// binaryHash is the SHA-256 of the running executable, computed once.
var binaryHash = sync.OnceValues(func() ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(exe)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return nil, err
	}
	return h.Sum(nil), nil
})

// OpenCache returns the cache in dir, creating the directory if needed.
func OpenCache(dir string) (*Cache, error) {
	bin, err := binaryHash()
	if err != nil {
		return nil, fmt.Errorf("grid: hashing the running binary: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Cache{dir: dir, bin: bin}, nil
}

// key returns s's cache key, hex-encoded: the SHA-256 over the binary's
// hash, s.Kind (length-prefixed) and s.Args.
func (c *Cache) key(s Spec) string {
	h := sha256.New()
	h.Write(c.bin)
	fmt.Fprintf(h, "%d:%s", len(s.Kind), s.Kind)
	h.Write(s.Args)
	return hex.EncodeToString(h.Sum(nil))
}

func (c *Cache) path(key string) string { return filepath.Join(c.dir, key+".json") }

// Load returns s's stored payload; ok is false on a miss. An entry that is
// present but unreadable, not JSON, or stored under another key or kind is
// a miss with an error naming the file and why: the caller re-runs the
// cell, and its Store overwrites the entry.
func (c *Cache) Load(s Spec) (payload json.RawMessage, ok bool, err error) {
	key := c.key(s)
	path := c.path(key)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	var pe *fs.PathError
	if errors.As(err, &pe) {
		err = pe.Err // the path is prefixed below
	}
	if err == nil {
		payload, err = decodeEntry(data, key, s.Kind)
	}
	if err != nil {
		return nil, false, fmt.Errorf("%s: %w", path, err)
	}
	return payload, true, nil
}

// decodeEntry returns the payload of an entry that is well-formed JSON
// stored under key and kind.
func decodeEntry(data []byte, key, kind string) (json.RawMessage, error) {
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, err
	}
	switch {
	case e.Key != key:
		return nil, errors.New("stored under another key")
	case e.Kind != kind:
		return nil, fmt.Errorf("stored for kind %q, not %q", e.Kind, kind)
	case len(e.Payload) == 0:
		return nil, errors.New("no payload")
	}
	return e.Payload, nil
}

// Store saves r's payload as s's entry. A failed result is not stored, so
// its cell runs again next time.
func (c *Cache) Store(s Spec, r Result) error {
	if r.Err != "" {
		return nil
	}
	key := c.key(s)
	data, err := json.Marshal(cacheEntry{Key: key, Kind: s.Kind, Payload: r.Payload})
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(c.dir, key+".*.tmp")
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), c.path(key))
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}
