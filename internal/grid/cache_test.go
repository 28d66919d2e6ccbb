package grid

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func openTestCache(t testing.TB) *Cache {
	t.Helper()
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheStoreLoad(t *testing.T) {
	c := openTestCache(t)
	s := spec("test-square", 3, 9)
	if _, ok, err := c.Load(s); ok || err != nil {
		t.Fatalf("empty cache: ok=%v err=%v, want a plain miss", ok, err)
	}
	r := RunSpec(s)
	if err := c.Store(s, r); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Load(s)
	if !ok || err != nil || !bytes.Equal(got, r.Payload) {
		t.Fatalf("after Store: payload %s ok=%v err=%v, want %s", got, ok, err, r.Payload)
	}

	// Coord, Label and Cost never reach the cell, so they are not in the key.
	moved := s
	moved.Coord, moved.Label, moved.Cost = Coord{Section: "elsewhere", K: 7}, "other", 1
	if _, ok, _ := c.Load(moved); !ok {
		t.Error("same kind and args at another coordinate missed")
	}
	// Kind and Args are.
	if _, ok, _ := c.Load(spec("test-square", 4, 9)); ok {
		t.Error("different args hit")
	}
	if _, ok, _ := c.Load(spec("test-error", 3, 9)); ok {
		t.Error("different kind hit")
	}

	// A failed cell is never stored.
	bad := spec("test-error", 5, 0)
	if err := c.Store(bad, RunSpec(bad)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Load(bad); ok {
		t.Error("failed result was stored")
	}
	// Only entries are left behind: no temp files.
	files, err := os.ReadDir(c.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Name() != c.key(s)+".json" {
		t.Errorf("cache dir holds %v, want the one entry", files)
	}
}

func TestCacheBadEntryFailsClosed(t *testing.T) {
	c := openTestCache(t)
	s := spec("test-square", 2, 0)
	path := c.path(c.key(s))
	for _, bad := range []string{"", "{", `{"key":"x","kind":"test-square","payload":{}}`} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		_, ok, err := c.Load(s)
		if ok || err == nil || !strings.HasPrefix(err.Error(), path+": ") {
			t.Errorf("entry %q: ok=%v err=%v, want a miss naming %s", bad, ok, err, path)
		}
	}
	// Store overwrites the bad entry.
	if err := c.Store(s, RunSpec(s)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Load(s); !ok || err != nil {
		t.Fatalf("after overwrite: ok=%v err=%v", ok, err)
	}
}

// FuzzCacheEntry writes arbitrary bytes as a cell's entry file: Load must
// miss or hit, never panic, and hit only on a well-formed entry for that
// cell's key and kind, returning its payload.
func FuzzCacheEntry(f *testing.F) {
	c := openTestCache(f)
	s := spec("test-square", 6, 0)
	key := c.key(s)
	entry := func(key, kind string) []byte {
		data, err := json.Marshal(cacheEntry{Key: key, Kind: kind, Payload: RunSpec(s).Payload})
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	valid := entry(key, s.Kind)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(entry(key, "test-error"))
	f.Add(entry(strings.Repeat("0", len(key)), s.Kind))
	path := c.path(key)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		payload, ok, err := c.Load(s)
		if !ok {
			if err == nil {
				t.Fatal("a present entry missed without a reason")
			}
			return
		}
		var e cacheEntry
		if err := json.Unmarshal(data, &e); err != nil || e.Key != key || e.Kind != s.Kind {
			t.Fatalf("hit on an entry that is not this cell's: %q", data)
		}
		if !json.Valid(payload) || !bytes.Equal(payload, e.Payload) {
			t.Fatalf("hit returned payload %q, entry holds %q", payload, e.Payload)
		}
	})
}
