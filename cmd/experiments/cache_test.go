package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCached runs the test grid over the result cache in dir and returns its
// stdout, CSVs and the number of cells it executed.
func runCached(t *testing.T, dir string) (string, map[string]string, int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "timings.json")
	stdout, csvs := runGrid(t, "-workers", "2", "-cache", dir, "-timings-json", path)
	return stdout, csvs, readTimings(t, path).Cells
}

// cacheEntries returns the entry files in dir, sorted.
func cacheEntries(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// captureStderr returns what f writes to os.Stderr.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stderr
	os.Stderr = tmp
	defer func() { os.Stderr = saved }()
	f()
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestCacheByteIdentical is the cache's contract: cold, warm, partly
// deleted and corrupted cache directories all produce the bytes of a run
// without a cache, and each executes exactly the cells it has no good
// entry for.
func TestCacheByteIdentical(t *testing.T) {
	stdout1, csv1 := runGrid(t, "-workers", "1")
	dir := filepath.Join(t.TempDir(), "cache")

	stdout, csvs, cells := runCached(t, dir)
	expectIdentical(t, "cold cache", stdout1, stdout, csv1, csvs)
	entries := cacheEntries(t, dir)
	if cells != 39 || len(entries) != 39 {
		t.Fatalf("cold run executed %d cells and stored %d entries, want 39 each", cells, len(entries))
	}

	stdout, csvs, cells = runCached(t, dir)
	expectIdentical(t, "warm cache", stdout1, stdout, csv1, csvs)
	if cells != 0 {
		t.Errorf("warm run executed %d cells, want 0", cells)
	}

	deleted := 0
	for i := 0; i < len(entries); i += 2 {
		if err := os.Remove(entries[i]); err != nil {
			t.Fatal(err)
		}
		deleted++
	}
	stdout, csvs, cells = runCached(t, dir)
	expectIdentical(t, "half-deleted cache", stdout1, stdout, csv1, csvs)
	if cells != deleted {
		t.Errorf("run over a half-deleted cache executed %d cells, want the %d deleted", cells, deleted)
	}

	// Truncate one entry and give another a foreign kind.
	truncated, foreign := entries[0], entries[1]
	want := map[string][]byte{}
	for _, f := range []string{truncated, foreign} {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		want[f] = data
	}
	if err := os.WriteFile(truncated, want[truncated][:len(want[truncated])/2], 0o644); err != nil {
		t.Fatal(err)
	}
	kind := []byte(`"kind":"`)
	i := bytes.Index(want[foreign], kind) + len(kind)
	if i < len(kind) {
		t.Fatalf("entry %s has no kind: %s", foreign, want[foreign])
	}
	relabelled := append(append(append([]byte{}, want[foreign][:i]...), "foreign-"...), want[foreign][i:]...)
	if err := os.WriteFile(foreign, relabelled, 0o644); err != nil {
		t.Fatal(err)
	}
	stderr := captureStderr(t, func() { stdout, csvs, cells = runCached(t, dir) })
	expectIdentical(t, "corrupted cache", stdout1, stdout, csv1, csvs)
	if cells != 2 {
		t.Errorf("run over two bad entries executed %d cells, want 2", cells)
	}
	if n := strings.Count(stderr, ", re-running\n"); n != 2 {
		t.Errorf("want 2 re-running notices on stderr, got %d:\n%s", n, stderr)
	}
	for f, data := range want {
		got, err := os.ReadFile(f)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("bad entry %s not rewritten (err %v)", filepath.Base(f), err)
		}
	}
}
