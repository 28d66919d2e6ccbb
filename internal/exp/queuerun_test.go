package exp

import (
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/queue"
)

// TestRunQueueReturnsDrainError: when the coordinator's own drain fails —
// here the result store is gone, so completing a cell fails — RunQueue
// returns that error instead of polling forever for cells nobody is left
// to finish.
func TestRunQueueReturnsDrainError(t *testing.T) {
	secs := []Section{echoSection("alpha", 1, 2, 3)}
	dir := filepath.Join(t.TempDir(), "q")
	if _, err := queue.Create(dir, SpecsOf(secs)); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "results")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunQueue(NewEmitter(io.Discard, "", secs), secs, QueueRunOptions{
			Dir:   dir,
			Drain: grid.Options{Workers: 1},
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RunQueue succeeded without a result store")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunQueue still waiting 10s after its only drain slot failed")
	}
}
