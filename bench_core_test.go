// BenchmarkCore*: micro-benchmarks for the Memory Manager hot paths on a
// large (100k-block) fragmented cache. These are the scaling scenarios the
// indexed core (dirty sublists, per-file block chains, expiry queue) exists
// for; before that refactor every scenario below walked the full LRU lists
// per operation and went quadratic.
//
// CI runs them with -benchtime=1x as a smoke test; run them with the default
// benchtime for real numbers.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

const (
	coreBenchBlock    = int64(4096)
	coreBenchFiles    = 1000
	coreBenchPerFile  = 100 // coreBenchFiles * coreBenchPerFile = 100k blocks
	coreBenchDirtyCnt = 1000
)

// buildFragmentedCache fills a fresh manager with coreBenchFiles*coreBenchPerFile
// clean blocks, round-robin interleaved across files (maximal fragmentation:
// consecutive blocks of one file are never adjacent), and returns the clock
// value after the last insertion.
func buildFragmentedCache(tb testing.TB, m *core.Manager, c *benchCaller) float64 {
	n := coreBenchFiles * coreBenchPerFile
	for j := 0; j < n; j++ {
		c.now = float64(j)
		if d := m.AddToCache(fmt.Sprintf("f%d", j%coreBenchFiles), coreBenchBlock, c.now); d != 0 {
			tb.Fatalf("AddToCache deficit %d", d)
		}
	}
	return float64(n)
}

func newBenchManager(tb testing.TB) *core.Manager {
	m, err := core.NewManager(core.DefaultConfig(1 << 42))
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkCoreFlushManyBlocks measures Flush draining many dirty blocks that
// sit behind a deep clean LRU prefix: the pre-index scan re-walked the whole
// inactive list for every flushed block (O(k·n)); the dirty sublist makes each
// step an O(1) front peek.
func BenchmarkCoreFlushManyBlocks(b *testing.B) {
	c := &benchCaller{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := newBenchManager(b)
		now := buildFragmentedCache(b, m, c)
		for j := 0; j < coreBenchDirtyCnt; j++ {
			c.now = now + float64(j)
			if d := m.WriteToCache(c, fmt.Sprintf("d%d", j%16), coreBenchBlock); d != 0 {
				b.Fatalf("WriteToCache deficit %d", d)
			}
		}
		b.StartTimer()
		if got := m.Flush(c, int64(coreBenchDirtyCnt)*coreBenchBlock); got != int64(coreBenchDirtyCnt)*coreBenchBlock {
			b.Fatalf("flushed %d", got)
		}
	}
}

// BenchmarkCoreFlushExpired measures the flusher's expiry pass in the same
// clean-prefix scenario: every expired block cost a full-list scan before;
// the expiry queue plus dirty sublists make it proportional to the dirty
// blocks only, with an O(1) nothing-expired exit.
func BenchmarkCoreFlushExpired(b *testing.B) {
	c := &benchCaller{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := newBenchManager(b)
		now := buildFragmentedCache(b, m, c)
		for j := 0; j < coreBenchDirtyCnt; j++ {
			c.now = now + float64(j)
			if d := m.WriteToCache(c, fmt.Sprintf("d%d", j%16), coreBenchBlock); d != 0 {
				b.Fatalf("WriteToCache deficit %d", d)
			}
		}
		c.now += m.Config().DirtyExpire + float64(coreBenchDirtyCnt) + 1
		b.StartTimer()
		if got := m.FlushExpiredDomain(c, 0); got != int64(coreBenchDirtyCnt)*coreBenchBlock {
			b.Fatalf("flushed %d", got)
		}
		// The common steady-state call: nothing expired, must return fast.
		if got := m.FlushExpiredDomain(c, 0); got != 0 {
			b.Fatalf("second expiry pass flushed %d", got)
		}
	}
}

// BenchmarkCoreFragmentedRead measures CacheRead of one maximally fragmented
// file out of 1000: the pre-index scan walked all 100k blocks to find the
// file's 100; the per-file chain touches only those.
func BenchmarkCoreFragmentedRead(b *testing.B) {
	c := &benchCaller{}
	b.ReportAllocs()
	var m *core.Manager
	var now float64
	for i := 0; i < b.N; i++ {
		if i%coreBenchFiles == 0 {
			b.StopTimer()
			m = newBenchManager(b)
			now = buildFragmentedCache(b, m, c)
			b.StartTimer()
		}
		c.now = now + float64(i%coreBenchFiles) + 1
		m.CacheRead(c, fmt.Sprintf("f%d", i%coreBenchFiles), int64(coreBenchPerFile)*coreBenchBlock)
	}
}

// BenchmarkCoreInvalidateFragmented measures InvalidateFile on the same
// fragmented cache: full two-list walk before, per-file chain walk after.
func BenchmarkCoreInvalidateFragmented(b *testing.B) {
	c := &benchCaller{}
	b.ReportAllocs()
	var m *core.Manager
	for i := 0; i < b.N; i++ {
		if i%coreBenchFiles == 0 {
			b.StopTimer()
			m = newBenchManager(b)
			buildFragmentedCache(b, m, c)
			b.StartTimer()
		}
		name := fmt.Sprintf("f%d", i%coreBenchFiles)
		if got := m.InvalidateFile(name); got != int64(coreBenchPerFile)*coreBenchBlock {
			b.Fatalf("invalidated %d of %s", got, name)
		}
	}
}

// mixedChurnStep is iteration i of the sustained-churn workload: writes,
// fragmented reads, targeted flushes and invalidations interleaved. Shared
// by BenchmarkCoreMixedChurn and BenchmarkPolicyMixedChurn so the workloads
// they compare cannot drift apart.
func mixedChurnStep(m *core.Manager, c *benchCaller, now float64, i int) {
	c.now = now + float64(i) + 1
	switch i % 4 {
	case 0:
		m.WriteToCache(c, fmt.Sprintf("w%d", i%64), coreBenchBlock)
	case 1:
		f := fmt.Sprintf("f%d", i%coreBenchFiles)
		if cached := m.Cached(f); cached > 0 {
			m.CacheRead(c, f, cached)
		}
	case 2:
		m.Flush(c, 2*coreBenchBlock)
	case 3:
		m.InvalidateFile(fmt.Sprintf("w%d", (i+2)%64))
	}
}

// BenchmarkCoreMixedChurn runs the mixed-churn workload on a 100k-block
// cache — the sustained profile of a long simulation with many concurrent
// tasks.
func BenchmarkCoreMixedChurn(b *testing.B) {
	c := &benchCaller{}
	b.ReportAllocs()
	m := newBenchManager(b)
	now := buildFragmentedCache(b, m, c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mixedChurnStep(m, c, now, i)
	}
}
