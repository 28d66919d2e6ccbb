// BenchmarkWriteback*: the Memory Manager flush paths run once per
// registered writeback policy on a large fragmented cache. Two things are
// watched here:
//
//   - the default list-order sub-benchmarks must stay within noise of the
//     pre-seam BenchmarkCore{FlushManyBlocks,FlushExpired} and
//     BenchmarkPolicy* numbers (the selection indirection and the
//     dirty-lifecycle notifications may not tax the hot paths);
//   - every alternative policy must keep selection in its declared
//     complexity class — O(1)–O(dirty files) per flushed block, never a
//     cache walk.
//
// CI runs them with -benchtime=1x as a smoke test; run them with the
// default benchtime for real numbers.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

func newWritebackBenchManager(tb testing.TB, wb string, totalMem int64) *core.Manager {
	cfg := core.DefaultConfig(totalMem)
	cfg.Writeback = wb
	m, err := core.NewManager(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkWritebackFlushStorm measures Flush draining a deep dirty backlog
// spread over 16 files behind a 100k-block clean cache — the
// BenchmarkCoreFlushManyBlocks scenario per writeback policy: every flushed
// block pays one selection (front peek, queue head, ring cursor or ring
// scan) plus the dirty-lifecycle bookkeeping.
func BenchmarkWritebackFlushStorm(b *testing.B) {
	for _, wb := range core.WritebackPolicyNames() {
		b.Run(wb, func(b *testing.B) {
			c := &benchCaller{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := newWritebackBenchManager(b, wb, 1<<42)
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
		})
	}
}

// BenchmarkWritebackDirtyChurn measures sustained mixed dirty churn per
// writeback policy: writes, partial flushes, expiry passes, reads (which
// split and requeue dirty blocks under the LRU) and invalidations (which
// dequeue without flushing) interleave on a 100k-block cache, exercising
// every dirty-lifecycle notification the seam added.
func BenchmarkWritebackDirtyChurn(b *testing.B) {
	for _, wb := range core.WritebackPolicyNames() {
		b.Run(wb, func(b *testing.B) {
			c := &benchCaller{}
			b.ReportAllocs()
			m := newWritebackBenchManager(b, wb, 1<<42)
			now := buildFragmentedCache(b, m, c)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.now = now + float64(i) + 1
				switch i % 5 {
				case 0:
					m.WriteToCache(c, fmt.Sprintf("w%d", i%64), coreBenchBlock)
				case 1:
					f := fmt.Sprintf("w%d", (i+1)%64)
					if cached := m.Cached(f); cached > 0 {
						m.CacheRead(c, f, cached)
					}
				case 2:
					m.Flush(c, coreBenchBlock/2) // partial: splits and requeues
				case 3:
					m.FlushExpiredDomain(c, 0)
				case 4:
					m.InvalidateFile(fmt.Sprintf("w%d", (i+2)%64))
				}
			}
		})
	}
}
