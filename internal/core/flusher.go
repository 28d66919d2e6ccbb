package core

// RunFlusher executes Algorithm 1, the periodic flusher of one writeback
// domain: while hostOn(), it runs pass — one wake-up's writeback, normally
// Manager.FlushPass over the domain — then waits out the remainder of the
// flush interval. It is the only flusher loop: the engine runs one per
// writeback domain of each host (every page cache has N ≥ 1 domains; a
// single-domain host runs exactly one, over domain 0), the NFS server's
// flusher wraps the same pass in its server-down guard, and the sequential
// prototype replays the loop on a tick clock to catch up on the wake-ups it
// skipped.
//
// now reads the flusher's clock. wait suspends the flusher for at most the
// given seconds and may return early: the engine passes a DES signal's
// WaitTimeout, and per-device writeback installs the signal's Broadcast as
// the domain's wake hook (Manager.SetDomainWake), so a write crossing the
// domain's background threshold starts the next pass at once. Without a
// wake hook the wait always runs to its timeout, a plain sleep.
//
// Each wake-up costs O(1) real time when nothing is expired and the domain
// is under its background threshold: the expiry pass answers the idle case
// from the domain's expiry-queue head instead of scanning the LRU lists,
// and the background pass is a counter comparison, so hosts with large
// quiescent caches pay no cache walk every FlushInterval.
func RunFlusher(now func() float64, interval float64, pass func(), wait func(seconds float64), hostOn func() bool) {
	for hostOn() {
		start := now()
		pass()
		if elapsed := now() - start; elapsed < interval {
			wait(interval - elapsed)
		}
	}
}
