package exp

import (
	"fmt"
	"testing"

	"repro/internal/units"
)

// TestScaledDevicesEvictionPressure runs the cell with RAM, write volume
// and chunk size scaled down together to 1/5 and 1/10, to study the
// eviction-pressure regime (total writes > RAM) the full-size cell hits.
// The 1/5 point is the regression trigger for the fluid sub-resolution
// livelock: under eviction pressure the write throttle loop emits byte-sized
// cache writes, and late in the run one of them needed less simulated time
// than one ulp of the clock — the completion event then fired at the same
// instant forever (internal/fluid TestSubResolutionCompletion pins the
// kernel-level guard; this pins the workload that found it).
func TestScaledDevicesEvictionPressure(t *testing.T) {
	for _, s := range []int64{5, 10} {
		for _, mode := range devModes {
			s, mode := s, mode
			t.Run(fmt.Sprintf("%s-scale1of%d", mode, s), func(t *testing.T) {
				pay, err := runDevices(mode, 16*units.GiB/s, 24*units.GB/s, 100*units.MB/s)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("scaled 1/%d %s writer walls %+v", s, mode, pay.Writers)
			})
		}
	}
}
