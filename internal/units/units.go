// Package units provides byte-size and bandwidth constants, parsing and
// formatting helpers shared across the simulator.
//
// The paper mixes decimal units (file sizes in GB/MB, bandwidths in MBps) and
// binary units (RAM in GiB). Both families are provided; simulation code
// stores all sizes as int64 bytes and all rates as float64 bytes/second.
package units

import (
	"fmt"
	"strconv"
	"strings"
)

// Decimal (SI) byte sizes.
const (
	KB int64 = 1e3
	MB int64 = 1e6
	GB int64 = 1e9
	TB int64 = 1e12
)

// Binary (IEC) byte sizes.
const (
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
	TiB int64 = 1 << 40
)

// MBps converts a bandwidth expressed in decimal megabytes per second (the
// unit used throughout the paper's Table III) to bytes per second.
func MBps(v float64) float64 { return v * 1e6 }

// GBps converts decimal gigabytes per second to bytes per second.
func GBps(v float64) float64 { return v * 1e9 }

var suffixes = []struct {
	name string
	mult int64
}{
	{"TiB", TiB}, {"GiB", GiB}, {"MiB", MiB}, {"KiB", KiB},
	{"TB", TB}, {"GB", GB}, {"MB", MB}, {"KB", KB},
	{"B", 1},
}

// ParseBytes parses strings such as "100MB", "3 GB", "250GiB" or "4096" into
// a byte count. The match is case-sensitive on the unit to keep the
// decimal/binary distinction unambiguous.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	for _, suf := range suffixes {
		if strings.HasSuffix(t, suf.name) {
			num := strings.TrimSpace(strings.TrimSuffix(t, suf.name))
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("units: cannot parse %q: %v", s, err)
			}
			if v < 0 {
				return 0, fmt.Errorf("units: negative size %q", s)
			}
			// Not-a-number, infinite and out-of-range sizes would convert
			// to a negative int64.
			n := v * float64(suf.mult)
			if !(n < 1<<63) {
				return 0, fmt.Errorf("units: size %q out of range", s)
			}
			return int64(n), nil
		}
	}
	v, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("units: cannot parse %q: %v", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("units: negative size %q", s)
	}
	return v, nil
}

// FormatBytes renders a byte count with a decimal unit suffix, e.g. 3.00GB.
// It is used for human-readable experiment output (the paper reports decimal
// units).
func FormatBytes(n int64) string {
	f := float64(n)
	switch {
	case n >= TB:
		return fmt.Sprintf("%.2fTB", f/float64(TB))
	case n >= GB:
		return fmt.Sprintf("%.2fGB", f/float64(GB))
	case n >= MB:
		return fmt.Sprintf("%.2fMB", f/float64(MB))
	case n >= KB:
		return fmt.Sprintf("%.2fKB", f/float64(KB))
	}
	return fmt.Sprintf("%dB", n)
}

// FormatSeconds renders a duration in seconds with adaptive precision.
func FormatSeconds(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.1fs", s)
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s <= 0:
		return "0s"
	}
	return fmt.Sprintf("%.1fms", s*1e3)
}
