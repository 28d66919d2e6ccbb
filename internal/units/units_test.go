package units

import "testing"

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"100MB", 100 * MB},
		{"3 GB", 3 * GB},
		{"250GiB", 250 * GiB},
		{"1.5GB", 1500 * MB},
		{"4096", 4096},
		{"0", 0},
		{"2TiB", 2 * TiB},
		{"7KB", 7 * KB},
		{"8KiB", 8 * KiB},
		{"  12MiB  ", 12 * MiB},
		{"9TB", 9 * TB},
		{"5B", 5},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil {
			t.Fatalf("ParseBytes(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseBytesErrors(t *testing.T) {
	for _, in := range []string{"", "abc", "-5MB", "12XB", "GB", "-3",
		"NaNGiB", "InfMB", "1e30GiB", "9223372036854775807KB", "99999999999999999999"} {
		if v, err := ParseBytes(in); err == nil {
			t.Fatalf("ParseBytes(%q) = %d, want error", in, v)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{3 * GB, "3.00GB"},
		{100 * MB, "100.00MB"},
		{2 * TB, "2.00TB"},
		{512, "512B"},
		{5 * KB, "5.00KB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Fatalf("FormatBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{125.4, "125.4s"},
		{3.14159, "3.14s"},
		{0.02, "20.0ms"},
		{0, "0s"},
		{-1, "0s"},
	}
	for _, c := range cases {
		if got := FormatSeconds(c.in); got != c.want {
			t.Fatalf("FormatSeconds(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestBandwidthHelpers(t *testing.T) {
	if MBps(465) != 465e6 {
		t.Fatal("MBps wrong")
	}
	if GBps(1.5) != 1.5e9 {
		t.Fatal("GBps wrong")
	}
}

func TestRoundTrip(t *testing.T) {
	for _, n := range []int64{GB, 20 * GB, 100 * MB, 3 * KB} {
		s := FormatBytes(n)
		back, err := ParseBytes(s)
		if err != nil || back != n {
			t.Fatalf("round trip %d → %q → %d (%v)", n, s, back, err)
		}
	}
}
