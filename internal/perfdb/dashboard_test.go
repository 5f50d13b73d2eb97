package perfdb

import (
	"strings"
	"testing"
)

// TestDeltaSpanDirection pins which way is good: a rise in a throughput
// or eligible-point count is good, a rise in a cost is bad.
func TestDeltaSpanDirection(t *testing.T) {
	for _, tc := range []struct {
		metric         string
		higherIsBetter bool
	}{
		{"quality_points_eligible", true},
		{"bench.suite-verified.programs_per_s", true},
		{"bench.corpus-batch.programs_per_s", true},
		{"bench.serve-hotcold.latency_p99_us", false},
		{"phase.scan.ns", false},
		{"quality_gap_binpack", false},
		{"rusage.gc.heap_alloc_bytes", false},
	} {
		want := `class="bad"`
		if tc.higherIsBetter {
			want = `class="good"`
		}
		if got := deltaSpan(tc.metric, 100, 120); !strings.Contains(got, want) {
			t.Errorf("deltaSpan(%q, 100, 120) = %s, want %s", tc.metric, got, want)
		}
	}
}

func TestFmtValueUnits(t *testing.T) {
	for _, tc := range []struct {
		metric string
		v      float64
		want   string
	}{
		{"bench.serve-hotcold.latency_p50_us", 1500, "1.50 ms"},
		{"bench.suite-verified.latency_p99_us", 850, "850.0 µs"},
		{"alloc.wc.wall_ns", 2.5e6, "2.50 ms"},
		{"rusage.max_rss_bytes", 3 << 20, "3.0 MiB"},
		{"bench.corpus-batch.failed", 3, "3"},
	} {
		if got := fmtValue(tc.metric, tc.v); got != tc.want {
			t.Errorf("fmtValue(%q, %v) = %q, want %q", tc.metric, tc.v, got, tc.want)
		}
	}
}
