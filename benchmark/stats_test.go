package main

import (
	"math"
	"slices"
	"testing"
)

// TestTailPercentile checks the reporting rule: the tail is p99, or the
// highest percentile below it with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, n := range []int{11, 20, 57, 500, 999, 1000, 1001, 5000} {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		p := tailPercentile(n)
		if p > 99 {
			t.Errorf("n=%d: percentile %.3f above p99", n, p)
		}
		beyond := func(p float64) int { return n - int(percentile(s, p)) }
		if got := beyond(p); got < minBeyond {
			t.Errorf("n=%d: p%.3f has %d samples beyond it, want >= %d", n, p, got, minBeyond)
		}
		if p < 99 && beyond(p+100.0/float64(n)) >= minBeyond {
			t.Errorf("n=%d: p%.3f is not the highest percentile with %d samples beyond", n, p, minBeyond)
		}
	}
	if got := tailPercentile(10); got != 100 {
		t.Errorf("tailPercentile(10) = %v, want the maximum (100)", got)
	}
}

// TestTailIsMedianOfBlocks: a stall that delays 40 consecutive ops of
// 3000 sets the plain p99 but not the median over 1000-op blocks, and
// the blocks follow the ops' due order, not the order samples arrived.
func TestTailIsMedianOfBlocks(t *testing.T) {
	lat := make([]float64, 3000)
	at := make([]int64, 3000)
	for i := range lat {
		at[i] = int64(len(lat) - i) // samples arrive in reverse due order
		lat[i] = 1
		if i >= 1000 && i < 1040 {
			lat[i] = 50
		}
	}
	s := summarize(lat, at)
	if s.Blocks != 3 || s.TailPct != 99 || s.Tail != 1 || s.P50 != 1 {
		t.Errorf("summary %+v, want 3 blocks with median p99 1", s)
	}
	sorted := slices.Clone(lat)
	slices.Sort(sorted)
	if percentile(sorted, 99) != 50 {
		t.Fatal("the stall should set the plain p99")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {25, 10}, {26, 20}, {50, 20}, {75, 30}, {99, 40}, {100, 40}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs,
// n=4), the rule the benchmark's spread checks use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{5, 5}, 5, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
