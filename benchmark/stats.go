package main

import (
	"cmp"
	"math"
	"slices"
)

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile for it to mean anything.
const minBeyond = 10

// tailPercentile returns the percentile the benchmark reports as a
// latency tail for n samples: p99, or the highest percentile below it
// that still has minBeyond samples beyond it. With minBeyond or fewer
// samples no such percentile exists and the maximum (p100) is returned.
func tailPercentile(n int) float64 {
	if n <= minBeyond {
		return 100
	}
	return math.Min(99, 100*(1-float64(minBeyond)/float64(n)))
}

// percentile returns the nearest-rank p-th percentile of sorted: the
// smallest sample with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps a rank that is whole in exact arithmetic (p99 of
	// 1000 samples) from rounding up past it.
	i := int(math.Ceil(p/100*float64(len(sorted))-1e-9)) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// blockSize is the number of consecutive ops whose p99 has exactly
// minBeyond samples beyond it.
const blockSize = 100 * minBeyond

// latencySummary is the median and tail of one set of latency samples.
// P50 is the median of all of them. The tail is robust to a stall that
// delays a few dozen consecutive ops: the samples, in the order the ops
// were due, are cut into blocks of at least blockSize, and Tail is the
// median over the blocks of each block's p99. Fewer than blockSize
// samples form one block, whose tail is its highest percentile with
// minBeyond samples beyond it (TailPct).
type latencySummary struct {
	N       int
	Blocks  int
	P50     float64
	TailPct float64
	Tail    float64
}

// summarize summarizes samples; at, when not nil, gives each sample's
// due time and fixes the order blocks are cut in.
func summarize(samples []float64, at []int64) latencySummary {
	s := slices.Clone(samples)
	if at != nil {
		idx := make([]int, len(s))
		for i := range idx {
			idx[i] = i
		}
		slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(at[a], at[b]) })
		for i, j := range idx {
			s[i] = samples[j]
		}
	}
	sum := latencySummary{N: len(s), Blocks: max(1, len(s)/blockSize)}
	var tails []float64
	for k := 0; k < sum.Blocks; k++ {
		b := s[k*len(s)/sum.Blocks : (k+1)*len(s)/sum.Blocks]
		slices.Sort(b)
		sum.TailPct = tailPercentile(len(b))
		tails = append(tails, percentile(b, sum.TailPct))
	}
	sum.Tail = median(tails)
	slices.Sort(s)
	sum.P50 = percentile(s, 50)
	return sum
}

// median returns the middle value of xs (the mean of the middle two for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the rule
// the benchmark's spread checks are stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
