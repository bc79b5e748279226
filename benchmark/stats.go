package main

import (
	"math"
	"slices"
)

// percentile returns the q-quantile (0..1) of xs. Wall-time samples are
// quantised by the clock, so thousands of them tie at one value, and
// the plain order statistic would read the same on every run. The tied
// block is therefore spread evenly between the midpoints to the
// neighbouring distinct values — the interpolated quantile of grouped
// data — which is the order statistic itself when nothing ties. It
// returns NaN for an empty slice.
func percentile[T float32 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	r := rank(len(s), q)
	v := s[r]
	lo, _ := slices.BinarySearch(s, v)
	hi := lo
	for hi < len(s) && s[hi] == v {
		hi++
	}
	if hi-lo == 1 {
		return float64(v)
	}
	below, above := float64(v), float64(v)
	if lo > 0 {
		below = (float64(s[lo-1]) + float64(v)) / 2
	}
	if hi < len(s) {
		above = (float64(s[hi]) + float64(v)) / 2
	}
	return below + (above-below)*(float64(r-lo)+0.5)/float64(hi-lo)
}

// rank is the nearest-rank index of quantile q among n sorted samples:
// the smallest sample with at least q of the samples at or below it.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// median is the mean of the two middle samples for an even count, the
// middle one otherwise. A ladder rung is the median of its repetitions,
// so one repetition disturbed by the host moves nothing.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// skew is the deepest share over the fair share: 1 is a perfect
// balance, n is everything on one of n queues.
func skew(depths []int) float64 {
	total, deepest := 0, 0
	for _, d := range depths {
		total += d
		deepest = max(deepest, d)
	}
	if total == 0 {
		return 0
	}
	return float64(deepest) * float64(len(depths)) / float64(total)
}
