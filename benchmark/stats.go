package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: fewer make the percentile a statement about a handful of
// outliers rather than about the distribution.
const minBeyond = 10

// percentile returns the p-th percentile (0..100) of samples by linear
// interpolation between closest ranks. samples need not be sorted.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo = 0
	}
	if hi >= len(s) {
		hi = len(s) - 1
	}
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

// tailPercentile applies the reporting rule for tail latencies: report
// the wanted percentile only when at least minBeyond samples lie beyond
// it; otherwise fall back to the highest percentile that still has
// minBeyond samples beyond it, but never below the median. It returns
// the percentile actually used and its value.
func tailPercentile(samples []float64, want float64) (used, value float64) {
	n := len(samples)
	if n == 0 {
		return want, 0
	}
	used = want
	if limit := 100 * (1 - float64(minBeyond)/float64(n)); limit < used {
		used = limit
	}
	if used < 50 {
		used = 50
	}
	return used, percentile(samples, used)
}

// median is the 50th percentile.
func median(samples []float64) float64 { return percentile(samples, 50) }

// countAbove counts the samples strictly greater than v.
func countAbove(samples []float64, v float64) int {
	n := 0
	for _, s := range samples {
		if s > v {
			n++
		}
	}
	return n
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return sum(samples) / float64(len(samples))
}

func sum(samples []float64) float64 {
	t := 0.0
	for _, s := range samples {
		t += s
	}
	return t
}

// ratio divides, answering 0 for an empty base so metrics of a layer a
// workload never exercises read 0 instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
