package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for even
// counts) without reordering the caller's slice. Empty input reads 0.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (Python's statistics.quantiles, method
// "inclusive"), so a number printed here can be recomputed from the raw
// samples in a trace file without a second definition.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// minBeyond is the reporting rule for tails: a percentile is only
// reported when at least this many samples lie beyond it.
const minBeyond = 10

// supportsPercentile reports whether n samples leave minBeyond of them
// beyond the p-th percentile.
func supportsPercentile(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond
}

// tail returns the p-th percentile of xs, or 0 when the sample is too
// small to support it under the minBeyond rule.
func tail(xs []float64, p float64) float64 {
	if !supportsPercentile(len(xs), p) {
		return 0
	}
	return percentile(xs, p)
}
