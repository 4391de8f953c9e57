package main

import (
	"math"

	"wfsim/internal/stats"
)

// tailLadder lists, in per mille and highest first, the percentiles a
// tail is reported at.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// minBeyond is the number of samples a reported percentile must have
// beyond it: fewer, and the value rests on a handful of outliers.
const minBeyond = 10

// tail returns the highest percentile of tailLadder that has at least
// minBeyond samples beyond it, and that percentile's value. ok is false
// when even the median has fewer than minBeyond samples beyond it.
func tail(xs []float64) (q, v float64, ok bool) {
	for _, pm := range tailLadder {
		if len(xs)*(1000-pm) >= minBeyond*1000 {
			q = float64(pm) / 1000
			return q, stats.Quantile(xs, q), true
		}
	}
	return 0, math.NaN(), false
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }
