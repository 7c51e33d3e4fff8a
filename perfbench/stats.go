package main

import (
	"math"
	"sort"
)

// minTail is the number of samples a reported percentile must have
// beyond it.
const minTail = 10

// percentileLadder are the percentiles the benchmark may report.
var percentileLadder = []float64{0.5, 0.9, 0.99, 0.999}

// supported reports whether n samples put at least minTail samples
// beyond the p-quantile.
func supported(n int, p float64) bool {
	return float64(n)*(1-p) >= minTail-1e-9
}

// highestSupported returns the highest ladder percentile n samples
// support, or 0 when none is.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if supported(n, p) {
			best = p
		}
	}
	return best
}

// quantile returns the p-quantile of xs by linear interpolation between
// closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
