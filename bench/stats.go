package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileSorted interpolates the p-quantile (0..1) of an ascending slice
// with the "exclusive" rule of Python's statistics.quantiles, which the
// acceptance driver uses for its quartiles.
func quantileSorted(s []float64, p float64) float64 {
	n := len(s)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return s[0]
	}
	pos := p * float64(n+1)
	j := int(pos)
	if j < 1 {
		return s[0]
	}
	if j >= n {
		return s[n-1]
	}
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

// median is the middle value of xs (NaN when empty). Every timing the
// harness reports is a median over iterations, never a mean or a best-of,
// so a burst of neighbour noise inside the window cannot move it.
func median(xs []float64) float64 { return quantileSorted(sorted(xs), 0.5) }

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	return quantileSorted(s, 0.25), quantileSorted(s, 0.5), quantileSorted(s, 0.75)
}

// geomean is the geometric mean of strictly positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer the value is a single outlier, not a tail.
const minBeyond = 10

// tail returns the highest of p99, p95, p90 and p75 that still has
// minBeyond samples above it, and which percentile that was; with fewer
// than 4*minBeyond samples it falls back to the median (pct 50).
func tail(xs []float64) (value float64, pct int) {
	s := sorted(xs)
	for _, p := range []int{99, 95, 90, 75} {
		idx := int(math.Ceil(float64(p)/100*float64(len(s)))) - 1
		if idx >= 0 && len(s)-1-idx >= minBeyond {
			return s[idx], p
		}
	}
	return quantileSorted(s, 0.5), 50
}
