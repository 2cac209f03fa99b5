package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to count as measured rather than extrapolated.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of
// samples, in which failed requests appear as +Inf. It fails when fewer
// than minBeyond samples lie beyond the rank, so a tail figure is never
// read off a handful of points.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", 100*q)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond && q > 0.5 {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", 100*q, minBeyond, beyond, n)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the nearest-rank median; zero for no samples.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	v, _ := percentile(samples, 0.5)
	return v
}
