package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a p99 needs at least 1000 samples.
const minBeyond = 10

// quantile returns the q-quantile of xs by nearest rank. It fails when
// fewer than beyond samples lie above that rank, since such a
// percentile would rest on a handful of outliers.
func quantile(xs []float64, q float64, beyond int) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < beyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", 100*q, beyond, n-rank, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median of xs; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	} else {
		return s[n/2]
	}
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
