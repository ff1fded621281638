package main

import (
	"math"
	"sort"
)

// quantile returns the exact q-quantile of sorted samples: the smallest
// sample with at least a q share of all samples at or below it.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// tailOK reports whether n samples leave at least 10 beyond the q-quantile.
func tailOK(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= 10
}

// median returns the exact median of unsorted samples.
func median(s []int64) float64 {
	c := append([]int64(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return float64(quantile(c, 0.5))
}

func median64(s []float64) float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c[(len(c)-1)/2]
}

func sum(s []int64) int64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return t
}
