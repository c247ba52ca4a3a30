package main

import (
	"math"
	"slices"
)

// quantile returns the nearest-rank q-quantile of xs, without modifying
// xs (span arrays are indexed by trace ID after their quantiles are taken).
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// iqm is the interquartile mean of xs: the mean of what is left after
// dropping the lowest and the highest quarter. It is how a run aggregates
// its per-pass samples: a pass hit by a host hiccup falls in a dropped
// quarter, as with a median, but the result still moves smoothly when
// the samples are bimodal (see op_p99_us).
func iqm(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t / float64(len(s))
}

func sum(xs []int64) int64 {
	t := int64(0)
	for _, x := range xs {
		t += x
	}
	return t
}
