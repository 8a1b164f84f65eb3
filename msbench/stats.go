package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a tail figure resting on fewer is one or two outliers, not
// a percentile.
const minBeyond = 10

// minSamples returns how many samples a percentile q (0 < q < 1) needs
// so that at least minBeyond of them lie beyond it.
func minSamples(q float64) int {
	return int(math.Ceil(minBeyond / (1 - q)))
}

// percentile returns the q-quantile of xs (nearest rank on the sorted
// copy) and an error when xs holds too few samples for minBeyond of them
// to lie beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	if n, need := len(xs), minSamples(q); n < need {
		return 0, fmt.Errorf("p%g needs at least %d samples, have %d", q*100, need, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)], nil
}

// rank is the index of the q-quantile in a sorted slice of n values: the
// smallest index with at least a q share of the values at or below it.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of xs, which must all be positive.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geomean of no values")
	}
	var logSum float64
	for _, x := range xs {
		if !(x > 0) {
			return 0, fmt.Errorf("geomean of non-positive value %v", x)
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs))), nil
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio divides, reporting 0 when the denominator is 0 (a layer that did
// no work on this workload).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
