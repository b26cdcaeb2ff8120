package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// method: the smallest sample with at least q·n samples at or below it.
// It sorts xs in place and returns NaN for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count) without modifying xs; NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// lowerQuartile and upperQuartile are nearest-rank quartiles of xs, which
// never leave the range of the data (NaN for no data). xs is not modified.
func lowerQuartile(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.25)
}

func upperQuartile(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.75)
}

// perOp divides a count by the number of completed operations, returning
// 0 when nothing completed so a ratio never becomes NaN or Inf in output.
func perOp(count float64, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return count / float64(ops)
}

// ratio divides num by den, returning 0 for a zero denominator: a ratio of
// useful outcomes to attempts is reported as 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
