package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie above a percentile before it is
// reported: a p99 needs at least 1000 samples, a p90 at least 100.
const minTail = 10

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether it may be reported: at least minTail samples must lie above
// its rank, otherwise the value is a guess about the tail and ok is
// false.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	s := sortedCopy(xs)
	return s[rank-1], n-rank >= minTail
}

// reportable is percentile with the withheld case mapped to 0, the value
// a metric takes when too few samples exist to state it.
func reportable(xs []float64, p float64) float64 {
	v, ok := percentile(xs, p)
	if !ok {
		return 0
	}
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
