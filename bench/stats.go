//go:build linux

package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which must be in ascending order and non-empty.
func percentile(sorted []int64, p float64) int64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

// median returns the median of vals (the mean of the two middle values for
// an even count) without reordering the caller's slice. It is 0 for no
// values, which is what a metric reads on a workload that never enters the
// metric's layer.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(vals))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(vals, n=4) gives (its default "exclusive" method),
// so the A/A report computes a spread the same way the driver does. It
// needs at least two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(vals))
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// latSummary is one trial's latency distribution, in microseconds.
type latSummary struct {
	p50, p99 float64
	n        int
}

// summarize sorts ns in place and reports its median and 99th percentile.
func summarize(ns []int64) latSummary {
	if len(ns) == 0 {
		return latSummary{}
	}
	slices.Sort(ns)
	return latSummary{
		p50: float64(percentile(ns, 50)) / 1e3,
		p99: float64(percentile(ns, 99)) / 1e3,
		n:   len(ns),
	}
}
