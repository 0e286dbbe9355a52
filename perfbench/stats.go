package main

// The benchmark computes its end-to-end statistics itself, not with the
// program's benchfmt or telemetry histograms, so that a change to the
// program under test cannot change how it is measured.

import (
	"math"
	"sort"
	"time"
)

// sortedMS returns the durations in milliseconds, ascending.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// median of an ascending slice (mean of the middle pair for even lengths).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of an ascending slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// tailBeyond is the number of samples that must lie above the reported
// tail value.
const tailBeyond = 10

// tail applies the benchmark's tail rule to an ascending slice: it reports
// the highest order statistic with at least tailBeyond samples above it,
// and the percentile that statistic is (100·(n-10)/n). When the sample is
// too small for that statistic to sit at or above the median, the rule
// falls back to the median and says so by returning pct = 50.
func tail(sorted []float64) (value, pct float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	i := n - 1 - tailBeyond
	if i < (n-1)/2 {
		return median(sorted), 50
	}
	return sorted[i], 100 * float64(n-tailBeyond) / float64(n)
}

// mean of a slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
