package main

import (
	"math"
	"sort"
)

// inf is the latency of a failed operation.
var inf = math.Inf(1)

// percentileLadder lists the percentiles the benchmark reports, in per-mille
// so that "samples beyond" is exact integer arithmetic.
var percentileLadder = []int{500, 900, 990, 999}

// highestPercentile returns the highest percentile of the ladder that has at
// least ten of n samples beyond it, or 0 when even the median has fewer.
// A p90 needs 100 samples, a p99 1000.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, pm := range percentileLadder {
		if n*(1000-pm) >= 10*1000 {
			best = float64(pm) / 10
		}
	}
	return best
}

// percentile returns the p-th percentile of xs by the nearest-rank rule: the
// smallest sample with at least p% of the samples at or below it. Failed
// operations enter as +Inf and so sort above every latency.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// mean returns the arithmetic mean of xs, 0 when empty.
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

// ratio returns num/den, 0 when den is 0: a layer the workload never
// exercised reports 0 rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
