// Package metrics computes the multithreaded performance metrics the paper
// reports: IPC throughput and the Hmean throughput-fairness metric of Luo,
// Gummaraju and Franklin (ISPASS'01), plus weighted speedup for reference —
// and the open-system metrics the job scheduler adds (latency percentiles,
// Jain's fairness index).
package metrics

import (
	"math"
	"sort"
)

// Hmean returns the harmonic mean of per-thread relative IPCs
// (multi-thread IPC over single-thread IPC). It rewards balanced progress:
// starving one thread to speed another collapses the harmonic mean, which
// is why the paper prefers it over raw throughput.
func Hmean(multi, single []float64) float64 {
	if len(multi) != len(single) || len(multi) == 0 {
		return 0
	}
	var sum float64
	for i := range multi {
		if single[i] <= 0 || multi[i] <= 0 {
			return 0
		}
		sum += single[i] / multi[i]
	}
	return float64(len(multi)) / sum
}

// WeightedSpeedup returns the sum of per-thread relative IPCs divided by
// the thread count (Tullsen & Brown's fairness metric, shown for contrast).
func WeightedSpeedup(multi, single []float64) float64 {
	if len(multi) != len(single) || len(multi) == 0 {
		return 0
	}
	var sum float64
	for i := range multi {
		if single[i] <= 0 {
			return 0
		}
		sum += multi[i] / single[i]
	}
	return sum / float64(len(multi))
}

// Throughput returns the sum of per-thread IPCs.
func Throughput(multi []float64) float64 {
	var sum float64
	for _, v := range multi {
		sum += v
	}
	return sum
}

// Improvement returns the relative improvement of a over b in percent.
func Improvement(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * (a - b) / b
}

// Percentile returns the p-th percentile (p in [0,100]) of xs by the
// nearest-rank method: the smallest value such that at least p% of the
// samples are <= it. The input is not modified (a sorted copy is taken);
// empty input returns 0. p <= 0 returns the minimum, p >= 100 the maximum.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// JainFairness returns Jain's fairness index (sum x)^2 / (n * sum x^2) over
// the per-entity allocations xs: 1.0 when all entities receive equal
// allocations, approaching 1/n as one entity dominates. Non-positive entries
// count as zero allocation; an empty or all-zero input returns 0.
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		if x < 0 {
			x = 0
		}
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
