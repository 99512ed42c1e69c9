package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0 ≤ p ≤ 1) of an ascending sample set by
// nearest rank; NaN when the set is empty.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns xs ascending without touching the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the 0.5 quantile by interpolation (the mean of the two middle
// samples when the count is even).
func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}

// quartiles returns the first quartile, the median and the third quartile
// the way Python's statistics.quantiles(xs, n=4) does (exclusive method,
// linear interpolation between ranks), so a spread computed from a result
// document matches one computed by an outside driver from the same values.
// One sample is its own quartiles; none gives NaN.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := sortedCopy(xs)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// Rank k·(n+1)/4, 1-based, clamped to the sample range.
		pos := float64(k) * float64(n+1) / 4
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}

// tailLadder is the percentiles a latency tail is reported at.
var tailLadder = []float64{0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 0.9999}

// highestResolvedPercentile returns the highest ladder percentile that still
// has at least ten samples beyond it among n — the choosing-metrics rule for
// which tail a sample set can support. ok is false when even the median does
// not (n < 20).
func highestResolvedPercentile(n int) (p float64, ok bool) {
	for _, c := range tailLadder {
		// Samples strictly beyond the nearest-rank quantile.
		beyond := n - int(math.Ceil(c*float64(n)))
		if beyond < 10 {
			break
		}
		p, ok = c, true
	}
	return p, ok
}

// spreadShare is the interquartile range as a share of the median: the
// steadiness figure bounds are judged against.
func spreadShare(m Metric) float64 {
	if m.Value == 0 {
		return 0
	}
	return math.Abs(m.Q3-m.Q1) / math.Abs(m.Value)
}
