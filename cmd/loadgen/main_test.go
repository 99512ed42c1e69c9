package main

import "testing"

// TestQuantileNearestRank pins the rank the report's percentiles are read
// at: ⌈p·n⌉−1 in n ascending samples, so that with few samples a high
// percentile is the slowest request and not the one before it.
func TestQuantileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n                   int
		p50, p90, p99, p999 int // wanted index
	}{
		{1, 0, 0, 0, 0},
		{10, 4, 8, 9, 9},
		{48, 23, 43, 47, 47}, // serve-smoke's steady phase: p99 is the slowest of 48
		{1000, 499, 899, 989, 998},
	} {
		sorted := make([]int, tc.n)
		for i := range sorted {
			sorted[i] = i
		}
		for _, q := range []struct {
			p    float64
			want int
		}{{0.50, tc.p50}, {0.90, tc.p90}, {0.99, tc.p99}, {0.999, tc.p999}, {0, 0}, {1, tc.n - 1}} {
			if got := quantile(sorted, q.p); got != q.want {
				t.Errorf("n=%d p=%g: sample %d, want %d", tc.n, q.p, got, q.want)
			}
		}
	}
	if got := quantileMs([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("quantileMs of an unsorted set = %g, want 2", got)
	}
	if got := quantileMs(nil, 0.99); got != 0 {
		t.Errorf("quantileMs of no samples = %g, want 0", got)
	}
}
