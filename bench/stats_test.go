package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(200)
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 100}, {0.95, 190}, {0.99, 198}, {1, 200}, {0.001, 1}} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(1..200, %g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := median(seq(10)); got != 5.5 {
		t.Errorf("median(1..10) = %g, want 5.5", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// TestTailQuantile checks the highest reportable percentile leaves at
// least ten samples beyond it.
func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{9, 0}, {40, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		q := tailQuantile(tc.n)
		if q != tc.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", tc.n, q, tc.want)
		}
		if q > 0 && float64(tc.n)*(1-q) < 10-1e-9 {
			t.Errorf("tailQuantile(%d) = %g leaves fewer than ten samples beyond", tc.n, q)
		}
	}
}

// TestQuartilesMatchPython pins the quartiles to Python's
// statistics.quantiles(xs, n=4), the method spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25}, // quantiles(range(1, 11)) == [2.75, 5.5, 8.25]
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 11, 12, 13, 50}, 10.5, 31.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread(seq(10)); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
}
