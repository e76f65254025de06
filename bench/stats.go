package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q <= 1) of xs by the nearest-rank
// rule: the smallest sample with at least q·n samples at or below it. The
// result is always a measured value, never an interpolation. xs need not
// be sorted; an empty slice yields NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

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

// tailLadder lists the tail quantiles a latency summary may report.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// tailQuantile returns the highest quantile of tailLadder that leaves at
// least ten samples beyond it in a sample of n, or 0 when even the
// lowest rung does not.
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0
}

// quartiles returns the first and third quartiles of xs with the same
// "exclusive" method as Python's statistics.quantiles(xs, n=4), so spreads
// computed here match ones computed with the Python standard library.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}
