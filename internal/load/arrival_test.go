package load

import (
	"math"
	"testing"

	"gemstone/internal/xrand"
)

// Golden tests: the arrival processes are part of the reproducibility
// contract — a given seed must generate the identical load shape on
// every machine and every run, so a serve latency regression can be
// replayed exactly. These sequences were generated once and pinned.

func TestPoissonGolden(t *testing.T) {
	p := NewPoisson(xrand.New(1), 100)
	want := []int64{8360055, 13695621, 35405544, 5876332, 5874631, 14392496}
	for i, w := range want {
		if got := p.Next().Nanoseconds(); got != w {
			t.Fatalf("gap[%d] = %d ns, want %d", i, got, w)
		}
	}
}

func TestZipfGolden(t *testing.T) {
	z := NewZipf(xrand.New(2), 10, 1.0)
	want := []int{2, 4, 2, 4, 0, 1, 4, 4, 0, 4, 0, 1}
	for i, w := range want {
		if got := z.Next(); got != w {
			t.Fatalf("zipf[%d] = %d, want %d", i, got, w)
		}
	}
	uni := NewZipf(xrand.New(3), 5, 0)
	wantU := []int{0, 3, 3, 0, 1, 3, 0, 4, 2, 4, 3, 3}
	for i, w := range wantU {
		if got := uni.Next(); got != w {
			t.Fatalf("uniform zipf[%d] = %d, want %d", i, got, w)
		}
	}
}

// Statistical sanity: the generators must actually have the
// distributions they claim, not merely be deterministic.

func TestPoissonInterArrivalMean(t *testing.T) {
	const rate = 250.0
	const n = 200000
	p := NewPoisson(xrand.New(42), rate)
	var sum float64
	for i := 0; i < n; i++ {
		sum += p.Next().Seconds()
	}
	mean := sum / n
	want := 1 / rate
	// Standard error of the mean for Exp(λ) is (1/λ)/√n ≈ 0.22% here;
	// a 2% band is ~9 sigma — loose enough to never flake, tight
	// enough to catch a wrong distribution.
	if math.Abs(mean-want)/want > 0.02 {
		t.Fatalf("mean inter-arrival %.6fs, want %.6fs ±2%%", mean, want)
	}
}

func TestZipfRankFrequencySlope(t *testing.T) {
	const s = 1.2
	const n = 50
	const draws = 400000
	z := NewZipf(xrand.New(9), n, s)
	freq := make([]float64, n)
	for i := 0; i < draws; i++ {
		freq[z.Next()]++
	}
	// OLS fit of log(freq) on log(rank+1) over the well-populated head:
	// the slope of a Zipf(s) rank-frequency plot is -s.
	var sx, sy, sxx, sxy float64
	k := 0
	for r := 0; r < 20; r++ {
		if freq[r] < 10 {
			break
		}
		x, y := math.Log(float64(r+1)), math.Log(freq[r])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		k++
	}
	if k < 10 {
		t.Fatalf("only %d populated head ranks", k)
	}
	slope := (float64(k)*sxy - sx*sy) / (float64(k)*sxx - sx*sx)
	if math.Abs(slope-(-s)) > 0.1 {
		t.Fatalf("rank-frequency slope %.3f, want %.3f ±0.1", slope, -s)
	}
}

func TestZipfUniformWhenSkewZero(t *testing.T) {
	const n = 8
	const draws = 160000
	z := NewZipf(xrand.New(5), n, 0)
	freq := make([]float64, n)
	for i := 0; i < draws; i++ {
		freq[z.Next()]++
	}
	want := float64(draws) / n
	for r, f := range freq {
		if math.Abs(f-want)/want > 0.05 {
			t.Fatalf("rank %d frequency %.0f, want %.0f ±5%%", r, f, want)
		}
	}
}

func TestZipfCoversAllRanks(t *testing.T) {
	z := NewZipf(xrand.New(6), 4, 2.5)
	if z.N() != 4 {
		t.Fatalf("N = %d", z.N())
	}
	seen := map[int]bool{}
	for i := 0; i < 20000; i++ {
		r := z.Next()
		if r < 0 || r >= 4 {
			t.Fatalf("rank %d out of range", r)
		}
		seen[r] = true
	}
	// Even heavily skewed, every rank has positive mass.
	if len(seen) != 4 {
		t.Fatalf("only %d of 4 ranks sampled", len(seen))
	}
}
