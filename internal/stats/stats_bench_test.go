package stats

import (
	"testing"

	"gemstone/internal/xrand"
)

// Micro-benchmarks of the statistical kernels GemStone leans on; the
// analysis layer runs these hundreds of times per pipeline invocation.

func randMatrix(rows, cols int, seed uint64) [][]float64 {
	rng := xrand.New(seed)
	X := make([][]float64, rows)
	for i := range X {
		X[i] = make([]float64, cols)
		for j := range X[i] {
			X[i][j] = rng.Norm()
		}
	}
	return X
}

func BenchmarkPearson(b *testing.B) {
	rng := xrand.New(1)
	x := make([]float64, 1000)
	y := make([]float64, 1000)
	for i := range x {
		x[i], y[i] = rng.Norm(), rng.Norm()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pearson(x, y)
	}
}

func BenchmarkSpearman(b *testing.B) {
	rng := xrand.New(2)
	x := make([]float64, 1000)
	y := make([]float64, 1000)
	for i := range x {
		x[i], y[i] = rng.Norm(), rng.Norm()
	}
	b.ReportAllocs() // steady state should be allocation-free (pooled rank scratch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Spearman(x, y)
	}
}

func BenchmarkAgglomerate64(b *testing.B) {
	X := randMatrix(64, 10, 3)
	dm := EuclideanDist(Standardize(X))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Agglomerate(dm, AverageLinkage)
	}
}

func BenchmarkOLS(b *testing.B) {
	// Typical error-regression shape: 45 observations, 8 regressors.
	rng := xrand.New(4)
	n, k := 45, 8
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		X[i] = make([]float64, k)
		X[i][0] = 1
		for j := 1; j < k; j++ {
			X[i][j] = rng.Norm()
		}
		y[i] = rng.Norm()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OLS(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStepwise(b *testing.B) {
	// Power-model selection shape: 18 candidates, 260 observations.
	rng := xrand.New(5)
	n, c := 260, 18
	cands := make([][]float64, c)
	for j := range cands {
		cands[j] = make([]float64, n)
		for i := range cands[j] {
			cands[j][i] = rng.Norm()
		}
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = 2*cands[0][i] + cands[3][i] + 0.2*rng.Norm()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Stepwise(cands, y, DefaultStepwiseOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTTestPValue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		TTestPValue(2.2, 43)
	}
}
