package stats

import (
	"math"
	"testing"
	"testing/quick"

	"gemstone/internal/xrand"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDescriptive(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Mean(xs) != 3 {
		t.Fatal("mean")
	}
	if !almostEq(Variance(xs), 2.5, 1e-12) {
		t.Fatalf("variance = %v", Variance(xs))
	}
	if Min(xs) != 1 || Max(xs) != 5 {
		t.Fatal("min/max")
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate cases")
	}
}

func TestPercentErrorConvention(t *testing.T) {
	// Estimate larger than reference (model overestimates execution time)
	// must give a NEGATIVE PE — the paper's sign convention.
	if pe := PercentError(1.0, 1.5); !almostEq(pe, -50, 1e-12) {
		t.Fatalf("PE = %v, want -50", pe)
	}
	if pe := PercentError(2.0, 1.0); !almostEq(pe, 50, 1e-12) {
		t.Fatalf("PE = %v, want +50", pe)
	}
	ref := []float64{1, 1}
	est := []float64{1.5, 0.5}
	if mpe := MPE(ref, est); !almostEq(mpe, 0, 1e-12) {
		t.Fatalf("MPE = %v, want 0", mpe)
	}
	if mape := MAPE(ref, est); !almostEq(mape, 50, 1e-12) {
		t.Fatalf("MAPE = %v, want 50", mape)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if r := Pearson(x, y); !almostEq(r, 1, 1e-12) {
		t.Fatalf("perfect positive r = %v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(x, neg); !almostEq(r, -1, 1e-12) {
		t.Fatalf("perfect negative r = %v", r)
	}
	if r := Pearson(x, []float64{3, 3, 3, 3, 3}); r != 0 {
		t.Fatalf("zero-variance r = %v", r)
	}
}

// Property: |r| <= 1 and Pearson is symmetric.
func TestPearsonProperties(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 20 + rng.Intn(50)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.Norm()
			y[i] = rng.Norm()
		}
		r := Pearson(x, y)
		return math.Abs(r) <= 1+1e-12 && almostEq(r, Pearson(y, x), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStudentTAgainstKnownValues(t *testing.T) {
	// Two-sided p-values at reference points of standard t tables.
	cases := []struct{ tt, df, want float64 }{
		{0, 10, 1},
		{1.812, 10, 0.10},  // t_{0.95,10}
		{2.228, 10, 0.05},  // t_{0.975,10}
		{-2.228, 10, 0.05}, // symmetry
		{1.96, 1e6, 0.05},  // approaches the normal
	}
	for _, c := range cases {
		if got := TTestPValue(c.tt, c.df); !almostEq(got, c.want, 2e-3) {
			t.Errorf("TTestPValue(%v, %v) = %v, want %v", c.tt, c.df, got, c.want)
		}
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if RegIncBeta(2, 3, 0) != 0 || RegIncBeta(2, 3, 1) != 1 {
		t.Fatal("boundary values")
	}
	// I_x(1,1) is the identity.
	for _, x := range []float64{0.1, 0.42, 0.9} {
		if got := RegIncBeta(1, 1, x); !almostEq(got, x, 1e-12) {
			t.Fatalf("I_%v(1,1) = %v", x, got)
		}
	}
}

func TestOLSRecoversKnownModel(t *testing.T) {
	// y = 3 + 2a - 5b with small noise.
	rng := xrand.New(7)
	n := 200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.Norm(), rng.Norm()
		X[i] = []float64{1, a, b}
		y[i] = 3 + 2*a - 5*b + 0.01*rng.Norm()
	}
	fit, err := OLS(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Coef[0], 3, 0.01) || !almostEq(fit.Coef[1], 2, 0.01) || !almostEq(fit.Coef[2], -5, 0.01) {
		t.Fatalf("coef = %v", fit.Coef)
	}
	if fit.R2 < 0.999 {
		t.Fatalf("R2 = %v", fit.R2)
	}
	if fit.AdjR2 > fit.R2 {
		t.Fatal("adjusted R2 must not exceed R2")
	}
	for i := 1; i < 3; i++ {
		if fit.PValue[i] > 1e-6 {
			t.Fatalf("true predictors must be significant, p[%d] = %v", i, fit.PValue[i])
		}
	}
	if !almostEq(fit.SER, 0.01, 0.005) {
		t.Fatalf("SER = %v, want ~0.01", fit.SER)
	}
}

func TestOLSInsignificantNoisePredictor(t *testing.T) {
	rng := xrand.New(11)
	n := 150
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a := rng.Norm()
		noise := rng.Norm() // unrelated regressor
		X[i] = []float64{1, a, noise}
		y[i] = 1 + a + 0.5*rng.Norm()
	}
	fit, err := OLS(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if fit.PValue[2] < 0.01 {
		t.Fatalf("noise predictor implausibly significant: p = %v", fit.PValue[2])
	}
}

func TestOLSErrors(t *testing.T) {
	if _, err := OLS(nil, nil); err == nil {
		t.Fatal("empty input must error")
	}
	// Under-determined.
	if _, err := OLS([][]float64{{1, 2}, {1, 3}}, []float64{1, 2}); err == nil {
		t.Fatal("n <= k must error")
	}
	// Perfectly collinear columns.
	X := make([][]float64, 10)
	y := make([]float64, 10)
	for i := range X {
		v := float64(i)
		X[i] = []float64{1, v, 2 * v}
		y[i] = v
	}
	if _, err := OLS(X, y); err == nil {
		t.Fatal("collinear design must error")
	}
}

// Property: R² in [0,1] and SER >= 0 for random well-posed problems.
func TestOLSInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n, k := 40+rng.Intn(40), 2+rng.Intn(4)
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
		fit, err := OLS(X, y)
		if err != nil {
			return true // singular draws are acceptable
		}
		return fit.R2 >= -1e-9 && fit.R2 <= 1+1e-9 && fit.SER >= 0 && fit.AdjR2 <= fit.R2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestVIF(t *testing.T) {
	rng := xrand.New(3)
	n := 100
	X := make([][]float64, n)
	for i := 0; i < n; i++ {
		a := rng.Norm()
		b := rng.Norm()
		c := a + 0.05*rng.Norm() // highly collinear with a
		X[i] = []float64{a, b, c}
	}
	v := VIF(X)
	if v[1] > 2 {
		t.Fatalf("independent column VIF = %v, want ~1", v[1])
	}
	if v[0] < 10 || v[2] < 10 {
		t.Fatalf("collinear columns should have large VIF, got %v", v)
	}
	for _, x := range v {
		if x < 1 {
			t.Fatalf("VIF must be >= 1, got %v", v)
		}
	}
}

func TestAgglomerateThreeObviousClusters(t *testing.T) {
	// Three tight groups on a line.
	var X [][]float64
	for _, center := range []float64{0, 10, 20} {
		for k := 0; k < 4; k++ {
			X = append(X, []float64{center + 0.1*float64(k)})
		}
	}
	dend := Agglomerate(EuclideanDist(X), AverageLinkage)
	labels, err := dend.CutK(3)
	if err != nil {
		t.Fatal(err)
	}
	if NumClusters(labels) != 3 {
		t.Fatalf("clusters = %d", NumClusters(labels))
	}
	for g := 0; g < 3; g++ {
		want := labels[g*4]
		for k := 1; k < 4; k++ {
			if labels[g*4+k] != want {
				t.Fatalf("group %d split: labels = %v", g, labels)
			}
		}
	}
}

func TestDendrogramMonotoneMerges(t *testing.T) {
	rng := xrand.New(9)
	X := make([][]float64, 30)
	for i := range X {
		X[i] = []float64{rng.Norm(), rng.Norm(), rng.Norm()}
	}
	for _, link := range []Linkage{AverageLinkage, CompleteLinkage, SingleLinkage} {
		dend := Agglomerate(EuclideanDist(X), link)
		if len(dend.Merges) != len(X)-1 {
			t.Fatalf("merges = %d, want %d", len(dend.Merges), len(X)-1)
		}
		// Single and complete linkage are monotone; average (UPGMA) on a
		// metric space is too.
		for i := 1; i < len(dend.Merges); i++ {
			if dend.Merges[i].Dist < dend.Merges[i-1].Dist-1e-9 {
				t.Fatalf("%v: non-monotone merge heights at %d", link, i)
			}
		}
	}
}

// Property: CutK(k) yields exactly k clusters with canonical labels.
func TestCutKProperties(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 5 + rng.Intn(25)
		X := make([][]float64, n)
		for i := range X {
			X[i] = []float64{rng.Norm(), rng.Norm()}
		}
		dend := Agglomerate(EuclideanDist(X), AverageLinkage)
		k := 1 + rng.Intn(n)
		labels, err := dend.CutK(k)
		if err != nil {
			return false
		}
		if NumClusters(labels) != k {
			return false
		}
		// Canonical: first occurrences are 0,1,2,...
		next := 0
		for _, l := range labels {
			if l > next {
				return false
			}
			if l == next {
				next++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCutHeight(t *testing.T) {
	X := [][]float64{{0}, {0.1}, {10}, {10.1}}
	dend := Agglomerate(EuclideanDist(X), AverageLinkage)
	labels := dend.CutHeight(1)
	if NumClusters(labels) != 2 {
		t.Fatalf("expected 2 clusters at height 1, got %v", labels)
	}
	all := dend.CutHeight(100)
	if NumClusters(all) != 1 {
		t.Fatal("everything should merge at large height")
	}
	none := dend.CutHeight(0.01)
	if NumClusters(none) != 4 {
		t.Fatal("nothing should merge at tiny height")
	}
}

func TestCorrelationDist(t *testing.T) {
	up := []float64{1, 2, 3, 4, 5}
	down := []float64{5, 4, 3, 2, 1}
	flat := []float64{1, -1, 1, -1, 1}
	dm := CorrelationDist([][]float64{up, down, flat})
	if !almostEq(dm.At(0, 1), 0, 1e-12) {
		t.Fatalf("anti-correlated series must be close under 1-|r|, got %v", dm.At(0, 1))
	}
	if dm.At(0, 2) < 0.5 {
		t.Fatalf("uncorrelated series must be far, got %v", dm.At(0, 2))
	}
}

func TestStepwiseSelectsTrueModel(t *testing.T) {
	rng := xrand.New(21)
	n := 120
	// Ten candidates; y depends on #2 (strongly), #5 (weaker), #7 (weak).
	cands := make([][]float64, 10)
	for c := range cands {
		cands[c] = make([]float64, n)
		for i := 0; i < n; i++ {
			cands[c][i] = rng.Norm()
		}
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = 4 + 10*cands[2][i] + 3*cands[5][i] + 1*cands[7][i] + 0.3*rng.Norm()
	}
	res, err := Stepwise(cands, y, DefaultStepwiseOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) < 3 {
		t.Fatalf("selected %v, want at least the 3 true predictors", res.Selected)
	}
	if res.Selected[0] != 2 {
		t.Fatalf("strongest predictor must be selected first, got %v", res.Selected)
	}
	got := map[int]bool{}
	for _, s := range res.Selected {
		got[s] = true
	}
	for _, want := range []int{2, 5, 7} {
		if !got[want] {
			t.Fatalf("true predictor %d missing from %v", want, res.Selected)
		}
	}
	if res.Fit.R2 < 0.98 {
		t.Fatalf("R2 = %v", res.Fit.R2)
	}
	// R2 path is non-decreasing.
	for i := 1; i < len(res.R2Path); i++ {
		if res.R2Path[i] < res.R2Path[i-1] {
			t.Fatal("R2 path must be non-decreasing")
		}
	}
}

func TestStepwiseRespectsMaxTerms(t *testing.T) {
	rng := xrand.New(5)
	n := 80
	cands := make([][]float64, 6)
	y := make([]float64, n)
	for c := range cands {
		cands[c] = make([]float64, n)
		for i := 0; i < n; i++ {
			cands[c][i] = rng.Norm()
		}
	}
	for i := 0; i < n; i++ {
		y[i] = cands[0][i] + cands[1][i] + cands[2][i] + 0.1*rng.Norm()
	}
	opt := DefaultStepwiseOptions()
	opt.MaxTerms = 2
	res, err := Stepwise(cands, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 2 {
		t.Fatalf("selected %d terms, want 2", len(res.Selected))
	}
}

func TestStandardize(t *testing.T) {
	X := [][]float64{{1, 100}, {2, 200}, {3, 300}}
	S := Standardize(X)
	for j := 0; j < 2; j++ {
		col := []float64{S[0][j], S[1][j], S[2][j]}
		if !almostEq(Mean(col), 0, 1e-12) {
			t.Fatalf("col %d mean = %v", j, Mean(col))
		}
		if !almostEq(StdDev(col), 1, 1e-12) {
			t.Fatalf("col %d sd = %v", j, StdDev(col))
		}
	}
	// Zero-variance column.
	Z := Standardize([][]float64{{5}, {5}, {5}})
	if Z[0][0] != 0 || Z[1][0] != 0 {
		t.Fatal("constant column must standardise to zeros")
	}
}

func TestMedianMAD(t *testing.T) {
	if Median(nil) != 0 || MAD(nil) != 0 {
		t.Fatal("empty Median/MAD must be 0")
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd Median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even Median = %v", got)
	}
	// Median must not mutate its input.
	xs := []float64{9, 1, 5}
	Median(xs)
	if xs[0] != 9 || xs[1] != 1 || xs[2] != 5 {
		t.Fatalf("Median mutated input: %v", xs)
	}
	// MAD of {1,2,3,4,100}: median 3, |dev| {2,1,0,1,97} -> MAD 1; the
	// outlier does not inflate it the way StdDev is inflated.
	if got := MAD([]float64{1, 2, 3, 4, 100}); got != 1 {
		t.Fatalf("MAD = %v, want 1", got)
	}
}

func TestRobustZ(t *testing.T) {
	z := RobustZ([]float64{1, 2, 3, 4, 100})
	// The outlier's robust z is (100-3)/(1.4826*1) ~= 65.4.
	if !almostEq(z[4], 97/1.4826, 1e-9) {
		t.Fatalf("outlier z = %v", z[4])
	}
	if z[2] != 0 {
		t.Fatalf("median element z = %v, want 0", z[2])
	}
	// Degenerate spread: identical values score 0, deviants +Inf.
	z = RobustZ([]float64{5, 5, 5, 9})
	if z[0] != 0 || !math.IsInf(z[3], 1) {
		t.Fatalf("degenerate z = %v", z)
	}
	if len(RobustZ(nil)) != 0 {
		t.Fatal("RobustZ(nil) must be empty")
	}
}
