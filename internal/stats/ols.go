package stats

import (
	"fmt"
	"math"
)

// Fit is the result of an ordinary-least-squares regression.
type Fit struct {
	// Coef holds the fitted coefficients, one per regressor column (in
	// the order the design matrix supplied them, intercept included if the
	// caller added a ones column).
	Coef []float64
	// StdErr holds the coefficient standard errors.
	StdErr []float64
	// TStat holds the coefficient t statistics.
	TStat []float64
	// PValue holds two-sided coefficient p-values.
	PValue []float64
	// R2 is the coefficient of determination.
	R2 float64
	// AdjR2 compensates R2 for the number of predictors.
	AdjR2 float64
	// SER is the standard error of regression (residual std. error) in
	// the units of the response.
	SER float64
	// N and K are the observation and regressor counts.
	N, K int
	// Residuals holds y - ŷ.
	Residuals []float64
}

// OLS fits y = X·β by ordinary least squares. X rows are observations;
// callers include an explicit intercept column of ones if they want one.
// It returns an error if the system is singular or under-determined.
func OLS(X [][]float64, y []float64) (*Fit, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("stats: OLS needs matching, non-empty X and y (n=%d, len(y)=%d)", n, len(y))
	}
	k := len(X[0])
	if k == 0 {
		return nil, fmt.Errorf("stats: OLS with zero regressors")
	}
	if n <= k {
		return nil, fmt.Errorf("stats: OLS under-determined: %d observations for %d regressors", n, k)
	}
	for i := range X {
		if len(X[i]) != k {
			return nil, fmt.Errorf("stats: ragged design matrix at row %d", i)
		}
	}

	// Normal equations: (XᵀX) β = Xᵀy, solved with Gauss-Jordan and
	// partial pivoting; the inverse of XᵀX provides coefficient variances.
	xtx := make([][]float64, k)
	for i := range xtx {
		xtx[i] = make([]float64, k)
	}
	xty := make([]float64, k)
	for r := 0; r < n; r++ {
		row := X[r]
		for i := 0; i < k; i++ {
			xty[i] += row[i] * y[r]
			for j := i; j < k; j++ {
				xtx[i][j] += row[i] * row[j]
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
	}

	inv, err := invertSPD(xtx)
	if err != nil {
		return nil, err
	}
	coef := make([]float64, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			coef[i] += inv[i][j] * xty[j]
		}
	}

	// Residuals and goodness of fit.
	resid := make([]float64, n)
	meanY := Mean(y)
	var ssRes, ssTot float64
	for r := 0; r < n; r++ {
		pred := 0.0
		for i := 0; i < k; i++ {
			pred += coef[i] * X[r][i]
		}
		resid[r] = y[r] - pred
		ssRes += resid[r] * resid[r]
		d := y[r] - meanY
		ssTot += d * d
	}
	r2 := 0.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	} else if ssRes == 0 {
		r2 = 1
	}
	df := float64(n - k)
	adj := 1 - (1-r2)*float64(n-1)/df
	sigma2 := ssRes / df

	fit := &Fit{
		Coef: coef, N: n, K: k,
		R2: r2, AdjR2: adj,
		SER:       math.Sqrt(sigma2),
		Residuals: resid,
		StdErr:    make([]float64, k),
		TStat:     make([]float64, k),
		PValue:    make([]float64, k),
	}
	for i := 0; i < k; i++ {
		se := math.Sqrt(sigma2 * inv[i][i])
		fit.StdErr[i] = se
		if se > 0 {
			fit.TStat[i] = coef[i] / se
			fit.PValue[i] = TTestPValue(fit.TStat[i], df)
		} else {
			fit.TStat[i] = math.Inf(1)
			fit.PValue[i] = 0
		}
	}
	return fit, nil
}

// invertSPD inverts a symmetric positive-definite matrix with Gauss-Jordan
// elimination and partial pivoting.
func invertSPD(a [][]float64) ([][]float64, error) {
	k := len(a)
	// Augment with identity.
	m := make([][]float64, k)
	for i := range m {
		m[i] = make([]float64, 2*k)
		copy(m[i], a[i])
		m[i][k+i] = 1
	}
	for col := 0; col < k; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < k; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		if math.Abs(m[p][col]) < 1e-12 {
			return nil, fmt.Errorf("stats: singular design matrix (collinear regressors at column %d)", col)
		}
		m[col], m[p] = m[p], m[col]
		pv := m[col][col]
		for j := 0; j < 2*k; j++ {
			m[col][j] /= pv
		}
		for r := 0; r < k; r++ {
			if r == col {
				continue
			}
			f := m[r][col]
			if f == 0 {
				continue
			}
			for j := 0; j < 2*k; j++ {
				m[r][j] -= f * m[col][j]
			}
		}
	}
	inv := make([][]float64, k)
	for i := range inv {
		inv[i] = m[i][k:]
	}
	return inv, nil
}

// VIF returns the variance inflation factor of each column of X (an
// intercept column is added internally for each auxiliary regression).
// Columns that are perfectly collinear get +Inf.
func VIF(X [][]float64) []float64 {
	if len(X) == 0 {
		return nil
	}
	k := len(X[0])
	out := make([]float64, k)
	for j := 0; j < k; j++ {
		// Regress column j on the others (plus intercept).
		y := make([]float64, len(X))
		D := make([][]float64, len(X))
		for r := range X {
			y[r] = X[r][j]
			row := make([]float64, 0, k)
			row = append(row, 1)
			for c := 0; c < k; c++ {
				if c != j {
					row = append(row, X[r][c])
				}
			}
			D[r] = row
		}
		fit, err := OLS(D, y)
		if err != nil || fit.R2 >= 1 {
			out[j] = math.Inf(1)
			continue
		}
		out[j] = 1 / (1 - fit.R2)
	}
	return out
}
