package stats

import "math"

// This file implements the special functions needed for regression
// inference: the regularised incomplete beta function and the Student-t
// distribution built on it. The continued-fraction evaluation follows
// Lentz's method (cf. Numerical Recipes §6.4), which converges quickly for
// the argument ranges regression produces.

// RegIncBeta returns the regularised incomplete beta function I_x(a, b)
// for a, b > 0 and x in [0, 1].
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	// ln of the prefactor x^a (1-x)^b / (a·B(a,b)).
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + a*math.Log(x) + b*math.Log(1-x))
	// Use the symmetry relation to keep the continued fraction in its
	// rapidly converging region.
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

// betacf evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		fm := float64(m)
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// TTestPValue returns the two-sided p-value for a t statistic with df
// degrees of freedom.
func TTestPValue(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	return RegIncBeta(df/2, 0.5, df/(df+t*t))
}
