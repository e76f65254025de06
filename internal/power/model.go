// Package power implements the empirical PMC-based power modelling of the
// paper's Section V: the Powmon methodology (constrained stepwise PMC
// selection + OLS formulation), model validation statistics, the software
// tool that applies one model to either hardware PMC data or gem5
// statistics (Fig. 2), and the export of run-time power equations.
//
// Model form. Each regressor is a PMC event *rate* scaled by V² (dynamic
// energy moves charge at the supply voltage); the intercept captures
// static and constant dynamic power:
//
//	P = β₀ + Σ_e β_e · V² · rate_e · 1e-9
//
// The cycle counter (0x11) acts as the frequency term — its rate is the
// effective clock — so a single model covers every DVFS point and "the
// voltage for a selected frequency can be changed without re-running the
// gem5 simulation", as the paper's tool allows.
package power

import (
	"fmt"
	"strings"

	"gemstone/internal/pmu"
)

// Observation is one power-characterisation data point: the event rates of
// a workload at one DVFS point together with the measured average power.
type Observation struct {
	Workload string
	Cluster  string
	FreqMHz  int
	VoltageV float64
	// Rates holds events per second for every captured PMC event.
	Rates map[pmu.Event]float64
	// PowerW is the sensor-measured average power.
	PowerW float64
}

// regressor returns the model regressor value for event e.
func regressor(o *Observation, e pmu.Event) float64 {
	return o.VoltageV * o.VoltageV * o.Rates[e] * 1e-9
}

// Quality summarises a model's validation statistics against its training
// (or a held-out) observation set — the numbers Table/Section V reports.
type Quality struct {
	MAPE    float64 // mean absolute percentage error (%)
	MPE     float64 // mean signed percentage error (%)
	MaxAPE  float64 // worst single-observation error (%)
	SER     float64 // standard error of regression (W)
	R2      float64
	AdjR2   float64
	MeanVIF float64
	MaxP    float64 // largest coefficient p-value
	N       int
}

// Model is a fitted empirical power model.
type Model struct {
	// Cluster names the CPU cluster the model was trained for.
	Cluster string
	// Events lists the selected PMC events, in selection order (most
	// explanatory first).
	Events []pmu.Event
	// Coef holds one coefficient per event (same order).
	Coef []float64
	// Intercept is β₀: static plus constant dynamic power.
	Intercept float64
	// Quality holds the training-set validation statistics.
	Quality Quality
	// PValues holds the coefficient p-values (same order as Events).
	PValues []float64
	// VIFs holds per-event variance inflation factors.
	VIFs []float64
}

// Estimate returns the power estimate for one observation's rates.
func (m *Model) Estimate(o *Observation) float64 {
	p := m.Intercept
	for i, e := range m.Events {
		p += m.Coef[i] * regressor(o, e)
	}
	return p
}

// Component is one additive term of a power estimate — the per-component
// breakdown Fig. 7's stacked bars show.
type Component struct {
	Name  string
	Watts float64
}

// Components decomposes the estimate for one observation.
func (m *Model) Components(o *Observation) []Component {
	out := []Component{{Name: "intercept", Watts: m.Intercept}}
	for i, e := range m.Events {
		out = append(out, Component{Name: e.String(), Watts: m.Coef[i] * regressor(o, e)})
	}
	return out
}

// Validate computes quality statistics of the model against obs.
func Validate(m *Model, obs []Observation) Quality {
	var q Quality
	if len(obs) == 0 {
		return q
	}
	var sumPE, sumAPE, maxAPE, ssRes float64
	for i := range obs {
		o := &obs[i]
		est := m.Estimate(o)
		pe := 0.0
		if o.PowerW != 0 {
			pe = 100 * (o.PowerW - est) / o.PowerW
		}
		ape := pe
		if ape < 0 {
			ape = -ape
		}
		sumPE += pe
		sumAPE += ape
		if ape > maxAPE {
			maxAPE = ape
		}
		d := o.PowerW - est
		ssRes += d * d
	}
	n := float64(len(obs))
	q.N = len(obs)
	q.MPE = sumPE / n
	q.MAPE = sumAPE / n
	q.MaxAPE = maxAPE
	df := n - float64(len(m.Events)+1)
	if df > 0 {
		q.SER = sqrt(ssRes / df)
	}
	return q
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton iterations are plenty for reporting purposes, but use the
	// stdlib for exactness.
	return mathSqrt(x)
}

// Equation renders the model as a run-time power equation over gem5
// statistic names — the format the paper's tool outputs so the equation
// can be inserted directly into gem5's power-model configuration.
func (m *Model) Equation(mapping Mapping) string {
	var b strings.Builder
	fmt.Fprintf(&b, "power = %.6g", m.Intercept)
	for i, e := range m.Events {
		expr, ok := mapping.Expr(e)
		if !ok {
			expr = fmt.Sprintf("<unavailable:%s>", e)
		}
		fmt.Fprintf(&b, " + %.6g * voltage^2 * (%s)/sim_seconds * 1e-9", m.Coef[i], expr)
	}
	return b.String()
}

// String gives a compact human-readable summary.
func (m *Model) String() string {
	parts := make([]string, 0, len(m.Events)+1)
	parts = append(parts, fmt.Sprintf("%.4g", m.Intercept))
	for i, e := range m.Events {
		parts = append(parts, fmt.Sprintf("%.4g*V2r[%s]", m.Coef[i], e))
	}
	return fmt.Sprintf("P(%s) = %s", m.Cluster, strings.Join(parts, " + "))
}
