package main

import (
	"strings"
	"testing"
)

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// parentRuns is ten runs with a spread of a few percent.
var parentRuns = []float64{100, 101, 99, 102, 98, 100.5, 99.5, 101.5, 98.5, 100}

func TestCompareMetricVerdicts(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"identical", lower, parentRuns, parentRuns, verdictSame},
		{"within bound", lower, parentRuns, scaled(parentRuns, 1.05), verdictSame},
		{"faster everywhere", lower, parentRuns, scaled(parentRuns, 0.8), verdictGain},
		{"higher is better", higher, parentRuns, scaled(parentRuns, 1.2), verdictGain},
		{"slower", lower, parentRuns, scaled(parentRuns, 1.2), verdictWorse},
		{"fewer per second", higher, parentRuns, scaled(parentRuns, 0.8), verdictWorse},
		{"too few pairs to claim", lower, parentRuns[:5], scaled(parentRuns[:5], 0.8), verdictBetter},
		{"noisy parent", lower, wide, scaled(parentRuns, 1.05), verdictUnresolved},
		{"noisy but every run better", lower, wide, scaled(parentRuns, 0.5), verdictGain},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := compareMetric(tc.m, tc.a, tc.b).verdict; got != tc.want {
				t.Errorf("verdict %q, want %q", got, tc.want)
			}
		})
	}
	// A median gap inside the parent's own spread is no gain, however
	// many pairs the change wins.
	b := make([]float64, len(parentRuns))
	for i, a := range parentRuns {
		b[i] = a - 0.5
	}
	if v := compareMetric(lower, parentRuns, b); v.verdict == verdictGain || v.wins != 10 {
		t.Errorf("gap within the parent's IQR: verdict %q after %d wins", v.verdict, v.wins)
	}
}

func runsOf(workload string, seed0 uint64, opsPerS []float64, digest string) []result {
	var out []result
	for i, v := range opsPerS {
		out = append(out, result{Workload: workload, Seed: seed0 + uint64(i), Correct: true, Digest: digest,
			Metrics: map[string]float64{"setup_s": 0.2, "ops_per_s": v}})
	}
	return out
}

func TestCompareSets(t *testing.T) {
	spec := &benchSpec{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd: []metricSpec{
			{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
			{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
		},
	}
	a := &resultSet{Runs: runsOf("w", 1, parentRuns, "d")}
	if _, ok := compareSets(spec, a, &resultSet{Runs: runsOf("w", 1, scaled(parentRuns, 1.02), "d")}, true); !ok {
		t.Error("agree: two sets within every bound should pass")
	}
	if comps, ok := compareSets(spec, a, &resultSet{Runs: runsOf("w", 1, scaled(parentRuns, 1.15), "d")}, true); ok {
		t.Errorf("agree: medians 15%% apart should fail: %+v", comps)
	}
	if _, ok := compareSets(spec, a, &resultSet{Runs: runsOf("w", 1, scaled(parentRuns, 1.15), "d")}, false); !ok {
		t.Error("a faster change is not a regression")
	}
	if _, ok := compareSets(spec, a, &resultSet{Runs: runsOf("w", 1, scaled(parentRuns, 0.85), "d")}, false); ok {
		t.Error("a 15% throughput loss against a 10% bound should fail")
	}
	comps, ok := compareSets(spec, a, &resultSet{Runs: runsOf("w", 1, parentRuns, "other")}, true)
	if ok || len(comps) != 1 || !strings.Contains(strings.Join(comps[0].problems, ";"), "digest") {
		t.Errorf("differing digests for one seed must fail: %+v", comps)
	}
}

func TestCompareSimMetrics(t *testing.T) {
	spec := &benchSpec{Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd: []metricSpec{{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}}}
	traced := func(ipc, nsPerInst float64) result {
		return result{Workload: "w", Seed: 1, Trace: true, Correct: true, Digest: "d",
			Metrics: map[string]float64{"pipeline.ipc": ipc, "pipeline.core_ns_per_inst": nsPerInst}}
	}
	a := &resultSet{Runs: append(runsOf("w", 1, parentRuns, "d"), traced(0.5, 100))}
	if _, ok := compareSets(spec, a, &resultSet{Runs: append(runsOf("w", 1, parentRuns, "d"), traced(0.5, 80))}, false); !ok {
		t.Error("host time may move while simulated metrics stay put")
	}
	if _, ok := compareSets(spec, a, &resultSet{Runs: append(runsOf("w", 1, parentRuns, "d"), traced(0.5000001, 100))}, false); ok {
		t.Error("a changed simulated metric must fail the comparison")
	}
}
