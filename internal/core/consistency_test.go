package core

import (
	"testing"

	"gemstone/internal/hw"
)

func TestErrorConsistencyAcrossFrequencies(t *testing.T) {
	f := getFixture(t)
	fc, err := ErrorConsistency(f.hwRuns, f.v1Runs, hw.ClusterA15)
	if err != nil {
		t.Fatal(err)
	}
	if len(fc.Pairs) != 1 { // fixture collects 600 and 1000 MHz
		t.Fatalf("pairs = %d", len(fc.Pairs))
	}
	// The paper: "the workload errors have a similar pattern across all
	// frequencies" — the per-workload error vectors correlate strongly.
	if fc.MinCorrelation < 0.8 {
		t.Fatalf("cross-frequency error correlation = %.2f, want strong (paper: similar pattern)",
			fc.MinCorrelation)
	}
	for _, p := range fc.Pairs {
		if p.FreqA >= p.FreqB {
			t.Fatal("pairs must be ordered ascending")
		}
		if p.Spearman < 0.6 {
			t.Fatalf("rank correlation %.2f too weak for %d/%d", p.Spearman, p.FreqA, p.FreqB)
		}
	}
}
