package platform_test

import (
	"math"
	"sort"
	"testing"

	"gemstone/internal/gem5"
	"gemstone/internal/hw"
	"gemstone/internal/platform"
	"gemstone/internal/workload"
)

// Atomic-tier validation. The detailed tier is pinned bit-for-bit by the
// golden equivalence tests; the atomic tier instead carries an error
// bound: over the full suite × both clusters × every DVFS point, its
// cycle and energy predictions must stay within atomicErrorBoundPct of
// the detailed simulation. The bound is a worst-case tail bound — typical
// errors are an order of magnitude smaller (the test logs the
// distribution) — and is documented in README.md ("Fidelity tiers");
// tighten or relax both together.
const atomicErrorBoundPct = 125.0

func TestFidelityParse(t *testing.T) {
	cases := []struct {
		in   string
		want platform.Fidelity
		err  bool
	}{
		{"", platform.FidelityDetailed, false},
		{"detailed", platform.FidelityDetailed, false},
		{"atomic", platform.FidelityAtomic, false},
		{"Atomic", 0, true},
		{"fast", 0, true},
	}
	for _, c := range cases {
		got, err := platform.ParseFidelity(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseFidelity(%q) = %v, %v; want %v, err=%v", c.in, got, err, c.want, c.err)
		}
	}
	if s := platform.FidelityAtomic.String(); s != "atomic" {
		t.Errorf("FidelityAtomic.String() = %q", s)
	}
	if s := platform.FidelityDetailed.String(); s != "detailed" {
		t.Errorf("FidelityDetailed.String() = %q", s)
	}
	if platform.Fidelity(99).Valid() {
		t.Error("Fidelity(99).Valid() = true")
	}
}

// TestAtomicErrorBound asserts the documented error bound of the atomic
// tier against the detailed tier for cycles, seconds and (on the sensored
// platform) energy, across the full suite, both clusters and the complete
// DVFS grid. -short trims the workload set, full CI sweeps everything.
func TestAtomicErrorBound(t *testing.T) {
	profs := workload.All()
	if testing.Short() {
		profs = profs[:8]
	}
	for _, pl := range []*platform.Platform{hw.Platform(), gem5.Platform(gem5.V1)} {
		detailed := platform.NewSimContext(pl)
		atomic := platform.NewSimContext(pl)
		var worst float64
		var worstAt string
		var errs []float64
		for _, cluster := range []string{hw.ClusterA7, hw.ClusterA15} {
			cl, err := pl.Cluster(cluster)
			if err != nil {
				t.Fatal(err)
			}
			for _, prof := range profs {
				for _, f := range cl.Frequencies() {
					want, err := detailed.Run(prof, cluster, f)
					if err != nil {
						t.Fatal(err)
					}
					got, err := atomic.RunFidelity(prof, cluster, f, platform.FidelityAtomic, nil)
					if err != nil {
						t.Fatal(err)
					}
					if got.Fidelity != platform.FidelityAtomic {
						t.Fatalf("%s/%s@%d: atomic run not marked atomic", prof.Name, cluster, f)
					}
					check := func(metric string, ref, est float64) {
						if ref == 0 {
							return
						}
						pct := math.Abs(est-ref) / ref * 100
						errs = append(errs, pct)
						if pct > worst {
							worst, worstAt = pct, prof.Name+"/"+cluster+" "+metric
						}
						if pct > atomicErrorBoundPct {
							t.Errorf("%s/%s@%dMHz %s: atomic off by %.1f%% (detailed %.4g, atomic %.4g; bound %.1f%%)",
								prof.Name, cluster, f, metric, pct, ref, est, atomicErrorBoundPct)
						}
					}
					check("cycles", float64(want.Sample.Tally.Cycles), float64(got.Sample.Tally.Cycles))
					check("seconds", want.Seconds, got.Seconds)
					check("energy", want.EnergyJoules, got.EnergyJoules)
				}
			}
		}
		sort.Float64s(errs)
		pct := func(q float64) float64 { return errs[int(q*float64(len(errs)-1))] }
		t.Logf("%s: atomic error p50 %.2f%% p90 %.2f%% p99 %.2f%% worst %.2f%% (%s, bound %.1f%%)",
			pl.Name(), pct(0.50), pct(0.90), pct(0.99), worst, worstAt, atomicErrorBoundPct)
	}
}

// TestAtomicDeterminism pins the atomic tier's reproducibility: a context
// reused across sweeps must predict the Measurements a fresh context
// predicts, bit for bit. (The only transient context, inside
// Platform.Run, runs the detailed tier alone.) The reused context sweeps
// workload A, then B, then A again, so its cached anchors are replaced
// twice: anchors kept for another workload would show here. Each point
// is checked against a context that swept the same workload alone, and
// the points of scratch also against a new context, whose anchors are
// computed from scratch at that point: anchors corrupted while predicting
// the earlier points of a sweep would show there on both cached sides.
func TestAtomicDeterminism(t *testing.T) {
	pl := hw.Platform()
	cl, err := pl.Cluster(hw.ClusterA15)
	if err != nil {
		t.Fatal(err)
	}
	scratch := map[int]bool{600: true, 1000: true, 1400: true, 1800: true}
	reused := platform.NewSimContext(pl)
	for _, name := range []string{"dhrystone", "parsec-canneal-4", "dhrystone"} {
		prof := mustProfile(t, name)
		swept := platform.NewSimContext(pl)
		checked := 0
		for _, f := range cl.Frequencies() {
			got, err := reused.RunFidelity(prof, hw.ClusterA15, f, platform.FidelityAtomic, nil)
			if err != nil {
				t.Fatal(err)
			}
			refs := map[string]*platform.SimContext{"sweep": swept}
			if scratch[f] {
				refs["fresh"] = platform.NewSimContext(pl)
				checked++
			}
			for ref, sc := range refs {
				want, err := sc.RunFidelity(prof, hw.ClusterA15, f, platform.FidelityAtomic, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s@%dMHz: reused context diverged from the %s context\ngot:  %+v\nwant: %+v", name, f, ref, got, want)
				}
			}
		}
		if checked != len(scratch) {
			t.Fatalf("%s: %d of the %d from-scratch points are in the A15 DVFS table", name, checked, len(scratch))
		}
	}
}

// TestDetailedUnmarkedByFidelity guards the detailed tier's archives: a
// RunFidelity(FidelityDetailed) measurement must equal a plain Run
// bit-for-bit, zero Fidelity field included.
func TestDetailedUnmarkedByFidelity(t *testing.T) {
	pl := hw.Platform()
	prof, err := workload.ByName("dhrystone")
	if err != nil {
		t.Fatal(err)
	}
	want, err := pl.Run(prof, hw.ClusterA15, 1000)
	if err != nil {
		t.Fatal(err)
	}
	sc := platform.NewSimContext(pl)
	got, err := sc.RunFidelity(prof, hw.ClusterA15, 1000, platform.FidelityDetailed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("detailed-fidelity run diverged from Run\ngot:  %+v\nwant: %+v", got, want)
	}
	if got.Fidelity != platform.FidelityDetailed {
		t.Fatalf("detailed run marked %v", got.Fidelity)
	}
}
