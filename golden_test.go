// Golden equivalence tests for the batched hot loop: every fast path the
// simulator grew — packed block instruction delivery, per-worker state
// reuse and the replay of a kept phase-A event log at another frequency —
// must be invisible in the results. Each test drives the same runs through
// a fast path and its reference path and requires the full Measurement
// (pmu.Sample included) to be identical, field for field.
package gemstone_test

import (
	"testing"

	"gemstone"
	"gemstone/internal/hw"
	"gemstone/internal/platform"
	"gemstone/internal/workload"
)

// goldenFreqs returns the slowest and fastest DVFS points of a cluster —
// the extremes bound the integer latency tables, and the second replays
// the first's event log at the other end of the DVFS table.
func goldenFreqs(t *testing.T, pl *platform.Platform, cluster string) []int {
	t.Helper()
	cl, err := pl.Cluster(cluster)
	if err != nil {
		t.Fatal(err)
	}
	fs := cl.Frequencies()
	if len(fs) == 0 {
		t.Fatalf("cluster %s has no DVFS points", cluster)
	}
	lo, hi := fs[0], fs[0]
	for _, f := range fs[1:] {
		lo = min(lo, f)
		hi = max(hi, f)
	}
	if lo == hi {
		return []int{lo}
	}
	return []int{lo, hi}
}

// TestGoldenScalarBlockEquivalence runs every suite workload on both
// clusters at the min and max DVFS points through two independent paths
// — a fresh Platform.Run per measurement, with the generator handed
// straight to the core, and a reused SimContext replaying its packed
// expansion a block at a time (which also exercises Reset reuse and, at
// the second frequency, the replay of the first's event log) — and
// requires bit-identical Measurements from both.
func TestGoldenScalarBlockEquivalence(t *testing.T) {
	pl := gemstone.HardwarePlatform()
	profs := workload.All()
	if testing.Short() {
		profs = profs[:6]
	}
	block := platform.NewSimContext(pl)

	for _, cluster := range []string{hw.ClusterA7, hw.ClusterA15} {
		freqs := goldenFreqs(t, pl, cluster)
		for _, prof := range profs {
			for _, f := range freqs {
				want, err := pl.Run(prof, cluster, f)
				if err != nil {
					t.Fatal(err)
				}
				got, err := block.Run(prof, cluster, f)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s/%s@%dMHz: block-stream SimContext diverged from fresh run\ngot:  %+v\nwant: %+v",
						prof.Name, cluster, f, got, want)
				}
			}
		}
	}
}

// TestGoldenDVFSSweepReplayEquivalence sweeps one workload per suite
// family across every DVFS point of each cluster with a reused
// SimContext — so every point after the first replays the first's kept
// phase-A event log on a timing lane of its own — and checks each
// measurement against a fresh run.
func TestGoldenDVFSSweepReplayEquivalence(t *testing.T) {
	pl := gemstone.HardwarePlatform()
	profs := workload.Validation()
	byFamily := map[string]workload.Profile{}
	var sweep []workload.Profile
	for _, p := range profs {
		if _, ok := byFamily[p.Suite]; !ok {
			byFamily[p.Suite] = p
			sweep = append(sweep, p)
		}
	}
	if testing.Short() {
		sweep = sweep[:min(2, len(sweep))]
	}
	sc := platform.NewSimContext(pl)
	for _, cluster := range []string{hw.ClusterA7, hw.ClusterA15} {
		cl, err := pl.Cluster(cluster)
		if err != nil {
			t.Fatal(err)
		}
		for _, prof := range sweep {
			for _, f := range cl.Frequencies() {
				want, err := pl.Run(prof, cluster, f)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sc.Run(prof, cluster, f)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s/%s@%dMHz: swept SimContext diverged from fresh run\ngot:  %+v\nwant: %+v",
						prof.Name, cluster, f, got, want)
				}
			}
		}
	}
}
