package core

import (
	"context"
	"math"
	"testing"
	"time"

	"gemstone/internal/gem5"
	"gemstone/internal/hw"
	"gemstone/internal/platform"
	"gemstone/internal/workload"
)

// screenCampaign is the screen-test grid: four workloads at one
// frequency, so a TopK of 2 splits the points into flagged and
// unflagged halves.
func screenCampaign() CollectOptions {
	return CollectOptions{
		Workloads: workload.Validation()[:4],
		Clusters:  []string{hw.ClusterA15},
		Freqs:     map[string][]int{hw.ClusterA15: {1000}},
	}
}

// atomicSpeedupFloor is the least detailed/atomic wall-time ratio the
// atomic tier must keep on a cold campaign: below it, screening stops
// paying for its error.
const atomicSpeedupFloor = 5

// TestAtomicSpeedupFloor times the cold validation campaign (all 45
// validation workloads across the A15's Experiment-1 DVFS points, the
// BenchmarkCollect_ColdCache grid) at both tiers in this process and
// asserts the atomic tier is at least atomicSpeedupFloor times faster.
// The ratio depends only on the host, so no committed baseline is
// needed. Runs interleave and the best of three per tier counts, to ride
// out scheduler noise. Skipped under -race: the detector's
// instrumentation slows the two tiers by different factors.
func TestAtomicSpeedupFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock ratio is meaningless under -race")
	}
	pl := hw.Platform()
	run := func(fid platform.Fidelity) time.Duration {
		opt := CollectOptions{
			Clusters: []string{hw.ClusterA15},
			Cache:    NewMemoryCache(0),
			Fidelity: fid,
		}
		start := time.Now()
		if _, err := Collect(context.Background(), pl, opt); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	bestDetailed, bestAtomic := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		bestDetailed = min(bestDetailed, run(platform.FidelityDetailed))
		bestAtomic = min(bestAtomic, run(platform.FidelityAtomic))
	}
	ratio := float64(bestDetailed) / float64(bestAtomic)
	t.Logf("cold campaign: detailed best %v, atomic best %v, speedup %.2fx (floor %dx)",
		bestDetailed, bestAtomic, ratio, atomicSpeedupFloor)
	if ratio < atomicSpeedupFloor {
		t.Fatalf("atomic tier speedup %.2fx is under the %dx floor", ratio, atomicSpeedupFloor)
	}
}

// TestScreenMixedFidelity pins the screen-then-resimulate contract: the
// flagged points (and only those) are re-simulated at the detailed tier,
// everything else keeps its atomic prediction, and the per-run
// provenance in Measurement.Fidelity records exactly that split.
func TestScreenMixedFidelity(t *testing.T) {
	res, err := Screen(context.Background(), hw.Platform(), gem5.Platform(gem5.V1), ScreenOptions{
		Options:  screenCampaign(),
		TopK:     2,
		OutlierZ: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flagged) != 2 {
		t.Fatalf("flagged %d points, want 2", len(res.Flagged))
	}
	if len(res.ScreenedPE) != 4 {
		t.Fatalf("screened %d points, want 4", len(res.ScreenedPE))
	}
	// Flagged is ordered by descending screened |percent error|, and the
	// flagged points are the two largest.
	if a, b := math.Abs(res.ScreenedPE[res.Flagged[0]]), math.Abs(res.ScreenedPE[res.Flagged[1]]); a < b {
		t.Fatalf("flagged order not descending: %.2f before %.2f", a, b)
	}
	worstUnflagged := 0.0
	flagged := map[RunKey]bool{}
	for _, k := range res.Flagged {
		flagged[k] = true
	}
	for k, pe := range res.ScreenedPE {
		if !flagged[k] {
			worstUnflagged = math.Max(worstUnflagged, math.Abs(pe))
		}
	}
	if math.Abs(res.ScreenedPE[res.Flagged[1]]) < worstUnflagged {
		t.Fatalf("unflagged point has larger |PE| (%.2f) than flagged tail (%.2f)",
			worstUnflagged, math.Abs(res.ScreenedPE[res.Flagged[1]]))
	}

	for _, rs := range []*RunSet{res.HW, res.Sim} {
		if len(rs.Runs) != 4 {
			t.Fatalf("%s has %d runs, want 4", rs.Platform, len(rs.Runs))
		}
		for k, m := range rs.Runs {
			want := platform.FidelityAtomic
			if flagged[k] {
				want = platform.FidelityDetailed
			}
			if m.Fidelity != want {
				t.Fatalf("%s run %v has fidelity %s, want %s", rs.Platform, k, m.Fidelity, want)
			}
		}
	}

	// The re-simulated points are bit-identical to a plain detailed run
	// of the same operating point.
	det, err := Collect(context.Background(), gem5.Platform(gem5.V1), CollectOptions{
		Workloads: []workload.Profile{mustProfile(t, res.Flagged[0].Workload)},
		Clusters:  []string{res.Flagged[0].Cluster},
		Freqs:     map[string][]int{res.Flagged[0].Cluster: {res.Flagged[0].FreqMHz}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Sim.Runs[res.Flagged[0]], det.Runs[res.Flagged[0]]; got != want {
		t.Fatalf("re-simulated flagged point differs from a plain detailed run")
	}
}

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCacheKeyFidelitySeparation pins satellite 4 at the cache layer:
// the same operating point keys differently per tier, and a shared
// cache never serves one tier's entry to the other.
func TestCacheKeyFidelitySeparation(t *testing.T) {
	pl := hw.Platform()
	prof := workload.Validation()[0]
	det, err := CacheKeyFidelity(pl, prof, hw.ClusterA15, 1000, platform.FidelityDetailed)
	if err != nil {
		t.Fatal(err)
	}
	atom, err := CacheKeyFidelity(pl, prof, hw.ClusterA15, 1000, platform.FidelityAtomic)
	if err != nil {
		t.Fatal(err)
	}
	if det == atom {
		t.Fatalf("tiers share a cache key: %s", det)
	}
	legacy, err := CacheKey(pl, prof, hw.ClusterA15, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if legacy != det {
		t.Fatalf("legacy CacheKey %s is not the detailed-tier key %s", legacy, det)
	}
	if _, err := CacheKeyFidelity(pl, prof, hw.ClusterA15, 1000, platform.Fidelity(99)); err == nil {
		t.Fatal("CacheKeyFidelity accepted an invalid tier")
	}

	// End to end: a detailed campaign warms a shared cache; the identical
	// atomic campaign must simulate everything fresh (zero hits), and
	// vice versa on re-run.
	cache := NewMemoryCache(0)
	run := func(fid platform.Fidelity) CollectStats {
		var stats CollectStats
		opt := screenCampaign()
		opt.Fidelity = fid
		opt.Cache = cache
		opt.Observer = observeDone(&stats)
		if _, err := Collect(context.Background(), pl, opt); err != nil {
			t.Fatal(err)
		}
		return stats
	}
	if st := run(platform.FidelityDetailed); st.CacheHits != 0 {
		t.Fatalf("cold detailed campaign hit the cache %d times", st.CacheHits)
	}
	if st := run(platform.FidelityAtomic); st.CacheHits != 0 {
		t.Fatalf("atomic campaign replayed %d detailed cache entries", st.CacheHits)
	}
	if st := run(platform.FidelityAtomic); st.CacheHits != st.Jobs {
		t.Fatalf("warm atomic campaign hit %d of %d jobs", st.CacheHits, st.Jobs)
	}
	if st := run(platform.FidelityDetailed); st.CacheHits != st.Jobs {
		t.Fatalf("warm detailed campaign hit %d of %d jobs", st.CacheHits, st.Jobs)
	}
}

// observeDone captures the final CollectStats of a campaign.
func observeDone(into *CollectStats) CollectObserver {
	return doneObserver{into}
}

type doneObserver struct{ into *CollectStats }

func (doneObserver) CollectStart(string, int)                            {}
func (doneObserver) RunStart(RunKey)                                     {}
func (doneObserver) CacheHit(RunKey)                                     {}
func (doneObserver) RunDone(RunKey, platform.Measurement, time.Duration) {}
func (doneObserver) RunError(RunKey, error)                              {}
func (d doneObserver) CollectDone(s CollectStats)                        { *d.into = s }
