package platform_test

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"gemstone/internal/gem5"
	"gemstone/internal/hw"
	"gemstone/internal/platform"
	"gemstone/internal/workload"
)

// TestRunSweepMatchesPoints pins the sweep lanes bit for bit: for every
// suite workload (parallel ones included, whose contention model draws
// random numbers in phase A) on every cluster of the hardware and both
// gem5 models, each Measurement of a one-pass sweep over the Experiment-1
// grid equals a fresh Platform.Run of its point. The sweep runs with the
// frequencies in descending order. -short trims the workloads, and
// so does the race detector, which slows the simulator about tenfold and
// has nothing to find in this single-goroutine test: it takes every third
// workload.
func TestRunSweepMatchesPoints(t *testing.T) {
	profs := workload.All()
	if testing.Short() {
		profs = slices.Concat(profs[:3], profs[len(profs)-3:])
	} else if raceEnabled {
		var every3 []workload.Profile
		for i := 0; i < len(profs); i += 3 {
			every3 = append(every3, profs[i])
		}
		profs = every3
	}
	for _, pl := range []*platform.Platform{hw.Platform(), gem5.Platform(gem5.V1), gem5.Platform(gem5.V2)} {
		sc := platform.NewSimContext(pl)
		for _, prof := range profs {
			for _, cl := range pl.Config().Clusters {
				freqs := hw.ExperimentFrequencies(cl.Name)
				want := map[int]platform.Measurement{}
				for _, f := range freqs {
					m, err := pl.Run(prof, cl.Name, f)
					if err != nil {
						t.Fatal(err)
					}
					want[f] = m
				}
				descending := slices.Clone(freqs)
				slices.Reverse(descending)
				got, err := sc.RunSweep(prof, cl.Name, descending, platform.FidelityDetailed, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(descending) {
					t.Fatalf("%s: %s/%s sweep returned %d measurements for %d points", pl.Name(), prof.Name, cl.Name, len(got), len(descending))
				}
				for i, f := range descending {
					if !reflect.DeepEqual(got[i], want[f]) {
						t.Fatalf("%s: sweep of %s/%s@%dMHz differs from a fresh run\ngot:  %+v\nwant: %+v",
							pl.Name(), prof.Name, cl.Name, f, got[i], want[f])
					}
				}
			}
		}
	}
}

// TestKeptLogInvalidation pins when a reused context may replay a
// cluster's kept event log. The second of two consecutive per-point
// detailed runs of one workload records its log and later points replay
// it, but an atomic run of that workload on the cluster (its anchor pass
// resets the hierarchy and runs the core) and a detailed run of another
// workload there drop it, and a run on the other cluster leaves it alone.
// Every detailed Measurement must equal a fresh Platform.Run of its
// point.
func TestKeptLogInvalidation(t *testing.T) {
	pl := hw.Platform()
	w, v := mustProfile(t, "dhrystone"), mustProfile(t, "parsec-canneal-4")
	sc := platform.NewSimContext(pl)
	for i, step := range []struct {
		prof    workload.Profile
		cluster string
		freq    int
		fid     platform.Fidelity
	}{
		{w, hw.ClusterA15, 600, platform.FidelityDetailed},
		{w, hw.ClusterA15, 1000, platform.FidelityDetailed},
		{w, hw.ClusterA15, 1800, platform.FidelityDetailed},
		{w, hw.ClusterA15, 1000, platform.FidelityAtomic},
		{w, hw.ClusterA15, 1400, platform.FidelityDetailed},
		{v, hw.ClusterA15, 1400, platform.FidelityDetailed},
		{w, hw.ClusterA15, 1800, platform.FidelityDetailed},
		{w, hw.ClusterA7, 600, platform.FidelityDetailed},
		{w, hw.ClusterA15, 600, platform.FidelityDetailed},
	} {
		got, err := sc.RunFidelity(step.prof, step.cluster, step.freq, step.fid, nil)
		if err != nil {
			t.Fatal(err)
		}
		if step.fid != platform.FidelityDetailed {
			continue
		}
		want, err := pl.Run(step.prof, step.cluster, step.freq)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("step %d, %s/%s@%dMHz: reused context differs from a fresh run\ngot:  %+v\nwant: %+v",
				i, step.prof.Name, step.cluster, step.freq, got, want)
		}
	}
}

// TestRunSweepStopsAtUnresolvedPoint pins a sweep's failure semantics: the
// points before one that does not resolve run (and equal their one-point
// runs), and that point's error comes back with them; a sweep whose first
// point fails returns nothing.
func TestRunSweepStopsAtUnresolvedPoint(t *testing.T) {
	board := hw.Platform()
	prof := mustProfile(t, "dhrystone")
	sc := platform.NewSimContext(board)
	for _, fid := range []platform.Fidelity{platform.FidelityDetailed, platform.FidelityAtomic} {
		got, err := sc.RunSweep(prof, hw.ClusterA15, []int{600, 1000, 1234, 1400}, fid, nil)
		if err == nil || len(got) != 2 {
			t.Fatalf("%v: sweep through an unknown frequency returned %d measurements, err %v; want 2 and an error", fid, len(got), err)
		}
		for i, f := range []int{600, 1000} {
			want, err := platform.NewSimContext(board).RunFidelity(prof, hw.ClusterA15, f, fid, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Fatalf("%v: point %d MHz before the failure differs from its one-point run", fid, f)
			}
		}
		if got, err := sc.RunSweep(prof, hw.ClusterA15, []int{1234, 600}, fid, nil); err == nil || len(got) != 0 {
			t.Fatalf("%v: sweep starting at an unknown frequency returned %d measurements, err %v", fid, len(got), err)
		}
	}
}

// The pinned digests of both tiers' Measurements for every eighth suite
// workload (three of them parallel) × both clusters × the Experiment-1
// grid, on the hardware and gem5 v1 platforms.
var pinnedDigests = map[platform.Fidelity]string{
	platform.FidelityDetailed: "8300d6fe36ff6bad",
	platform.FidelityAtomic:   "3bed5b48587940af",
}

// TestMeasurementsPinned pins both tiers' numbers bit for bit. The
// equivalence tests compare paths that share one timing kernel, so a
// change to the kernel's rules passes them; these digests do not. A
// deliberate model change, or a field added to Measurement, re-pins them:
// the failure prints the new digest.
func TestMeasurementsPinned(t *testing.T) {
	all := workload.All()
	for fid, want := range pinnedDigests {
		h := sha256.New()
		for _, pl := range []*platform.Platform{hw.Platform(), gem5.Platform(gem5.V1)} {
			sc := platform.NewSimContext(pl)
			for i := 0; i < len(all); i += 8 {
				for _, cl := range pl.Config().Clusters {
					ms, err := sc.RunSweep(all[i], cl.Name, hw.ExperimentFrequencies(cl.Name), fid, nil)
					if err != nil {
						t.Fatal(err)
					}
					for _, m := range ms {
						fmt.Fprintf(h, "%+v\n", m)
					}
				}
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != want {
			t.Errorf("%v Measurements digest %s, pinned %s", fid, got, want)
		}
	}
}
