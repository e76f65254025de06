package platform_test

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"gemstone/internal/gem5"
	"gemstone/internal/hw"
	"gemstone/internal/obs"
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

// TestKeptLogInvalidation pins when a reused context replays a cluster's
// kept run. The second of two consecutive per-point detailed runs of one
// workload records it and later points of that workload replay it, with
// no "expand" phase in their traces. The kept run is a value: atomic runs,
// a multi-point RunSweep of another workload on the cluster, and runs on
// the other cluster leave it in place; only a per-point detailed run of
// another workload there replaces it. Every detailed Measurement must
// equal a fresh Platform.Run of its point.
func TestKeptLogInvalidation(t *testing.T) {
	pl := hw.Platform()
	w, v := mustProfile(t, "dhrystone"), mustProfile(t, "parsec-canneal-4")
	sc := platform.NewSimContext(pl)
	for i, step := range []struct {
		prof    workload.Profile
		cluster string
		freqs   []int // one point runs through RunFidelity, more through RunSweep
		fid     platform.Fidelity
		replays bool
	}{
		{w, hw.ClusterA15, []int{600}, platform.FidelityDetailed, false},
		{w, hw.ClusterA15, []int{1000}, platform.FidelityDetailed, false},
		{w, hw.ClusterA15, []int{1800}, platform.FidelityDetailed, true},
		{w, hw.ClusterA15, []int{1000}, platform.FidelityAtomic, false},
		{w, hw.ClusterA15, []int{1400}, platform.FidelityDetailed, true},
		{v, hw.ClusterA15, []int{600, 1000, 1800}, platform.FidelityAtomic, false},
		{v, hw.ClusterA15, []int{600, 1400, 1800}, platform.FidelityDetailed, false},
		{w, hw.ClusterA15, []int{1400}, platform.FidelityDetailed, true},
		{v, hw.ClusterA15, []int{1400}, platform.FidelityDetailed, false},
		{w, hw.ClusterA15, []int{1800}, platform.FidelityDetailed, false},
		{w, hw.ClusterA7, []int{600}, platform.FidelityDetailed, false},
		{w, hw.ClusterA15, []int{600}, platform.FidelityDetailed, true},
	} {
		tr := obs.NewTracer()
		root := tr.Start("step")
		var got []platform.Measurement
		var err error
		if len(step.freqs) == 1 {
			var m platform.Measurement
			m, err = sc.RunFidelity(step.prof, step.cluster, step.freqs[0], step.fid, root)
			got = []platform.Measurement{m}
		} else {
			got, err = sc.RunSweep(step.prof, step.cluster, step.freqs, step.fid, root)
		}
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		if step.fid != platform.FidelityDetailed {
			continue
		}
		expanded := slices.ContainsFunc(tr.Events(), func(ev obs.Event) bool { return ev.Name == "expand" })
		if replayed := !expanded; replayed != step.replays {
			t.Fatalf("step %d, %s/%s@%v: replayed %v, want %v", i, step.prof.Name, step.cluster, step.freqs, replayed, step.replays)
		}
		for k, f := range step.freqs {
			want, err := pl.Run(step.prof, step.cluster, f)
			if err != nil {
				t.Fatal(err)
			}
			if got[k] != want {
				t.Fatalf("step %d, %s/%s@%dMHz: reused context differs from a fresh run\ngot:  %+v\nwant: %+v",
					i, step.prof.Name, step.cluster, f, got[k], want)
			}
		}
	}
}

// TestPointByPointStreamReuse pins which one-point detailed runs of a
// reused context expand their workload's stream, walking two workloads'
// Experiment-1 grid one point at a time in the distributed job order
// (workload, cluster, frequency). The first point of a workload streams
// from the generator ("generated"); the second records the cluster's run
// and expands the stream to size its log ("expanded"); the cluster's
// later points replay the log with no "expand" phase. The other cluster
// finds the expansion in the context ("cached"). Keeping logs is sticky,
// so the next workload's first point records and expands at once. Every
// Measurement must equal a fresh Platform.Run of its point.
func TestPointByPointStreamReuse(t *testing.T) {
	pl := hw.Platform()
	w, v := mustProfile(t, "dhrystone"), mustProfile(t, "parsec-canneal-4")
	sc := platform.NewSimContext(pl)
	for _, step := range []struct {
		prof    workload.Profile
		cluster string
		streams []string // the expand span's stream attribute per point; "" for a replay
	}{
		{w, hw.ClusterA7, []string{"generated", "expanded", "", ""}},
		{w, hw.ClusterA15, []string{"cached", "cached", "", ""}},
		{v, hw.ClusterA7, []string{"expanded", "", "", ""}},
		{v, hw.ClusterA15, []string{"cached", "", "", ""}},
	} {
		for k, f := range hw.ExperimentFrequencies(step.cluster) {
			tr := obs.NewTracer()
			root := tr.Start("job")
			got, err := sc.RunFidelity(step.prof, step.cluster, f, platform.FidelityDetailed, root)
			root.End()
			if err != nil {
				t.Fatal(err)
			}
			stream := ""
			for _, ev := range tr.Events() {
				if ev.Name != "expand" {
					continue
				}
				stream = "<missing>"
				for _, a := range ev.Attrs {
					if a.Key == "stream" {
						stream, _ = a.Value.(string)
					}
				}
			}
			if stream != step.streams[k] {
				t.Fatalf("%s/%s@%dMHz: stream %q, want %q", step.prof.Name, step.cluster, f, stream, step.streams[k])
			}
			want, err := pl.Run(step.prof, step.cluster, f)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s@%dMHz: reused context differs from a fresh run\ngot:  %+v\nwant: %+v",
					step.prof.Name, step.cluster, f, got, want)
			}
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
