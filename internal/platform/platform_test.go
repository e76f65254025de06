package platform_test

import (
	"math"
	"runtime"
	"testing"

	"gemstone/internal/gem5"
	"gemstone/internal/hw"
	"gemstone/internal/platform"
	"gemstone/internal/workload"
)

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlatformConfigsValid(t *testing.T) {
	for _, p := range []*platform.Platform{hw.Platform(), gem5.Platform(gem5.V1), gem5.Platform(gem5.V2)} {
		if err := p.Config().Validate(); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}

func TestRunProducesMeasurement(t *testing.T) {
	board := hw.Platform()
	m, err := board.Run(mustProfile(t, "dhrystone"), hw.ClusterA15, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Seconds <= 0 {
		t.Fatal("non-positive execution time")
	}
	if m.PowerWatts <= 0 {
		t.Fatal("sensored platform must measure power")
	}
	if math.Abs(m.EnergyJoules-m.PowerWatts*m.Seconds) > 1e-12 {
		t.Fatal("energy must equal power x time")
	}
	if m.Sample.Tally.Committed == 0 {
		t.Fatal("empty sample")
	}
	if m.VoltageV != 1.00 {
		t.Fatalf("voltage = %v, want 1.00 at 1 GHz", m.VoltageV)
	}
}

func TestGem5HasNoPower(t *testing.T) {
	sim := gem5.Platform(gem5.V1)
	m, err := sim.Run(mustProfile(t, "dhrystone"), hw.ClusterA15, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if m.PowerWatts != 0 || m.EnergyJoules != 0 {
		t.Fatal("gem5 platform must not produce sensor power")
	}
}

// TestRunRejectsBadInputs: every run entry point rejects the same bad
// inputs with an error and a zero Measurement, and a context that saw them
// is left intact — its next detailed point is still bit-identical to the
// Platform.Run reference, its next atomic point to a fresh context's.
func TestRunRejectsBadInputs(t *testing.T) {
	board := hw.Platform()
	sc := platform.NewSimContext(board)
	good := mustProfile(t, "dhrystone")
	bad := good
	bad.Threads = 3

	runners := []struct {
		name string
		run  func(workload.Profile, string, int) (platform.Measurement, error)
	}{
		{"Platform.Run", board.Run},
		{"RunFidelity/detailed", func(p workload.Profile, cl string, f int) (platform.Measurement, error) {
			return sc.RunFidelity(p, cl, f, platform.FidelityDetailed, nil)
		}},
		{"RunFidelity/atomic", func(p workload.Profile, cl string, f int) (platform.Measurement, error) {
			return sc.RunFidelity(p, cl, f, platform.FidelityAtomic, nil)
		}},
	}
	inputs := []struct {
		name    string
		prof    workload.Profile
		cluster string
		freq    int
	}{
		{"unknown cluster", good, "m4", 1000},
		{"frequency not in the DVFS table", good, hw.ClusterA15, 333},
		{"invalid profile", bad, hw.ClusterA15, 1000},
	}
	for _, r := range runners {
		for _, in := range inputs {
			m, err := r.run(in.prof, in.cluster, in.freq)
			if err == nil {
				t.Errorf("%s, %s: no error", r.name, in.name)
			}
			if m != (platform.Measurement{}) {
				t.Errorf("%s, %s: non-zero Measurement %+v", r.name, in.name, m)
			}
		}
	}
	if m, err := sc.RunFidelity(good, hw.ClusterA15, 1000, platform.Fidelity(7), nil); err == nil || m != (platform.Measurement{}) {
		t.Errorf("unknown fidelity on a valid point: err = %v, Measurement zero = %v", err, m == (platform.Measurement{}))
	}

	want, err := board.Run(good, hw.ClusterA15, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sc.Run(good, hw.ClusterA15, 1000); err != nil || got != want {
		t.Fatalf("detailed point after rejected inputs: err = %v, identical to Platform.Run = %v", err, got == want)
	}
	wantAtomic, err := platform.NewSimContext(board).RunFidelity(good, hw.ClusterA15, 1000, platform.FidelityAtomic, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sc.RunFidelity(good, hw.ClusterA15, 1000, platform.FidelityAtomic, nil); err != nil || got != wantAtomic {
		t.Fatalf("atomic point after rejected inputs: err = %v, identical to a fresh context = %v", err, got == wantAtomic)
	}
}

func TestRunDeterminism(t *testing.T) {
	board := hw.Platform()
	p := mustProfile(t, "mi-qsort")
	a, err := board.Run(p, hw.ClusterA7, 600)
	if err != nil {
		t.Fatal(err)
	}
	b, err := board.Run(p, hw.ClusterA7, 600)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds != b.Seconds || a.PowerWatts != b.PowerWatts {
		t.Fatalf("non-deterministic measurement: %v/%v vs %v/%v",
			a.Seconds, a.PowerWatts, b.Seconds, b.PowerWatts)
	}
}

// TestSimContextReuseAllocs guards the reuse of a context's stream, event
// log and timing lanes: the first sweeps of a tier grow them to fit, and
// once it has swept both workloads, sweeping either again allocates no new
// storage. That holds for a sweep run point by point (RunFidelity, which
// records the core's event log and replays it) and for one RunSweep over
// every DVFS point (one timing lane per point). Each such sweep may
// allocate up to allocSlack, a run's small bookkeeping and the returned
// Measurements; any stream or event log for these 240k-instruction
// workloads is larger.
func TestSimContextReuseAllocs(t *testing.T) {
	const allocSlack = 64 << 10
	pl := hw.Platform()
	cl, err := pl.Cluster(hw.ClusterA15)
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustProfile(t, "dhrystone"), mustProfile(t, "parsec-canneal-4")
	sc := platform.NewSimContext(pl)
	for _, fid := range []platform.Fidelity{platform.FidelityDetailed, platform.FidelityAtomic} {
		for _, oneRun := range []bool{false, true} {
			for i, prof := range []workload.Profile{a, b, a, b} {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if oneRun {
					if _, err := sc.RunSweep(prof, hw.ClusterA15, cl.Frequencies(), fid, nil); err != nil {
						t.Fatal(err)
					}
				} else {
					for _, f := range cl.Frequencies() {
						if _, err := sc.RunFidelity(prof, hw.ClusterA15, f, fid, nil); err != nil {
							t.Fatal(err)
						}
					}
				}
				runtime.ReadMemStats(&after)
				if n := after.TotalAlloc - before.TotalAlloc; i >= 2 && n > allocSlack {
					t.Errorf("%v sweep of %s on a reused context (one RunSweep: %v) allocated %d bytes", fid, prof.Name, oneRun, n)
				}
			}
		}
	}
}

// TestOnePointPerWorkloadKeepsNoLog guards the memory of a context that
// runs one point per workload, as when a service primes one frequency of
// its catalogue: it keeps no event log. Its runs may allocate the size of
// one expanded stream and the cluster's state, but less than half of one
// log (24 bytes per instruction) besides.
func TestOnePointPerWorkloadKeepsNoLog(t *testing.T) {
	pl := hw.Platform()
	a, b := mustProfile(t, "dhrystone"), mustProfile(t, "parsec-canneal-4")
	sc := platform.NewSimContext(pl)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, prof := range []workload.Profile{a, b, a, b} {
		if _, err := sc.Run(prof, hw.ClusterA15, 1000); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	stream := uint64(a.MaxStreamLen()) * 16
	if n, limit := after.TotalAlloc-before.TotalAlloc, stream+uint64(a.TotalInsts)*24/2; n > limit {
		t.Errorf("four one-point runs of alternating workloads allocated %d bytes, limit %d", n, limit)
	}
}

// TestOnePointPerWorkloadHoldsNoStream guards the same context's stream:
// nothing replays a one-point run that records nothing, so it streams
// from the generator and expands nothing. The four runs allocate the
// cluster's state and the generators' bookkeeping, less than half of one
// packed expansion (16 bytes per instruction).
func TestOnePointPerWorkloadHoldsNoStream(t *testing.T) {
	pl := hw.Platform()
	a, b := mustProfile(t, "dhrystone"), mustProfile(t, "parsec-canneal-4")
	sc := platform.NewSimContext(pl)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, prof := range []workload.Profile{a, b, a, b} {
		if _, err := sc.Run(prof, hw.ClusterA15, 1000); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(a.MaxStreamLen())*16/2; n > limit {
		t.Errorf("four one-point runs of alternating workloads allocated %d bytes, limit %d", n, limit)
	}
}

func TestFrequencyScalingMonotonic(t *testing.T) {
	board := hw.Platform()
	p := mustProfile(t, "dhrystone") // compute-bound: near-linear scaling
	var prev float64 = math.Inf(1)
	for _, f := range hw.ExperimentFrequencies(hw.ClusterA15) {
		m, err := board.Run(p, hw.ClusterA15, f)
		if err != nil {
			t.Fatal(err)
		}
		if m.Seconds >= prev {
			t.Fatalf("execution time must fall with frequency (%d MHz: %v >= %v)", f, m.Seconds, prev)
		}
		prev = m.Seconds
	}
}

func TestMemoryBoundScalesSublinearly(t *testing.T) {
	board := hw.Platform()
	compute := mustProfile(t, "long-int-alu")
	memory := mustProfile(t, "long-chase-dram")
	speedup := func(p workload.Profile) float64 {
		lo, err := board.Run(p, hw.ClusterA15, 600)
		if err != nil {
			t.Fatal(err)
		}
		hi, err := board.Run(p, hw.ClusterA15, 1800)
		if err != nil {
			t.Fatal(err)
		}
		return lo.Seconds / hi.Seconds
	}
	sc, sm := speedup(compute), speedup(memory)
	if sc < 2.5 {
		t.Fatalf("compute-bound speedup 600->1800 = %.2f, want near 3x", sc)
	}
	if sm > sc-0.5 {
		t.Fatalf("memory-bound speedup %.2f should be well below compute-bound %.2f", sm, sc)
	}
}

func TestBigBeatsLittle(t *testing.T) {
	board := hw.Platform()
	p := mustProfile(t, "parsec-blackscholes-1")
	little, err := board.Run(p, hw.ClusterA7, 1000)
	if err != nil {
		t.Fatal(err)
	}
	big, err := board.Run(p, hw.ClusterA15, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if big.Seconds >= little.Seconds {
		t.Fatalf("A15 (%v s) must outperform A7 (%v s) at equal frequency", big.Seconds, little.Seconds)
	}
	if big.PowerWatts <= little.PowerWatts {
		t.Fatalf("A15 (%v W) must consume more than A7 (%v W)", big.PowerWatts, little.PowerWatts)
	}
}

func TestThermalThrottleAt2GHz(t *testing.T) {
	board := hw.Platform()
	p := mustProfile(t, "long-fp-mul") // hot workload
	m, err := board.Run(p, hw.ClusterA15, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Throttled {
		t.Fatalf("2 GHz run should hit the thermal throttle (T=%.1fC, P=%.2fW)", m.TemperatureC, m.PowerWatts)
	}
	m18, err := board.Run(p, hw.ClusterA15, 1800)
	if err != nil {
		t.Fatal(err)
	}
	if m18.Throttled {
		t.Fatalf("1.8 GHz run should stay under the throttle (T=%.1fC)", m18.TemperatureC)
	}
}

func TestPowerRangesPlausible(t *testing.T) {
	board := hw.Platform()
	p := mustProfile(t, "whetstone")
	a7, err := board.Run(p, hw.ClusterA7, 1400)
	if err != nil {
		t.Fatal(err)
	}
	a15, err := board.Run(p, hw.ClusterA15, 1800)
	if err != nil {
		t.Fatal(err)
	}
	if a7.PowerWatts < 0.05 || a7.PowerWatts > 1.5 {
		t.Fatalf("A7 power %.3f W outside plausible ODROID range", a7.PowerWatts)
	}
	if a15.PowerWatts < 0.8 || a15.PowerWatts > 8 {
		t.Fatalf("A15 power %.3f W outside plausible ODROID range", a15.PowerWatts)
	}
}
