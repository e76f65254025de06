package platform_test

import (
	"slices"
	"testing"

	"gemstone/internal/hw"
	"gemstone/internal/obs"
	"gemstone/internal/platform"
)

// TestRunTracedPhases asserts a context's first detailed run records
// every simulator phase under its parent span, nested on one lane, with
// the tally attributes the trace viewer surfaces.
func TestRunTracedPhases(t *testing.T) {
	tr := obs.NewTracer()
	root := tr.Start("run")
	_, err := platform.NewSimContext(hw.Platform()).RunFidelity(mustProfile(t, "dhrystone"), hw.ClusterA15, 1000, platform.FidelityDetailed, root)
	root.End()
	if err != nil {
		t.Fatal(err)
	}

	events := tr.Events()
	var names []string
	for _, ev := range events {
		names = append(names, ev.Name)
		if ev.Lane != events[0].Lane {
			t.Fatalf("phase %q on lane %d, want every phase on the run's lane %d",
				ev.Name, ev.Lane, events[0].Lane)
		}
	}
	want := []string{"run", "expand", "pipeline", "collate", "power"}
	if len(names) != len(want) {
		t.Fatalf("spans = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("span %d = %q, want %q (all: %v)", i, names[i], want[i], names)
		}
	}

	// The collate phase carries the point's tally attributes.
	var collateAttrs map[string]any
	for _, ev := range events {
		if ev.Name == "collate" {
			collateAttrs = map[string]any{}
			for _, a := range ev.Attrs {
				collateAttrs[a.Key] = a.Value
			}
		}
	}
	if c, ok := collateAttrs["cycles"].(int64); !ok || c <= 0 {
		t.Fatalf("collate cycles attr = %v", collateAttrs["cycles"])
	}

	// The run span must dominate its phases.
	run := events[0]
	for _, ev := range events[1:] {
		if ev.Start < run.Start || ev.Start+ev.Dur > run.Start+run.Dur+run.Dur/10 {
			t.Fatalf("phase %q [%v, %v] escapes run span [%v, %v]",
				ev.Name, ev.Start, ev.Start+ev.Dur, run.Start, run.Start+run.Dur)
		}
	}
}

// TestAtomicTracedPhases pins the atomic tier's trace: the first point
// of a sweep records the anchor run ("anchor" with one two-lane
// "anchor_pass" carrying both DVFS extremes) before "predict" and
// "power"; a second frequency of the same sweep reuses the cached anchors
// and records only "predict" and "power".
func TestAtomicTracedPhases(t *testing.T) {
	board := hw.Platform()
	cl, err := board.Cluster(hw.ClusterA15)
	if err != nil {
		t.Fatal(err)
	}
	sc := platform.NewSimContext(board)
	prof := mustProfile(t, "dhrystone")
	for _, tc := range []struct {
		freq int
		want []string
	}{
		{1000, []string{"run", "anchor", "anchor_pass", "predict", "power"}},
		{1400, []string{"run", "predict", "power"}},
	} {
		tr := obs.NewTracer()
		root := tr.Start("run")
		m, err := sc.RunFidelity(prof, hw.ClusterA15, tc.freq, platform.FidelityAtomic, root)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		if m.Fidelity != platform.FidelityAtomic {
			t.Fatalf("%d MHz: fidelity %s, want atomic", tc.freq, m.Fidelity)
		}

		events := tr.Events()
		var names []string
		byName := map[string]obs.Event{}
		for _, ev := range events {
			names = append(names, ev.Name)
			byName[ev.Name] = ev
		}
		if !slices.Equal(names, tc.want) {
			t.Fatalf("%d MHz: spans = %v, want %v", tc.freq, names, tc.want)
		}
		within := func(inner, outer obs.Event) bool {
			return inner.Start >= outer.Start && inner.Start+inner.Dur <= outer.Start+outer.Dur
		}
		for _, ev := range events[1:] {
			if !within(ev, events[0]) {
				t.Fatalf("%d MHz: span %q escapes the run span", tc.freq, ev.Name)
			}
			if ev.Name == "anchor_pass" && !within(ev, byName["anchor"]) {
				t.Fatalf("%d MHz: anchor_pass not nested in anchor", tc.freq)
			}
		}
		if a, ok := byName["anchor"]; ok && byName["predict"].Start < a.Start+a.Dur {
			t.Fatalf("%d MHz: predict starts before the anchor runs end", tc.freq)
		}
		if pass, ok := byName["anchor_pass"]; ok {
			freqs := map[string]any{}
			for _, a := range pass.Attrs {
				freqs[a.Key] = a.Value
			}
			lo, hi := int64(cl.DVFS[0].FreqMHz), int64(cl.DVFS[len(cl.DVFS)-1].FreqMHz)
			if freqs["lo_mhz"] != lo || freqs["hi_mhz"] != hi {
				t.Fatalf("%d MHz: anchor_pass frequencies %v, want lo %d and hi %d", tc.freq, freqs, lo, hi)
			}
		}
		attrs := map[string]any{}
		for _, a := range byName["power"].Attrs {
			attrs[a.Key] = a.Value
		}
		for _, k := range []string{"power_w", "throttled"} {
			if _, ok := attrs[k]; !ok {
				t.Fatalf("%d MHz: power span lacks %q (attrs %v)", tc.freq, k, attrs)
			}
		}
	}
}

// TestRunUntracedIdentical asserts tracing does not perturb the
// simulation: a traced run equals the untraced Platform.Run of its point
// (tracing only observes; determinism is the engine's core contract).
func TestRunUntracedIdentical(t *testing.T) {
	prof := mustProfile(t, "dhrystone")
	board := hw.Platform()
	m1, err := board.Run(prof, hw.ClusterA15, 1000)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	root := tr.Start("run")
	m2, err := platform.NewSimContext(board).RunFidelity(prof, hw.ClusterA15, 1000, platform.FidelityDetailed, root)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events()) < 2 {
		t.Fatalf("traced run recorded %d spans", len(tr.Events()))
	}
	if m1 != m2 {
		t.Fatal("traced run diverged from untraced run")
	}
}
