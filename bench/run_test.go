package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"gemstone/internal/core"
	"gemstone/internal/hw"
	"gemstone/internal/workload"
)

// tinyProfiles returns three real profiles cut to a few thousand
// instructions, for campaigns that must finish in moments under -race.
// Three, because the probes' error correlation needs three workloads.
func tinyProfiles(t *testing.T) []workload.Profile {
	t.Helper()
	var out []workload.Profile
	for _, name := range []string{"long-nop", "long-int-alu", "long-branch-rand"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p.Name, p.TotalInsts = "tiny-"+name, 6000
		out = append(out, p)
	}
	return out
}

// tinyOptions is a tiny campaign: three workloads, one cluster, two
// frequencies.
func tinyOptions(profiles []workload.Profile, workers int) core.CollectOptions {
	return core.CollectOptions{Workloads: profiles, Clusters: []string{hw.ClusterA15},
		Freqs: map[string][]int{hw.ClusterA15: {600, 1400}}, Workers: workers}
}

// tinyInstance is a workload the tests register: a tiny campaign checked
// against the golden file like the real ones.
type tinyInstance struct {
	e   *env
	opt core.CollectOptions
	rs  *core.RunSet
}

func (ti *tinyInstance) run(ctx context.Context, d time.Duration) (*window, error) {
	var rec runRecorder
	opt := ti.opt
	opt.Observer = &rec
	var err error
	if ti.rs, err = core.Collect(ctx, hw.Platform(), opt); err != nil {
		return nil, err
	}
	w := &window{}
	rec.fill(w)
	w.digest = runSetDigest(ti.rs)
	return w, nil
}

func (ti *tinyInstance) check(*window) []check {
	return []check{checkSlices("golden-slices", []*core.RunSet{ti.rs}, ti.e.golden.PaperCold)}
}

func (ti *tinyInstance) jobProfiles() []workload.Profile { return ti.opt.Workloads }
func (ti *tinyInstance) close()                          {}

// withTinyWorkload registers the tiny workload for one test and writes a
// spec declaring it next to the repository's metrics, and a golden file
// pinning its slices. It returns the two paths.
func withTinyWorkload(t *testing.T) (specPath, goldenPath string) {
	t.Helper()
	profiles := tinyProfiles(t)
	workloads["tiny"] = workloadDef{setup: func(e *env) (instance, error) {
		return &tinyInstance{e: e, opt: tinyOptions(profiles, 2)}, nil
	}}
	t.Cleanup(func() { delete(workloads, "tiny") })

	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec.Workloads = []workloadSpec{{Name: "tiny", Why: "test"}}
	dir := t.TempDir()
	specPath = filepath.Join(dir, "BENCHMARK.json")
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := core.Collect(context.Background(), hw.Platform(), tinyOptions(profiles, 1))
	if err != nil {
		t.Fatal(err)
	}
	goldenPath = filepath.Join(dir, "golden.json")
	if err := (&golden{PaperCold: sliceDigests(rs)}).save(goldenPath); err != nil {
		t.Fatal(err)
	}
	return specPath, goldenPath
}

// lastLine decodes the result line a run ends with.
func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last output line is not the result object: %v\n%s", err, out)
	}
	return line
}

func TestMetricNames(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !re.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok || !re.MatchString(w.Name) {
			t.Errorf("declared workload %q has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
}

func TestMatchDeclared(t *testing.T) {
	declared := []metricSpec{{Name: "a"}, {Name: "b"}}
	if d := matchDeclared(declared, map[string]float64{"a": 1, "b": 2}); len(d) != 0 {
		t.Errorf("exact match reported %v", d)
	}
	d := matchDeclared(declared, map[string]float64{"a": 1, "c": 3})
	if strings.Join(d, ",") != "missing b,undeclared c" {
		t.Errorf("differences %v", d)
	}
}

// TestRunEmitsDeclaredEndToEnd runs the command on the tiny workload: it
// prints every declared end-to-end metric, refuses to run when the spec
// and the emitted metrics differ in either direction, and exits non-zero
// when an output digest does not match the golden file.
func TestRunEmitsDeclaredEndToEnd(t *testing.T) {
	specPath, goldenPath := withTinyWorkload(t)
	args := []string{"--workload", "tiny", "--seed", "3", "--seconds", "1", "--spec", specPath, "--golden", goldenPath}
	var out, errb bytes.Buffer
	if code := runMain(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errb.String())
	}
	line := lastLine(t, out.String())
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted != 6 || line.Failed != 0 || len(line.Metrics) != len(spec.EndToEnd) {
		t.Fatalf("result %+v", line)
	}
	for _, m := range spec.EndToEnd {
		got, ok := line.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || !(got.Value > 0) {
			t.Errorf("metric %s: %+v", m.Name, got)
		}
		if !strings.Contains(out.String(), "metric     "+m.Name) {
			t.Errorf("metric %s not printed by name", m.Name)
		}
	}

	// A spec declaring a metric the command does not emit, or missing
	// one it does, is refused.
	for _, edit := range []func(*benchSpec){
		func(s *benchSpec) {
			s.EndToEnd = append(s.EndToEnd, metricSpec{Name: "extra", Unit: "s", Better: "lower"})
		},
		func(s *benchSpec) { s.EndToEnd = s.EndToEnd[1:] },
	} {
		s, _ := loadSpec(specPath)
		edit(s)
		bad := filepath.Join(t.TempDir(), "BENCHMARK.json")
		data, _ := json.Marshal(s)
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		out.Reset()
		if code := runMain([]string{"--workload", "tiny", "--seconds", "1", "--spec", bad, "--golden", goldenPath}, &out, &errb); code != 2 {
			t.Errorf("mismatched spec: exit %d, want 2", code)
		}
	}

	// A perturbed golden digest fails the output check.
	g, err := loadGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for k := range g.PaperCold {
		g.PaperCold[k] = "0000000000000000"
		break
	}
	if err := g.save(goldenPath); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := runMain(args, &out, &errb); code != 1 {
		t.Fatalf("perturbed golden: exit %d, want 1\n%s", code, out.String())
	}
	if line := lastLine(t, out.String()); line.Correct {
		t.Error("perturbed golden: result reported correct")
	}
}

// TestRunEmitsDeclaredPerLayer runs the traced pass, which samples its
// probes from the workload's jobs, and checks it reports exactly the
// declared per-layer metrics and writes a loadable Chrome trace.
func TestRunEmitsDeclaredPerLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full probe pass")
	}
	specPath, goldenPath := withTinyWorkload(t)
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var out, errb bytes.Buffer
	code := runMain([]string{"--workload", "tiny", "--seconds", "1", "--trace", "1", "--trace-out", tracePath,
		"--spec", specPath, "--golden", goldenPath}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errb.String())
	}
	spec, _ := loadSpec(specPath)
	line := lastLine(t, out.String())
	if len(line.Metrics) != len(spec.PerLayer) {
		t.Errorf("%d per-layer metrics, %d declared", len(line.Metrics), len(spec.PerLayer))
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"probe", spanExpand, spanCore, spanMem, spanBranch, spanRecord, spanReplay, spanAtomic, "simulate"} {
		if !names[want] {
			t.Errorf("trace has no %q span", want)
		}
	}
}

// TestInputsDeterministic checks every seeded input: the same seed gives
// the same inputs, another seed other inputs.
func TestInputsDeterministic(t *testing.T) {
	inputs := func(seed uint64) string {
		e := &env{seed: seed}
		var b strings.Builder
		for _, p := range permute(workload.Validation(), e.rng("paper_cold/order")) {
			b.WriteString(p.Name + ",")
		}
		for _, p := range permute(workload.Validation(), e.rng("atomic_screen/order")) {
			b.WriteString(p.Name + ",")
		}
		for _, p := range permute(workload.All(), e.rng("probe/sample"))[:probeProfiles] {
			b.WriteString(p.Name + ",")
		}
		return b.String()
	}
	if inputs(7) != inputs(7) {
		t.Error("one seed produced two different inputs")
	}
	if inputs(7) == inputs(8) {
		t.Error("two seeds produced the same inputs")
	}
}

func fmtJSON(v any) string {
	data, _ := json.Marshal(v)
	return string(data)
}

// TestDigestInvariance checks the canonical digest depends on the
// results only: not on the workload order a seed picks, nor on the
// worker count; and that it does see a changed result.
func TestDigestInvariance(t *testing.T) {
	profiles := tinyProfiles(t)
	reversed := []workload.Profile{profiles[2], profiles[1], profiles[0]}
	var digests []string
	var slices []map[string]string
	var last *core.RunSet
	for _, run := range []struct {
		order   []workload.Profile
		workers int
	}{{profiles, 1}, {reversed, 1}, {profiles, 2}, {reversed, 2}} {
		rs, err := core.Collect(context.Background(), hw.Platform(), tinyOptions(run.order, run.workers))
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, runSetDigest(rs))
		slices = append(slices, sliceDigests(rs))
		last = rs
	}
	for i := 1; i < len(digests); i++ {
		if digests[i] != digests[0] || fmtJSON(slices[i]) != fmtJSON(slices[0]) {
			t.Errorf("run %d digest %s, run 0 %s", i, digests[i], digests[0])
		}
	}
	if len(slices[0]) != 2 {
		t.Errorf("%d DVFS slices, want 2", len(slices[0]))
	}
	k := sortedKeys(last.Runs)[0]
	m := last.Runs[k]
	m.Seconds *= 1 + 1e-15
	last.Runs[k] = m
	if runSetDigest(last) == digests[0] {
		t.Error("a one-ulp change in a result left the digest unchanged")
	}
	m.Sample.Tally.Cycles++
	last.Runs[k] = m
	if runSetDigest(last) == digests[0] {
		t.Error("a changed cycle count left the digest unchanged")
	}
}
