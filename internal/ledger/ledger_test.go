package ledger

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gemstone/internal/core"
	"gemstone/internal/obs"
	"gemstone/internal/platform"
	"gemstone/internal/pmu"
	"gemstone/internal/workload"
)

// sampleEntry builds a small but fully populated entry.
func sampleEntry(model string, mpe float64) Entry {
	return Entry{
		Manifest: RunManifest{
			Schema:           SchemaVersion,
			CreatedUnix:      1700000000,
			Build:            obs.BuildInfo{GoVersion: "go1.22.0", Path: "gemstone"},
			HWPlatform:       "odroid-xu3",
			ModelPlatform:    model,
			HWFingerprint:    "aaaa",
			ModelFingerprint: "bbbb-" + model,
			Gem5Version:      1,
			Cluster:          "a15",
			FreqMHz:          1600,
			Workloads:        []string{"mi-qsort", "par-bitcount"},
			WorkloadSetHash:  "cafe",
			Seed:             42,
			DVFSGrid:         map[string][]int{"a15": {800, 1600}},
			Campaigns: []CampaignStats{
				{Platform: model, Jobs: 4, Simulated: 3, CacheHits: 1, WallSec: 1.5},
			},
			PhaseSeconds: map[string]float64{"collect": 1.4},
		},
		Results: Results{
			Cluster: "a15",
			FreqMHz: 1600,
			MAPE:    12.5,
			MPE:     mpe,
			ByFreq:  map[int]Headline{1600: {MAPE: 12.5, MPE: mpe}},
			Workloads: []WorkloadResult{
				{Workload: "mi-qsort", HCACluster: 0, PE: mpe - 1},
				{Workload: "par-bitcount", HCACluster: 1, PE: mpe + 1},
			},
			Power: &PowerResult{
				Cluster: "a15", Intercept: 0.5, R2: 0.97, AdjR2: 0.96,
				SER: 0.1, MAPE: 4, MPE: -0.5, N: 60,
				Terms: []PowerTerm{{Event: "CPU_CYCLES", Coef: 1e-9}},
			},
			Latency:             []LatencyDigest{{WorkingSetBytes: 1024, HWNs: 1.5, SimNs: 1.6}},
			ValidatorChecks:     100,
			ValidatorViolations: 0,
		},
	}
}

func TestManifestRoundTrip(t *testing.T) {
	e := sampleEntry("gem5-ex5-v1", -51.7)
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var back Entry
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	data2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("round trip changed the record:\n%s\n%s", data, data2)
	}
	if back.Manifest.Schema != SchemaVersion {
		t.Fatalf("schema = %d, want %d", back.Manifest.Schema, SchemaVersion)
	}
	if back.Results.Power == nil || back.Results.Power.R2 != 0.97 {
		t.Fatal("power summary lost in round trip")
	}
}

func TestStoreAppendScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "ledger.jsonl")
	st := Open(path)

	// Missing file is an empty ledger, not an error.
	res, err := st.Scan()
	if err != nil || len(res.Entries) != 0 || res.Skipped != 0 {
		t.Fatalf("fresh scan: %+v, %v", res, err)
	}
	if _, ok, err := st.Latest(); ok || err != nil {
		t.Fatalf("Latest on empty ledger: ok=%v err=%v", ok, err)
	}

	if err := st.Append(sampleEntry("gem5-ex5-v1", -51.7)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(sampleEntry("gem5-ex5-v2", 10.2)); err != nil {
		t.Fatal(err)
	}

	res, err = st.Scan()
	if err != nil || len(res.Entries) != 2 {
		t.Fatalf("scan: %d entries, err %v", len(res.Entries), err)
	}
	first, ok, err := st.Baseline()
	if err != nil || !ok || first.Manifest.ModelPlatform != "gem5-ex5-v1" {
		t.Fatalf("Baseline: %+v %v %v", first.Manifest.ModelPlatform, ok, err)
	}
	last, ok, err := st.Latest()
	if err != nil || !ok || last.Manifest.ModelPlatform != "gem5-ex5-v2" {
		t.Fatalf("Latest: %+v %v %v", last.Manifest.ModelPlatform, ok, err)
	}
}

func TestStoreAppendStampsSchema(t *testing.T) {
	st := Open(filepath.Join(t.TempDir(), "ledger.jsonl"))
	e := sampleEntry("gem5-ex5-v1", -51.7)
	e.Manifest.Schema = 0
	if err := st.Append(e); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Latest()
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	if got.Manifest.Schema != SchemaVersion {
		t.Fatalf("schema not stamped: %d", got.Manifest.Schema)
	}
}

func TestStoreToleratesCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	st := Open(path)
	if err := st.Append(sampleEntry("gem5-ex5-v1", -51.7)); err != nil {
		t.Fatal(err)
	}

	// Simulate an interrupted writer: append half of a record.
	full, err := json.Marshal(sampleEntry("gem5-ex5-v2", 10.2))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	res, err := st.Scan()
	if err != nil {
		t.Fatalf("truncated final record must not fail the scan: %v", err)
	}
	if len(res.Entries) != 1 || res.Skipped != 1 {
		t.Fatalf("entries=%d skipped=%d, want 1/1", len(res.Entries), res.Skipped)
	}
	latest, ok, err := st.Latest()
	if err != nil || !ok || latest.Manifest.ModelPlatform != "gem5-ex5-v1" {
		t.Fatalf("Latest after truncation: %v %v %v", latest.Manifest.ModelPlatform, ok, err)
	}

	// And appends recover: a new full record lands after the junk line...
	if err := st.Append(sampleEntry("gem5-ex5-v2", 10.2)); err != nil {
		t.Fatal(err)
	}
	res, err = st.Scan()
	if err != nil {
		t.Fatal(err)
	}
	// ...but the half record has glued to the next line's JSON, so the
	// combined line stays skipped. The count of valid entries is what
	// corruption tolerance guarantees — never losing *earlier* records.
	if len(res.Entries) < 1 {
		t.Fatalf("lost valid records after corruption: %d", len(res.Entries))
	}
}

func TestStoreSkipsForeignSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	st := Open(path)
	future := sampleEntry("gem5-ex5-v9", 0)
	future.Manifest.Schema = SchemaVersion + 1
	data, _ := json.Marshal(future)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := st.Scan()
	if err != nil || len(res.Entries) != 0 || res.Skipped != 1 {
		t.Fatalf("future schema must be skipped: %+v %v", res, err)
	}
}

func TestWorkloadSetDigest(t *testing.T) {
	a := workload.Profile{Name: "a", Suite: "mibench", TotalInsts: 1000}
	b := workload.Profile{Name: "b", Suite: "parsec", TotalInsts: 2000}
	names1, hash1, seed1 := WorkloadSetDigest([]workload.Profile{a, b})
	names2, hash2, seed2 := WorkloadSetDigest([]workload.Profile{b, a})
	if hash1 != hash2 || seed1 != seed2 {
		t.Fatal("digest must be order independent")
	}
	if len(names1) != 2 || names1[0] != "a" || names1[1] != "b" || len(names2) != 2 {
		t.Fatalf("names: %v / %v", names1, names2)
	}
	a.TotalInsts++
	_, hash3, _ := WorkloadSetDigest([]workload.Profile{a, b})
	if hash3 == hash1 {
		t.Fatal("profile edit must change the digest")
	}
}

// goodMeasurement fabricates a self-consistent measurement.
func goodMeasurement(platformName string) platform.Measurement {
	var s pmu.Sample
	s.FreqGHz = 1.6
	s.Tally.Cycles = 3_200_000
	s.Tally.Committed = 2_000_000
	s.L1I.ReadAccesses = 2_000_000
	s.L1I.ReadMisses = 1_000
	s.L1D.ReadAccesses = 500_000
	s.L1D.WriteAccesses = 250_000
	s.L1D.ReadMisses = 20_000
	s.L1D.WriteMisses = 8_000
	s.L2.ReadAccesses = 29_000
	s.L2.ReadMisses = 4_000
	s.ITLB.Accesses = 2_000_000
	s.ITLB.Misses = 50
	s.DTLB.Accesses = 750_000
	s.DTLB.Misses = 400
	s.L2TLBI.Accesses = 50
	s.L2TLBI.Misses = 5
	s.L2TLBD.Accesses = 400
	s.L2TLBD.Misses = 40
	s.Hier.ITLBWalks = 5
	s.Hier.DTLBWalks = 40
	sec := s.Seconds()
	return platform.Measurement{
		Platform: platformName, Cluster: "a15", Workload: "mi-qsort",
		FreqMHz: 1600, VoltageV: 1.1,
		Sample: s, Seconds: sec,
		PowerWatts: 2.5, EnergyJoules: 2.5 * sec,
	}
}

func TestValidatorPasses(t *testing.T) {
	reg := obs.NewRegistry()
	v := NewValidator(reg)
	v.CheckMeasurement(goodMeasurement("gem5-ex5-v1"))
	if v.Count() != 0 {
		t.Fatalf("clean measurement flagged: %v", v.Violations())
	}
	if v.Checks() == 0 {
		t.Fatal("no checks recorded")
	}
	snap := reg.Snapshot()
	if snap["gemstone_validator_checks_total"] == 0 {
		t.Fatalf("checks metric not exported: %v", snap)
	}
}

func TestValidatorCatchesInjectedCorruption(t *testing.T) {
	reg := obs.NewRegistry()
	v := NewValidator(reg)

	// Corrupt the L1D read-miss counter past the access count — the kind
	// of defect a broken refill path would produce.
	m := goodMeasurement("gem5-ex5-v1")
	m.Sample.L1D.ReadMisses = m.Sample.L1D.ReadAccesses + 1
	v.CheckMeasurement(m)

	diags := v.Violations()
	if len(diags) != 1 {
		t.Fatalf("want exactly one violation, got %v", diags)
	}
	d := diags[0]
	if d.Invariant != "cache-misses" {
		t.Fatalf("invariant = %q", d.Invariant)
	}
	if !strings.Contains(d.Run, "mi-qsort") || !strings.Contains(d.Detail, "L1D") {
		t.Fatalf("diagnostic lacks evidence: %+v", d)
	}

	snap := reg.Snapshot()
	if snap[`gemstone_validator_violations_total{invariant="cache-misses"}`] != 1 {
		t.Fatalf("violation metric missing: %v", snap)
	}
}

func TestValidatorEnergyAndTime(t *testing.T) {
	v := NewValidator(nil)
	// AddPlatform needs a constructed Platform; drive the map directly.
	v.sensored["hw"] = true

	m := goodMeasurement("hw")
	m.EnergyJoules *= 1.02 // 2% off power×time
	v.CheckMeasurement(m)
	if got := invariants(v); !got["energy-power-time"] {
		t.Fatalf("energy mismatch not caught: %v", v.Violations())
	}

	v2 := NewValidator(nil)
	m2 := goodMeasurement("gem5-ex5-v1")
	m2.Seconds *= 1.5 // inconsistent with cycles/frequency
	v2.CheckMeasurement(m2)
	if got := invariants(v2); !got["time-cycles"] {
		t.Fatalf("time inconsistency not caught: %v", v2.Violations())
	}
}

func TestValidatorIssueWidthAndTLB(t *testing.T) {
	v := NewValidator(nil)
	v.issueWidth["gem5-ex5-v1"] = map[string]int{"a15": 2}

	m := goodMeasurement("gem5-ex5-v1")
	m.Sample.Tally.Committed = m.Sample.Tally.Cycles*2 + 1
	v.CheckMeasurement(m)
	if got := invariants(v); !got["cycles-issue-width"] {
		t.Fatalf("issue-width overflow not caught: %v", v.Violations())
	}

	v2 := NewValidator(nil)
	m2 := goodMeasurement("gem5-ex5-v1")
	m2.Sample.Hier.DTLBWalks = m2.Sample.L2TLBD.Misses + 7
	v2.CheckMeasurement(m2)
	if got := invariants(v2); !got["tlb-walks"] {
		t.Fatalf("phantom page walks not caught: %v", v2.Violations())
	}
}

func TestValidatorDVFSMonotone(t *testing.T) {
	mk := func(freq int, sec float64) platform.Measurement {
		m := goodMeasurement("gem5-ex5-v1")
		m.FreqMHz = freq
		m.Seconds = sec
		return m
	}
	rs := &core.RunSet{Platform: "gem5-ex5-v1", Runs: map[core.RunKey]platform.Measurement{
		{Workload: "mi-qsort", Cluster: "a15", FreqMHz: 800}:  mk(800, 4.0),
		{Workload: "mi-qsort", Cluster: "a15", FreqMHz: 1600}: mk(1600, 2.1),
	}}
	v := NewValidator(nil)
	v.CheckRunSet(rs)
	if v.Count() != 0 {
		t.Fatalf("monotone series flagged: %v", v.Violations())
	}

	rs.Runs[core.RunKey{Workload: "mi-qsort", Cluster: "a15", FreqMHz: 1600}] = mk(1600, 4.5)
	v2 := NewValidator(nil)
	v2.CheckRunSet(rs)
	if got := invariants(v2); !got["dvfs-monotone"] {
		t.Fatalf("non-monotone series not caught: %v", v2.Violations())
	}
}

func TestValidatorPESign(t *testing.T) {
	vs := &core.ValidationSummary{
		Cluster: "a15",
		PerRun: []core.WorkloadError{
			// Model overestimates time (sim > hw) → PE must be negative;
			// this row lies with a positive PE.
			{Workload: "mi-qsort", Cluster: "a15", FreqMHz: 1600,
				HWSeconds: 1.0, SimSeconds: 1.5, PE: +50},
		},
	}
	v := NewValidator(nil)
	v.CheckValidation(vs)
	if got := invariants(v); !got["pe-sign"] {
		t.Fatalf("sign-convention lie not caught: %v", v.Violations())
	}

	vs.PerRun[0].PE = -50 // the correct value
	v2 := NewValidator(nil)
	v2.CheckValidation(vs)
	if v2.Count() != 0 {
		t.Fatalf("correct PE flagged: %v", v2.Violations())
	}
}

func invariants(v *Validator) map[string]bool {
	out := map[string]bool{}
	for _, d := range v.Violations() {
		out[d.Invariant] = true
	}
	return out
}

func TestCompareNoDrift(t *testing.T) {
	base := sampleEntry("gem5-ex5-v1", -51.7)
	r := Compare(base, base)
	if r.Drift {
		t.Fatalf("identical entries reported drift: %+v", r)
	}
	if len(r.Headlines) == 0 || len(r.Workloads) != 2 {
		t.Fatalf("report incomplete: %+v", r)
	}
	if r.FingerprintChanged {
		t.Fatal("same fingerprint flagged as changed")
	}
}

func TestCompareHeadlineBreach(t *testing.T) {
	base := sampleEntry("gem5-ex5-v1", -51.7)
	cur := sampleEntry("gem5-ex5-v2", 10.2) // the Section VII v1→v2 swing
	for i := range cur.Results.Workloads {
		cur.Results.Workloads[i].PE = 10.2
	}
	r := Compare(base, cur)
	if !r.Drift {
		t.Fatal("a 60 pp MPE swing must drift")
	}
	var mpeBreach bool
	for _, h := range r.BreachedHeadlines() {
		if h.Name == "MPE (pp)" {
			mpeBreach = true
		}
	}
	if !mpeBreach {
		t.Fatalf("MPE breach missing: %+v", r.Headlines)
	}
	if !r.FingerprintChanged || len(r.ManifestNotes) == 0 {
		t.Fatalf("model fingerprint change not noted: %+v", r.ManifestNotes)
	}
}

func TestCompareOutlierNamesCluster(t *testing.T) {
	base := sampleEntry("gem5-ex5-v1", 0)
	cur := sampleEntry("gem5-ex5-v1", 0)
	// Give both entries a cohort wide enough that the MAD is meaningful
	// and one workload's swing stays inside the headline tolerance, so
	// only the outlier path can report drift.
	base.Results.Workloads = nil
	cur.Results.Workloads = nil
	const n = 24
	var baseSum, curSum float64
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("w%d", i)
		label := 0
		if i >= n-2 {
			label = 1
		}
		base.Results.Workloads = append(base.Results.Workloads,
			WorkloadResult{Workload: name, HCACluster: label, PE: float64(i)})
		pe := float64(i) + 0.1 // small uniform jitter
		if i == n-1 {
			pe = float64(i) + 40 // one workload swings 40 pp
		}
		cur.Results.Workloads = append(cur.Results.Workloads,
			WorkloadResult{Workload: name, HCACluster: label, PE: pe})
		baseSum += float64(i)
		curSum += pe
	}
	// Every PE is positive, so the headline MPE and MAPE coincide.
	base.Results.MPE, base.Results.MAPE = baseSum/n, baseSum/n
	cur.Results.MPE, cur.Results.MAPE = curSum/n, curSum/n
	r := Compare(base, cur)
	if b := r.BreachedHeadlines(); len(b) != 0 {
		t.Fatalf("headline breached, outlier path not isolated: %+v", b)
	}
	if !r.Drift {
		t.Fatal("outlier swing must drift")
	}
	var shifted *WorkloadDrift
	for i := range r.Workloads {
		if r.Workloads[i].Workload == "w23" {
			shifted = &r.Workloads[i]
		}
	}
	if shifted == nil || !shifted.Shifted {
		t.Fatalf("w23 not flagged: %+v", r.Workloads)
	}
	sc := r.ShiftedClusters()
	if len(sc) != 1 || sc[0].Label != 1 {
		t.Fatalf("shifted cluster not named: %+v", sc)
	}
	if len(sc[0].Workloads) != 1 || sc[0].Workloads[0] != "w23" {
		t.Fatalf("shifted members wrong: %+v", sc[0])
	}
}

func TestCompareSetMismatch(t *testing.T) {
	base := sampleEntry("gem5-ex5-v1", 0)
	cur := sampleEntry("gem5-ex5-v1", 0)
	cur.Results.Workloads = cur.Results.Workloads[:1] // drop par-bitcount
	cur.Results.Workloads = append(cur.Results.Workloads,
		WorkloadResult{Workload: "new-one", HCACluster: 0, PE: 0})
	r := Compare(base, cur)
	if !r.Drift {
		t.Fatal("set mismatch must drift")
	}
	if len(r.MissingWorkloads) != 1 || r.MissingWorkloads[0] != "par-bitcount" {
		t.Fatalf("missing: %v", r.MissingWorkloads)
	}
	if len(r.NewWorkloads) != 1 || r.NewWorkloads[0] != "new-one" {
		t.Fatalf("new: %v", r.NewWorkloads)
	}
}

func TestCompareR2DegradationOnly(t *testing.T) {
	base := sampleEntry("gem5-ex5-v1", 0)
	cur := sampleEntry("gem5-ex5-v1", 0)
	cur.Results.Power.R2 = base.Results.Power.R2 + 0.02 // improvement
	r := Compare(base, cur)
	for _, h := range r.Headlines {
		if h.Name == "power R²" && h.Breach {
			t.Fatal("R² improvement flagged as drift")
		}
	}
	cur.Results.Power.R2 = base.Results.Power.R2 - 0.05 // degradation
	r = Compare(base, cur)
	var breach bool
	for _, h := range r.Headlines {
		if h.Name == "power R²" && h.Breach {
			breach = true
		}
	}
	if !breach {
		t.Fatal("R² degradation not flagged")
	}
}

func TestPhaseSeconds(t *testing.T) {
	evs := []obs.Event{
		{Name: "collect", Dur: 2 * time.Second},
		{Name: "simulate", Dur: 500 * time.Millisecond},
		{Name: "simulate", Dur: 1500 * time.Millisecond},
	}
	ps := PhaseSeconds(evs)
	if math.Abs(ps["collect"]-2) > 1e-12 || math.Abs(ps["simulate"]-2) > 1e-12 {
		t.Fatalf("phase aggregation wrong: %v", ps)
	}
	if PhaseSeconds(nil) != nil {
		t.Fatal("no events must map to nil")
	}
}
