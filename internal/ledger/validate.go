package ledger

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"gemstone/internal/core"
	"gemstone/internal/obs"
	"gemstone/internal/platform"
	"gemstone/internal/stats"
)

// Diagnostic records one invariant violation for the ledger.
type Diagnostic struct {
	// Invariant names the broken rule ("cache-misses", "energy-power-time",
	// "dvfs-monotone", ...).
	Invariant string `json:"invariant"`
	// Run identifies the offending run ("workload/cluster@freqMHz"), or
	// the scope for cross-run invariants.
	Run string `json:"run"`
	// Detail is the human-readable evidence with the offending numbers.
	Detail string `json:"detail"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("[%s] %s: %s", d.Invariant, d.Run, d.Detail)
}

// Validator sanity-checks raw simulator output: callers sweep each
// completed run set through CheckMeasurement and CheckRunSet (a sweep,
// unlike a per-run observer, also sees cache hits) and the validation
// summary through CheckValidation. Checks are microarchitecture-level
// conservation laws: a violation means a simulator defect (or an
// injected corruption), never a modelling error.
type Validator struct {
	mu         sync.Mutex
	checks     int
	violations []Diagnostic

	// issueWidth maps platform name -> cluster name -> issue width, fed
	// by AddPlatform; the cycles-issue-width invariant is skipped for
	// unknown clusters.
	issueWidth map[string]map[string]int
	// sensored marks platforms whose measurements carry power; the
	// energy-power-time invariant only applies there.
	sensored map[string]bool

	checksMetric     *obs.Counter
	violationsMetric *obs.Counter
}

// NewValidator returns a validator that also exports tallies as the
// gemstone_validator_checks_total and
// gemstone_validator_violations_total{invariant} counters. reg may be nil
// (no metrics).
func NewValidator(reg *obs.Registry) *Validator {
	v := &Validator{
		issueWidth: map[string]map[string]int{},
		sensored:   map[string]bool{},
	}
	if reg != nil {
		v.checksMetric = reg.Counter("gemstone_validator_checks_total",
			"Invariant checks evaluated by the -validate pass.")
		v.violationsMetric = reg.Counter("gemstone_validator_violations_total",
			"Invariant violations detected by the -validate pass.", "invariant")
	}
	return v
}

// AddPlatform teaches the validator a platform's configuration so
// configuration-dependent invariants (issue width, sensors) can apply.
func (v *Validator) AddPlatform(pl *platform.Platform) {
	cfg := pl.Config()
	v.mu.Lock()
	defer v.mu.Unlock()
	widths := map[string]int{}
	for _, cl := range cfg.Clusters {
		widths[cl.Name] = cl.Core.IssueWidth
	}
	v.issueWidth[cfg.Name] = widths
	v.sensored[cfg.Name] = cfg.HasSensors
}

// relTol reports |a−b| ≤ eps·max(|a|,|b|) — the comparison used for
// identities that survive float64 round-trips (energy = power × time).
func relTol(a, b, eps float64) bool {
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= eps*m
}

func (v *Validator) check(ok bool, invariant, run, format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.checks++
	if v.checksMetric != nil {
		v.checksMetric.Inc()
	}
	if ok {
		return
	}
	v.violations = append(v.violations, Diagnostic{
		Invariant: invariant,
		Run:       run,
		Detail:    fmt.Sprintf(format, args...),
	})
	if v.violationsMetric != nil {
		v.violationsMetric.Inc(invariant)
	}
}

// CheckMeasurement evaluates every single-run invariant against m.
func (v *Validator) CheckMeasurement(m platform.Measurement) {
	run := fmt.Sprintf("%s:%s/%s@%dMHz", m.Platform, m.Workload, m.Cluster, m.FreqMHz)
	s := &m.Sample
	t := &s.Tally

	// A committed instruction costs at least 1/IssueWidth cycles.
	v.mu.Lock()
	width := v.issueWidth[m.Platform][m.Cluster]
	sensored, knownPlatform := v.sensored[m.Platform]
	v.mu.Unlock()
	if width > 0 {
		v.check(t.Committed <= t.Cycles*uint64(width),
			"cycles-issue-width", run,
			"committed %d > cycles %d × issue width %d", t.Committed, t.Cycles, width)
	}

	// A run that produced a measurement must have executed something.
	v.check(t.Cycles > 0 && t.Committed > 0, "nonzero", run,
		"empty run: cycles=%d committed=%d", t.Cycles, t.Committed)

	// Demand misses cannot exceed demand lookups, per port.
	for _, c := range []struct {
		name           string
		ra, wa, rm, wm uint64
	}{
		{"L1I", s.L1I.ReadAccesses, s.L1I.WriteAccesses, s.L1I.ReadMisses, s.L1I.WriteMisses},
		{"L1D", s.L1D.ReadAccesses, s.L1D.WriteAccesses, s.L1D.ReadMisses, s.L1D.WriteMisses},
		{"L2", s.L2.ReadAccesses, s.L2.WriteAccesses, s.L2.ReadMisses, s.L2.WriteMisses},
	} {
		v.check(c.rm <= c.ra && c.wm <= c.wa, "cache-misses", run,
			"%s misses exceed accesses: reads %d/%d writes %d/%d",
			c.name, c.rm, c.ra, c.wm, c.wa)
	}

	// TLB misses cannot exceed TLB lookups.
	for _, tl := range []struct {
		name             string
		accesses, misses uint64
	}{
		{"ITLB", s.ITLB.Accesses, s.ITLB.Misses},
		{"DTLB", s.DTLB.Accesses, s.DTLB.Misses},
		{"L2TLBI", s.L2TLBI.Accesses, s.L2TLBI.Misses},
		{"L2TLBD", s.L2TLBD.Accesses, s.L2TLBD.Misses},
	} {
		v.check(tl.misses <= tl.accesses, "tlb-misses", run,
			"%s misses %d > accesses %d", tl.name, tl.misses, tl.accesses)
	}

	// A page-table walk happens only after the last-level TLB misses.
	v.check(s.Hier.ITLBWalks <= s.L2TLBI.Misses, "tlb-walks", run,
		"ITLB walks %d > L2TLBI misses %d", s.Hier.ITLBWalks, s.L2TLBI.Misses)
	v.check(s.Hier.DTLBWalks <= s.L2TLBD.Misses, "tlb-walks", run,
		"DTLB walks %d > L2TLBD misses %d", s.Hier.DTLBWalks, s.L2TLBD.Misses)

	// Wall time is cycles over frequency, by construction.
	if s.FreqGHz > 0 {
		v.check(relTol(m.Seconds, s.Seconds(), 1e-9), "time-cycles", run,
			"seconds %.9g != cycles %d / %.3f GHz = %.9g",
			m.Seconds, t.Cycles, s.FreqGHz, s.Seconds())
	}

	// On sensored platforms, reported energy is power × time exactly.
	if knownPlatform && sensored {
		v.check(relTol(m.EnergyJoules, m.PowerWatts*m.Seconds, 1e-9),
			"energy-power-time", run,
			"energy %.9g J != power %.6g W × time %.6g s = %.9g J",
			m.EnergyJoules, m.PowerWatts, m.Seconds, m.PowerWatts*m.Seconds)
	}
}

// CheckRunSet evaluates cross-run invariants over a complete run set —
// currently DVFS monotonicity: for a fixed workload and cluster, raising
// the clock must not raise execution time (memory latency is fixed in
// nanoseconds, so higher frequency only re-prices stalls in cycles).
func (v *Validator) CheckRunSet(rs *core.RunSet) {
	if rs == nil {
		return
	}
	type series struct {
		freqs   []int
		seconds map[int]float64
	}
	byWC := map[[2]string]*series{}
	for key, m := range rs.Runs {
		id := [2]string{key.Workload, key.Cluster}
		sr := byWC[id]
		if sr == nil {
			sr = &series{seconds: map[int]float64{}}
			byWC[id] = sr
		}
		sr.freqs = append(sr.freqs, key.FreqMHz)
		sr.seconds[key.FreqMHz] = m.Seconds
	}
	ids := make([][2]string, 0, len(byWC))
	for id := range byWC {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i][0] != ids[j][0] {
			return ids[i][0] < ids[j][0]
		}
		return ids[i][1] < ids[j][1]
	})
	for _, id := range ids {
		sr := byWC[id]
		sort.Ints(sr.freqs)
		scope := fmt.Sprintf("%s:%s/%s", rs.Platform, id[0], id[1])
		for i := 1; i < len(sr.freqs); i++ {
			lo, hi := sr.freqs[i-1], sr.freqs[i]
			sLo, sHi := sr.seconds[lo], sr.seconds[hi]
			// Allow float jitter: time at the higher clock may exceed the
			// lower-clock time by at most 1e-6 relative.
			v.check(sHi <= sLo*(1+1e-6), "dvfs-monotone", scope,
				"%d MHz takes %.6g s but %d MHz takes %.6g s", hi, sHi, lo, sLo)
		}
	}
}

// CheckValidation recomputes the paper's signed-error convention over the
// summary: PE must equal 100·(hw−sim)/hw for every row, and a model that
// overestimates execution time must carry a negative PE.
func (v *Validator) CheckValidation(vs *core.ValidationSummary) {
	if vs == nil {
		return
	}
	for _, e := range vs.PerRun {
		run := fmt.Sprintf("%s/%s@%dMHz", e.Workload, e.Cluster, e.FreqMHz)
		want := stats.PercentError(e.HWSeconds, e.SimSeconds)
		ok := relTol(e.PE, want, 1e-9) || (e.PE == 0 && want == 0)
		if ok && e.HWSeconds > 0 && e.SimSeconds > e.HWSeconds {
			ok = e.PE < 0
		}
		v.check(ok, "pe-sign", run,
			"PE %.6g%% inconsistent with hw %.6g s vs sim %.6g s (want %.6g%%)",
			e.PE, e.HWSeconds, e.SimSeconds, want)
	}
}

// Checks returns the number of invariant evaluations so far.
func (v *Validator) Checks() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.checks
}

// Violations returns the recorded diagnostics in detection order.
func (v *Validator) Violations() []Diagnostic {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]Diagnostic(nil), v.violations...)
}

// Count returns the number of violations.
func (v *Validator) Count() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.violations)
}
