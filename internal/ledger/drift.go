package ledger

import (
	"fmt"
	"math"
	"sort"

	"gemstone/internal/stats"
)

// The watchdog tolerances.
const (
	// mpeTolerancePP and mapeTolerancePP bound the headline error shifts
	// in percentage points; mapeTolerancePP also bounds the power-model
	// MAPE shift.
	mpeTolerancePP  = 2
	mapeTolerancePP = 2
	// r2Tolerance bounds power-model R² degradation.
	r2Tolerance = 0.01
	// peFloorPP is the minimum absolute per-workload PE shift (percentage
	// points) before a robust-z outlier counts as drifted.
	peFloorPP = 5
	// outlierZ is the MAD-based robust z-score above which a workload's
	// PE shift is an outlier against the cohort.
	outlierZ = 3.5
)

// HeadlineDrift compares one scalar between baseline and current runs.
type HeadlineDrift struct {
	Name      string  `json:"name"`
	Base      float64 `json:"base"`
	Cur       float64 `json:"cur"`
	Delta     float64 `json:"delta"`
	Tolerance float64 `json:"tolerance"`
	Breach    bool    `json:"breach"`
}

// WorkloadDrift compares one workload's signed PE between runs.
type WorkloadDrift struct {
	Workload string `json:"workload"`
	// HCABase / HCACur are the HCA cluster designations in each run (−1
	// when unclustered). Labels are arbitrary per run, so only the BASE
	// labels are used for grouping.
	HCABase int     `json:"hca_base"`
	HCACur  int     `json:"hca_cur"`
	BasePE  float64 `json:"base_pe"`
	CurPE   float64 `json:"cur_pe"`
	// DeltaPP is CurPE − BasePE in percentage points.
	DeltaPP float64 `json:"delta_pp"`
	// RobustZ is the MAD z-score of DeltaPP against all workloads' deltas.
	RobustZ float64 `json:"robust_z"`
	// Shifted marks an outlier shift beyond the PE floor.
	Shifted bool `json:"shifted"`
}

// ClusterDrift aggregates workload shifts by the baseline's HCA groups —
// "which behavioural cluster moved" is the actionable unit (the paper's
// v1→v2 fix moved exactly the branch-sensitive cluster).
type ClusterDrift struct {
	// Label is the baseline HCA designation (−1 = unclustered).
	Label int `json:"label"`
	// N is the number of workloads in the group.
	N int `json:"n"`
	// MeanDeltaPP is the group's mean PE shift.
	MeanDeltaPP float64 `json:"mean_delta_pp"`
	// Shifted counts the group's outlier workloads.
	Shifted int `json:"shifted"`
	// Workloads lists the group's shifted members.
	Workloads []string `json:"workloads,omitempty"`
}

// DriftReport is gemwatch's verdict comparing a current ledger entry to a
// baseline.
type DriftReport struct {
	// BasePlatform / CurPlatform name the model platforms compared.
	BasePlatform string `json:"base_platform"`
	CurPlatform  string `json:"cur_platform"`
	// FingerprintChanged reports a model-configuration hash change —
	// drift with a changed fingerprint is an expected consequence of a
	// model edit; with an unchanged fingerprint it is a regression.
	FingerprintChanged bool `json:"fingerprint_changed"`
	// ManifestNotes lists human-readable provenance differences.
	ManifestNotes []string `json:"manifest_notes,omitempty"`

	Headlines []HeadlineDrift `json:"headlines"`
	Workloads []WorkloadDrift `json:"workloads"`
	Clusters  []ClusterDrift  `json:"clusters"`

	// MissingWorkloads / NewWorkloads are set-membership changes.
	MissingWorkloads []string `json:"missing_workloads,omitempty"`
	NewWorkloads     []string `json:"new_workloads,omitempty"`

	// Drift is the overall verdict: any headline breach, any shifted
	// workload, or a workload-set mismatch.
	Drift bool `json:"drift"`
}

// BreachedHeadlines returns the headline comparisons that exceeded their
// tolerance.
func (r *DriftReport) BreachedHeadlines() []HeadlineDrift {
	var out []HeadlineDrift
	for _, h := range r.Headlines {
		if h.Breach {
			out = append(out, h)
		}
	}
	return out
}

// ShiftedClusters returns the baseline HCA groups containing at least one
// shifted workload, ordered by |mean shift| descending.
func (r *DriftReport) ShiftedClusters() []ClusterDrift {
	var out []ClusterDrift
	for _, c := range r.Clusters {
		if c.Shifted > 0 {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return math.Abs(out[i].MeanDeltaPP) > math.Abs(out[j].MeanDeltaPP)
	})
	return out
}

// Compare diffs the current entry against the baseline.
func Compare(base, cur Entry) *DriftReport {
	r := &DriftReport{
		BasePlatform: base.Manifest.ModelPlatform,
		CurPlatform:  cur.Manifest.ModelPlatform,
	}

	// Provenance: changed fingerprints or versions annotate the verdict.
	if base.Manifest.ModelFingerprint != cur.Manifest.ModelFingerprint {
		r.FingerprintChanged = true
		r.ManifestNotes = append(r.ManifestNotes, fmt.Sprintf(
			"model fingerprint changed: %.12s → %.12s",
			base.Manifest.ModelFingerprint, cur.Manifest.ModelFingerprint))
	}
	if base.Manifest.Gem5Version != cur.Manifest.Gem5Version {
		r.ManifestNotes = append(r.ManifestNotes, fmt.Sprintf(
			"gem5 model version changed: v%d → v%d",
			base.Manifest.Gem5Version, cur.Manifest.Gem5Version))
	}
	if base.Manifest.WorkloadSetHash != cur.Manifest.WorkloadSetHash {
		r.ManifestNotes = append(r.ManifestNotes, "workload set hash changed")
	}
	if base.Manifest.HWFingerprint != cur.Manifest.HWFingerprint {
		r.ManifestNotes = append(r.ManifestNotes, "reference platform fingerprint changed")
	}

	// Headline tolerances.
	headline := func(name string, b, c, tol float64) {
		d := c - b
		r.Headlines = append(r.Headlines, HeadlineDrift{
			Name: name, Base: b, Cur: c, Delta: d, Tolerance: tol,
			Breach: math.Abs(d) > tol,
		})
	}
	headline("MPE (pp)", base.Results.MPE, cur.Results.MPE, mpeTolerancePP)
	headline("MAPE (pp)", base.Results.MAPE, cur.Results.MAPE, mapeTolerancePP)
	if bp, cp := base.Results.Power, cur.Results.Power; bp != nil && cp != nil {
		// R² may only degrade; an improvement is never drift.
		drop := bp.R2 - cp.R2
		r.Headlines = append(r.Headlines, HeadlineDrift{
			Name: "power R²", Base: bp.R2, Cur: cp.R2, Delta: cp.R2 - bp.R2,
			Tolerance: r2Tolerance, Breach: drop > r2Tolerance,
		})
		headline("power MAPE (pp)", bp.MAPE, cp.MAPE, mapeTolerancePP)
	}
	if lat := latencyMaxRel(base.Results.Latency, cur.Results.Latency); !math.IsNaN(lat) {
		r.Headlines = append(r.Headlines, HeadlineDrift{
			Name: "lmbench max rel Δ", Base: 0, Cur: lat, Delta: lat,
			Tolerance: 0.01, Breach: lat > 0.01,
		})
	}

	// Per-workload deltas with MAD outlier flagging.
	curPE := map[string]WorkloadResult{}
	for _, w := range cur.Results.Workloads {
		curPE[w.Workload] = w
	}
	seen := map[string]bool{}
	var deltas []float64
	for _, bw := range base.Results.Workloads {
		cw, ok := curPE[bw.Workload]
		if !ok {
			r.MissingWorkloads = append(r.MissingWorkloads, bw.Workload)
			continue
		}
		seen[bw.Workload] = true
		r.Workloads = append(r.Workloads, WorkloadDrift{
			Workload: bw.Workload,
			HCABase:  bw.HCACluster, HCACur: cw.HCACluster,
			BasePE: bw.PE, CurPE: cw.PE, DeltaPP: cw.PE - bw.PE,
		})
		deltas = append(deltas, cw.PE-bw.PE)
	}
	for _, cw := range cur.Results.Workloads {
		if !seen[cw.Workload] {
			r.NewWorkloads = append(r.NewWorkloads, cw.Workload)
		}
	}
	sort.Strings(r.MissingWorkloads)
	sort.Strings(r.NewWorkloads)

	zs := stats.RobustZ(deltas)
	for i := range r.Workloads {
		w := &r.Workloads[i]
		w.RobustZ = zs[i]
		outlier := w.RobustZ > outlierZ || math.IsInf(w.RobustZ, 1)
		w.Shifted = outlier && math.Abs(w.DeltaPP) > peFloorPP
	}
	sort.Slice(r.Workloads, func(i, j int) bool {
		return math.Abs(r.Workloads[i].DeltaPP) > math.Abs(r.Workloads[j].DeltaPP)
	})

	// Group by baseline HCA designation.
	groups := map[int]*ClusterDrift{}
	for _, w := range r.Workloads {
		g := groups[w.HCABase]
		if g == nil {
			g = &ClusterDrift{Label: w.HCABase}
			groups[w.HCABase] = g
		}
		g.N++
		g.MeanDeltaPP += w.DeltaPP
		if w.Shifted {
			g.Shifted++
			g.Workloads = append(g.Workloads, w.Workload)
		}
	}
	for _, g := range groups {
		if g.N > 0 {
			g.MeanDeltaPP /= float64(g.N)
		}
		sort.Strings(g.Workloads)
		r.Clusters = append(r.Clusters, *g)
	}
	sort.Slice(r.Clusters, func(i, j int) bool { return r.Clusters[i].Label < r.Clusters[j].Label })

	for _, h := range r.Headlines {
		r.Drift = r.Drift || h.Breach
	}
	for _, w := range r.Workloads {
		r.Drift = r.Drift || w.Shifted
	}
	r.Drift = r.Drift || len(r.MissingWorkloads) > 0 || len(r.NewWorkloads) > 0
	return r
}

// latencyMaxRel returns the largest relative |Δ| of the model latency at
// working-set sizes present in both digests, or NaN when incomparable.
func latencyMaxRel(base, cur []LatencyDigest) float64 {
	curNs := map[int]float64{}
	for _, p := range cur {
		curNs[p.WorkingSetBytes] = p.SimNs
	}
	max := math.NaN()
	for _, p := range base {
		c, ok := curNs[p.WorkingSetBytes]
		if !ok || p.SimNs == 0 {
			continue
		}
		rel := math.Abs(c-p.SimNs) / math.Abs(p.SimNs)
		if math.IsNaN(max) || rel > max {
			max = rel
		}
	}
	return max
}
