// Package ledger is GemStone's experiment flight recorder. Where
// internal/obs makes the *process* observable (spans, metrics, profiles),
// ledger records the *results*: every invocation appends a provenance
// manifest plus the scientific outputs — per-workload percentage error,
// MAPE/MPE, power-model quality, latency curves — to an append-only JSONL
// store, turning one-shot campaign numbers into a time series that a drift
// watchdog (cmd/gemwatch) can guard against a committed baseline. The
// package also hosts the invariant validators that sanity-check raw
// counters while a campaign collects.
package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"gemstone/internal/core"
	"gemstone/internal/obs"
	"gemstone/internal/platform"
	"gemstone/internal/workload"
)

// SchemaVersion is the current ledger entry schema. Readers accept
// entries with schema 1..SchemaVersion and skip anything newer or
// unversioned, so a ledger written by a future build degrades to "no
// comparable entries" instead of silently mis-decoding.
const SchemaVersion = 1

// RunManifest is the provenance half of a ledger entry: everything needed
// to answer "what produced these numbers?" — build identity, platform and
// model fingerprints (the same content hashes the PR 1 run cache keys
// on), the workload set, the DVFS grid, and the campaign statistics.
type RunManifest struct {
	// Schema versions the entry layout; see SchemaVersion.
	Schema int `json:"schema"`
	// CreatedUnix is the entry creation time (Unix seconds).
	CreatedUnix int64 `json:"created_unix"`
	// Build identifies the binary (shared with the gemstone_build_info
	// metric — one provenance source for scrapes and ledger alike).
	Build obs.BuildInfo `json:"build"`

	// HWPlatform / ModelPlatform name the reference and model platforms.
	HWPlatform    string `json:"hw_platform"`
	ModelPlatform string `json:"model_platform"`
	// HWFingerprint / ModelFingerprint are the platform configuration
	// content hashes (platform.Config.Fingerprint): any model change —
	// a defect fix, a DVFS edit, a predictor resize — changes them.
	HWFingerprint    string `json:"hw_fingerprint"`
	ModelFingerprint string `json:"model_fingerprint"`
	// Gem5Version is the simulated gem5 model version (Section VII).
	Gem5Version int `json:"gem5_version"`

	// Tenant and CampaignID attribute entries produced through the
	// campaign service (`gemstone serve`): Tenant is the submitting
	// tenant's identifier, CampaignID the service-assigned campaign.
	// Both are empty for CLI invocations, so existing ledgers and
	// readers are unaffected (omitempty keeps old entries byte-stable).
	Tenant     string `json:"tenant,omitempty"`
	CampaignID string `json:"campaign_id,omitempty"`

	// Fidelity is the campaign's simulation tier ("atomic"; empty means
	// detailed) and Mode its execution shape ("screen"; empty means a
	// plain full-grid campaign). ScreenFlagged lists the operating points
	// a screen-mode campaign re-simulated at the detailed tier, as
	// "workload/cluster/freqMHz" in screening order (descending |percent
	// error|) — per-run tier provenance for mixed-fidelity archives.
	// All empty for pre-fidelity entries (omitempty keeps them
	// byte-stable).
	Fidelity      string   `json:"fidelity,omitempty"`
	Mode          string   `json:"mode,omitempty"`
	ScreenFlagged []string `json:"screen_flagged,omitempty"`

	// Cluster and FreqMHz are the analysis operating point.
	Cluster string `json:"cluster"`
	FreqMHz int    `json:"freq_mhz"`
	// Workloads lists the campaign workload names (sorted).
	Workloads []string `json:"workloads"`
	// WorkloadSetHash is a content hash over the full profile records, so
	// a profile edit is distinguishable from a same-named set.
	WorkloadSetHash string `json:"workload_set_hash"`
	// Seed folds the per-workload generator seeds into one digest.
	Seed uint64 `json:"seed"`
	// DVFSGrid maps cluster name to the swept frequencies (MHz).
	DVFSGrid map[string][]int `json:"dvfs_grid,omitempty"`

	// Campaigns records one entry per Collect call (hardware, model,
	// version-comparison reruns), with cache hit/miss tallies and stage
	// wall times.
	Campaigns []CampaignStats `json:"campaigns,omitempty"`
	// PhaseSeconds aggregates tracer span durations by span name
	// ("collect", "plan", "simulate", "cache-get", "pipeline", ...) —
	// cumulative across lanes, so concurrent phases sum beyond wall time.
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
	// DistWorkers records the remote workers of a distributed campaign
	// (gemstone -workers): who simulated what, and how reliably. Empty for
	// purely local runs.
	DistWorkers []DistWorker `json:"dist_workers,omitempty"`
}

// NewManifest fills the manifest fields every ledger producer (the
// gemstone CLI and the campaign service) derives the same way: build
// identity, platform names and fingerprints, the analysis point, the
// workload set, the DVFS grid the hardware campaign swept (per cluster,
// sorted, from hwRuns), the tier (empty for detailed), the per-campaign
// statistics and, for a screen (screen non-nil), the mode and the flagged
// points. Callers add their own fields: the CLI its phase times and
// distributed workers, the service its tenant and campaign ID.
func NewManifest(hwPl, model *platform.Platform, gem5Version int, cluster string, freqMHz int,
	profiles []workload.Profile, hwRuns *core.RunSet, fid platform.Fidelity,
	screen *core.ScreenResult, recorder *CampaignRecorder) RunManifest {
	names, setHash, seed := WorkloadSetDigest(profiles)
	grid := map[string][]int{}
	for k := range hwRuns.Runs {
		grid[k.Cluster] = append(grid[k.Cluster], k.FreqMHz)
	}
	for cl, freqs := range grid {
		slices.Sort(freqs)
		grid[cl] = slices.Compact(freqs)
	}
	man := RunManifest{
		Schema:           SchemaVersion,
		CreatedUnix:      time.Now().Unix(),
		Build:            obs.ReadBuildInfo(),
		HWPlatform:       hwPl.Name(),
		ModelPlatform:    model.Name(),
		HWFingerprint:    hwPl.Config().Fingerprint(),
		ModelFingerprint: model.Config().Fingerprint(),
		Gem5Version:      gem5Version,
		Cluster:          cluster,
		FreqMHz:          freqMHz,
		Workloads:        names,
		WorkloadSetHash:  setHash,
		Seed:             seed,
		DVFSGrid:         grid,
		Campaigns:        recorder.Campaigns(),
	}
	if fid != platform.FidelityDetailed {
		man.Fidelity = fid.String()
	}
	if screen != nil {
		man.Mode = "screen"
		for _, k := range screen.Flagged {
			man.ScreenFlagged = append(man.ScreenFlagged, fmt.Sprintf("%s/%s/%d", k.Workload, k.Cluster, k.FreqMHz))
		}
	}
	return man
}

// DistWorker is per-worker provenance from a distributed campaign. It is
// the manifest's own shape (not internal/dist's) so ledger readers never
// depend on the wire package.
type DistWorker struct {
	// Addr is the worker's base URL.
	Addr string `json:"addr"`
	// Capacity is the parallelism the worker advertised.
	Capacity int `json:"capacity"`
	// Jobs counts measurements the worker contributed.
	Jobs int `json:"jobs"`
	// Retries counts failed attempts charged to the worker.
	Retries int `json:"retries"`
	// Alive reports whether the worker was still healthy at the end.
	Alive bool `json:"alive"`
}

// CampaignStats is the JSON-friendly form of core.CollectStats.
type CampaignStats struct {
	Platform  string  `json:"platform"`
	Jobs      int     `json:"jobs"`
	Simulated int     `json:"simulated"`
	CacheHits int     `json:"cache_hits"`
	Errors    int     `json:"errors"`
	Skipped   int     `json:"skipped"`
	PlanSec   float64 `json:"plan_sec"`
	CacheSec  float64 `json:"cache_sec"`
	SimSec    float64 `json:"sim_sec"`
	WallSec   float64 `json:"wall_sec"`
}

// CampaignFromStats converts collector statistics for the manifest.
func CampaignFromStats(s core.CollectStats) CampaignStats {
	return CampaignStats{
		Platform:  s.Platform,
		Jobs:      s.Jobs,
		Simulated: s.Simulated,
		CacheHits: s.CacheHits,
		Errors:    s.Errors,
		Skipped:   s.Skipped,
		PlanSec:   s.PlanTime.Seconds(),
		CacheSec:  s.CacheTime.Seconds(),
		SimSec:    s.SimTime.Seconds(),
		WallSec:   s.WallTime.Seconds(),
	}
}

// CampaignRecorder is a core.CollectObserver that keeps per-campaign
// statistics for the manifest (core.Metrics only exposes the aggregate).
// It is safe for concurrent use and composes via core.MultiObserver.
type CampaignRecorder struct {
	mu       sync.Mutex
	recorded []CampaignStats
}

// NewCampaignRecorder returns an empty recorder.
func NewCampaignRecorder() *CampaignRecorder { return &CampaignRecorder{} }

// CollectStart implements core.CollectObserver.
func (r *CampaignRecorder) CollectStart(string, int) {}

// RunStart implements core.CollectObserver.
func (r *CampaignRecorder) RunStart(core.RunKey) {}

// CacheHit implements core.CollectObserver.
func (r *CampaignRecorder) CacheHit(core.RunKey) {}

// RunDone implements core.CollectObserver.
func (r *CampaignRecorder) RunDone(core.RunKey, platform.Measurement, time.Duration) {}

// RunError implements core.CollectObserver.
func (r *CampaignRecorder) RunError(core.RunKey, error) {}

// CollectDone implements core.CollectObserver.
func (r *CampaignRecorder) CollectDone(s core.CollectStats) {
	r.mu.Lock()
	r.recorded = append(r.recorded, CampaignFromStats(s))
	r.mu.Unlock()
}

// Campaigns returns the recorded per-campaign statistics in completion
// order.
func (r *CampaignRecorder) Campaigns() []CampaignStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]CampaignStats(nil), r.recorded...)
}

// PhaseSeconds aggregates completed tracer spans by name into cumulative
// seconds — the manifest's per-phase time breakdown.
func PhaseSeconds(events []obs.Event) map[string]float64 {
	if len(events) == 0 {
		return nil
	}
	out := make(map[string]float64)
	for _, e := range events {
		out[e.Name] += e.Dur.Seconds()
	}
	return out
}

// WorkloadSetDigest returns the sorted workload names, a content hash
// over the full profile records and the folded generator seed digest.
func WorkloadSetDigest(profiles []workload.Profile) (names []string, hash string, seed uint64) {
	sorted := append([]workload.Profile(nil), profiles...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	h := sha256.New()
	for _, p := range sorted {
		names = append(names, p.Name)
		h.Write(profileJSON(p))
		h.Write([]byte{0})
		seed ^= p.Seed()
	}
	return names, hex.EncodeToString(h.Sum(nil)), seed
}

// profileJSON is the canonical byte serialisation of one profile (the
// same discipline as the run-cache key derivation).
func profileJSON(p workload.Profile) []byte {
	data, err := json.Marshal(p)
	if err != nil {
		// Profiles are plain data; unreachable short of NaN fields. Keep
		// the digest deterministic rather than failing the manifest.
		data = []byte(fmt.Sprintf("unmarshalable profile: %v", err))
	}
	return data
}
