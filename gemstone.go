// Package gemstone is the public API of GemStone-Go, a hardware-validated
// CPU performance and energy modelling framework reproducing Walker et
// al., "Hardware-Validated CPU Performance and Energy Modelling"
// (ISPASS 2018).
//
// GemStone compares CPU performance models (simulated gem5 "ex5" models of
// the Exynos-5422) against a reference platform (a simulated ODROID-XU3
// board with PMU counters and power sensors), identifies sources of error
// with statistical techniques that need no detailed CPU specifications,
// and builds empirical PMC-based power models that can be applied to both
// hardware PMC data and gem5 statistics.
//
// The typical flow mirrors the paper's Fig. 1:
//
//	hwRuns, _ := gemstone.Collect(gemstone.HardwarePlatform(), gemstone.CollectOptions{})  // Experiment 1/3/4
//	simRuns, _ := gemstone.Collect(gemstone.Gem5Platform(gemstone.V1), gemstone.CollectOptions{}) // Experiment 2
//	s := gemstone.NewSession(hwRuns, simRuns, gemstone.ClusterA15, 1000)
//	summary, _ := s.Validate()
//	clusters, _ := s.ClusterWorkloads(16)
//	model, _ := s.BuildPowerModel(gemstone.PowerBuildOptions{Pool: gemstone.RestrictedPool()})
//	energy, _ := s.AnalyzePowerEnergy(model, gemstone.DefaultMapping(), clusters.Labels)
//
// Every Session method also exists as a top-level function taking the run
// sets and operating point explicitly (gemstone.Validate, ...); the two
// surfaces are interchangeable. Campaigns distribute across machines with
// internal/dist's coordinator and the gemstoned worker daemon.
package gemstone

import (
	"context"
	"io"

	"gemstone/internal/core"
	"gemstone/internal/gem5"
	"gemstone/internal/hw"
	"gemstone/internal/isa"
	"gemstone/internal/ledger"
	"gemstone/internal/lmbench"
	"gemstone/internal/mcpat"
	"gemstone/internal/obs"
	"gemstone/internal/platform"
	"gemstone/internal/pmu"
	"gemstone/internal/power"
	"gemstone/internal/stats"
	"gemstone/internal/workload"
)

// Cluster names of the Exynos-5422's two CPU clusters.
const (
	ClusterA7  = hw.ClusterA7
	ClusterA15 = hw.ClusterA15
)

// Gem5 model versions (Section VII: V1 carries the branch-predictor bug,
// V2 the fix).
const (
	V1 = gem5.V1
	V2 = gem5.V2
)

// Platform and measurement types.
type (
	// Platform is a runnable system: the reference board or a gem5 model.
	Platform = platform.Platform
	// Measurement is the result of one workload run at one DVFS point.
	Measurement = platform.Measurement
	// ClusterConfig describes one CPU cluster.
	ClusterConfig = platform.ClusterConfig
	// DVFSPoint is one frequency/voltage operating point.
	DVFSPoint = platform.DVFSPoint
	// Fidelity selects a simulation tier (detailed or atomic); see
	// FidelityDetailed and FidelityAtomic.
	Fidelity = platform.Fidelity
)

// Simulation tiers. The detailed tier runs the full pipeline timing model
// and is pinned bit-for-bit by the golden equivalence tests; the atomic
// tier predicts measurements from truncated anchor runs an order of
// magnitude faster, within a documented error bound (see README.md,
// "Fidelity tiers").
const (
	FidelityDetailed = platform.FidelityDetailed
	FidelityAtomic   = platform.FidelityAtomic
)

// ParseFidelity maps a spelling ("", "detailed", "atomic") to its tier.
func ParseFidelity(s string) (Fidelity, error) { return platform.ParseFidelity(s) }

// Workload types.
type (
	// WorkloadProfile describes one synthetic benchmark.
	WorkloadProfile = workload.Profile
)

// Campaign-engine types (see internal/core for full documentation).
type (
	// RunCache memoises measurements under content-addressed keys; see
	// NewMemoryRunCache, NewDiskRunCache and OpenRunCache.
	RunCache = core.RunCache
	// CollectObserver receives per-run campaign lifecycle callbacks.
	CollectObserver = core.CollectObserver
	// CollectStats aggregates one campaign's counters and stage times.
	CollectStats = core.CollectStats
	// CollectMetrics is a ready-made thread-safe counting observer.
	CollectMetrics = core.Metrics
	// CollectError reports an incomplete campaign; it carries the failed
	// runs, the skipped jobs and the completed partial results.
	CollectError = core.CollectError
	// RunError is one failed run inside a CollectError.
	RunError = core.RunError
	// ScreenOptions configures a screen-then-resimulate campaign.
	ScreenOptions = core.ScreenOptions
	// ScreenResult is the outcome of a screen-then-resimulate campaign:
	// mixed-fidelity run sets plus the flagged (re-simulated) points.
	ScreenResult = core.ScreenResult
)

// Observability types (see internal/obs for full documentation).
type (
	// Tracer records named spans; export with WriteChromeTrace and open
	// the file in chrome://tracing or ui.perfetto.dev. A nil *Tracer is
	// the disabled tracer: every instrumented path reduces to a pointer
	// check.
	Tracer = obs.Tracer
	// TraceSpan is one in-flight trace region.
	TraceSpan = obs.Span
	// TraceAttr annotates a span.
	TraceAttr = obs.Attr
	// MetricsRegistry holds Prometheus-style counters/gauges/histograms.
	MetricsRegistry = obs.Registry
	// MetricsServer is a running /metrics + /debug/pprof endpoint.
	MetricsServer = obs.Server
)

// NewTracer returns an enabled span tracer. Pass it as
// CollectOptions.Tracer (campaign phases + simulator phases per run) or
// attach it to a Platform with SetTracer for direct Run calls.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ServeMetrics starts the observability HTTP endpoint on addr: the
// registry in Prometheus text format on /metrics, the Go profiler on
// /debug/pprof/ and a liveness probe on /healthz.
func ServeMetrics(addr string, reg *MetricsRegistry) (*MetricsServer, error) {
	return obs.Serve(addr, reg)
}

// NewRegistryCollectObserver returns a CollectObserver exporting campaign
// progress and simulator tallies (stall breakdown, cache/TLB misses, sim
// time histogram, run-cache hit ratio) as gemstone_* metrics in reg.
func NewRegistryCollectObserver(reg *MetricsRegistry) CollectObserver {
	return core.NewRegistryObserver(reg)
}

// BuildInfo identifies the running binary: Go version, module version and
// VCS revision. It is embedded in ledger manifests and exported as the
// gemstone_build_info metric — one provenance source for both.
type BuildInfo = obs.BuildInfo

// ReadBuildInfo returns the binary's build identity.
func ReadBuildInfo() BuildInfo { return obs.ReadBuildInfo() }

// RegisterBuildInfo sets the gemstone_build_info gauge (value 1, identity
// in labels) in reg and returns the underlying build identity.
func RegisterBuildInfo(reg *MetricsRegistry) BuildInfo { return obs.RegisterBuildInfo(reg) }

// Experiment flight-recorder types (see internal/ledger for full
// documentation).
type (
	// LedgerEntry is one flight-recorder record: provenance manifest +
	// campaign results + validator diagnostics, one JSON line on disk.
	LedgerEntry = ledger.Entry
	// LedgerStore is an append-only, corruption-tolerant JSONL ledger.
	LedgerStore = ledger.Store
	// RunManifest answers "what produced these numbers?": build identity,
	// platform fingerprints, workload set digest, DVFS grid, campaign
	// statistics and phase times.
	RunManifest = ledger.RunManifest
	// LedgerResults holds the comparable scientific outputs of one run.
	LedgerResults = ledger.Results
	// LedgerDiagnostic is one invariant-validator violation.
	LedgerDiagnostic = ledger.Diagnostic
	// Validator checks physical invariants (counter conservation, DVFS
	// monotonicity, energy = power x time, PE sign consistency) over
	// collected measurements; it is also a CollectObserver.
	Validator = ledger.Validator
	// CampaignRecorder is a CollectObserver keeping per-campaign stats
	// for the manifest.
	CampaignRecorder = ledger.CampaignRecorder
	// DriftReport is the outcome of comparing two ledger entries.
	DriftReport = ledger.DriftReport
	// DriftOptions tunes the drift tolerances (zero value = defaults).
	DriftOptions = ledger.DriftOptions
)

// OpenLedger returns the append-only results ledger at path. No I/O
// happens until the first Append or Scan; a missing file reads as empty.
func OpenLedger(path string) *LedgerStore { return ledger.Open(path) }

// NewValidator returns an invariant validator exporting
// gemstone_validator_* counters to reg (nil disables the metrics).
func NewValidator(reg *MetricsRegistry) *Validator { return ledger.NewValidator(reg) }

// NewCampaignRecorder returns an empty per-campaign stats recorder.
func NewCampaignRecorder() *CampaignRecorder { return ledger.NewCampaignRecorder() }

// CompareLedgerEntries diffs a current ledger entry against a baseline:
// headline tolerance bands, per-workload PE deltas with MAD-based outlier
// flagging grouped by the baseline's HCA clusters, and provenance notes.
func CompareLedgerEntries(base, cur LedgerEntry, opt DriftOptions) *DriftReport {
	return ledger.Compare(base, cur, opt)
}

// Analysis types (see internal/core for full documentation).
type (
	RunKey              = core.RunKey
	RunSet              = core.RunSet
	CollectOptions      = core.CollectOptions
	ValidationSummary   = core.ValidationSummary
	WorkloadError       = core.WorkloadError
	WorkloadClustering  = core.WorkloadClustering
	Fig3Row             = core.Fig3Row
	EventCorr           = core.EventCorr
	Gem5EventCorr       = core.Gem5EventCorr
	RegressionReport    = core.RegressionReport
	EventRatio          = core.EventRatio
	BPComparison        = core.BPComparison
	PowerEnergyAnalysis = core.PowerEnergyAnalysis
	ScalingCurve        = core.ScalingCurve
	ScalingPoint        = core.ScalingPoint
	SpeedupStats        = core.SpeedupStats
	VersionComparison   = core.VersionComparison
)

// Power-modelling types.
type (
	PowerModel        = power.Model
	PowerObservation  = power.Observation
	PowerBuildOptions = power.BuildOptions
	PowerQuality      = power.Quality
	EventMapping      = power.Mapping
	PowerComponent    = power.Component
)

// PMU event namespace.
type PMUEvent = pmu.Event

// Op is an instruction class (for the op-latency microbenchmarks).
type Op = isa.Op

// Instruction classes usable with OpLatency.
const (
	OpIntALU = isa.OpIntALU
	OpIntMul = isa.OpIntMul
	OpIntDiv = isa.OpIntDiv
	OpFPAdd  = isa.OpFPAdd
	OpFPMul  = isa.OpFPMul
	OpFPDiv  = isa.OpFPDiv
	OpSIMD   = isa.OpSIMD
	OpLoad   = isa.OpLoad
	OpStore  = isa.OpStore
)

// Microbenchmark types.
type LatencyPoint = lmbench.Point

// StepwiseOptions configures the error-regression analysis.
type StepwiseOptions = stats.StepwiseOptions

// HardwarePlatform returns the simulated ODROID-XU3 reference board (with
// PMU counters and 3.8 Hz power sensors).
func HardwarePlatform() *Platform { return hw.Platform() }

// Gem5Platform returns the simulated gem5 ex5 model platform for the given
// version. gem5 platforms produce event statistics but no power.
func Gem5Platform(v gem5.Version) *Platform { return gem5.Platform(v) }

// Workloads returns the full 65-workload suite (validation + power
// characterisation).
func Workloads() []WorkloadProfile { return workload.All() }

// ValidationWorkloads returns the paper's 45-workload validation set.
func ValidationWorkloads() []WorkloadProfile { return workload.Validation() }

// WorkloadByName looks up one workload profile.
func WorkloadByName(name string) (WorkloadProfile, error) { return workload.ByName(name) }

// ExperimentFrequencies returns the per-cluster DVFS points of the paper's
// Experiment 1 (2 GHz excluded on the A15: thermal throttling).
func ExperimentFrequencies(cluster string) []int { return hw.ExperimentFrequencies(cluster) }

// Collect runs an experiment campaign (Experiments 1-4 of the paper,
// depending on the platform) at the tier selected by opt.Fidelity and
// returns the collected measurements.
//
// The campaign stops early (without burning CPU on the remaining jobs)
// when ctx is cancelled or a run fails, returning a *CollectError that
// preserves the completed partial results. Combined with opt.Cache, a
// failed campaign is resumed by simply collecting again — finished runs
// replay as cache hits.
func Collect(ctx context.Context, pl *Platform, opt CollectOptions) (*RunSet, error) {
	return core.Collect(ctx, pl, opt)
}

// Screen runs a screen-then-resimulate campaign: the full grid on both
// platforms at the atomic tier, error screening (top-K |percent error|
// plus robust outliers), then detailed re-simulation of only the flagged
// points. The returned run sets are mixed-fidelity; every measurement
// carries its tier in Measurement.Fidelity.
func Screen(ctx context.Context, hwPl, simPl *Platform, opt ScreenOptions) (*ScreenResult, error) {
	return core.Screen(ctx, hwPl, simPl, opt)
}

// CacheKey returns the content-addressed run-cache key of one
// detailed-tier (platform, workload, cluster, frequency) run: a stable
// hash of the workload profile, the full cluster configuration
// fingerprint, the platform identity and the DVFS point.
func CacheKey(pl *Platform, prof WorkloadProfile, cluster string, freqMHz int) (string, error) {
	return core.CacheKey(pl, prof, cluster, freqMHz)
}

// CacheKeyFidelity is CacheKey with an explicit simulation tier; keys of
// different tiers never collide.
func CacheKeyFidelity(pl *Platform, prof WorkloadProfile, cluster string, freqMHz int, fid Fidelity) (string, error) {
	return core.CacheKeyFidelity(pl, prof, cluster, freqMHz, fid)
}

// NewMemoryRunCache builds an in-memory LRU run cache (0 entries selects
// the default capacity).
func NewMemoryRunCache(maxEntries int) RunCache { return core.NewMemoryCache(maxEntries) }

// NewDiskRunCache opens a persistent on-disk run cache rooted at dir.
// Entries are individually versioned and corruption-tolerant: a damaged
// entry is a cache miss, never a failure.
func NewDiskRunCache(dir string) (RunCache, error) {
	c, err := core.NewDiskCache(dir)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// OpenRunCache builds the standard two-tier run cache: an in-memory LRU
// in front of an on-disk store at dir.
func OpenRunCache(dir string) (RunCache, error) {
	c, err := core.OpenRunCache(dir)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// NewCollectMetrics returns an empty metrics accumulator to pass as
// CollectOptions.Observer.
func NewCollectMetrics() *CollectMetrics { return core.NewMetrics() }

// MultiCollectObserver fans campaign callbacks out to several observers.
func MultiCollectObserver(obs ...CollectObserver) CollectObserver {
	return core.MultiObserver(obs...)
}

// Validate compares a model run set against the hardware reference.
func Validate(hwRuns, simRuns *RunSet, cluster string) (*ValidationSummary, error) {
	return core.Validate(hwRuns, simRuns, cluster)
}

// ClusterWorkloads groups workloads by hardware PMC behaviour (HCA) and
// annotates the groups with model errors — the paper's Fig. 3 analysis.
func ClusterWorkloads(hwRuns, simRuns *RunSet, cluster string, freqMHz, k int) (*WorkloadClustering, error) {
	return core.ClusterWorkloads(hwRuns, simRuns, cluster, freqMHz, k)
}

// PMCErrorCorrelation correlates every hardware PMC rate with the model's
// execution-time error (Fig. 5).
func PMCErrorCorrelation(hwRuns, simRuns *RunSet, cluster string, freqMHz, kEvents int) ([]EventCorr, error) {
	return core.PMCErrorCorrelation(hwRuns, simRuns, cluster, freqMHz, kEvents)
}

// Gem5EventCorrelation correlates gem5 statistics with the execution-time
// error and clusters the significant ones (Section IV-C).
func Gem5EventCorrelation(hwRuns, simRuns *RunSet, cluster string, freqMHz int, minAbsCorr float64, k int) ([]Gem5EventCorr, error) {
	return core.Gem5EventCorrelation(hwRuns, simRuns, cluster, freqMHz, minAbsCorr, k)
}

// ErrorRegressionPMC regresses the model error onto hardware PMC events
// with forward stepwise selection (Section IV-D).
func ErrorRegressionPMC(hwRuns, simRuns *RunSet, cluster string, freqMHz int, opt StepwiseOptions) (*RegressionReport, error) {
	return core.ErrorRegressionPMC(hwRuns, simRuns, cluster, freqMHz, opt)
}

// ErrorRegressionGem5 regresses the model error onto gem5 statistics.
func ErrorRegressionGem5(hwRuns, simRuns *RunSet, cluster string, freqMHz int, opt StepwiseOptions) (*RegressionReport, error) {
	return core.ErrorRegressionGem5(hwRuns, simRuns, cluster, freqMHz, opt)
}

// EventComparison matches gem5 events to HW PMC equivalents and reports
// their count ratios per workload cluster (Fig. 6).
func EventComparison(hwRuns, simRuns *RunSet, cluster string, freqMHz int,
	labels map[string]int, events []PMUEvent, mapping EventMapping,
	excludeClusters map[int]bool) ([]EventRatio, *BPComparison, error) {
	return core.EventComparison(hwRuns, simRuns, cluster, freqMHz, labels, events, mapping, excludeClusters)
}

// BuildPowerModel trains an empirical PMC power model on a sensored run
// set (Section V).
func BuildPowerModel(hwRuns *RunSet, cluster string, opt PowerBuildOptions) (*PowerModel, error) {
	return core.BuildPowerModel(hwRuns, cluster, opt)
}

// DefaultPool returns the unrestricted power-model candidate events.
func DefaultPool() []PMUEvent { return power.DefaultPool() }

// RestrictedPool returns the candidate events that are available and
// accurate in gem5 (the paper's constrained selection).
func RestrictedPool() []PMUEvent { return power.RestrictedPool() }

// DefaultMapping returns the PMC-to-gem5-statistic equivalence table.
func DefaultMapping() EventMapping { return power.DefaultMapping() }

// AnalyzePowerEnergy applies one power model to HW PMC data and gem5
// statistics and compares the resulting power and energy (Fig. 7).
func AnalyzePowerEnergy(model *PowerModel, mapping EventMapping,
	hwRuns, simRuns *RunSet, cluster string, freqMHz int, labels map[string]int) (*PowerEnergyAnalysis, error) {
	return core.AnalyzePowerEnergy(model, mapping, hwRuns, simRuns, cluster, freqMHz, labels)
}

// ScalingAnalysis computes the performance/power/energy DVFS scaling
// curves of a run set (Fig. 8).
func ScalingAnalysis(rs *RunSet, models map[string]*PowerModel, mapping EventMapping,
	isGem5 bool, labels map[string]int, baseCluster string, baseFreq int) (*ScalingCurve, error) {
	return core.ScalingAnalysis(rs, models, mapping, isGem5, labels, baseCluster, baseFreq)
}

// RatioMetric selects the quantity ClusterRatio summarises.
type RatioMetric = core.RatioMetric

// Ratio metrics for ClusterRatio.
const (
	MetricSpeedup        = core.MetricSpeedup
	MetricEnergyIncrease = core.MetricEnergyIncrease
)

// ClusterRatio summarises the per-workload-cluster spread of a metric's
// ratio between two frequencies (Section VI's A15 speedup analysis).
func ClusterRatio(rs *RunSet, cluster string, loFreq, hiFreq int,
	labels map[string]int, metric RatioMetric,
	models map[string]*PowerModel, mapping EventMapping, isGem5 bool) (SpeedupStats, error) {
	return core.ClusterRatio(rs, cluster, loFreq, hiFreq, labels, metric, models, mapping, isGem5)
}

// CompareVersions runs the Section VII study: two gem5 model versions
// validated against the same hardware reference.
func CompareVersions(hwRuns, v1Runs, v2Runs *RunSet, cluster string, freqMHz int,
	model *PowerModel, mapping EventMapping, labels map[string]int) (*VersionComparison, error) {
	return core.CompareVersions(hwRuns, v1Runs, v2Runs, cluster, freqMHz, model, mapping, labels)
}

// Ablation types and modes (defect attribution for the gem5 big model).
type (
	AblationRow  = core.AblationRow
	AblationMode = core.AblationMode
	Gem5Defect   = gem5.Defect
)

// Ablation modes.
const (
	FixOneDefect  = core.FixOneDefect
	OnlyOneDefect = core.OnlyOneDefect
)

// Gem5Defects lists the individual specification errors of the ex5_big
// model; gem5.AllDefects is V1, V2Defects is the post-fix model.
func Gem5Defects() []Gem5Defect { return gem5.Defects() }

// Gem5PlatformWithDefects builds a gem5 platform whose big cluster carries
// exactly the given defects.
func Gem5PlatformWithDefects(d Gem5Defect) *Platform { return gem5.PlatformWithDefects(d) }

// RunAblationStudy toggles the big-model defects one at a time and
// validates each configuration against hardware (Section IV-F/VII).
func RunAblationStudy(hwRuns *RunSet, profiles []WorkloadProfile, freqMHz int, mode AblationMode) ([]AblationRow, error) {
	return core.AblationStudy(hwRuns, profiles, freqMHz, mode)
}

// ImprovementStep is one iteration of the greedy repair loop.
type ImprovementStep = core.ImprovementStep

// IterateImprovements applies the paper's repair procedure: fix the most
// significant remaining error source, re-validate the whole system, and
// repeat (Section IV-F).
func IterateImprovements(hwRuns *RunSet, profiles []WorkloadProfile, freqMHz int) ([]ImprovementStep, error) {
	return core.IterateImprovements(hwRuns, profiles, freqMHz)
}

// EventReliability reports the gem5-vs-hardware error of one PMC event.
type EventReliability = core.EventReliability

// AssessEventReliability computes per-event gem5 accuracy (the Fig. 7
// legend numbers).
func AssessEventReliability(hwRuns, simRuns *RunSet, cluster string, freqMHz int,
	mapping EventMapping, candidates []PMUEvent) ([]EventReliability, error) {
	return core.AssessEventReliability(hwRuns, simRuns, cluster, freqMHz, mapping, candidates)
}

// DeriveEventRestraints implements Fig. 1's feedback path: events that are
// unavailable or badly modelled in gem5 are excluded from the power-model
// candidate pool automatically.
func DeriveEventRestraints(hwRuns, simRuns *RunSet, cluster string, freqMHz int,
	mapping EventMapping, candidates []PMUEvent, maxMAPE float64) (pool, excluded []PMUEvent, err error) {
	return core.DeriveEventRestraints(hwRuns, simRuns, cluster, freqMHz, mapping, candidates, maxMAPE)
}

// FrequencyConsistency quantifies the cross-frequency similarity of the
// per-workload error pattern (Section IV).
type FrequencyConsistency = core.FrequencyConsistency

// ErrorConsistency computes the cross-frequency error-pattern correlation.
func ErrorConsistency(hwRuns, simRuns *RunSet, cluster string) (*FrequencyConsistency, error) {
	return core.ErrorConsistency(hwRuns, simRuns, cluster)
}

// Analytical (McPAT-style) baseline power modelling.
type (
	AnalyticalPowerModel  = mcpat.Model
	AnalyticalModelConfig = mcpat.Config
)

// NewAnalyticalPowerModel derives a McPAT-style structural power model for
// a cluster — the uncalibrated simulator-based baseline the paper's
// empirical models are compared against.
func NewAnalyticalPowerModel(cl ClusterConfig, cfg AnalyticalModelConfig) (*AnalyticalPowerModel, error) {
	return mcpat.New(cl, cfg)
}

// DefaultAnalyticalConfig returns common McPAT-style technology
// assumptions (nearest shipped library, nominal volt).
func DefaultAnalyticalConfig() AnalyticalModelConfig { return mcpat.DefaultConfig() }

// MemoryLatency runs the lat_mem_rd-style microbenchmark against a cluster
// configuration (Fig. 4).
func MemoryLatency(cl ClusterConfig, freqMHz, strideBytes int, sizes []int) []LatencyPoint {
	return lmbench.MemoryLatency(cl, freqMHz, strideBytes, sizes)
}

// DefaultLatencySizes returns the Fig. 4 working-set sweep.
func DefaultLatencySizes() []int { return lmbench.DefaultSizes() }

// HardwareA7 returns the reference A7 cluster configuration (for
// microbenchmarks and custom platforms).
func HardwareA7() ClusterConfig { return hw.A7Cluster() }

// HardwareA15 returns the reference A15 cluster configuration.
func HardwareA15() ClusterConfig { return hw.A15Cluster() }

// Gem5LITTLE returns the ex5_LITTLE model cluster configuration.
func Gem5LITTLE(v gem5.Version) ClusterConfig { return gem5.LITTLECluster(v) }

// Gem5Big returns the ex5_big model cluster configuration.
func Gem5Big(v gem5.Version) ClusterConfig { return gem5.BigCluster(v) }

// Gem5Stats returns the gem5-style statistics map of a model run
// (Experiment 2's stats.txt).
func Gem5Stats(m Measurement) map[string]float64 { return core.Gem5Stats(m) }

// OpLatency measures a dependent-chain operation latency on a cluster's
// timing model.
func OpLatency(cl ClusterConfig, op Op, freqMHz int) float64 {
	return lmbench.OpLatency(cl, op, freqMHz)
}

// DefaultStepwiseOptions mirror the paper's regression setup (p-enter 0.05).
func DefaultStepwiseOptions() StepwiseOptions { return stats.DefaultStepwiseOptions() }

// WriteGem5StatsFile renders a statistics map in gem5's stats.txt format.
func WriteGem5StatsFile(w io.Writer, stats map[string]float64) error {
	return gem5.WriteStatsFile(w, stats)
}

// ParseGem5StatsFile parses a gem5 stats.txt dump (first dump of the file).
func ParseGem5StatsFile(r io.Reader) (map[string]float64, error) {
	return gem5.ParseStatsFile(r)
}

// SavePowerModel / LoadPowerModel persist fitted power models as JSON —
// the released-model format of the paper's artefacts.
func SavePowerModel(w io.Writer, m *PowerModel) error { return power.SaveModel(w, m) }

// LoadPowerModel restores a model saved by SavePowerModel.
func LoadPowerModel(r io.Reader) (*PowerModel, error) { return power.LoadModel(r) }

// WriteObservationsCSV / ReadObservationsCSV persist power-characterisation
// datasets.
func WriteObservationsCSV(w io.Writer, obs []PowerObservation) error {
	return power.WriteObservationsCSV(w, obs)
}

// ReadObservationsCSV restores a dataset written by WriteObservationsCSV.
func ReadObservationsCSV(r io.Reader) ([]PowerObservation, error) {
	return power.ReadObservationsCSV(r)
}

// SaveRunSet / LoadRunSet archive a full measurement campaign so analyses
// can be re-run without re-simulating.
func SaveRunSet(w io.Writer, rs *RunSet) error { return core.SaveRunSet(w, rs) }

// LoadRunSet restores an archive written by SaveRunSet.
func LoadRunSet(r io.Reader) (*RunSet, error) { return core.LoadRunSet(r) }

// MeasurementObservation converts a sensored hardware measurement into a
// power-model observation (rates for every PMU event plus measured power).
func MeasurementObservation(m Measurement) PowerObservation {
	return core.PowerObservation(m)
}
