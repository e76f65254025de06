package core

import (
	"errors"
	"time"

	"gemstone/internal/obs"
	"gemstone/internal/platform"
)

// registryObserver feeds campaign lifecycle events and per-run simulator
// tallies into an obs.Registry, giving campaigns a live Prometheus
// surface: scraping /metrics mid-campaign shows run throughput, the
// run-cache hit ratio and the architectural-event totals (stall
// breakdown, cache and TLB misses) of everything simulated so far.
type registryObserver struct {
	campaigns   *obs.Counter
	runs        *obs.Counter // result: simulated|cache_hit|error|skipped
	inflight    *obs.Gauge
	jobs        *obs.Gauge // current campaign size
	hitRatio    *obs.Gauge // run-cache hit ratio of the last campaign
	simSeconds  *obs.Histogram
	stallCycles *obs.Counter // cause: fetch|dep|mem|branch|barrier|rob
	simCycles   *obs.Counter
	simInsts    *obs.Counter
	cacheMisses *obs.Counter // level: l1i|l1d|l2
	tlbMisses   *obs.Counter // side: i|d
	stageTime   *obs.Counter // stage: plan|cache|sim|wall
	fidelity    *obs.Counter // tier: detailed|atomic
}

// NewRegistryObserver returns a CollectObserver that exports campaign
// progress and simulator tallies as gemstone_* metrics in reg. Combine it
// with other observers via MultiObserver; all callbacks are safe for
// concurrent use (the registry serialises internally).
func NewRegistryObserver(reg *obs.Registry) CollectObserver {
	return &registryObserver{
		campaigns: reg.Counter("gemstone_campaigns_total",
			"Campaigns completed (CollectDone callbacks)."),
		runs: reg.Counter("gemstone_campaign_runs_total",
			"Campaign runs by outcome.", "result"),
		inflight: reg.Gauge("gemstone_campaign_inflight_runs",
			"Simulations currently executing."),
		jobs: reg.Gauge("gemstone_campaign_jobs",
			"Size of the most recently started campaign."),
		hitRatio: reg.Gauge("gemstone_campaign_cache_hit_ratio",
			"Run-cache hit ratio of the most recently finished campaign."),
		simSeconds: reg.Histogram("gemstone_run_sim_seconds",
			"Wall time of one simulated run.", nil),
		stallCycles: reg.Counter("gemstone_pipeline_stall_cycles_total",
			"Pipeline stall cycles by cause, summed over simulated runs.", "cause"),
		simCycles: reg.Counter("gemstone_sim_cycles_total",
			"Simulated CPU cycles."),
		simInsts: reg.Counter("gemstone_sim_instructions_total",
			"Simulated committed instructions."),
		cacheMisses: reg.Counter("gemstone_cache_misses_total",
			"Cache misses by level, summed over simulated runs.", "level"),
		tlbMisses: reg.Counter("gemstone_tlb_misses_total",
			"First-level TLB refills by side, summed over simulated runs.", "side"),
		stageTime: reg.Counter("gemstone_campaign_stage_seconds_total",
			"Cumulative campaign time by stage.", "stage"),
		fidelity: reg.Counter("gemstone_fidelity_runs_total",
			"Simulated runs by fidelity tier.", "tier"),
	}
}

// CollectStart implements CollectObserver.
func (o *registryObserver) CollectStart(_ string, totalJobs int) {
	o.jobs.Set(float64(totalJobs))
}

// RunStart implements CollectObserver.
func (o *registryObserver) RunStart(RunKey) { o.inflight.Add(1) }

// CacheHit implements CollectObserver.
func (o *registryObserver) CacheHit(RunKey) { o.runs.Inc("cache_hit") }

// RunDone implements CollectObserver.
func (o *registryObserver) RunDone(_ RunKey, m platform.Measurement, simTime time.Duration) {
	o.inflight.Add(-1)
	o.runs.Inc("simulated")
	o.fidelity.Inc(m.Fidelity.String())
	o.simSeconds.Observe(simTime.Seconds())

	t := &m.Sample.Tally
	o.stallCycles.Add(float64(t.FetchStallCycles), "fetch")
	o.stallCycles.Add(float64(t.DepStallCycles), "dep")
	o.stallCycles.Add(float64(t.MemStallCycles), "mem")
	o.stallCycles.Add(float64(t.BranchStallCycles), "branch")
	o.stallCycles.Add(float64(t.BarrierStallCycles), "barrier")
	o.stallCycles.Add(float64(t.ROBStallCycles), "rob")
	o.simCycles.Add(float64(t.Cycles))
	o.simInsts.Add(float64(t.Committed))
	o.cacheMisses.Add(float64(m.Sample.L1I.Misses()), "l1i")
	o.cacheMisses.Add(float64(m.Sample.L1D.Misses()), "l1d")
	o.cacheMisses.Add(float64(m.Sample.L2.Misses()), "l2")
	o.tlbMisses.Add(float64(m.Sample.ITLB.Misses), "i")
	o.tlbMisses.Add(float64(m.Sample.DTLB.Misses), "d")
}

// RunError implements CollectObserver. A cut-short run is counted as
// skipped by CollectDone, not as an error.
func (o *registryObserver) RunError(_ RunKey, err error) {
	o.inflight.Add(-1)
	if !errors.Is(err, ErrCutShort) {
		o.runs.Inc("error")
	}
}

// CollectDone implements CollectObserver.
func (o *registryObserver) CollectDone(stats CollectStats) {
	o.campaigns.Inc()
	o.runs.Add(float64(stats.Skipped), "skipped")
	if stats.Jobs > 0 {
		o.hitRatio.Set(float64(stats.CacheHits) / float64(stats.Jobs))
	}
	o.stageTime.Add(stats.PlanTime.Seconds(), "plan")
	o.stageTime.Add(stats.CacheTime.Seconds(), "cache")
	o.stageTime.Add(stats.SimTime.Seconds(), "sim")
	o.stageTime.Add(stats.WallTime.Seconds(), "wall")
}
