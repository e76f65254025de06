package main

import (
	"bufio"
	"context"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"gemstone/internal/branch"
	"gemstone/internal/core"
	"gemstone/internal/gem5"
	"gemstone/internal/hw"
	"gemstone/internal/isa"
	"gemstone/internal/load"
	"gemstone/internal/mem"
	"gemstone/internal/obs"
	"gemstone/internal/pipeline"
	"gemstone/internal/platform"
	"gemstone/internal/pmu"
	"gemstone/internal/serve"
	"gemstone/internal/stats"
	"gemstone/internal/workload"
	"gemstone/internal/xrand"
)

// The traced pass. After the untraced window, a seeded sample of the
// workload's own profiles — probeProfiles of them, on both clusters, so
// probeProfiles*2 (workload, cluster) pairs over the Experiment-1 DVFS
// grid — is replayed through each layer's public functions, with an
// obs.Tracer span opened from here around every call. The per-layer
// metrics are the spans' self times divided by the work each call did.
// The same sample then drives the campaign engine, the screen, the run
// cache and one campaign through gemstone serve.
const (
	probeProfiles = 4
	// microReps repeats the sub-microsecond layers (PMU capture, gem5
	// statistics, the power model) so one span covers enough work to time.
	microReps = 200
	// probeWarmReplays is the number of warm replays of the probe campaign.
	probeWarmReplays = 5
	// probeOverheadPairs is how many untraced/traced campaign pairs the
	// tracing-overhead estimate alternates.
	probeOverheadPairs = 5
)

// Span names of the probes; each is a layer of the simulator.
const (
	spanExpand  = "workload.expand"
	spanCore    = "pipeline.core"
	spanMem     = "mem.replay"
	spanBranch  = "branch.replay"
	spanCapture = "pmu.capture"
	spanStats   = "gem5.stats"
	spanPower   = "platform.power"
	spanRecord  = "platform.record"
	spanReplay  = "platform.replay"
	spanAtomic  = "platform.atomic"
)

// simMetrics are the per-layer metrics of the modelled board rather than of
// host time. They are exact: for one workload and seed every run reports
// the same values, and a change meant only to make the simulator faster
// must leave them identical.
var simMetrics = []string{
	"pipeline.ipc", "mem.accesses_per_inst", "mem.l1d_mpki", "mem.l2_mpki", "mem.tlb_walks_pki",
	"branch.mpki", "platform.atomic_ape_p99_pct", "core.screen_flagged", "core.screen_recall",
}

// probeWork counts the work the probe spans did, per layer.
type probeWork struct {
	insts, coreInsts, cycles          uint64
	recordInsts, replayInsts          uint64
	accesses, branches                uint64
	l1dMisses, l2Misses, walks, mispr uint64
	runs, atomicRuns, microCalls      int
}

func probeLayers(ctx context.Context, e *env, jobs []workload.Profile, tracer *obs.Tracer) (map[string]float64, []check, error) {
	hwPl, v1 := hw.Platform(), gem5.Platform(gem5.V1)
	sample := permute(jobs, e.rng("probe/sample"))
	if len(sample) > probeProfiles {
		sample = sample[:probeProfiles]
	}
	clusters := []string{hw.ClusterA7, hw.ClusterA15}
	var work probeWork
	var checks []check
	consistent := true
	for i, prof := range sample {
		for j, cl := range clusters {
			ok, err := probePair(hwPl, prof, cl, tracer, i*len(clusters)+j, &work)
			if err != nil {
				return nil, nil, err
			}
			consistent = consistent && ok
		}
	}
	checks = append(checks, newCheck("probe-consistency", consistent,
		"the probe pipeline's tallies equal the platform's on all %d pairs", len(sample)*len(clusters)))

	self := selfTimes(tracer.Events())
	per := func(span string, n float64) float64 { return float64(self[span]) / n }
	m := map[string]float64{
		"workload.expand_ns_per_inst": per(spanExpand, float64(work.insts)),
		"pipeline.core_ns_per_inst":   per(spanCore, float64(work.coreInsts)),
		"pipeline.ipc":                float64(work.coreInsts) / float64(work.cycles),
		"mem.ns_per_access":           per(spanMem, float64(work.accesses)),
		"mem.accesses_per_inst":       float64(work.accesses) / float64(work.insts),
		"mem.l1d_mpki":                1e3 * float64(work.l1dMisses) / float64(work.coreInsts),
		"mem.l2_mpki":                 1e3 * float64(work.l2Misses) / float64(work.coreInsts),
		"mem.tlb_walks_pki":           1e3 * float64(work.walks) / float64(work.coreInsts),
		"branch.ns_per_branch":        per(spanBranch, float64(work.branches)),
		"branch.mpki":                 1e3 * float64(work.mispr) / float64(work.coreInsts),
		"pmu.capture_us":              per(spanCapture, float64(work.microCalls)) / 1e3,
		"gem5.stats_us":               per(spanStats, float64(work.microCalls)) / 1e3,
		"platform.power_us":           per(spanPower, float64(work.microCalls)) / 1e3,
		"platform.record_ns_per_inst": per(spanRecord, float64(work.recordInsts)),
		"platform.replay_ns_per_inst": per(spanReplay, float64(work.replayInsts)),
		"platform.atomic_us_per_run":  per(spanAtomic, float64(work.atomicRuns)) / 1e3,
	}

	coreChecks, err := probeCampaigns(ctx, e, hwPl, v1, sample, tracer, m)
	if err != nil {
		return nil, nil, err
	}
	checks = append(checks, coreChecks...)
	// Attribution of the reference campaign's busy time (one worker, the
	// same pairs) to the layers: each profile expanded once for both
	// clusters, each sweep's first run through the pipeline and the rest
	// replayed, PMU capture and power on every run. The rest is
	// SimContext and campaign-engine overhead the probes do not cover.
	predicted := float64(self[spanExpand])/float64(len(clusters)) + float64(self[spanCore]+self[spanReplay]) +
		float64(work.runs)*(m["pmu.capture_us"]+m["platform.power_us"])*1e3
	m["platform.unattributed_ratio"] = 1 - predicted/(m["core.sim_busy_s"]*1e9)
	// The service resolves workloads by name from its catalogue, which the
	// held-out variants are not in, so its probe samples the catalogue.
	served := permute(workload.Validation(), e.rng("probe/service"))[:probeProfiles]
	serveCheck, err := probeService(ctx, served, m)
	if err != nil {
		return nil, nil, err
	}
	checks = append(checks, serveCheck)
	e.logf("probes     %d spans over %d profiles x %d clusters", len(tracer.Events()), len(sample), len(clusters))
	return m, checks, nil
}

// probePair replays one (workload, cluster) pair through every simulator
// layer under spans rooted at one "probe" span. It reports whether the
// probe's own pipeline run reproduced the platform's tally exactly.
func probePair(pl *platform.Platform, prof workload.Profile, cluster string, tracer *obs.Tracer, id int, w *probeWork) (bool, error) {
	cc, err := pl.Cluster(cluster)
	if err != nil {
		return false, err
	}
	freqs := hw.ExperimentFrequencies(cluster)
	ghz := float64(freqs[0]) / 1000
	root := tracer.Start("probe", obs.Int("trace_id", id), obs.String("workload", prof.Name), obs.String("cluster", cluster))
	defer root.End()

	sp := root.Child(spanExpand)
	insts := expand(prof)
	sp.End()
	w.insts += uint64(len(insts))

	// The pipeline as platform.SimContext drives it, on fresh state.
	hier, pred := mem.NewHierarchy(cc.Hier), branch.New(cc.Branch)
	hier.SetFrequencyGHz(ghz)
	c := pipeline.NewCore(cc.Core, hier, pred)
	if prof.IsParallel() {
		scale := cc.ContentionScale
		if scale == 0 {
			scale = 1
		}
		c.Sync = pipeline.NewSyncModel(prof.Seed()^0xC0FFEE,
			prof.SnoopProb*scale, prof.BarrierWaitMean*scale, prof.StrexFailProb*scale)
	}
	sp = root.Child(spanCore)
	tally := c.Run(isa.NewSliceStream(insts))
	sp.End()
	w.coreInsts += tally.Committed
	w.cycles += tally.Cycles
	w.l1dMisses += hier.L1D.Stats.Misses()
	w.l2Misses += hier.L2.Stats.Misses()
	w.walks += hier.Stats.ITLBWalks + hier.Stats.DTLBWalks
	w.mispr += pred.Stats.Mispredicts

	var sample pmu.Sample
	sp = root.Child(spanCapture)
	for r := 0; r < microReps; r++ {
		sample = pmu.Capture(tally, hier, pred, ghz)
	}
	sp.End()
	sp = root.Child(spanStats)
	for r := 0; r < microReps; r++ {
		gem5.Stats(&sample)
	}
	sp.End()
	volt, err := cc.Voltage(freqs[0])
	if err != nil {
		return false, err
	}
	sp = root.Child(spanPower)
	for r := 0; r < microReps; r++ {
		platform.MeasurePower(cc.Power, cc.Thermal, &sample, volt, ghz, xrand.New(uint64(r)))
	}
	sp.End()
	w.microCalls += microReps

	// The memory hierarchy alone: the stream's address trace (one fetch per
	// fetch group, every load and store) through a fresh hierarchy.
	trace := addressTrace(insts, cc.Core.FetchWidth)
	h2 := mem.NewHierarchy(cc.Hier)
	h2.SetFrequencyGHz(ghz)
	sp = root.Child(spanMem)
	for _, a := range trace {
		switch a.kind {
		case accessFetch:
			h2.FetchAccess(a.addr)
		case accessLoad:
			h2.LoadAccess(a.addr, a.unaligned)
		default:
			h2.StoreAccess(a.addr, int(a.size), a.unaligned)
		}
	}
	sp.End()
	w.accesses += uint64(len(trace))

	// The branch predictor alone, over the stream's control flow.
	var brs []isa.Inst
	for i := range insts {
		if insts[i].Op.IsBranch() {
			brs = append(brs, insts[i])
		}
	}
	p2 := branch.New(cc.Branch)
	sp = root.Child(spanBranch)
	for i := range brs {
		in := &brs[i]
		switch in.Op {
		case isa.OpBranch:
			p2.PredictCond(in.PC, in.Taken, in.Target)
		case isa.OpCall:
			p2.Call(in.PC, in.Target, in.PC+4)
		case isa.OpReturn:
			p2.Return(in.PC, in.Target)
		default:
			p2.Indirect(in.PC, in.Target)
		}
	}
	sp.End()
	w.branches += uint64(len(brs))

	// The platform: a sweep's first run records the DVFS trace, the rest
	// replay it; then the same sweep at the atomic tier.
	sc := platform.NewSimContext(pl)
	var first platform.Measurement
	for i, f := range freqs {
		name := spanReplay
		if i == 0 {
			name = spanRecord
		}
		sp = root.Child(name, obs.Int("freq_mhz", f))
		m, err := sc.Run(prof, cluster, f)
		sp.End()
		if err != nil {
			return false, err
		}
		if i == 0 {
			first = m
			w.recordInsts += m.Sample.Tally.Committed
		} else {
			w.replayInsts += m.Sample.Tally.Committed
		}
		w.runs++
	}
	atomicCtx := platform.NewSimContext(pl)
	for _, f := range freqs {
		sp = root.Child(spanAtomic, obs.Int("freq_mhz", f))
		_, err := atomicCtx.RunFidelity(prof, cluster, f, platform.FidelityAtomic, nil)
		sp.End()
		if err != nil {
			return false, err
		}
		w.atomicRuns++
	}
	return first.Sample.Tally == tally, nil
}

// expand materialises a profile's whole instruction stream.
func expand(prof workload.Profile) []isa.Inst {
	g := workload.NewGenerator(prof)
	insts := make([]isa.Inst, 0, prof.TotalInsts)
	for {
		insts = slices.Grow(insts, 4096)
		n := g.NextBlock(insts[len(insts):cap(insts)])
		if n == 0 {
			return insts
		}
		insts = insts[:len(insts)+n]
	}
}

const (
	accessFetch = iota
	accessLoad
	accessStore
)

type access struct {
	addr      uint64
	kind      uint8
	size      uint8
	unaligned bool
}

// addressTrace extracts the memory accesses a stream makes: one
// instruction fetch per fetch group entered, as the pipelines issue them,
// and every data load and store.
func addressTrace(insts []isa.Inst, fetchWidth int) []access {
	fetchBytes := uint64(fetchWidth) * 4
	cur := ^uint64(0)
	var out []access
	for i := range insts {
		in := &insts[i]
		if g := in.PC / fetchBytes; g != cur {
			cur = g
			out = append(out, access{addr: in.PC, kind: accessFetch})
		}
		switch {
		case in.Op.IsLoad():
			out = append(out, access{addr: in.Addr, kind: accessLoad, unaligned: in.Unaligned})
		case in.Op.IsStore():
			out = append(out, access{addr: in.Addr, kind: accessStore, size: in.Size, unaligned: in.Unaligned})
		}
	}
	return out
}

// selfTimes sums each span name's self time: its duration minus the part
// its direct children cover. Spans nest by interval on one lane.
func selfTimes(events []obs.Event) map[string]time.Duration {
	type lane struct{ proc, lane int }
	byLane := map[lane][]obs.Event{}
	for _, ev := range events {
		k := lane{ev.Proc, ev.Lane}
		byLane[k] = append(byLane[k], ev)
	}
	self := map[string]time.Duration{}
	for _, evs := range byLane {
		// Parents first: earlier start, and the longer span on a tie.
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].Start != evs[j].Start {
				return evs[i].Start < evs[j].Start
			}
			return evs[i].Dur > evs[j].Dur
		})
		children := make([]time.Duration, len(evs))
		var stack []int
		for i, ev := range evs {
			for len(stack) > 0 {
				top := evs[stack[len(stack)-1]]
				if top.Start+top.Dur > ev.Start {
					break
				}
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				children[stack[len(stack)-1]] += ev.Dur
			}
			stack = append(stack, i)
		}
		for i, ev := range evs {
			self[ev.Name] += ev.Dur - children[i]
		}
	}
	return self
}

// timedCache wraps the run cache's disk tier to time its puts and gets.
type timedCache struct {
	inner        core.RunCache
	putNS, getNS atomic.Int64
	puts, gets   atomic.Int64
}

func (c *timedCache) Get(key string) (platform.Measurement, bool) {
	t0 := time.Now()
	m, ok := c.inner.Get(key)
	c.getNS.Add(int64(time.Since(t0)))
	c.gets.Add(1)
	return m, ok
}

func (c *timedCache) Put(key string, m platform.Measurement) {
	t0 := time.Now()
	c.inner.Put(key, m)
	c.putNS.Add(int64(time.Since(t0)))
	c.puts.Add(1)
}

// probeCampaigns drives the campaign engine over the probe sample: a
// detailed campaign per platform into a disk-backed run cache, warm
// replays, the analyses, a screen, and untraced/traced campaign pairs.
func probeCampaigns(ctx context.Context, e *env, hwPl, v1 *platform.Platform, sample []workload.Profile,
	tracer *obs.Tracer, m map[string]float64) ([]check, error) {
	dir, err := os.MkdirTemp(e.tmp, "probe-cache-*")
	if err != nil {
		return nil, err
	}
	disk, err := core.NewDiskCache(dir)
	if err != nil {
		return nil, err
	}
	tc := &timedCache{inner: disk}

	// One worker on the reference, so its busy time is the sum of the
	// runs the layer probes attribute; two on the model, as campaigns run.
	hwStats, v1Stats := core.NewMetrics(), core.NewMetrics()
	opt := core.CollectOptions{Workloads: sample, Workers: 1, Observer: hwStats,
		Cache: core.NewTieredCache(core.NewMemoryCache(0), tc)}
	hwRS, err := core.Collect(ctx, hwPl, opt)
	if err != nil {
		return nil, err
	}
	opt.Workers, opt.Observer = campaignWorkers, v1Stats
	v1RS, err := core.Collect(ctx, v1, opt)
	if err != nil {
		return nil, err
	}
	hs, vs := hwStats.LastCampaign(), v1Stats.LastCampaign()
	m["core.plan_ms"] = float64(hs.PlanTime+vs.PlanTime) / 2 / 1e6
	m["core.sim_busy_s"] = hs.SimTime.Seconds()
	m["core.worker_idle_ratio"] = 1 - vs.SimTime.Seconds()/(float64(campaignWorkers)*vs.WallTime.Seconds())
	m["core.cache_put_us"] = float64(tc.putNS.Load()) / float64(tc.puts.Load()) / 1e3

	// Warm replays through a fresh memory tier over the disk tier.
	gets0, getNS0 := tc.gets.Load(), tc.getNS.Load()
	warm := core.NewMetrics()
	var replayMS []float64
	for r := 0; r < probeWarmReplays; r++ {
		o := core.CollectOptions{Workloads: sample, Workers: campaignWorkers, Observer: warm,
			Cache: core.NewTieredCache(core.NewMemoryCache(0), tc)}
		t0 := time.Now()
		for _, pl := range []*platform.Platform{hwPl, v1} {
			if _, err := core.Collect(ctx, pl, o); err != nil {
				return nil, err
			}
		}
		replayMS = append(replayMS, float64(time.Since(t0))/1e6)
	}
	m["core.warm_replay_ms"] = median(replayMS)
	m["core.cache_get_us"] = float64(tc.getNS.Load()-getNS0) / float64(tc.gets.Load()-gets0) / 1e3
	ws := warm.Stats()
	checks := []check{newCheck("probe-warm-hits", ws.Simulated == 0 && ws.CacheHits == ws.Jobs,
		"%d of %d warm replay jobs hit the cache", ws.CacheHits, ws.Jobs)}

	t0 := time.Now()
	for _, cl := range []string{hw.ClusterA7, hw.ClusterA15} {
		if _, err := core.Validate(hwRS, v1RS, cl); err != nil {
			return nil, err
		}
	}
	if _, err := core.PMCErrorCorrelation(hwRS, v1RS, hw.ClusterA15, 1000, 8); err != nil {
		return nil, err
	}
	m["core.analysis_ms"] = float64(time.Since(t0)) / 1e6

	// The screen, timed per phase through its Collect hook; its atomic
	// sweeps are kept to score the tier against the detailed campaign.
	var atomicNS, resimNS time.Duration
	atomicSets := map[string]*core.RunSet{}
	hook := func(ctx context.Context, pl *platform.Platform, o core.CollectOptions) (*core.RunSet, error) {
		t0 := time.Now()
		rs, err := core.Collect(ctx, pl, o)
		if o.Fidelity == platform.FidelityAtomic {
			atomicNS += time.Since(t0)
			if err == nil {
				// A copy: the screen writes its re-simulations into rs.
				atomicSets[pl.Name()] = &core.RunSet{Platform: rs.Platform, Runs: maps.Clone(rs.Runs)}
			}
		} else {
			resimNS += time.Since(t0)
		}
		return rs, err
	}
	t0 = time.Now()
	res, err := core.Screen(ctx, hwPl, v1, core.ScreenOptions{
		Options: core.CollectOptions{Workloads: sample, Workers: campaignWorkers}, Collect: hook})
	if err != nil {
		return nil, err
	}
	total := time.Since(t0)
	m["core.screen_atomic_s"] = atomicNS.Seconds()
	m["core.screen_resim_s"] = resimNS.Seconds()
	m["core.screen_rank_ms"] = float64(total-atomicNS-resimNS) / 1e6
	m["core.screen_flagged"] = float64(len(res.Flagged))
	var apes []float64
	for _, det := range []*core.RunSet{hwRS, v1RS} {
		at := atomicSets[det.Platform]
		for k, d := range det.Runs {
			apes = append(apes, 100*math.Abs(at.Runs[k].Seconds-d.Seconds)/d.Seconds)
		}
	}
	m["platform.atomic_ape_p99_pct"] = percentile(apes, 0.99)
	m["core.screen_recall"] = screenRecall(hwRS, v1RS, res.Flagged, core.ScreenDefaultTopK)

	// Tracing overhead: untraced and traced reference campaigns in
	// alternating pairs; the median of the pairs' ratios shrugs off a
	// one-off stall of either side.
	var ratios []float64
	for r := 0; r < probeOverheadPairs; r++ {
		var secs [2]float64
		for i, t := range []*obs.Tracer{nil, tracer} {
			t0 := time.Now()
			if _, err := core.Collect(ctx, hwPl, core.CollectOptions{Workloads: sample, Workers: 1, Tracer: t}); err != nil {
				return nil, err
			}
			secs[i] = time.Since(t0).Seconds()
		}
		ratios = append(ratios, secs[1]/secs[0])
	}
	m["obs.trace_overhead_pct"] = 100 * (median(ratios) - 1)
	return checks, nil
}

// screenRecall is the share of the k points with the largest detailed
// |percent error| that the screen flagged.
func screenRecall(hwRS, simRS *core.RunSet, flagged []core.RunKey, k int) float64 {
	keys := sortedKeys(hwRS.Runs)
	pe := map[core.RunKey]float64{}
	for _, key := range keys {
		pe[key] = math.Abs(stats.PercentError(hwRS.Runs[key].Seconds, simRS.Runs[key].Seconds))
	}
	sort.SliceStable(keys, func(i, j int) bool { return pe[keys[i]] > pe[keys[j]] })
	if len(keys) > k {
		keys = keys[:k]
	}
	isFlagged := map[core.RunKey]bool{}
	for _, f := range flagged {
		isFlagged[f] = true
	}
	hit := 0
	for _, key := range keys {
		if isFlagged[key] {
			hit++
		}
	}
	return float64(hit) / float64(len(keys))
}

// probeService runs sample's a15 sweep as one campaign through gemstone
// serve with two gemstoned workers, and reads the service's own accounting
// of it from /metrics.
func probeService(ctx context.Context, sample []workload.Profile, m map[string]float64) (check, error) {
	fleet, err := load.StartFleet(load.FleetConfig{Workers: 2})
	if err != nil {
		return check{}, err
	}
	defer fleet.Close()
	spec := serve.CampaignSpec{Cluster: hw.ClusterA15, FreqsMHz: hw.ExperimentFrequencies(hw.ClusterA15)}
	for _, p := range sample {
		spec.Workloads = append(spec.Workloads, p.Name)
	}
	client := &serveClient{url: fleet.URL, tenant: "probe"}
	before, err := client.metrics(ctx)
	if err != nil {
		return check{}, err
	}
	t0 := time.Now()
	sets, err := client.campaign(ctx, spec)
	if err != nil {
		return check{}, err
	}
	m["serve.campaign_ms"] = float64(time.Since(t0)) / 1e6
	after, err := client.metrics(ctx)
	if err != nil {
		return check{}, err
	}
	for _, phase := range []string{"queued", "leased", "simulating", "collating"} {
		match := map[string]string{"phase": phase}
		sum := load.SumDelta(before, after, "gemstone_serve_slo_phase_seconds_sum", match)
		n := load.SumDelta(before, after, "gemstone_serve_slo_phase_seconds_count", match)
		m["serve."+phase+"_ms"] = 1e3 * sum / n
	}
	m["dist.retries"] = load.SumDelta(before, after, "gemstone_dist_retries_total", nil)
	m["dist.http_errors"] = load.SumDelta(before, after, "gemstone_dist_http_errors_total", nil)

	// The served archives must equal a local collect of the same spec.
	opt := core.CollectOptions{Workloads: sample, Clusters: []string{hw.ClusterA15},
		Freqs: map[string][]int{hw.ClusterA15: spec.FreqsMHz}, Workers: campaignWorkers}
	for i, pl := range []*platform.Platform{hw.Platform(), gem5.Platform(gem5.V1)} {
		local, err := core.Collect(ctx, pl, opt)
		if err != nil {
			return check{}, err
		}
		if runSetDigest(local) != runSetDigest(sets[i]) {
			return newCheck("probe-served", false, "served %s archive differs from a local collect", pl.Name()), nil
		}
	}
	return newCheck("probe-served", true, "archives served through the dist wire equal a local collect"), nil
}

// writeTrace writes the traced pass's spans as a Chrome trace.
func writeTrace(t *obs.Tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := t.WriteChromeTrace(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
