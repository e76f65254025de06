package platform

import (
	"fmt"

	"gemstone/internal/branch"
	"gemstone/internal/isa"
	"gemstone/internal/mem"
	"gemstone/internal/obs"
	"gemstone/internal/pipeline"
	"gemstone/internal/pmu"
	"gemstone/internal/workload"
	"gemstone/internal/xrand"
)

// clusterSim is the reusable simulation state for one cluster: the memory
// hierarchy, branch predictor and core are built once and Reset between
// runs instead of reallocated.
type clusterSim struct {
	hier *mem.Hierarchy
	pred *branch.Predictor
	core *pipeline.Core

	// kept is the cluster's recorded detailed run, once keeps is set: a
	// per-point RunFidelity records one, and a later point of the same
	// workload replays its log on one timing lane at its own clock (points
	// that arrive one run at a time, as internal/dist dispatches them).
	// It is a value no other run touches: sample is the PMU sample taken
	// when it was recorded, and a replayed point takes it with its own
	// tally and clock, since no clock changes the hierarchy and predictor
	// statistics it holds. A zero prof keeps nothing.
	kept struct {
		prof   workload.Profile
		log    pipeline.Log
		sample pmu.Sample
	}
	// A log costs 24 bytes per instruction for as long as the context
	// lives, so a cluster keeps logs only once two consecutive detailed
	// RunFidelity calls have run the same workload (point is the last
	// one's): its points then arrive as sweeps. A context that only ever
	// sees one point per workload, as when a service primes one frequency
	// of a catalogue, never holds one, and streams those points from the
	// generator without expanding them either.
	point workload.Profile
	keeps bool

	// Atomic-tier anchor cache (see atomic.go): the truncated detailed
	// samples at the cluster's DVFS extremes for the most recently
	// predicted workload. It is one-entry because a core.Collect worker
	// runs whole sweeps, so one context sees every point of a sweep back
	// to back.
	anchors atomicAnchors
}

// SimContext runs workloads on a Platform while reusing all heavyweight
// simulation state between runs, for both simulation tiers: every run
// goes through RunSweep, a single point (RunFidelity) being a sweep of
// one. A fresh Hierarchy/Predictor/Core costs hundreds of kilobytes of
// allocation per run; a campaign performs thousands of runs, so the
// cold-campaign allocation profile was dominated by this churn. The
// context keeps one clusterSim per cluster (Reset() restores
// just-constructed state, so results are bit-identical to fresh
// construction — the golden equivalence tests pin this) and a one-entry
// cache of the most recently expanded instruction stream.
//
// An expansion exists only to be replayed: by the workload's next sweep
// (core.Collect's workers claim whole workload groups, every cluster and
// frequency of one workload, falling back to whole (workload, cluster)
// sweeps when a campaign has fewer workloads than workers, and run each
// sweep in one RunSweep), by the atomic tier's anchor pass, or by a
// one-point run whose cluster records (see clusterSim.point), which
// sizes its log from it and leaves it to the other cluster's points.
// Any other one-point run (internal/dist dispatches per job) streams
// from the generator, so a context that sees one point per workload
// holds no expansion.
//
// A SimContext is not safe for concurrent use; create one per worker.
type SimContext struct {
	p *Platform
	// sims holds the reused per-cluster state. It is nil only on the
	// transient context inside Platform.Run, which reuses nothing: fresh
	// state per run, the generator handed straight to the core, no kept
	// run.
	sims map[string]*clusterSim

	// One-entry expanded-stream cache, keyed by the (comparable) Profile,
	// stored packed (see packedInst). The zero streamProf, which no
	// validated profile equals, keys nothing.
	streamProf workload.Profile
	streamBuf  []packedInst

	// Per-sweep scratch: the resolved points, their DRAM clocks and their
	// lanes' tallies.
	pts     []point
	clocks  []mem.Clock
	tallies []pipeline.Tally
}

// NewSimContext returns a context that reuses per-cluster state and
// caches expanded streams and atomic anchors.
func NewSimContext(p *Platform) *SimContext {
	return &SimContext{p: p, sims: make(map[string]*clusterSim)}
}

// sim returns ready-to-run simulation state for cl: reset (or, the first
// time and on the transient context, freshly built) and carrying prof's
// contention model. The caller clocks the core through ClockAt.
func (sc *SimContext) sim(cl ClusterConfig, prof workload.Profile) *clusterSim {
	s, ok := sc.sims[cl.Name]
	if ok {
		s.hier.Reset()
		s.pred.Reset()
	} else {
		hier := mem.NewHierarchy(cl.Hier)
		pred := branch.New(cl.Branch)
		s = &clusterSim{hier: hier, pred: pred, core: pipeline.NewCore(cl.Core, hier, pred)}
		if sc.sims != nil {
			sc.sims[cl.Name] = s
		}
	}
	s.core.Sync = nil
	if prof.IsParallel() {
		scale := cl.ContentionScale
		if scale == 0 {
			scale = 1
		}
		s.core.Sync = pipeline.NewSyncModel(
			prof.Seed()^0xC0FFEE,
			prof.SnoopProb*scale, prof.BarrierWaitMean*scale, prof.StrexFailProb*scale)
	}
	return s
}

// expand returns prof's instruction stream, expanded once into the
// context's reused buffer, for callers that will replay it: a later sweep
// of the same workload (other cluster, other frequency, or the atomic
// tier after the detailed one) skips regeneration entirely. The slice
// packs the exact sequence the generator produces; replay it with a
// packedStream. The buffer is sized once, to prof.MaxStreamLen(), and
// never regrown: a smaller workload reuses it as is.
func (sc *SimContext) expand(prof workload.Profile) []packedInst {
	if sc.streamProf != prof {
		buf := sc.streamBuf[:0]
		if bound := prof.MaxStreamLen(); cap(buf) < bound {
			buf = make([]packedInst, 0, bound)
		}
		g := workload.NewGenerator(prof)
		var block [256]isa.Inst
		for n := g.NextBlock(block[:]); n > 0; n = g.NextBlock(block[:]) {
			if len(buf)+n > cap(buf) {
				panic(fmt.Sprintf("platform: %s overran its stream bound of %d instructions", prof.Name, cap(buf)))
			}
			for _, in := range block[:n] {
				buf = append(buf, pack(in))
			}
		}
		sc.streamBuf = buf
		sc.streamProf = prof
	}
	return sc.streamBuf
}

// Run executes the workload on the named cluster at freqMHz at the
// detailed tier, reusing the context's simulation state. See Platform.Run
// for the measurement semantics; results are bit-identical.
func (sc *SimContext) Run(prof workload.Profile, cluster string, freqMHz int) (Measurement, error) {
	return sc.RunFidelity(prof, cluster, freqMHz, FidelityDetailed, nil)
}

// point is one resolved operating point: the prologue both tiers share.
type point struct {
	prof    workload.Profile
	cl      ClusterConfig
	freqMHz int
	volt    float64
	ghz     float64
}

// RunFidelity executes the workload on the named cluster at freqMHz at
// the requested simulation tier: RunSweep of one point, for callers that
// receive a sweep's points one at a time. On the reusing context a
// detailed run records itself as the cluster's kept run (once the
// cluster's points arrive as sweeps; see clusterSim), and a later point
// of the same workload on that cluster replays it: only the timing lane
// at its clock runs, so its trace has a "pipeline" phase but no "expand".
func (sc *SimContext) RunFidelity(prof workload.Profile, cluster string, freqMHz int, fid Fidelity, parent *obs.Span) (Measurement, error) {
	freqs := [1]int{freqMHz}
	var buf [1]Measurement
	ms, err := sc.sweep(prof, cluster, freqs[:], fid, sc.sims != nil, parent, buf[:0])
	if err != nil {
		return Measurement{}, err
	}
	return ms[0], nil
}

// RunSweep executes the workload on the named cluster at each of freqs,
// in order, at the requested simulation tier, recording the simulator
// phases as children of parent (a nil parent runs untraced). Each
// Measurement is bit-identical to a RunFidelity of its point; the sweep
// shares the frequency-invariant work between its points:
//
//   - FidelityDetailed walks the stream once: "expand" (simulation state
//     and workload expansion) and "pipeline" (the timing model, one lane
//     per point; see pipeline.Core.RunSweep) once, then per point
//     "collate" (the PMU walk over the memory-hierarchy and predictor
//     statistics, annotated with the point's tally).
//   - FidelityAtomic predicts each point from the workload's anchor runs
//     (see atomic.go): "anchor" with one two-lane "anchor_pass" at the
//     DVFS extremes when the cluster's cached anchors belong to another
//     workload, then "predict" per point. Its Measurements are marked
//     with their Fidelity.
//
// On sensored platforms every point ends with a "power" phase.
//
// The points are resolved in order. If one does not resolve (its
// frequency is not in the cluster's DVFS table), RunSweep runs the points
// before it and returns their Measurements with that point's error; an
// unknown cluster, an invalid profile or an unknown tier fails the first
// point.
func (sc *SimContext) RunSweep(prof workload.Profile, cluster string, freqs []int, fid Fidelity, parent *obs.Span) ([]Measurement, error) {
	return sc.sweep(prof, cluster, freqs, fid, false, parent, make([]Measurement, 0, len(freqs)))
}

// sweep is RunSweep appending to out; a detailed sweep with keep set (one
// point, on the reusing context) records or replays the cluster's event
// log.
func (sc *SimContext) sweep(prof workload.Profile, cluster string, freqs []int, fid Fidelity, keep bool, parent *obs.Span, out []Measurement) ([]Measurement, error) {
	cl, err := sc.p.Cluster(cluster)
	if err != nil {
		return out, err
	}
	if err := prof.Validate(); err != nil {
		return out, err
	}
	if !fid.Valid() {
		return out, fmt.Errorf("platform: unknown fidelity %d", fid)
	}
	pts := sc.pts[:0]
	var ptErr error
	for _, f := range freqs {
		volt, err := cl.Voltage(f)
		if err != nil {
			ptErr = err
			break
		}
		pts = append(pts, point{prof: prof, cl: cl, freqMHz: f, volt: volt, ghz: float64(f) / 1000})
	}
	sc.pts = pts
	if len(pts) == 0 {
		return out, ptErr
	}

	switch fid {
	case FidelityDetailed:
		base, tallies := sc.simulate(pts, keep, parent)
		for i, pt := range pts {
			out = append(out, sc.measure(pt, collate(&base, tallies[i], pt, parent), fid, parent))
		}
	case FidelityAtomic:
		an, err := sc.anchors(cl, prof, parent)
		if err != nil {
			return out, err
		}
		for _, pt := range pts {
			out = append(out, sc.measure(pt, predict(an, pt, parent), fid, parent))
		}
	}
	return out, ptErr
}

// simulate runs the sweep's points through the detailed timing model in
// one pass, one lane per point, and returns the run's PMU sample of the
// hierarchy and predictor statistics and the lanes' tallies. With keep set
// (one point) it replays the cluster's kept run when that run is of the
// same workload, and otherwise records one if the cluster keeps logs (see
// clusterSim.point). The "expand" span's stream attribute says where the
// instructions came from: "cached" (the context's expansion already held
// the workload), "expanded" (written into it) or "generated" (streamed
// from the generator).
func (sc *SimContext) simulate(pts []point, keep bool, parent *obs.Span) (pmu.Sample, []pipeline.Tally) {
	pt := pts[0]
	if cap(sc.tallies) < len(pts) {
		sc.tallies = make([]pipeline.Tally, len(pts))
	}
	tallies := sc.tallies[:len(pts)]
	if s := sc.sims[pt.cl.Name]; keep && s != nil && s.kept.prof == pt.prof {
		sp := parent.Child("pipeline")
		tallies[0] = s.core.Replay(&s.kept.log, s.hier.ClockAt(pt.ghz))
		endPipeline(sp, tallies)
		return s.kept.sample, tallies
	}

	sp := parent.Child("expand")
	s := sc.sim(pt.cl, pt.prof)
	clocks := sc.clocks[:0]
	for _, p := range pts {
		clocks = append(clocks, s.hier.ClockAt(p.ghz))
	}
	sc.clocks = clocks
	if keep {
		s.keeps = s.keeps || s.point == pt.prof
		s.point = pt.prof
	}
	record := keep && s.keeps
	// Expand only what will be replayed (see SimContext): a multi-point
	// sweep's stream, or a recording's, which sizes the log exactly. A
	// one-point run that records nothing, and the transient context,
	// hand the generator straight to the core.
	var stream isa.BlockStream
	var n int
	how := "generated"
	if cached := sc.streamProf == pt.prof; sc.sims != nil && (cached || !keep || record) {
		how = "expanded"
		if cached {
			how = "cached"
		}
		insts := sc.expand(pt.prof)
		stream, n = &packedStream{insts: insts}, len(insts)
	} else {
		stream = workload.NewGenerator(pt.prof)
	}
	if sp != nil {
		sp.Annotate(obs.String("stream", how))
		sp.End()
	}

	sp = parent.Child("pipeline")
	if record {
		tallies[0] = s.core.Record(stream, n, clocks[0], &s.kept.log)
	} else {
		s.core.RunSweep(stream, clocks, tallies)
	}
	endPipeline(sp, tallies)
	sample := pmu.Capture(pipeline.Tally{}, s.hier, s.pred, 0)
	if record {
		s.kept.prof, s.kept.sample = pt.prof, sample
	}
	return sample, tallies
}

// endPipeline ends a "pipeline" span. Its attributes are built only on
// traced runs; boxing them on every untraced run was a measurable slice
// of campaign allocations.
func endPipeline(sp *obs.Span, tallies []pipeline.Tally) {
	if sp != nil {
		sp.Annotate(obs.Int("lanes", len(tallies)), obs.Uint64("insts", tallies[0].Committed))
		sp.End()
	}
}

// collate is one point's PMU sample: base, the run's frequency-invariant
// hierarchy and predictor statistics, with the point's lane tally and
// clock.
func collate(base *pmu.Sample, tally pipeline.Tally, pt point, parent *obs.Span) pmu.Sample {
	sp := parent.Child("collate")
	sample := *base
	sample.Tally, sample.FreqGHz = tally, pt.ghz
	if sp != nil {
		sp.Annotate(obs.Int("freq_mhz", pt.freqMHz),
			obs.Uint64("cycles", tally.Cycles), obs.Float64("ipc", tally.IPC()),
			obs.Uint64("mem_stall_cycles", tally.MemStallCycles),
			obs.Uint64("branch_stall_cycles", tally.BranchStallCycles),
			obs.Uint64("l1d_misses", sample.L1D.Misses()),
			obs.Uint64("l2_misses", sample.L2.Misses()))
		sp.End()
	}
	return sample
}

// measure assembles the point's Measurement from its sample and, on
// sensored platforms, runs the sensor post-processing. The sensor noise
// seed depends only on (workload, cluster, frequency), so an atomic
// prediction's power error is purely its sample error's image.
func (sc *SimContext) measure(pt point, sample pmu.Sample, fid Fidelity, parent *obs.Span) Measurement {
	m := Measurement{
		Platform: sc.p.cfg.Name,
		Cluster:  pt.cl.Name,
		Workload: pt.prof.Name,
		FreqMHz:  pt.freqMHz,
		VoltageV: pt.volt,
		Sample:   sample,
		Seconds:  sample.Seconds(),
		Fidelity: fid,
	}
	if !sc.p.cfg.HasSensors || pt.cl.Power == nil {
		return m
	}
	sp := parent.Child("power")
	noise := xrand.New(pt.prof.Seed() ^ uint64(pt.freqMHz)<<20 ^ xrand.HashString(pt.cl.Name))
	pw, temp, throttled := MeasurePower(pt.cl.Power, pt.cl.Thermal, &m.Sample, pt.volt, pt.ghz, noise)
	m.PowerWatts = pw
	m.TemperatureC = temp
	m.Throttled = throttled
	m.EnergyJoules = pw * m.Seconds
	if sp != nil {
		sp.Annotate(obs.Float64("power_w", pw), obs.Float64("temp_c", temp),
			obs.Bool("throttled", throttled))
		sp.End()
	}
	return m
}
