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

	// DVFS trace of the most recently simulated workload on this cluster
	// (see mem.DVFSTrace): a campaign sweeps the same workload across every
	// operating point, and the memory-system event stream is
	// frequency-invariant, so the first run records the per-access latency
	// decomposition and the remaining frequencies replay it — bit-identical
	// results at a fraction of the work.
	trace     mem.DVFSTrace
	traceProf workload.Profile
	traceOK   bool

	// Atomic-tier anchor cache (see atomic.go): the truncated detailed
	// samples at the cluster's DVFS extremes for the most recently
	// predicted workload. Like the DVFS trace it is one-entry because a
	// core.Collect worker claims whole workload groups, or whole sweeps,
	// so one context sees every point of a sweep back to back (see
	// SimContext; internal/dist still dispatches per job).
	anchors atomicAnchors
	// anchorTraces are the anchor passes' per-checkpoint memory traces,
	// kept apart from trace so that an anchor computation never displaces
	// the detailed tier's full-run trace, and kept here so that their
	// storage is reused across anchor computations.
	anchorTraces [3]mem.DVFSTrace
}

// SimContext runs workloads on a Platform while reusing all heavyweight
// simulation state between runs, for both simulation tiers: every point
// goes through RunFidelity. A fresh Hierarchy/Predictor/Core costs
// hundreds of kilobytes of allocation per run; a campaign performs
// thousands of runs, so the cold-campaign allocation profile was dominated
// by this churn. The context keeps one clusterSim per cluster (Reset()
// restores just-constructed state, so results are bit-identical to fresh
// construction — the golden equivalence tests pin this) and a one-entry
// cache of the most recently expanded instruction stream, which pays off
// when consecutive runs share a workload. core.Collect arranges that: its
// workers claim whole workload groups, every cluster and frequency of one
// workload, falling back to whole (workload, cluster) sweeps when a
// campaign has fewer workloads than workers. internal/dist still
// dispatches per job, so a remote worker's context reuses less.
//
// A SimContext is not safe for concurrent use; create one per worker.
type SimContext struct {
	p *Platform
	// sims holds the reused per-cluster state. It is nil only on the
	// transient context inside Platform.Run, which reuses nothing: fresh
	// state per run, the generator handed straight to the core, no DVFS
	// trace.
	sims map[string]*clusterSim

	// One-entry expanded-stream cache, keyed by the (comparable) Profile,
	// stored packed (see packedInst).
	streamProf workload.Profile
	streamOK   bool
	streamBuf  []packedInst

	// ScalarStreams forces the timing models onto the scalar Next() path
	// by hiding the BlockStream fast path of every stream handed to the
	// core. It exists for the golden equivalence tests, which prove the
	// batched and scalar paths produce bit-identical Measurements.
	ScalarStreams bool
}

// NewSimContext returns a context that reuses per-cluster state and
// caches expanded streams and atomic anchors.
func NewSimContext(p *Platform) *SimContext {
	return &SimContext{p: p, sims: make(map[string]*clusterSim)}
}

// sim returns ready-to-run simulation state for cl: reset (or, the first
// time and on the transient context, freshly built), clocked at ghz and
// carrying prof's contention model.
func (sc *SimContext) sim(cl ClusterConfig, prof workload.Profile, ghz float64) *clusterSim {
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
	s.hier.SetFrequencyGHz(ghz)
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
// context's reused buffer: consecutive runs of the same workload (other
// cluster, other frequency, or the atomic tier's second anchor pass) skip
// regeneration entirely. The slice packs the exact sequence the generator
// produces; replay it with a packedStream. The buffer is sized once, to
// prof.MaxStreamLen(), and never regrown: a smaller workload reuses it as
// is.
func (sc *SimContext) expand(prof workload.Profile) []packedInst {
	if !sc.streamOK || sc.streamProf != prof {
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
		sc.streamOK = true
	}
	return sc.streamBuf
}

func (sc *SimContext) wrap(s isa.Stream) isa.Stream {
	if sc.ScalarStreams {
		return scalarStream{s}
	}
	return s
}

// scalarStream hides the BlockStream fast path of the underlying stream so
// the timing models take the scalar Next fallback. Equivalence tests use
// it to drive both delivery paths over identical sequences.
type scalarStream struct{ s isa.Stream }

// Next implements isa.Stream.
func (s scalarStream) Next() (isa.Inst, bool) { return s.s.Next() }

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
// the requested simulation tier, recording the simulator phases as
// children of parent (a nil parent runs untraced). It resolves the point,
// obtains the tier's PMU sample, and assembles the Measurement from it:
//
//   - FidelityDetailed runs the full timing model: "expand" (simulation
//     state and workload expansion), "pipeline" (the timing-model
//     execution) and "collate" (the PMU walk over the memory-hierarchy
//     and predictor statistics).
//   - FidelityAtomic predicts the sample from the workload's anchor runs
//     (see atomic.go): "anchor" with one "anchor_pass" per DVFS extreme
//     on the first point of a sweep (the anchors are cached per cluster),
//     then "predict". The Measurement is marked with its Fidelity.
//
// On sensored platforms both tiers end with the same "power" phase.
func (sc *SimContext) RunFidelity(prof workload.Profile, cluster string, freqMHz int, fid Fidelity, parent *obs.Span) (Measurement, error) {
	cl, err := sc.p.Cluster(cluster)
	if err != nil {
		return Measurement{}, err
	}
	volt, err := cl.Voltage(freqMHz)
	if err != nil {
		return Measurement{}, err
	}
	if err := prof.Validate(); err != nil {
		return Measurement{}, err
	}
	pt := point{prof: prof, cl: cl, freqMHz: freqMHz, volt: volt, ghz: float64(freqMHz) / 1000}

	var sample pmu.Sample
	switch fid {
	case FidelityDetailed:
		sample = sc.simulate(pt, parent)
	case FidelityAtomic:
		sample, err = sc.predict(pt, parent)
	default:
		err = fmt.Errorf("platform: unknown fidelity %d", fid)
	}
	if err != nil {
		return Measurement{}, err
	}
	return sc.measure(pt, sample, fid, parent), nil
}

// simulate runs the point through the detailed timing model.
func (sc *SimContext) simulate(pt point, parent *obs.Span) pmu.Sample {
	sp := parent.Child("expand")
	s := sc.sim(pt.cl, pt.prof, pt.ghz)
	hier := s.hier
	// The reusing context replays the cached expansion and arms DVFS
	// trace replay when it just simulated the same workload on this
	// cluster (at another frequency); otherwise it records.
	var stream isa.Stream
	replaying, tracing := false, sc.sims != nil
	if tracing {
		stream = &packedStream{insts: sc.expand(pt.prof)}
		if s.traceOK && s.traceProf == pt.prof {
			replaying = hier.BeginTraceReplay(&s.trace)
		} else {
			s.traceOK = false
			hier.BeginTraceRecord(&s.trace)
		}
	} else {
		stream = workload.NewGenerator(pt.prof)
	}
	sp.End()

	sp = parent.Child("pipeline")
	tally := s.core.Run(sc.wrap(stream))
	if replaying {
		hier.EndTraceReplay()
	} else if tracing {
		hier.EndTraceRecord()
		if s.trace.Valid() {
			s.traceProf = pt.prof
			s.traceOK = true
		}
	}
	// Attributes are built only on traced runs; boxing them on every
	// untraced run was a measurable slice of campaign allocations.
	if sp != nil {
		sp.Annotate(obs.Uint64("cycles", tally.Cycles), obs.Uint64("insts", tally.Committed),
			obs.Float64("ipc", tally.IPC()),
			obs.Uint64("mem_stall_cycles", tally.MemStallCycles),
			obs.Uint64("branch_stall_cycles", tally.BranchStallCycles))
		sp.End()
	}

	sp = parent.Child("collate")
	sample := pmu.Capture(tally, hier, s.pred, pt.ghz)
	if sp != nil {
		sp.Annotate(obs.Uint64("l1d_misses", sample.L1D.Misses()),
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
