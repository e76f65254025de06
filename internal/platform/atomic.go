package platform

import (
	"fmt"
	"math"
	"reflect"

	"gemstone/internal/mem"
	"gemstone/internal/obs"
	"gemstone/internal/pipeline"
	"gemstone/internal/pmu"
	"gemstone/internal/workload"
)

// Atomic-tier prediction. The detailed tier's cost is linear in the
// instruction budget; the atomic tier instead runs only a short prefix of
// the workload through the detailed simulator and extrapolates every PMU
// counter to the full budget. Two effects make the naive "scale the prefix"
// estimate wrong and drive the design:
//
//  1. Warm-up transients. Cache, TLB and predictor cold misses concentrate
//     in the prefix, so per-instruction event rates fall as the run
//     progresses — for pointer-chasing workloads the transient spans a
//     large fraction of the whole run. The anchor pass therefore captures
//     *three* cumulative checkpoints (at 1/4, 1/2 and all of the anchor
//     budget) and extrapolates each counter with a geometric-decay tail:
//     the per-instruction marginal rate of the last observed segment is
//     carried forward, decaying per budget-doubling by the decay ratio
//     measured between the two observed segments (clamped — see
//     atomicDecayFloor). Counters that grow linearly (committed
//     instructions, op counts) measure a decay of 1 and extrapolate
//     exactly; warm-up-dominated counters measure a decay below 1 and
//     shed the transient's weight.
//
//  2. Frequency dependence. Across a cluster's DVFS range every counter of
//     the same workload is near-affine in frequency (cache-hit latencies
//     are fixed in cycles, DRAM latencies in nanoseconds — the same
//     observation the detailed tier's sweep lanes exploit exactly). The
//     anchor pass runs once, timed on two lanes at the DVFS extremes (see
//     pipeline.Core.RunSweep), and any operating point is predicted by
//     affine interpolation between the two extrapolated anchors.
//
// The residual error (transient shape beyond the observed prefix, integer
// rounding) is bounded by the fidelity tests rather than pinned
// bit-for-bit; screen-mode campaigns re-run the points that matter through
// the detailed tier.

const (
	// atomicAnchorDiv sets the checkpoint spacing: the first checkpoint is
	// TotalInsts/atomicAnchorDiv, the anchor budget four times that.
	atomicAnchorDiv = 32
	// atomicAnchorFloor is the minimum first-checkpoint budget; below this
	// the segment rates are too noisy to extrapolate from.
	atomicAnchorFloor = 4096
	// atomicDecayFloor clamps the measured per-doubling rate decay. The
	// observed decay of the prefix overstates how fast event rates keep
	// falling (the transient's decay itself slows down), so extrapolating
	// an unclamped decay underestimates long tails.
	atomicDecayFloor = 0.7
)

// atomicAnchors caches one workload's extrapolated anchor samples on a
// cluster: full-budget counter predictions at the DVFS extremes.
type atomicAnchors struct {
	prof     workload.Profile // full profile the anchors belong to
	ok       bool
	loF, hiF int // anchor frequencies (cluster DVFS extremes)
	lo, hi   pmu.Sample
}

// anchorProfile returns the anchor-pass profile (a prefix of prof's
// instruction stream) and the budget growth factor full/anchor.
func anchorProfile(p workload.Profile) (workload.Profile, float64) {
	n := p.TotalInsts / atomicAnchorDiv
	if n < atomicAnchorFloor {
		n = atomicAnchorFloor
	}
	n *= 4 // three checkpoints at n/4, n/2, n
	if n >= p.TotalInsts {
		return p, 1
	}
	t := p
	t.TotalInsts = n
	return t, float64(p.TotalInsts) / float64(n)
}

// predict derives the point's sample from the workload's anchors by
// affine interpolation in frequency.
func predict(an *atomicAnchors, pt point, parent *obs.Span) pmu.Sample {
	sp := parent.Child("predict")
	t := 0.0
	if an.hiF != an.loF {
		t = float64(pt.freqMHz-an.loF) / float64(an.hiF-an.loF)
	}
	sample := interpolateSample(&an.lo, &an.hi, t)
	sample.FreqGHz = pt.ghz
	if sp != nil {
		sp.Annotate(obs.Uint64("cycles", sample.Tally.Cycles), obs.Float64("anchor_t", t))
		sp.End()
	}
	return sample
}

// anchors returns (computing and caching if necessary) the workload's
// extrapolated anchor samples on cl.
func (sc *SimContext) anchors(cl ClusterConfig, prof workload.Profile, parent *obs.Span) (*atomicAnchors, error) {
	if s := sc.sims[cl.Name]; s != nil && s.anchors.ok && s.anchors.prof == prof {
		return &s.anchors, nil
	}

	anchor, growth := anchorProfile(prof)
	loF := cl.DVFS[0].FreqMHz
	hiF := cl.DVFS[len(cl.DVFS)-1].FreqMHz

	sp := parent.Child("anchor")
	lo, hi, err := sc.anchorPass(cl, anchor, loF, hiF, sp)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("platform: atomic anchor (%s/%s@%d-%d): %w", prof.Name, cl.Name, loF, hiF, err)
	}

	// The pass stored the cluster's state (the atomic tier runs only on a
	// reusing context), so the anchors are cached alongside it.
	s := sc.sims[cl.Name]
	s.anchors = atomicAnchors{
		prof: prof, ok: true,
		loF: loF, hiF: hiF,
		lo: extrapolateSample(&lo, growth), hi: extrapolateSample(&hi, growth),
	}
	return &s.anchors, nil
}

// anchorCheckpoints holds the cumulative PMU samples of one anchor pass at
// its three checkpoints (after 1/4, 1/2 and all of the anchor budget).
type anchorCheckpoints struct {
	insts [3]float64 // committed instructions at each checkpoint
	cum   [3]pmu.Sample
}

// anchorPass runs the anchor profile in one detailed pass split into three
// chunks, timed on two lanes at loF and hiF, and captures both lanes'
// cumulative counters at each chunk boundary. Each chunk is a RunSweep of
// its own, so each starts with empty pipeline state while the hierarchy
// and predictor carry over; with loF == hiF one lane serves both.
func (sc *SimContext) anchorPass(cl ClusterConfig, anchor workload.Profile, loF, hiF int, parent *obs.Span) (lo, hi anchorCheckpoints, err error) {
	sp := parent.Child("anchor_pass", obs.Int("lo_mhz", loF), obs.Int("hi_mhz", hiF))
	defer sp.End()

	loGHz, hiGHz := float64(loF)/1000, float64(hiF)/1000
	s := sc.sim(cl, anchor, loGHz)
	insts := sc.expand(anchor)
	n := len(insts)
	if n == 0 {
		return lo, hi, fmt.Errorf("empty anchor stream for %q", anchor.Name)
	}
	bounds := [4]int{0, n / 4, n / 2, n}
	clocks := [2]mem.Clock{s.hier.ClockAt(loGHz), s.hier.ClockAt(hiGHz)}
	nl := 2
	if hiF == loF {
		nl = 1
	}

	var sums, t [2]pipeline.Tally
	for i := 0; i < 3; i++ {
		chunk := &packedStream{insts: insts[bounds[i]:bounds[i+1]]}
		s.core.RunSweep(chunk, clocks[:nl], t[:nl])
		for k := 0; k < nl; k++ {
			addTally(&sums[k], &t[k])
		}
		lo.insts[i], hi.insts[i] = float64(bounds[i+1]), float64(bounds[i+1])
		lo.cum[i] = pmu.Capture(sums[0], s.hier, s.pred, loGHz)
		hi.cum[i] = pmu.Capture(sums[nl-1], s.hier, s.pred, hiGHz)
	}
	return lo, hi, nil
}

// addTally accumulates t into sum counter by counter.
func addTally(sum, t *pipeline.Tally) {
	mapCounters(sum, sum, t, t, false, func(s, t, _ uint64) uint64 { return s + t })
}

// extrapolateSample projects the checkpointed counters to growth times the
// anchor budget. Per counter: the marginal per-instruction rate of the
// last observed segment is carried over the remaining budget, decaying
// once per budget-doubling by the clamped ratio of the two observed
// segments' rates (see the package comment).
func extrapolateSample(cp *anchorCheckpoints, growth float64) pmu.Sample {
	out := cp.cum[2]
	if growth <= 1 {
		return out
	}
	n1, n2, n3 := cp.insts[0], cp.insts[1], cp.insts[2]
	rem := (growth - 1) * n3
	mapCounters(&out, &cp.cum[0], &cp.cum[1], &cp.cum[2], true, func(v1, v2, v3 uint64) uint64 {
		return extrapCounter(float64(v1), float64(v2), float64(v3), n2-n1, n3-n2, n3, rem)
	})
	return out
}

// interpolateSample affinely interpolates every counter between the two
// anchor samples: counter(t) = round(lo + t·(hi − lo)). FreqGHz is set by
// the caller.
func interpolateSample(lo, hi *pmu.Sample, t float64) pmu.Sample {
	var out pmu.Sample
	mapCounters(&out, lo, hi, hi, true, func(l, h, _ uint64) uint64 {
		v := float64(l) + t*(float64(h)-float64(l))
		if v < 0 {
			v = 0
		}
		return uint64(math.Round(v))
	})
	return out
}

// mapCounters sets every counter of *out to f of the same counter in a, b
// and c, walked in step (a caller with fewer inputs repeats one). Counters
// are uint64, scalars or arrays, possibly nested in sub-structs. The walk
// is reflective so a counter added to pipeline.Tally or to any PMU
// sub-struct is carried automatically instead of silently dropped: any
// other field kind panics, except that float64 fields are skipped when
// skipFloat is set (pmu.Sample's FreqGHz, which the caller owns).
func mapCounters[T any](out, a, b, c *T, skipFloat bool, f func(a, b, c uint64) uint64) {
	w := counterWalk{root: reflect.TypeOf(out).Elem(), skipFloat: skipFloat, f: f}
	w.walk(reflect.ValueOf(out).Elem(), reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem(), reflect.ValueOf(c).Elem())
}

// counterWalk is one mapCounters traversal. A method rather than a
// recursive closure, so the walked values stay on the caller's stack.
type counterWalk struct {
	root      reflect.Type
	skipFloat bool
	f         func(a, b, c uint64) uint64
}

func (w *counterWalk) walk(out, a, b, c reflect.Value) {
	switch out.Kind() {
	case reflect.Struct:
		for i := 0; i < out.NumField(); i++ {
			w.walk(out.Field(i), a.Field(i), b.Field(i), c.Field(i))
		}
	case reflect.Array:
		for i := 0; i < out.Len(); i++ {
			w.walk(out.Index(i), a.Index(i), b.Index(i), c.Index(i))
		}
	case reflect.Uint64:
		out.SetUint(w.f(a.Uint(), b.Uint(), c.Uint()))
	default:
		if out.Kind() != reflect.Float64 || !w.skipFloat {
			panic(fmt.Sprintf("platform: %s grew a field of kind %s the counter walk cannot carry", w.root, out.Kind()))
		}
	}
}

// extrapCounter extends one cumulative counter past its last checkpoint v3
// by rem instructions, starting from the last observed segment's rate and
// decaying it per budget-doubling.
func extrapCounter(v1, v2, v3, len1, len2, seg0, rem float64) uint64 {
	s1, s2 := v2-v1, v3-v2
	if s1 < 0 {
		s1 = 0
	}
	if s2 < 0 {
		s2 = 0
	}
	r1, r2 := s1/len1, s2/len2
	d := 1.0
	if r1 > 0 {
		d = r2 / r1
	}
	if d < atomicDecayFloor {
		d = atomicDecayFloor
	} else if d > 1 {
		d = 1
	}
	total, segLen, rate := v3, seg0, r2
	for rem > 0 {
		rate *= d
		use := segLen
		if use > rem {
			use = rem
		}
		total += use * rate
		rem -= use
		segLen *= 2
	}
	return uint64(math.Round(total))
}
