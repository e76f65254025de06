package core

import (
	"fmt"
	"sort"

	"gemstone/internal/pmu"
	"gemstone/internal/power"
	"gemstone/internal/stats"
)

// EventReliability reports how faithfully the gem5 model reproduces one
// hardware PMC event — the per-event rate/total errors shown in the
// legend of the paper's Fig. 7.
type EventReliability struct {
	Event     pmu.Event
	Mappable  bool
	RateMAPE  float64
	TotalMAPE float64
}

// AssessEventReliability computes the gem5-vs-hardware error of every
// candidate event across the overlapping runs at one operating point.
func AssessEventReliability(hw, sim *RunSet, cluster string, freqMHz int,
	mapping power.Mapping, candidates []pmu.Event) ([]EventReliability, error) {

	if len(candidates) == 0 {
		candidates = power.DefaultPool()
	}
	var names []string
	for key := range hw.Runs {
		if key.Cluster == cluster && key.FreqMHz == freqMHz {
			if _, ok := sim.Runs[key]; ok {
				names = append(names, key.Workload)
			}
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("core: no overlapping runs for %s at %d MHz", cluster, freqMHz)
	}
	sort.Strings(names)

	out := make([]EventReliability, 0, len(candidates))
	for _, e := range candidates {
		er := EventReliability{Event: e, Mappable: mapping.Available(e)}
		if !er.Mappable {
			out = append(out, er)
			continue
		}
		var rateAPEs, totAPEs []float64
		for _, name := range names {
			key := RunKey{Workload: name, Cluster: cluster, FreqMHz: freqMHz}
			hm := hw.Runs[key]
			sm := sim.Runs[key]
			g5Stats := Gem5Stats(sm)
			g5Count, err := mapping.Count(e, g5Stats)
			if err != nil {
				continue
			}
			secs := g5Stats["sim_seconds"]
			hwCount := hm.Sample.Value(e)
			hwRate := hm.Sample.Rate(e)
			if hwCount < 1 {
				if g5Count < 1 {
					continue // absent on both sides
				}
				// Floor the denominator (as in the Fig. 6 comparison) so a
				// model inventing events that the hardware never produces
				// registers as a huge error rather than being skipped.
				hwCount = 1
				hwRate = 1 / hm.Seconds
			}
			totAPEs = append(totAPEs, absPct(hwCount, g5Count))
			if secs > 0 {
				rateAPEs = append(rateAPEs, absPct(hwRate, g5Count/secs))
			}
		}
		er.RateMAPE = stats.Mean(rateAPEs)
		er.TotalMAPE = stats.Mean(totAPEs)
		out = append(out, er)
	}
	return out, nil
}

// DeriveEventRestraints implements the Fig. 1 feedback path ("PMC
// selection restraints"): events that are unavailable in gem5 or whose
// modelled counts diverge beyond maxMAPE are removed from the candidate
// pool, and the surviving events are returned for power-model selection.
// The paper applies exactly this rule in Section V — removing unaligned
// accesses (unavailable), VFP (misclassified) and the L1D writeback count
// (>1000 % MPE) before re-running the selection.
func DeriveEventRestraints(hw, sim *RunSet, cluster string, freqMHz int,
	mapping power.Mapping, candidates []pmu.Event, maxMAPE float64) (pool, excluded []pmu.Event, err error) {

	rel, err := AssessEventReliability(hw, sim, cluster, freqMHz, mapping, candidates)
	if err != nil {
		return nil, nil, err
	}
	// The rule applies to the *rate* error: the power models consume
	// rates, and the rate of the cycle counter is exact by construction
	// even when the execution time (and hence every total) is wrong.
	for _, r := range rel {
		if !r.Mappable || r.RateMAPE > maxMAPE {
			excluded = append(excluded, r.Event)
			continue
		}
		pool = append(pool, r.Event)
	}
	if len(pool) == 0 {
		return nil, nil, fmt.Errorf("core: every candidate excluded at maxMAPE %.1f%%", maxMAPE)
	}
	return pool, excluded, nil
}

func absPct(ref, est float64) float64 {
	pe := 100 * (ref - est) / ref
	if pe < 0 {
		return -pe
	}
	return pe
}
