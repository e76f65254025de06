package core

import (
	"fmt"
	"math"
	"sort"

	"gemstone/internal/pmu"
	"gemstone/internal/stats"
)

// EventCorr is one bar of Fig. 5: a hardware PMC event, its correlation
// with the execution-time MPE across workloads, and the event's HCA
// cluster. A positive correlation means workloads with a high rate of
// this event tend to have their execution time underestimated.
type EventCorr struct {
	Event pmu.Event
	// Corr is the Pearson correlation with the execution-time MPE.
	Corr float64
	// Spearman is the rank correlation — a robustness cross-check when a
	// few extreme workloads dominate an event's dynamic range.
	Spearman float64
	Cluster  int
}

// PMCErrorCorrelation performs the Section IV-B analysis: correlate every
// hardware PMC event rate with the model's execution-time error, and
// cluster the events by their behaviour across workloads (1-|r| distance).
func PMCErrorCorrelation(hw, sim *RunSet, cluster string, freqMHz, kEvents int) ([]EventCorr, error) {
	X, names, events, err := pmcRateMatrix(hw, cluster, freqMHz)
	if err != nil {
		return nil, err
	}
	pes, err := peSeries(hw, sim, cluster, freqMHz, names)
	if err != nil {
		return nil, err
	}

	// Event series: one row per event across workloads.
	series := make([][]float64, len(events))
	for j := range events {
		col := make([]float64, len(names))
		for i := range names {
			col[i] = X[i][j]
		}
		series[j] = col
	}
	if kEvents <= 0 {
		kEvents = 30
	}
	if kEvents > len(events) {
		kEvents = len(events)
	}
	dend := stats.Agglomerate(stats.CorrelationDist(series), stats.AverageLinkage)
	labels, err := dend.CutK(kEvents)
	if err != nil {
		return nil, err
	}

	out := make([]EventCorr, len(events))
	for j, e := range events {
		out[j] = EventCorr{
			Event:    e,
			Corr:     stats.Pearson(series[j], pes),
			Spearman: stats.Spearman(series[j], pes),
			Cluster:  labels[j],
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Corr > out[j].Corr })
	return out, nil
}

// Gem5EventCorr is one row of the Section IV-C analysis: a gem5 statistic,
// its correlation with the execution-time MPE, and its HCA cluster among
// the selected statistics.
type Gem5EventCorr struct {
	Stat    string
	Corr    float64
	Cluster int
}

// Gem5EventCorrelation performs the Section IV-C analysis: correlate every
// gem5 statistic (rate over sim_seconds) with the execution-time error,
// keep statistics with |r| above minAbsCorr (the paper uses 0.3), and
// cluster the survivors by behaviour.
func Gem5EventCorrelation(hw, sim *RunSet, cluster string, freqMHz int, minAbsCorr float64, kClusters int) ([]Gem5EventCorr, error) {
	var names []string
	for key := range sim.Runs {
		if key.Cluster == cluster && key.FreqMHz == freqMHz {
			names = append(names, key.Workload)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("core: no %s runs at %d MHz in %s", cluster, freqMHz, sim.Platform)
	}
	sort.Strings(names)
	pes, err := peSeries(hw, sim, cluster, freqMHz, names)
	if err != nil {
		return nil, err
	}

	// Build per-stat rate series.
	statSeries := map[string][]float64{}
	for i, name := range names {
		m := sim.Runs[RunKey{Workload: name, Cluster: cluster, FreqMHz: freqMHz}]
		sm := Gem5Stats(m)
		secs := sm["sim_seconds"]
		if secs <= 0 {
			return nil, fmt.Errorf("core: non-positive sim_seconds for %s", name)
		}
		for stat, v := range sm {
			s, ok := statSeries[stat]
			if !ok {
				s = make([]float64, len(names))
				statSeries[stat] = s
			}
			s[i] = v / secs
		}
	}

	// Correlate and filter.
	type cand struct {
		stat   string
		corr   float64
		series []float64
	}
	var kept []cand
	for stat, s := range statSeries {
		if stats.StdDev(s) == 0 {
			continue
		}
		r := stats.Pearson(s, pes)
		if math.Abs(r) >= minAbsCorr {
			kept = append(kept, cand{stat: stat, corr: r, series: s})
		}
	}
	if len(kept) == 0 {
		return nil, nil
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].stat < kept[j].stat })

	rows := make([][]float64, len(kept))
	for i, c := range kept {
		rows[i] = c.series
	}
	if kClusters <= 0 {
		kClusters = 8
	}
	if kClusters > len(kept) {
		kClusters = len(kept)
	}
	dend := stats.Agglomerate(stats.CorrelationDist(rows), stats.AverageLinkage)
	labels, err := dend.CutK(kClusters)
	if err != nil {
		return nil, err
	}
	out := make([]Gem5EventCorr, len(kept))
	for i, c := range kept {
		out[i] = Gem5EventCorr{Stat: c.stat, Corr: c.corr, Cluster: labels[i]}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Corr < out[j].Corr })
	return out, nil
}

// peSeries returns the signed percentage error per workload (aligned with
// names) at one operating point.
func peSeries(hw, sim *RunSet, cluster string, freqMHz int, names []string) ([]float64, error) {
	vs, err := Validate(hw, sim, cluster)
	if err != nil {
		return nil, err
	}
	byName := map[string]float64{}
	for _, e := range vs.ErrorsAt(freqMHz) {
		byName[e.Workload] = e.PE
	}
	out := make([]float64, len(names))
	for i, n := range names {
		pe, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("core: no error for workload %s at %d MHz", n, freqMHz)
		}
		out[i] = pe
	}
	return out, nil
}
