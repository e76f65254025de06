// Benchmark harness regenerating every table and figure of the paper's
// evaluation. Each benchmark times the analysis it names and prints the
// regenerated artefact once (the rows/series the paper reports), so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. Data collection (the simulated
// Experiments 1-4) is shared across benchmarks and excluded from timing.
package gemstone_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"gemstone"
	"gemstone/internal/lmbench"
	"gemstone/internal/report"
)

// benchDataT holds the full experiment campaign shared by the benchmarks.
type benchDataT struct {
	hwVal    *gemstone.RunSet // 45 validation workloads, both clusters, 4 freqs
	v1, v2   *gemstone.RunSet
	hwPower  *gemstone.RunSet // 65 workloads for power characterisation (A15+A7)
	models   map[string]*gemstone.PowerModel
	clusters *gemstone.WorkloadClustering // A15 @ 1 GHz
}

var (
	benchOnce sync.Once
	benchErr  error
	bench     benchDataT
	printed   sync.Map
)

func benchData(b *testing.B) *benchDataT {
	b.Helper()
	benchOnce.Do(func() {
		valOpt := func() gemstone.CollectOptions { return gemstone.CollectOptions{} }
		if bench.hwVal, benchErr = gemstone.Collect(context.Background(), gemstone.HardwarePlatform(), valOpt()); benchErr != nil {
			return
		}
		if bench.v1, benchErr = gemstone.Collect(context.Background(), gemstone.Gem5Platform(gemstone.V1), valOpt()); benchErr != nil {
			return
		}
		if bench.v2, benchErr = gemstone.Collect(context.Background(), gemstone.Gem5Platform(gemstone.V2), valOpt()); benchErr != nil {
			return
		}
		if bench.hwPower, benchErr = gemstone.Collect(context.Background(), gemstone.HardwarePlatform(), gemstone.CollectOptions{
			Workloads: gemstone.Workloads(),
		}); benchErr != nil {
			return
		}
		bench.models = map[string]*gemstone.PowerModel{}
		for _, cl := range []string{gemstone.ClusterA7, gemstone.ClusterA15} {
			m, err := gemstone.BuildPowerModel(bench.hwPower, cl,
				gemstone.PowerBuildOptions{Pool: gemstone.RestrictedPool()})
			if err != nil {
				benchErr = err
				return
			}
			bench.models[cl] = m
		}
		bench.clusters, benchErr = gemstone.ClusterWorkloads(bench.hwVal, bench.v1, gemstone.ClusterA15, 1000, 16)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return &bench
}

// printOnce emits an artefact a single time across all benchmark
// iterations and -count repetitions.
func printOnce(key, artefact string) {
	if _, loaded := printed.LoadOrStore(key, true); !loaded {
		fmt.Println(artefact)
	}
}

func (d *benchDataT) excludePathological() map[int]bool {
	excl := map[int]bool{}
	if l, ok := d.clusters.Labels["par-basicmath-rad2deg"]; ok {
		excl[l] = true
	}
	return excl
}

// BenchmarkTable1_HeadlineErrors regenerates the Section IV headline
// numbers: per-cluster execution-time MAPE/MPE across all DVFS levels,
// the PARSEC-only subset, and the per-frequency breakdown.
func BenchmarkTable1_HeadlineErrors(b *testing.B) {
	d := benchData(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		a15, err := gemstone.Validate(d.hwVal, d.v1, gemstone.ClusterA15)
		if err != nil {
			b.Fatal(err)
		}
		a7, err := gemstone.Validate(d.hwVal, d.v1, gemstone.ClusterA7)
		if err != nil {
			b.Fatal(err)
		}
		pm, pmpe, _ := a15.SuiteSummary("parsec-")
		out = report.ValidationSummary("T1 gem5-v1 ex5_big", a15) +
			report.ValidationSummary("T1 gem5-v1 ex5_LITTLE", a7) +
			fmt.Sprintf("PARSEC-only (A15): MAPE %.1f%% MPE %+.1f%%  [paper: 25.5%% / -7.5%%]\n", pm, pmpe)
	}
	printOnce("t1", out)
}

// BenchmarkFig3_WorkloadMPEByCluster regenerates Fig. 3: per-workload MPE
// at 1 GHz on the A15, ordered and labelled by HCA cluster.
func BenchmarkFig3_WorkloadMPEByCluster(b *testing.B) {
	d := benchData(b)
	b.ResetTimer()
	var wc *gemstone.WorkloadClustering
	for i := 0; i < b.N; i++ {
		var err error
		wc, err = gemstone.ClusterWorkloads(d.hwVal, d.v1, gemstone.ClusterA15, 1000, 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig3", report.Fig3(wc))
}

// BenchmarkFig4_MemoryLatency regenerates Fig. 4: the lat_mem_rd curves on
// hardware and the gem5 models, both clusters, stride 256.
func BenchmarkFig4_MemoryLatency(b *testing.B) {
	sizes := gemstone.DefaultLatencySizes()
	var curves map[string][]lmbench.Point
	for i := 0; i < b.N; i++ {
		curves = map[string][]lmbench.Point{
			"hw-a15":   gemstone.MemoryLatency(gemstone.HardwareA15(), 1000, 256, sizes),
			"gem5-a15": gemstone.MemoryLatency(gemstone.Gem5Big(gemstone.V1), 1000, 256, sizes),
			"hw-a7":    gemstone.MemoryLatency(gemstone.HardwareA7(), 1000, 256, sizes),
			"gem5-a7":  gemstone.MemoryLatency(gemstone.Gem5LITTLE(gemstone.V1), 1000, 256, sizes),
		}
	}
	printOnce("fig4", report.Fig4(curves))
}

// BenchmarkFig5_PMCCorrelation regenerates Fig. 5: correlation of each HW
// PMC rate with the execution-time MPE, grouped by event HCA cluster.
func BenchmarkFig5_PMCCorrelation(b *testing.B) {
	d := benchData(b)
	b.ResetTimer()
	var rows []gemstone.EventCorr
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = gemstone.PMCErrorCorrelation(d.hwVal, d.v1, gemstone.ClusterA15, 1000, 30)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig5", report.Fig5(rows))
}

// BenchmarkTable2_Gem5EventCorrelation regenerates the Section IV-C
// analysis: gem5 statistics with |r| >= 0.3 versus the error, clustered.
func BenchmarkTable2_Gem5EventCorrelation(b *testing.B) {
	d := benchData(b)
	b.ResetTimer()
	var rows []gemstone.Gem5EventCorr
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = gemstone.Gem5EventCorrelation(d.hwVal, d.v1, gemstone.ClusterA15, 1000, 0.3, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("t2", report.Gem5Correlation(rows))
}

// BenchmarkTable3_ErrorRegression regenerates the Section IV-D stepwise
// regressions of the error onto HW PMCs and onto gem5 statistics.
func BenchmarkTable3_ErrorRegression(b *testing.B) {
	d := benchData(b)
	sw := gemstone.DefaultStepwiseOptions()
	sw.MaxTerms = 8
	b.ResetTimer()
	var pmcRep, g5Rep *gemstone.RegressionReport
	for i := 0; i < b.N; i++ {
		var err error
		pmcRep, err = gemstone.ErrorRegressionPMC(d.hwVal, d.v1, gemstone.ClusterA15, 1000, sw)
		if err != nil {
			b.Fatal(err)
		}
		g5Rep, err = gemstone.ErrorRegressionGem5(d.hwVal, d.v1, gemstone.ClusterA15, 1000, sw)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("t3", report.Regression(pmcRep, g5Rep))
}

// BenchmarkFig6_EventComparison regenerates Fig. 6: gem5 events normalised
// to their HW PMC equivalents, per cluster, plus the BP accuracy numbers.
func BenchmarkFig6_EventComparison(b *testing.B) {
	d := benchData(b)
	excl := d.excludePathological()
	b.ResetTimer()
	var ratios []gemstone.EventRatio
	var bp *gemstone.BPComparison
	for i := 0; i < b.N; i++ {
		var err error
		ratios, bp, err = gemstone.EventComparison(d.hwVal, d.v1, gemstone.ClusterA15, 1000,
			d.clusters.Labels, nil, gemstone.DefaultMapping(), excl)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig6", report.Fig6(ratios, bp))
}

// BenchmarkTable4_PowerModelQuality regenerates the Section V power-model
// fit: constrained stepwise selection + OLS on the 65-workload campaign.
func BenchmarkTable4_PowerModelQuality(b *testing.B) {
	d := benchData(b)
	b.ResetTimer()
	var a15, a7 *gemstone.PowerModel
	for i := 0; i < b.N; i++ {
		var err error
		a15, err = gemstone.BuildPowerModel(d.hwPower, gemstone.ClusterA15,
			gemstone.PowerBuildOptions{Pool: gemstone.RestrictedPool()})
		if err != nil {
			b.Fatal(err)
		}
		a7, err = gemstone.BuildPowerModel(d.hwPower, gemstone.ClusterA7,
			gemstone.PowerBuildOptions{Pool: gemstone.RestrictedPool()})
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("t4", report.PowerModel(a15)+report.PowerModel(a7))
}

// BenchmarkFig7_PowerEnergyByCluster regenerates Fig. 7: power and energy
// from HW PMCs versus gem5 events, per workload cluster.
func BenchmarkFig7_PowerEnergyByCluster(b *testing.B) {
	d := benchData(b)
	b.ResetTimer()
	var a15An, a7An *gemstone.PowerEnergyAnalysis
	for i := 0; i < b.N; i++ {
		var err error
		a15An, err = gemstone.AnalyzePowerEnergy(d.models[gemstone.ClusterA15], gemstone.DefaultMapping(),
			d.hwVal, d.v1, gemstone.ClusterA15, 1000, d.clusters.Labels)
		if err != nil {
			b.Fatal(err)
		}
		a7An, err = gemstone.AnalyzePowerEnergy(d.models[gemstone.ClusterA7], gemstone.DefaultMapping(),
			d.hwVal, d.v1, gemstone.ClusterA7, 1000, d.clusters.Labels)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig7", report.Fig7(a15An)+report.Fig7(a7An))
}

// BenchmarkFig8_DVFSScaling regenerates Fig. 8: performance/power/energy
// scaling normalised to the A7 at 200 MHz, hardware vs model, plus the
// Section VI A15 speedup/energy spread.
func BenchmarkFig8_DVFSScaling(b *testing.B) {
	d := benchData(b)
	mapping := gemstone.DefaultMapping()
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		hwCurve, err := gemstone.ScalingAnalysis(d.hwVal, d.models, mapping, false,
			d.clusters.Labels, gemstone.ClusterA7, 200)
		if err != nil {
			b.Fatal(err)
		}
		simCurve, err := gemstone.ScalingAnalysis(d.v1, d.models, mapping, true,
			d.clusters.Labels, gemstone.ClusterA7, 200)
		if err != nil {
			b.Fatal(err)
		}
		hwPerf, err := gemstone.ClusterRatio(d.hwVal, gemstone.ClusterA15, 600, 1800,
			d.clusters.Labels, gemstone.MetricSpeedup, d.models, mapping, false)
		if err != nil {
			b.Fatal(err)
		}
		hwEn, err := gemstone.ClusterRatio(d.hwVal, gemstone.ClusterA15, 600, 1800,
			d.clusters.Labels, gemstone.MetricEnergyIncrease, d.models, mapping, false)
		if err != nil {
			b.Fatal(err)
		}
		simPerf, err := gemstone.ClusterRatio(d.v1, gemstone.ClusterA15, 600, 1800,
			d.clusters.Labels, gemstone.MetricSpeedup, d.models, mapping, true)
		if err != nil {
			b.Fatal(err)
		}
		simEn, err := gemstone.ClusterRatio(d.v1, gemstone.ClusterA15, 600, 1800,
			d.clusters.Labels, gemstone.MetricEnergyIncrease, d.models, mapping, true)
		if err != nil {
			b.Fatal(err)
		}
		out = report.Fig8(hwCurve, simCurve) +
			"A15 600 MHz -> 1800 MHz (Section VI):\n" +
			report.Speedups("hardware", hwPerf, hwEn) +
			report.Speedups("gem5 v1", simPerf, simEn)
	}
	printOnce("fig8", out)
}

// BenchmarkTable5_ModelVersionComparison regenerates the Section VII
// study: gem5 v1 (BP bug) vs v2 (fixed) against the same hardware.
func BenchmarkTable5_ModelVersionComparison(b *testing.B) {
	d := benchData(b)
	b.ResetTimer()
	var vc *gemstone.VersionComparison
	for i := 0; i < b.N; i++ {
		var err error
		vc, err = gemstone.CompareVersions(d.hwVal, d.v1, d.v2, gemstone.ClusterA15, 1000,
			d.models[gemstone.ClusterA15], gemstone.DefaultMapping(), d.clusters.Labels)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("t5", report.Versions(vc))
}

// BenchmarkAblation_FixOneDefect quantifies what repairing each gem5
// defect in isolation does to the A15 model's error at 1 GHz. It
// regenerates the paper's Section IV-F/VII findings: fixing the BP bug is
// the dominant improvement, while fixing the L1 ITLB size alone makes the
// error larger because the BP bug still drives the ITLB traffic.
func BenchmarkAblation_FixOneDefect(b *testing.B) {
	d := benchData(b)
	b.ResetTimer()
	var rows []gemstone.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = gemstone.RunAblationStudy(d.hwVal, nil, 1000, gemstone.FixOneDefect)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("ablation-fix", report.Ablation("fix one defect at a time (A15 @ 1 GHz)", rows))
}

// BenchmarkAblation_OnlyOneDefect measures each defect's standalone error
// contribution against a defect-free model.
func BenchmarkAblation_OnlyOneDefect(b *testing.B) {
	d := benchData(b)
	b.ResetTimer()
	var rows []gemstone.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = gemstone.RunAblationStudy(d.hwVal, nil, 1000, gemstone.OnlyOneDefect)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("ablation-only", report.Ablation("one defect at a time (A15 @ 1 GHz)", rows))
}

// BenchmarkImprovementLoop regenerates the Section IV-F repair procedure:
// greedily fix the most significant remaining defect, re-validating the
// whole system after every change. The loop must find the BP bug first.
func BenchmarkImprovementLoop(b *testing.B) {
	d := benchData(b)
	var profiles []gemstone.WorkloadProfile
	for _, name := range []string{
		"mi-crc32", "whetstone", "dhrystone", "parsec-canneal-1",
		"mi-qsort", "mi-adpcm-d", "parsec-blackscholes-1", "par-bitcount",
	} {
		p, err := gemstone.WorkloadByName(name)
		if err != nil {
			b.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	b.ResetTimer()
	var steps []gemstone.ImprovementStep
	for i := 0; i < b.N; i++ {
		var err error
		steps, err = gemstone.IterateImprovements(d.hwVal, profiles, 1000)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("improve", report.Improvements(steps))
}

// BenchmarkBaseline_AnalyticalVsEmpirical reproduces the paper's Section
// II positioning: an uncalibrated McPAT-style analytical model versus the
// fitted empirical PMC model, validated against the same sensor data.
func BenchmarkBaseline_AnalyticalVsEmpirical(b *testing.B) {
	d := benchData(b)
	var obs []gemstone.PowerObservation
	for _, m := range d.hwPower.Runs {
		if m.Cluster == gemstone.ClusterA15 {
			obs = append(obs, gemstone.MeasurementObservation(m))
		}
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		analytical, err := gemstone.NewAnalyticalPowerModel(gemstone.HardwareA15(), gemstone.DefaultAnalyticalConfig())
		if err != nil {
			b.Fatal(err)
		}
		qa := analytical.Validate(obs)
		qe := d.models[gemstone.ClusterA15].Quality
		out = fmt.Sprintf("=== Baseline — analytical (McPAT-style) vs empirical PMC model (A15) ===\n"+
			"analytical (uncalibrated): MAPE %5.1f%%  MPE %+6.1f%%  max APE %5.1f%%   [paper cites ~25%% for McPAT on this board]\n"+
			"empirical (Section V):     MAPE %5.2f%%  MPE %+6.2f%%  max APE %5.1f%%\n",
			qa.MAPE, qa.MPE, qa.MaxAPE, qe.MAPE, qe.MPE, qe.MaxAPE)
	}
	printOnce("baseline", out)
}

// campaignOpt is the validation campaign the cache benchmarks collect:
// all 45 validation workloads across the A15's Experiment-1 DVFS points.
func campaignOpt(cache gemstone.RunCache) gemstone.CollectOptions {
	return gemstone.CollectOptions{
		Clusters: []string{gemstone.ClusterA15},
		Cache:    cache,
	}
}

// BenchmarkCollect_ColdCache measures the validation campaign with an
// empty cache: every run simulates (and is stored). Compare against
// BenchmarkCollect_WarmCache for the replay speedup.
func BenchmarkCollect_ColdCache(b *testing.B) {
	pl := gemstone.HardwarePlatform()
	for i := 0; i < b.N; i++ {
		rs, err := gemstone.Collect(context.Background(), pl, campaignOpt(gemstone.NewMemoryRunCache(0)))
		if err != nil {
			b.Fatal(err)
		}
		if len(rs.Runs) == 0 {
			b.Fatal("empty campaign")
		}
	}
}

// BenchmarkCollect_ColdCacheAtomic is BenchmarkCollect_ColdCache at the
// atomic fidelity tier: the identical campaign grid predicted from
// short anchor runs instead of full detailed simulation. The tier must
// stay at least 5x faster per op than the detailed cold run (the floor
// internal/core's TestAtomicSpeedupFloor asserts) — the fast path that
// makes screen-then-resimulate campaigns pay.
func BenchmarkCollect_ColdCacheAtomic(b *testing.B) {
	pl := gemstone.HardwarePlatform()
	for i := 0; i < b.N; i++ {
		opt := campaignOpt(gemstone.NewMemoryRunCache(0))
		opt.Fidelity = gemstone.FidelityAtomic
		rs, err := gemstone.Collect(context.Background(), pl, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs.Runs) == 0 {
			b.Fatal("empty campaign")
		}
	}
}

// BenchmarkCollect_ColdCacheTraced is BenchmarkCollect_ColdCache with a
// span tracer attached, so the pair bounds the tracing overhead on a
// real campaign. The acceptance bar is <= 2% over the untraced cold run;
// the per-run span cost is tens of nanoseconds against simulations that
// take milliseconds (see BenchmarkSpanEnabled in internal/obs).
func BenchmarkCollect_ColdCacheTraced(b *testing.B) {
	pl := gemstone.HardwarePlatform()
	for i := 0; i < b.N; i++ {
		opt := campaignOpt(gemstone.NewMemoryRunCache(0))
		opt.Tracer = gemstone.NewTracer()
		rs, err := gemstone.Collect(context.Background(), pl, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs.Runs) == 0 {
			b.Fatal("empty campaign")
		}
	}
}

// BenchmarkCollect_WarmCache measures the same campaign replayed from a
// warm in-memory cache: no run simulates. The acceptance bar is a >= 10x
// speedup over BenchmarkCollect_ColdCache; in practice it is orders of
// magnitude.
func BenchmarkCollect_WarmCache(b *testing.B) {
	pl := gemstone.HardwarePlatform()
	cache := gemstone.NewMemoryRunCache(0)
	if _, err := gemstone.Collect(context.Background(), pl, campaignOpt(cache)); err != nil {
		b.Fatal(err)
	}
	metrics := gemstone.NewCollectMetrics()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := campaignOpt(cache)
		opt.Observer = metrics
		rs, err := gemstone.Collect(context.Background(), pl, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs.Runs) == 0 {
			b.Fatal("empty campaign")
		}
	}
	b.StopTimer()
	if s := metrics.Stats(); s.Simulated != 0 {
		b.Fatalf("warm campaign simulated %d runs", s.Simulated)
	}
}

// BenchmarkCollect_WarmDiskCache replays the campaign from the on-disk
// tier only (a fresh memory tier every iteration), measuring the
// persistent-store decode path.
func BenchmarkCollect_WarmDiskCache(b *testing.B) {
	pl := gemstone.HardwarePlatform()
	disk, err := gemstone.NewDiskRunCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := gemstone.Collect(context.Background(), pl, campaignOpt(disk)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := gemstone.Collect(context.Background(), pl, campaignOpt(disk))
		if err != nil {
			b.Fatal(err)
		}
		if len(rs.Runs) == 0 {
			b.Fatal("empty campaign")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: one full
// workload run on the reference A15 per iteration, reported in MIPS.
func BenchmarkSimulatorThroughput(b *testing.B) {
	board := gemstone.HardwarePlatform()
	prof, err := gemstone.WorkloadByName("dhrystone")
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := board.Run(prof, gemstone.ClusterA15, 1000)
		if err != nil {
			b.Fatal(err)
		}
		insts += m.Sample.Tally.Committed
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "MIPS")
}
