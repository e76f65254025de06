// Command gemstone runs the full GemStone pipeline: it characterises the
// reference hardware platform, runs the gem5 model simulations, identifies
// sources of error with the statistical analyses of the paper's Section
// IV, builds and applies empirical power models (Sections V/VI), and
// compares model versions (Section VII).
//
// Usage:
//
//	gemstone [flags]
//	gemstone serve [flags]   start the multi-tenant campaign service
//	                         (HTTP/JSON API; see serve.go for flags)
//
//	-cluster   a15|a7        cluster to analyse            (default a15)
//	-freq      MHz           analysis operating point      (default 1000)
//	-version   1|2           gem5 model version            (default 1)
//	-analyses  list          comma-separated subset of:
//	                         validate,fig3,fig4,fig5,gem5corr,regress,
//	                         fig6,events,power,fig7,fig8,versions,dendro,
//	                         consistency,workloads, or all or none
//	                         (default all); unknown names are a usage
//	                         error. fig4 (the lat_mem_rd sweep) and
//	                         workloads (the suite listing) need no
//	                         campaign: a run of only those collects
//	                         nothing. events prints the per-event gem5
//	                         accuracy and the automated restraints of
//	                         the power-model candidate pool (Fig. 1's
//	                         feedback loop)
//	-workloads N             limit to the first N validation workloads
//	-csvdir    dir           also write CSV artefacts into dir
//	-statsdir  dir           dump one gem5 stats.txt per model run into dir
//	-cachedir  dir           memoise runs in a persistent cache at dir;
//	                         re-invocations replay instead of re-simulating
//	-progress                log per-campaign progress while collecting
//	-validate                run invariant validators over every collected
//	                         measurement (counter conservation laws, DVFS
//	                         monotonicity, energy = power × time, ...)
//	-ledger    file          append a provenance manifest plus the campaign
//	                         results to this JSONL ledger (the experiment
//	                         flight recorder; compare runs with gemwatch)
//	-trace     file          write a Chrome trace-event JSON profile of
//	                         the campaigns (open in chrome://tracing or
//	                         ui.perfetto.dev); combined with -workers the
//	                         profile is fleet-wide — every worker's spans
//	                         are shipped back, clock-offset corrected and
//	                         stitched under the dispatching campaign span,
//	                         one process lane per worker
//	-metrics-addr host:port  serve Prometheus /metrics, /debug/pprof and
//	                         /healthz while running
//	-log-format text|json    structured-log output format (default text)
//	-workers   host:port,... distribute campaigns across these gemstoned
//	                         workers; when none answer, campaigns degrade
//	                         to local execution (identical results)
//	-fidelity  detailed|atomic  simulation tier (default detailed)
//	-screen                  screen-then-resimulate: sweep at the atomic
//	                         tier, re-simulate the flagged points detailed
//
// The power model alone, trained on all 65 workloads (Experiments 3/4),
// is examples/powerstudy; the Section VII regression gate is make watch
// (gemstone -ledger compared with gemwatch against a baseline ledger).
//
// Campaigns are cancellable: SIGINT stops the outstanding simulations and
// exits; with -cachedir the completed runs are kept, so rerunning resumes
// where the campaign stopped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"gemstone"
	"gemstone/internal/core"
	"gemstone/internal/dist"
	"gemstone/internal/gem5"
	"gemstone/internal/ledger"
	"gemstone/internal/obs"
	"gemstone/internal/platform"
	"gemstone/internal/pmu"
	"gemstone/internal/report"
	"gemstone/internal/stats"
)

// progressObserver logs campaign progress at ~10% granularity — each line
// carrying the completion count, the measured run rate and the ETA — plus
// per-run failures and the final per-stage time report. All callbacks
// fire concurrently from campaign workers and serialise on mu.
type progressObserver struct {
	log *slog.Logger
	now func() time.Time // injectable clock for tests

	// violations, when set, is polled at CollectDone so the final summary
	// carries the invariant-validator tally next to the cache hit-rate.
	violations func() int

	mu    sync.Mutex
	total int
	done  int
	next  int // completion count at which to log the next line
	start time.Time
}

func newProgressObserver(log *slog.Logger) *progressObserver {
	return &progressObserver{log: log, now: time.Now}
}

func (p *progressObserver) CollectStart(platformName string, totalJobs int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.total = totalJobs
	p.done = 0
	p.next = (totalJobs + 9) / 10
	p.start = p.now()
	p.log.Info("campaign queued", "platform", platformName, "runs", totalJobs)
}

func (p *progressObserver) RunStart(core.RunKey) {}

// step advances the completion count and logs at the next 10% boundary.
// Callers hold p.mu.
func (p *progressObserver) step() {
	p.done++
	if p.done >= p.next {
		attrs := []any{"done", p.done, "total", p.total}
		if elapsed := p.now().Sub(p.start); elapsed > 0 {
			rate := float64(p.done) / elapsed.Seconds()
			attrs = append(attrs, "runs_per_sec", fmt.Sprintf("%.1f", rate))
			if rate > 0 {
				eta := time.Duration(float64(p.total-p.done)/rate) * time.Second
				attrs = append(attrs, "eta", eta.Round(time.Second).String())
			}
		}
		p.log.Info("progress", attrs...)
		p.next += (p.total + 9) / 10
	}
}

func (p *progressObserver) CacheHit(core.RunKey) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.step()
}

func (p *progressObserver) RunDone(core.RunKey, platform.Measurement, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.step()
}

func (p *progressObserver) RunError(key core.RunKey, err error) {
	// Failed runs count toward N/N like completed ones — without this the
	// progress line stalls short of the total on failing campaigns — and
	// the lock keeps the failure line ordered against step()'s output. A
	// cut-short run did not fail: it is one of the skipped jobs.
	if errors.Is(err, core.ErrCutShort) {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.log.Error("run failed", "key", key.String(), "err", err)
	p.step()
}

func (p *progressObserver) CollectDone(s core.CollectStats) {
	attrs := []any{"stats", s.String()}
	if s.Jobs > 0 {
		attrs = append(attrs, "cache_hit_rate",
			fmt.Sprintf("%.0f%%", 100*float64(s.CacheHits)/float64(s.Jobs)))
	}
	if p.violations != nil {
		attrs = append(attrs, "validator_violations", p.violations())
	}
	p.log.Info("campaign done", attrs...)
}

// analysisNames is the -analyses vocabulary besides all and none, in the
// order the analyses print.
var analysisNames = []string{
	"validate", "fig3", "fig4", "fig5", "workloads", "dendro", "consistency",
	"gem5corr", "regress", "fig6", "power", "events", "fig7", "fig8", "versions",
}

// fig4Stride is the access stride of the paper's Fig. 4 latency sweep.
const fig4Stride = 256

// logger is the process-wide structured logger; main replaces it once
// -log-format is parsed. writeCSV and the observers share it.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

// exitHooks run (last-registered first) before any process exit so the
// trace file and metrics listener are flushed even on fatal errors.
var exitHooks []func()

func exit(code int) {
	for i := len(exitHooks) - 1; i >= 0; i-- {
		exitHooks[i]()
	}
	os.Exit(code)
}

// usageError reports a bad flag value the way the flag package does —
// the message, then the usage text — and exits 2 before anything runs.
func usageError(format string, args ...any) {
	fmt.Fprintf(flag.CommandLine.Output(), "gemstone: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	logger.Error("gemstone failed", "err", err)
	exit(1)
}

func main() {
	// Subcommand dispatch: `gemstone serve` starts the campaign service;
	// everything else is the classic one-shot flag-driven pipeline.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	cluster := flag.String("cluster", gemstone.ClusterA15, "cluster to analyse (a7|a15)")
	freq := flag.Int("freq", 1000, "analysis frequency in MHz")
	ver := gemstone.V1
	flag.Var(&ver, "version", "gem5 model version `N`: 1 or 2 (default 1)")
	analyses := flag.String("analyses", "all", "comma-separated analyses to run: all, none or any of "+strings.Join(analysisNames, ","))
	nWorkloads := flag.Int("workloads", 0, "limit to the first N validation workloads (0 = all)")
	csvDir := flag.String("csvdir", "", "write CSV artefacts into this directory")
	statsDir := flag.String("statsdir", "", "dump one gem5 stats.txt per model run into this directory")
	cacheDir := flag.String("cachedir", "", "memoise runs in a persistent cache at this directory")
	progress := flag.Bool("progress", false, "log campaign progress while collecting")
	validateRuns := flag.Bool("validate", false, "run invariant validators over every collected measurement")
	ledgerPath := flag.String("ledger", "", "append a provenance manifest + results entry to this JSONL ledger")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON profile to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/pprof and /healthz on this host:port")
	logFormat := flag.String("log-format", obs.LogText, "log output format (text|json)")
	workers := flag.String("workers", "", "comma-separated gemstoned worker addresses for distributed campaigns")
	fidelityFlag := flag.String("fidelity", "detailed", "simulation tier (detailed|atomic)")
	screen := flag.Bool("screen", false, "screen-then-resimulate: sweep the grid at the atomic tier, re-simulate the flagged points detailed")
	flag.Parse()

	want := map[string]bool{}
	for _, a := range strings.Split(*analyses, ",") {
		a = strings.TrimSpace(a)
		if a != "all" && a != "none" && !slices.Contains(analysisNames, a) {
			usageError("unknown analysis %q in -analyses", a)
		}
		want[a] = true
	}
	on := func(name string) bool { return want["all"] || want[name] }
	if _, err := gemstone.HardwarePlatform().Cluster(*cluster); err != nil {
		usageError("-cluster: %v", err)
	}
	// Campaigns run only when something consumes them: every analysis but
	// fig4 (a microbenchmark) and workloads (a listing), the ledger, the
	// stats dump, the validators and the screen.
	needCampaign := *ledgerPath != "" || *statsDir != "" || *validateRuns || *screen
	for a := range want {
		if a != "fig4" && a != "workloads" && a != "none" {
			needCampaign = true
		}
	}

	lg, err := obs.NewLogger(os.Stderr, *logFormat, slog.LevelInfo)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gemstone:", err)
		os.Exit(2)
	}
	fid, err := gemstone.ParseFidelity(*fidelityFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gemstone:", err)
		os.Exit(2)
	}
	if *screen && fid != gemstone.FidelityDetailed {
		fmt.Fprintln(os.Stderr, "gemstone: -fidelity cannot be combined with -screen (the screen sets the tier per phase)")
		os.Exit(2)
	}
	logger = lg
	slog.SetDefault(lg)

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	var tracer *gemstone.Tracer
	if *traceFile != "" {
		tracer = gemstone.NewTracer()
		exitHooks = append(exitHooks, func() {
			f, err := os.Create(*traceFile)
			if err != nil {
				logger.Error("trace not written", "err", err)
				return
			}
			err = tracer.WriteChromeTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				logger.Error("trace not written", "err", err)
				return
			}
			logger.Info("trace written", "file", *traceFile, "spans", len(tracer.Events()))
		})
	}

	var cache gemstone.RunCache
	if *cacheDir != "" && needCampaign {
		if cache, err = gemstone.OpenRunCache(*cacheDir); err != nil {
			fatal(err)
		}
	}
	metrics := gemstone.NewCollectMetrics()
	// The registry always exists: gemstone_build_info and the validator
	// counters land in it whether or not -metrics-addr serves it, so the
	// ledger manifest and a scrape cite the same provenance source.
	reg := gemstone.NewMetricsRegistry()
	gemstone.RegisterBuildInfo(reg)
	observers := []gemstone.CollectObserver{metrics}
	if *metricsAddr != "" {
		srv, err := gemstone.ServeMetrics(*metricsAddr, reg)
		if err != nil {
			fatal(err)
		}
		exitHooks = append(exitHooks, func() { srv.Close() })
		observers = append(observers, gemstone.NewRegistryCollectObserver(reg))
		logger.Info("metrics listening", "addr", srv.Addr())
	}
	recorder := gemstone.NewCampaignRecorder()
	observers = append(observers, recorder)
	var validator *gemstone.Validator
	if *validateRuns {
		validator = gemstone.NewValidator(reg)
	}
	if *progress {
		po := newProgressObserver(logger)
		if validator != nil {
			po.violations = validator.Count
		}
		observers = append(observers, po)
	}
	observer := gemstone.MultiCollectObserver(observers...)
	var coord *dist.Coordinator
	if *workers != "" {
		var addrs []string
		for _, a := range strings.Split(*workers, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		coord = dist.NewCoordinator(dist.CoordinatorConfig{
			Workers:  addrs,
			Registry: reg,
			Log:      logger,
		})
		logger.Info("distributing campaigns", "workers", len(addrs))
	}
	collect := func(pl *gemstone.Platform, opt gemstone.CollectOptions) (*gemstone.RunSet, error) {
		opt.Cache = cache
		opt.Observer = observer
		opt.Tracer = tracer
		if validator != nil {
			validator.AddPlatform(pl)
		}
		var rs *gemstone.RunSet
		var err error
		if coord != nil {
			rs, err = coord.Collect(ctx, pl, opt)
		} else {
			rs, err = gemstone.Collect(ctx, pl, opt)
		}
		if err == nil && validator != nil {
			// Sweep the completed set instead of observing RunDone: cache
			// hits replay without a RunDone callback, and the whole-set
			// view enables the cross-run DVFS-monotonicity check.
			for _, m := range rs.Runs {
				validator.CheckMeasurement(m)
			}
			validator.CheckRunSet(rs)
		}
		return rs, err
	}

	profiles := gemstone.ValidationWorkloads()
	if *nWorkloads > 0 && *nWorkloads < len(profiles) {
		profiles = profiles[:*nWorkloads]
	}
	opt := func() gemstone.CollectOptions {
		return gemstone.CollectOptions{
			Workloads: profiles,
			Clusters:  []string{*cluster},
			Fidelity:  fid,
		}
	}

	var hwRuns, simRuns *gemstone.RunSet
	var flagged []gemstone.RunKey
	switch {
	case !needCampaign:
	case *screen:
		logger.Info("screening campaign", "workloads", len(profiles), "cluster", *cluster)
		res, serr := gemstone.Screen(ctx, gemstone.HardwarePlatform(), gemstone.Gem5Platform(ver),
			gemstone.ScreenOptions{
				Options: opt(),
				Collect: func(_ context.Context, pl *gemstone.Platform, o gemstone.CollectOptions) (*gemstone.RunSet, error) {
					return collect(pl, o)
				},
			})
		if serr != nil {
			fatal(serr)
		}
		hwRuns, simRuns, flagged = res.HW, res.Sim, res.Flagged
		logger.Info("screen complete", "points", len(res.ScreenedPE), "flagged", len(res.Flagged))
	default:
		logger.Info("collecting hardware characterisation", "workloads", len(profiles), "cluster", *cluster)
		hwRuns, err = collect(gemstone.HardwarePlatform(), opt())
		if err != nil {
			fatal(err)
		}
		logger.Info("running gem5 simulations", "version", fmt.Sprint(ver))
		simRuns, err = collect(gemstone.Gem5Platform(ver), opt())
		if err != nil {
			fatal(err)
		}
	}
	if *statsDir != "" {
		if err := dumpStatsFiles(*statsDir, simRuns); err != nil {
			fatal(err)
		}
		logger.Info("wrote gem5 stats files", "count", len(simRuns.Runs), "dir", *statsDir)
	}

	var clustering *gemstone.WorkloadClustering
	needClusters := on("fig3") || on("fig6") || on("fig7") || on("fig8") || on("versions")
	if needClusters {
		clustering, err = gemstone.ClusterWorkloads(hwRuns, simRuns, *cluster, *freq, 16)
		if err != nil {
			fatal(err)
		}
	} else if *ledgerPath != "" {
		// Best-effort HCA labels for the ledger's per-workload table; a
		// trimmed -workloads run may have too few members for the paper's
		// 16 clusters, so shrink k rather than fail the recording.
		k := 16
		if n := len(profiles); n < k {
			k = n
		}
		if wc, cerr := gemstone.ClusterWorkloads(hwRuns, simRuns, *cluster, *freq, k); cerr == nil {
			clustering = wc
		} else {
			logger.Warn("ledger: clustering unavailable", "err", cerr)
		}
	}

	var summary *gemstone.ValidationSummary
	if on("validate") || *ledgerPath != "" {
		summary, err = gemstone.Validate(hwRuns, simRuns, *cluster)
		if err != nil {
			fatal(err)
		}
		if validator != nil {
			validator.CheckValidation(summary)
		}
	}
	if on("validate") {
		fmt.Print(report.ValidationSummary(fmt.Sprintf("gem5 %v vs hardware", ver), summary))
		if mape, mpe, n := summary.SuiteSummary("parsec-"); n > 0 {
			fmt.Printf("PARSEC only: MAPE %.1f%% MPE %+.1f%% (%d runs)\n", mape, mpe, n)
		}
		fmt.Println()
		writeCSV(*csvDir, "validation.csv", func() ([]string, [][]string) { return report.ValidationSummaryCSV(summary) })
	}
	if on("fig3") {
		fmt.Println(report.Fig3(clustering))
		writeCSV(*csvDir, "fig3.csv", func() ([]string, [][]string) { return report.Fig3CSV(clustering) })
	}
	if on("fig4") {
		hwCurve, simCurve := latencyCurves(ver, *cluster, *freq)
		fmt.Println(report.Fig4(map[string][]gemstone.LatencyPoint{"hw-" + *cluster: hwCurve, "gem5-" + *cluster: simCurve}))
	}
	if on("fig5") {
		rows, err := gemstone.PMCErrorCorrelation(hwRuns, simRuns, *cluster, *freq, 30)
		if err != nil {
			fatal(err)
		}
		fmt.Println(report.Fig5(rows))
		writeCSV(*csvDir, "fig5.csv", func() ([]string, [][]string) { return report.Fig5CSV(rows) })
	}
	if on("workloads") {
		fmt.Println("=== Workload suite ===")
		fmt.Printf("%-26s %-12s %7s %10s\n", "name", "suite", "threads", "insts")
		for _, p := range gemstone.Workloads() {
			fmt.Printf("%-26s %-12s %7d %10d\n", p.Name, p.Suite, p.Threads, p.TotalInsts)
		}
		fmt.Println()
	}
	if on("dendro") {
		// The hierarchical view behind the Fig. 3 cluster labels.
		X, names, err := workloadRateMatrix(hwRuns, *cluster, *freq)
		if err != nil {
			fatal(err)
		}
		dend := stats.Agglomerate(stats.EuclideanDist(stats.Standardize(X)), stats.AverageLinkage)
		fmt.Println("=== Workload dendrogram (HCA of HW PMC rates) ===")
		fmt.Println(report.Dendrogram(dend, names))
	}
	if on("consistency") {
		fc, err := gemstone.ErrorConsistency(hwRuns, simRuns, *cluster)
		if err != nil {
			fatal(err)
		}
		fmt.Println("=== Cross-frequency error-pattern consistency ===")
		for _, p := range fc.Pairs {
			fmt.Printf("  %4d vs %4d MHz: pearson %+.2f  rank %+.2f\n",
				p.FreqA, p.FreqB, p.Pearson, p.Spearman)
		}
		fmt.Println()
	}
	if on("gem5corr") {
		rows, err := gemstone.Gem5EventCorrelation(hwRuns, simRuns, *cluster, *freq, 0.3, 8)
		if err != nil {
			fatal(err)
		}
		fmt.Println(report.Gem5Correlation(rows))
	}
	if on("regress") {
		sw := gemstone.DefaultStepwiseOptions()
		sw.MaxTerms = 8
		pmcRep, err := gemstone.ErrorRegressionPMC(hwRuns, simRuns, *cluster, *freq, sw)
		if err != nil {
			fatal(err)
		}
		g5Rep, err := gemstone.ErrorRegressionGem5(hwRuns, simRuns, *cluster, *freq, sw)
		if err != nil {
			fatal(err)
		}
		fmt.Println(report.Regression(pmcRep, g5Rep))
	}
	if on("fig6") {
		excl := pathologicalCluster(clustering)
		ratios, bp, err := gemstone.EventComparison(hwRuns, simRuns, *cluster, *freq, clustering.Labels, nil, gemstone.DefaultMapping(), excl)
		if err != nil {
			fatal(err)
		}
		fmt.Println(report.Fig6(ratios, bp))
	}

	var model *gemstone.PowerModel
	powerOpt := gemstone.PowerBuildOptions{Pool: gemstone.RestrictedPool()}
	if on("power") || on("events") || on("fig7") || on("fig8") || on("versions") {
		logger.Info("building power model", "cluster", *cluster, "pool", "restricted")
		model, err = gemstone.BuildPowerModel(hwRuns, *cluster, powerOpt)
		if err != nil {
			fatal(err)
		}
	}
	if model == nil && *ledgerPath != "" {
		// The ledger tracks power-model quality (R², SER) even when no
		// power analysis was requested; tolerate failure rather than lose
		// the timing results.
		logger.Info("building power model for the ledger", "cluster", *cluster)
		if m, merr := gemstone.BuildPowerModel(hwRuns, *cluster, powerOpt); merr == nil {
			model = m
		} else {
			logger.Warn("ledger: power model unavailable", "err", merr)
		}
	}
	if on("power") {
		fmt.Println(report.PowerModel(model))
		fmt.Println("run-time gem5 equation:")
		fmt.Println("  " + model.Equation(gemstone.DefaultMapping()))
		fmt.Println()
		writeCSV(*csvDir, "power_model.csv", func() ([]string, [][]string) { return report.PowerModelCSV(model) })
	}
	if on("events") {
		// Fig. 1's feedback loop: how well gem5 reproduces each model
		// event, then which candidates survive the automated restraints.
		mapping := gemstone.DefaultMapping()
		rel, err := gemstone.AssessEventReliability(hwRuns, simRuns, *cluster, *freq, mapping, model.Events)
		if err != nil {
			fatal(err)
		}
		kept, excluded, err := gemstone.DeriveEventRestraints(hwRuns, simRuns, *cluster, *freq,
			mapping, powerOpt.Pool, 60)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("=== Event reliability — gem5 %v vs hardware (%s @ %d MHz) ===\n", ver, *cluster, *freq)
		fmt.Printf("%-28s %12s %12s\n", "event", "rate MAPE", "total MAPE")
		for _, r := range rel {
			fmt.Printf("%-28s %11.1f%% %11.1f%%\n", r.Event.String(), r.RateMAPE, r.TotalMAPE)
		}
		fmt.Printf("\nautomated restraints (rate MAPE > 60%% or unmappable): %d kept, %d excluded\n",
			len(kept), len(excluded))
		for _, e := range excluded {
			fmt.Printf("  excluded: %s\n", e)
		}
		fmt.Println()
	}
	if on("fig7") {
		an, err := gemstone.AnalyzePowerEnergy(model, gemstone.DefaultMapping(), hwRuns, simRuns, *cluster, *freq, clustering.Labels)
		if err != nil {
			fatal(err)
		}
		fmt.Println(report.Fig7(an))
	}
	if on("fig8") {
		models := map[string]*gemstone.PowerModel{*cluster: model}
		baseFreq := gemstone.ExperimentFrequencies(*cluster)[0]
		hwCurve, err := gemstone.ScalingAnalysis(hwRuns, models, gemstone.DefaultMapping(),
			false, clustering.Labels, *cluster, baseFreq)
		if err != nil {
			fatal(err)
		}
		simCurve, err := gemstone.ScalingAnalysis(simRuns, models, gemstone.DefaultMapping(),
			true, clustering.Labels, *cluster, baseFreq)
		if err != nil {
			fatal(err)
		}
		fmt.Println(report.Fig8(hwCurve, simCurve))
	}
	if on("versions") {
		other := gemstone.V2
		if ver == gemstone.V2 {
			other = gemstone.V1
		}
		logger.Info("running gem5 simulations for the version comparison", "version", fmt.Sprint(other))
		otherRuns, err := collect(gemstone.Gem5Platform(other), opt())
		if err != nil {
			fatal(err)
		}
		v1Runs, v2Runs := simRuns, otherRuns
		if ver == gemstone.V2 {
			v1Runs, v2Runs = otherRuns, simRuns
		}
		vc, err := gemstone.CompareVersions(hwRuns, v1Runs, v2Runs, *cluster, *freq,
			model, gemstone.DefaultMapping(), clustering.Labels)
		if err != nil {
			fatal(err)
		}
		fmt.Println(report.Versions(vc))
	}

	if validator != nil {
		for _, d := range validator.Violations() {
			logger.Warn("invariant violation",
				"invariant", d.Invariant, "run", d.Run, "detail", d.Detail)
		}
	}

	if *ledgerPath != "" {
		entry := buildLedgerEntry(ledgerInputs{
			hw:         gemstone.HardwarePlatform(),
			sim:        gemstone.Gem5Platform(ver),
			version:    ver,
			cluster:    *cluster,
			freqMHz:    *freq,
			fidelity:   fid,
			screened:   *screen,
			flagged:    flagged,
			profiles:   profiles,
			recorder:   recorder,
			tracer:     tracer,
			summary:    summary,
			clustering: clustering,
			model:      model,
			validator:  validator,
			coord:      coord,
		})
		if err := gemstone.OpenLedger(*ledgerPath).Append(entry); err != nil {
			fatal(err)
		}
		logger.Info("ledger entry appended", "path", *ledgerPath,
			"workloads", len(entry.Results.Workloads),
			"validator_checks", entry.Results.ValidatorChecks,
			"validator_violations", entry.Results.ValidatorViolations)
	}

	if s := metrics.Stats(); s.Jobs > 0 {
		attrs := []any{
			"platforms", strings.Join(metrics.Platforms(), "+"),
			"runs", s.Jobs, "simulated", s.Simulated,
			"cache_hits", s.CacheHits, "skipped", s.Skipped,
			"plan", s.PlanTime.Round(time.Microsecond).String(),
			"cache", s.CacheTime.Round(time.Microsecond).String(),
			"sim", s.SimTime.Round(time.Millisecond).String(),
			"wall", s.WallTime.Round(time.Millisecond).String(),
			"cache_hit_rate", fmt.Sprintf("%.0f%%", 100*float64(s.CacheHits)/float64(s.Jobs)),
		}
		if validator != nil {
			attrs = append(attrs, "validator_checks", validator.Checks(),
				"validator_violations", validator.Count())
		}
		logger.Info("campaigns total", attrs...)
	}
	exit(0)
}

// ledgerInputs gathers everything buildLedgerEntry distils into a record.
type ledgerInputs struct {
	hw, sim    *gemstone.Platform
	version    gem5.Version
	cluster    string
	freqMHz    int
	fidelity   gemstone.Fidelity
	screened   bool
	flagged    []gemstone.RunKey
	profiles   []gemstone.WorkloadProfile
	recorder   *gemstone.CampaignRecorder
	tracer     *gemstone.Tracer
	summary    *gemstone.ValidationSummary
	clustering *gemstone.WorkloadClustering
	model      *gemstone.PowerModel
	validator  *gemstone.Validator
	coord      *dist.Coordinator
}

// buildLedgerEntry assembles the flight-recorder record for this
// invocation: provenance manifest (build, fingerprints, workload set,
// DVFS grid, campaign stats, phase times), results (headline and
// per-workload errors, power-model quality, lmbench digest) and any
// validator diagnostics.
func buildLedgerEntry(in ledgerInputs) gemstone.LedgerEntry {
	hwCfg, simCfg := in.hw.Config(), in.sim.Config()
	names, setHash, seed := ledger.WorkloadSetDigest(in.profiles)
	grid := make(map[string][]int, len(hwCfg.Clusters))
	for _, cc := range hwCfg.Clusters {
		grid[cc.Name] = cc.Frequencies()
	}
	man := gemstone.RunManifest{
		Schema:           ledger.SchemaVersion,
		CreatedUnix:      time.Now().Unix(),
		Build:            gemstone.ReadBuildInfo(),
		HWPlatform:       hwCfg.Name,
		ModelPlatform:    simCfg.Name,
		HWFingerprint:    hwCfg.Fingerprint(),
		ModelFingerprint: simCfg.Fingerprint(),
		Gem5Version:      int(in.version),
		Cluster:          in.cluster,
		FreqMHz:          in.freqMHz,
		Workloads:        names,
		WorkloadSetHash:  setHash,
		Seed:             seed,
		DVFSGrid:         grid,
		Campaigns:        in.recorder.Campaigns(),
	}
	if in.fidelity != gemstone.FidelityDetailed {
		man.Fidelity = in.fidelity.String()
	}
	if in.screened {
		man.Mode = "screen"
		for _, k := range in.flagged {
			man.ScreenFlagged = append(man.ScreenFlagged,
				fmt.Sprintf("%s/%s/%d", k.Workload, k.Cluster, k.FreqMHz))
		}
	}
	if in.tracer != nil {
		man.PhaseSeconds = ledger.PhaseSeconds(in.tracer.Events())
	}
	if in.coord != nil {
		for _, ws := range in.coord.WorkerStats() {
			man.DistWorkers = append(man.DistWorkers, ledger.DistWorker{
				Addr:     ws.Addr,
				Capacity: ws.Capacity,
				Jobs:     ws.Jobs,
				Retries:  ws.Retries,
				Alive:    ws.Alive,
			})
		}
	}

	var results gemstone.LedgerResults
	if in.summary != nil {
		results = ledger.ResultsFromValidation(in.summary, in.freqMHz, in.clustering)
	} else {
		results = gemstone.LedgerResults{Cluster: in.cluster, FreqMHz: in.freqMHz}
	}
	results.Power = ledger.PowerFromModel(in.model)
	results.Latency = ledger.LatencyFromPoints(latencyCurves(in.version, in.cluster, in.freqMHz))

	entry := gemstone.LedgerEntry{Manifest: man, Results: results}
	if in.validator != nil {
		entry.Results.ValidatorChecks = in.validator.Checks()
		entry.Diagnostics = in.validator.Violations()
		entry.Results.ValidatorViolations = len(entry.Diagnostics)
	}
	return entry
}

// latencyCurves runs the Fig. 4 lat_mem_rd-style sweep on the cluster's
// hardware and gem5 cores.
func latencyCurves(ver gem5.Version, cluster string, freqMHz int) (hwCurve, simCurve []gemstone.LatencyPoint) {
	hwCore, simCore := gemstone.HardwareA15(), gemstone.Gem5Big(ver)
	if cluster == gemstone.ClusterA7 {
		hwCore, simCore = gemstone.HardwareA7(), gemstone.Gem5LITTLE(ver)
	}
	sizes := gemstone.DefaultLatencySizes()
	return gemstone.MemoryLatency(hwCore, freqMHz, fig4Stride, sizes),
		gemstone.MemoryLatency(simCore, freqMHz, fig4Stride, sizes)
}

// workloadRateMatrix rebuilds the standardisable PMC-rate matrix of the
// hardware runs for dendrogram rendering (workload x event rates).
func workloadRateMatrix(hwRuns *gemstone.RunSet, cluster string, freq int) ([][]float64, []string, error) {
	names := hwRuns.Workloads()
	var rows [][]float64
	var kept []string
	for _, name := range names {
		m, err := hwRuns.Get(gemstone.RunKey{Workload: name, Cluster: cluster, FreqMHz: freq})
		if err != nil {
			continue
		}
		var row []float64
		for _, e := range pmu.AllEvents() {
			row = append(row, m.Sample.Rate(e))
		}
		rows = append(rows, row)
		kept = append(kept, name)
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("no runs for %s at %d MHz", cluster, freq)
	}
	return rows, kept, nil
}

// pathologicalCluster mimics the paper's Fig. 6 mean, which excludes its
// Cluster 16 (the extreme-regularity loop kernels).
func pathologicalCluster(wc *gemstone.WorkloadClustering) map[int]bool {
	excl := map[int]bool{}
	if l, ok := wc.Labels["par-basicmath-rad2deg"]; ok {
		excl[l] = true
	}
	return excl
}

// dumpStatsFiles writes one gem5-format stats.txt per run, named
// <workload>-<cluster>-<freq>.stats.txt — the files a real gem5 campaign
// would leave behind for retrospective analysis.
func dumpStatsFiles(dir string, rs *gemstone.RunSet) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for key, m := range rs.Runs {
		name := fmt.Sprintf("%s-%s-%d.stats.txt", key.Workload, key.Cluster, key.FreqMHz)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		err = gemstone.WriteGem5StatsFile(f, gemstone.Gem5Stats(m))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeCSV(dir, name string, gen func() ([]string, [][]string)) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	header, rows := gen()
	if err := report.WriteCSV(f, header, rows); err != nil {
		fatal(err)
	}
}
