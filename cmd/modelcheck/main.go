// Command modelcheck is the regression gate the paper motivates in
// Section VII: "a researcher would see very different results for their
// study depending on when they downloaded gem5 ... GemStone can be run
// after a change has been made to the simulator to verify the model
// behaviour against the HW reference (i.e. ensuring no major bugs have
// been introduced)."
//
// It validates a gem5 model version against the hardware reference and
// exits non-zero if the execution-time error exceeds the given bounds, so
// it can gate a CI pipeline.
//
// Usage:
//
//	modelcheck [-cluster a15|a7] [-version 1|2]
//	           [-max-mape pct] [-max-abs-mpe pct] [-workloads N]
//	           [-log-format text|json]
//
// Example: `modelcheck -version 2 -max-mape 25 -max-abs-mpe 20` passes for
// the fixed model and fails (exit 1) for the buggy one. In CI, pass
// -log-format json for machine-readable progress lines; the PASS/FAIL
// verdict itself goes to stdout either way.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"

	"gemstone"
	"gemstone/internal/obs"
	"gemstone/internal/report"
)

func main() {
	cluster := flag.String("cluster", gemstone.ClusterA15, "cluster to validate (a7|a15)")
	ver := gemstone.V1
	flag.Var(&ver, "version", "gem5 model version `N`: 1 or 2 (default 1)")
	maxMAPE := flag.Float64("max-mape", 25, "fail if MAPE exceeds this percentage")
	maxAbsMPE := flag.Float64("max-abs-mpe", 20, "fail if |MPE| exceeds this percentage")
	nWorkloads := flag.Int("workloads", 0, "limit to the first N validation workloads (0 = all)")
	logFormat := flag.String("log-format", obs.LogText, "log output format (text|json)")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, slog.LevelInfo)
	if err != nil {
		fmt.Fprintln(os.Stderr, "modelcheck:", err)
		os.Exit(2)
	}
	fatal := func(err error) {
		logger.Error("modelcheck failed", "err", err)
		os.Exit(1)
	}

	profiles := gemstone.ValidationWorkloads()
	if *nWorkloads > 0 && *nWorkloads < len(profiles) {
		profiles = profiles[:*nWorkloads]
	}
	opt := func() gemstone.CollectOptions {
		return gemstone.CollectOptions{Workloads: profiles, Clusters: []string{*cluster}}
	}

	logger.Info("validating gem5 against the hardware reference",
		"version", fmt.Sprint(ver), "cluster", *cluster)
	hwRuns, err := gemstone.Collect(context.Background(), gemstone.HardwarePlatform(), opt())
	if err != nil {
		fatal(err)
	}
	simRuns, err := gemstone.Collect(context.Background(), gemstone.Gem5Platform(ver), opt())
	if err != nil {
		fatal(err)
	}
	vs, err := gemstone.Validate(hwRuns, simRuns, *cluster)
	if err != nil {
		fatal(err)
	}
	fmt.Print(report.ValidationSummary(fmt.Sprintf("modelcheck gem5 %v", ver), vs))

	ok := true
	if vs.MAPE > *maxMAPE {
		fmt.Printf("FAIL: MAPE %.1f%% exceeds bound %.1f%%\n", vs.MAPE, *maxMAPE)
		ok = false
	}
	abs := vs.MPE
	if abs < 0 {
		abs = -abs
	}
	if abs > *maxAbsMPE {
		fmt.Printf("FAIL: |MPE| %.1f%% exceeds bound %.1f%%\n", abs, *maxAbsMPE)
		ok = false
	}
	if !ok {
		os.Exit(1)
	}
	fmt.Printf("PASS: within bounds (MAPE <= %.1f%%, |MPE| <= %.1f%%)\n", *maxMAPE, *maxAbsMPE)
}
