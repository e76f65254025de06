// Command gemwatch is GemStone's result-drift watchdog. It compares the
// newest entry of a results ledger (written by gemstone -ledger) against
// a committed baseline ledger and fails when the results moved:
//
//   - headline MPE/MAPE outside a tolerance band (in percentage points),
//   - power-model R² degradation or MAPE movement,
//   - lmbench latency divergence,
//   - per-workload PE deltas flagged as robust (MAD-based) outliers,
//     reported by the baseline's HCA cluster so a shifted workload family
//     is named, not just counted,
//   - workload-set mismatches (missing or new workloads).
//
// Usage:
//
//	gemwatch [flags]
//
//	-ledger   file   results ledger to check   (default ledger.jsonl)
//	-baseline file   blessed baseline ledger   (default baselines/ledger.jsonl)
//	-html     file   also write a self-contained HTML drift report
//	-tol-mpe  pp     headline MPE tolerance    (default 2)
//	-tol-mape pp     headline MAPE tolerance   (default 2)
//	-tol-r2   d      allowed power R² drop     (default 0.01)
//	-pe-floor pp     min |ΔPE| to flag a workload outlier (default 5)
//	-mad-k    k      robust z-score outlier threshold     (default 3.5)
//
// Exit status: 0 when the latest entry is within tolerance, 1 on drift,
// 2 on usage or I/O errors (missing ledgers, no valid entries).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gemstone"
	"gemstone/internal/ledger"
	"gemstone/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gemwatch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ledgerPath := fs.String("ledger", "ledger.jsonl", "results ledger to check (newest entry is compared)")
	basePath := fs.String("baseline", "baselines/ledger.jsonl", "blessed baseline ledger (oldest entry is the reference)")
	htmlPath := fs.String("html", "", "also write a self-contained HTML drift report to this file")
	tolMPE := fs.Float64("tol-mpe", 0, "headline MPE tolerance in percentage points (0 = default 2)")
	tolMAPE := fs.Float64("tol-mape", 0, "headline MAPE tolerance in percentage points (0 = default 2)")
	tolR2 := fs.Float64("tol-r2", 0, "allowed power-model R² degradation (0 = default 0.01)")
	peFloor := fs.Float64("pe-floor", 0, "minimum |ΔPE| in pp to flag a workload outlier (0 = default 5)")
	madK := fs.Float64("mad-k", 0, "robust z-score threshold for workload outliers (0 = default 3.5)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	base, ok, err := gemstone.OpenLedger(*basePath).Baseline()
	if err != nil {
		fmt.Fprintln(stderr, "gemwatch:", err)
		return 2
	}
	if !ok {
		fmt.Fprintf(stderr, "gemwatch: no valid baseline entries in %s\n", *basePath)
		return 2
	}
	scan, err := gemstone.OpenLedger(*ledgerPath).Scan()
	if err != nil {
		fmt.Fprintln(stderr, "gemwatch:", err)
		return 2
	}
	if scan.Skipped > 0 {
		fmt.Fprintf(stderr, "gemwatch: skipped %d corrupt or incompatible ledger lines\n", scan.Skipped)
	}
	if len(scan.Entries) == 0 {
		fmt.Fprintf(stderr, "gemwatch: no valid entries in %s (run gemstone -ledger %s first)\n",
			*ledgerPath, *ledgerPath)
		return 2
	}
	cur := scan.Entries[len(scan.Entries)-1]

	r := gemstone.CompareLedgerEntries(base, cur, gemstone.DriftOptions{
		MPETolerancePP:  *tolMPE,
		MAPETolerancePP: *tolMAPE,
		R2Tolerance:     *tolR2,
		PEFloorPP:       *peFloor,
		OutlierZ:        *madK,
	})
	fmt.Fprint(stdout, report.Drift(r))

	if *htmlPath != "" {
		// History for the sparklines: the baseline first, then every valid
		// ledger entry in append order.
		history := append([]ledger.Entry{base}, scan.Entries...)
		html, err := report.DriftHTML(r, history)
		if err != nil {
			fmt.Fprintln(stderr, "gemwatch:", err)
			return 2
		}
		if err := os.WriteFile(*htmlPath, []byte(html), 0o644); err != nil {
			fmt.Fprintln(stderr, "gemwatch:", err)
			return 2
		}
		fmt.Fprintf(stdout, "drift report written to %s\n", *htmlPath)
	}

	if r.Drift {
		return 1
	}
	return 0
}
