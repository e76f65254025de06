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
//
// The tolerances are fixed: 2 pp on the headline MPE and MAPE (and the
// power-model MAPE), a 0.01 power R² drop, and a workload outlier needs
// a robust z-score above 3.5 and a |ΔPE| above 5 pp.
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

	r := gemstone.CompareLedgerEntries(base, cur)
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
