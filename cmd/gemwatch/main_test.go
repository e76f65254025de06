package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gemstone/internal/ledger"
)

// entry fabricates a ledger record with the given model fingerprint and
// headline MPE; per-workload PEs are centred on the headline.
func entry(model string, mpe float64, pes map[string]float64) ledger.Entry {
	e := ledger.Entry{
		Manifest: ledger.RunManifest{
			Schema:           ledger.SchemaVersion,
			HWPlatform:       "odroid-xu3",
			ModelPlatform:    "gem5-ex5-" + model,
			HWFingerprint:    "hw-fp",
			ModelFingerprint: "model-fp-" + model,
			Cluster:          "a15",
			FreqMHz:          1000,
		},
		Results: ledger.Results{
			Cluster: "a15", FreqMHz: 1000,
			MAPE: mpe * -1, MPE: mpe,
		},
	}
	label := 0
	for wl, pe := range pes {
		e.Results.Workloads = append(e.Results.Workloads,
			ledger.WorkloadResult{Workload: wl, HCACluster: label % 2, PE: pe})
		label++
	}
	return e
}

func writeLedger(t *testing.T, path string, entries ...ledger.Entry) {
	t.Helper()
	st := ledger.Open(path)
	for _, e := range entries {
		if err := st.Append(e); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunNoDrift(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "baseline.jsonl")
	curPath := filepath.Join(dir, "ledger.jsonl")
	pes := map[string]float64{"w1": -50, "w2": -52, "w3": -48}
	writeLedger(t, basePath, entry("v1", -51, pes))
	writeLedger(t, curPath, entry("v1", -50.5, pes))

	var out, errb bytes.Buffer
	code := run([]string{"-ledger", curPath, "-baseline", basePath}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "OK — within tolerance") {
		t.Fatalf("verdict missing:\n%s", out.String())
	}
}

func TestRunDetectsDriftAndWritesHTML(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "baseline.jsonl")
	curPath := filepath.Join(dir, "ledger.jsonl")
	htmlPath := filepath.Join(dir, "drift.html")
	// The Section VII swing: v1's branch-predictor bug vs the v2 fix.
	writeLedger(t, basePath, entry("v1", -51.7,
		map[string]float64{"w1": -50, "w2": -52, "w3": -48, "w4": -494}))
	writeLedger(t, curPath,
		entry("v1", -51.7, map[string]float64{"w1": -50, "w2": -52, "w3": -48, "w4": -494}),
		entry("v2", 10.2, map[string]float64{"w1": 9, "w2": 11, "w3": 10, "w4": -30}))

	var out, errb bytes.Buffer
	code := run([]string{"-ledger", curPath, "-baseline", basePath, "-html", htmlPath}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (drift). stderr: %s", code, errb.String())
	}
	for _, want := range []string{"DRIFT DETECTED", "MPE", "fingerprint changed"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q in:\n%s", want, out.String())
		}
	}
	html, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<!doctype html", "Drift detected", "polyline"} {
		if !strings.Contains(string(html), want) {
			t.Fatalf("HTML missing %q", want)
		}
	}
}

func TestRunMissingLedgers(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	code := run([]string{
		"-ledger", filepath.Join(dir, "none.jsonl"),
		"-baseline", filepath.Join(dir, "nobase.jsonl"),
	}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "no valid baseline entries") {
		t.Fatalf("stderr: %s", errb.String())
	}
}

func TestRunToleratesCorruptLines(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "baseline.jsonl")
	curPath := filepath.Join(dir, "ledger.jsonl")
	pes := map[string]float64{"w1": -50}
	writeLedger(t, basePath, entry("v1", -51, pes))
	writeLedger(t, curPath, entry("v1", -51, pes))
	// A writer died mid-append: the watchdog must still compare the last
	// complete record.
	f, err := os.OpenFile(curPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"manifest":{"schema":1,"trunc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out, errb bytes.Buffer
	code := run([]string{"-ledger", curPath, "-baseline", basePath}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "skipped 1 corrupt") {
		t.Fatalf("corruption warning missing: %s", errb.String())
	}
}
