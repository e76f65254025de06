package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gemstone/internal/load"
)

func TestParseMix(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want load.Mix
		err  bool
	}{
		{"", load.Mix{}, false},
		{"cold=1,warm=3,events=3,analysis=3", load.Mix{Cold: 1, Warm: 3, Events: 3, Analysis: 3}, false},
		{"cold=2", load.Mix{Cold: 2}, false},
		{" cold=1, analysis=0.5", load.Mix{Cold: 1, Analysis: 0.5}, false},
		{"cold=0,warm=0", load.Mix{}, true}, // all-zero mix
		{"cold", load.Mix{}, true},
		{"frob=1", load.Mix{}, true},
		{"cold=-1", load.Mix{}, true},
		{"cold=x", load.Mix{}, true},
	} {
		got, err := parseMix(tc.spec)
		if (err != nil) != tc.err {
			t.Errorf("parseMix(%q) err = %v, want err=%v", tc.spec, err, tc.err)
			continue
		}
		if !tc.err && got != tc.want {
			t.Errorf("parseMix(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	// Neither -target nor -fleet.
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("no mode: exit %d, want 2", code)
	}
	// Both at once.
	if code := run([]string{"-target", "http://x", "-fleet", "2"}, &out, &errb); code != 2 {
		t.Fatalf("both modes: exit %d, want 2", code)
	}
	// Bad mix.
	if code := run([]string{"-fleet", "1", "-mix", "frob=1"}, &out, &errb); code != 2 {
		t.Fatalf("bad mix: exit %d, want 2", code)
	}
	// Unreachable target fails setup, not the SLO.
	if code := run([]string{"-target", "http://127.0.0.1:1", "-duration", "1s"}, &out, &errb); code != 2 {
		t.Fatalf("unreachable target: exit %d, want 2", code)
	}
}

// TestRunFleetSmoke is the CLI end-to-end: boot the in-process fleet,
// run a short closed-loop load, and check the JSON report and the exit
// code.
func TestRunFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet smoke skipped in -short (covered by internal/load e2e)")
	}
	dir := t.TempDir()
	outPath := filepath.Join(dir, "report.json")
	var out, errb bytes.Buffer
	code := run([]string{
		"-fleet", "2", "-duration", "1500ms", "-concurrency", "3",
		"-tenants", "2", "-seed", "21",
		"-out", outPath,
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "SLO: PASS") {
		t.Fatalf("stdout lacks SLO verdict:\n%s", out.String())
	}

	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep load.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.OK || rep.CampaignsDone == 0 {
		t.Fatalf("report: ok=%v done=%d", rep.OK, rep.CampaignsDone)
	}
	// The per-op latency percentiles and throughput are the report's
	// comparable numbers.
	for _, op := range rep.Ops {
		if op.OK > 0 && (op.ThroughputRPS <= 0 || op.P50Ms > op.P99Ms) {
			t.Fatalf("malformed op stats: %+v", op)
		}
	}
}
