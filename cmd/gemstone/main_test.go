package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gemstone/internal/core"
	"gemstone/internal/platform"
)

// runMainArg, as the test binary's first argument, makes it run the
// gemstone command on the remaining arguments instead of the tests, so a
// test can observe the command's exit status.
const runMainArg = "gemstone-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMainArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runGemstone runs the gemstone command with args in a child process and
// returns its stdout, stderr and exit status.
func runGemstone(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{runMainArg}, args...)...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// assertNotCreated fails the test for every path that exists.
func assertNotCreated(t *testing.T, paths ...string) {
	t.Helper()
	for _, p := range paths {
		if _, err := os.Stat(p); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s exists (stat err %v): a campaign ran", p, err)
		}
	}
}

// assertUsageError runs gemstone with args plus -cachedir and -ledger and
// checks that it is a usage error: exit 2, the usage text and each want
// on stderr, and neither path created (no campaign ran).
func assertUsageError(t *testing.T, args []string, want ...string) {
	t.Helper()
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	ledgerPath := filepath.Join(dir, "ledger.jsonl")
	_, stderr, code := runGemstone(t, append(args, "-workloads", "1",
		"-cachedir", cacheDir, "-ledger", ledgerPath)...)
	if code != 2 {
		t.Fatalf("exit status %d, want 2\nstderr:\n%s", code, stderr)
	}
	for _, w := range append(want, "Usage") {
		if !strings.Contains(stderr, w) {
			t.Errorf("stderr lacks %q:\n%s", w, stderr)
		}
	}
	assertNotCreated(t, cacheDir, ledgerPath)
}

// TestVersionFlagRejectsUnknownModel: only 1 and 2 name a gem5 model. Any
// other -version is a usage error (exit 2) before a campaign runs, not a
// silent V1 run whose ledger manifest records the bad number.
func TestVersionFlagRejectsUnknownModel(t *testing.T) {
	assertUsageError(t, []string{"-version", "3", "-analyses", "validate"}, "-version", "1 or 2")
}

// TestAnalysesFlagRejectsUnknownName: a misspelt analysis is a usage
// error, not a full campaign that prints nothing and exits 0.
func TestAnalysesFlagRejectsUnknownName(t *testing.T) {
	assertUsageError(t, []string{"-analyses", "validate,fgi4"}, `unknown analysis "fgi4"`)
}

// TestClusterFlagRejectsUnknownCluster: a cluster the hardware platform
// lacks is a usage error, not a silent run on the A7 curves.
func TestClusterFlagRejectsUnknownCluster(t *testing.T) {
	assertUsageError(t, []string{"-cluster", "m7", "-analyses", "fig4"}, `unknown cluster "m7"`)
}

// TestCampaignFreeAnalyses: fig4 (a microbenchmark) and workloads (a
// listing) consume no campaign, so a run of only those collects nothing —
// not even the run cache is opened.
func TestCampaignFreeAnalyses(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	stdout, stderr, code := runGemstone(t, "-analyses", "fig4,workloads", "-cachedir", cacheDir)
	if code != 0 {
		t.Fatalf("exit status %d\nstderr:\n%s", code, stderr)
	}
	for _, want := range []string{"=== Fig. 4", "hw-a15", "gem5-a15", "=== Workload suite ==="} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	if strings.Contains(stderr, "collecting hardware characterisation") {
		t.Errorf("a campaign ran:\n%s", stderr)
	}
	assertNotCreated(t, cacheDir)
}

// TestEventsAnalysis: the events analysis prints the per-event gem5
// accuracy table and the automated restraints of the candidate pool.
func TestEventsAnalysis(t *testing.T) {
	stdout, stderr, code := runGemstone(t, "-analyses", "events", "-workloads", "6")
	if code != 0 {
		t.Fatalf("exit status %d\nstderr:\n%s", code, stderr)
	}
	for _, want := range []string{"=== Event reliability", "rate MAPE", "total MAPE",
		"automated restraints (rate MAPE > 60% or unmappable)"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
}

// TestLedgerRecordsSweptGrid: the manifest's DVFS grid is the grid the
// campaign collected — the A15 experiment frequencies — not every
// frequency of every hardware cluster.
func TestLedgerRecordsSweptGrid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	_, stderr, code := runGemstone(t, "-analyses", "none", "-workloads", "2", "-ledger", path)
	if code != 0 {
		t.Fatalf("exit status %d\nstderr:\n%s", code, stderr)
	}
	line, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var entry struct {
		Manifest struct {
			DVFSGrid json.RawMessage `json:"dvfs_grid"`
		} `json:"manifest"`
	}
	if err := json.Unmarshal(line, &entry); err != nil {
		t.Fatal(err)
	}
	if got, want := string(entry.Manifest.DVFSGrid), `{"a15":[600,1000,1400,1800]}`; got != want {
		t.Fatalf("dvfs_grid = %s, want %s", got, want)
	}
}

// TestProgressObserverReachesTotalWithErrors is the regression test for
// RunError: failed runs must advance the progress count, so a campaign
// with failures still reports N/N instead of stalling short.
func TestProgressObserverReachesTotalWithErrors(t *testing.T) {
	var buf bytes.Buffer
	p := newProgressObserver(slog.New(slog.NewTextHandler(&buf, nil)))
	now := time.Unix(1000, 0)
	p.now = func() time.Time { return now }

	key := core.RunKey{Workload: "w", Cluster: "a15", FreqMHz: 1000}
	p.CollectStart("odroid-xu3", 4)
	now = now.Add(2 * time.Second)
	p.RunDone(key, platform.Measurement{}, time.Second)
	p.RunError(key, errors.New("boom"))
	now = now.Add(2 * time.Second)
	p.CacheHit(key)
	p.RunDone(key, platform.Measurement{}, time.Second)

	out := buf.String()
	if !strings.Contains(out, "done=4") || !strings.Contains(out, "total=4") {
		t.Fatalf("progress never reached 4/4 — RunError must step:\n%s", out)
	}
	if !strings.Contains(out, "run failed") || !strings.Contains(out, "boom") {
		t.Fatalf("missing failure line:\n%s", out)
	}
}

// TestProgressObserverRateAndETA pins the throughput figures: two runs
// done two seconds in is 1.0 runs/sec, leaving a 2s ETA for the rest.
func TestProgressObserverRateAndETA(t *testing.T) {
	var buf bytes.Buffer
	p := newProgressObserver(slog.New(slog.NewTextHandler(&buf, nil)))
	now := time.Unix(1000, 0)
	p.now = func() time.Time { return now }

	key := core.RunKey{Workload: "w", Cluster: "a15", FreqMHz: 1000}
	p.CollectStart("odroid-xu3", 4)
	now = now.Add(2 * time.Second)
	p.RunDone(key, platform.Measurement{}, time.Second)
	p.RunDone(key, platform.Measurement{}, time.Second)

	out := buf.String()
	if !strings.Contains(out, "runs_per_sec=1.0") {
		t.Fatalf("missing runs_per_sec=1.0:\n%s", out)
	}
	if !strings.Contains(out, "eta=2s") {
		t.Fatalf("missing eta=2s:\n%s", out)
	}
}
