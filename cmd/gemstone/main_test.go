package main

import (
	"bytes"
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

// TestVersionFlagRejectsUnknownModel: only 1 and 2 name a gem5 model. Any
// other -version is a usage error (exit 2) before a campaign runs, not a
// silent V1 run whose ledger manifest records the bad number.
func TestVersionFlagRejectsUnknownModel(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	ledgerPath := filepath.Join(dir, "ledger.jsonl")
	cmd := exec.Command(os.Args[0], runMainArg, "-version", "3",
		"-analyses", "validate", "-workloads", "1",
		"-cachedir", cacheDir, "-ledger", ledgerPath)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2\nstderr:\n%s", err, stderr.String())
	}
	for _, want := range []string{"-version", "1 or 2", "Usage"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}
	for _, p := range []string{cacheDir, ledgerPath} {
		if _, err := os.Stat(p); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s exists (stat err %v): a campaign ran", p, err)
		}
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
