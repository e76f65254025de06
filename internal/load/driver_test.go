package load

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"gemstone/internal/dist"
)

// runDuration scales load windows down under -short.
func runDuration(t *testing.T, full time.Duration) time.Duration {
	t.Helper()
	if testing.Short() {
		return full / 2
	}
	return full
}

// TestDriverClosedLoopEndToEnd drives a real in-process fleet with the
// default mix in closed-loop mode and checks the full contract: ops
// complete, latencies are recorded, and the client-side view reconciles
// against the server's own metrics.
func TestDriverClosedLoopEndToEnd(t *testing.T) {
	fleet, err := StartFleet(FleetConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	d, err := NewDriver(Config{
		BaseURL:     fleet.URL,
		Concurrency: 3,
		Duration:    runDuration(t, 2*time.Second),
		Seed:        7,
		Skew:        1.1,
		Tenants:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if r.Mode != "closed" {
		t.Fatalf("mode = %q, want closed", r.Mode)
	}
	if r.CampaignsDone == 0 {
		t.Fatal("no campaigns completed")
	}
	if r.CampaignsFailed != 0 {
		t.Fatalf("%d campaigns failed (last error: %s)", r.CampaignsFailed, r.LastError)
	}
	var issued, ok int
	for _, op := range r.Ops {
		issued += op.Issued
		ok += op.OK
		if op.OK > 0 && op.P50Ms <= 0 {
			t.Errorf("op %s: %d ok but p50 = %v", op.Op, op.OK, op.P50Ms)
		}
		if op.P99Ms+1e-9 < op.P50Ms {
			t.Errorf("op %s: p99 %v < p50 %v", op.Op, op.P99Ms, op.P50Ms)
		}
	}
	if issued == 0 || ok == 0 {
		t.Fatalf("issued=%d ok=%d", issued, ok)
	}
	// The cold op always runs (replay ops fall back to it before any
	// campaign has finished).
	if r.Ops[0].Op != string(OpCold) || r.Ops[0].OK == 0 {
		t.Fatalf("cold op stats missing: %+v", r.Ops)
	}

	if len(r.Checks) == 0 {
		t.Fatal("no reconciliation checks")
	}
	if !r.OK {
		t.Fatalf("reconciliation failed:\n%s", r)
	}
	names := map[string]bool{}
	for _, c := range r.Checks {
		names[c.Name] = true
	}
	for _, want := range []string{"campaigns-done", "campaigns-failed", "queue-drained", "latency-mean-s"} {
		if !names[want] {
			t.Errorf("missing check %q in %v", want, names)
		}
	}

	if len(r.Statusz) == 0 {
		t.Fatal("no statusz snapshot")
	}
	var sz struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(r.Statusz, &sz); err != nil || sz.Status == "" {
		t.Fatalf("statusz snapshot malformed: %v %s", err, r.Statusz)
	}

	// Every exercised op reports ordered percentiles and a throughput;
	// the cold op is always exercised.
	seen := map[string]bool{}
	for _, op := range r.Ops {
		if op.OK == 0 {
			continue
		}
		seen[op.Op] = true
		if op.ThroughputRPS <= 0 || op.P50Ms > op.P95Ms || op.P95Ms > op.P99Ms {
			t.Errorf("op %s: malformed stats %+v", op.Op, op)
		}
	}
	if !seen["cold"] {
		t.Errorf("report missing cold op stats: %v", seen)
	}

	// The human rendering mentions the verdict.
	if s := r.String(); !strings.Contains(s, "SLO: PASS") {
		t.Errorf("report string lacks verdict:\n%s", s)
	}
}

// TestDriverOpenLoop runs the Poisson-scheduled open loop and checks
// arrivals were issued and measured from their intended instants.
func TestDriverOpenLoop(t *testing.T) {
	fleet, err := StartFleet(FleetConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	d, err := NewDriver(Config{
		BaseURL:     fleet.URL,
		Concurrency: 4,
		RateHz:      40,
		Duration:    runDuration(t, 2*time.Second),
		Seed:        11,
		Skew:        1.0,
		Tenants:     3,
		Mix:         Mix{Cold: 1, Warm: 2, Events: 4, Analysis: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode != "open" {
		t.Fatalf("mode = %q, want open", r.Mode)
	}
	var issued int
	for _, op := range r.Ops {
		issued += op.Issued
	}
	// The Poisson schedule is deterministic given the seed: every
	// generated arrival is either issued or counted as backlog, and at
	// 40/s the window produces far more than this floor.
	if total := issued + r.Backlog; total < 30 {
		t.Fatalf("open loop scheduled %d arrivals (issued %d, backlog %d), want >= 30",
			total, issued, r.Backlog)
	}
	if issued == 0 {
		t.Fatal("open loop issued nothing")
	}
	if !r.OK {
		t.Fatalf("reconciliation failed:\n%s", r)
	}
}

// TestDriverRejectsBadConfig covers constructor validation.
func TestDriverRejectsBadConfig(t *testing.T) {
	if _, err := NewDriver(Config{}); err == nil {
		t.Fatal("empty BaseURL must error")
	}
	if _, err := NewDriver(Config{BaseURL: "http://x", InvokeLength: 10_000}); err == nil {
		t.Fatal("oversized invoke length must error")
	}
}

// TestChaosSoak is the SLO soak: a three-worker fleet with one worker
// dying (and the previous victim reviving) on a fixed schedule plus a
// fault-injecting transport, under sustained mixed load. The SLO
// contract: zero failed campaigns, and the client/server views still
// reconcile — worker death costs tail latency, never correctness.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	fleet, err := StartFleet(FleetConfig{
		Workers:   3,
		KillEvery: 500 * time.Millisecond,
		Chaos: &dist.Chaos{
			Seed:          5,
			DropProb:      0.05,
			DuplicateProb: 0.05,
			CorruptProb:   0.05,
			MaxFaults:     40,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	d, err := NewDriver(Config{
		BaseURL:     fleet.URL,
		Concurrency: 4,
		Duration:    4 * time.Second,
		Seed:        13,
		Skew:        1.1,
		Tenants:     3,
		Mix:         Mix{Cold: 2, Warm: 3, Events: 2, Analysis: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Kills() == 0 {
		t.Fatal("kill schedule never fired")
	}
	if r.CampaignsFailed != 0 {
		t.Fatalf("%d campaigns failed under chaos (last error: %s)", r.CampaignsFailed, r.LastError)
	}
	if !r.OK {
		t.Fatalf("SLO reconciliation failed under chaos:\n%s", r)
	}
}
