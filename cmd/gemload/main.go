// Command gemload is GemStone's service load generator: it replays a
// mix of cold campaigns, warm-cache resubmissions, SSE event
// subscribers and analysis reads against a gemstone serve endpoint
// (or an in-process fleet it boots itself), measures every request
// end-to-end into HDR latency histograms, and reconciles the
// client-observed SLOs against the server's own gemstone_serve_*
// metrics so both sides of the wire agree on what happened.
//
// Two scheduling modes:
//
//   - closed loop (default): -concurrency slots issue back-to-back,
//     so offered load adapts to service speed;
//   - open loop (-rate R): arrivals follow a Poisson process at R/s
//     and latency is measured from each intended arrival instant, so
//     a saturated service shows queueing delay instead of silently
//     thinning the load (no coordinated omission).
//
// Tenant and replay-target selection are Zipf-skewed (-skew), spec
// size is -invoke workloads per campaign — the skew/invokeLength/
// totalTime knobs of serverless load generators like ReqBench, aimed
// at a simulation campaign service.
//
// Usage:
//
//	gemload [flags]
//
//	-target URL      load an existing gemstone serve endpoint
//	-fleet N         boot an in-process fleet with N workers instead
//	-duration D      offered-load window              (default 5s)
//	-rate R          open-loop arrival rate per second (0 = closed loop)
//	-concurrency N   request slots                    (default 4)
//	-tenants N       tenant namespaces                (default 3)
//	-skew S          Zipf exponent for tenant/replay skew (default 1.1)
//	-invoke K        workloads per campaign spec      (default 1)
//	-mix SPEC        op weights, e.g. cold=1,warm=3,events=3,analysis=3
//	-seed N          RNG seed                         (default 1)
//	-out FILE        write the full JSON report
//	-kill-every D    fleet mode: kill a worker every D (chaos soak)
//	-chaos           fleet mode: inject drops/duplicates/corruption
//	-max-campaigns N fleet mode: admission bound (default 2×concurrency)
//	-tenant-quota N  fleet mode: per-tenant bound  (default unlimited)
//	-q               suppress the human report on stdout
//
// Exit status: 0 when every reconciliation check passes and no
// campaign failed, 1 on an SLO/reconciliation failure, 2 on usage or
// setup errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gemstone/internal/dist"
	"gemstone/internal/load"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// parseMix decodes "cold=1,warm=3,events=3,analysis=3"; omitted ops
// weigh zero, an empty spec means the default mix.
func parseMix(spec string) (load.Mix, error) {
	var m load.Mix
	if spec == "" {
		return m, nil
	}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return m, fmt.Errorf("mix: %q is not op=weight", part)
		}
		w, err := strconv.ParseFloat(v, 64)
		if err != nil || w < 0 {
			return m, fmt.Errorf("mix: bad weight %q for %q", v, k)
		}
		switch k {
		case "cold":
			m.Cold = w
		case "warm":
			m.Warm = w
		case "events":
			m.Events = w
		case "analysis":
			m.Analysis = w
		default:
			return m, fmt.Errorf("mix: unknown op %q (cold, warm, events, analysis)", k)
		}
	}
	if m == (load.Mix{}) {
		return m, fmt.Errorf("mix: all weights zero")
	}
	return m, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gemload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	target := fs.String("target", "", "gemstone serve endpoint to load (mutually exclusive with -fleet)")
	fleetN := fs.Int("fleet", 0, "boot an in-process fleet with this many workers")
	duration := fs.Duration("duration", 5*time.Second, "offered-load window")
	rate := fs.Float64("rate", 0, "open-loop Poisson arrival rate per second (0 = closed loop)")
	concurrency := fs.Int("concurrency", 4, "request slots")
	tenants := fs.Int("tenants", 3, "tenant namespaces the load spreads over")
	skew := fs.Float64("skew", 1.1, "Zipf exponent for tenant and replay-target selection")
	invoke := fs.Int("invoke", 1, "workloads per campaign spec")
	mixSpec := fs.String("mix", "", "op weights, e.g. cold=1,warm=3,events=3,analysis=3")
	seed := fs.Uint64("seed", 1, "RNG seed")
	outPath := fs.String("out", "", "write the full JSON report to this file")
	killEvery := fs.Duration("kill-every", 0, "fleet mode: kill a worker every this often")
	chaos := fs.Bool("chaos", false, "fleet mode: inject drops/duplicates/corruption on the worker wire")
	maxCampaigns := fs.Int("max-campaigns", 0, "fleet mode: fleet-wide admission bound (0 = 2×concurrency)")
	tenantQuota := fs.Int("tenant-quota", -1, "fleet mode: per-tenant in-flight bound (-1 = unlimited)")
	quiet := fs.Bool("q", false, "suppress the human report on stdout")
	verbose := fs.Bool("v", false, "log per-op failures to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*target == "") == (*fleetN == 0) {
		fmt.Fprintln(stderr, "gemload: exactly one of -target or -fleet is required")
		return 2
	}
	mix, err := parseMix(*mixSpec)
	if err != nil {
		fmt.Fprintf(stderr, "gemload: %v\n", err)
		return 2
	}

	var log *slog.Logger
	if *verbose {
		log = slog.New(slog.NewTextHandler(stderr, nil))
	}

	baseURL := *target
	if *fleetN > 0 {
		fc := load.FleetConfig{
			Workers:      *fleetN,
			MaxCampaigns: *maxCampaigns,
			TenantQuota:  *tenantQuota,
			KillEvery:    *killEvery,
			Log:          log,
		}
		if fc.MaxCampaigns == 0 {
			// The fleet exists to absorb this run: admit up to twice the
			// driver's concurrency so admission control is exercised only
			// under genuine pile-up, not by default.
			fc.MaxCampaigns = 2 * *concurrency
		}
		if *chaos {
			fc.Chaos = &dist.Chaos{
				Seed:          *seed,
				DropProb:      0.05,
				DuplicateProb: 0.05,
				CorruptProb:   0.05,
				MaxFaults:     64,
			}
		}
		fleet, err := load.StartFleet(fc)
		if err != nil {
			fmt.Fprintf(stderr, "gemload: %v\n", err)
			return 2
		}
		defer fleet.Close()
		baseURL = fleet.URL
		if !*quiet {
			fmt.Fprintf(stdout, "gemload: in-process fleet of %d workers at %s\n", *fleetN, baseURL)
		}
	}

	d, err := load.NewDriver(load.Config{
		BaseURL:      baseURL,
		Concurrency:  *concurrency,
		RateHz:       *rate,
		Duration:     *duration,
		Seed:         *seed,
		Skew:         *skew,
		Tenants:      *tenants,
		InvokeLength: *invoke,
		Mix:          mix,
		Log:          log,
	})
	if err != nil {
		fmt.Fprintf(stderr, "gemload: %v\n", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r, err := d.Run(ctx)
	if err != nil {
		fmt.Fprintf(stderr, "gemload: %v\n", err)
		return 2
	}

	if !*quiet {
		fmt.Fprint(stdout, r.String())
	}
	if *outPath != "" {
		if err := writeJSON(*outPath, r); err != nil {
			fmt.Fprintf(stderr, "gemload: %v\n", err)
			return 2
		}
	}
	if !r.OK {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
