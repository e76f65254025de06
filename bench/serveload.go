package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"gemstone/internal/core"
	"gemstone/internal/hw"
	"gemstone/internal/load"
	"gemstone/internal/serve"
	"gemstone/internal/workload"
)

// Open-loop load on the campaign service: Poisson arrivals at
// serveRateHz from two request slots, one tenant, the driver's default
// cold:warm:events:analysis mix of 1:3:3:3, one-workload campaigns at
// a15@1000. At this rate a 30 s window expects 504 warm requests (Poisson
// spread ±22), so their 95th percentile keeps ten samples beyond it.
const (
	serveRateHz      = 56
	serveConcurrency = 2
	serveSkew        = 1.1
	// serveWarmP95LimitMS is the latency limit on warm campaign requests.
	serveWarmP95LimitMS = 25
	// serveTenant is the load driver's one tenant. One tenant at a15@1000
	// has only 45 distinct runs, so a cold cache would fill partway
	// through the window and the load would change under the measurement.
	// Set-up primes this tenant's run cache with all of them instead: the
	// window then measures the service path at a steady state, and the
	// dist wire is measured by the per-layer probes.
	serveTenant = "load-t0"
)

// serveOpen drives gemstone serve with two gemstoned workers, all in
// process over loopback. One operation is one request; the reported
// latencies are those of warm campaign requests (submit, run from the
// cache, follow the event stream to its terminal frame), counted from the
// request's intended arrival so a stall delays every request behind it.
type serveOpen struct {
	e      *env
	fleet  *load.Fleet
	client *serveClient
	spec   serve.CampaignSpec
	prime  [2]*core.RunSet

	report     *load.Report
	simulated  float64
	metricsErr error
}

func setupServeOpen(e *env) (instance, error) {
	fleet, err := load.StartFleet(load.FleetConfig{Workers: 2})
	if err != nil {
		return nil, err
	}
	s := &serveOpen{e: e, fleet: fleet, client: &serveClient{url: fleet.URL, tenant: serveTenant},
		spec: serve.CampaignSpec{Cluster: hw.ClusterA15, FreqsMHz: []int{1000}}}
	for _, p := range s.jobProfiles() {
		s.spec.Workloads = append(s.spec.Workloads, p.Name)
	}
	if s.prime, err = s.client.campaign(context.Background(), s.spec); err != nil {
		fleet.Close()
		return nil, fmt.Errorf("priming the run cache: %w", err)
	}
	return s, nil
}

func (s *serveOpen) close() { s.fleet.Close() }

// jobProfiles is the driver's catalogue, which cold campaigns walk.
func (s *serveOpen) jobProfiles() []workload.Profile { return workload.Validation() }

func (s *serveOpen) run(ctx context.Context, d time.Duration) (*window, error) {
	drv, err := load.NewDriver(load.Config{
		BaseURL:      s.fleet.URL,
		Concurrency:  serveConcurrency,
		RateHz:       serveRateHz,
		Duration:     d,
		Seed:         s.e.seed,
		Skew:         serveSkew,
		Tenants:      1,
		InvokeLength: 1,
		Cluster:      hw.ClusterA15,
		FreqsMHz:     []int{1000},
	})
	if err != nil {
		return nil, err
	}
	before, err := s.client.metrics(ctx)
	if err != nil {
		return nil, err
	}
	if s.report, err = drv.Run(ctx); err != nil {
		return nil, err
	}
	if after, err := s.client.metrics(ctx); err != nil {
		s.metricsErr = err
	} else {
		for _, mode := range []string{"remote", "local"} {
			s.simulated += load.SumDelta(before, after, "gemstone_dist_jobs_total", map[string]string{"mode": mode})
		}
	}
	// The warm tail follows the load other tenants put on the host: ten
	// runs of the same code spread its p95 by about 30 % and its median by
	// 10 %. So the median is the bounded latency, and the p95 is held to
	// its limit on the slo line.
	w := &window{medianLatency: true}
	for _, op := range s.report.Ops {
		w.attempted += op.Issued
		w.failed += op.Errors + op.Rejected
		w.ops += op.OK
		s.e.logf("serve      %-8s issued %4d ok %4d mean %8.3f ms  p50 %8.3f ms  p95 %8.3f ms  p99 %8.3f ms",
			op.Op, op.Issued, op.OK, op.MeanMs, op.P50Ms, op.P95Ms, op.P99Ms)
		if op.Op == string(load.OpWarm) {
			w.p50, w.p95, w.latN = op.P50Ms, op.P95Ms, op.OK
		}
	}
	w.digest = combineDigests(runSetDigest(s.prime[0]), runSetDigest(s.prime[1]))
	return w, nil
}

func (s *serveOpen) check(w *window) []check {
	// The primed campaign again, now warm, on the service the window loaded.
	verify, verifyErr := s.client.campaign(context.Background(), s.spec)
	served := func(name string, sets [2]*core.RunSet) check {
		if sets[0] == nil || sets[1] == nil {
			return newCheck(name, false, "no archives")
		}
		return checkSlices(name, sets[:], s.e.golden.PaperCold)
	}
	checks := []check{served("archives-primed", s.prime)}
	if verifyErr != nil {
		checks = append(checks, newCheck("archives-after-load", false, "%v", verifyErr))
	} else {
		checks = append(checks, served("archives-after-load", verify))
	}
	r := s.report
	// An arrival due just before the window closes, while both slots are
	// busy, is never issued; a saturated service leaves a growing share.
	checks = append(checks, newCheck("backlog", r.Backlog*100 <= w.attempted,
		"%d of %d scheduled arrivals never issued (at most 1%% allowed)", r.Backlog, w.attempted+r.Backlog))
	for _, c := range r.Checks {
		if strings.HasPrefix(c.Name, "campaigns-") || c.Name == "queue-drained" {
			checks = append(checks, newCheck("server-"+c.Name, c.OK, "client %g, server %g", c.Client, c.Server))
		}
	}
	if s.metricsErr != nil {
		checks = append(checks, newCheck("steady-state", false, "%v", s.metricsErr))
	} else {
		checks = append(checks, newCheck("steady-state", s.simulated == 0,
			"%g runs simulated in the window; every campaign should replay the primed cache", s.simulated))
	}
	verdict := "met"
	if w.p95 > serveWarmP95LimitMS {
		verdict = "MISSED"
	}
	s.e.logf("slo        warm p95 %.3f ms over %d requests, limit %d ms: %s", w.p95, w.latN, serveWarmP95LimitMS, verdict)
	return checks
}

// serveClient is the bench's client of gemstone serve.
type serveClient struct {
	url, tenant string
}

func (c *serveClient) metrics(ctx context.Context) (*load.Metrics, error) {
	var m *load.Metrics
	err := c.call(ctx, http.MethodGet, "/metrics", nil, http.StatusOK, func(r *http.Response) error {
		var err error
		m, err = load.ParseMetrics(r.Body)
		return err
	})
	return m, err
}

// campaign submits spec, waits for its terminal event and downloads its
// two archives (hardware, model).
func (c *serveClient) campaign(ctx context.Context, spec serve.CampaignSpec) ([2]*core.RunSet, error) {
	var sets [2]*core.RunSet
	body, err := json.Marshal(spec)
	if err != nil {
		return sets, err
	}
	var status struct {
		ID string `json:"id"`
	}
	if err := c.call(ctx, http.MethodPost, "/v1/campaigns", body, http.StatusAccepted, func(r *http.Response) error {
		return json.NewDecoder(r.Body).Decode(&status)
	}); err != nil {
		return sets, err
	}
	var terminal string
	if err := c.call(ctx, http.MethodGet, "/v1/campaigns/"+status.ID+"/events", nil, http.StatusOK, func(r *http.Response) error {
		sc := bufio.NewScanner(r.Body)
		for sc.Scan() {
			if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok && (ev == "done" || ev == "error") {
				terminal = ev
				return nil
			}
		}
		return sc.Err()
	}); err != nil {
		return sets, err
	}
	if terminal != "done" {
		return sets, fmt.Errorf("campaign %s ended %q", status.ID, terminal)
	}
	for i, set := range []string{"hw", "sim"} {
		if err := c.call(ctx, http.MethodGet, "/v1/campaigns/"+status.ID+"/archive/"+set, nil, http.StatusOK, func(r *http.Response) error {
			var err error
			sets[i], err = core.LoadRunSet(r.Body)
			return err
		}); err != nil {
			return sets, err
		}
	}
	return sets, nil
}

func (c *serveClient) call(ctx context.Context, method, path string, body []byte, want int, read func(*http.Response) error) error {
	req, err := http.NewRequestWithContext(ctx, method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set(serve.TenantHeader, c.tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
	}
	return read(resp)
}
