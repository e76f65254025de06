package dist

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gemstone/internal/core"
	"gemstone/internal/gem5"
	"gemstone/internal/hw"
	"gemstone/internal/obs"
	"gemstone/internal/platform"
	"gemstone/internal/workload"
)

// campaignOpts builds a small real campaign: n validation workloads on the
// big cluster at one frequency. Each run simulates in a few hundred
// milliseconds, so the suite stays fast even under -race.
func campaignOpts(n int) core.CollectOptions {
	return core.CollectOptions{
		Workloads: workload.Validation()[:n],
		Clusters:  []string{hw.ClusterA15},
		Freqs:     map[string][]int{hw.ClusterA15: {1000}},
	}
}

func campaignSize(t *testing.T) int {
	t.Helper()
	if testing.Short() {
		return 2
	}
	return 4
}

// startWorker serves a fresh Worker over httptest, optionally wrapped.
func startWorker(t *testing.T, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	h := http.Handler(NewWorker(WorkerConfig{MaxParallel: 2}).Handler())
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// archiveBytes renders the canonical RunSet archive.
func archiveBytes(t *testing.T, rs *core.RunSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.SaveRunSet(&buf, rs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSpecForRoundTrip(t *testing.T) {
	platforms := []*platform.Platform{
		hw.Platform(),
		gem5.Platform(gem5.V1),
		gem5.Platform(gem5.V2),
		gem5.PlatformWithDefects(gem5.DefectBP),
	}
	for _, pl := range platforms {
		spec, ok := SpecFor(pl)
		if !ok {
			t.Fatalf("SpecFor(%s) found no spec", pl.Name())
		}
		back, err := spec.Resolve()
		if err != nil {
			t.Fatalf("Resolve(%+v): %v", spec, err)
		}
		if got, want := back.Config().Fingerprint(), pl.Config().Fingerprint(); got != want {
			t.Fatalf("%s: resolved fingerprint %s, want %s", pl.Name(), got[:12], want[:12])
		}
	}
	if _, ok := SpecFor(platform.New(hw.Platform().Config())); !ok {
		// platform.New over the hw config still fingerprints identically,
		// so it SHOULD resolve; this guards the matcher's reach.
		t.Fatal("SpecFor rejected a fingerprint-identical platform")
	}
}

// TestRoundTrip pins the tentpole's core contract on the happy path: a
// distributed campaign over two real workers returns the byte-identical
// canonical archive a local Collect produces, and the work was actually
// remote.
func TestRoundTrip(t *testing.T) {
	n := campaignSize(t)
	local, err := core.Collect(context.Background(), hw.Platform(), campaignOpts(n))
	if err != nil {
		t.Fatal(err)
	}

	w1 := startWorker(t, nil)
	w2 := startWorker(t, nil)
	reg := obs.NewRegistry()
	coord := NewCoordinator(CoordinatorConfig{
		Workers:  []string{w1.URL, w2.URL},
		Registry: reg,
	})
	dist, err := coord.Collect(context.Background(), hw.Platform(), campaignOpts(n))
	if err != nil {
		t.Fatal(err)
	}

	if got, want := archiveBytes(t, dist), archiveBytes(t, local); !bytes.Equal(got, want) {
		t.Fatalf("distributed archive differs from local: %d vs %d bytes", len(got), len(want))
	}

	remote := 0
	for _, ws := range coord.WorkerStats() {
		remote += ws.Jobs
		if !ws.Alive {
			t.Fatalf("worker %s not alive after a clean campaign", ws.Addr)
		}
	}
	if remote != n {
		t.Fatalf("workers ran %d jobs, want %d", remote, n)
	}
	snap := reg.Snapshot()
	if got := snap[`gemstone_dist_jobs_total{mode="remote"}`]; got != float64(n) {
		t.Fatalf("gemstone_dist_jobs_total{mode=remote} = %v, want %d", got, n)
	}
	if got := snap[`gemstone_dist_inflight_leases`]; got != 0 {
		t.Fatalf("leases leaked: gauge = %v", got)
	}
}

// TestZeroWorkersDegradesToLocal pins graceful degradation: no workers
// configured, or none answering, must run the campaign locally with no
// error and identical bytes.
func TestZeroWorkersDegradesToLocal(t *testing.T) {
	n := campaignSize(t)
	local, err := core.Collect(context.Background(), hw.Platform(), campaignOpts(n))
	if err != nil {
		t.Fatal(err)
	}
	for name, workers := range map[string][]string{
		"none":        nil,
		"unreachable": {"127.0.0.1:1"}, // reserved port: connection refused
	} {
		t.Run(name, func(t *testing.T) {
			coord := NewCoordinator(CoordinatorConfig{
				Workers:      workers,
				ProbeTimeout: 2 * time.Second,
			})
			rs, err := coord.Collect(context.Background(), hw.Platform(), campaignOpts(n))
			if err != nil {
				t.Fatalf("degraded campaign errored: %v", err)
			}
			if !bytes.Equal(archiveBytes(t, rs), archiveBytes(t, local)) {
				t.Fatal("degraded archive differs from local")
			}
			if coord.DegradedCampaigns() != 1 {
				t.Fatalf("DegradedCampaigns = %d, want 1", coord.DegradedCampaigns())
			}
		})
	}
}

// TestGoldenChaosEquivalence is the acceptance-criteria golden test: two
// workers, one killed mid-campaign, one response duplicated, and the
// distributed archive must still be byte-identical to local Collect.
func TestGoldenChaosEquivalence(t *testing.T) {
	// Not shrunk in -short mode: the kill choreography needs four jobs so
	// that each worker slot pulls exactly one and the doomed worker
	// deterministically sees a second request after its allowed run.
	n := 4
	local, err := core.Collect(context.Background(), hw.Platform(), campaignOpts(n))
	if err != nil {
		t.Fatal(err)
	}

	// Worker 2 dies after one successful run; the coordinator must bench
	// it and finish on worker 1 (or locally).
	kill := &KillSwitch{After: 1}
	w1 := startWorker(t, nil)
	w2 := startWorker(t, func(h http.Handler) http.Handler {
		kill.Handler = h
		return kill
	})
	// One duplicated response: the job executes twice, the campaign must
	// record it once.
	chaos := &Chaos{Seed: 7, DuplicateProb: 1, MaxFaults: 1}
	reg := obs.NewRegistry()
	coord := NewCoordinator(CoordinatorConfig{
		Workers:     []string{w1.URL, w2.URL},
		Client:      &http.Client{Transport: chaos},
		RunTimeout:  time.Minute,
		BackoffBase: time.Millisecond,
		Registry:    reg,
	})
	dist, err := coord.Collect(context.Background(), hw.Platform(), campaignOpts(n))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(archiveBytes(t, dist), archiveBytes(t, local)) {
		t.Fatal("chaotic distributed archive differs from local")
	}
	if chaos.Duplicates() != 1 {
		t.Fatalf("chaos injected %d duplicates, want 1", chaos.Duplicates())
	}
	if !kill.Dead() {
		t.Fatal("kill switch never tripped")
	}
}

// TestCorruptPayloadRetried pins the digest check: a corrupted-in-flight
// payload must be rejected and the job retried to success, never recorded.
func TestCorruptPayloadRetried(t *testing.T) {
	n := campaignSize(t)
	local, err := core.Collect(context.Background(), hw.Platform(), campaignOpts(n))
	if err != nil {
		t.Fatal(err)
	}
	chaos := &Chaos{Seed: 3, CorruptProb: 1, MaxFaults: 2}
	reg := obs.NewRegistry()
	coord := NewCoordinator(CoordinatorConfig{
		Workers:     []string{startWorker(t, nil).URL},
		Client:      &http.Client{Transport: chaos},
		BackoffBase: time.Millisecond,
		Registry:    reg,
	})
	dist, err := coord.Collect(context.Background(), hw.Platform(), campaignOpts(n))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(archiveBytes(t, dist), archiveBytes(t, local)) {
		t.Fatal("archive differs after corruption retries")
	}
	if chaos.Corrupts() == 0 {
		t.Fatal("chaos never corrupted a payload")
	}
	snap := reg.Snapshot()
	if snap[`gemstone_dist_retries_total`] < float64(chaos.Corrupts()) {
		t.Fatalf("retries %v < corruptions %d", snap[`gemstone_dist_retries_total`], chaos.Corrupts())
	}
	if snap[`gemstone_dist_http_errors_total{kind="digest"}`] == 0 {
		t.Fatal("digest-mismatch errors not counted")
	}
}

// TestDroppedResponseReassigned pins lease-style reassignment: the worker
// executes the job but the response is lost; the retry must succeed and
// the extra execution must not double-record.
func TestDroppedResponseReassigned(t *testing.T) {
	n := campaignSize(t)
	chaos := &Chaos{Seed: 5, DropProb: 1, MaxFaults: 1}
	coord := NewCoordinator(CoordinatorConfig{
		Workers:     []string{startWorker(t, nil).URL},
		Client:      &http.Client{Transport: chaos},
		BackoffBase: time.Millisecond,
	})
	rs, err := coord.Collect(context.Background(), hw.Platform(), campaignOpts(n))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Runs) != n {
		t.Fatalf("recorded %d runs, want %d", len(rs.Runs), n)
	}
	if chaos.Drops() != 1 {
		t.Fatalf("chaos dropped %d responses, want 1", chaos.Drops())
	}
}

// TestSimulationErrorIsTerminal pins the 422 path: a deterministic
// simulation failure must fail the campaign without retries, and the error
// chain must expose core.RunError.
func TestSimulationErrorIsTerminal(t *testing.T) {
	opt := campaignOpts(2)
	opt.Freqs = map[string][]int{hw.ClusterA15: {123}} // not a real DVFS point
	reg := obs.NewRegistry()
	coord := NewCoordinator(CoordinatorConfig{
		Workers:  []string{startWorker(t, nil).URL},
		Registry: reg,
	})
	_, err := coord.Collect(context.Background(), hw.Platform(), opt)
	if err == nil {
		t.Fatal("expected a campaign failure")
	}
	var ce *core.CollectError
	if !errors.As(err, &ce) || len(ce.Failed) == 0 {
		t.Fatalf("error %v is not a CollectError with failures", err)
	}
	var re core.RunError
	if !errors.As(err, &re) {
		t.Fatalf("errors.As(RunError) failed on %v", err)
	}
	if reg.Snapshot()[`gemstone_dist_retries_total`] != 0 {
		t.Fatal("terminal failure was retried")
	}
}

// TestCancellationCause pins context.Cause propagation through the
// distributed path.
func TestCancellationCause(t *testing.T) {
	why := errors.New("operator aborted")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(why)
	coord := NewCoordinator(CoordinatorConfig{
		Workers: []string{startWorker(t, nil).URL},
	})
	_, err := coord.Collect(ctx, hw.Platform(), campaignOpts(2))
	if err == nil {
		t.Fatal("expected a cancelled campaign to error")
	}
	if !errors.Is(err, why) {
		t.Fatalf("errors.Is(err, cause) = false; err = %v", err)
	}
}

// runCounter is a CollectObserver counting run starts and their ends.
// runCounter counts a campaign's run callbacks, the RunErrors among
// them that mark a cut-short run, and feeds the same callbacks to a
// core.Metrics.
type runCounter struct {
	starts, dones, errs, cut atomic.Int64
	metrics                  *core.Metrics
	stats                    core.CollectStats // as passed to CollectDone
}

func newRunCounter() *runCounter { return &runCounter{metrics: core.NewMetrics()} }

func (r *runCounter) CollectStart(p string, n int) { r.metrics.CollectStart(p, n) }
func (r *runCounter) RunStart(k core.RunKey) {
	r.starts.Add(1)
	r.metrics.RunStart(k)
}
func (r *runCounter) CacheHit(k core.RunKey) { r.metrics.CacheHit(k) }
func (r *runCounter) RunDone(k core.RunKey, m platform.Measurement, d time.Duration) {
	r.dones.Add(1)
	r.metrics.RunDone(k, m, d)
}
func (r *runCounter) RunError(k core.RunKey, err error) {
	r.errs.Add(1)
	if errors.Is(err, core.ErrCutShort) {
		r.cut.Add(1)
	}
	r.metrics.RunError(k, err)
}
func (r *runCounter) CollectDone(s core.CollectStats) {
	r.stats = s
	r.metrics.CollectDone(s)
}

// check asserts that every RunStart ended and that core.Metrics, fed the
// same callbacks, counts what the campaign's CollectStats does.
func (r *runCounter) check(t *testing.T, path string) {
	t.Helper()
	if s, d, e := r.starts.Load(), r.dones.Load(), r.errs.Load(); s != d+e {
		t.Errorf("%s: %d RunStart, %d RunDone + %d RunError", path, s, d, e)
	}
	got, want := r.metrics.Stats(), r.stats
	if got.Jobs != want.Jobs || got.Simulated != want.Simulated || got.CacheHits != want.CacheHits ||
		got.Errors != want.Errors || got.Skipped != want.Skipped {
		t.Errorf("%s: Metrics.Stats() = %+v, CollectStats = %+v", path, got, want)
	}
}

// cancelledRemoteCampaign runs a two-job distributed campaign against one
// worker whose /v1/run sleeps 200 ms, cancelling the campaign 100 ms
// into the first remote attempt, so every attempt is cut short in flight.
func cancelledRemoteCampaign(t *testing.T) (*Coordinator, *obs.Registry, *runCounter, string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	srv := startWorker(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, PathRun) {
				once.Do(func() { time.AfterFunc(100*time.Millisecond, cancel) })
				time.Sleep(200 * time.Millisecond)
			}
			h.ServeHTTP(w, r)
		})
	})
	reg := obs.NewRegistry()
	coord := NewCoordinator(CoordinatorConfig{
		Workers:     []string{srv.URL},
		BackoffBase: time.Millisecond,
		Registry:    reg,
	})
	counter := newRunCounter()
	opt := campaignOpts(2)
	opt.Observer = counter
	_, err := coord.Collect(ctx, hw.Platform(), opt)
	var ce *core.CollectError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want a cancelled *CollectError, got %v", err)
	}
	if len(ce.Skipped)+len(ce.Partial.Runs) != 2 || len(ce.Failed) != 0 {
		t.Fatalf("cancelled campaign: %d skipped, %d done, %d failed; want the cut-short jobs skipped",
			len(ce.Skipped), len(ce.Partial.Runs), len(ce.Failed))
	}
	return coord, reg, counter, srv.URL
}

// TestCancelledCampaignClosesEveryRunStart pins the observer protocol
// under cancellation: every RunStart ends in exactly one RunDone or
// RunError, locally and when the attempt was in flight on a worker, and
// a run cut short is a skipped job, not an error, in core.Metrics too.
func TestCancelledCampaignClosesEveryRunStart(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	local := newRunCounter()
	opt := campaignOpts(8)
	opt.Workers = 1
	opt.Observer = local
	_, _ = core.Collect(ctx, hw.Platform(), opt)
	local.check(t, "local")

	_, _, remote, _ := cancelledRemoteCampaign(t)
	if remote.starts.Load() == 0 {
		t.Fatal("distributed: no run started before the cancellation")
	}
	remote.check(t, "distributed")
	if c, e := remote.cut.Load(), remote.errs.Load(); c != e {
		t.Errorf("distributed: %d of %d RunErrors match core.ErrCutShort, want all", c, e)
	}
}

// rendezvous holds every /v1/run until n have arrived across the fleet
// (or 5 s pass), so the dispatches it lets through provably overlap.
func rendezvous(n int) func(http.Handler) http.Handler {
	var (
		mu      sync.Mutex
		arrived int
		all     = make(chan struct{})
	)
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, PathRun) {
				mu.Lock()
				if arrived++; arrived == n {
					close(all)
				}
				mu.Unlock()
				select {
				case <-all:
				case <-time.After(5 * time.Second):
				}
			}
			h.ServeHTTP(w, r)
		})
	}
}

// TestDispatchSpreadsAcrossFleet pins that remote jobs use the whole
// fleet, not the first worker's slots alone: a two-job campaign and two
// concurrent one-job campaigns on two workers of capacity 2 each put
// work on both workers.
func TestDispatchSpreadsAcrossFleet(t *testing.T) {
	fleet := func() []string {
		wrap := rendezvous(2)
		return []string{startWorker(t, wrap).URL, startWorker(t, wrap).URL}
	}
	assertBothUsed := func(name string, coord *Coordinator) {
		t.Helper()
		ws := coord.WorkerStats()
		if len(ws) != 2 || ws[0].Jobs == 0 || ws[1].Jobs == 0 {
			t.Errorf("%s: worker stats %+v, want jobs on both workers", name, ws)
		}
	}

	coord := NewCoordinator(CoordinatorConfig{Workers: fleet()})
	if _, err := coord.Collect(context.Background(), hw.Platform(), campaignOpts(2)); err != nil {
		t.Fatal(err)
	}
	assertBothUsed("two-job campaign", coord)

	coord = NewCoordinator(CoordinatorConfig{Workers: fleet()})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opt := campaignOpts(2)
			opt.Workloads = opt.Workloads[i : i+1]
			if _, err := coord.Collect(context.Background(), hw.Platform(), opt); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	assertBothUsed("concurrent one-job campaigns", coord)
}

// TestLocalFallbackBoundedByWorkers pins that jobs handed back to the
// collecting process when every remote attempt fails simulate at most
// opt.Workers at a time, however many lanes the fleet's capacity gave
// the campaign.
func TestLocalFallbackBoundedByWorkers(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathHello {
			_ = gob.NewEncoder(w).Encode(Hello{Proto: ProtoVersion, Capacity: 8})
			return
		}
		http.Error(w, "worker is dying", http.StatusServiceUnavailable)
	}))
	t.Cleanup(srv.Close)
	coord := NewCoordinator(CoordinatorConfig{Workers: []string{srv.URL}, BackoffBase: time.Millisecond})

	tracer := obs.NewTracer()
	opt := campaignOpts(3)
	opt.Workers = 1
	opt.Tracer = tracer
	rs, err := coord.Collect(context.Background(), hw.Platform(), opt)
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.Collect(context.Background(), hw.Platform(), campaignOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(archiveBytes(t, rs), archiveBytes(t, local)) {
		t.Fatal("archive differs from a local collection")
	}

	var sims []obs.Event
	for _, ev := range tracer.Events() {
		if ev.Name == "simulate" {
			sims = append(sims, ev)
		}
	}
	if len(sims) != 3 {
		t.Fatalf("%d local simulate spans, want 3", len(sims))
	}
	for i := 1; i < len(sims); i++ { // Events is ordered by start
		if prev := sims[i-1]; sims[i].Start < prev.Start+prev.Dur {
			t.Errorf("local simulations overlap with opt.Workers = 1: %v+%v and %v",
				prev.Start, prev.Dur, sims[i].Start)
		}
	}
}

// TestCancellationChargesNoWorker pins that the caller cancelling a
// campaign is not a worker failure: attempts it cuts short count no
// retry or HTTP error and leave the worker healthy.
func TestCancellationChargesNoWorker(t *testing.T) {
	coord, reg, _, url := cancelledRemoteCampaign(t)
	snap := reg.Snapshot()
	httpErrors := 0.0
	for k, v := range snap {
		if strings.HasPrefix(k, "gemstone_dist_http_errors_total") {
			httpErrors += v
		}
	}
	if got := snap["gemstone_dist_retries_total"]; got != 0 || httpErrors != 0 {
		t.Errorf("cancellation counted %v retries and %v HTTP errors, want 0 and 0", got, httpErrors)
	}
	if ws := coord.WorkerStats(); len(ws) != 1 || !ws[0].Alive || ws[0].Retries != 0 {
		t.Errorf("worker stats after cancellation: %+v, want alive with no retries", ws)
	}
	if got := snap[`gemstone_dist_worker_up{worker="`+url+`"}`]; got != 1 {
		t.Errorf("gemstone_dist_worker_up = %v, want 1", got)
	}
}

// TestCacheIntegration pins that the coordinator shares the content-
// addressed cache contract: a second campaign over the same cache is all
// hits and touches no worker.
func TestCacheIntegration(t *testing.T) {
	n := campaignSize(t)
	worker := NewWorker(WorkerConfig{MaxParallel: 2})
	srv := httptest.NewServer(worker.Handler())
	t.Cleanup(srv.Close)

	opt := campaignOpts(n)
	opt.Cache = core.NewMemoryCache(0)
	coord := NewCoordinator(CoordinatorConfig{Workers: []string{srv.URL}})
	first, err := coord.Collect(context.Background(), hw.Platform(), opt)
	if err != nil {
		t.Fatal(err)
	}
	ranAfterFirst := worker.Runs()
	if ranAfterFirst != int64(n) {
		t.Fatalf("worker ran %d jobs, want %d", ranAfterFirst, n)
	}
	second, err := coord.Collect(context.Background(), hw.Platform(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if worker.Runs() != ranAfterFirst {
		t.Fatal("warm-cache campaign reached the worker")
	}
	if !bytes.Equal(archiveBytes(t, first), archiveBytes(t, second)) {
		t.Fatal("cached archive differs")
	}
}

// TestWorkerRejectsMismatches pins the worker's 409 discipline for
// protocol and fingerprint skew.
func TestWorkerRejectsMismatches(t *testing.T) {
	srv := startWorker(t, nil)
	pl := hw.Platform()
	prof := workload.Validation()[0]
	spec, _ := SpecFor(pl)

	post := func(job Job) int {
		t.Helper()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(job); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+PathRun, contentType, &buf)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	good := Job{Proto: ProtoVersion, ID: "x", Spec: spec,
		PlatformFP: pl.Config().Fingerprint(), Profile: prof,
		Cluster: hw.ClusterA15, FreqMHz: 1000}

	badProto := good
	badProto.Proto = ProtoVersion + 1
	if got := post(badProto); got != http.StatusConflict {
		t.Fatalf("version skew: status %d, want 409", got)
	}
	badFP := good
	badFP.PlatformFP = "not-a-fingerprint"
	if got := post(badFP); got != http.StatusConflict {
		t.Fatalf("fingerprint skew: status %d, want 409", got)
	}
	if resp, err := http.Get(srv.URL + PathRun); err == nil {
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET run: status %d, want 405", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if got := post(good); got != http.StatusOK {
		t.Fatalf("well-formed job: status %d, want 200", got)
	}
}

// TestHelloProbe pins the registration surface.
func TestHelloProbe(t *testing.T) {
	w := NewWorker(WorkerConfig{MaxParallel: 3})
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL + PathHello)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), contentType) {
		t.Fatalf("content type %q", resp.Header.Get("Content-Type"))
	}
	var h Hello
	if err := gob.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Proto != ProtoVersion || h.Capacity != 3 || h.Runs != 0 {
		t.Fatalf("hello = %+v", h)
	}
}
