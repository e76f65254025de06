package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"gemstone/internal/gem5"
	"gemstone/internal/hw"
	"gemstone/internal/obs"
	"gemstone/internal/workload"
)

// smallCampaign returns a reduced but multi-suite campaign used by the
// engine tests: 8 validation workloads, one cluster, one frequency.
func smallCampaign() CollectOptions {
	return CollectOptions{
		Workloads: workload.Validation()[:8],
		Clusters:  []string{hw.ClusterA15},
		Freqs:     map[string][]int{hw.ClusterA15: {1000}},
	}
}

// archiveBytes serialises rs through the canonical gob envelope.
func archiveBytes(t *testing.T, rs *RunSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveRunSet(&buf, rs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCollectDeterministicAcrossWorkerCounts pins the doc-comment claim
// of Collect: a GOMAXPROCS-parallel campaign is byte-identical (via the
// canonical archive encoding) to a sequential one. The one-workload
// campaign has fewer workloads than workers, so its workers claim
// (workload, cluster) sweeps instead of workload groups.
func TestCollectDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-campaign determinism sweep in -short mode")
	}
	pl := hw.Platform()
	oneWorkload := func() CollectOptions {
		return CollectOptions{
			Workloads: workload.Validation()[:1],
			Freqs: map[string][]int{
				hw.ClusterA15: {600, 1000},
				hw.ClusterA7:  {600, 1000},
			},
		}
	}
	for _, campaign := range []func() CollectOptions{smallCampaign, oneWorkload} {
		opt := campaign()
		opt.Workers = 1
		sequential, err := Collect(context.Background(), pl, opt)
		if err != nil {
			t.Fatal(err)
		}
		seqBytes := archiveBytes(t, sequential)

		for _, workers := range []int{0, 2, 4, 7} {
			opt := campaign()
			opt.Workers = workers
			parallel, err := Collect(context.Background(), pl, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(seqBytes, archiveBytes(t, parallel)) {
				t.Fatalf("collection of %d workloads with %d workers diverged from sequential collection",
					len(opt.Workloads), workers)
			}
		}
	}
}

// workersByWorkload runs a traced campaign and maps every workload to the
// set of worker indices whose lane its simulate spans sit under. A
// simulate span belongs to the worker span on its lane that encloses it
// in time; matching on time as well as lane keeps the attribution right
// even if a lane is released and reused.
func workersByWorkload(t *testing.T, opt CollectOptions) map[string]map[int]bool {
	t.Helper()
	tr := obs.NewTracer()
	opt.Tracer = tr
	if _, err := Collect(context.Background(), hw.Platform(), opt); err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	attr := func(ev obs.Event, key string) any {
		for _, a := range ev.Attrs {
			if a.Key == key {
				return a.Value
			}
		}
		t.Fatalf("%s span has no %q attribute", ev.Name, key)
		return nil
	}
	got := map[string]map[int]bool{}
	for _, sim := range events {
		if sim.Name != "simulate" {
			continue
		}
		owner := -1
		for _, w := range events {
			if w.Name == "worker" && w.Lane == sim.Lane &&
				w.Start <= sim.Start && sim.Start+sim.Dur <= w.Start+w.Dur {
				owner = int(attr(w, "worker").(int64))
			}
		}
		if owner < 0 {
			t.Fatalf("simulate span %v sits under no worker span", sim.Attrs)
		}
		key := attr(sim, "key").(string)
		name := key[:strings.IndexByte(key, '/')]
		if got[name] == nil {
			got[name] = map[int]bool{}
		}
		got[name][owner] = true
	}
	return got
}

// TestCollectClaimsWholeWorkloads pins the sweep affinity of the worker
// pool: with several workloads per worker, every run of one workload —
// both clusters, every frequency — lands on a single worker, so its DVFS
// sweeps are recorded once and its stream expanded once. With a single
// workload the pool falls back to per-sweep claims and both workers run.
func TestCollectClaimsWholeWorkloads(t *testing.T) {
	freqs := map[string][]int{
		hw.ClusterA15: {600, 1000},
		hw.ClusterA7:  {600, 1000},
	}
	got := workersByWorkload(t, CollectOptions{
		Workloads: workload.Validation()[:4],
		Freqs:     freqs,
		Workers:   2,
	})
	if len(got) != 4 {
		t.Fatalf("simulate spans cover %d workloads, want 4", len(got))
	}
	for name, workers := range got {
		if len(workers) != 1 {
			t.Fatalf("workload %s ran on workers %v, want one", name, workers)
		}
	}

	got = workersByWorkload(t, CollectOptions{
		Workloads: workload.Validation()[:1],
		Freqs:     freqs,
		Workers:   2,
	})
	for name, workers := range got {
		if len(workers) != 2 {
			t.Fatalf("one-workload campaign ran %s on workers %v, want both", name, workers)
		}
	}
}

// failingProfile passes campaign planning but fails platform validation
// at run time, injecting a deterministic mid-campaign failure.
func failingProfile() workload.Profile {
	p := workload.Validation()[0]
	p.Name = "injected-failure"
	p.TotalInsts = 0 // rejected by Profile.Validate inside Platform.Run
	return p
}

// TestCollectStopsRemainingJobsAfterFirstError is the regression test for
// the original error-path bug: a failing run used to stop only its own
// worker while every other worker kept simulating jobs whose results were
// then thrown away. Now the first failure cancels the outstanding work.
func TestCollectStopsRemainingJobsAfterFirstError(t *testing.T) {
	profiles := append([]workload.Profile{failingProfile()}, workload.Validation()...)
	metrics := NewMetrics()
	_, err := Collect(context.Background(), hw.Platform(), CollectOptions{
		Workloads: profiles,
		Clusters:  []string{hw.ClusterA15},
		Freqs:     map[string][]int{hw.ClusterA15: {1000}},
		Workers:   2,
		Observer:  metrics,
	})
	var ce *CollectError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CollectError, got %v", err)
	}
	if len(ce.Failed) == 0 || ce.Failed[0].Key.Workload != "injected-failure" {
		t.Fatalf("first failure not attributed to the injected workload: %+v", ce.Failed)
	}
	stats := metrics.Stats()
	total := len(profiles)
	started := stats.Simulated + stats.Errors
	// The failing job is first in line and errors within microseconds;
	// with 2 workers only the jobs already in flight may still finish.
	// The generous bound stays far below the 45 jobs the old engine would
	// have burned through.
	if started > 6 {
		t.Fatalf("%d of %d jobs were started after the first failure; outstanding work not cancelled", started, total)
	}
	if len(ce.Skipped) < total-6 {
		t.Fatalf("only %d jobs reported skipped, want >= %d", len(ce.Skipped), total-6)
	}
	if len(ce.Skipped)+len(ce.Failed)+len(ce.Partial.Runs) != total {
		t.Fatalf("skipped %d + failed %d + done %d != %d jobs",
			len(ce.Skipped), len(ce.Failed), len(ce.Partial.Runs), total)
	}
}

// TestCollectStopsMidClaimedUnit fails a run in the middle of a claimed
// workload group: the A15 sweep ends in an unknown frequency after two
// valid points. The first group's workload is a short one, so its worker
// reaches the failure while the other worker is still inside its own
// group's valid points. The failure must abandon the rest of that claimed
// group too: the other worker never reaches its own invalid point, and
// the number of started jobs stays within the bound of
// TestCollectStopsRemainingJobsAfterFirstError.
func TestCollectStopsMidClaimedUnit(t *testing.T) {
	short := workload.Validation()[0]
	short.Name = "short"
	short.TotalInsts = 2000
	metrics := NewMetrics()
	opt := CollectOptions{
		Workloads: append([]workload.Profile{short}, workload.Validation()[:7]...),
		Clusters:  []string{hw.ClusterA15},
		Freqs:     map[string][]int{hw.ClusterA15: {600, 1000, 1234}},
		Workers:   2,
		Observer:  metrics,
	}
	_, err := Collect(context.Background(), hw.Platform(), opt)
	var ce *CollectError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CollectError, got %v", err)
	}
	want := RunKey{Workload: "short", Cluster: hw.ClusterA15, FreqMHz: 1234}
	if len(ce.Failed) != 1 || ce.Failed[0].Key != want {
		t.Fatalf("failures %+v, want only %v", ce.Failed, want)
	}
	total := len(opt.Workloads) * 3
	stats := metrics.Stats()
	if started := stats.Simulated + stats.Errors; started > 6 {
		t.Fatalf("%d of %d jobs were started; claimed work not abandoned", started, total)
	}
	if len(ce.Skipped) < total-6 {
		t.Fatalf("only %d jobs reported skipped, want >= %d", len(ce.Skipped), total-6)
	}
	if len(ce.Skipped)+len(ce.Failed)+len(ce.Partial.Runs) != total {
		t.Fatalf("skipped %d + failed %d + done %d != %d jobs",
			len(ce.Skipped), len(ce.Failed), len(ce.Partial.Runs), total)
	}
}

// TestCollectContextCancellation asserts a pre-cancelled context stops
// the campaign before any job runs and surfaces context.Canceled.
func TestCollectContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	metrics := NewMetrics()
	opt := smallCampaign()
	opt.Observer = metrics
	_, err := Collect(ctx, hw.Platform(), opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in the error chain, got %v", err)
	}
	var ce *CollectError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CollectError, got %v", err)
	}
	if len(ce.Partial.Runs) != 0 || len(ce.Failed) != 0 {
		t.Fatalf("pre-cancelled campaign ran anyway: %v", ce)
	}
	if len(ce.Skipped) != 8 {
		t.Fatalf("want all 8 jobs skipped, got %d", len(ce.Skipped))
	}
	if got := metrics.Stats().Skipped; got != 8 {
		t.Fatalf("observer saw %d skipped, want 8", got)
	}
}

// TestCollectWarmCacheIdenticalToUncached is the cache-correctness half
// of the acceptance criteria: a warm-cache campaign must reproduce the
// uncached campaign byte-for-byte, while skipping every simulation.
func TestCollectWarmCacheIdenticalToUncached(t *testing.T) {
	pl := gem5.Platform(gem5.V1)
	uncached, err := Collect(context.Background(), pl, smallCampaign())
	if err != nil {
		t.Fatal(err)
	}

	cache := NewMemoryCache(0)
	cold := smallCampaign()
	cold.Cache = cache
	coldMetrics := NewMetrics()
	cold.Observer = coldMetrics
	coldRuns, err := Collect(context.Background(), pl, cold)
	if err != nil {
		t.Fatal(err)
	}
	if s := coldMetrics.Stats(); s.CacheHits != 0 || s.Simulated != 8 {
		t.Fatalf("cold campaign: %v", s)
	}

	warm := smallCampaign()
	warm.Cache = cache
	warmMetrics := NewMetrics()
	warm.Observer = warmMetrics
	warmRuns, err := Collect(context.Background(), pl, warm)
	if err != nil {
		t.Fatal(err)
	}
	if s := warmMetrics.Stats(); s.CacheHits != 8 || s.Simulated != 0 {
		t.Fatalf("warm campaign simulated: %v", s)
	}

	want := archiveBytes(t, uncached)
	if !bytes.Equal(want, archiveBytes(t, coldRuns)) {
		t.Fatal("cold cached campaign diverged from uncached campaign")
	}
	if !bytes.Equal(want, archiveBytes(t, warmRuns)) {
		t.Fatal("warm cached campaign diverged from uncached campaign")
	}
}

// TestCollectResumeAfterFailure exercises the resume story: a campaign
// that fails midway leaves its completed runs in the cache, and re-running
// without the poisoned workload replays them as hits.
func TestCollectResumeAfterFailure(t *testing.T) {
	pl := hw.Platform()
	cache := NewMemoryCache(0)
	good := workload.Validation()[:6]
	// The failing job goes last so (with one worker) every good run
	// completes and is archived before the campaign dies.
	profiles := append(append([]workload.Profile{}, good...), failingProfile())
	_, err := Collect(context.Background(), pl, CollectOptions{
		Workloads: profiles,
		Clusters:  []string{hw.ClusterA15},
		Freqs:     map[string][]int{hw.ClusterA15: {1000}},
		Workers:   1,
		Cache:     cache,
	})
	var ce *CollectError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CollectError, got %v", err)
	}
	if len(ce.Partial.Runs) != 6 {
		t.Fatalf("partial results lost: %d of 6 preserved", len(ce.Partial.Runs))
	}

	metrics := NewMetrics()
	resumed, err := Collect(context.Background(), pl, CollectOptions{
		Workloads: good,
		Clusters:  []string{hw.ClusterA15},
		Freqs:     map[string][]int{hw.ClusterA15: {1000}},
		Cache:     cache,
		Observer:  metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := metrics.Stats(); s.CacheHits != 6 || s.Simulated != 0 {
		t.Fatalf("resume re-simulated instead of replaying: %v", s)
	}
	if len(resumed.Runs) != 6 {
		t.Fatalf("resumed campaign has %d runs, want 6", len(resumed.Runs))
	}
}
