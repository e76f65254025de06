package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gemstone/internal/gem5"
	"gemstone/internal/hw"
	"gemstone/internal/obs"
	"gemstone/internal/platform"
)

// recordingObserver appends a line per callback to a shared log, tagged
// with its id, so fan-out order is assertable.
type recordingObserver struct {
	id  string
	log *[]string
}

func (r *recordingObserver) note(event string) { *r.log = append(*r.log, r.id+":"+event) }

func (r *recordingObserver) CollectStart(p string, n int) { r.note(fmt.Sprintf("start(%s,%d)", p, n)) }
func (r *recordingObserver) RunStart(k RunKey)            { r.note("runstart(" + k.Workload + ")") }
func (r *recordingObserver) CacheHit(k RunKey)            { r.note("hit(" + k.Workload + ")") }
func (r *recordingObserver) RunDone(k RunKey, _ platform.Measurement, _ time.Duration) {
	r.note("done(" + k.Workload + ")")
}
func (r *recordingObserver) RunError(k RunKey, err error) { r.note("error(" + k.Workload + ")") }
func (r *recordingObserver) CollectDone(s CollectStats)   { r.note("collectdone") }

func TestMultiObserverNilDropping(t *testing.T) {
	if got := MultiObserver(); got != nil {
		t.Fatalf("MultiObserver() = %v, want nil", got)
	}
	if got := MultiObserver(nil, nil); got != nil {
		t.Fatalf("MultiObserver(nil, nil) = %v, want nil", got)
	}
}

func TestMultiObserverSingleCollapse(t *testing.T) {
	var log []string
	a := &recordingObserver{id: "a", log: &log}
	got := MultiObserver(nil, a, nil)
	if got != a {
		t.Fatalf("single surviving observer not collapsed: %T", got)
	}
}

func TestMultiObserverFanOutOrder(t *testing.T) {
	var log []string
	a := &recordingObserver{id: "a", log: &log}
	b := &recordingObserver{id: "b", log: &log}
	mo := MultiObserver(a, nil, b)
	if mo == a || mo == b {
		t.Fatal("two observers collapsed to one")
	}

	key := RunKey{Workload: "w", Cluster: "a15", FreqMHz: 1000}
	mo.CollectStart("p", 2)
	mo.RunStart(key)
	mo.RunDone(key, platform.Measurement{}, time.Millisecond)
	mo.CacheHit(key)
	mo.RunError(key, errors.New("boom"))
	mo.CollectDone(CollectStats{})

	want := []string{
		"a:start(p,2)", "b:start(p,2)",
		"a:runstart(w)", "b:runstart(w)",
		"a:done(w)", "b:done(w)",
		"a:hit(w)", "b:hit(w)",
		"a:error(w)", "b:error(w)",
		"a:collectdone", "b:collectdone",
	}
	if len(log) != len(want) {
		t.Fatalf("got %d callback records, want %d: %v", len(log), len(want), log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("callback %d = %q, want %q (full: %v)", i, log[i], want[i], log)
		}
	}
}

func TestCollectStatsString(t *testing.T) {
	s := CollectStats{
		Platform: "odroid-xu3", Jobs: 10, Simulated: 6, CacheHits: 2,
		Errors: 1, Skipped: 1,
		PlanTime:  1500 * time.Microsecond,
		CacheTime: 250 * time.Microsecond,
		SimTime:   3 * time.Second,
		WallTime:  1200 * time.Millisecond,
	}
	got := s.String()
	for _, want := range []string{
		"odroid-xu3", "10 jobs", "6 simulated", "2 cache hits",
		"1 errors", "1 skipped", "plan 1.5ms", "cache 250µs",
		"sim 3s", "wall 1.2s",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("String() = %q, missing %q", got, want)
		}
	}
}

// TestMetricsMultiPlatformLabel is the regression test for the aggregate
// label: accumulating campaigns from two platforms used to leave only the
// last platform's name on the combined stats.
func TestMetricsMultiPlatformLabel(t *testing.T) {
	m := NewMetrics()
	m.CollectStart("odroid-xu3", 4)
	if got := m.Stats().Platform; got != "odroid-xu3" {
		t.Fatalf("single-platform label = %q", got)
	}
	m.CollectStart("gem5-ex5-v1", 4)
	m.CollectStart("odroid-xu3", 2) // repeat must not duplicate
	if got := m.Stats().Platform; got != "gem5-ex5-v1+odroid-xu3" {
		t.Fatalf("multi-platform label = %q, want gem5-ex5-v1+odroid-xu3", got)
	}
	if got := m.Stats().Jobs; got != 10 {
		t.Fatalf("jobs = %d, want 10", got)
	}
	wantList := []string{"gem5-ex5-v1", "odroid-xu3"}
	gotList := m.Platforms()
	if len(gotList) != 2 || gotList[0] != wantList[0] || gotList[1] != wantList[1] {
		t.Fatalf("Platforms() = %v, want %v", gotList, wantList)
	}
}

func TestMetricsZeroValue(t *testing.T) {
	var m Metrics // not via NewMetrics
	m.CollectStart("p", 1)
	if got := m.Stats().Platform; got != "p" {
		t.Fatalf("zero-value Metrics label = %q", got)
	}
}

// TestRegistryObserver runs a cached campaign twice against a registry
// observer and asserts the exported counters: per-outcome run totals, the
// cache hit ratio, and that the architectural tallies (stall cycles,
// cache misses) flow through from the simulator.
func TestRegistryObserver(t *testing.T) {
	reg := obs.NewRegistry()
	o := NewRegistryObserver(reg)
	pl := hw.Platform()
	cache := NewMemoryCache(0)
	opt := func() CollectOptions {
		c := smallCampaign()
		c.Cache = cache
		c.Observer = o
		return c
	}
	if _, err := Collect(context.Background(), pl, opt()); err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(context.Background(), pl, opt()); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap[`gemstone_campaign_runs_total{result="simulated"}`]; got != 8 {
		t.Fatalf("simulated = %v, want 8", got)
	}
	if got := snap[`gemstone_campaign_runs_total{result="cache_hit"}`]; got != 8 {
		t.Fatalf("cache_hit = %v, want 8", got)
	}
	if got := snap["gemstone_campaigns_total"]; got != 2 {
		t.Fatalf("campaigns = %v, want 2", got)
	}
	if got := snap["gemstone_campaign_cache_hit_ratio"]; got != 1 {
		t.Fatalf("hit ratio after warm campaign = %v, want 1", got)
	}
	if got := snap["gemstone_campaign_inflight_runs"]; got != 0 {
		t.Fatalf("inflight after campaign = %v, want 0", got)
	}
	if got := snap["gemstone_run_sim_seconds_count"]; got != 8 {
		t.Fatalf("sim time observations = %v, want 8", got)
	}
	if got := snap["gemstone_sim_cycles_total"]; got <= 0 {
		t.Fatalf("sim cycles = %v, want > 0", got)
	}
	if got := snap[`gemstone_pipeline_stall_cycles_total{cause="mem"}`]; got <= 0 {
		t.Fatalf("mem stall cycles = %v, want > 0", got)
	}
	if got := snap[`gemstone_cache_misses_total{level="l1d"}`]; got <= 0 {
		t.Fatalf("l1d misses = %v, want > 0", got)
	}
	if got := snap[`gemstone_tlb_misses_total{side="d"}`]; got <= 0 {
		t.Fatalf("dtlb misses = %v, want > 0", got)
	}
}

// TestCollectTracing runs a cached campaign under a tracer and asserts
// the span structure: campaign root with plan child, per-worker roots,
// per-point cache get/put spans, and one simulate span per DVFS sweep,
// listing its points, that wraps the platform phases: expand and pipeline
// once, collate (and, on a sensored platform, power) per point.
func TestCollectTracing(t *testing.T) {
	// Four workloads, each a two-point sweep: 8 jobs in 4 sweeps.
	sweeps := func() CollectOptions {
		opt := smallCampaign()
		opt.Workloads = opt.Workloads[:4]
		opt.Freqs = map[string][]int{hw.ClusterA15: {600, 1000}}
		return opt
	}
	tr := obs.NewTracer()
	opt := sweeps()
	opt.Cache = NewMemoryCache(0)
	opt.Tracer = tr
	opt.Workers = 2
	if _, err := Collect(context.Background(), gem5.Platform(gem5.V1), opt); err != nil {
		t.Fatal(err)
	}

	counts := map[string]int{}
	for _, ev := range tr.Events() {
		counts[ev.Name]++
		if ev.Name != "simulate" {
			continue
		}
		for _, a := range ev.Attrs {
			if a.Key != "key" {
				continue
			}
			points := strings.Fields(a.Value.(string))
			if len(points) != 2 || !strings.HasSuffix(points[0], "@600MHz") || !strings.HasSuffix(points[1], "@1000MHz") {
				t.Fatalf("simulate span lists points %q, want one sweep at 600 and 1000 MHz", points)
			}
		}
	}
	if counts["collect"] != 1 || counts["plan"] != 1 {
		t.Fatalf("campaign spans: %v", counts)
	}
	if counts["worker"] != 2 {
		t.Fatalf("worker spans = %d, want 2", counts["worker"])
	}
	if counts["simulate"] != 4 || counts["cache-get"] != 8 || counts["cache-put"] != 8 {
		t.Fatalf("per-sweep and per-job spans: %v", counts)
	}
	// The simulator phases nest under each simulate span.
	if counts["expand"] != 4 || counts["pipeline"] != 4 || counts["collate"] != 8 {
		t.Fatalf("platform phase spans: %v", counts)
	}
	// gem5 platforms have no sensors: no power phase.
	if counts["power"] != 0 {
		t.Fatalf("power spans on an unsensored platform: %v", counts)
	}

	// A sensored platform records the power phase too, once per point.
	tr2 := obs.NewTracer()
	opt2 := sweeps()
	opt2.Tracer = tr2
	if _, err := Collect(context.Background(), hw.Platform(), opt2); err != nil {
		t.Fatal(err)
	}
	counts2 := map[string]int{}
	for _, ev := range tr2.Events() {
		counts2[ev.Name]++
	}
	if counts2["power"] != 8 || counts2["simulate"] != 4 {
		t.Fatalf("power spans = %d and simulate spans = %d, want 8 and 4", counts2["power"], counts2["simulate"])
	}
	if counts2["cache-get"] != 0 {
		t.Fatalf("cache spans without a cache: %v", counts2)
	}
}

// TestCollectUntracedUnchanged guards the disabled fast path: a campaign
// with no tracer must behave identically (no spans, same results).
func TestCollectUntracedUnchanged(t *testing.T) {
	opt := smallCampaign()
	rs, err := Collect(context.Background(), gem5.Platform(gem5.V1), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Runs) != 8 {
		t.Fatalf("got %d runs, want 8", len(rs.Runs))
	}
}
