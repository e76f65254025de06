package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gemstone/internal/core"
	"gemstone/internal/hw"
	"gemstone/internal/obs"
)

// chromeDoc mirrors the Chrome trace-event JSON shape the tracer writes;
// the tests re-parse the exported artifact rather than peeking at tracer
// internals, because the artifact is the contract.
type chromeDoc struct {
	TraceEvents []chromeEv `json:"traceEvents"`
}

type chromeEv struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func (e chromeEv) end() float64 { return e.Ts + e.Dur }

// exportTrace renders and re-parses the tracer's Chrome JSON.
func exportTrace(t *testing.T, tr *obs.Tracer) chromeDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	return doc
}

// traceEps absorbs ns→µs float conversion rounding in interval checks.
const traceEps = 0.01 // microseconds

// spans returns the "X" (complete) events of a document.
func (d chromeDoc) spans() []chromeEv {
	var out []chromeEv
	for _, ev := range d.TraceEvents {
		if ev.Ph == "X" {
			out = append(out, ev)
		}
	}
	return out
}

// validateNesting asserts that within every (pid, tid) lane any two
// spans are either disjoint or properly nested — a partial overlap means
// the merge produced a timeline no viewer can render truthfully.
func validateNesting(t *testing.T, doc chromeDoc) {
	t.Helper()
	type lane struct{ pid, tid int }
	byLane := map[lane][]chromeEv{}
	for _, ev := range doc.spans() {
		k := lane{ev.Pid, ev.Tid}
		byLane[k] = append(byLane[k], ev)
	}
	for k, evs := range byLane {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
		for i := 0; i < len(evs); i++ {
			for j := i + 1; j < len(evs); j++ {
				a, b := evs[i], evs[j]
				disjoint := b.Ts >= a.end()-traceEps
				nested := b.Ts >= a.Ts-traceEps && b.end() <= a.end()+traceEps
				if !disjoint && !nested {
					t.Errorf("pid %d tid %d: %q [%.1f,%.1f] partially overlaps %q [%.1f,%.1f]",
						k.pid, k.tid, a.Name, a.Ts, a.end(), b.Name, b.Ts, b.end())
				}
			}
		}
	}
}

// validateWorkerContainment asserts every remote-process span lies
// inside the local campaign root span AND inside some coordinator-side
// dispatch span — i.e. worker activity is never orphaned outside the
// exchange that provably contained it.
func validateWorkerContainment(t *testing.T, doc chromeDoc, rootName string) {
	t.Helper()
	var root *chromeEv
	var dispatches []chromeEv
	for _, ev := range doc.spans() {
		if ev.Pid != 1 {
			continue
		}
		ev := ev
		if ev.Name == rootName && root == nil {
			root = &ev
		}
		if ev.Name == "dispatch" {
			dispatches = append(dispatches, ev)
		}
	}
	if root == nil {
		t.Fatalf("no %q root span on pid 1", rootName)
	}
	for _, ev := range doc.spans() {
		if ev.Pid == 1 {
			continue
		}
		if ev.Ts < root.Ts-traceEps || ev.end() > root.end()+traceEps {
			t.Errorf("worker span %q (pid %d) [%.1f,%.1f] escapes root %q [%.1f,%.1f]",
				ev.Name, ev.Pid, ev.Ts, ev.end(), root.Name, root.Ts, root.end())
		}
		contained := false
		for _, d := range dispatches {
			if ev.Ts >= d.Ts-traceEps && ev.end() <= d.end()+traceEps {
				contained = true
				break
			}
		}
		if !contained {
			t.Errorf("worker span %q (pid %d) [%.1f,%.1f] is orphaned outside every dispatch span",
				ev.Name, ev.Pid, ev.Ts, ev.end())
		}
	}
}

// startWorkerCap is startWorker with explicit parallelism and an
// optional clock override.
func startWorkerCap(t *testing.T, par int, clock func() time.Time, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	w := NewWorker(WorkerConfig{MaxParallel: par})
	w.clock = clock
	h := http.Handler(w.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// TestFleetTraceStitching is the tentpole's acceptance test: a
// distributed campaign over two real worker processes produces one
// Chrome trace whose spans come from >= 2 worker pids, each correctly
// nested under the campaign span and its dispatch window. A barrier on
// the workers' run handlers holds the first job on each until both
// workers have one, so both provably contribute.
func TestFleetTraceStitching(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]bool{}
	both := make(chan struct{})
	barrier := func(name string) func(http.Handler) http.Handler {
		return func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasSuffix(r.URL.Path, PathRun) {
					mu.Lock()
					if !seen[name] {
						seen[name] = true
						if len(seen) == 2 {
							close(both)
						}
					}
					mu.Unlock()
					select {
					case <-both:
					case <-time.After(30 * time.Second):
						t.Error("barrier timeout: a worker never saw a job")
					}
				}
				h.ServeHTTP(w, r)
			})
		}
	}
	// Capacity 1 per worker: exactly one campaign lane per worker, so
	// the two jobs split one per worker and the barrier cannot
	// deadlock.
	w1 := startWorkerCap(t, 1, nil, barrier("w1"))
	w2 := startWorkerCap(t, 1, nil, barrier("w2"))

	coord := NewCoordinator(CoordinatorConfig{Workers: []string{w1.URL, w2.URL}})
	tr := obs.NewTracer()
	opt := campaignOpts(2)
	opt.Tracer = tr
	opt.Trace = obs.TraceContext{Campaign: "trace-test", Tenant: "acme"}
	opt.Name = "trace-test"
	rs, err := coord.Collect(context.Background(), hw.Platform(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Runs) != 2 {
		t.Fatalf("campaign recorded %d runs, want 2", len(rs.Runs))
	}

	doc := exportTrace(t, tr)
	validateNesting(t, doc)
	validateWorkerContainment(t, doc, "collect")

	// Process metadata: the coordinator plus one named process per worker.
	procs := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.Pid], _ = ev.Args["name"].(string)
		}
	}
	if procs[1] != "coordinator" {
		t.Errorf("pid 1 named %q, want coordinator", procs[1])
	}

	// Spans from >= 2 distinct worker processes, each with a "job" root
	// correlated to the campaign and a nested "simulate" phase.
	jobByPid := map[int]chromeEv{}
	simByPid := map[int]chromeEv{}
	for _, ev := range doc.spans() {
		if ev.Pid == 1 {
			continue
		}
		switch ev.Name {
		case "job":
			jobByPid[ev.Pid] = ev
		case "simulate":
			simByPid[ev.Pid] = ev
		}
	}
	if len(jobByPid) < 2 {
		t.Fatalf("job spans from %d worker processes, want >= 2", len(jobByPid))
	}
	for pid, job := range jobByPid {
		if name := procs[pid]; !strings.HasPrefix(name, "worker ") {
			t.Errorf("pid %d named %q, want a worker process name", pid, name)
		}
		if got, _ := job.Args["campaign"].(string); got != "trace-test" {
			t.Errorf("pid %d job campaign = %q, want trace-test", pid, got)
		}
		if got, _ := job.Args["tenant"].(string); got != "acme" {
			t.Errorf("pid %d job tenant = %q, want acme", pid, got)
		}
		sim, ok := simByPid[pid]
		if !ok {
			t.Errorf("pid %d has no simulate span", pid)
			continue
		}
		if sim.Ts < job.Ts-traceEps || sim.end() > job.end()+traceEps {
			t.Errorf("pid %d simulate [%.1f,%.1f] not nested in job [%.1f,%.1f]",
				pid, sim.Ts, sim.end(), job.Ts, job.end())
		}
	}
}

// TestTraceClockSkewNegativeOffset runs a worker whose clock is far
// behind the coordinator's: without the NTP-style offset correction its
// spans would land seconds before the campaign even started. The merged
// trace must keep every worker span inside the local dispatch windows.
func TestTraceClockSkewNegativeOffset(t *testing.T) {
	skews := []time.Duration{-90 * time.Second, 90 * time.Second}
	for _, skew := range skews {
		skew := skew
		t.Run(fmt.Sprintf("skew=%v", skew), func(t *testing.T) {
			srv := startWorkerCap(t, 2, func() time.Time { return time.Now().Add(skew) }, nil)
			coord := NewCoordinator(CoordinatorConfig{Workers: []string{srv.URL}})
			tr := obs.NewTracer()
			opt := campaignOpts(2)
			opt.Tracer = tr
			opt.Name = "skew-test"
			if _, err := coord.Collect(context.Background(), hw.Platform(), opt); err != nil {
				t.Fatal(err)
			}

			doc := exportTrace(t, tr)
			validateNesting(t, doc)
			validateWorkerContainment(t, doc, "collect")
			workerSpans := 0
			for _, ev := range doc.spans() {
				if ev.Pid != 1 {
					workerSpans++
					if ev.Ts < -traceEps {
						t.Errorf("span %q starts before the trace epoch (Ts=%.1f)", ev.Name, ev.Ts)
					}
				}
			}
			if workerSpans == 0 {
				t.Fatal("no worker spans imported")
			}
		})
	}
}

// TestTraceKillSwitchNoOrphans kills the only worker after one job: the
// remaining jobs retry and then simulate on their own lane. The merged trace
// must stay well-formed — no orphaned worker spans, no partial overlap,
// and at most one worker-side job span per completed job.
func TestTraceKillSwitchNoOrphans(t *testing.T) {
	kill := &KillSwitch{After: 1}
	srv := startWorkerCap(t, 1, nil, func(h http.Handler) http.Handler {
		kill.Handler = h
		return kill
	})
	coord := NewCoordinator(CoordinatorConfig{Workers: []string{srv.URL}})
	tr := obs.NewTracer()
	opt := campaignOpts(2)
	opt.Tracer = tr
	opt.Name = "kill-test"
	rs, err := coord.Collect(context.Background(), hw.Platform(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Runs) != 2 {
		t.Fatalf("campaign recorded %d runs, want 2", len(rs.Runs))
	}
	if !kill.Dead() {
		t.Fatal("kill switch never tripped")
	}

	doc := exportTrace(t, tr)
	validateNesting(t, doc)
	validateWorkerContainment(t, doc, "collect")
	jobs := 0
	for _, ev := range doc.spans() {
		if ev.Pid != 1 && ev.Name == "job" {
			jobs++
		}
	}
	if jobs > 1 {
		t.Errorf("%d worker job spans survived a single successful remote job", jobs)
	}
	// The jobs that outlived the worker simulated locally: their spans
	// render on the coordinator's lanes.
	locals := 0
	for _, ev := range doc.spans() {
		if ev.Pid == 1 && ev.Name == "simulate" {
			locals++
		}
	}
	if locals == 0 {
		t.Error("no locally simulated spans after the worker died")
	}
}

// TestTraceChaosImportsEachRunOnce runs a traced campaign whose first two
// run requests are a dropped response (the worker ran the job, the
// coordinator never heard) and a duplicated execution (the worker ran
// it twice, the coordinator hears once). The archive must match a local
// collection, each run must contribute exactly one imported worker job
// span, and every attempt one dispatch span containing its worker spans.
func TestTraceChaosImportsEachRunOnce(t *testing.T) {
	n := campaignSize(t)
	local, err := core.Collect(context.Background(), hw.Platform(), campaignOpts(n))
	if err != nil {
		t.Fatal(err)
	}
	// Seed 3 draws 0.11 then 0.70: a drop, then a duplicate.
	chaos := &Chaos{Seed: 3, DropProb: 0.5, DuplicateProb: 0.5, MaxFaults: 2}
	coord := NewCoordinator(CoordinatorConfig{
		Workers: []string{startWorker(t, nil).URL, startWorker(t, nil).URL},
		Client:  &http.Client{Transport: chaos},
	})
	tr := obs.NewTracer()
	opt := campaignOpts(n)
	opt.Tracer = tr
	opt.Name = "chaos-trace"
	rs, err := coord.Collect(context.Background(), hw.Platform(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(archiveBytes(t, rs), archiveBytes(t, local)) {
		t.Fatal("chaotic traced archive differs from local")
	}
	if chaos.Drops() != 1 || chaos.Duplicates() != 1 {
		t.Fatalf("chaos injected %d drops and %d duplicates, want 1 and 1", chaos.Drops(), chaos.Duplicates())
	}

	doc := exportTrace(t, tr)
	validateNesting(t, doc)
	validateWorkerContainment(t, doc, "collect")
	jobSpans, dispatchSpans := 0, 0
	for _, ev := range doc.spans() {
		switch {
		case ev.Pid != 1 && ev.Name == "job":
			jobSpans++
		case ev.Pid == 1 && ev.Name == "dispatch":
			dispatchSpans++
		}
	}
	if jobSpans != n {
		t.Errorf("imported %d worker job spans, want one per run (%d)", jobSpans, n)
	}
	if want := n + int(chaos.Drops()); dispatchSpans != want {
		t.Errorf("recorded %d dispatch spans, want one per attempt (%d)", dispatchSpans, want)
	}
}

// TestTraceOverheadSmoke is the ≤2% overhead gate, runnable on demand
// (GEMSTONE_TRACE_SMOKE=1; `make trace-smoke` sets it): the same
// two-worker campaign runs untraced and traced, interleaved best-of-5,
// and the traced best must stay within 2% of the untraced best plus a
// small absolute slack that absorbs scheduler noise on sub-second runs.
// Run it WITHOUT -race (the race detector's instrumentation swamps the
// signal); the benchmark's obs.trace_overhead_pct probe
// (bash bench/run.sh --trace 1) reports the steady-state overhead.
func TestTraceOverheadSmoke(t *testing.T) {
	if os.Getenv("GEMSTONE_TRACE_SMOKE") == "" {
		t.Skip("set GEMSTONE_TRACE_SMOKE=1 to run the trace-overhead smoke")
	}
	w1 := startWorker(t, nil)
	w2 := startWorker(t, nil)
	coord := NewCoordinator(CoordinatorConfig{Workers: []string{w1.URL, w2.URL}})

	run := func(traced bool) time.Duration {
		opt := campaignOpts(2)
		if traced {
			opt.Tracer = obs.NewTracer()
		}
		start := time.Now()
		if _, err := coord.Collect(context.Background(), hw.Platform(), opt); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	run(false) // warm worker SimContext pools so neither side pays the cold build
	bestUntraced, bestTraced := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < 5; i++ {
		if d := run(false); d < bestUntraced {
			bestUntraced = d
		}
		if d := run(true); d < bestTraced {
			bestTraced = d
		}
	}
	limit := bestUntraced + bestUntraced/50 + 20*time.Millisecond
	t.Logf("untraced best %v, traced best %v, limit %v", bestUntraced, bestTraced, limit)
	if bestTraced > limit {
		t.Errorf("traced campaign %v exceeds overhead limit %v (untraced %v)",
			bestTraced, limit, bestUntraced)
	}
}
