package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestTraceContext(t *testing.T) {
	var zero TraceContext
	if zero.Correlated() || zero.Recording() {
		t.Fatal("zero TraceContext must be anonymous and untraced")
	}
	if !(TraceContext{Campaign: "c-1"}).Correlated() {
		t.Error("campaign alone should correlate")
	}
	if !(TraceContext{Tenant: "alice"}).Correlated() {
		t.Error("tenant alone should correlate")
	}
	if !(TraceContext{Job: "k"}).Correlated() {
		t.Error("job alone should correlate")
	}
	if (TraceContext{Campaign: "c-1"}).Recording() {
		t.Error("correlation must not imply recording")
	}
	if !(TraceContext{Record: true}).Recording() {
		t.Error("Record flag should report recording")
	}
}

func TestAttrRecordRoundTrip(t *testing.T) {
	attrs := []Attr{
		String("s", "v"),
		Int("i", -7),
		Int64("i64", 1<<40),
		Uint64("u", 9),
		Float64("f", 2.5),
		Bool("b", true),
	}
	for _, a := range attrs {
		got := recordAttr(a).Attr()
		if got.Key != a.Key || got.Value != a.Value {
			t.Errorf("round trip of %v produced %v", a, got)
		}
	}
	// A dynamic type no constructor produces degrades to a string marker
	// instead of losing the key.
	odd := recordAttr(Attr{Key: "x", Value: struct{}{}})
	if odd.Kind != AttrString || odd.Str != "?" {
		t.Errorf("unknown attr type: %+v", odd)
	}
}

func TestNewSpanRecordClampsNegativeDuration(t *testing.T) {
	now := time.Now()
	rec := NewSpanRecord("backwards", now, now.Add(-time.Second))
	if rec.DurNanos != 0 {
		t.Fatalf("negative duration survived: %d", rec.DurNanos)
	}
}

// TestExportImport round-trips spans exported the way a worker exports
// them (NewSpanRecord) through ImportProcess: names, attributes and
// timing survive, and the spans land in the remote process group.
func TestExportImport(t *testing.T) {
	start := time.Now()
	recs := []SpanRecord{
		NewSpanRecord("job", start, start.Add(3*time.Millisecond), String("id", "k1")),
		NewSpanRecord("simulate", start.Add(time.Millisecond), start.Add(2*time.Millisecond), Int("freq_mhz", 1000)),
	}

	dst := NewTracer()
	dst.ImportProcess("worker a", recs, 0, time.Time{}, time.Time{})
	events := dst.Events()
	if len(events) != 2 {
		t.Fatalf("imported %d events, want 2", len(events))
	}
	byName := map[string]Event{}
	for _, ev := range events {
		if ev.Proc == 0 {
			t.Errorf("imported span %q kept the local process id", ev.Name)
		}
		byName[ev.Name] = ev
	}
	job, sim := byName["job"], byName["simulate"]
	if job.Dur != 3*time.Millisecond || sim.Dur != time.Millisecond || sim.Start-job.Start != time.Millisecond {
		t.Fatalf("imported timing job %+v simulate %+v", job, sim)
	}
	if len(job.Attrs) != 1 || job.Attrs[0] != String("id", "k1") ||
		len(sim.Attrs) != 1 || sim.Attrs[0] != Int("freq_mhz", 1000) {
		t.Fatalf("imported attrs job %v simulate %v", job.Attrs, sim.Attrs)
	}
}

func TestExportNilTracer(t *testing.T) {
	// Import on a nil tracer must not panic.
	var tr *Tracer
	tr.ImportProcess("w", []SpanRecord{{Name: "x"}}, 0, time.Time{}, time.Time{})
}

// TestImportProcessNegativeOffset pins the negative-skew case: the
// worker's clock runs behind the coordinator's, so the offset estimate
// is negative and imported spans must shift forward onto the local
// timeline (remote − offset = remote + |offset|).
func TestImportProcessNegativeOffset(t *testing.T) {
	tr := NewTracer()
	skew := -40 * time.Millisecond // worker behind by 40ms

	// Local dispatch window: [10ms, 30ms] after the epoch.
	lo := tr.epoch.Add(10 * time.Millisecond)
	hi := tr.epoch.Add(30 * time.Millisecond)

	// The worker handled the job (on its own skewed clock) in what is
	// locally the window [15ms, 25ms].
	workerStart := lo.Add(5 * time.Millisecond).Add(skew)
	rec := NewSpanRecord("job", workerStart, workerStart.Add(10*time.Millisecond))
	tr.ImportProcess("worker a", []SpanRecord{rec}, skew, lo, hi)

	events := tr.Events()
	if len(events) != 1 {
		t.Fatalf("imported %d events", len(events))
	}
	ev := events[0]
	wantStart := 15 * time.Millisecond
	if ev.Start != wantStart {
		t.Errorf("start = %v, want %v", ev.Start, wantStart)
	}
	if ev.Dur != 10*time.Millisecond {
		t.Errorf("dur = %v, want 10ms", ev.Dur)
	}
}

// TestImportProcessClampsToWindow pins the invariant the merge leans on:
// whatever the offset estimate error, no imported span may leak outside
// the local dispatch window that provably contains the work.
func TestImportProcessClampsToWindow(t *testing.T) {
	tr := NewTracer()
	lo := tr.epoch.Add(10 * time.Millisecond)
	hi := tr.epoch.Add(20 * time.Millisecond)

	recs := []SpanRecord{
		// Starts before the window opens.
		NewSpanRecord("early", lo.Add(-5*time.Millisecond), lo.Add(5*time.Millisecond)),
		// Ends after the window closes.
		NewSpanRecord("late", hi.Add(-2*time.Millisecond), hi.Add(8*time.Millisecond)),
		// Entirely after the window: collapses to a zero-width span at hi.
		NewSpanRecord("beyond", hi.Add(5*time.Millisecond), hi.Add(9*time.Millisecond)),
	}
	tr.ImportProcess("worker a", recs, 0, lo, hi)

	loD, hiD := lo.Sub(tr.epoch), hi.Sub(tr.epoch)
	for _, ev := range tr.Events() {
		if ev.Start < loD || ev.Start+ev.Dur > hiD {
			t.Errorf("span %q [%v,%v] escapes window [%v,%v]",
				ev.Name, ev.Start, ev.Start+ev.Dur, loD, hiD)
		}
		if ev.Dur < 0 {
			t.Errorf("span %q has negative duration %v", ev.Name, ev.Dur)
		}
	}
}

// TestImportProcessLanePacking checks per-process lane allocation:
// sequential batches reuse lanes, overlapping batches stack, and a
// two-lane batch keeps its internal lane split.
func TestImportProcessLanePacking(t *testing.T) {
	tr := NewTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	span := func(name string, lane, startMS, endMS int) SpanRecord {
		rec := NewSpanRecord(name, at(startMS), at(endMS))
		rec.Lane = lane
		return rec
	}

	tr.ImportProcess("w", []SpanRecord{span("a", 0, 0, 10)}, 0, time.Time{}, time.Time{})
	// Overlaps batch a: must land on a fresh lane.
	tr.ImportProcess("w", []SpanRecord{span("b", 0, 5, 15)}, 0, time.Time{}, time.Time{})
	// Starts after both ended: reuses the lowest lane.
	tr.ImportProcess("w", []SpanRecord{span("c", 0, 20, 30)}, 0, time.Time{}, time.Time{})
	// Two-lane batch overlapping c: occupies two fresh adjacent lanes.
	tr.ImportProcess("w", []SpanRecord{
		span("d0", 0, 25, 35), span("d1", 1, 25, 35),
	}, 0, time.Time{}, time.Time{})

	lanes := map[string]int{}
	for _, ev := range tr.Events() {
		lanes[ev.Name] = ev.Lane
	}
	if lanes["a"] != 0 || lanes["b"] != 1 {
		t.Errorf("overlapping batches on lanes a=%d b=%d, want 0 and 1", lanes["a"], lanes["b"])
	}
	if lanes["c"] != 0 {
		t.Errorf("sequential batch on lane %d, want reuse of lane 0", lanes["c"])
	}
	if lanes["d1"] != lanes["d0"]+1 {
		t.Errorf("two-lane batch split %d/%d, want adjacent", lanes["d0"], lanes["d1"])
	}
}

func TestChromeTraceMultiProcess(t *testing.T) {
	tr := NewTracer()
	s := tr.Start("campaign")
	time.Sleep(time.Millisecond)
	s.End()

	now := time.Now()
	tr.ImportProcess("worker a", []SpanRecord{NewSpanRecord("job", now, now.Add(time.Millisecond))},
		0, time.Time{}, time.Time{})
	tr.ImportProcess("worker b", []SpanRecord{NewSpanRecord("job", now, now.Add(time.Millisecond))},
		0, time.Time{}, time.Time{})
	// Re-import into an existing process: the pid must be stable.
	tr.ImportProcess("worker a", []SpanRecord{NewSpanRecord("job2", now.Add(2*time.Millisecond), now.Add(3*time.Millisecond))},
		0, time.Time{}, time.Time{})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	procName := map[int]string{}
	pidsByName := map[string][]int{}
	for _, ev := range out.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procName[ev.Pid], _ = ev.Args["name"].(string)
			continue
		}
		pidsByName[ev.Name] = append(pidsByName[ev.Name], ev.Pid)
	}
	if procName[1] != "coordinator" {
		t.Errorf("pid 1 metadata %q, want coordinator", procName[1])
	}
	var aPid, bPid int
	for pid, name := range procName {
		switch name {
		case "worker a":
			aPid = pid
		case "worker b":
			bPid = pid
		}
	}
	if aPid < 2 || bPid < 2 || aPid == bPid {
		t.Fatalf("worker pids %d/%d, want distinct ids >= 2", aPid, bPid)
	}
	if got := pidsByName["campaign"]; len(got) != 1 || got[0] != 1 {
		t.Errorf("campaign span pids %v, want [1]", got)
	}
	if got := pidsByName["job2"]; len(got) != 1 || got[0] != aPid {
		t.Errorf("re-imported span pids %v, want stable pid %d", got, aPid)
	}
}
