package mem

import (
	"testing"

	"gemstone/internal/xrand"
)

// driveHier runs a deterministic mixed access sequence against h and
// returns every latency (and store-exclusive outcome) the "pipeline"
// observed. The sequence exercises every pipeline-level entry point the
// DVFS trace covers — fetches, loads, stores (aligned, unaligned and
// streaming runs), exclusive pairs, barriers, snoops and wrong-path
// probes — over a footprint large enough to miss in every cache level
// and walk the page table.
func driveHier(h *Hierarchy) []int {
	rng := xrand.New(0xD1F5)
	var out []int
	pc := uint64(0x10000)
	for i := 0; i < 20000; i++ {
		pc += 4
		if rng.Bool(0.1) {
			pc = 0x10000 + uint64(rng.Intn(1<<22))&^3 // far jump
		}
		out = append(out, h.FetchAccess(pc))
		switch {
		case rng.Bool(0.30):
			addr := uint64(rng.Intn(1 << 24))
			out = append(out, h.LoadAccess(addr, rng.Bool(0.05)))
		case rng.Bool(0.30):
			addr := uint64(rng.Intn(1 << 24))
			out = append(out, h.StoreAccess(addr, 4, rng.Bool(0.05)))
		case rng.Bool(0.05):
			// Streaming store run long enough to trigger merging.
			base := uint64(0x200_0000) + uint64(i)*4
			for j := uint64(0); j < 8; j++ {
				out = append(out, h.StoreAccess(base+j*4, 4, false))
			}
		case rng.Bool(0.05):
			addr := uint64(rng.Intn(1 << 20))
			out = append(out, h.LoadExclusive(addr).Cycles(h.Clock()))
			if rng.Bool(0.3) {
				h.InjectSnoop(addr) // clears the monitor: strex must fail
			}
			lat, ok := h.StoreExclusive(addr)
			flag := 0
			if ok {
				flag = 1
			}
			out = append(out, lat.Cycles(h.Clock()), flag)
		case rng.Bool(0.02):
			h.Barrier()
		case rng.Bool(0.02):
			h.WrongPathProbe(pc + 0x123456)
		}
	}
	return out
}

// hierPMUState snapshots every statistics block a pmu capture reads.
func hierPMUState(h *Hierarchy) hierSnapshot {
	var tr DVFSTrace
	tr.snapshot(h)
	return tr.snap
}

// TestDVFSTraceReplayMatchesFreshSimulation pins the replay engine's
// contract: recording a run at one frequency and replaying it at another
// yields, bit for bit, the latencies, store-exclusive outcomes and
// statistics of a full simulation at the second frequency.
func TestDVFSTraceReplayMatchesFreshSimulation(t *testing.T) {
	const f1, f2 = 0.6, 1.9

	// Record at f1.
	rec := NewHierarchy(testHierConfig())
	rec.SetFrequencyGHz(f1)
	var tr DVFSTrace
	rec.BeginTraceRecord(&tr)
	driveHier(rec)
	rec.EndTraceRecord()
	if !tr.Valid() {
		t.Fatal("recording aborted: latency decomposition overflowed")
	}

	// Replay at f2 on the same (Reset) hierarchy.
	rec.Reset()
	rec.SetFrequencyGHz(f2)
	if !rec.BeginTraceReplay(&tr) {
		t.Fatal("BeginTraceReplay refused a valid trace")
	}
	replayed := driveHier(rec)
	rec.EndTraceReplay()
	replayState := hierPMUState(rec)

	// Full simulation at f2 on a fresh hierarchy.
	fresh := NewHierarchy(testHierConfig())
	fresh.SetFrequencyGHz(f2)
	live := driveHier(fresh)
	liveState := hierPMUState(fresh)

	if len(replayed) != len(live) {
		t.Fatalf("replay observed %d values, full simulation %d", len(replayed), len(live))
	}
	for i := range live {
		if replayed[i] != live[i] {
			t.Fatalf("value %d: replay=%d full=%d", i, replayed[i], live[i])
		}
	}
	if replayState != liveState {
		t.Errorf("replayed statistics diverge from full simulation:\nreplay: %+v\nfull:   %+v",
			replayState, liveState)
	}
}

// TestDVFSTraceSameFrequencyRoundTrip replays at the recording frequency:
// the degenerate sweep point must also be exact.
func TestDVFSTraceSameFrequencyRoundTrip(t *testing.T) {
	h := NewHierarchy(testHierConfig())
	h.SetFrequencyGHz(1.0)
	var tr DVFSTrace
	h.BeginTraceRecord(&tr)
	recorded := driveHier(h)
	h.EndTraceRecord()
	if !tr.Valid() {
		t.Fatal("recording aborted")
	}
	recState := hierPMUState(h)

	h.Reset()
	h.SetFrequencyGHz(1.0)
	if !h.BeginTraceReplay(&tr) {
		t.Fatal("BeginTraceReplay refused a valid trace")
	}
	replayed := driveHier(h)
	h.EndTraceReplay()

	for i := range recorded {
		if replayed[i] != recorded[i] {
			t.Fatalf("value %d: replay=%d recorded=%d", i, replayed[i], recorded[i])
		}
	}
	if got := hierPMUState(h); got != recState {
		t.Errorf("round-trip statistics diverge:\nreplay: %+v\nrecord: %+v", got, recState)
	}
}

// TestDVFSTraceInvalidReplayRefused pins the safety property: an invalid
// (never-completed) trace cannot be armed for replay.
func TestDVFSTraceInvalidReplayRefused(t *testing.T) {
	h := NewHierarchy(testHierConfig())
	var tr DVFSTrace
	if h.BeginTraceReplay(&tr) {
		t.Fatal("BeginTraceReplay armed an invalid trace")
	}
	if h.traceMode != traceOff {
		t.Fatal("refused replay left the hierarchy in a trace mode")
	}
}
