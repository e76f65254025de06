package mem

// DVFS-trace replay.
//
// The memory-system event stream is frequency-invariant: which lookups
// hit, which DRAM rows open, which lines write back depends only on the
// instruction stream's addresses, never on how many cycles an access took.
// Every access therefore returns a Latency decomposition that holds at
// every frequency. A whole DVFS sweep simulated in one pass evaluates each
// decomposition at every clock as it goes (see pipeline.Core.RunSweep);
// runs of one sweep that arrive one at a time (the distributed workers'
// jobs) reuse the memory work through this trace instead.
//
// DVFSTrace records the decompositions — one packed uint32 per
// pipeline-level access (Fetch/Load/Store) — plus a snapshot of every
// statistics block at end of run. Replaying the trace at
// another operating point reproduces, bit for bit, the latencies and
// statistics a full simulation at that frequency would produce, while
// skipping all cache, TLB and DRAM work. The exclusive monitor stays live
// during replay (it is the one piece of hierarchy state whose effect —
// store-exclusive success — feeds back into the pipeline between accesses),
// and InjectSnoop/WrongPathProbe become monitor-only/no-ops because their
// cache and TLB effects are already baked into the recorded outcomes.
//
// The golden equivalence tests and the cross-frequency campaign tests pin
// the bit-for-bit property.

// Packed entry layout: fixed cycles in the low 16 bits, DRAM row misses in
// bits 16..23, DRAM row hits in bits 24..31. Recording aborts (and the
// trace is discarded) if any field would overflow, so decoding is exact.
const (
	traceFixedMask  = 0xFFFF
	traceMissShift  = 16
	traceHitShift   = 24
	traceCountLimit = 0xFF
)

// Hierarchy trace modes.
const (
	traceOff = iota
	traceRecord
	traceReplay
)

// DVFSTrace holds the frequency-invariant memory trace of one
// workload×cluster run: the per-access latency decompositions and the
// end-of-run statistics snapshot. The zero value is an invalid (empty)
// trace; storage is reused across recordings.
type DVFSTrace struct {
	entries []uint32
	valid   bool
	snap    hierSnapshot
}

// Valid reports whether the trace holds a complete recorded run.
func (t *DVFSTrace) Valid() bool { return t.valid }

// hierSnapshot is the end-of-run state of every statistics block a
// pmu capture reads from the hierarchy.
type hierSnapshot struct {
	hier           HierarchyStats
	l1i, l1d, l2   CacheStats
	itlb, dtlb     TLBStats
	l2tlbi, l2tlbd TLBStats
	dram           DRAMStats
}

func (t *DVFSTrace) snapshot(h *Hierarchy) {
	t.snap = hierSnapshot{
		hier: h.Stats,
		l1i:  h.L1I.Stats, l1d: h.L1D.Stats, l2: h.L2.Stats,
		itlb: h.ITLB.Stats, dtlb: h.DTLB.Stats,
		l2tlbi: h.L2TLBI.Stats, l2tlbd: h.L2TLBD.Stats,
		dram: h.DRAM.Stats,
	}
}

func (t *DVFSTrace) restore(h *Hierarchy) {
	h.Stats = t.snap.hier
	h.L1I.Stats, h.L1D.Stats, h.L2.Stats = t.snap.l1i, t.snap.l1d, t.snap.l2
	h.ITLB.Stats, h.DTLB.Stats = t.snap.itlb, t.snap.dtlb
	// With a unified second-level TLB both fields alias one TLB and both
	// snapshot fields hold the same value, so the double write is benign.
	h.L2TLBI.Stats, h.L2TLBD.Stats = t.snap.l2tlbi, t.snap.l2tlbd
	h.DRAM.Stats = t.snap.dram
}

// BeginTraceRecord arms trace recording into tr for the next run. The
// trace's previous contents are discarded; storage is reused.
func (h *Hierarchy) BeginTraceRecord(tr *DVFSTrace) {
	tr.entries = tr.entries[:0]
	tr.valid = false
	h.trace = tr
	h.traceMode = traceRecord
}

// EndTraceRecord finishes recording. The trace becomes valid unless
// recording aborted mid-run (an entry field overflowed its packed width).
func (h *Hierarchy) EndTraceRecord() {
	if h.traceMode == traceRecord {
		h.trace.snapshot(h)
		h.trace.valid = true
	}
	h.trace = nil
	h.traceMode = traceOff
}

// abortRecord discards an in-progress recording; the run continues as a
// plain simulation and the trace stays invalid.
func (h *Hierarchy) abortRecord() {
	h.trace = nil
	h.traceMode = traceOff
}

// BeginTraceReplay arms replay of a valid trace for the next run and
// reports whether replay was armed.
func (h *Hierarchy) BeginTraceReplay(tr *DVFSTrace) bool {
	if !tr.valid {
		return false
	}
	h.trace = tr
	h.tracePos = 0
	h.traceMode = traceReplay
	return true
}

// EndTraceReplay finishes a replayed run: it checks the pipeline consumed
// exactly the recorded access sequence (anything else means the simulation
// is non-deterministic, which the whole engine relies on) and installs the
// recorded statistics into the hierarchy for collation.
func (h *Hierarchy) EndTraceReplay() {
	if h.traceMode != traceReplay {
		panic("mem: EndTraceReplay without BeginTraceReplay")
	}
	if h.tracePos != len(h.trace.entries) {
		panic("mem: DVFS trace replay out of sync with pipeline")
	}
	h.trace.restore(h)
	h.trace = nil
	h.traceMode = traceOff
}

// recordEntry appends the decomposition of one pipeline-level access.
func (h *Hierarchy) recordEntry(lat Latency) {
	fixed, hits, misses := uint64(uint32(lat)), uint64(lat>>latHitShift), uint64(lat>>latMissShift&latCountMask)
	if fixed > traceFixedMask || hits > traceCountLimit || misses > traceCountLimit {
		h.abortRecord()
		return
	}
	h.trace.entries = append(h.trace.entries, uint32(fixed|misses<<traceMissShift|hits<<traceHitShift))
}

// replayNext pops the next recorded access's decomposition.
func (h *Hierarchy) replayNext() Latency {
	e := h.trace.entries[h.tracePos]
	h.tracePos++
	return Latency(e&traceFixedMask) +
		Latency(e>>traceHitShift)*latDRAMHit +
		Latency(e>>traceMissShift&traceCountLimit)*latDRAMMiss
}

// Len returns the number of recorded accesses.
func (t *DVFSTrace) Len() int { return len(t.entries) }
