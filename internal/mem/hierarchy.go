package mem

import (
	"fmt"
	"math"
)

// HierarchyConfig assembles the per-core and per-cluster memory system.
type HierarchyConfig struct {
	L1I CacheConfig
	L1D CacheConfig
	L2  CacheConfig

	ITLB TLBConfig
	DTLB TLBConfig

	// UnifiedL2TLB selects the hardware shape (one shared second-level TLB
	// for instruction and data translations). When false, L2TLBI/L2TLBD
	// model gem5's split walker caches.
	UnifiedL2TLB bool
	L2TLB        TLBConfig // used when UnifiedL2TLB
	L2TLBI       TLBConfig // used when split
	L2TLBD       TLBConfig // used when split

	DRAM DRAMConfig

	// WalkMemAccesses is the number of page-table memory accesses charged
	// per hardware page-table walk (2 for a 2-level table).
	WalkMemAccesses int
	// WalkLatencyCycles is fixed walker overhead per walk.
	WalkLatencyCycles int

	// StreamingStoreMerge enables the merging write buffer: runs of
	// sequential stores covering whole lines bypass L1D allocation and are
	// sent to L2 as merged line writes. Real Cortex cores have this; the
	// gem5 model's lack of it is what inflates L1D write refills (9.9x)
	// and writebacks (19x) in the paper's Fig. 6.
	StreamingStoreMerge bool
	// StreamDetectRun is the number of consecutive sequential stores that
	// triggers streaming mode.
	StreamDetectRun int
}

// Validate checks every sub-configuration.
func (c HierarchyConfig) Validate() error {
	for _, cc := range []CacheConfig{c.L1I, c.L1D, c.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	tlbs := []TLBConfig{c.ITLB, c.DTLB}
	if c.UnifiedL2TLB {
		tlbs = append(tlbs, c.L2TLB)
	} else {
		tlbs = append(tlbs, c.L2TLBI, c.L2TLBD)
	}
	for _, tc := range tlbs {
		if err := tc.Validate(); err != nil {
			return err
		}
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if c.WalkMemAccesses <= 0 {
		return fmt.Errorf("mem: hierarchy: WalkMemAccesses must be positive")
	}
	return nil
}

// HierarchyStats gathers counters that do not belong to a single component.
type HierarchyStats struct {
	ITLBWalks       uint64 // full page-table walks on the instruction side
	DTLBWalks       uint64
	Snoops          uint64 // coherence snoops observed
	SnoopHits       uint64 // snoops that invalidated a resident line
	MergedStores    uint64 // stores absorbed by the merging write buffer
	UnalignedAccess uint64 // unaligned data accesses (extra L1D access)
	ExclusiveLoads  uint64
	ExclusiveStores uint64
	ExclusivePasses uint64 // store-exclusives that succeeded
	ExclusiveFails  uint64
	Barriers        uint64
	BusAccesses     uint64 // L2<->DRAM transfers (reads + writebacks)
}

// Latency is the latency of one pipeline-level access, decomposed into the
// parts that do and do not depend on the core clock:
//
//	fixed + rowHits*clock.Hit + rowMisses*clock.Miss
//
// fixed counts cache, TLB and walker cycles; rowHits and rowMisses count
// the DRAM accesses on the access's critical path, whose cycle cost is the
// only frequency-dependent quantity the hierarchy produces (see Clock).
// Which lookups hit, which DRAM rows open and which lines write back
// depend only on addresses, so one access path serves every operating
// point: a caller evaluates the same Latency at as many clocks as it
// likes. The three fields pack into one word (fixed in the low 32 bits,
// misses in bits 32..47, hits in bits 48..63), so composing latencies is
// one integer add.
type Latency uint64

const (
	latMissShift = 32
	latHitShift  = 48
	latCountMask = 0xFFFF

	latDRAMMiss Latency = 1 << latMissShift
	latDRAMHit  Latency = 1 << latHitShift
)

// Cycles evaluates the latency at clock c.
func (l Latency) Cycles(c Clock) int {
	return int(uint32(l)) + int(l>>latHitShift)*c.Hit + int(l>>latMissShift&latCountMask)*c.Miss
}

// Clock is the core-cycle cost of one DRAM access at one core frequency:
// every DRAM access the hierarchy issues is one L2-line transfer, so the
// only two latencies are a row hit and a row miss.
type Clock struct{ Hit, Miss int }

// Hierarchy composes the full memory system for one simulated core plus its
// cluster-shared L2 and DRAM. Its access path returns Latency
// decompositions; the int-returning entry points evaluate them at the
// currently configured frequency.
type Hierarchy struct {
	cfg HierarchyConfig

	L1I, L1D, L2 *Cache
	ITLB, DTLB   *TLB
	L2TLBI       *TLB // == L2TLBD when unified
	L2TLBD       *TLB
	DRAM         *DRAM

	Stats HierarchyStats

	freqGHz float64

	// Hot-path invariants hoisted out of the per-access loops: hit
	// latencies and line geometry are configuration constants.
	l1iLat, l1dLat, l2Lat Latency
	l1dLine               uint64
	l1dWriteAlloc         bool
	walkLat               Latency
	walkAccesses          int
	// clock is the DRAM cycle pair at freqGHz, which the int-returning
	// entry points evaluate latencies with.
	clock Clock

	// Streaming-store detector: a small write-combining buffer tracking
	// several independent store streams (real merging write buffers have
	// 4-8 line entries, so interleaved scattered stores do not destroy a
	// detected stream).
	wcb     [8]wcbEntry
	wcbTick uint64

	// exclusive monitor
	monitorValid bool
	monitorAddr  uint64

	// page-table region base for synthetic walk addresses
	ptBase uint64
}

// NewHierarchy builds the hierarchy, panicking on invalid configuration.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{
		cfg:     cfg,
		L1I:     NewCache(cfg.L1I),
		L1D:     NewCache(cfg.L1D),
		L2:      NewCache(cfg.L2),
		ITLB:    NewTLB(cfg.ITLB),
		DTLB:    NewTLB(cfg.DTLB),
		DRAM:    NewDRAM(cfg.DRAM),
		freqGHz: 1.0,
		ptBase:  0x7f00_0000_0000,
	}
	if cfg.UnifiedL2TLB {
		u := NewTLB(cfg.L2TLB)
		h.L2TLBI, h.L2TLBD = u, u
	} else {
		h.L2TLBI = NewTLB(cfg.L2TLBI)
		h.L2TLBD = NewTLB(cfg.L2TLBD)
	}
	h.l1iLat = Latency(cfg.L1I.LatencyCycles)
	h.l1dLat = Latency(cfg.L1D.LatencyCycles)
	h.l2Lat = Latency(cfg.L2.LatencyCycles)
	h.l1dLine = uint64(cfg.L1D.LineBytes)
	h.l1dWriteAlloc = cfg.L1D.WriteAllocate
	h.walkLat = Latency(cfg.WalkLatencyCycles)
	h.walkAccesses = cfg.WalkMemAccesses
	h.SetFrequencyGHz(1.0)
	return h
}

// Reset restores the hierarchy (every cache, TLB, the DRAM model, the
// write-combining buffer, the exclusive monitor and all statistics) to its
// just-constructed state without reallocating any storage. The current
// frequency is retained; callers reconfiguring a reused hierarchy call
// SetFrequencyGHz afterwards as they would after NewHierarchy. A Reset
// hierarchy is indistinguishable from a fresh one — the SimContext reuse
// path and the golden equivalence tests rely on exactly that.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.ITLB.Reset()
	h.DTLB.Reset()
	h.L2TLBI.Reset()
	if h.L2TLBD != h.L2TLBI {
		h.L2TLBD.Reset()
	}
	h.DRAM.Reset()
	h.Stats = HierarchyStats{}
	h.wcb = [8]wcbEntry{}
	h.wcbTick = 0
	h.monitorValid = false
	h.monitorAddr = 0
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// ClockAt returns the DRAM cycle pair at a core clock of ghz: the row-hit
// and row-miss times plus one L2-line transfer, in nanoseconds, rounded up
// to whole cycles. Computing it once per clock keeps float math off the
// access path.
func (h *Hierarchy) ClockAt(ghz float64) Clock {
	if ghz <= 0 {
		panic("mem: non-positive frequency")
	}
	transfer := float64(h.L2.LineBytes()) / h.cfg.DRAM.BandwidthBytesPerNs
	return Clock{
		Hit:  int(math.Ceil((h.cfg.DRAM.RowHitNs + transfer) * ghz)),
		Miss: int(math.Ceil((h.cfg.DRAM.RowMissNs + transfer) * ghz)),
	}
}

// SetFrequencyGHz sets the core clock the int-returning entry points
// evaluate latencies at.
func (h *Hierarchy) SetFrequencyGHz(ghz float64) {
	h.clock = h.ClockAt(ghz)
	h.freqGHz = ghz
}

// FrequencyGHz returns the current core clock.
func (h *Hierarchy) FrequencyGHz() float64 { return h.freqGHz }

// Clock returns the DRAM cycle pair at the current core clock.
func (h *Hierarchy) Clock() Clock { return h.clock }

// l2Fill performs an L2 lookup for a line fill on behalf of an L1 miss and
// returns the added latency beyond the L1 hit latency. Callers filling off
// the critical path (prefetches, the second line of an unaligned store)
// discard it.
func (h *Hierarchy) l2Fill(addr uint64, write bool) Latency {
	res := h.L2.Access(addr, write)
	lat := h.l2Lat
	if res.Writeback {
		h.Stats.BusAccesses++
		// Writeback is off the critical path: state update only.
		h.DRAM.AccessRowHit(res.WritebackAddr, true)
	}
	if !res.Hit {
		h.Stats.BusAccesses++
		if h.DRAM.AccessRowHit(addr, write) {
			lat += latDRAMHit
		} else {
			lat += latDRAMMiss
		}
	}
	for _, pa := range res.PrefetchAddrs {
		wbAddr, wb := h.L2.prefetchAbsent(pa)
		if wb {
			h.Stats.BusAccesses++
			h.DRAM.AccessRowHit(wbAddr, true)
		}
		h.Stats.BusAccesses++
		h.DRAM.AccessRowHit(pa, false)
	}
	return lat
}

// translate performs a TLB lookup on the given side and returns the added
// latency. L1 TLB lookups are free (folded into the cache pipeline); L2
// TLB hits charge the L2 TLB latency; misses charge a walk.
func (h *Hierarchy) translate(addr uint64, l1 *TLB, l2 *TLB, walks *uint64) Latency {
	if l1.Lookup(addr) {
		return 0
	}
	lat := Latency(l2.LatencyCycles())
	if l2.Lookup(addr) {
		l1.Refill(addr)
		return lat
	}
	// Full page-table walk.
	*walks++
	lat += h.walkLat
	vpn := addr >> PageShift
	for i := 0; i < h.walkAccesses; i++ {
		pta := h.ptBase + vpn*8 + uint64(i)*(1<<20)
		lat += h.l2Fill(pta, false)
	}
	l2.Refill(addr)
	l1.Refill(addr)
	return lat
}

// Fetch charges one instruction-side access for the line containing pc
// and returns its latency (L1I hit latency included).
func (h *Hierarchy) Fetch(pc uint64) Latency {
	// Sequential fetch repeats the previous page and usually the previous
	// line; both memo checks inline, so the common case does no calls
	// beyond this one.
	lat := h.l1iLat
	if !h.ITLB.lookupLast(pc >> PageShift) {
		lat += h.translate(pc, h.ITLB, h.L2TLBI, &h.Stats.ITLBWalks)
	}
	if h.L1I.hitLast(pc, false) {
		return lat
	}
	if h.L1I.hitFast(pc, false) {
		return lat
	}
	res := h.L1I.missDemand(pc, false)
	lat += h.l2Fill(pc, false)
	for _, pa := range res.PrefetchAddrs {
		// L1I lines are never dirty, so the victim writeback is ignored.
		h.L1I.prefetchAbsent(pa)
		h.l2Fill(pa, false)
	}
	return lat
}

// FetchAccess is Fetch evaluated at the current clock, in cycles.
func (h *Hierarchy) FetchAccess(pc uint64) int { return h.Fetch(pc).Cycles(h.clock) }

// Load charges one data load and returns its latency. Loads do not
// disturb the streaming-store detector: a merging write buffer coalesces
// store runs regardless of interleaved reads.
func (h *Hierarchy) Load(addr uint64, unaligned bool) Latency {
	lat := h.l1dLat
	if !h.DTLB.lookupLast(addr >> PageShift) {
		lat += h.translate(addr, h.DTLB, h.L2TLBD, &h.Stats.DTLBWalks)
	}
	if !h.L1D.hitLast(addr, false) && !h.L1D.hitFast(addr, false) {
		res := h.L1D.missDemand(addr, false)
		if res.Writeback {
			h.l2WriteBack(res.WritebackAddr)
		}
		lat += h.l2Fill(addr, false)
		for _, pa := range res.PrefetchAddrs {
			wbAddr, wb := h.L1D.prefetchAbsent(pa)
			if wb {
				h.l2WriteBack(wbAddr)
			}
			h.l2Fill(pa, false)
		}
	}
	if unaligned {
		h.Stats.UnalignedAccess++
		// Second access for the straddling part.
		res2 := h.L1D.Access(addr+h.l1dLine, false)
		lat += h.l1dLat
		if res2.Writeback {
			h.l2WriteBack(res2.WritebackAddr)
		}
		if !res2.Hit {
			lat += h.l2Fill(addr+h.l1dLine, false)
		}
	}
	return lat
}

// LoadAccess is Load evaluated at the current clock, in cycles.
func (h *Hierarchy) LoadAccess(addr uint64, unaligned bool) int {
	return h.Load(addr, unaligned).Cycles(h.clock)
}

func (h *Hierarchy) l2WriteBack(addr uint64) {
	res := h.L2.Access(addr, true)
	if res.Writeback {
		h.Stats.BusAccesses++
		h.DRAM.AccessRowHit(res.WritebackAddr, true)
	}
	if !res.Hit {
		// Write-allocate in L2 for the victim line; DRAM fill off the
		// critical path, but the traffic is real.
		h.Stats.BusAccesses++
		h.DRAM.AccessRowHit(addr, true)
	}
}

// wcbEntry is one write-combining-buffer stream tracker.
type wcbEntry struct {
	end      uint64 // address the stream's next sequential store would hit
	runBytes int    // contiguous bytes written so far
	lastUse  uint64
}

// noteStore updates the write-combining buffer and reports whether addr
// belongs to an established store stream (a run at least StreamDetectRun
// stores long).
func (h *Hierarchy) noteStore(addr uint64, size int) bool {
	h.wcbTick++
	need := h.cfg.StreamDetectRun * size
	for i := range h.wcb {
		e := &h.wcb[i]
		if e.end == addr && e.runBytes > 0 {
			e.end += uint64(size)
			e.runBytes += size
			e.lastUse = h.wcbTick
			return e.runBytes >= need
		}
	}
	// New stream: replace the LRU entry.
	victim := 0
	for i := 1; i < len(h.wcb); i++ {
		if h.wcb[i].lastUse < h.wcb[victim].lastUse {
			victim = i
		}
	}
	h.wcb[victim] = wcbEntry{end: addr + uint64(size), runBytes: size, lastUse: h.wcbTick}
	return false
}

// Store charges one data store and returns its visible latency (usually
// small: stores retire through the store buffer).
func (h *Hierarchy) Store(addr uint64, size int, unaligned bool) Latency {
	lat := Latency(0)
	if !h.DTLB.lookupLast(addr >> PageShift) {
		lat = h.translate(addr, h.DTLB, h.L2TLBD, &h.Stats.DTLBWalks)
	}

	inStream := h.noteStore(addr, size)
	streaming := h.cfg.StreamingStoreMerge && inStream &&
		!h.L1D.Contains(addr)
	if streaming {
		// Merging write buffer: the store bypasses L1D allocation and is
		// merged into a line write sent to L2 once per line.
		h.Stats.MergedStores++
		res := h.L1D.AccessWriteNoAlloc(addr)
		lat += h.l1dLat
		if res.Writeback {
			h.l2WriteBack(res.WritebackAddr)
		}
		lineOff := addr & (h.l1dLine - 1)
		if lineOff < uint64(size) {
			// First store touching this line: emit the merged line write.
			h.l2WriteBack(addr)
		}
		return lat
	}

	lat += h.l1dLat
	if !h.L1D.hitLast(addr, true) && !h.L1D.hitFast(addr, true) {
		res := h.L1D.missDemand(addr, true)
		if res.Writeback {
			h.l2WriteBack(res.WritebackAddr)
		}
		if h.l1dWriteAlloc {
			// Write-allocate: fetch the line from L2 before merging the store.
			lat += h.l2Fill(addr, false)
		} else {
			// Write-no-allocate: the store goes straight to L2.
			h.l2WriteBack(addr)
		}
	}
	if unaligned {
		h.Stats.UnalignedAccess++
		res2 := h.L1D.Access(addr+h.l1dLine, true)
		if res2.Writeback {
			h.l2WriteBack(res2.WritebackAddr)
		}
		if !res2.Hit && h.l1dWriteAlloc {
			h.l2Fill(addr+h.l1dLine, false)
		}
	}
	return lat
}

// StoreAccess is Store evaluated at the current clock, in cycles.
func (h *Hierarchy) StoreAccess(addr uint64, size int, unaligned bool) int {
	return h.Store(addr, size, unaligned).Cycles(h.clock)
}

// LoadExclusive performs a load-exclusive: a normal load that also arms the
// local exclusive monitor.
func (h *Hierarchy) LoadExclusive(addr uint64) Latency {
	h.Stats.ExclusiveLoads++
	h.monitorValid = true
	h.monitorAddr = addr &^ (h.l1dLine - 1)
	return h.Load(addr, false)
}

// StoreExclusive performs a store-exclusive. It succeeds if the monitor is
// still armed for addr's line; contention (snoops) clears the monitor.
// It returns the latency and whether the store succeeded.
func (h *Hierarchy) StoreExclusive(addr uint64) (Latency, bool) {
	h.Stats.ExclusiveStores++
	line := addr &^ (h.l1dLine - 1)
	ok := h.monitorValid && h.monitorAddr == line
	h.monitorValid = false
	if !ok {
		h.Stats.ExclusiveFails++
		return h.l1dLat, false
	}
	h.Stats.ExclusivePasses++
	return h.Store(addr, 4, false), true
}

// Barrier records a memory barrier. The timing cost is charged by the
// pipeline model (drain); the hierarchy only counts the event.
func (h *Hierarchy) Barrier() { h.Stats.Barriers++ }

// WrongPathProbe models the instruction-side translation attempt of a
// squashed wrong-path fetch: the L1 ITLB is probed, and on a miss the
// request reaches the second-level TLB / walker cache (counting an access
// and a hit or miss there) before the squash cancels it — nothing is
// refilled. This is the paper's Cluster A mechanism: branch mispredictions
// drive L2 ITLB traffic.
func (h *Hierarchy) WrongPathProbe(pc uint64) {
	if !h.ITLB.Probe(pc) {
		h.L2TLBI.Lookup(pc)
	}
}

// InjectSnoop models a coherence request from another core for addr's
// line: the line is invalidated if resident and the exclusive monitor for
// that line is cleared. Returns true if the snoop hit.
func (h *Hierarchy) InjectSnoop(addr uint64) bool {
	h.Stats.Snoops++
	line := addr &^ (h.l1dLine - 1)
	if h.monitorValid && h.monitorAddr == line {
		h.monitorValid = false
	}
	dirty, present := h.L1D.Invalidate(addr)
	if dirty {
		h.l2WriteBack(addr)
	}
	if present {
		h.Stats.SnoopHits++
	}
	return present
}
