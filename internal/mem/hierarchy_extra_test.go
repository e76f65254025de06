package mem

import (
	"testing"
)

func TestDRAMBandwidthTermScalesWithLineSize(t *testing.T) {
	// Every DRAM access is one L2-line transfer, so the line size sets the
	// serialisation term of both DRAM latencies.
	clockWithL2Line := func(lineBytes int) Clock {
		cfg := testHierConfig()
		cfg.L2.LineBytes = lineBytes
		return NewHierarchy(cfg).ClockAt(1.0)
	}
	small, large := clockWithL2Line(64), clockWithL2Line(256)
	if large.Hit <= small.Hit || large.Miss <= small.Miss {
		t.Fatalf("larger transfers must take longer: %+v vs %+v cycles", large, small)
	}
	// At 1 GHz a nanosecond is a cycle and the test latencies are whole
	// cycles, so the difference is exactly the serialisation term.
	want := int((256.0 - 64.0) / testDRAMConfig().BandwidthBytesPerNs)
	if large.Hit-small.Hit != want || large.Miss-small.Miss != want {
		t.Fatalf("bandwidth term = %d/%d cycles (hit/miss), want %d",
			large.Hit-small.Hit, large.Miss-small.Miss, want)
	}
}

func TestPageWalkGeneratesMemoryTraffic(t *testing.T) {
	cfg := testHierConfig()
	h := NewHierarchy(cfg)
	l2Before := h.L2.Stats.Accesses()
	// Cold page: L1 and L2 TLB miss, full walk.
	h.LoadAccess(0xDEAD000, false)
	walkAccesses := h.L2.Stats.Accesses() - l2Before
	// The walk issues WalkMemAccesses page-table reads (plus the data
	// line's own L2 fill).
	if walkAccesses < uint64(cfg.WalkMemAccesses)+1 {
		t.Fatalf("L2 saw %d accesses for a cold page, want >= %d",
			walkAccesses, cfg.WalkMemAccesses+1)
	}
	// Second access to the same page walks nothing.
	l2Mid := h.L2.Stats.Accesses()
	h.LoadAccess(0xDEAD040, false)
	if h.L2.Stats.Accesses() != l2Mid+1 { // just the data line fill
		t.Fatal("warm-page access must not walk")
	}
}

func TestWalkRefillsBothTLBLevels(t *testing.T) {
	h := NewHierarchy(testHierConfig())
	h.FetchAccess(0xABC000)
	if !h.ITLB.Contains(0xABC000) {
		t.Fatal("walk must refill the L1 ITLB")
	}
	if !h.L2TLBI.Contains(0xABC000) {
		t.Fatal("walk must refill the L2 TLB")
	}
}

func TestPrefetchGeneratesBusTraffic(t *testing.T) {
	cfg := testHierConfig()
	cfg.L1D.NextLinePrefetch = true
	cfg.L1D.PrefetchDegree = 2
	h := NewHierarchy(cfg)
	h.LoadAccess(0x40_0000, false)
	// Demand fill + 2 prefetch fills reach DRAM (all cold).
	if got := h.DRAM.Stats.Reads; got < 3 {
		t.Fatalf("DRAM reads = %d, want demand + prefetches", got)
	}
	if h.L1D.Stats.Prefetches != 2 {
		t.Fatalf("prefetches = %d", h.L1D.Stats.Prefetches)
	}
}

func TestWrongPathProbeCountsButDoesNotRefill(t *testing.T) {
	h := NewHierarchy(testHierConfig())
	addr := uint64(0xFEED000)
	before := h.L2TLBI.Stats.Accesses
	h.WrongPathProbe(addr)
	if h.ITLB.Stats.SpecProbes != 1 {
		t.Fatalf("spec probes = %d", h.ITLB.Stats.SpecProbes)
	}
	if h.L2TLBI.Stats.Accesses != before+1 {
		t.Fatal("L1-miss probe must reach the L2 TLB")
	}
	if h.ITLB.Contains(addr) || h.L2TLBI.Contains(addr) {
		t.Fatal("squashed translation must not refill")
	}
	if h.Stats.ITLBWalks != 0 {
		t.Fatal("squashed translation must not walk")
	}
	// A resident page's probe stops at the L1 ITLB.
	h.FetchAccess(0x1000)
	mid := h.L2TLBI.Stats.Accesses
	h.WrongPathProbe(0x1000)
	if h.L2TLBI.Stats.Accesses != mid {
		t.Fatal("resident-page probe must not reach the L2 TLB")
	}
}

func TestMergedStoreEmitsOneLineWritePerLine(t *testing.T) {
	cfg := testHierConfig()
	h := NewHierarchy(cfg)
	l2Before := h.L2.Stats.WriteAccesses
	// 32 sequential 4-byte stores = 2 full 64-byte lines.
	for i := uint64(0); i < 32; i++ {
		h.StoreAccess(0x70_0000+i*4, 4, false)
	}
	merged := h.Stats.MergedStores
	if merged == 0 {
		t.Fatal("sequential stores must merge")
	}
	lineWrites := h.L2.Stats.WriteAccesses - l2Before
	if lineWrites > 3 {
		t.Fatalf("merged stream emitted %d L2 line writes for 2 lines", lineWrites)
	}
}

func TestSnoopWritesBackDirtyVictim(t *testing.T) {
	h := NewHierarchy(testHierConfig())
	h.StoreAccess(0x3000, 4, false) // dirty line
	l2Before := h.L2.Stats.WriteAccesses
	h.InjectSnoop(0x3000)
	if h.L2.Stats.WriteAccesses == l2Before {
		t.Fatal("snooping a dirty line must push the data to L2")
	}
}
