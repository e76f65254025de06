package mem

import (
	"testing"

	"gemstone/internal/xrand"
)

func testDRAMConfig() DRAMConfig {
	return DRAMConfig{Banks: 8, RowBytes: 2048, RowHitNs: 30, RowMissNs: 90, BandwidthBytesPerNs: 8}
}

func testHierConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:  CacheConfig{Name: "l1i", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 2, LatencyCycles: 1},
		L1D:  CacheConfig{Name: "l1d", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 4, LatencyCycles: 2, WriteAllocate: true},
		L2:   CacheConfig{Name: "l2", SizeBytes: 512 << 10, LineBytes: 64, Assoc: 8, LatencyCycles: 12, WriteAllocate: true},
		ITLB: TLBConfig{Name: "itb", Entries: 32, Assoc: 32},
		DTLB: TLBConfig{Name: "dtb", Entries: 32, Assoc: 32},

		UnifiedL2TLB:        true,
		L2TLB:               TLBConfig{Name: "l2tlb", Entries: 512, Assoc: 4, LatencyCycles: 2},
		DRAM:                testDRAMConfig(),
		WalkMemAccesses:     2,
		WalkLatencyCycles:   8,
		StreamingStoreMerge: true,
		StreamDetectRun:     4,
	}
}

func TestDRAMRowBuffer(t *testing.T) {
	d := NewDRAM(testDRAMConfig())
	if d.AccessRowHit(0, false) {
		t.Fatal("first access to a closed bank must miss the open row")
	}
	if !d.AccessRowHit(64, false) { // same row
		t.Fatal("second access to the same row must hit the open row")
	}
	if d.Stats.Reads != 2 || d.Stats.RowHits != 1 || d.Stats.RowMisses != 1 {
		t.Fatalf("stats = %+v", d.Stats)
	}
	if c := NewHierarchy(testHierConfig()).ClockAt(1.0); c.Miss <= c.Hit {
		t.Fatalf("row miss (%d cycles) must be slower than row hit (%d cycles)", c.Miss, c.Hit)
	}
}

func TestDRAMConfigValidate(t *testing.T) {
	bad := []DRAMConfig{
		{Banks: 3, RowBytes: 2048, RowHitNs: 10, RowMissNs: 20, BandwidthBytesPerNs: 1},
		{Banks: 8, RowBytes: 1000, RowHitNs: 10, RowMissNs: 20, BandwidthBytesPerNs: 1},
		{Banks: 8, RowBytes: 2048, RowHitNs: 20, RowMissNs: 10, BandwidthBytesPerNs: 1},
		{Banks: 8, RowBytes: 2048, RowHitNs: 10, RowMissNs: 20, BandwidthBytesPerNs: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestHierarchyFetchLatencyOrdering(t *testing.T) {
	h := NewHierarchy(testHierConfig())
	h.SetFrequencyGHz(1.0)
	cold := h.FetchAccess(0x8000)
	warm := h.FetchAccess(0x8000)
	if cold <= warm {
		t.Fatalf("cold fetch (%d cy) must cost more than warm fetch (%d cy)", cold, warm)
	}
	if warm != h.L1I.LatencyCycles() {
		t.Fatalf("warm fetch = %d cy, want L1I latency %d", warm, h.L1I.LatencyCycles())
	}
}

func TestHierarchyLoadMissChargesL2AndDRAM(t *testing.T) {
	h := NewHierarchy(testHierConfig())
	h.SetFrequencyGHz(1.0)
	lat := h.LoadAccess(0x4_0000, false)
	// Cold: L1D + L2 + DRAM + TLB walk memory accesses.
	min := h.L1D.LatencyCycles() + h.L2.LatencyCycles()
	if lat <= min {
		t.Fatalf("cold load latency %d must exceed L1+L2 %d (DRAM missing?)", lat, min)
	}
	if h.DRAM.Stats.Accesses() == 0 {
		t.Fatal("cold load must reach DRAM")
	}
	warm := h.LoadAccess(0x4_0000, false)
	if warm != h.L1D.LatencyCycles() {
		t.Fatalf("warm load = %d, want %d", warm, h.L1D.LatencyCycles())
	}
}

func TestHierarchyFrequencyScalesDRAMLatency(t *testing.T) {
	lat := func(ghz float64) int {
		h := NewHierarchy(testHierConfig())
		h.SetFrequencyGHz(ghz)
		return h.LoadAccess(0x9_0000, false)
	}
	slow, fast := lat(0.2), lat(1.8)
	if fast <= slow {
		t.Fatalf("DRAM cycles at 1.8 GHz (%d) must exceed cycles at 0.2 GHz (%d)", fast, slow)
	}
}

func TestHierarchyTLBWalkCharged(t *testing.T) {
	h := NewHierarchy(testHierConfig())
	before := h.Stats.DTLBWalks
	h.LoadAccess(0xAB0000, false)
	if h.Stats.DTLBWalks != before+1 {
		t.Fatalf("DTLBWalks = %d, want %d", h.Stats.DTLBWalks, before+1)
	}
	// Second access to the same page: no walk.
	h.LoadAccess(0xAB0040, false)
	if h.Stats.DTLBWalks != before+1 {
		t.Fatal("warm-page access must not walk")
	}
}

func TestHierarchyUnifiedVsSplitL2TLBSharing(t *testing.T) {
	cfg := testHierConfig()
	h := NewHierarchy(cfg)
	if h.L2TLBI != h.L2TLBD {
		t.Fatal("unified config must share one L2 TLB instance")
	}
	cfg.UnifiedL2TLB = false
	cfg.L2TLBI = TLBConfig{Name: "itb_walker", Entries: 64, Assoc: 8, LatencyCycles: 4}
	cfg.L2TLBD = TLBConfig{Name: "dtb_walker", Entries: 64, Assoc: 8, LatencyCycles: 4}
	h2 := NewHierarchy(cfg)
	if h2.L2TLBI == h2.L2TLBD {
		t.Fatal("split config must use two L2 TLB instances")
	}
}

// The paper's Fig. 6 mechanism: without a merging write buffer (gem5),
// streaming stores inflate L1D write refills and writebacks by ~10-20x.
func TestStreamingStoreMergeReducesWriteRefills(t *testing.T) {
	run := func(merge bool) (refills, writebacks uint64) {
		cfg := testHierConfig()
		cfg.StreamingStoreMerge = merge
		h := NewHierarchy(cfg)
		// Stream 64 KiB of sequential 4-byte stores (memset-like).
		for a := uint64(0); a < 64<<10; a += 4 {
			h.StoreAccess(0x50_0000+a, 4, false)
		}
		// Evict everything with reads to force dirty writebacks out.
		for a := uint64(0); a < 256<<10; a += 64 {
			h.LoadAccess(0x90_0000+a, false)
		}
		return h.L1D.Stats.WriteRefills, h.L1D.Stats.Writebacks
	}
	hwRef, hwWB := run(true)
	g5Ref, g5WB := run(false)
	if g5Ref < 5*max64(hwRef, 1) {
		t.Fatalf("no-merge write refills %d not >> merge refills %d", g5Ref, hwRef)
	}
	if g5WB < 5*max64(hwWB, 1) {
		t.Fatalf("no-merge writebacks %d not >> merge writebacks %d", g5WB, hwWB)
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func TestExclusiveMonitor(t *testing.T) {
	h := NewHierarchy(testHierConfig())
	h.LoadExclusive(0x1000)
	if _, ok := h.StoreExclusive(0x1000); !ok {
		t.Fatal("store-exclusive after load-exclusive must succeed")
	}
	// Monitor is consumed.
	if _, ok := h.StoreExclusive(0x1000); ok {
		t.Fatal("second store-exclusive must fail (monitor cleared)")
	}
	// A snoop to the monitored line clears the monitor.
	h.LoadExclusive(0x2000)
	h.InjectSnoop(0x2000)
	if _, ok := h.StoreExclusive(0x2000); ok {
		t.Fatal("store-exclusive after snoop must fail")
	}
	s := h.Stats
	if s.ExclusiveLoads != 2 || s.ExclusiveStores != 3 ||
		s.ExclusivePasses != 1 || s.ExclusiveFails != 2 {
		t.Fatalf("exclusive stats = %+v", s)
	}
}

func TestSnoopInvalidatesAndCounts(t *testing.T) {
	h := NewHierarchy(testHierConfig())
	h.LoadAccess(0x3000, false)
	if !h.InjectSnoop(0x3000) {
		t.Fatal("snoop to resident line must hit")
	}
	if h.L1D.Contains(0x3000) {
		t.Fatal("snooped line must be invalidated")
	}
	if h.InjectSnoop(0x7777000) {
		t.Fatal("snoop to absent line must miss")
	}
	if h.Stats.Snoops != 2 || h.Stats.SnoopHits != 1 {
		t.Fatalf("snoop stats = %+v", h.Stats)
	}
}

func TestUnalignedAccessCounted(t *testing.T) {
	h := NewHierarchy(testHierConfig())
	h.LoadAccess(0x100, true)
	h.StoreAccess(0x200, 4, true)
	if h.Stats.UnalignedAccess != 2 {
		t.Fatalf("UnalignedAccess = %d, want 2", h.Stats.UnalignedAccess)
	}
}

func TestHierarchyDeterminism(t *testing.T) {
	run := func() (HierarchyStats, CacheStats, TLBStats) {
		rng := xrand.New(99)
		h := NewHierarchy(testHierConfig())
		for i := 0; i < 5000; i++ {
			a := uint64(rng.Intn(1 << 22))
			switch rng.Intn(3) {
			case 0:
				h.LoadAccess(a, false)
			case 1:
				h.StoreAccess(a, 4, false)
			default:
				h.FetchAccess(a)
			}
		}
		return h.Stats, h.L2.Stats, h.DTLB.Stats
	}
	h1, c1, t1 := run()
	h2, c2, t2 := run()
	if h1 != h2 || c1 != c2 || t1 != t2 {
		t.Fatal("hierarchy simulation is not deterministic")
	}
}

// TestL1INeverDirty pins the invariant that lets Fetch and Load share
// l1Fill: no access path ever dirties an L1I line, so the instruction side
// never writes a victim back. Stores and snoops target the same addresses
// the fetches do, and L1I is small and prefetching so its fills evict.
func TestL1INeverDirty(t *testing.T) {
	cfg := testHierConfig()
	cfg.L1I.SizeBytes = 4 << 10
	cfg.L1I.NextLinePrefetch = true
	cfg.L1I.PrefetchDegree = 2
	h := NewHierarchy(cfg)
	rng := xrand.New(7)
	for i := 0; i < 20000; i++ {
		a := uint64(rng.Intn(1 << 18))
		switch rng.Intn(8) {
		case 0, 1:
			h.Fetch(a)
		case 2:
			h.WrongPathProbe(a)
		case 3:
			h.Load(a, rng.Bool(0.2))
		case 4:
			h.Store(a, 4, rng.Bool(0.2))
		case 5:
			// A streaming run: sequential stores over a few lines.
			for j := uint64(0); j < 64; j++ {
				h.Store(a&^63+4*j, 4, false)
			}
		case 6:
			h.LoadExclusive(a)
			h.StoreExclusive(a)
		default:
			h.InjectSnoop(a)
		}
	}
	if h.L1I.Stats.ReadRefills <= uint64(len(h.L1I.tags)) || h.L1I.Stats.Prefetches == 0 {
		t.Fatalf("L1I stats = %+v: the mix must evict and prefetch", h.L1I.Stats)
	}
	if h.L1D.Stats.Writebacks == 0 || h.Stats.MergedStores == 0 {
		t.Fatal("the mix must write dirty L1D lines back and merge streaming stores")
	}
	if wb := h.L1I.Stats.Writebacks; wb != 0 {
		t.Fatalf("L1I wrote back %d lines, want 0", wb)
	}
	for i, m := range h.L1I.meta {
		if h.L1I.tags[i] != 0 && m&metaDirty != 0 {
			t.Fatalf("L1I line %#x is dirty", h.L1I.tags[i]&^1)
		}
	}
}
