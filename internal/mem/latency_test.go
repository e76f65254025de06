package mem

import (
	"testing"

	"gemstone/internal/xrand"
)

// driveHier runs a deterministic mixed access sequence against h and
// returns the Latency of every pipeline-level access and every
// store-exclusive outcome. The sequence exercises every entry point the
// pipeline calls — fetches, loads, stores (aligned, unaligned and
// streaming runs), exclusive pairs, barriers, snoops and wrong-path
// probes — over a footprint large enough to miss in every cache level
// and walk the page table.
func driveHier(h *Hierarchy) (lats []Latency, strex []bool) {
	rng := xrand.New(0xD1F5)
	pc := uint64(0x10000)
	for i := 0; i < 20000; i++ {
		pc += 4
		if rng.Bool(0.1) {
			pc = 0x10000 + uint64(rng.Intn(1<<22))&^3 // far jump
		}
		lats = append(lats, h.Fetch(pc))
		switch {
		case rng.Bool(0.30):
			addr := uint64(rng.Intn(1 << 24))
			lats = append(lats, h.Load(addr, rng.Bool(0.05)))
		case rng.Bool(0.30):
			addr := uint64(rng.Intn(1 << 24))
			lats = append(lats, h.Store(addr, 4, rng.Bool(0.05)))
		case rng.Bool(0.05):
			// Streaming store run long enough to trigger merging.
			base := uint64(0x200_0000) + uint64(i)*4
			for j := uint64(0); j < 8; j++ {
				lats = append(lats, h.Store(base+j*4, 4, false))
			}
		case rng.Bool(0.05):
			addr := uint64(rng.Intn(1 << 20))
			lats = append(lats, h.LoadExclusive(addr))
			if rng.Bool(0.3) {
				h.InjectSnoop(addr) // clears the monitor: strex must fail
			}
			lat, ok := h.StoreExclusive(addr)
			lats, strex = append(lats, lat), append(strex, ok)
		case rng.Bool(0.02):
			h.Barrier()
		case rng.Bool(0.02):
			h.WrongPathProbe(pc + 0x123456)
		}
	}
	return lats, strex
}

// pmuState is every statistics block a pmu capture reads.
type pmuState struct {
	hier           HierarchyStats
	l1i, l1d, l2   CacheStats
	itlb, dtlb     TLBStats
	l2tlbi, l2tlbd TLBStats
	dram           DRAMStats
}

func hierPMUState(h *Hierarchy) pmuState {
	return pmuState{
		hier: h.Stats,
		l1i:  h.L1I.Stats, l1d: h.L1D.Stats, l2: h.L2.Stats,
		itlb: h.ITLB.Stats, dtlb: h.DTLB.Stats,
		l2tlbi: h.L2TLBI.Stats, l2tlbd: h.L2TLBD.Stats,
		dram: h.DRAM.Stats,
	}
}

// TestLatencyFrequencyInvariant pins the property every DVFS sweep rests
// on: the hierarchy's work does not depend on the core clock. Each
// Latency an access returns at one frequency, evaluated at another
// frequency's clock, equals the cycles a fresh hierarchy at that
// frequency charges for the same access, and the store-exclusive outcomes
// and end-of-run statistics are equal at both frequencies.
func TestLatencyFrequencyInvariant(t *testing.T) {
	const f1, f2 = 0.6, 1.9
	h1 := NewHierarchy(testHierConfig())
	h1.SetFrequencyGHz(f1)
	lats, strex1 := driveHier(h1)

	h2 := NewHierarchy(testHierConfig())
	h2.SetFrequencyGHz(f2)
	want, strex2 := driveHier(h2)

	if len(lats) != len(want) || len(strex1) != len(strex2) {
		t.Fatalf("%d accesses and %d store-exclusives at %.1f GHz, %d and %d at %.1f GHz",
			len(lats), len(strex1), f1, len(want), len(strex2), f2)
	}
	clk := h1.ClockAt(f2)
	for i := range want {
		if got, w := lats[i].Cycles(clk), want[i].Cycles(h2.Clock()); got != w {
			t.Fatalf("access %d: %d cycles at %.1f GHz from the %.1f GHz run, %d from a fresh one", i, got, f2, f1, w)
		}
	}
	for i := range strex2 {
		if strex1[i] != strex2[i] {
			t.Fatalf("store-exclusive %d: passed %v at %.1f GHz, %v at %.1f GHz", i, strex1[i], f1, strex2[i], f2)
		}
	}
	if s1, s2 := hierPMUState(h1), hierPMUState(h2); s1 != s2 {
		t.Errorf("statistics depend on the frequency:\n%.1f GHz: %+v\n%.1f GHz: %+v", f1, s1, f2, s2)
	}
}
