package pmu

import (
	"testing"

	"gemstone/internal/branch"
	"gemstone/internal/isa"
	"gemstone/internal/mem"
	"gemstone/internal/pipeline"
)

func sampleFromRun(t *testing.T) Sample {
	t.Helper()
	hier := mem.NewHierarchy(mem.HierarchyConfig{
		L1I:  mem.CacheConfig{Name: "l1i", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 2, LatencyCycles: 1},
		L1D:  mem.CacheConfig{Name: "l1d", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 4, LatencyCycles: 2, WriteAllocate: true},
		L2:   mem.CacheConfig{Name: "l2", SizeBytes: 512 << 10, LineBytes: 64, Assoc: 8, LatencyCycles: 12, WriteAllocate: true},
		ITLB: mem.TLBConfig{Name: "itb", Entries: 32, Assoc: 32},
		DTLB: mem.TLBConfig{Name: "dtb", Entries: 32, Assoc: 32},

		UnifiedL2TLB:      true,
		L2TLB:             mem.TLBConfig{Name: "l2tlb", Entries: 512, Assoc: 4, LatencyCycles: 2},
		DRAM:              mem.DRAMConfig{Banks: 8, RowBytes: 2048, RowHitNs: 30, RowMissNs: 90, BandwidthBytesPerNs: 8},
		WalkMemAccesses:   2,
		WalkLatencyCycles: 8,
	})
	pred := branch.New(branch.Config{
		Name: "bp", GlobalBits: 12, LocalBits: 12, ChoiceBits: 12,
		BTBEntries: 1024, RASEntries: 16, IndirectEntries: 256,
	})
	var lat pipeline.Latencies
	for i := range lat {
		lat[i] = 1
	}
	core := pipeline.NewCore(pipeline.Config{
		Name: "c", Kind: pipeline.InOrder, FetchWidth: 2, IssueWidth: 2,
		FrontendDepth: 4, MispredictPenalty: 4, Lat: lat,
		BarrierDrainCycles: 8, StrexRetryCycles: 4,
	}, hier, pred)

	var insts []isa.Inst
	for i := 0; i < 3000; i++ {
		pc := 0x1000 + uint64(i%512)*4
		switch i % 6 {
		case 0:
			insts = append(insts, isa.Inst{PC: pc, Op: isa.OpLoad, Addr: uint64(i%1024) * 64, Size: 4, Dst: 2})
		case 1:
			insts = append(insts, isa.Inst{PC: pc, Op: isa.OpStore, Addr: uint64(i%512) * 64, Size: 4, Src1: 2})
		case 2:
			insts = append(insts, isa.Inst{PC: pc, Op: isa.OpBranch, Taken: i%12 != 0, Target: pc - 64})
		case 3:
			insts = append(insts, isa.Inst{PC: pc, Op: isa.OpFPAdd, Src1: 3, Src2: 4, Dst: 5})
		case 4:
			insts = append(insts, isa.Inst{PC: pc, Op: isa.OpSIMD, Src1: 3, Src2: 4, Dst: 6})
		default:
			insts = append(insts, isa.Inst{PC: pc, Op: isa.OpIntALU, Src1: 1, Src2: 2, Dst: 7})
		}
	}
	tal := core.Run(isa.NewSliceStream(insts))
	return Capture(tal, hier, pred, 1.0)
}

func TestEventNames(t *testing.T) {
	if got := InstRetired.String(); got != "INST_RETIRED:0x08" {
		t.Fatalf("String() = %q", got)
	}
	if got := Event(0xFF).Name(); got != "EVENT_0xff" {
		t.Fatalf("unknown event name = %q", got)
	}
	if got := BrMisPred.Name(); got != "BR_MIS_PRED" {
		t.Fatalf("Name() = %q", got)
	}
}

func TestAllEventsSortedUnique(t *testing.T) {
	evs := AllEvents()
	if len(evs) < 40 {
		t.Fatalf("implemented events = %d, want >= 40", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i] <= evs[i-1] {
			t.Fatalf("events not strictly ascending at %d: %v <= %v", i, evs[i], evs[i-1])
		}
	}
}

func TestSampleInvariants(t *testing.T) {
	s := sampleFromRun(t)

	if s.Value(InstRetired) != float64(s.Tally.Committed) {
		t.Fatal("INST_RETIRED must equal committed instructions")
	}
	if s.Value(InstSpec) < s.Value(InstRetired) {
		t.Fatal("INST_SPEC must be >= INST_RETIRED")
	}
	if s.Value(CPUCycles) != float64(s.Tally.Cycles) {
		t.Fatal("CPU_CYCLES mismatch")
	}
	// L1D accesses >= refills; ld+st decomposition adds up.
	if s.Value(L1DCache) < s.Value(L1DCacheRefill) {
		t.Fatal("L1D accesses must be >= refills")
	}
	if s.Value(L1DCacheLd)+s.Value(L1DCacheSt) != s.Value(L1DCache) {
		t.Fatal("L1D ld+st must equal total accesses")
	}
	if s.Value(L2DCacheLd)+s.Value(L2DCacheSt) != s.Value(L2DCache) {
		t.Fatal("L2 ld+st must equal total accesses")
	}
	// Branch events: mispredicts <= predictions.
	if s.Value(BrMisPred) > s.Value(BrPred) {
		t.Fatal("mispredicts must not exceed predicted branches")
	}
	// PC writes = all control flow.
	want := float64(s.Tally.OpCounts[isa.OpBranch] + s.Tally.OpCounts[isa.OpCall] +
		s.Tally.OpCounts[isa.OpReturn] + s.Tally.OpCounts[isa.OpBranchInd])
	if s.Value(PCWriteRetired) != want {
		t.Fatalf("PC_WRITE_RETIRED = %v, want %v", s.Value(PCWriteRetired), want)
	}
	// Unknown events read zero.
	if s.Value(Event(0xEE)) != 0 {
		t.Fatal("unimplemented event must read 0")
	}
}

func TestRateNormalisation(t *testing.T) {
	s := sampleFromRun(t)
	secs := s.Seconds()
	if secs <= 0 {
		t.Fatal("non-positive execution time")
	}
	if got, want := s.Rate(InstRetired), s.Value(InstRetired)/secs; got != want {
		t.Fatalf("Rate = %v, want %v", got, want)
	}
}

func TestCountsCoversAllEvents(t *testing.T) {
	s := sampleFromRun(t)
	counts := s.Counts()
	if len(counts) != len(AllEvents()) {
		t.Fatalf("Counts() has %d entries, want %d", len(counts), len(AllEvents()))
	}
}
