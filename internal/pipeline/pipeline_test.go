package pipeline

import (
	"testing"

	"gemstone/internal/branch"
	"gemstone/internal/isa"
	"gemstone/internal/mem"
	"gemstone/internal/xrand"
)

func testLatencies() Latencies {
	var l Latencies
	l[isa.OpNop] = 1
	l[isa.OpIntALU] = 1
	l[isa.OpIntMul] = 3
	l[isa.OpIntDiv] = 12
	l[isa.OpFPAdd] = 4
	l[isa.OpFPMul] = 4
	l[isa.OpFPDiv] = 15
	l[isa.OpSIMD] = 3
	l[isa.OpLoad] = 1
	l[isa.OpStore] = 1
	l[isa.OpLoadEx] = 2
	l[isa.OpStoreEx] = 2
	l[isa.OpBarrier] = 1
	l[isa.OpBranch] = 1
	l[isa.OpCall] = 1
	l[isa.OpReturn] = 1
	l[isa.OpBranchInd] = 1
	return l
}

func inOrderConfig() Config {
	return Config{
		Name: "a7", Kind: InOrder, FetchWidth: 2, IssueWidth: 2,
		FrontendDepth: 5, MispredictPenalty: 3, Lat: testLatencies(),
		BarrierDrainCycles: 8, StrexRetryCycles: 6,
	}
}

func oooConfig() Config {
	return Config{
		Name: "a15", Kind: OutOfOrder, FetchWidth: 4, IssueWidth: 3,
		ROBSize: 64, RetireWidth: 3, FrontendDepth: 9, MispredictPenalty: 6,
		Lat: testLatencies(), BarrierDrainCycles: 12, StrexRetryCycles: 8,
	}
}

func testHier() *mem.Hierarchy {
	return mem.NewHierarchy(mem.HierarchyConfig{
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

		StreamingStoreMerge: true,
		StreamDetectRun:     4,
	})
}

func testPred() *branch.Predictor {
	return branch.New(branch.Config{
		Name: "bp", GlobalBits: 12, LocalBits: 12, ChoiceBits: 12,
		BTBEntries: 1024, RASEntries: 16, IndirectEntries: 256,
	})
}

func newCore(cfg Config) *Core { return NewCore(cfg, testHier(), testPred()) }

// aluChain builds n dependent single-cycle ALU ops (serial dependency).
func aluChain(n int) []isa.Inst {
	insts := make([]isa.Inst, n)
	for i := range insts {
		insts[i] = isa.Inst{PC: 0x1000 + uint64(i)*4, Op: isa.OpIntALU, Src1: 1, Src2: 1, Dst: 1}
	}
	return insts
}

// aluParallel builds n independent ALU ops across many registers.
func aluParallel(n int) []isa.Inst {
	insts := make([]isa.Inst, n)
	for i := range insts {
		r := uint8(2 + i%20)
		insts[i] = isa.Inst{PC: 0x1000 + uint64(i)*4, Op: isa.OpIntALU, Src1: r, Src2: r, Dst: r}
	}
	return insts
}

func TestConfigValidation(t *testing.T) {
	bad := oooConfig()
	bad.ROBSize = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("OoO config without ROB must be invalid")
	}
	bad2 := inOrderConfig()
	bad2.IssueWidth = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("zero issue width must be invalid")
	}
	bad3 := inOrderConfig()
	bad3.Lat[isa.OpLoad] = -1
	if err := bad3.Validate(); err == nil {
		t.Fatal("negative latency must be invalid")
	}
}

func TestIPCNeverExceedsIssueWidth(t *testing.T) {
	for _, cfg := range []Config{inOrderConfig(), oooConfig()} {
		core := newCore(cfg)
		tal := core.Run(isa.NewSliceStream(aluParallel(20000)))
		if ipc := tal.IPC(); ipc > float64(cfg.IssueWidth) {
			t.Fatalf("%s: IPC %.2f exceeds issue width %d", cfg.Name, ipc, cfg.IssueWidth)
		}
	}
}

func TestSerialChainBoundsIPCToOne(t *testing.T) {
	// A fully serial dependency chain cannot exceed IPC 1 on any model.
	for _, cfg := range []Config{inOrderConfig(), oooConfig()} {
		core := newCore(cfg)
		tal := core.Run(isa.NewSliceStream(aluChain(10000)))
		if ipc := tal.IPC(); ipc > 1.01 {
			t.Fatalf("%s: serial-chain IPC %.2f > 1", cfg.Name, ipc)
		}
	}
}

func TestOoOBeatsInOrderOnIndependentLoadMisses(t *testing.T) {
	// Independent loads with large strides (cache misses) — the OoO window
	// overlaps them, the in-order core serialises on use.
	mkStream := func() isa.BlockStream {
		var insts []isa.Inst
		for i := 0; i < 4000; i++ {
			addr := uint64(i) * 4096 // new page+line every time: always miss
			dst := uint8(2 + i%8)
			insts = append(insts,
				isa.Inst{PC: 0x1000 + uint64(i)*8, Op: isa.OpLoad, Addr: addr, Size: 4, Src1: 1, Src2: 1, Dst: dst},
				isa.Inst{PC: 0x1004 + uint64(i)*8, Op: isa.OpIntALU, Src1: dst, Src2: dst, Dst: dst},
			)
		}
		return isa.NewSliceStream(insts)
	}
	io := newCore(inOrderConfig())
	ooo := newCore(oooConfig())
	ioT := io.Run(mkStream())
	oooT := ooo.Run(mkStream())
	if oooT.Cycles*3/2 >= ioT.Cycles {
		t.Fatalf("OoO (%d cy) should be well below in-order (%d cy) on independent misses",
			oooT.Cycles, ioT.Cycles)
	}
}

func TestMispredictsCostCycles(t *testing.T) {
	// Random 50/50 branches vs always-taken branches: the former must be
	// slower on both models.
	mkStream := func(random bool) isa.BlockStream {
		rng := xrand.New(5)
		var insts []isa.Inst
		taken := true
		for i := 0; i < 5000; i++ {
			if random {
				taken = rng.Bool(0.5) // high-entropy: unlearnable
			}
			insts = append(insts,
				isa.Inst{PC: 0x1000, Op: isa.OpIntALU, Src1: 1, Src2: 1, Dst: 2},
				isa.Inst{PC: 0x1004, Op: isa.OpBranch, Taken: taken, Target: 0x1000, Src1: 2, Src2: 2, Dst: 31},
			)
		}
		return isa.NewSliceStream(insts)
	}
	for _, cfg := range []Config{inOrderConfig(), oooConfig()} {
		pred := newCore(cfg)
		regular := pred.Run(mkStream(false))
		noisy := newCore(cfg).Run(mkStream(true))
		if noisy.Cycles <= regular.Cycles {
			t.Fatalf("%s: random branches (%d cy) not slower than regular (%d cy)",
				cfg.Name, noisy.Cycles, regular.Cycles)
		}
		if noisy.BranchStallCycles == 0 {
			t.Fatalf("%s: expected branch stall cycles", cfg.Name)
		}
	}
}

func TestFetchPerInstructionInflatesL1IAccesses(t *testing.T) {
	run := func(perInst bool) uint64 {
		cfg := oooConfig()
		cfg.FetchPerInstruction = perInst
		core := newCore(cfg)
		core.Run(isa.NewSliceStream(aluParallel(8000)))
		return core.Hier.L1I.Stats.Accesses()
	}
	normal, perInst := run(false), run(true)
	ratio := float64(perInst) / float64(normal)
	if ratio < 1.8 {
		t.Fatalf("per-instruction fetch gives %.2fx L1I accesses, want ~%dx (fetch width)",
			ratio, oooConfig().FetchWidth)
	}
}

func TestBarrierDrains(t *testing.T) {
	withBarriers := make([]isa.Inst, 0, 2000)
	without := make([]isa.Inst, 0, 2000)
	for i := 0; i < 1000; i++ {
		in := isa.Inst{PC: 0x1000 + uint64(i)*8, Op: isa.OpIntALU, Src1: 1, Src2: 2, Dst: 3}
		withBarriers = append(withBarriers, in, isa.Inst{PC: in.PC + 4, Op: isa.OpBarrier})
		without = append(without, in, isa.Inst{PC: in.PC + 4, Op: isa.OpIntALU, Src1: 1, Src2: 2, Dst: 4})
	}
	for _, cfg := range []Config{inOrderConfig(), oooConfig()} {
		bt := newCore(cfg).Run(isa.NewSliceStream(withBarriers))
		nt := newCore(cfg).Run(isa.NewSliceStream(without))
		if bt.Cycles <= nt.Cycles {
			t.Fatalf("%s: barriers (%d cy) must cost more than ALU ops (%d cy)",
				cfg.Name, bt.Cycles, nt.Cycles)
		}
		if bt.BarrierStallCycles == 0 {
			t.Fatalf("%s: expected barrier stall cycles", cfg.Name)
		}
	}
}

func TestSyncModelInjectsContention(t *testing.T) {
	var insts []isa.Inst
	for i := 0; i < 2000; i++ {
		insts = append(insts,
			isa.Inst{PC: 0x1000, Op: isa.OpLoadEx, Addr: 0x8000, Size: 4, Dst: 2},
			isa.Inst{PC: 0x1004, Op: isa.OpStoreEx, Addr: 0x8000, Size: 4, Src1: 2},
			isa.Inst{PC: 0x1008, Op: isa.OpLoad, Addr: uint64(i%64) * 64, Size: 4, Dst: 3},
		)
	}
	core := newCore(oooConfig())
	core.Sync = NewSyncModel(123, 0.05, 40, 0.2)
	tal := core.Run(isa.NewSliceStream(insts))
	if core.Hier.Stats.Snoops == 0 {
		t.Fatal("sync model should inject snoops")
	}
	if tal.StrexRetries == 0 {
		t.Fatal("sync model should force some store-exclusive retries")
	}
	if core.Hier.Stats.ExclusiveFails == 0 {
		t.Fatal("expected failed exclusives under contention")
	}
}

func TestCommittedMatchesStreamLength(t *testing.T) {
	for _, cfg := range []Config{inOrderConfig(), oooConfig()} {
		tal := newCore(cfg).Run(isa.NewSliceStream(aluParallel(1234)))
		if tal.Committed != 1234 {
			t.Fatalf("%s: committed %d, want 1234", cfg.Name, tal.Committed)
		}
		var sum uint64
		for _, n := range tal.OpCounts {
			sum += n
		}
		if sum != tal.Committed {
			t.Fatalf("%s: op counts sum %d != committed %d", cfg.Name, sum, tal.Committed)
		}
	}
}

func TestPipelineDeterminism(t *testing.T) {
	mk := func() isa.BlockStream {
		var insts []isa.Inst
		for i := 0; i < 3000; i++ {
			insts = append(insts, isa.Inst{
				PC: 0x1000 + uint64(i%256)*4, Op: isa.OpLoad,
				Addr: uint64((i*7)%4096) * 64, Size: 4,
				Src1: uint8(i % 16), Src2: uint8((i + 3) % 16), Dst: uint8((i + 5) % 16),
			})
		}
		return isa.NewSliceStream(insts)
	}
	for _, cfg := range []Config{inOrderConfig(), oooConfig()} {
		a := newCore(cfg).Run(mk())
		b := newCore(cfg).Run(mk())
		if a != b {
			t.Fatalf("%s: non-deterministic tally", cfg.Name)
		}
	}
}

// TestRunSweepLanesMatchRun pins the two-phase kernel on both core models
// (the out-of-order test config has 3 issue ports, so the generic port
// scan is covered too): each lane of one RunSweep over a mixed stream —
// DRAM-missing loads and stores, branches, barriers and contended
// exclusives — equals a fresh Run at that lane's clock.
func TestRunSweepLanesMatchRun(t *testing.T) {
	insts := mixedStream()
	ghz := []float64{0.2, 1.0, 1.8}
	for _, cfg := range []Config{inOrderConfig(), oooConfig()} {
		sweep := newCore(cfg)
		sweep.Sync = NewSyncModel(9, 0.05, 40, 0.2)
		clocks := make([]mem.Clock, len(ghz))
		for i, g := range ghz {
			clocks[i] = sweep.Hier.ClockAt(g)
		}
		got := make([]Tally, len(ghz))
		sweep.RunSweep(isa.NewSliceStream(insts), clocks, got)
		for i, g := range ghz {
			one := newCore(cfg)
			one.Sync = NewSyncModel(9, 0.05, 40, 0.2)
			one.Hier.SetFrequencyGHz(g)
			if want := one.Run(isa.NewSliceStream(insts)); got[i] != want {
				t.Fatalf("%s lane at %.1f GHz:\ngot:  %+v\nwant: %+v", cfg.Name, g, got[i], want)
			}
		}
		if got[0].Cycles >= got[2].Cycles {
			t.Fatalf("%s: a DRAM-bound stream takes fewer cycles at 0.2 GHz (%d) than at 1.8 GHz (%d)", cfg.Name, got[0].Cycles, got[2].Cycles)
		}
	}
}

// TestReplayMatchesRunSweep pins the recorded log on both core models:
// replaying a Record's log at each clock equals that clock's lane of a
// RunSweep over the same stream, and still does after the recording core
// has run an unrelated RunSweep.
func TestReplayMatchesRunSweep(t *testing.T) {
	insts := mixedStream()
	ghz := []float64{1.8, 0.2, 1.0}
	for _, cfg := range []Config{inOrderConfig(), oooConfig()} {
		sweep := newCore(cfg)
		sweep.Sync = NewSyncModel(9, 0.05, 40, 0.2)
		clocks := make([]mem.Clock, len(ghz))
		for i, g := range ghz {
			clocks[i] = sweep.Hier.ClockAt(g)
		}
		want := make([]Tally, len(ghz))
		sweep.RunSweep(isa.NewSliceStream(insts), clocks, want)

		rec := newCore(cfg)
		rec.Sync = NewSyncModel(9, 0.05, 40, 0.2)
		var log Log
		if got := rec.Record(isa.NewSliceStream(insts), len(insts), clocks[0], &log); got != want[0] {
			t.Fatalf("%s: recorded run at %.1f GHz:\ngot:  %+v\nwant: %+v", cfg.Name, ghz[0], got, want[0])
		}
		for i := len(ghz) - 1; i >= 0; i-- {
			if got := rec.Replay(&log, clocks[i]); got != want[i] {
				t.Fatalf("%s: replay at %.1f GHz:\ngot:  %+v\nwant: %+v", cfg.Name, ghz[i], got, want[i])
			}
		}
		var other [1]Tally
		rec.RunSweep(isa.NewSliceStream(insts[:100]), clocks[:1], other[:])
		for i := range ghz {
			if got := rec.Replay(&log, clocks[i]); got != want[i] {
				t.Fatalf("%s: replay at %.1f GHz after an unrelated RunSweep:\ngot:  %+v\nwant: %+v", cfg.Name, ghz[i], got, want[i])
			}
		}
	}
}

// mixedStream is a stream of DRAM-missing loads and stores, branches,
// barriers and contended exclusives.
func mixedStream() []isa.Inst {
	rng := xrand.New(7)
	var insts []isa.Inst
	for i := 0; i < 6000; i++ {
		in := isa.Inst{PC: 0x1000 + uint64(i%512)*4, Src1: uint8(rng.Intn(16)), Src2: uint8(rng.Intn(16)), Dst: uint8(rng.Intn(16))}
		switch r := rng.Intn(20); {
		case r < 6:
			in.Op, in.Addr, in.Size = isa.OpLoad, uint64(rng.Intn(1<<24))&^3, 4
		case r < 9:
			in.Op, in.Addr, in.Size = isa.OpStore, uint64(rng.Intn(1<<24))&^3, 4
		case r < 12:
			in.Op, in.Target, in.Taken = isa.OpBranch, 0x1000+uint64(rng.Intn(512))*4, rng.Bool(0.5)
		case r == 12:
			in.Op = isa.OpBarrier
		case r == 13:
			in.Op, in.Addr, in.Size = isa.OpLoadEx, 0x8000, 4
		case r == 14:
			in.Op, in.Addr, in.Size = isa.OpStoreEx, 0x8000, 4
		default:
			in.Op = isa.OpIntMul
		}
		insts = append(insts, in)
	}
	return insts
}
