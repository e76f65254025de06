package pipeline

import (
	"testing"

	"gemstone/internal/isa"
)

// These tests pin down the out-of-order model's resource bounds: the
// reorder-buffer window, the retire width and the unpipelined divider.

// missLoads builds n independent loads that always miss to DRAM.
func missLoads(n int) []isa.Inst {
	insts := make([]isa.Inst, n)
	for i := range insts {
		insts[i] = isa.Inst{
			PC: 0x1000 + uint64(i)*4, Op: isa.OpLoad,
			Addr: 0x10_0000 + uint64(i)*8192, Size: 4,
			Src1: 1, Src2: 1, Dst: uint8(2 + i%8),
		}
	}
	return insts
}

func TestROBSizeBoundsMemoryParallelism(t *testing.T) {
	// With a larger window, more independent misses overlap, so the run
	// finishes in fewer cycles.
	run := func(rob int) uint64 {
		cfg := oooConfig()
		cfg.ROBSize = rob
		core := newCore(cfg)
		return core.Run(isa.NewSliceStream(missLoads(3000))).Cycles
	}
	small, large := run(8), run(192)
	if large*3/2 >= small {
		t.Fatalf("ROB 192 (%d cy) should be well under ROB 8 (%d cy)", large, small)
	}
}

// residentALU builds independent ALU ops within an L1I-resident loop (PCs
// wrap) so the frontend streams at full bandwidth after warm-up.
func residentALU(n int) []isa.Inst {
	insts := make([]isa.Inst, n)
	for i := range insts {
		r := uint8(2 + i%20)
		insts[i] = isa.Inst{PC: 0x1000 + uint64(i%512)*4, Op: isa.OpIntALU, Src1: r, Src2: r, Dst: r}
	}
	return insts
}

func TestRetireWidthBoundsThroughput(t *testing.T) {
	run := func(rw int) float64 {
		cfg := oooConfig()
		cfg.RetireWidth = rw
		cfg.IssueWidth = 4
		cfg.FetchWidth = 4
		core := newCore(cfg)
		tal := core.Run(isa.NewSliceStream(residentALU(20000)))
		return tal.IPC()
	}
	one := run(1)
	if one > 1.01 {
		t.Fatalf("retire width 1 caps IPC at 1, got %.2f", one)
	}
	three := run(3)
	if three <= 1.5 {
		t.Fatalf("retire width 3 should lift IPC well above 1, got %.2f", three)
	}
}

func TestUnpipelinedDivideOccupiesPort(t *testing.T) {
	// Back-to-back independent divides serialise on the unpipelined
	// divider; independent adds of the same latency would not.
	mk := func(op isa.Op) isa.BlockStream {
		insts := make([]isa.Inst, 2000)
		for i := range insts {
			r := uint8(2 + i%16)
			insts[i] = isa.Inst{PC: 0x1000 + uint64(i%512)*4, Op: op, Src1: r, Src2: r, Dst: r}
		}
		return isa.NewSliceStream(insts)
	}
	cfg := oooConfig()
	cfg.IssueWidth = 1 // one port: occupancy matters
	cfg.Lat[isa.OpIntDiv] = 12
	cfg.Lat[isa.OpIntMul] = 12 // same latency, but pipelined
	div := newCore(cfg).Run(mk(isa.OpIntDiv)).Cycles
	mul := newCore(cfg).Run(mk(isa.OpIntMul)).Cycles
	if div < mul*4 {
		t.Fatalf("unpipelined divides (%d cy) should be several times pipelined ops (%d cy)", div, mul)
	}
}

func TestFrontendRedirectGatesFetchAfterMispredict(t *testing.T) {
	// A stream of always-mispredicted branches is bound by redirects:
	// doubling MispredictPenalty must increase cycles accordingly.
	mk := func() isa.BlockStream {
		insts := make([]isa.Inst, 0, 6000)
		for i := 0; i < 3000; i++ {
			taken := i%2 == 0 // alternating, gshare-hostile with PC reuse
			insts = append(insts,
				isa.Inst{PC: 0x1000, Op: isa.OpIntALU, Src1: 1, Src2: 1, Dst: 2},
				isa.Inst{PC: 0x1004, Op: isa.OpBranch, Taken: taken, Target: 0x1000, Src1: 2, Src2: 2, Dst: 31},
			)
		}
		return isa.NewSliceStream(insts)
	}
	run := func(pen int) uint64 {
		cfg := oooConfig()
		cfg.MispredictPenalty = pen
		return newCore(cfg).Run(mk()).Cycles
	}
	lo, hi := run(4), run(24)
	if hi <= lo {
		t.Fatalf("larger mispredict penalty must cost cycles: %d vs %d", lo, hi)
	}
}

func TestOoOTallyStallAttribution(t *testing.T) {
	core := newCore(oooConfig())
	tal := core.Run(isa.NewSliceStream(missLoads(2000)))
	if tal.MemStallCycles == 0 {
		t.Fatal("DRAM-bound run must attribute memory stall cycles")
	}
	if tal.Committed != 2000 {
		t.Fatalf("committed = %d", tal.Committed)
	}
}
