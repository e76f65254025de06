package workload

import (
	"gemstone/internal/isa"
	"gemstone/internal/xrand"
)

// Generator produces the deterministic dynamic instruction stream of one
// workload. It implements isa.BlockStream.
type Generator struct {
	p   Profile
	rng *xrand.RNG

	emitted int
	buf     []isa.Inst
	bufPos  int

	// code layout
	codeBase   uint64
	blockBytes uint64
	spread     uint64

	// control state
	loopStart int // first body block of the current loop instance
	bodyPos   int // block index within the body
	iter      int // current inner-loop iteration
	loopCount int // completed loop instances (drives code-phase rotation)

	retStack []int // caller "next block" indices for nested calls
	indRot   int   // round-robin cursor for indirect targets

	// data state
	streamPtr  uint64 // read-stream cursor
	wstreamPtr uint64 // write-stream cursor (memcpy/memset destination)
	chasePtr   uint64
	stridePtr  uint64
	dataBase   uint64

	// registers
	recentDst [8]uint8
	dstCursor int
	rotReg    uint8

	opPicker  *xrand.Weighted
	patPicker *xrand.Weighted
}

// memory-layout constants: the regions are disjoint by construction.
const (
	codeBaseAddr    = 0x0001_0000
	dataBaseAddr    = 0x2000_0000
	streamBaseAddr  = 0x4000_0000
	wstreamBaseAddr = 0x5000_0000
	chaseBaseAddr   = 0x6000_0000
	strideBaseAddr  = 0x7000_0000
)

// NewGenerator builds the stream for profile p, panicking on an invalid
// profile (profiles are code, not user input).
func NewGenerator(p Profile) *Generator {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{
		p:        p,
		rng:      xrand.New(p.Seed()),
		codeBase: codeBaseAddr,
		dataBase: dataBaseAddr,
	}
	// Block size in bytes, rounded up to a multiple of 16.
	bb := uint64((p.BlockLen + 1) * 4)
	g.blockBytes = (bb + 15) &^ 15
	g.spread = g.blockBytes
	if s := uint64(p.CodeSpreadBytes); s > g.spread {
		g.spread = s
	}
	g.opPicker = xrand.NewWeighted([]float64{
		p.LoadFraction,   // 0 load
		p.StoreFraction,  // 1 store
		p.IntMulFraction, // 2
		p.IntDivFraction, // 3
		p.FPAddFraction,  // 4
		p.FPMulFraction,  // 5
		p.FPDivFraction,  // 6
		p.SIMDFraction,   // 7
		p.NopFraction,    // 8
		remainderALU(p),  // 9 int ALU
	})
	g.patPicker = xrand.NewWeighted(p.PatternWeights[:])
	g.rotReg = 2
	for i := range g.recentDst {
		g.recentDst[i] = 2
	}
	return g
}

func remainderALU(p Profile) float64 {
	r := 1 - (p.LoadFraction + p.StoreFraction + p.IntMulFraction + p.IntDivFraction +
		p.FPAddFraction + p.FPMulFraction + p.FPDivFraction + p.SIMDFraction + p.NopFraction)
	if r < 0 {
		return 0
	}
	return r
}

// NextBlock implements isa.BlockStream: it drains whole basic blocks into
// the caller's buffer with bulk copies. The stream ends with the block
// that reaches the profile's TotalInsts.
func (g *Generator) NextBlock(out []isa.Inst) int {
	n := 0
	for n < len(out) {
		if g.bufPos >= len(g.buf) {
			if g.emitted >= g.p.TotalInsts {
				break
			}
			g.fill()
		}
		c := copy(out[n:], g.buf[g.bufPos:])
		g.bufPos += c
		g.emitted += c
		n += c
	}
	return n
}

// blockPC returns the starting PC of static block idx.
func (g *Generator) blockPC(idx int) uint64 {
	return g.codeBase + uint64(idx)*g.spread
}

// nextDst rotates the destination register through r2..r25 and records it.
func (g *Generator) nextDst() uint8 {
	g.rotReg++
	if g.rotReg > 25 {
		g.rotReg = 2
	}
	g.dstCursor = (g.dstCursor + 1) % len(g.recentDst)
	g.recentDst[g.dstCursor] = g.rotReg
	return g.rotReg
}

// srcReg picks a source register at roughly DepDistance producers back.
func (g *Generator) srcReg() uint8 {
	d := 1 + g.rng.Intn(g.p.DepDistance)
	if d > len(g.recentDst) {
		d = len(g.recentDst)
	}
	idx := (g.dstCursor - d + len(g.recentDst)) % len(g.recentDst)
	return g.recentDst[idx]
}

// dataAddr draws the next data address for a load or store.
func (g *Generator) dataAddr(store bool) uint64 {
	if store && g.p.StoreStreamShare > 0 && g.rng.Bool(g.p.StoreStreamShare) {
		// Destination stream: stores walk their own contiguous region so
		// runs of sequential stores stay contiguous (what a merging write
		// buffer detects) even when interleaved with stream loads.
		return g.advanceWriteStream()
	}
	if store {
		// Non-streaming stores never land in the read stream; scattering
		// them keeps the write stream pure.
		scatter := g.p.StoreScatterBytes
		if scatter <= 0 {
			scatter = g.p.WorkingSetBytes
		}
		return g.dataBase + uint64(g.rng.Intn(scatter))&^3
	}
	switch Pattern(g.patPicker.Sample(g.rng)) {
	case PatternStream:
		return g.advanceStream()
	case PatternStride:
		stride := uint64(g.p.StrideBytes)
		if stride == 0 {
			stride = 64
		}
		limit := uint64(g.p.WorkingSetBytes)
		g.stridePtr = (g.stridePtr + stride) % limit
		return strideBaseAddr + g.stridePtr
	case PatternChase:
		// A deterministic full-period permutation walk (LCG over the line
		// index ring, Hull–Dobell conditions satisfied): every line of the
		// chase region is visited before any repeats, as a linked list
		// threaded through the whole region would be. The pipeline sees
		// the dependent-register chain through the dedicated chase reg.
		size := uint64(g.p.ChaseBytes)
		if size == 0 {
			size = uint64(g.p.WorkingSetBytes)
		}
		lines := size / 64
		if lines == 0 {
			lines = 1 // sub-line regions degenerate to a single-line chase
		}
		idx := g.chasePtr / 64
		idx = (idx*40509 + 12345) % lines
		g.chasePtr = idx * 64
		return chaseBaseAddr + g.chasePtr
	default:
		return g.dataBase + uint64(g.rng.Intn(g.p.WorkingSetBytes))&^3
	}
}

func (g *Generator) advanceStream() uint64 {
	size := uint64(g.p.StreamBytes)
	if size == 0 {
		size = uint64(g.p.WorkingSetBytes)
	}
	a := streamBaseAddr + g.streamPtr
	g.streamPtr = (g.streamPtr + 4) % size
	return a
}

func (g *Generator) advanceWriteStream() uint64 {
	size := uint64(g.p.StreamBytes)
	if size == 0 {
		size = uint64(g.p.WorkingSetBytes)
	}
	a := wstreamBaseAddr + g.wstreamPtr
	g.wstreamPtr = (g.wstreamPtr + 4) % size
	return a
}

// chaseReg is the dedicated register carrying the pointer-chase chain.
const chaseReg = 28

// emitBody appends the BlockLen body instructions of block idx.
func (g *Generator) emitBody(idx int) {
	pc := g.blockPC(idx)
	p := &g.p
	for i := 0; i < p.BlockLen; i++ {
		ipc := pc + uint64(i)*4
		// Synchronisation injection (parallel workloads).
		if p.ExclusivePer1K > 0 && g.rng.Bool(p.ExclusivePer1K/1000) {
			lockAddr := dataBaseAddr + uint64(g.rng.Intn(8))*64 + 0x0800_0000
			g.buf = append(g.buf,
				isa.Inst{PC: ipc, Op: isa.OpLoadEx, Addr: lockAddr, Size: 4, Src1: 1, Src2: 1, Dst: 26},
				isa.Inst{PC: ipc, Op: isa.OpStoreEx, Addr: lockAddr, Size: 4, Src1: 26, Src2: 26, Dst: 27},
			)
			continue
		}
		if p.BarrierPer1K > 0 && g.rng.Bool(p.BarrierPer1K/1000) {
			g.buf = append(g.buf, isa.Inst{PC: ipc, Op: isa.OpBarrier})
			continue
		}

		var in isa.Inst
		in.PC = ipc
		switch g.opPicker.Sample(g.rng) {
		case 0: // load
			in.Op = isa.OpLoad
			in.Addr = g.dataAddr(false)
			in.Size = 4
			in.Unaligned = g.rng.Bool(p.UnalignedFraction)
			if in.Addr >= chaseBaseAddr && in.Addr < strideBaseAddr {
				// Dependent pointer chase: reads and writes the chase reg.
				in.Src1, in.Src2, in.Dst = chaseReg, chaseReg, chaseReg
			} else {
				in.Src1, in.Src2, in.Dst = g.srcReg(), g.srcReg(), g.nextDst()
			}
		case 1: // store
			in.Op = isa.OpStore
			in.Addr = g.dataAddr(true)
			in.Size = 4
			in.Unaligned = g.rng.Bool(p.UnalignedFraction)
			in.Src1, in.Src2, in.Dst = g.srcReg(), g.srcReg(), 31
		case 2:
			in.Op = isa.OpIntMul
			in.Src1, in.Src2, in.Dst = g.srcReg(), g.srcReg(), g.nextDst()
		case 3:
			in.Op = isa.OpIntDiv
			in.Src1, in.Src2, in.Dst = g.srcReg(), g.srcReg(), g.nextDst()
		case 4:
			in.Op = isa.OpFPAdd
			in.Src1, in.Src2, in.Dst = g.srcReg(), g.srcReg(), g.nextDst()
		case 5:
			in.Op = isa.OpFPMul
			in.Src1, in.Src2, in.Dst = g.srcReg(), g.srcReg(), g.nextDst()
		case 6:
			in.Op = isa.OpFPDiv
			in.Src1, in.Src2, in.Dst = g.srcReg(), g.srcReg(), g.nextDst()
		case 7:
			in.Op = isa.OpSIMD
			in.Src1, in.Src2, in.Dst = g.srcReg(), g.srcReg(), g.nextDst()
		case 8:
			in.Op = isa.OpNop
			in.Dst = 31
		default:
			in.Op = isa.OpIntALU
			in.Src1, in.Src2, in.Dst = g.srcReg(), g.srcReg(), g.nextDst()
		}
		g.buf = append(g.buf, in)
	}
}

// bodyBlock returns the static block index of body position pos for the
// current loop instance: loop instances rotate through the code footprint
// so CodeBlocks controls the L1I/ITLB working set.
func (g *Generator) bodyBlock(pos int) int {
	return (g.loopStart + pos) % g.p.CodeBlocks
}

// MaxStreamLen bounds the length of p's instruction stream, so a caller
// can expand it into one allocation. The generator stops only between
// basic blocks, so the stream overruns TotalInsts by at most one block
// less one instruction. The largest block that fill emits is a call:
// BlockLen body slots of at most two instructions each (an LDREX/STREX
// pair), the terminator, the callee's body of the same size and the
// return — 4·BlockLen+2 instructions.
func (p Profile) MaxStreamLen() int { return p.TotalInsts + 4*p.BlockLen + 1 }

// fill emits one basic block (body + terminator) into the buffer.
func (g *Generator) fill() {
	g.buf = g.buf[:0]
	g.bufPos = 0
	p := &g.p

	// Handle a pending return first: the callee block was emitted by the
	// call terminator; nothing to do here (returns are emitted inline).

	idx := g.bodyBlock(g.bodyPos)
	g.emitBody(idx)
	termPC := g.blockPC(idx) + uint64(p.BlockLen)*4

	lastBody := g.bodyPos == p.BodyBlocks-1
	if lastBody {
		// Loop-control branch: taken back to the loop head until the trip
		// count is reached.
		taken := g.iter < p.LoopIters-1
		target := g.blockPC(g.bodyBlock(0))
		g.buf = append(g.buf, isa.Inst{
			PC: termPC, Op: isa.OpBranch, Taken: taken, Target: target,
			Src1: g.srcReg(), Src2: g.srcReg(), Dst: 31,
		})
		if taken {
			g.iter++
			g.bodyPos = 0
		} else {
			// Loop done: rotate the code phase.
			g.iter = 0
			g.bodyPos = 0
			g.loopCount++
			g.loopStart = (g.loopStart + p.BodyBlocks) % p.CodeBlocks
		}
		return
	}

	// Interior terminator. Kind and target assignment are STATIC per block
	// (derived from a per-block hash), as in real code: the branch at a
	// given PC always has the same type, the same callee, the same target
	// set. Only data-dependent outcomes vary per execution.
	kind, blockRand := g.blockKind(idx)
	nextIdx := g.bodyBlock(g.bodyPos + 1)
	nextPC := g.blockPC(nextIdx)
	switch kind {
	case termIndirect:
		// Switch dispatch: the target rotates over K fixed blocks.
		g.indRot = (g.indRot + 1 + g.rng.Intn(p.IndirectTargets)) % p.IndirectTargets
		tgt := g.blockPC((idx + 1 + g.indRot) % p.CodeBlocks)
		g.buf = append(g.buf, isa.Inst{
			PC: termPC, Op: isa.OpBranchInd, Taken: true, Target: tgt,
			Src1: g.srcReg(), Src2: g.srcReg(), Dst: 31,
		})
	case termCall:
		// Call the block's fixed callee in the upper half of the code
		// space, emit its body, then return past the call site.
		callee := p.CodeBlocks + int(blockRand)%max(1, p.CodeBlocks/2)
		calleePC := g.blockPC(callee)
		g.buf = append(g.buf, isa.Inst{
			PC: termPC, Op: isa.OpCall, Taken: true, Target: calleePC, Dst: 31,
		})
		g.retStack = append(g.retStack, g.bodyPos+1)
		g.emitBody(callee)
		retPC := calleePC + uint64(p.BlockLen)*4
		g.retStack = g.retStack[:len(g.retStack)-1]
		g.buf = append(g.buf, isa.Inst{
			PC: retPC, Op: isa.OpReturn, Taken: true, Target: termPC + 4, Dst: 31,
		})
	case termCond:
		taken := g.condOutcome(idx, blockRand)
		g.buf = append(g.buf, isa.Inst{
			PC: termPC, Op: isa.OpBranch, Taken: taken, Target: nextPC,
			Src1: g.srcReg(), Src2: g.srcReg(), Dst: 31,
		})
	default:
		// Unconditional jump to the next block.
		g.buf = append(g.buf, isa.Inst{
			PC: termPC, Op: isa.OpBranch, Taken: true, Target: nextPC, Dst: 31,
		})
	}
	g.bodyPos++
}

// Terminator kinds assigned statically per block.
const (
	termUncond = iota
	termCond
	termCall
	termIndirect
)

// blockKind returns the fixed terminator kind of static block idx plus a
// per-block random value used for static assignments (callee selection,
// branch pattern phase).
func (g *Generator) blockKind(idx int) (int, uint64) {
	h := xrand.Hash64(g.p.Seed() ^ uint64(idx)*0x9E3779B97F4A7C15)
	u := float64(h>>11) / (1 << 53)
	p := &g.p
	kind := termUncond
	switch {
	case u < p.IndirectFraction && p.IndirectTargets > 1:
		kind = termIndirect
	case u < p.IndirectFraction+p.CallFraction && len(g.retStack) < 6:
		kind = termCall
	case u < p.IndirectFraction+p.CallFraction+p.CondFraction:
		kind = termCond
	}
	return kind, xrand.Hash64(h)
}

// condOutcome decides a data-dependent branch: random (entropy) or a fixed
// learnable pattern whose phase is static per block.
func (g *Generator) condOutcome(blockIdx int, blockRand uint64) bool {
	if g.p.CondEntropy {
		return g.rng.Bool(g.p.CondBias)
	}
	if g.p.CondStatic {
		return float64(blockRand%1000) < g.p.CondBias*1000
	}
	// Learnable period-4 pattern with a per-block static phase offset.
	phase := (g.iter + int(blockRand%4)) % 4
	switch {
	case g.p.CondBias >= 0.75:
		return phase != 0
	case g.p.CondBias >= 0.5:
		return phase < 2
	default:
		return phase == 0
	}
}
