// Package isa defines the synthetic instruction-set architecture used by
// every CPU model in this repository.
//
// The reproduction does not execute real ARMv7 binaries; workloads are
// deterministic synthetic instruction streams (see internal/workload) whose
// micro-architectural behaviour — instruction mix, control flow, memory
// locality, synchronisation — spans the same space as the benchmark suites
// used in the paper. The ISA therefore only captures what the timing models
// and performance counters observe: operation class, register dependencies,
// memory addresses and control-flow targets.
package isa

import "fmt"

// Op enumerates instruction classes. The classes mirror the granularity at
// which the ARMv7 PMU and gem5 statistics distinguish operations.
type Op uint8

const (
	// OpNop performs no work but occupies a pipeline slot.
	OpNop Op = iota
	// OpIntALU is a single-cycle integer operation (add, sub, logic, shift).
	OpIntALU
	// OpIntMul is an integer multiply.
	OpIntMul
	// OpIntDiv is an integer divide (long latency, typically unpipelined).
	OpIntDiv
	// OpFPAdd is a floating-point add/sub/compare.
	OpFPAdd
	// OpFPMul is a floating-point multiply.
	OpFPMul
	// OpFPDiv is a floating-point divide/sqrt.
	OpFPDiv
	// OpSIMD is a NEON-class packed integer/FP operation.
	OpSIMD
	// OpLoad reads memory.
	OpLoad
	// OpStore writes memory.
	OpStore
	// OpLoadEx is a load-exclusive (LDREX), used by synchronisation code.
	OpLoadEx
	// OpStoreEx is a store-exclusive (STREX); it may fail and be retried.
	OpStoreEx
	// OpBarrier is a data memory/synchronisation barrier (DMB/DSB/ISB).
	OpBarrier
	// OpBranch is a direct conditional or unconditional branch.
	OpBranch
	// OpCall is a direct function call (BL); pushes the return address.
	OpCall
	// OpReturn is a function return (BX LR / POP PC); predicted by the RAS.
	OpReturn
	// OpBranchInd is an indirect branch (computed jump, e.g. a switch table).
	OpBranchInd

	numOps
)

// NumOps is the number of distinct instruction classes.
const NumOps = int(numOps)

var opNames = [NumOps]string{
	"nop", "int_alu", "int_mul", "int_div",
	"fp_add", "fp_mul", "fp_div", "simd",
	"load", "store", "ldrex", "strex", "barrier",
	"branch", "call", "return", "branch_ind",
}

// String returns the lower-case mnemonic for the instruction class.
func (o Op) String() string {
	if int(o) < NumOps {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsMem reports whether the class accesses data memory.
func (o Op) IsMem() bool {
	switch o {
	case OpLoad, OpStore, OpLoadEx, OpStoreEx:
		return true
	}
	return false
}

// IsStore reports whether the class writes data memory.
func (o Op) IsStore() bool { return o == OpStore || o == OpStoreEx }

// IsLoad reports whether the class reads data memory.
func (o Op) IsLoad() bool { return o == OpLoad || o == OpLoadEx }

// IsBranch reports whether the class redirects control flow.
func (o Op) IsBranch() bool {
	switch o {
	case OpBranch, OpCall, OpReturn, OpBranchInd:
		return true
	}
	return false
}

// IsFP reports whether the class executes in the floating-point pipeline.
func (o Op) IsFP() bool {
	switch o {
	case OpFPAdd, OpFPMul, OpFPDiv:
		return true
	}
	return false
}

// IsExclusive reports whether the class is a load/store-exclusive.
func (o Op) IsExclusive() bool { return o == OpLoadEx || o == OpStoreEx }

// NumRegs is the size of the architectural register file visible to the
// dependency model. ARMv7 has 16 integer registers; we model 32 so that FP
// and SIMD registers share the same scoreboard namespace.
const NumRegs = 32

// Inst is one dynamic instruction as observed by a timing model.
//
// Fields are chosen so that an Inst fully determines timing behaviour:
// the PC drives the instruction-side hierarchy (L1I, ITLB, predictors),
// Addr drives the data side, registers drive dependency stalls and the
// branch fields drive the predictor.
type Inst struct {
	// PC is the virtual address of the instruction (4-byte aligned).
	PC uint64
	// Addr is the virtual data address for memory operations; 0 otherwise.
	Addr uint64
	// Size is the access size in bytes for memory operations.
	Size uint8
	// Op is the instruction class.
	Op Op
	// Src1, Src2 are source register indices (< NumRegs).
	Src1, Src2 uint8
	// Dst is the destination register index (< NumRegs); for classes with
	// no destination the generator sets a scratch register.
	Dst uint8
	// Taken reports the actual direction of a branch.
	Taken bool
	// Unaligned marks memory accesses that cross an alignment boundary.
	// It sits with the other byte fields so that Inst packs into 32
	// bytes (TestInstSize pins it): a run streams hundreds of thousands
	// of them.
	Unaligned bool
	// Target is the actual target of a taken branch.
	Target uint64
}

// Stream supplies dynamic instructions to a timing model.
//
// Next returns the next instruction and true, or a zero Inst and false when
// the stream is exhausted. Implementations must be deterministic: two
// streams constructed with identical parameters must produce identical
// sequences.
type Stream interface {
	Next() (Inst, bool)
}

// BlockStream is the batched fast path of Stream: NextBlock fills the
// caller-owned buffer with the next instructions of the stream and returns
// how many were delivered (0 at end of stream, never 0 before it).
//
// The contract is strict sequence equivalence: interleaving Next and
// NextBlock calls in any order must drain the exact instruction sequence
// the scalar Next path would produce. The timing models take a
// BlockStream and read it a block at a time; TestBlockStreamEquivalence
// pins the equivalence for every suite workload.
type BlockStream interface {
	Stream
	NextBlock(buf []Inst) int
}

// ViewStream is the zero-copy extension of BlockStream for streams whose
// remaining instructions are already materialised contiguously (replayed
// expansions, test slices): NextView returns a read-only view of up to max
// next instructions (the whole remainder when max <= 0) and advances the
// stream past them. An empty view means end of stream. The same strict
// sequence-equivalence contract as BlockStream applies; callers must not
// retain or mutate the view past the next stream call.
type ViewStream interface {
	BlockStream
	NextView(max int) []Inst
}

// SliceStream adapts a pre-generated instruction slice to the Stream
// interface. It is used heavily in tests and microbenchmarks.
type SliceStream struct {
	insts []Inst
	pos   int
}

// NewSliceStream returns a Stream that replays insts once.
func NewSliceStream(insts []Inst) *SliceStream {
	return &SliceStream{insts: insts}
}

// Next implements Stream.
func (s *SliceStream) Next() (Inst, bool) {
	if s.pos >= len(s.insts) {
		return Inst{}, false
	}
	i := s.insts[s.pos]
	s.pos++
	return i, true
}

// NextBlock implements BlockStream: one bulk copy per block instead of an
// interface call per instruction.
func (s *SliceStream) NextBlock(buf []Inst) int {
	n := copy(buf, s.insts[s.pos:])
	s.pos += n
	return n
}

// NextView implements ViewStream: the remaining instructions are already
// contiguous, so the view is the backing slice itself — no copy at all.
func (s *SliceStream) NextView(max int) []Inst {
	rem := s.insts[s.pos:]
	if max > 0 && len(rem) > max {
		rem = rem[:max]
	}
	s.pos += len(rem)
	return rem
}

// Reset rewinds the stream to the beginning.
func (s *SliceStream) Reset() { s.pos = 0 }

// Len returns the total number of instructions in the stream.
func (s *SliceStream) Len() int { return len(s.insts) }

// Collect drains up to max instructions from a stream into a slice.
// A max of 0 means no limit.
func Collect(s Stream, max int) []Inst {
	var out []Inst
	for {
		if max > 0 && len(out) >= max {
			return out
		}
		in, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, in)
	}
}
