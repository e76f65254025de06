package platform

import (
	"fmt"

	"gemstone/internal/isa"
)

// packedInst is one instruction of a SimContext's expanded stream, stored
// in 16 bytes instead of isa.Inst's 32. Generated code and data addresses
// fit in 32 bits, and an instruction carries either a data address (memory
// operations) or a branch target, never both, so one 32-bit argument holds
// whichever is set. A 240k-instruction workload expands to 3.8 MB instead
// of 7.7 MB, which is what lets a campaign run two detailed lanes — each
// holding its workload's expansion — in about the memory one took before.
// A context expands a stream only to replay it (see SimContext); a
// one-point run that nothing will replay streams from the generator
// instead.
type packedInst struct {
	pc, arg                   uint32
	op, size, src1, src2, dst uint8
	flags                     uint8
}

// packedInst flags.
const (
	packTarget    = 1 << iota // arg is the branch target, not the data address
	packTaken                 // isa.Inst.Taken
	packUnaligned             // isa.Inst.Unaligned
)

// pack stores in losslessly, panicking on an instruction outside the
// packed range — the generator never emits one (TestPackedStreamRoundTrip
// expands every suite workload).
func pack(in isa.Inst) packedInst {
	arg, flags := in.Addr, uint8(0)
	if in.Target != 0 {
		arg, flags = in.Target, packTarget
	}
	if in.PC > 0xFFFF_FFFF || arg > 0xFFFF_FFFF || (in.Addr != 0 && in.Target != 0) {
		panic(fmt.Sprintf("platform: instruction %+v does not pack", in))
	}
	if in.Taken {
		flags |= packTaken
	}
	if in.Unaligned {
		flags |= packUnaligned
	}
	return packedInst{pc: uint32(in.PC), arg: uint32(arg), op: uint8(in.Op), size: in.Size,
		src1: in.Src1, src2: in.Src2, dst: in.Dst, flags: flags}
}

// packedStream replays a packed expansion as an isa.BlockStream, unpacking
// one block at a time into the core's block buffer.
type packedStream struct {
	insts []packedInst
	pos   int
}

// NextBlock implements isa.BlockStream.
func (s *packedStream) NextBlock(buf []isa.Inst) int {
	rem := s.insts[s.pos:]
	if len(rem) > len(buf) {
		rem = rem[:len(buf)]
	}
	buf = buf[:len(rem)]
	for i := range rem {
		p, in := &rem[i], &buf[i]
		in.PC = uint64(p.pc)
		in.Addr, in.Target = uint64(p.arg), 0
		if p.flags&packTarget != 0 {
			in.Addr, in.Target = 0, uint64(p.arg)
		}
		in.Op, in.Size, in.Src1, in.Src2, in.Dst = isa.Op(p.op), p.size, p.src1, p.src2, p.dst
		in.Taken = p.flags&packTaken != 0
		in.Unaligned = p.flags&packUnaligned != 0
	}
	s.pos += len(rem)
	return len(rem)
}
