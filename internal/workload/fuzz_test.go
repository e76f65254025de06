package workload

import (
	"slices"
	"testing"

	"gemstone/internal/isa"
)

// fuzzInsts bounds one fuzz execution; large budgets only slow the
// fuzzer down without reaching new generator states.
const fuzzInsts = 50_000

// FuzzGenerator drives the instruction-stream generator with arbitrary
// profile parameters. The contract under test: any profile that passes
// Validate generates a terminating, deterministic stream without
// panicking — no modulo-by-zero on degenerate region sizes, no stuck
// buffer, no divergence between two generators built from the same
// profile, and the same sequence whatever block size the caller drains
// it with.
func FuzzGenerator(f *testing.F) {
	// Seeds beyond testdata/fuzz/FuzzGenerator: one real profile per
	// structural extreme of the shipped suite.
	for i, name := range []string{"dhrystone", "parsec-canneal-1", "lm-lat-mem-rd"} {
		if p, err := ByName(name); err == nil {
			f.Add(p.TotalInsts, p.LoopIters, p.BodyBlocks, p.BlockLen, p.CodeBlocks,
				p.WorkingSetBytes, p.StreamBytes, p.ChaseBytes, p.StrideBytes,
				p.CondFraction, p.PatternWeights[int(PatternChase)], p.IndirectTargets, uint8(7*i))
		}
	}

	f.Fuzz(func(t *testing.T, totalInsts, loopIters, bodyBlocks, blockLen, codeBlocks,
		wset, stream, chase, stride int, condFrac, chaseWeight float64, indirect int, chunk uint8) {
		p := Profile{
			Name:             "fuzz",
			Suite:            "fuzz",
			Threads:          1,
			TotalInsts:       totalInsts,
			LoopIters:        loopIters,
			BodyBlocks:       bodyBlocks,
			BlockLen:         blockLen,
			CodeBlocks:       codeBlocks,
			CondFraction:     condFrac,
			CondBias:         0.5,
			IndirectFraction: 0.1,
			IndirectTargets:  indirect,
			CallFraction:     0.1,
			LoadFraction:     0.3,
			StoreFraction:    0.1,
			WorkingSetBytes:  wset,
			StreamBytes:      stream,
			ChaseBytes:       chase,
			StrideBytes:      stride,
			PatternWeights:   [4]float64{1, 0.5, 0.25, chaseWeight},
			DepDistance:      3,
		}
		if p.TotalInsts > fuzzInsts {
			p.TotalInsts = fuzzInsts
		}
		if err := p.Validate(); err != nil {
			return // invalid profiles are rejected up front, never generated
		}

		size := 1 + int(chunk)%32
		got := emitAll(t, NewGenerator(p), size)
		if len(got) < p.TotalInsts {
			t.Fatalf("stream ended after %d of %d instructions", len(got), p.TotalInsts)
		}
		// The generator finishes the basic block in flight when the budget
		// runs out; anything past MaxStreamLen is a runaway.
		if len(got) > p.MaxStreamLen() {
			t.Fatalf("stream overran its bound: %d > %d", len(got), p.MaxStreamLen())
		}
		// Where the blocks end must not change the sequence: a second
		// generator drained in one block delivers the same instructions.
		whole := make([]isa.Inst, p.MaxStreamLen()+1)
		if n := NewGenerator(p).NextBlock(whole); !slices.Equal(whole[:n], got) {
			t.Fatalf("%d instructions drained in blocks of %d differ from the %d drained in one block",
				len(got), size, n)
		}
	})
}

// emitAll drains a generator through NextBlock with a buffer of size
// instructions, failing the test if it refuses to terminate.
func emitAll(t *testing.T, g *Generator, size int) []isa.Inst {
	t.Helper()
	limit := 4 * fuzzInsts
	buf := make([]isa.Inst, size)
	var out []isa.Inst
	for {
		n := g.NextBlock(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
		if len(out) > limit {
			t.Fatalf("generator emitted %d instructions without terminating", len(out))
		}
	}
}
