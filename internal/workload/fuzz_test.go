package workload

import (
	"testing"
)

// fuzzInsts bounds one fuzz execution; large budgets only slow the
// fuzzer down without reaching new generator states.
const fuzzInsts = 50_000

// FuzzGenerator drives the instruction-stream generator with arbitrary
// profile parameters. The contract under test: any profile that passes
// Validate generates a terminating, deterministic stream without
// panicking — no modulo-by-zero on degenerate region sizes, no stuck
// buffer, no divergence between two generators built from the same
// profile.
func FuzzGenerator(f *testing.F) {
	// Seeds beyond testdata/fuzz/FuzzGenerator: one real profile per
	// structural extreme of the shipped suite.
	for _, name := range []string{"dhrystone", "parsec-canneal-1", "lm-lat-mem-rd"} {
		if p, err := ByName(name); err == nil {
			f.Add(p.TotalInsts, p.LoopIters, p.BodyBlocks, p.BlockLen, p.CodeBlocks,
				p.WorkingSetBytes, p.StreamBytes, p.ChaseBytes, p.StrideBytes,
				p.CondFraction, p.PatternWeights[int(PatternChase)], p.IndirectTargets)
		}
	}

	f.Fuzz(func(t *testing.T, totalInsts, loopIters, bodyBlocks, blockLen, codeBlocks,
		wset, stream, chase, stride int, condFrac, chaseWeight float64, indirect int) {
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

		count := emitAll(t, NewGenerator(p))
		if count < p.TotalInsts {
			t.Fatalf("stream ended after %d of %d instructions", count, p.TotalInsts)
		}
		// The generator finishes the basic block in flight when the budget
		// runs out; anything past MaxStreamLen is a runaway.
		if count > p.MaxStreamLen() {
			t.Fatalf("stream overran its bound: %d > %d", count, p.MaxStreamLen())
		}
		if again := emitAll(t, NewGenerator(p)); again != count {
			t.Fatalf("same profile generated %d then %d instructions", count, again)
		}
	})
}

// emitAll drains a generator, failing the test if it refuses to
// terminate.
func emitAll(t *testing.T, g *Generator) int {
	t.Helper()
	limit := 4 * fuzzInsts
	count := 0
	for {
		_, ok := g.Next()
		if !ok {
			return count
		}
		count++
		if count > limit {
			t.Fatalf("generator emitted %d instructions without terminating", count)
		}
	}
}
