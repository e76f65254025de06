package workload

import (
	"slices"
	"testing"
	"testing/quick"

	"gemstone/internal/isa"
	"gemstone/internal/xrand"
)

func TestSuiteSizes(t *testing.T) {
	all := All()
	if len(all) != 65 {
		t.Fatalf("full suite has %d workloads, want 65 (paper Section III)", len(all))
	}
	val := Validation()
	if len(val) != 45 {
		t.Fatalf("validation set has %d workloads, want 45 (paper Experiment 1)", len(val))
	}
}

func TestSuiteProfilesValid(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range All() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate workload name %q", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestSuiteHasPaperWorkloads(t *testing.T) {
	for _, name := range []string{
		"par-basicmath-rad2deg", // the pathological Cluster 16 workload
		"parsec-canneal-4",      // max power-model error observation
		"dhrystone", "whetstone",
		"parsec-blackscholes-1", "parsec-blackscholes-4",
	} {
		if _, err := ByName(name); err != nil {
			t.Errorf("missing expected workload: %v", err)
		}
	}
	if _, err := ByName("no-such-thing"); err == nil {
		t.Error("ByName must reject unknown names")
	}
}

func TestParallelWorkloadsHaveSyncBehaviour(t *testing.T) {
	n4 := 0
	for _, p := range All() {
		if p.Threads == 4 {
			n4++
			if p.ExclusivePer1K == 0 && p.BarrierPer1K == 0 {
				t.Errorf("%s: 4-thread workload without synchronisation", p.Name)
			}
		}
	}
	// 8 ParMiBench + 9 PARSEC "-4" variants.
	if n4 != 17 {
		t.Fatalf("parallel workloads = %d, want 17", n4)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, err := ByName("mi-qsort")
	if err != nil {
		t.Fatal(err)
	}
	a := isa.Collect(NewGenerator(p), 0)
	b := isa.Collect(NewGenerator(p), 0)
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGeneratorRespectsBudget(t *testing.T) {
	for _, name := range []string{"mi-crc32", "parsec-x264-4", "long-nop"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		insts := isa.Collect(NewGenerator(p), 0)
		if len(insts) < p.TotalInsts || len(insts) > p.TotalInsts+p.BlockLen+4 {
			t.Fatalf("%s: emitted %d instructions, budget %d", name, len(insts), p.TotalInsts)
		}
	}
}

// TestMaxStreamLen checks the expansion bound on every suite profile,
// parallel ones (whose bodies carry LDREX/STREX pairs) included: the
// stream covers its budget and never outgrows MaxStreamLen.
func TestMaxStreamLen(t *testing.T) {
	worst, worstAt := 0, ""
	var buf []isa.Inst
	for _, p := range All() {
		// One slot of headroom, so an overrun shows as n > MaxStreamLen.
		buf = slices.Grow(buf[:0], p.MaxStreamLen()+1)[:p.MaxStreamLen()+1]
		n := NewGenerator(p).NextBlock(buf)
		if n < p.TotalInsts || n > p.MaxStreamLen() {
			t.Errorf("%s: stream of %d instructions outside [%d, %d]", p.Name, n, p.TotalInsts, p.MaxStreamLen())
		}
		if over := n - p.TotalInsts; over > worst {
			worst, worstAt = over, p.Name
		}
	}
	t.Logf("largest overrun: %d instructions (%s)", worst, worstAt)
}

func TestGeneratorStreamsDifferAcrossWorkloads(t *testing.T) {
	a := isa.Collect(NewGenerator(mustByName(t, "mi-fft")), 1000)
	b := isa.Collect(NewGenerator(mustByName(t, "mi-fft-inv")), 1000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("distinct workloads must not produce identical streams")
	}
}

func mustByName(t *testing.T, name string) Profile {
	t.Helper()
	p, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// opHistogram counts instruction classes in the first n instructions.
func opHistogram(p Profile, n int) map[isa.Op]int {
	h := map[isa.Op]int{}
	for _, in := range isa.Collect(NewGenerator(p), n) {
		h[in.Op]++
	}
	return h
}

func TestMixMatchesProfile(t *testing.T) {
	p := mustByName(t, "long-fp-mul") // 80% FP mul stressor
	h := opHistogram(p, 50_000)
	total := 0
	for _, n := range h {
		total += n
	}
	frac := float64(h[isa.OpFPMul]) / float64(total)
	if frac < 0.6 || frac > 0.9 {
		t.Fatalf("FP-mul fraction = %.2f, want ~0.8 of body instructions", frac)
	}
}

func TestParallelStreamContainsSync(t *testing.T) {
	p := mustByName(t, "par-dijkstra")
	h := opHistogram(p, 100_000)
	if h[isa.OpLoadEx] == 0 || h[isa.OpStoreEx] == 0 {
		t.Fatal("parallel workload stream must contain exclusives")
	}
	if h[isa.OpLoadEx] != h[isa.OpStoreEx] {
		t.Fatalf("LDREX (%d) and STREX (%d) must pair up", h[isa.OpLoadEx], h[isa.OpStoreEx])
	}
}

func TestRegularLoopWorkloadBranchBehaviour(t *testing.T) {
	// par-basicmath-rad2deg: almost every branch is the loop-back branch,
	// taken with probability (iters-1)/iters.
	p := mustByName(t, "par-basicmath-rad2deg")
	taken, total := 0, 0
	for _, in := range isa.Collect(NewGenerator(p), 0) {
		if in.Op == isa.OpBranch {
			total++
			if in.Taken {
				taken++
			}
		}
	}
	if total == 0 {
		t.Fatal("no branches in loop workload")
	}
	ratio := float64(taken) / float64(total)
	if ratio < 0.995 {
		t.Fatalf("loop-branch taken ratio = %.4f, want >= 0.995 (trip count 2000)", ratio)
	}
}

func TestCodeFootprintDiffers(t *testing.T) {
	pages := func(name string) int {
		seen := map[uint64]bool{}
		for _, in := range isa.Collect(NewGenerator(mustByName(t, name)), 100_000) {
			seen[in.PC>>12] = true
		}
		return len(seen)
	}
	small := pages("mi-crc32")
	large := pages("parsec-x264-1")
	if large < 8*small {
		t.Fatalf("x264 code pages (%d) should dwarf crc32 (%d)", large, small)
	}
	if large < 33 {
		t.Fatalf("large-code workload touches %d code pages; need > 32 to stress the HW ITLB", large)
	}
}

// Property: every generated instruction is well-formed.
func TestGeneratedInstructionsWellFormed(t *testing.T) {
	f := func(pick uint8) bool {
		all := All()
		p := all[int(pick)%len(all)]
		for _, in := range isa.Collect(NewGenerator(p), 5_000) {
			if in.PC == 0 || in.PC%4 != 0 {
				return false
			}
			if in.Src1 >= isa.NumRegs || in.Src2 >= isa.NumRegs || in.Dst >= isa.NumRegs {
				return false
			}
			if in.Op.IsMem() && in.Addr == 0 {
				return false
			}
			if in.Op.IsBranch() && in.Taken && in.Target == 0 {
				return false
			}
			if !in.Op.IsMem() && in.Addr != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestSeedStability(t *testing.T) {
	// Seeds derive from names only — renaming-stability guard.
	if xrand.HashString("mi-qsort") != mustByName(t, "mi-qsort").Seed() {
		t.Fatal("profile seed must be the hash of its name")
	}
}

// The suite must span the behaviour space: each family occupies its own
// region (the property that makes HCA produce meaningful clusters).
func TestSuiteFamiliesAreBehaviourallyDistinct(t *testing.T) {
	mixVector := func(p Profile) []float64 {
		h := opHistogram(p, 30_000)
		total := 0.0
		for _, n := range h {
			total += float64(n)
		}
		classes := []isa.Op{isa.OpLoad, isa.OpStore, isa.OpFPAdd, isa.OpFPMul,
			isa.OpSIMD, isa.OpBranch, isa.OpIntALU}
		v := make([]float64, len(classes))
		for i, c := range classes {
			v[i] = float64(h[c]) / total
		}
		return v
	}
	fp := mixVector(mustByName(t, "whetstone"))
	intw := mixVector(mustByName(t, "dhrystone"))
	simd := mixVector(mustByName(t, "parsec-x264-1"))
	// FP share (indices 2,3) dominates in whetstone, vanishes in dhrystone.
	if fp[2]+fp[3] < 0.2 {
		t.Fatalf("whetstone FP share = %.2f", fp[2]+fp[3])
	}
	if intw[2]+intw[3] > 0.02 {
		t.Fatalf("dhrystone FP share = %.2f", intw[2]+intw[3])
	}
	if simd[4] < 0.15 {
		t.Fatalf("x264 SIMD share = %.2f", simd[4])
	}
	// Memory intensity separates streaming kernels from compute kernels.
	stream := mixVector(mustByName(t, "mi-crc32"))
	alu := mixVector(mustByName(t, "long-int-alu"))
	if stream[0] < 2*alu[0]+0.1 {
		t.Fatalf("crc32 load share %.2f vs pure-ALU %.2f", stream[0], alu[0])
	}
}

// Every workload is distinguishable from every other by its behaviour
// vector — no two profiles collapse onto the same point.
func TestNoDuplicateBehaviours(t *testing.T) {
	type sig struct {
		mix   [isa.NumOps]int // per-class counts, quantised
		pages int
	}
	seen := map[sig][]string{}
	for _, p := range All() {
		h := opHistogram(p, 20_000)
		pages := map[uint64]bool{}
		for _, in := range isa.Collect(NewGenerator(p), 20_000) {
			if in.Op.IsMem() {
				pages[in.Addr>>12] = true
			}
		}
		var s sig
		for op, n := range h {
			s.mix[op] = n / 100
		}
		s.pages = len(pages) / 8
		seen[s] = append(seen[s], p.Name)
	}
	for s, names := range seen {
		if len(names) > 3 {
			t.Errorf("behaviour signature %+v shared by %v", s, names)
		}
	}
}
