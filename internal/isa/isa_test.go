package isa

import (
	"testing"
	"unsafe"
)

func TestOpClassification(t *testing.T) {
	cases := []struct {
		op                               Op
		mem, load, store, branch, fp, ex bool
	}{
		{OpNop, false, false, false, false, false, false},
		{OpIntALU, false, false, false, false, false, false},
		{OpFPAdd, false, false, false, false, true, false},
		{OpFPDiv, false, false, false, false, true, false},
		{OpLoad, true, true, false, false, false, false},
		{OpStore, true, false, true, false, false, false},
		{OpLoadEx, true, true, false, false, false, true},
		{OpStoreEx, true, false, true, false, false, true},
		{OpBranch, false, false, false, true, false, false},
		{OpCall, false, false, false, true, false, false},
		{OpReturn, false, false, false, true, false, false},
		{OpBranchInd, false, false, false, true, false, false},
		{OpBarrier, false, false, false, false, false, false},
	}
	for _, c := range cases {
		if c.op.IsMem() != c.mem || c.op.IsLoad() != c.load || c.op.IsStore() != c.store ||
			c.op.IsBranch() != c.branch || c.op.IsFP() != c.fp || c.op.IsExclusive() != c.ex {
			t.Errorf("%v: classification mismatch", c.op)
		}
	}
}

func TestOpString(t *testing.T) {
	if OpIntALU.String() != "int_alu" || OpBranchInd.String() != "branch_ind" {
		t.Fatal("op names")
	}
	if Op(200).String() != "op(200)" {
		t.Fatalf("unknown op string = %q", Op(200).String())
	}
	// Every defined op has a name.
	for op := Op(0); int(op) < NumOps; op++ {
		if op.String() == "" {
			t.Fatalf("op %d has empty name", op)
		}
	}
}

func TestSliceStream(t *testing.T) {
	insts := []Inst{{PC: 4}, {PC: 8}, {PC: 12}}
	s := NewSliceStream(insts)
	// A short buffer drains the stream across several blocks.
	buf := make([]Inst, 2)
	var got []Inst
	for n := s.NextBlock(buf); n > 0; n = s.NextBlock(buf) {
		got = append(got, buf[:n]...)
	}
	if len(got) != 3 || got[0].PC != 4 || got[2].PC != 12 {
		t.Fatalf("drained %v", got)
	}
	if n := s.NextBlock(buf); n != 0 {
		t.Fatalf("exhausted stream delivered %d", n)
	}

	// A capped Collect reads no further than its cap.
	s = NewSliceStream(insts)
	if got := Collect(s, 2); len(got) != 2 || got[1].PC != 8 {
		t.Fatalf("Collect(s, 2) = %v", got)
	}
	if n := s.NextBlock(buf); n != 1 || buf[0].PC != 12 {
		t.Fatalf("after Collect(s, 2): NextBlock = %d %v, want the third instruction", n, buf[:n])
	}
}

func TestCollect(t *testing.T) {
	insts := []Inst{{PC: 4}, {PC: 8}, {PC: 12}}
	if got := Collect(NewSliceStream(insts), 0); len(got) != 3 {
		t.Fatalf("unbounded collect = %d", len(got))
	}
	if got := Collect(NewSliceStream(insts), 2); len(got) != 2 {
		t.Fatalf("bounded collect = %d", len(got))
	}
}

// TestInstSize pins the packed Inst layout: every generated block and
// every timing-loop block holds Insts by value, so a field that breaks
// the packing grows all of them by a quarter.
func TestInstSize(t *testing.T) {
	if n := unsafe.Sizeof(Inst{}); n != 32 {
		t.Fatalf("sizeof(Inst) = %d bytes, want 32", n)
	}
}
