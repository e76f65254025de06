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
	if s.Len() != 3 {
		t.Fatal("len")
	}
	var got []Inst
	for {
		in, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, in)
	}
	if len(got) != 3 || got[2].PC != 12 {
		t.Fatalf("drained %v", got)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted stream must return false")
	}
	s.Reset()
	if in, ok := s.Next(); !ok || in.PC != 4 {
		t.Fatal("reset must rewind")
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
