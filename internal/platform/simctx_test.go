package platform

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"gemstone/internal/isa"
	"gemstone/internal/workload"
)

// allocBytes returns the bytes f allocates on the heap.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPackedStreamRoundTrip pins the packed expansion as lossless: for
// every suite workload, replaying it a block at a time yields exactly the
// generator's instruction sequence. The odd block size puts block
// boundaries everywhere in the stream.
func TestPackedStreamRoundTrip(t *testing.T) {
	sc := NewSimContext(nil) // expansion needs no platform
	block := make([]isa.Inst, 97)
	for _, prof := range workload.All() {
		want := make([]isa.Inst, prof.MaxStreamLen())
		want = want[:workload.NewGenerator(prof).NextBlock(want)]
		packed := sc.expand(prof)
		batched := &packedStream{insts: packed}
		i := 0
		for n := batched.NextBlock(block); n > 0; n = batched.NextBlock(block) {
			if i+n > len(want) || !slices.Equal(block[:n], want[i:i+n]) {
				t.Fatalf("%s: batched packed replay differs from the generator in instructions %d-%d", prof.Name, i, i+n)
			}
			i += n
		}
		if i != len(want) {
			t.Fatalf("%s: packed replay delivered %d instructions, want %d", prof.Name, i, len(want))
		}
	}
}

// TestExpandSizedOnce guards the sizing of a context's expanded stream:
// a fresh context allocates it once, at its bound, and a later workload
// of no larger budget reuses that buffer. Either expansion may allocate
// up to allocSlack besides, the generator's own bookkeeping; a regrown
// buffer for these 240k-instruction workloads is far larger.
func TestExpandSizedOnce(t *testing.T) {
	const allocSlack = 64 << 10
	a, err := workload.ByName("dhrystone")
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.ByName("parsec-canneal-4")
	if err != nil {
		t.Fatal(err)
	}
	if b.MaxStreamLen() > a.MaxStreamLen() {
		t.Fatalf("%s must not outgrow %s", b.Name, a.Name)
	}
	sc := NewSimContext(nil) // expansion needs no platform

	var insts []packedInst
	n := allocBytes(func() { insts = sc.expand(a) })
	buf := uint64(a.MaxStreamLen()) * uint64(unsafe.Sizeof(packedInst{}))
	if cap(insts) != a.MaxStreamLen() || n < buf || n > buf+allocSlack {
		t.Fatalf("fresh expansion of %s: cap %d, %d bytes allocated; want cap %d, one %d-byte buffer",
			a.Name, cap(insts), n, a.MaxStreamLen(), buf)
	}
	first := unsafe.SliceData(insts)
	if n := allocBytes(func() { insts = sc.expand(b) }); n > allocSlack || unsafe.SliceData(insts) != first {
		t.Fatalf("re-expansion of %s allocated %d bytes (same buffer: %v)", b.Name, n, unsafe.SliceData(insts) == first)
	}
}
