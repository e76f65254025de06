package mem

import (
	"testing"
	"testing/quick"

	"gemstone/internal/xrand"
)

func TestTLBConfigValidate(t *testing.T) {
	good := TLBConfig{Name: "t", Entries: 32, Assoc: 32}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []TLBConfig{
		{Name: "t", Entries: 0, Assoc: 1},
		{Name: "t", Entries: 32, Assoc: 0},
		{Name: "t", Entries: 30, Assoc: 4},     // not divisible
		{Name: "t", Entries: 4 * 12, Assoc: 4}, // 12 sets, not pow2
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: expected error for %+v", i, cfg)
		}
	}
}

func TestTLBMissThenRefillHits(t *testing.T) {
	tlb := NewTLB(TLBConfig{Name: "itb", Entries: 32, Assoc: 32})
	addr := uint64(0x12345678)
	if tlb.Lookup(addr) {
		t.Fatal("cold lookup must miss")
	}
	tlb.Refill(addr)
	if !tlb.Lookup(addr) {
		t.Fatal("lookup after refill must hit")
	}
	// Same page, different offset.
	if !tlb.Lookup(addr + 100) {
		t.Fatal("same-page lookup must hit")
	}
	// Different page.
	if tlb.Lookup(addr + PageBytes) {
		t.Fatal("different-page lookup must miss")
	}
}

func TestTLBCapacityEviction(t *testing.T) {
	// Fully associative, 4 entries: touching 5 pages evicts the LRU page.
	tlb := NewTLB(TLBConfig{Name: "t", Entries: 4, Assoc: 4})
	for i := uint64(0); i < 5; i++ {
		a := i * PageBytes
		tlb.Lookup(a)
		tlb.Refill(a)
	}
	if tlb.Contains(0) {
		t.Fatal("LRU page should have been evicted")
	}
	for i := uint64(1); i < 5; i++ {
		if !tlb.Contains(i * PageBytes) {
			t.Fatalf("page %d should be resident", i)
		}
	}
}

// Property: hits + misses == accesses, and refills never exceed misses+1
// window (every refill in our usage follows a miss).
func TestTLBStatsInvariant(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		rng := xrand.New(seed)
		tlb := NewTLB(TLBConfig{Name: "t", Entries: 16, Assoc: 4})
		steps := int(n%1000) + 1
		for i := 0; i < steps; i++ {
			addr := uint64(rng.Intn(64)) * PageBytes
			if !tlb.Lookup(addr) {
				tlb.Refill(addr)
			}
		}
		s := tlb.Stats
		return s.Accesses == uint64(steps) &&
			s.Hits() == s.Accesses-s.Misses &&
			s.Refills == s.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The paper's TLB insight: a unified L2 TLB of size 2N has a better hit
// ratio than two split TLBs of size N when the I/D footprints are skewed.
func TestUnifiedTLBBeatsSplitOnSkewedFootprint(t *testing.T) {
	unified := NewTLB(TLBConfig{Name: "u", Entries: 64, Assoc: 4})
	splitI := NewTLB(TLBConfig{Name: "si", Entries: 32, Assoc: 4})
	splitD := NewTLB(TLBConfig{Name: "sd", Entries: 32, Assoc: 4})

	rng := xrand.New(7)
	missUnified, missSplit := 0, 0
	for i := 0; i < 20000; i++ {
		// Skew: small code footprint (8 pages), large data footprint (56).
		iaddr := uint64(rng.Intn(8)) * PageBytes
		daddr := uint64(0x100000 + rng.Intn(56)*PageBytes)
		for _, a := range []uint64{iaddr, daddr} {
			if !unified.Lookup(a) {
				unified.Refill(a)
				missUnified++
			}
		}
		if !splitI.Lookup(iaddr) {
			splitI.Refill(iaddr)
			missSplit++
		}
		if !splitD.Lookup(daddr) {
			splitD.Refill(daddr)
			missSplit++
		}
	}
	if missUnified >= missSplit {
		t.Fatalf("unified misses %d >= split misses %d; expected unified to win on skewed footprints",
			missUnified, missSplit)
	}
}
