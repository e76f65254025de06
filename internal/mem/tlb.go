package mem

import "fmt"

// PageBytes is the virtual-memory page size used throughout the models.
const PageBytes = 4096

// PageShift is log2(PageBytes).
const PageShift = 12

// TLBConfig describes one translation lookaside buffer.
//
// The paper's central TLB finding is a geometry divergence: the Cortex-A15
// hardware has a 32-entry L1 ITLB backed by a shared 512-entry 4-way L2 TLB
// (2-cycle access), while the gem5 model has a 64-entry L1 ITLB backed by
// two *split* 8-way walker caches with a 4-cycle access latency. Both
// shapes are expressible with this config.
type TLBConfig struct {
	// Name identifies the TLB in statistics output (e.g. "itb").
	Name string
	// Entries is the total entry count.
	Entries int
	// Assoc is the associativity; Entries/Assoc sets must be a power of two.
	// Assoc == Entries gives a fully-associative TLB.
	Assoc int
	// LatencyCycles is charged on a hit in this level beyond the L1 lookup
	// (zero for L1 TLBs, whose lookup is folded into the cache access).
	LatencyCycles int
}

// Validate checks the configuration.
func (c TLBConfig) Validate() error {
	if c.Entries <= 0 || c.Assoc <= 0 || c.Entries%c.Assoc != 0 {
		return fmt.Errorf("mem: tlb %q: bad geometry entries=%d assoc=%d", c.Name, c.Entries, c.Assoc)
	}
	sets := c.Entries / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: tlb %q: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// TLBStats accumulates raw TLB event counts.
type TLBStats struct {
	Accesses uint64
	Misses   uint64
	Refills  uint64
	Flushes  uint64
	// SpecProbes counts speculative (wrong-path) translation attempts
	// that were squashed before resolving: they occupy TLB ports and are
	// visible in access statistics but never refill.
	SpecProbes uint64
}

// Hits returns Accesses - Misses.
func (s *TLBStats) Hits() uint64 { return s.Accesses - s.Misses }

// TLB is a set-associative translation buffer with LRU replacement. Like
// Cache it is a pure state machine; the hierarchy charges walk latency.
//
// Entries live in parallel arrays for scan density (the L1 TLBs are 32-entry
// fully associative, so every miss walks all of them): keys holds vpn+1 for
// valid entries and 0 for invalid ones — vpn+1 cannot overflow (a vpn has at
// most 52 bits) and cannot be 0, so one comparison checks tag and validity.
type TLB struct {
	cfg     TLBConfig
	Stats   TLBStats
	keys    []uint64
	lastUse []uint64
	sets    int
	assoc   int
	setMask uint64
	tick    uint64
	// last memoises the index of the most recently hit entry. Page-sized
	// locality means most translations repeat the previous page, so the
	// common case is one compare instead of a (often fully-associative)
	// way scan. Pure memoisation: hit/miss outcomes, LRU state and stats
	// are byte-identical with or without it.
	last int
}

// NewTLB builds a TLB from cfg, panicking on invalid configuration.
func NewTLB(cfg TLBConfig) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Entries / cfg.Assoc
	return &TLB{
		cfg:     cfg,
		keys:    make([]uint64, cfg.Entries),
		lastUse: make([]uint64, cfg.Entries),
		sets:    sets,
		assoc:   cfg.Assoc,
		setMask: uint64(sets - 1),
	}
}

// Config returns the TLB configuration.
func (t *TLB) Config() TLBConfig { return t.cfg }

// LatencyCycles returns the configured hit latency.
func (t *TLB) LatencyCycles() int { return t.cfg.LatencyCycles }

// Lookup translates the page containing addr. It returns true on a hit.
// On a miss the entry is NOT installed; call Refill once the walk (or the
// next TLB level) provides the translation.
func (t *TLB) Lookup(addr uint64) bool {
	vpn := addr >> PageShift
	if t.lookupLast(vpn) {
		return true
	}
	t.Stats.Accesses++
	idx := t.find(vpn)
	if idx < 0 {
		t.Stats.Misses++
		return false
	}
	t.tick++
	t.lastUse[idx] = t.tick
	t.last = idx
	return true
}

// lookupLast is Lookup restricted to the memoised entry: it applies the
// full hit bookkeeping when the last-hit entry matches and reports false
// otherwise (recording nothing — the caller falls back to Lookup, which
// then counts the access exactly once). Small enough for the inliner, so
// the hierarchy's translation fast path costs no call.
func (t *TLB) lookupLast(vpn uint64) bool {
	if t.keys[t.last] != vpn+1 {
		return false
	}
	t.Stats.Accesses++
	t.tick++
	t.lastUse[t.last] = t.tick
	return true
}

// find returns the index of vpn's entry in its set, or -1.
func (t *TLB) find(vpn uint64) int {
	base := int(vpn&t.setMask) * t.assoc
	// Subslicing lets the compiler drop the per-way bounds checks; the L1
	// TLBs are fully associative, so a miss scans every entry.
	for w, k := range t.keys[base : base+t.assoc] {
		if k == vpn+1 {
			return base + w
		}
	}
	return -1
}

// Refill installs the translation for addr's page, evicting LRU if needed.
func (t *TLB) Refill(addr uint64) {
	t.Stats.Refills++
	vpn := addr >> PageShift
	base := int(vpn&t.setMask) * t.assoc
	keys := t.keys[base : base+t.assoc]
	lastUse := t.lastUse[base : base+t.assoc]
	best := 0
	var bestUse uint64 = ^uint64(0)
	for w, k := range keys {
		if k == 0 {
			best = w
			break
		}
		if u := lastUse[w]; u < bestUse {
			bestUse = u
			best = w
		}
	}
	best += base
	t.tick++
	t.keys[best] = vpn + 1
	t.lastUse[best] = t.tick
	t.last = best
}

// Reset restores the TLB to its just-constructed state without
// reallocating the entry array; indistinguishable from NewTLB with the
// same configuration.
func (t *TLB) Reset() {
	clear(t.keys)
	clear(t.lastUse)
	t.Stats = TLBStats{}
	t.tick = 0
	t.last = 0
}

// Probe performs a speculative lookup: it records a SpecProbe and reports
// residency without counting a hit/miss or installing anything. Wrong-path
// fetches use this — the squash cancels the translation before it refills.
func (t *TLB) Probe(addr uint64) bool {
	t.Stats.SpecProbes++
	return t.Contains(addr)
}

// Contains reports whether addr's page is resident (no stats recorded).
func (t *TLB) Contains(addr uint64) bool {
	vpn := addr >> PageShift
	return t.keys[t.last] == vpn+1 || t.find(vpn) >= 0
}
