// Package mem implements the memory-system substrate shared by every CPU
// model in the repository: set-associative write-back caches, TLBs, a
// banked DRAM model and the composed cache/TLB hierarchy the pipeline
// models access.
//
// The same implementation is configured twice — once as the reference
// "hardware" platform and once as the "gem5" model with the specification
// defects the paper documents (see internal/hw and internal/gem5). Keeping
// a single implementation means every divergence between the two platforms
// is attributable to an explicit configuration knob, which is exactly the
// property the GemStone methodology is designed to detect.
package mem

import "fmt"

// CacheConfig describes the geometry and policies of one cache level.
type CacheConfig struct {
	// Name identifies the cache in statistics output (e.g. "l1d").
	Name string
	// SizeBytes is the total capacity. Must be a multiple of LineBytes*Assoc.
	SizeBytes int
	// LineBytes is the line size (power of two).
	LineBytes int
	// Assoc is the set associativity.
	Assoc int
	// LatencyCycles is the hit latency in core cycles.
	LatencyCycles int
	// WriteAllocate controls whether write misses allocate a line.
	WriteAllocate bool
	// NextLinePrefetch enables a simple next-line prefetcher on read misses.
	NextLinePrefetch bool
	// PrefetchDegree is the number of sequential lines fetched per trigger.
	PrefetchDegree int
}

// Validate checks the configuration for internal consistency.
func (c CacheConfig) Validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: cache %q: line size %d is not a positive power of two", c.Name, c.LineBytes)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("mem: cache %q: associativity %d must be positive", c.Name, c.Assoc)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("mem: cache %q: size %d is not a multiple of line*assoc", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: cache %q: set count %d is not a power of two", c.Name, sets)
	}
	if c.LatencyCycles < 0 {
		return fmt.Errorf("mem: cache %q: negative latency", c.Name)
	}
	return nil
}

// CacheStats accumulates the raw event counts a cache produces. The PMU and
// gem5 statistics layers derive their event values from these fields.
type CacheStats struct {
	ReadAccesses  uint64 // demand read lookups
	WriteAccesses uint64 // demand write lookups
	ReadMisses    uint64 // demand read lookups that missed
	WriteMisses   uint64 // demand write lookups that missed
	ReadRefills   uint64 // lines allocated due to read misses
	WriteRefills  uint64 // lines allocated due to write misses
	Writebacks    uint64 // dirty lines evicted to the next level
	Prefetches    uint64 // prefetch fills issued
	PrefetchHits  uint64 // demand hits on prefetched-but-unused lines
	Invalidations uint64 // lines removed by coherence snoops
}

// Accesses returns total demand lookups.
func (s *CacheStats) Accesses() uint64 { return s.ReadAccesses + s.WriteAccesses }

// Misses returns total demand misses.
func (s *CacheStats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// Refills returns total demand line fills.
func (s *CacheStats) Refills() uint64 { return s.ReadRefills + s.WriteRefills }

// Line metadata bits (see Cache.meta).
const (
	metaDirty      uint8 = 1 << 0
	metaPrefetched uint8 = 1 << 1 // filled by prefetch and not yet demand-touched
)

// AccessResult reports the outcome of a cache access to the caller, which
// is responsible for charging latency and propagating traffic downstream.
type AccessResult struct {
	Hit bool
	// WritebackAddr is the line-aligned address of a dirty victim that must
	// be written to the next level. Valid only when Writeback is true.
	Writeback     bool
	WritebackAddr uint64
	// PrefetchAddrs are line-aligned addresses the prefetcher wants filled.
	PrefetchAddrs []uint64
}

// Cache is a set-associative write-back cache with true-LRU replacement.
// It is a pure state machine: it records hits/misses and reports required
// downstream actions, but never touches other levels itself.
// Cache state is held in parallel arrays rather than a []struct so that the
// associative scans (lookup, victim) walk densely packed words: a 16-way tag
// scan touches 128 bytes instead of the ~384 a line-struct layout costs.
type Cache struct {
	cfg   CacheConfig
	Stats CacheStats
	// tags holds the line-aligned address with the low bit set for valid
	// entries and 0 for invalid ones (line addresses always have zero low
	// bits, so the encoding is unambiguous). One comparison both matches the
	// tag and checks validity.
	tags     []uint64
	lastUse  []uint64
	meta     []uint8 // metaDirty | metaPrefetched
	sets     int
	assoc    int
	lineMask uint64
	setShift uint
	setMask  uint64
	tick     uint64
	// last memoises the index of the most recently touched line: spatially
	// local access runs (stream loads walking a line, sequential fetch
	// groups) hit it with a single compare instead of an associative scan.
	// It is pure memoisation — replacement state and statistics are
	// byte-identical with or without it.
	last  int
	pfBuf [8]uint64 // reusable prefetch-address buffer
}

// NewCache builds a cache from cfg. It panics if cfg is invalid; callers
// construct configurations from code, not user input, so an invalid config
// is a programming error.
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	setShift := uint(0)
	for 1<<setShift != cfg.LineBytes {
		setShift++
	}
	return &Cache{
		cfg:      cfg,
		tags:     make([]uint64, sets*cfg.Assoc),
		lastUse:  make([]uint64, sets*cfg.Assoc),
		meta:     make([]uint8, sets*cfg.Assoc),
		sets:     sets,
		assoc:    cfg.Assoc,
		lineMask: ^uint64(cfg.LineBytes - 1),
		setShift: setShift,
		setMask:  uint64(sets - 1),
	}
}

// Config returns the cache configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// LatencyCycles returns the configured hit latency.
func (c *Cache) LatencyCycles() int { return c.cfg.LatencyCycles }

func (c *Cache) set(addr uint64) int {
	return int((addr >> c.setShift) & c.setMask)
}

// lookup returns the way index holding addr's line, or -1.
func (c *Cache) lookup(addr uint64) int {
	key := (addr & c.lineMask) | 1
	if c.tags[c.last] == key {
		return c.last
	}
	base := c.set(addr) * c.assoc
	// Subslicing lets the compiler drop the per-way bounds checks.
	tags := c.tags[base : base+c.assoc]
	for w, tag := range tags {
		if tag == key {
			c.last = base + w
			return base + w
		}
	}
	return -1
}

// victim returns the LRU way index in addr's set, preferring invalid ways.
func (c *Cache) victim(addr uint64) int {
	base := c.set(addr) * c.assoc
	tags := c.tags[base : base+c.assoc]
	lastUse := c.lastUse[base : base+c.assoc]
	best := 0
	var bestUse uint64 = ^uint64(0)
	for w, tag := range tags {
		if tag == 0 {
			return base + w
		}
		if u := lastUse[w]; u < bestUse {
			bestUse = u
			best = w
		}
	}
	return base + best
}

// fill installs addr's line, returning any dirty victim.
func (c *Cache) fill(addr uint64, dirty, prefetched bool) (wbAddr uint64, wb bool) {
	idx := c.victim(addr)
	if c.tags[idx] != 0 && c.meta[idx]&metaDirty != 0 {
		wbAddr, wb = c.tags[idx]&^uint64(1), true
		c.Stats.Writebacks++
	}
	c.tick++
	c.tags[idx] = (addr & c.lineMask) | 1
	c.lastUse[idx] = c.tick
	var m uint8
	if dirty {
		m = metaDirty
	}
	if prefetched {
		m |= metaPrefetched
	}
	c.meta[idx] = m
	c.last = idx
	return wbAddr, wb
}

// Reset restores the cache to its just-constructed state (all lines
// invalid, statistics and LRU clock zeroed) without reallocating the line
// array. SimContext reuse depends on Reset being indistinguishable from
// NewCache with the same configuration.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.lastUse)
	clear(c.meta)
	c.Stats = CacheStats{}
	c.tick = 0
	c.last = 0
}

// touch applies the demand-hit bookkeeping to line idx: the access count,
// the LRU touch, and the prefetch-hit and dirty flags.
func (c *Cache) touch(idx int, write bool) {
	if write {
		c.Stats.WriteAccesses++
	} else {
		c.Stats.ReadAccesses++
	}
	c.tick++
	c.lastUse[idx] = c.tick
	m := c.meta[idx]
	if m&metaPrefetched != 0 {
		c.Stats.PrefetchHits++
		m &^= metaPrefetched
	}
	if write {
		m |= metaDirty
	}
	c.meta[idx] = m
}

// hitFast is the demand-hit half of Access: when addr hits it applies the
// hit bookkeeping and returns true; on a miss it records nothing and
// returns false, and the caller goes on to missDemand.
func (c *Cache) hitFast(addr uint64, write bool) bool {
	idx := c.lookup(addr)
	if idx < 0 {
		return false
	}
	c.touch(idx, write)
	return true
}

// hitLast is hitFast restricted to the memoised line: it applies the hit
// bookkeeping when the last-touched line matches and reports false
// otherwise (recording nothing). Unlike hitFast it is small enough to
// inline, so repeat accesses to the same line cost no call at all.
func (c *Cache) hitLast(addr uint64, write bool) bool {
	if c.tags[c.last] != (addr&c.lineMask)|1 {
		return false
	}
	c.touch(c.last, write)
	return true
}

// missDemand is the demand-miss half of Access, for an address the caller
// has just observed to miss (hitFast returned false with no intervening
// cache mutations), which spares the miss path a second associative scan.
// On a miss with allocation the line is installed (the caller is assumed
// to fetch it from the next level and charge the appropriate latency).
// The result lists the dirty victim, if any, and the next-line prefetch
// candidates not already resident.
func (c *Cache) missDemand(addr uint64, write bool) AccessResult {
	var res AccessResult
	if write {
		c.Stats.WriteAccesses++
		c.Stats.WriteMisses++
		if c.cfg.WriteAllocate {
			c.Stats.WriteRefills++
			res.WritebackAddr, res.Writeback = c.fill(addr, true, false)
		}
		// Write-no-allocate misses pass through to the next level; the
		// hierarchy handles that traffic.
		return res
	}
	c.Stats.ReadAccesses++
	c.Stats.ReadMisses++
	c.Stats.ReadRefills++
	res.WritebackAddr, res.Writeback = c.fill(addr, false, false)
	if c.cfg.NextLinePrefetch {
		deg := c.cfg.PrefetchDegree
		if deg <= 0 {
			deg = 1
		}
		if deg > len(c.pfBuf) {
			deg = len(c.pfBuf)
		}
		line := uint64(c.cfg.LineBytes)
		base := addr & c.lineMask
		n := 0
		for i := 1; i <= deg; i++ {
			pa := base + uint64(i)*line
			if c.lookup(pa) < 0 {
				c.pfBuf[n] = pa
				n++
			}
		}
		res.PrefetchAddrs = c.pfBuf[:n]
	}
	return res
}

// Access performs a demand read or write lookup: hitFast, then missDemand
// if the line is absent. The result reports the hit or, on a miss, the
// dirty victim and prefetch candidates the caller must send on.
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	if c.hitFast(addr, write) {
		return AccessResult{Hit: true}
	}
	return c.missDemand(addr, write)
}

// AccessWriteNoAlloc records a write miss that bypasses allocation, for a
// line the caller has just found absent (Contains). The merging write
// buffer in the hierarchy uses this for detected streaming stores, which
// never allocate whatever the configured write-allocate policy.
func (c *Cache) AccessWriteNoAlloc(addr uint64) {
	c.Stats.WriteAccesses++
	c.Stats.WriteMisses++
}

// prefetchAbsent installs a line speculatively (no demand stats recorded)
// that the caller knows is not resident: the candidates an AccessResult
// carries were filtered against the cache, and the only mutations since
// are prefetch fills of other lines (which can only evict). The returned
// values describe a dirty victim writeback, if one occurred.
func (c *Cache) prefetchAbsent(addr uint64) (wbAddr uint64, wb bool) {
	c.Stats.Prefetches++
	return c.fill(addr, false, true)
}

// Contains reports whether addr's line is resident (no stats recorded).
// The hierarchy's streaming-store check uses it.
func (c *Cache) Contains(addr uint64) bool { return c.lookup(addr) >= 0 }

// Invalidate removes addr's line if present, returning whether it was dirty
// (in which case the caller must write it back).
func (c *Cache) Invalidate(addr uint64) (wasDirty, wasPresent bool) {
	idx := c.lookup(addr)
	if idx < 0 {
		return false, false
	}
	c.Stats.Invalidations++
	dirty := c.meta[idx]&metaDirty != 0
	c.tags[idx] = 0
	c.meta[idx] &^= metaDirty
	return dirty, true
}

// ResidentLines returns the number of valid lines. Used by property tests.
func (c *Cache) ResidentLines() int {
	n := 0
	for _, tag := range c.tags {
		if tag != 0 {
			n++
		}
	}
	return n
}
