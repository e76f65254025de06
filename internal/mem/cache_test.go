package mem

import (
	"testing"
	"testing/quick"

	"gemstone/internal/xrand"
)

func testCacheConfig() CacheConfig {
	return CacheConfig{
		Name: "test", SizeBytes: 4096, LineBytes: 64, Assoc: 4,
		LatencyCycles: 2, WriteAllocate: true,
	}
}

func TestCacheConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*CacheConfig)
		ok   bool
	}{
		{"valid", func(c *CacheConfig) {}, true},
		{"zero line", func(c *CacheConfig) { c.LineBytes = 0 }, false},
		{"non-pow2 line", func(c *CacheConfig) { c.LineBytes = 48 }, false},
		{"zero assoc", func(c *CacheConfig) { c.Assoc = 0 }, false},
		{"size not multiple", func(c *CacheConfig) { c.SizeBytes = 4000 }, false},
		{"non-pow2 sets", func(c *CacheConfig) { c.SizeBytes = 4096 * 3 }, false},
		{"negative latency", func(c *CacheConfig) { c.LatencyCycles = -1 }, false},
		{"fully associative", func(c *CacheConfig) { c.Assoc = 64; c.SizeBytes = 64 * 64 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testCacheConfig()
			tc.mut(&cfg)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("expected valid, got %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("expected validation error, got nil")
			}
		})
	}
}

func TestCacheColdMissThenHit(t *testing.T) {
	c := NewCache(testCacheConfig())
	if res := c.Access(0x1000, false); res.Hit {
		t.Fatal("cold access must miss")
	}
	if res := c.Access(0x1000, false); !res.Hit {
		t.Fatal("second access must hit")
	}
	if res := c.Access(0x1004, false); !res.Hit {
		t.Fatal("same-line access must hit")
	}
	if got := c.Stats.ReadAccesses; got != 3 {
		t.Fatalf("ReadAccesses = %d, want 3", got)
	}
	if got := c.Stats.ReadMisses; got != 1 {
		t.Fatalf("ReadMisses = %d, want 1", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 4-way cache: 5 distinct lines mapping to the same set evict the LRU.
	cfg := testCacheConfig()
	c := NewCache(cfg)
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc) // 16 sets
	stride := uint64(sets * cfg.LineBytes)              // same-set stride
	for i := uint64(0); i < 5; i++ {
		c.Access(i*stride, false)
	}
	if c.Contains(0) {
		t.Fatal("LRU line should have been evicted")
	}
	for i := uint64(1); i < 5; i++ {
		if !c.Contains(i * stride) {
			t.Fatalf("line %d should be resident", i)
		}
	}
}

func TestCacheWritebackOnDirtyEviction(t *testing.T) {
	cfg := testCacheConfig()
	c := NewCache(cfg)
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	stride := uint64(sets * cfg.LineBytes)
	c.Access(0, true) // dirty line
	for i := uint64(1); i < 4; i++ {
		c.Access(i*stride, false)
	}
	res := c.Access(4*stride, false)
	if !res.Writeback {
		t.Fatal("evicting a dirty line must report a writeback")
	}
	if res.WritebackAddr != 0 {
		t.Fatalf("WritebackAddr = %#x, want 0", res.WritebackAddr)
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("Writebacks = %d, want 1", c.Stats.Writebacks)
	}
}

func TestCacheWriteNoAllocatePolicy(t *testing.T) {
	cfg := testCacheConfig()
	cfg.WriteAllocate = false
	c := NewCache(cfg)
	c.Access(0x40, true)
	if c.Contains(0x40) {
		t.Fatal("write-no-allocate cache must not install write misses")
	}
	if c.Stats.WriteMisses != 1 || c.Stats.WriteRefills != 0 {
		t.Fatalf("stats = %+v, want 1 write miss, 0 write refills", c.Stats)
	}
}

func TestCacheAccessWriteNoAlloc(t *testing.T) {
	c := NewCache(testCacheConfig()) // write-allocate
	c.AccessWriteNoAlloc(0x80)
	if c.Contains(0x80) {
		t.Fatal("no-alloc write miss must not install the line")
	}
	if s := c.Stats; s.WriteAccesses != 1 || s.WriteMisses != 1 || s.WriteRefills != 0 {
		t.Fatalf("stats = %+v, want 1 write access, 1 write miss, 0 write refills", s)
	}
}

func TestCacheNextLinePrefetch(t *testing.T) {
	cfg := testCacheConfig()
	cfg.NextLinePrefetch = true
	cfg.PrefetchDegree = 2
	c := NewCache(cfg)
	res := c.Access(0x1000, false)
	if len(res.PrefetchAddrs) != 2 {
		t.Fatalf("prefetch addrs = %v, want 2 entries", res.PrefetchAddrs)
	}
	if res.PrefetchAddrs[0] != 0x1040 || res.PrefetchAddrs[1] != 0x1080 {
		t.Fatalf("prefetch addrs = %#x", res.PrefetchAddrs)
	}
	for _, pa := range res.PrefetchAddrs {
		c.prefetchAbsent(pa)
	}
	if c.Stats.Prefetches != 2 {
		t.Fatalf("Prefetches = %d, want 2", c.Stats.Prefetches)
	}
	if res := c.Access(0x1040, false); !res.Hit {
		t.Fatal("prefetched line must hit")
	}
	if c.Stats.PrefetchHits != 1 {
		t.Fatalf("PrefetchHits = %d, want 1", c.Stats.PrefetchHits)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(testCacheConfig())
	c.Access(0x200, true)
	dirty, present := c.Invalidate(0x200)
	if !present || !dirty {
		t.Fatalf("Invalidate = (dirty=%v, present=%v), want both true", dirty, present)
	}
	if c.Contains(0x200) {
		t.Fatal("invalidated line still resident")
	}
	dirty, present = c.Invalidate(0x200)
	if present || dirty {
		t.Fatal("second invalidate must be a no-op")
	}
}

// Property: for any access sequence, hits+misses == accesses per side, and
// resident lines never exceed capacity.
func TestCacheStatsInvariant(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		rng := xrand.New(seed)
		c := NewCache(testCacheConfig())
		steps := int(n%2048) + 1
		for i := 0; i < steps; i++ {
			addr := uint64(rng.Intn(1 << 14))
			c.Access(addr, rng.Bool(0.3))
		}
		s := c.Stats
		if s.ReadAccesses+s.WriteAccesses != uint64(steps) {
			return false
		}
		if s.ReadMisses > s.ReadAccesses || s.WriteMisses > s.WriteAccesses {
			return false
		}
		if s.ReadRefills != s.ReadMisses { // read misses always refill
			return false
		}
		maxLines := testCacheConfig().SizeBytes / testCacheConfig().LineBytes
		return c.ResidentLines() <= maxLines
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a line that was just accessed is always resident afterwards
// (with write-allocate), i.e. the cache never "loses" the MRU line.
func TestCacheMRUResident(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		c := NewCache(testCacheConfig())
		for i := 0; i < 500; i++ {
			addr := uint64(rng.Intn(1 << 16))
			c.Access(addr, rng.Bool(0.5))
			if !c.Contains(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheDeterminism(t *testing.T) {
	run := func() CacheStats {
		rng := xrand.New(42)
		c := NewCache(testCacheConfig())
		for i := 0; i < 2000; i++ {
			c.Access(uint64(rng.Intn(1<<15)), rng.Bool(0.25))
		}
		return c.Stats
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic cache stats: %+v vs %+v", a, b)
	}
}
