// Package gem5 defines the simulated gem5 models of the Exynos-5422
// (the ex5_LITTLE.py / ex5_big.py configurations the paper evaluates) and
// the gem5-style statistics they emit.
//
// The models share the simulation engine with the reference platform; they
// differ only in configuration, and each difference is one of the
// specification errors the paper documents:
//
//   - Version 1 of the big model carries the branch-predictor bug that
//     Section IV identifies as the dominant error source (BP accuracy ~65%
//     vs ~96% on hardware); Version 2 carries the fix (Section VII).
//   - The big model's L1 ITLB has 64 entries where the hardware has 32,
//     and its second-level TLBs are two split 8-way walker caches with a
//     4-cycle latency where the hardware has one shared 512-entry 4-way
//     TLB at 2 cycles.
//   - DRAM latency is too low (Fig. 4), the LITTLE model's L2 latency is
//     too high, the L2 prefetcher is too aggressive, there is no merging
//     write buffer (inflating L1D write refills ~10x and writebacks ~19x,
//     Fig. 6), the L1I cache is accessed per instruction (~2x accesses),
//     and VFP operations are mis-classified as SIMD in the statistics.
package gem5

import (
	"fmt"

	"gemstone/internal/hw"
	"gemstone/internal/mem"
	"gemstone/internal/platform"
)

// Version selects the gem5 model vintage.
type Version int

const (
	// V1 is the model with the branch-predictor bug (paper Sections IV-VI).
	V1 Version = 1
	// V2 is the model after the BP bug fix (paper Section VII).
	V2 Version = 2
)

// String returns "v1" or "v2".
func (v Version) String() string {
	if v == V2 {
		return "v2"
	}
	return "v1"
}

// Set parses a -version command-line value, making *Version a
// flag.Value: only "1" and "2" name a model, so a typo fails the parse
// instead of silently running V1.
func (v *Version) Set(s string) error {
	switch s {
	case "1":
		*v = V1
	case "2":
		*v = V2
	default:
		return fmt.Errorf("gem5 model version must be 1 or 2, not %q", s)
	}
	return nil
}

// gem5DRAM is the model's too-optimistic memory: the microbenchmarks of
// Fig. 4 show the modelled DRAM latency well below the hardware's.
func gem5DRAM() mem.DRAMConfig {
	return mem.DRAMConfig{
		Banks: 8, RowBytes: 2048,
		RowHitNs: 22, RowMissNs: 60,
		BandwidthBytesPerNs: 8.5,
	}
}

// LITTLECluster returns the ex5_LITTLE model configuration.
func LITTLECluster(v Version) platform.ClusterConfig {
	c := hw.A7Cluster()
	c.Name = hw.ClusterA7
	c.Power = nil // gem5 has no power sensors
	c.Thermal = platform.ThermalConfig{}

	// Specification errors of the LITTLE model:
	c.Hier.DRAM = gem5DRAM()
	c.Hier.L2.LatencyCycles = 17 // too high (Fig. 4: A7 L2 latency)
	c.Hier.StreamingStoreMerge = false
	c.Core.FetchPerInstruction = true
	c.Core.FrontendDepth = 6 // refill cost understated
	// The LITTLE model's L2 TLBs: two split 1 KiB 4-way caches, 2 cycles.
	c.Hier.UnifiedL2TLB = false
	c.Hier.L2TLB = mem.TLBConfig{}
	c.Hier.L2TLBI = mem.TLBConfig{Name: "itb_walker_cache", Entries: 128, Assoc: 4, LatencyCycles: 2}
	c.Hier.L2TLBD = mem.TLBConfig{Name: "dtb_walker_cache", Entries: 128, Assoc: 4, LatencyCycles: 2}
	// The model's idealised interconnect under-costs inter-core
	// communication (Fig. 5: barrier/exclusive-heavy workloads are
	// underestimated).
	c.ContentionScale = 0.25
	// The LITTLE model's predictor is adequate in both versions; only the
	// big model carried the bug.
	return c
}

// BigCluster returns the ex5_big model configuration for the given
// version: every documented defect for V1, everything except the
// branch-predictor bug for V2. See defects.go for the individual knobs.
func BigCluster(v Version) platform.ClusterConfig {
	if v == V2 {
		return BigClusterWithDefects(V2Defects)
	}
	return BigClusterWithDefects(AllDefects)
}

// Platform returns the gem5 simulator "platform" (no power sensors) for
// the given model version.
func Platform(v Version) *platform.Platform {
	return platform.New(platform.Config{
		Name:       "gem5-ex5-" + v.String(),
		Clusters:   []platform.ClusterConfig{LITTLECluster(v), BigCluster(v)},
		HasSensors: false,
	})
}
