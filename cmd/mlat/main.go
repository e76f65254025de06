// Command mlat runs the lat_mem_rd-style memory-latency microbenchmark of
// the paper's Fig. 4 against the hardware and gem5 model clusters, printing
// the latency-vs-working-set curves side by side.
//
// Usage:
//
//	mlat [-cluster a15|a7] [-freq MHz] [-stride bytes] [-version 1|2]
package main

import (
	"flag"
	"fmt"
	"log"

	"gemstone"
	"gemstone/internal/lmbench"
	"gemstone/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mlat: ")

	cluster := flag.String("cluster", gemstone.ClusterA15, "cluster to probe (a7|a15)")
	freq := flag.Int("freq", 1000, "core frequency in MHz")
	stride := flag.Int("stride", 256, "access stride in bytes")
	ver := gemstone.V1
	flag.Var(&ver, "version", "gem5 model version `N`: 1 or 2 (default 1)")
	flag.Parse()

	sizes := gemstone.DefaultLatencySizes()
	curves := map[string][]lmbench.Point{}
	switch *cluster {
	case gemstone.ClusterA15:
		curves["hw-a15"] = gemstone.MemoryLatency(gemstone.HardwareA15(), *freq, *stride, sizes)
		curves["gem5-a15"] = gemstone.MemoryLatency(gemstone.Gem5Big(ver), *freq, *stride, sizes)
	case gemstone.ClusterA7:
		curves["hw-a7"] = gemstone.MemoryLatency(gemstone.HardwareA7(), *freq, *stride, sizes)
		curves["gem5-a7"] = gemstone.MemoryLatency(gemstone.Gem5LITTLE(ver), *freq, *stride, sizes)
	default:
		log.Fatalf("unknown cluster %q", *cluster)
	}
	fmt.Print(report.Fig4(curves))
}
