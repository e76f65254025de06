// Command eventdiag reports, for each event of a power model, how
// accurately the gem5 model reproduces the hardware PMC rate — the
// per-event rate/total MAPEs shown in the legend of the paper's Fig. 7.
// It is the tool a user runs to decide which events to exclude from the
// power-model selection pool (Section V's restriction step).
//
// Usage:
//
//	eventdiag [-cluster a15|a7] [-freq MHz] [-version 1|2] [-pool restricted|full]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"gemstone"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("eventdiag: ")

	cluster := flag.String("cluster", gemstone.ClusterA15, "cluster (a7|a15)")
	freq := flag.Int("freq", 1000, "comparison frequency in MHz")
	ver := gemstone.V1
	flag.Var(&ver, "version", "gem5 model version `N`: 1 or 2 (default 1)")
	pool := flag.String("pool", "restricted", "candidate pool: restricted|full")
	flag.Parse()

	opt := gemstone.PowerBuildOptions{}
	switch *pool {
	case "restricted":
		opt.Pool = gemstone.RestrictedPool()
	case "full":
		opt.Pool = gemstone.DefaultPool()
	default:
		log.Fatalf("unknown pool %q", *pool)
	}

	log.Println("power characterisation (65 workloads)...")
	hwRuns, err := gemstone.Collect(context.Background(), gemstone.HardwarePlatform(), gemstone.CollectOptions{
		Workloads: gemstone.Workloads(), Clusters: []string{*cluster}})
	if err != nil {
		log.Fatal(err)
	}
	model, err := gemstone.BuildPowerModel(hwRuns, *cluster, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: %s\n(training MAPE %.2f%%, adj R2 %.4f)\n\n",
		model.String(), model.Quality.MAPE, model.Quality.AdjR2)

	log.Printf("running gem5 %v at %d MHz...", ver, *freq)
	simRuns, err := gemstone.Collect(context.Background(), gemstone.Gem5Platform(ver), gemstone.CollectOptions{
		Clusters: []string{*cluster}, Freqs: map[string][]int{*cluster: {*freq}}})
	if err != nil {
		log.Fatal(err)
	}

	mapping := gemstone.DefaultMapping()
	rel, err := gemstone.AssessEventReliability(hwRuns, simRuns, *cluster, *freq, mapping, model.Events)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s %12s %12s\n", "event", "rate MAPE", "total MAPE")
	for _, r := range rel {
		fmt.Printf("%-28s %11.1f%% %11.1f%%\n", r.Event.String(), r.RateMAPE, r.TotalMAPE)
	}

	// The Fig. 1 feedback loop, automated: which candidates survive?
	kept, excluded, err := gemstone.DeriveEventRestraints(hwRuns, simRuns, *cluster, *freq,
		mapping, opt.Pool, 60)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nautomated restraints (rate MAPE > 60%% or unmappable): %d kept, %d excluded\n",
		len(kept), len(excluded))
	for _, e := range excluded {
		fmt.Printf("  excluded: %s\n", e)
	}
}
