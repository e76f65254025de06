// campaign demonstrates the cached, cancellable, observable campaign
// engine. It runs the same hardware characterisation twice against a
// persistent on-disk run cache — the first pass simulates, the second
// replays — then shows how a failing campaign preserves its completed
// runs so a re-run resumes instead of starting over. This is the
// repository analogue of the paper's released datasets: collect once,
// analyse forever. The final section traces and meters a campaign:
// spans for every phase land in a Chrome trace-event file and the
// campaign counters come back as Prometheus text. Run with:
//
//	go run ./examples/campaign
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gemstone"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "gemstone-campaign")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cache, err := gemstone.OpenRunCache(dir)
	if err != nil {
		log.Fatal(err)
	}
	profiles := gemstone.ValidationWorkloads()[:12]
	opt := func() gemstone.CollectOptions {
		return gemstone.CollectOptions{
			Workloads: profiles,
			Clusters:  []string{gemstone.ClusterA15},
			Freqs:     map[string][]int{gemstone.ClusterA15: {600, 1000}},
			Cache:     cache,
		}
	}

	// ---- Pass 1: cold cache, every run simulates ------------------------

	cold := gemstone.NewCollectMetrics()
	o := opt()
	o.Observer = cold
	start := time.Now()
	coldRuns, err := gemstone.Collect(context.Background(), gemstone.HardwarePlatform(), o)
	if err != nil {
		log.Fatal(err)
	}
	coldTime := time.Since(start)
	fmt.Printf("cold campaign: %s\n", cold.Stats())

	// ---- Pass 2: warm cache, every run replays --------------------------

	warm := gemstone.NewCollectMetrics()
	o = opt()
	o.Observer = warm
	start = time.Now()
	warmRuns, err := gemstone.Collect(context.Background(), gemstone.HardwarePlatform(), o)
	if err != nil {
		log.Fatal(err)
	}
	warmTime := time.Since(start)
	fmt.Printf("warm campaign: %s\n", warm.Stats())
	fmt.Printf("warm replay is %.0fx faster (%v -> %v), %d/%d hits\n",
		float64(coldTime)/float64(warmTime), coldTime.Round(time.Millisecond),
		warmTime.Round(time.Microsecond), warm.Stats().CacheHits, warm.Stats().Jobs)

	// The replayed campaign is the campaign: identical measurements.
	for key, m := range coldRuns.Runs {
		w, err := warmRuns.Get(key)
		if err != nil || w != m {
			log.Fatalf("cache replay diverged at %v", key)
		}
	}
	fmt.Println("replayed measurements are identical to the simulated ones")

	// ---- Cancellation: a stopped campaign keeps its partial results -----

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // a SIGINT handler would do this in a real tool
	_, err = gemstone.Collect(ctx, gemstone.Gem5Platform(gemstone.V1), opt())
	var ce *gemstone.CollectError
	if !errors.As(err, &ce) {
		log.Fatalf("expected a CollectError, got %v", err)
	}
	fmt.Printf("cancelled gem5 campaign: %d done, %d skipped — rerunning resumes via the cache\n",
		len(ce.Partial.Runs), len(ce.Skipped))

	// ---- Resume: simply collect again with the same cache ---------------

	resumed := gemstone.NewCollectMetrics()
	o = opt()
	o.Observer = resumed
	simRuns, err := gemstone.Collect(context.Background(), gemstone.Gem5Platform(gemstone.V1), o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed gem5 campaign: %s\n", resumed.Stats())

	// Warm runs feed every analysis as usual.
	vs, err := gemstone.Validate(coldRuns, simRuns, gemstone.ClusterA15)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("validation on cached campaigns: MAPE %.1f%% MPE %+.1f%%\n", vs.MAPE, vs.MPE)

	// ---- Observability: trace the campaign, export its metrics ----------

	tracer := gemstone.NewTracer()
	reg := gemstone.NewMetricsRegistry()
	o = opt()
	o.Tracer = tracer
	o.Observer = gemstone.NewRegistryCollectObserver(reg)
	if _, err := gemstone.Collect(context.Background(), gemstone.HardwarePlatform(), o); err != nil {
		log.Fatal(err)
	}

	tracePath := filepath.Join(dir, "campaign-trace.json")
	f, err := os.Create(tracePath)
	if err != nil {
		log.Fatal(err)
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("traced campaign: %d spans written as Chrome trace-event JSON (open in ui.perfetto.dev)\n",
		len(tracer.Events()))

	// The registry renders as Prometheus text — what a scrape of the
	// gemstone -metrics-addr endpoint returns.
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(prom.String(), "\n") {
		if strings.HasPrefix(line, "gemstone_campaign_runs_total") ||
			strings.HasPrefix(line, "gemstone_campaign_cache_hit_ratio") {
			fmt.Println(line)
		}
	}
}
