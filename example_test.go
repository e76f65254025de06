// Runnable examples of the library API, checked by go test against their
// Output blocks: the validation quickstart, the campaign engine, and the
// paper's Fig. 2 retrospective power tool. Run them with
//
//	go test -run Example -v .
//
// They print only deterministic values (no wall times), so a repeated
// run prints the same text. The paper's tables and figures are rendered
// by `make experiments` and `gemstone -analyses`, not here.
package gemstone_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gemstone"
)

// Example validates a gem5 CPU model against the reference hardware
// platform: the paper's core loop runs the same workloads on hardware
// (Experiment 1) and on the gem5 model (Experiment 2), then compares
// execution times. A negative PE means the model overestimates
// execution time. README.md's library quickstart is this function's
// body (TestReadmeQuickstartIsExample keeps the two in step).
func Example() {
	// A small, diverse slice of the validation suite keeps this fast;
	// drop the Workloads field to run all 45 validation workloads.
	var profiles []gemstone.WorkloadProfile
	for _, name := range []string{
		"dhrystone", "whetstone", "mi-qsort", "mi-crc32",
		"par-basicmath-rad2deg", "parsec-blackscholes-1", "parsec-canneal-1",
	} {
		p, err := gemstone.WorkloadByName(name)
		if err != nil {
			log.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	opt := gemstone.CollectOptions{
		Workloads: profiles,
		Clusters:  []string{gemstone.ClusterA15},
		Freqs:     map[string][]int{gemstone.ClusterA15: {1000}},
	}

	ctx := context.Background()
	hwRuns, err := gemstone.Collect(ctx, gemstone.HardwarePlatform(), opt)
	if err != nil {
		log.Fatal(err)
	}
	simRuns, err := gemstone.Collect(ctx, gemstone.Gem5Platform(gemstone.V1), opt)
	if err != nil {
		log.Fatal(err)
	}

	summary, err := gemstone.Validate(hwRuns, simRuns, gemstone.ClusterA15)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gem5 v1 vs hardware, A15 @ 1 GHz: MAPE %.1f%%  MPE %+.1f%%\n", summary.MAPE, summary.MPE)
	for _, e := range summary.ErrorsAt(1000) {
		fmt.Printf("%-22s hw %5.2f ms  gem5 %5.2f ms  PE %+6.1f%%\n",
			e.Workload, e.HWSeconds*1e3, e.SimSeconds*1e3, e.PE)
	}
	// Output:
	// gem5 v1 vs hardware, A15 @ 1 GHz: MAPE 104.3%  MPE -95.9%
	// dhrystone              hw  0.19 ms  gem5  0.40 ms  PE -116.3%
	// mi-crc32               hw  0.30 ms  gem5  1.43 ms  PE -369.2%
	// mi-qsort               hw  0.74 ms  gem5  0.83 ms  PE  -12.1%
	// par-basicmath-rad2deg  hw  0.53 ms  gem5  1.10 ms  PE -108.2%
	// parsec-blackscholes-1  hw  0.84 ms  gem5  1.02 ms  PE  -20.3%
	// parsec-canneal-1       hw  5.86 ms  gem5  4.15 ms  PE  +29.1%
	// whetstone              hw  0.53 ms  gem5  0.93 ms  PE  -74.6%
}

// cancelAfter is a counting observer that cancels its campaign once n
// runs have simulated, standing in for a SIGINT handler.
type cancelAfter struct {
	*gemstone.CollectMetrics
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) RunDone(key gemstone.RunKey, m gemstone.Measurement, simTime time.Duration) {
	c.CollectMetrics.RunDone(key, m, simTime)
	if c.Stats().Simulated == c.n {
		c.cancel()
	}
}

// ExampleCollect drives the campaign engine through an on-disk run
// cache: a cold campaign simulates every run and a warm one replays
// them all, bit for bit. A cancelled campaign keeps its completed runs,
// so collecting again with the same cache resumes it. The last campaign
// is traced and metered: its spans export as Chrome trace-event JSON
// and its counters as Prometheus text.
func ExampleCollect() {
	dir, err := os.MkdirTemp("", "gemstone-campaign")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cache, err := gemstone.OpenRunCache(dir)
	if err != nil {
		log.Fatal(err)
	}
	opt := func(observer gemstone.CollectObserver) gemstone.CollectOptions {
		return gemstone.CollectOptions{
			Workloads: gemstone.ValidationWorkloads()[:12],
			Clusters:  []string{gemstone.ClusterA15},
			Freqs:     map[string][]int{gemstone.ClusterA15: {600, 1000}},
			Cache:     cache,
			// A fixed worker count fixes the traced campaign's span count
			// (one lane span per worker).
			Workers:  2,
			Observer: observer,
		}
	}
	// CollectStats.String() includes stage wall times; print the counts.
	counts := func(name string, m *gemstone.CollectMetrics) {
		s := m.Stats()
		fmt.Printf("%s: %d jobs, %d simulated, %d cache hits, %d skipped\n",
			name, s.Jobs, s.Simulated, s.CacheHits, s.Skipped)
	}
	ctx := context.Background()

	cold := gemstone.NewCollectMetrics()
	coldRuns, err := gemstone.Collect(ctx, gemstone.HardwarePlatform(), opt(cold))
	if err != nil {
		log.Fatal(err)
	}
	counts("cold", cold)
	warm := gemstone.NewCollectMetrics()
	warmRuns, err := gemstone.Collect(ctx, gemstone.HardwarePlatform(), opt(warm))
	if err != nil {
		log.Fatal(err)
	}
	counts("warm", warm)
	identical := len(warmRuns.Runs) == len(coldRuns.Runs)
	for key, m := range coldRuns.Runs {
		identical = identical && warmRuns.Runs[key] == m
	}
	fmt.Println("warm replay identical to the cold campaign:", identical)

	// Cancel the gem5 campaign after 10 runs. One worker makes the cut
	// deterministic: no other run is in flight when it lands.
	cctx, cancel := context.WithCancel(ctx)
	stopper := &cancelAfter{CollectMetrics: gemstone.NewCollectMetrics(), n: 10, cancel: cancel}
	o := opt(stopper)
	o.Workers = 1
	_, err = gemstone.Collect(cctx, gemstone.Gem5Platform(gemstone.V1), o)
	cancel()
	var ce *gemstone.CollectError
	if !errors.As(err, &ce) {
		log.Fatalf("expected a CollectError, got %v", err)
	}
	fmt.Printf("cancelled: %d done, %d skipped, cause %v\n",
		len(ce.Partial.Runs), len(ce.Skipped), ce.Cause)
	resumed := gemstone.NewCollectMetrics()
	simRuns, err := gemstone.Collect(ctx, gemstone.Gem5Platform(gemstone.V1), opt(resumed))
	if err != nil {
		log.Fatal(err)
	}
	counts("resumed", resumed)
	vs, err := gemstone.Validate(coldRuns, simRuns, gemstone.ClusterA15)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("validation on cached campaigns: MAPE %.1f%%  MPE %+.1f%%\n", vs.MAPE, vs.MPE)

	tracer := gemstone.NewTracer()
	reg := gemstone.NewMetricsRegistry()
	o = opt(gemstone.NewRegistryCollectObserver(reg))
	o.Tracer = tracer
	if _, err := gemstone.Collect(ctx, gemstone.HardwarePlatform(), o); err != nil {
		log.Fatal(err)
	}
	// Open the trace file in ui.perfetto.dev.
	f, err := os.Create(filepath.Join(dir, "campaign-trace.json"))
	if err != nil {
		log.Fatal(err)
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("traced campaign: %d spans\n", len(tracer.Events()))
	// The registry renders what a scrape of gemstone -metrics-addr returns.
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
	// Output:
	// cold: 24 jobs, 24 simulated, 0 cache hits, 0 skipped
	// warm: 24 jobs, 0 simulated, 24 cache hits, 0 skipped
	// warm replay identical to the cold campaign: true
	// cancelled: 10 done, 14 skipped, cause context canceled
	// resumed: 24 jobs, 14 simulated, 10 cache hits, 0 skipped
	// validation on cached campaigns: MAPE 81.6%  MPE -81.4%
	// traced campaign: 28 spans
	// gemstone_campaign_cache_hit_ratio 1
	// gemstone_campaign_runs_total{result="cache_hit"} 24
	// gemstone_campaign_runs_total{result="skipped"} 0
}

// ExampleLoadPowerModel is the paper's Fig. 2 software tool: a saved
// power model is applied to archived gem5 stats.txt files after the
// simulation, so the model, or the voltage assumed for a frequency, can
// change without re-running gem5. It first leaves the artefacts a real
// campaign would: a power model trained on the 65-workload
// characterisation, saved as JSON, and one stats.txt per workload. The
// analysis then reads only those files, including a what-if voltage.
func ExampleLoadPowerModel() {
	dir, err := os.MkdirTemp("", "gemstone-retro")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	const cluster = gemstone.ClusterA15
	const freq = 1000
	workloads := []string{"dhrystone", "whetstone", "mi-qsort", "parsec-canneal-1"}

	hwRuns, err := gemstone.Collect(context.Background(), gemstone.HardwarePlatform(),
		gemstone.CollectOptions{Workloads: gemstone.Workloads(), Clusters: []string{cluster}})
	if err != nil {
		log.Fatal(err)
	}
	model, err := gemstone.BuildPowerModel(hwRuns, cluster,
		gemstone.PowerBuildOptions{Pool: gemstone.RestrictedPool()})
	if err != nil {
		log.Fatal(err)
	}
	var saved bytes.Buffer
	if err := gemstone.SavePowerModel(&saved, model); err != nil {
		log.Fatal(err)
	}
	modelPath := filepath.Join(dir, "a15-power-model.json")
	if err := os.WriteFile(modelPath, saved.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
	sim := gemstone.Gem5Platform(gemstone.V1)
	for _, name := range workloads {
		prof, err := gemstone.WorkloadByName(name)
		if err != nil {
			log.Fatal(err)
		}
		m, err := sim.Run(prof, cluster, freq)
		if err != nil {
			log.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gemstone.WriteGem5StatsFile(&buf, gemstone.Gem5Stats(m)); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name+"-stats.txt"), buf.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	// From here on, files only.
	raw, err := os.ReadFile(modelPath)
	if err != nil {
		log.Fatal(err)
	}
	loaded, err := gemstone.LoadPowerModel(bytes.NewReader(raw))
	if err != nil {
		log.Fatal(err)
	}
	mapping := gemstone.DefaultMapping()
	fmt.Printf("%-17s %9s %11s %11s %12s\n", "workload", "sim time", "P @ 1.00 V", "P @ 1.10 V", "E @ 1.00 V")
	for _, name := range workloads {
		raw, err := os.ReadFile(filepath.Join(dir, name+"-stats.txt"))
		if err != nil {
			log.Fatal(err)
		}
		stats, err := gemstone.ParseGem5StatsFile(bytes.NewReader(raw))
		if err != nil {
			log.Fatal(err)
		}
		// The same stats under two voltage assumptions, no re-simulation.
		nominal, err := mapping.ObservationFromGem5(name, cluster, freq, 1.00, stats)
		if err != nil {
			log.Fatal(err)
		}
		overdrive, err := mapping.ObservationFromGem5(name, cluster, freq, 1.10, stats)
		if err != nil {
			log.Fatal(err)
		}
		secs := stats["sim_seconds"]
		p0, p1 := loaded.Estimate(&nominal), loaded.Estimate(&overdrive)
		fmt.Printf("%-17s %6.2f ms %9.3f W %9.3f W %9.3f mJ\n", name, secs*1e3, p0, p1, p0*secs*1e3)
	}
	// The run-time equation for insertion into gem5 itself, one event
	// term a line.
	fmt.Println(strings.ReplaceAll(loaded.Equation(mapping), " * 1e-9 + ", " * 1e-9\n  + "))
	// Output:
	// workload           sim time  P @ 1.00 V  P @ 1.10 V   E @ 1.00 V
	// dhrystone           0.40 ms     1.068 W     1.226 W     0.429 mJ
	// whetstone           0.93 ms     1.059 W     1.215 W     0.982 mJ
	// mi-qsort            0.83 ms     1.461 W     1.702 W     1.208 mJ
	// parsec-canneal-1    4.15 ms     1.447 W     1.684 W     6.004 mJ
	// power = 0.315105 + 0.629711 * voltage^2 * (system.cpu.numCycles)/sim_seconds * 1e-9
	//   + 0.351489 * voltage^2 * (system.cpu.iq.FU_type::MemWrite)/sim_seconds * 1e-9
	//   + 5.18173 * voltage^2 * (system.cpu.dcache.overall_mshr_misses)/sim_seconds * 1e-9
	//   + 0.173094 * voltage^2 * (system.cpu.committedInsts)/sim_seconds * 1e-9
	//   + 5.25056 * voltage^2 * (system.mem_ctrls.readReqs + system.mem_ctrls.writeReqs)/sim_seconds * 1e-9
	//   + 0.312915 * voltage^2 * (system.cpu.iq.FU_type::SimdAlu + system.cpu.iq.FU_type::SimdFloatAdd + system.cpu.iq.FU_type::SimdFloatMult + system.cpu.iq.FU_type::SimdFloatDiv)/sim_seconds * 1e-9
	//   + -0.0507132 * voltage^2 * (system.cpu.iq.FU_type::IntAlu + system.cpu.iq.FU_type::IntMult + system.cpu.iq.FU_type::IntDiv)/sim_seconds * 1e-9
}

// TestReadmeQuickstartIsExample keeps README.md's library quickstart a
// copy of Example's body: every non-blank line of the README's Go block
// must appear, trimmed and in order, among the lines of Example.
func TestReadmeQuickstartIsExample(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(readme), "## Quickstart (library)\n")
	if ok {
		_, block, ok = strings.Cut(block, "```go\n")
	}
	if ok {
		block, _, ok = strings.Cut(block, "```")
	}
	if !ok {
		t.Fatal("README.md has no Go block under \"## Quickstart (library)\"")
	}
	src, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	_, body, ok := strings.Cut(string(src), "\nfunc Example() {\n")
	if ok {
		body, _, ok = strings.Cut(body, "\n}\n")
	}
	if !ok {
		t.Fatal("example_test.go has no func Example")
	}
	lines := strings.Split(body, "\n")
	for _, want := range strings.Split(block, "\n") {
		want = strings.TrimSpace(want)
		if want == "" {
			continue
		}
		for len(lines) > 0 && strings.TrimSpace(lines[0]) != want {
			lines = lines[1:]
		}
		if len(lines) == 0 {
			t.Fatalf("README quickstart line %q is not in Example (or is out of order)", want)
		}
		lines = lines[1:]
	}
}
