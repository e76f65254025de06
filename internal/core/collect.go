// Package core implements GemStone itself: the experiment orchestration of
// Fig. 1 (hardware characterisation, gem5 simulation, power
// characterisation), the data collation, and every analysis of Sections
// IV-VII — workload/event clustering, error correlation, error regression,
// matched-event comparison, power/energy error analysis, DVFS-scaling
// analysis and model-version comparison.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gemstone/internal/gem5"
	"gemstone/internal/obs"
	"gemstone/internal/platform"
	"gemstone/internal/pmu"
	"gemstone/internal/power"
	"gemstone/internal/workload"
)

// RunKey identifies one (workload, cluster, frequency) measurement.
type RunKey struct {
	Workload string
	Cluster  string
	FreqMHz  int
}

// String renders the key as workload/cluster@freq.
func (k RunKey) String() string {
	return fmt.Sprintf("%s/%s@%dMHz", k.Workload, k.Cluster, k.FreqMHz)
}

// RunSet holds every measurement collected from one platform.
type RunSet struct {
	Platform string
	Runs     map[RunKey]platform.Measurement
}

// Get returns the measurement for key, or an error naming what's missing.
func (rs *RunSet) Get(key RunKey) (platform.Measurement, error) {
	m, ok := rs.Runs[key]
	if !ok {
		return platform.Measurement{}, fmt.Errorf("core: %s has no run for %s/%s@%dMHz",
			rs.Platform, key.Workload, key.Cluster, key.FreqMHz)
	}
	return m, nil
}

// Workloads returns the sorted workload names present in the set.
func (rs *RunSet) Workloads() []string {
	seen := map[string]bool{}
	for k := range rs.Runs {
		seen[k.Workload] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CollectOptions scopes an experiment campaign.
type CollectOptions struct {
	// Name labels the campaign for distributed execution and service
	// ledgers. Local collection ignores it; the distributed coordinator
	// auto-names anonymous campaigns.
	Name string
	// Workloads to run; nil means the validation set.
	Workloads []workload.Profile
	// Clusters to run on; nil means both.
	Clusters []string
	// Freqs per cluster; nil means the paper's Experiment-1 frequencies.
	Freqs map[string][]int
	// Fidelity selects the simulation tier for every run of the campaign.
	// The zero value is the detailed (bit-for-bit pinned) tier;
	// FidelityAtomic predicts runs from truncated anchor simulations at a
	// documented error bound. Atomic and detailed runs are cached and
	// job-addressed under distinct keys, so tiers never alias.
	Fidelity platform.Fidelity

	// Workers bounds the campaign's parallelism; 0 means GOMAXPROCS.
	// Every run is individually deterministic, so the worker count never
	// changes the collected data — only the wall time.
	Workers int
	// Cache, when non-nil, memoises runs under content-addressed keys
	// (see CacheKeyFidelity): a hit replays the archived measurement instead of
	// simulating. Warm-cache campaigns cost cache lookups only.
	Cache RunCache
	// Observer, when non-nil, receives per-run lifecycle callbacks and
	// the campaign's aggregate statistics.
	Observer CollectObserver
	// Tracer, when non-nil, records the campaign's phases as spans:
	// "collect" (the whole campaign) with a "plan" child, one root per
	// worker, and per-job "cache-get"/"simulate"/"cache-put" children.
	// The simulate span is passed into platform.RunSpan, so the
	// simulator's internal phases nest under it. Export the result with
	// Tracer.WriteChromeTrace.
	Tracer *obs.Tracer
	// Trace is the campaign's correlation identity (campaign ID, tenant)
	// for distributed execution: a coordinator stamps it — plus the job
	// ID and a Record flag derived from Tracer — onto every remote job so
	// worker log lines and returned spans attribute to the right tenant
	// campaign. Local collection ignores it; the zero value is anonymous.
	Trace obs.TraceContext
}

func (o *CollectOptions) fill(pl *platform.Platform) error {
	if !o.Fidelity.Valid() {
		return fmt.Errorf("core: invalid campaign fidelity %d", o.Fidelity)
	}
	if len(o.Workloads) == 0 {
		o.Workloads = workload.Validation()
	}
	if len(o.Clusters) == 0 {
		for _, cl := range pl.Config().Clusters {
			o.Clusters = append(o.Clusters, cl.Name)
		}
	}
	if o.Freqs == nil {
		o.Freqs = map[string][]int{}
	}
	for _, cl := range o.Clusters {
		if len(o.Freqs[cl]) == 0 {
			cc, err := pl.Cluster(cl)
			if err != nil {
				return err
			}
			var fs []int
			for _, f := range cc.Frequencies() {
				if cl == "a15" && f >= 2000 {
					continue // the paper excludes 2 GHz (thermal throttling)
				}
				fs = append(fs, f)
			}
			o.Freqs[cl] = fs
		}
	}
	return nil
}

// RunError is one failed run of a campaign.
type RunError struct {
	Key RunKey
	Err error
}

// Error implements error.
func (e RunError) Error() string { return fmt.Sprintf("%s: %v", e.Key, e.Err) }

// Unwrap exposes the underlying platform error.
func (e RunError) Unwrap() error { return e.Err }

// CollectError reports a campaign that did not complete: a run failed, or
// the context was cancelled. It preserves everything the campaign did
// finish so the caller can analyse or resume it — re-collecting with the
// same cache replays completed runs as hits and only re-simulates the
// failed and skipped jobs.
type CollectError struct {
	// Platform names the collected platform.
	Platform string
	// Failed lists the runs that errored; the first entry is the failure
	// that cancelled the campaign, later entries (if any) were already in
	// flight when it happened.
	Failed []RunError
	// Skipped lists jobs abandoned without being attempted.
	Skipped []RunKey
	// Cause carries the context's cancellation cause (context.Cause) when
	// cancellation rather than a run failure ended the campaign:
	// context.Canceled, context.DeadlineExceeded, or whatever error the
	// caller handed to its CancelCauseFunc. It participates in Unwrap, so
	// errors.Is(err, context.DeadlineExceeded) just works.
	Cause error
	// Partial holds every completed measurement.
	Partial *RunSet
}

// Error implements error.
func (e *CollectError) Error() string {
	done := 0
	if e.Partial != nil {
		done = len(e.Partial.Runs)
	}
	msg := fmt.Sprintf("core: campaign on %s incomplete: %d done, %d failed, %d skipped",
		e.Platform, done, len(e.Failed), len(e.Skipped))
	if len(e.Failed) > 0 {
		msg += fmt.Sprintf("; first failure: %v", e.Failed[0])
	}
	if e.Cause != nil {
		msg += fmt.Sprintf("; cancelled: %v", e.Cause)
	}
	return msg
}

// Unwrap exposes the run failures and the cancellation cause to
// errors.Is/errors.As.
func (e *CollectError) Unwrap() []error {
	errs := make([]error, 0, len(e.Failed)+1)
	for _, f := range e.Failed {
		errs = append(errs, f)
	}
	if e.Cause != nil {
		errs = append(errs, e.Cause)
	}
	return errs
}

// PlannedJob is one schedulable unit of a campaign: the workload profile
// to run, the run key naming the (workload, cluster, frequency) point,
// and — when the planning options carry a cache — the content-addressed
// cache key of the measurement. The distributed coordinator
// (internal/dist) ships PlannedJobs to remote workers; Collect feeds
// them to its local worker pool. Either way the job list is
// identical, which is what makes a distributed campaign bit-for-bit
// equivalent to a local one.
type PlannedJob struct {
	Profile workload.Profile
	Key     RunKey
	// CacheKey is the content-addressed run-cache key ("" when the
	// planning options had no cache; derive one with CacheKeyFidelity if needed).
	CacheKey string
}

// PlanCampaign fills opt's defaults against pl and expands it into the
// campaign's ordered job list. Jobs are ordered workload-major (workload,
// then cluster, then frequency), so each workload's jobs are contiguous
// and within them each (workload, cluster) DVFS sweep is too. Collect's
// workers claim those runs whole — a workload group, or a sweep when the
// campaign has fewer workloads than workers — so one SimContext sees a
// whole sweep and reuses its expanded stream, DVFS trace and atomic
// anchors. internal/dist still dispatches this list one job at a time.
// The ordering never changes the collected data — runs are independent
// and individually deterministic.
func PlanCampaign(pl *platform.Platform, opt *CollectOptions) ([]PlannedJob, error) {
	if err := opt.fill(pl); err != nil {
		return nil, err
	}
	cfg := pl.Config()
	clusterFP := map[string]string{}
	if opt.Cache != nil {
		// Fingerprint each cluster once so per-run cache keys are a hash
		// away.
		for _, cl := range opt.Clusters {
			cc, err := pl.Cluster(cl)
			if err != nil {
				return nil, err
			}
			clusterFP[cl] = cc.Fingerprint()
		}
	}
	var jobs []PlannedJob
	for _, prof := range opt.Workloads {
		var profJSON []byte
		if opt.Cache != nil {
			profJSON = profileKeyJSON(prof)
		}
		for _, cl := range opt.Clusters {
			for _, f := range opt.Freqs[cl] {
				j := PlannedJob{Profile: prof, Key: RunKey{Workload: prof.Name, Cluster: cl, FreqMHz: f}}
				if opt.Cache != nil {
					j.CacheKey = cacheKeyFromParts(cfg.Name, cfg.HasSensors, cl, clusterFP[cl], profJSON, f, opt.Fidelity)
				}
				jobs = append(jobs, j)
			}
		}
	}
	return jobs, nil
}

// Collect runs the campaign described by opt on pl and returns the run
// set. It reproduces Experiment 1 (and, on sensored platforms, 3 and 4 —
// the power data rides along with the PMU samples) or Experiment 2 when
// pl is a gem5 model, at the simulation tier selected by opt.Fidelity.
//
// Runs are independent simulations, so the campaign fans out across
// opt.Workers workers (GOMAXPROCS by default). A worker claims a whole
// workload group at a time, or a whole DVFS sweep when there are fewer
// workloads than workers (see claimBounds), so each sweep is recorded
// once and replayed at its other points. Every run is individually
// deterministic, so the resulting set is identical to a sequential
// collection (TestCollectDeterministicAcrossWorkerCounts asserts this
// byte-for-byte).
//
// The campaign stops early on the first run failure or when ctx is
// cancelled: workers finish the runs already in flight and then abandon
// the remaining jobs, the rest of their claimed units included, instead
// of burning CPU on a doomed campaign. In both cases the returned error
// is a *CollectError carrying the completed partial results, the failed
// runs and the skipped jobs.
func Collect(ctx context.Context, pl *platform.Platform, opt CollectOptions) (*RunSet, error) {
	start := time.Now()
	campaign := opt.Tracer.Start("collect", obs.String("platform", pl.Name()))
	defer campaign.End()
	planSpan := campaign.Child("plan")
	jobs, err := PlanCampaign(pl, &opt)
	if err != nil {
		planSpan.End()
		return nil, err
	}
	planSpan.Annotate(obs.Int("jobs", len(jobs)))
	planSpan.End()
	campaign.Annotate(obs.Int("jobs", len(jobs)))
	planTime := time.Since(start)

	observer := opt.Observer
	if observer != nil {
		observer.CollectStart(pl.Name(), len(jobs))
	}

	rs := &RunSet{Platform: pl.Name(), Runs: make(map[RunKey]platform.Measurement, len(jobs))}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	bounds := claimBounds(jobs, workers)
	if workers > len(bounds)-1 {
		workers = len(bounds) - 1
	}
	if workers < 1 {
		workers = 1
	}

	var (
		mu     sync.Mutex // guards rs.Runs and failed
		wg     sync.WaitGroup
		next   atomic.Int64
		stop   atomic.Bool // set on first failure or cancellation
		failed []RunError

		hits, sims     atomic.Int64
		cacheNS, simNS atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker traces on its own lane so concurrent runs render
			// side by side in Perfetto.
			ws := opt.Tracer.Start("worker", obs.Int("worker", w))
			defer ws.End()
			// Per-worker simulation context: hierarchies, predictors, core
			// scratch and expanded streams are reused across this worker's
			// jobs (Reset between runs), which removes nearly all per-run
			// allocation from the campaign.
			sim := platform.NewSimContext(pl)
			// jobs[i:end] is what remains of the worker's claimed unit. The
			// stop check runs before every job, not every unit, so a
			// failure or cancellation also abandons the rest of a claimed
			// unit; those jobs are reported skipped.
			i, end := 0, 0
			for {
				if stop.Load() || ctx.Err() != nil {
					return
				}
				if i == end {
					u := int(next.Add(1)) - 1
					if u >= len(bounds)-1 {
						return
					}
					i, end = bounds[u], bounds[u+1]
				}
				j := jobs[i]
				i++
				if opt.Cache != nil {
					// Span attributes are built only when tracing: evaluating
					// them unconditionally would pay a key-format and boxing
					// allocation per job even on untraced campaigns.
					var sp *obs.Span
					if ws != nil {
						sp = ws.Child("cache-get", obs.String("key", j.Key.String()))
					}
					t0 := time.Now()
					m, ok := opt.Cache.Get(j.CacheKey)
					cacheNS.Add(int64(time.Since(t0)))
					if sp != nil {
						sp.Annotate(obs.Bool("hit", ok))
						sp.End()
					}
					if ok {
						hits.Add(1)
						mu.Lock()
						rs.Runs[j.Key] = m
						mu.Unlock()
						if observer != nil {
							observer.CacheHit(j.Key)
						}
						continue
					}
				}
				if observer != nil {
					observer.RunStart(j.Key)
				}
				var sp *obs.Span
				if ws != nil {
					sp = ws.Child("simulate", obs.String("key", j.Key.String()))
				}
				t0 := time.Now()
				m, err := sim.RunFidelity(j.Profile, j.Key.Cluster, j.Key.FreqMHz, opt.Fidelity, sp)
				elapsed := time.Since(t0)
				sp.End()
				simNS.Add(int64(elapsed))
				if err != nil {
					err = fmt.Errorf("core: collecting %s on %s: %w", j.Key, pl.Name(), err)
					mu.Lock()
					failed = append(failed, RunError{Key: j.Key, Err: err})
					mu.Unlock()
					stop.Store(true)
					if observer != nil {
						observer.RunError(j.Key, err)
					}
					return
				}
				sims.Add(1)
				if opt.Cache != nil {
					var sp *obs.Span
					if ws != nil {
						sp = ws.Child("cache-put", obs.String("key", j.Key.String()))
					}
					t0 = time.Now()
					opt.Cache.Put(j.CacheKey, m)
					cacheNS.Add(int64(time.Since(t0)))
					sp.End()
				}
				mu.Lock()
				rs.Runs[j.Key] = m
				mu.Unlock()
				if observer != nil {
					observer.RunDone(j.Key, m, elapsed)
				}
			}
		}(w)
	}
	wg.Wait()

	var skipped []RunKey
	if stop.Load() || ctx.Err() != nil {
		attempted := make(map[RunKey]bool, len(failed))
		for _, f := range failed {
			attempted[f.Key] = true
		}
		for _, j := range jobs {
			if _, done := rs.Runs[j.Key]; !done && !attempted[j.Key] {
				skipped = append(skipped, j.Key)
			}
		}
	}

	if observer != nil {
		observer.CollectDone(CollectStats{
			Platform:  pl.Name(),
			Jobs:      len(jobs),
			Simulated: int(sims.Load()),
			CacheHits: int(hits.Load()),
			Errors:    len(failed),
			Skipped:   len(skipped),
			PlanTime:  planTime,
			CacheTime: time.Duration(cacheNS.Load()),
			SimTime:   time.Duration(simNS.Load()),
			WallTime:  time.Since(start),
		})
	}

	if len(failed) > 0 || ctx.Err() != nil {
		return nil, &CollectError{
			Platform: pl.Name(),
			Failed:   failed,
			Skipped:  skipped,
			// context.Cause, not ctx.Err(): a deadline-exceeded or
			// WithCancelCause campaign reports *why* it was cancelled, so
			// errors.Is(err, context.DeadlineExceeded) and custom causes
			// work without string matching.
			Cause:   context.Cause(ctx),
			Partial: rs,
		}
	}
	return rs, nil
}

// claimBounds splits the job list into the units a Collect worker claims
// whole, returning each unit's first job index followed by len(jobs). The
// unit is a workload group — the consecutive jobs of one workload across
// all its clusters and frequencies — so one worker's SimContext expands
// each workload once, records each DVFS sweep's trace once and replays it
// at the sweep's other points, and derives each atomic sweep's anchors
// once. A campaign with fewer workloads than workers falls back to
// (workload, cluster) sweeps so it still spreads across the workers.
func claimBounds(jobs []PlannedJob, workers int) []int {
	split := func(same func(a, b RunKey) bool) []int {
		var bounds []int
		for i := range jobs {
			if i == 0 || !same(jobs[i-1].Key, jobs[i].Key) {
				bounds = append(bounds, i)
			}
		}
		return append(bounds, len(jobs))
	}
	bounds := split(func(a, b RunKey) bool { return a.Workload == b.Workload })
	if len(bounds)-1 < workers {
		bounds = split(func(a, b RunKey) bool { return a.Workload == b.Workload && a.Cluster == b.Cluster })
	}
	return bounds
}

// Gem5Stats returns the gem5 statistics map of one model run — Experiment
// 2's stats.txt for that run.
func Gem5Stats(m platform.Measurement) map[string]float64 {
	return gem5.Stats(&m.Sample)
}

// PowerObservation converts a sensored measurement into a power-model
// training/validation observation.
func PowerObservation(m platform.Measurement) power.Observation {
	rates := make(map[pmu.Event]float64)
	for _, e := range pmu.AllEvents() {
		rates[e] = m.Sample.Rate(e)
	}
	return power.Observation{
		Workload: m.Workload, Cluster: m.Cluster,
		FreqMHz: m.FreqMHz, VoltageV: m.VoltageV,
		Rates: rates, PowerW: m.PowerWatts,
	}
}
