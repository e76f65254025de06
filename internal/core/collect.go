// Package core implements GemStone itself: the experiment orchestration of
// Fig. 1 (hardware characterisation, gem5 simulation, power
// characterisation), the data collation, and every analysis of Sections
// IV-VII — workload/event clustering, error correlation, error regression,
// matched-event comparison, power/energy error analysis, DVFS-scaling
// analysis and model-version comparison.
package core

import (
	"context"
	"errors"
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
	// Points, when non-empty, restricts the campaign to these points of
	// the Workloads × Clusters × Freqs grid, planned once each in grid
	// order; nil means the whole grid. A point outside the grid is a
	// planning error, not silently dropped. Screen re-simulates its
	// flagged points this way.
	Points []RunKey
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
	// The simulate span is passed into SimContext.RunFidelity, so the
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
// cache key of the measurement. CollectWith's lanes simulate
// PlannedJobs in this process or hand them to an Executor, such as the
// distributed coordinator (internal/dist) shipping them to remote
// workers. Either way the job list is identical, which is what makes a
// distributed campaign bit-for-bit equivalent to a local one.
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
// and within them each (workload, cluster) DVFS sweep is too.
// CollectWith's lanes claim those runs whole — a workload group, or a
// sweep when the campaign has fewer workloads than lanes — so a lane
// simulating locally reuses its SimContext's expanded stream, DVFS trace
// and atomic anchors across the sweep. The ordering never changes the
// collected data — runs are independent and individually deterministic.
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
	var planned map[RunKey]bool // per opt.Points entry: reached by the grid
	if len(opt.Points) > 0 {
		planned = make(map[RunKey]bool, len(opt.Points))
		for _, k := range opt.Points {
			planned[k] = false
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
				if planned != nil {
					if _, ok := planned[j.Key]; !ok {
						continue
					}
					planned[j.Key] = true
				}
				if opt.Cache != nil {
					j.CacheKey = cacheKeyFromParts(cfg.Name, cfg.HasSensors, cl, clusterFP[cl], profJSON, f, opt.Fidelity)
				}
				jobs = append(jobs, j)
			}
		}
	}
	for _, k := range opt.Points {
		if !planned[k] {
			return nil, fmt.Errorf("core: campaign point %s is not in the Workloads × Clusters × Freqs grid", k)
		}
	}
	return jobs, nil
}

// Executor runs a campaign's jobs somewhere other than the collecting
// process; the distributed coordinator (internal/dist) is the one
// implementation. It knows only how to run one job: CollectWith still
// owns the campaign — the claim loop, the run cache, the observer
// callbacks, the statistics and the failure bookkeeping — whoever
// executes the runs.
type Executor struct {
	// Lanes is how many jobs the executor can run at once; CollectWith
	// runs that many lanes in place of opt.Workers.
	Lanes int
	// Run executes job for lane and returns its measurement and
	// simulation time. span is the lane's trace span (nil when untraced).
	// ctx is done once the caller cancels the campaign or another run
	// fails; an attempt cut short by it returns promptly with any error,
	// and the job is reported skipped. ErrRunLocally makes the lane
	// simulate the job itself, at most opt.Workers such simulations at a
	// time; any other error fails the run.
	Run func(ctx context.Context, lane int, job PlannedJob, span *obs.Span) (platform.Measurement, time.Duration, error)
}

// ErrRunLocally is what Executor.Run returns to hand a job back to the
// lane that owns it, to be simulated in the collecting process.
var ErrRunLocally = errors.New("core: run locally")

// ErrCutShort is matched by the error of the RunError that ends a run
// the campaign abandoned after its RunStart, because the campaign was
// cancelled or another run failed; the error also matches the campaign's
// cancellation cause. The job is reported skipped, not failed.
var ErrCutShort = errors.New("core: run cut short")

// Collect runs the campaign described by opt on pl and returns the run
// set. It reproduces Experiment 1 (and, on sensored platforms, 3 and 4 —
// the power data rides along with the PMU samples) or Experiment 2 when
// pl is a gem5 model, at the simulation tier selected by opt.Fidelity.
// It is CollectWith without an executor.
func Collect(ctx context.Context, pl *platform.Platform, opt CollectOptions) (*RunSet, error) {
	return CollectWith(ctx, pl, opt, nil)
}

// CollectWith runs the campaign described by opt on pl, executing its
// simulations through ex, or in this process when ex is nil.
//
// Runs are independent simulations, so the campaign fans out across
// lanes: opt.Workers of them (GOMAXPROCS by default), or ex.Lanes. A
// local lane claims a whole workload group at a time, or a whole DVFS
// sweep when there are fewer workloads than lanes (see claimBounds), so
// each sweep is recorded once and replayed at its other points. An
// executor's lanes claim single jobs: a remote run costs one request
// whichever lane sends it, so per-job claims keep every lane busy. Each
// lane owns every job it claims from cache lookup to its last observer
// callback. Every run is individually deterministic, so the resulting
// set is identical to a sequential collection whatever the lane count
// or executor (TestCollectDeterministicAcrossWorkerCounts asserts this
// byte-for-byte, internal/dist's tests the distributed equivalence).
//
// The campaign stops early on the first run failure or when ctx is
// cancelled: local simulations already in flight finish, executor
// attempts in flight are cut short, and the lanes abandon the remaining
// jobs, the rest of their claimed units included, instead of burning CPU
// on a doomed campaign. In both cases the returned error is a
// *CollectError carrying the completed partial results, the failed runs
// and the skipped jobs.
func CollectWith(ctx context.Context, pl *platform.Platform, opt CollectOptions, ex *Executor) (*RunSet, error) {
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
	lanes := workers
	var (
		bounds []int
		// local bounds the jobs an executor hands back (ErrRunLocally)
		// to opt.Workers simulations at a time, however many lanes it has.
		local chan struct{}
	)
	if ex != nil {
		lanes = ex.Lanes
		local = make(chan struct{}, workers)
		bounds = make([]int, len(jobs)+1)
		for i := range bounds {
			bounds[i] = i
		}
	} else {
		bounds = claimBounds(jobs, lanes)
	}
	if lanes > len(bounds)-1 {
		lanes = len(bounds) - 1
	}
	if lanes < 1 {
		lanes = 1
	}

	// runCtx is done on the first failure as well as on cancellation, so
	// lanes and executor attempts stop on either.
	runCtx, stop := context.WithCancelCause(ctx)
	defer stop(nil)
	var (
		mu     sync.Mutex // guards rs.Runs and failed
		wg     sync.WaitGroup
		next   atomic.Int64
		failed []RunError

		hits, sims     atomic.Int64
		cacheNS, simNS atomic.Int64
	)
	// cutShort ends the RunStart of a job the campaign abandoned.
	cutShort := func(key RunKey) {
		if observer != nil {
			observer.RunError(key, fmt.Errorf("%w: %w", ErrCutShort, context.Cause(runCtx)))
		}
	}
	for w := 0; w < lanes; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker traces on its own lane so concurrent runs render
			// side by side in Perfetto.
			ws := opt.Tracer.Start("worker", obs.Int("worker", w))
			defer ws.End()
			// Per-worker simulation context, built on first use: hierarchies,
			// predictors, core scratch and expanded streams are reused across
			// this worker's jobs (Reset between runs), which removes nearly
			// all per-run allocation from the campaign.
			var sim *platform.SimContext
			// jobs[i:end] is what remains of the worker's claimed unit. The
			// stop check runs before every job, not every unit, so a
			// failure or cancellation also abandons the rest of a claimed
			// unit; those jobs are reported skipped.
			i, end := 0, 0
			for {
				if runCtx.Err() != nil {
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
				var (
					m       platform.Measurement
					elapsed time.Duration
				)
				err := ErrRunLocally // no executor: every job runs here
				if ex != nil {
					m, elapsed, err = ex.Run(runCtx, w, j, ws)
					if err != nil && runCtx.Err() != nil {
						// The job stays unrecorded and is reported
						// skipped, but its RunStart still ends.
						cutShort(j.Key)
						return
					}
				}
				if errors.Is(err, ErrRunLocally) {
					if local != nil {
						select {
						case local <- struct{}{}:
						case <-runCtx.Done():
							cutShort(j.Key)
							return
						}
					}
					if sim == nil {
						sim = platform.NewSimContext(pl)
					}
					var sp *obs.Span
					if ws != nil {
						sp = ws.Child("simulate", obs.String("key", j.Key.String()))
					}
					t0 := time.Now()
					m, err = sim.RunFidelity(j.Profile, j.Key.Cluster, j.Key.FreqMHz, opt.Fidelity, sp)
					elapsed = time.Since(t0)
					sp.End()
					if local != nil {
						<-local
					}
				}
				simNS.Add(int64(elapsed))
				if err != nil {
					err = fmt.Errorf("core: collecting %s on %s: %w", j.Key, pl.Name(), err)
					mu.Lock()
					failed = append(failed, RunError{Key: j.Key, Err: err})
					mu.Unlock()
					stop(err)
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
					t0 := time.Now()
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
	if runCtx.Err() != nil {
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

// claimBounds splits the job list into the units a CollectWith lane claims
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
