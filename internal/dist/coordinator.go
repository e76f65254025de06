package dist

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gemstone/internal/core"
	"gemstone/internal/obs"
	"gemstone/internal/platform"
	"gemstone/internal/xrand"
)

// CoordinatorConfig tunes a Coordinator. The zero value of every field is
// usable: no workers means every campaign runs locally.
type CoordinatorConfig struct {
	// Workers lists worker base addresses ("host:port" or a full URL).
	Workers []string
	// Client issues all worker HTTP requests. Tests install a Chaos
	// transport here; nil means a private default client.
	Client *http.Client
	// ProbeTimeout bounds the per-worker hello probe; 0 means 5s.
	ProbeTimeout time.Duration
	// RunTimeout is the job lease: a dispatched job that has not answered
	// within it is reassigned. 0 means 2 minutes.
	RunTimeout time.Duration
	// MaxAttempts bounds remote attempts per job before the coordinator
	// simulates it locally. 0 means 3.
	MaxAttempts int
	// BackoffBase and BackoffMax shape retry delays: attempt n waits
	// BackoffBase<<(n-1), capped at BackoffMax, jittered ±50%. Zero means
	// 50ms base, 2s cap.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed seeds the deterministic jitter source; 0 means 1.
	Seed uint64
	// Registry, when non-nil, receives gemstone_dist_* metrics.
	Registry *obs.Registry
	// Log, when non-nil, receives coordinator logging.
	Log *slog.Logger
}

// WorkerStats is the per-worker provenance a coordinator accumulates
// across campaigns, recorded into the run ledger manifest.
type WorkerStats struct {
	// Addr is the worker's base URL.
	Addr string `json:"addr"`
	// Capacity is the parallelism the worker advertised at probe time.
	Capacity int `json:"capacity"`
	// Jobs counts measurements this worker contributed.
	Jobs int `json:"jobs"`
	// Retries counts failed attempts against this worker.
	Retries int `json:"retries"`
	// Alive reports whether the worker was healthy after its last campaign.
	Alive bool `json:"alive"`
}

// LeaseKey identifies one in-flight job assignment. Leases are keyed by
// (campaign, job), never by job alone: concurrent campaigns may schedule
// the identical content-addressed job (same platform, workload and DVFS
// point — hence the same ID) at the same time, and each campaign's lease
// must expire and reassign independently of the other's.
type LeaseKey struct {
	// Campaign is the campaign the assignment belongs to (see
	// CollectOptions.Name).
	Campaign string
	// Job is the content-addressed job ID (the run-cache key).
	Job string
}

// Lease records one in-flight job assignment.
type Lease struct {
	// Worker is the base URL of the worker holding the job.
	Worker string
	// Expires is when the lease times out and the job is reassigned.
	Expires time.Time
}

// Coordinator shards campaigns across remote workers. It is safe for
// concurrent campaigns over one shared fleet: each worker's advertised
// capacity is enforced by a shared slot pool (a campaign never opens
// request slots the fleet does not have), the lease table is keyed by
// (campaign, job) so identical jobs in overlapping campaigns cannot
// collide, and worker provenance accumulates across campaigns for the
// ledger.
type Coordinator struct {
	cfg    CoordinatorConfig
	client *http.Client
	log    *slog.Logger

	// Metrics are nil when no Registry was configured; every use is
	// nil-guarded so a bare Coordinator stays allocation-free on the
	// metrics path.
	mWorkerUp   *obs.Gauge
	mInflight   *obs.Gauge
	mQueue      *obs.Gauge
	mRetries    *obs.Counter
	mJobs       *obs.Counter
	mHTTPErrors *obs.Counter

	// seq names anonymous campaigns (Collect with an empty Name).
	seq atomic.Int64

	mu       sync.Mutex
	leases   map[LeaseKey]Lease
	stats    map[string]*WorkerStats
	slots    map[string]*slotPool
	degraded int
}

// slotPool bounds the coordinator-side request slots of one worker across
// every concurrent campaign. The limit is the worker's advertised
// parallelism: holding a slot is holding the right to have one request
// in flight against that worker. It is a resizable counting semaphore
// rather than a buffered channel so that when a restarted worker comes
// back advertising different parallelism the limit adjusts in place:
// slots held by campaigns probed under the old capacity keep counting
// against the new limit, and the fleet can never exceed the worker's
// current advertised capacity — not even transiently across old and new
// campaigns together.
type slotPool struct {
	mu    sync.Mutex
	limit int
	held  int
	wake  chan struct{} // closed and replaced whenever a slot may have freed
}

func newSlotPool(limit int) *slotPool {
	return &slotPool{limit: limit, wake: make(chan struct{})}
}

// free reports how many slots are free, with the channel that is closed
// when that may change; both are read under one lock, so a waiter that
// saw no free slot cannot miss the release that frees one.
func (sp *slotPool) free() (int, <-chan struct{}) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.limit - sp.held, sp.wake
}

// tryAcquire takes a slot if at least atLeast (≥ 1) are free, reporting
// whether it did.
func (sp *slotPool) tryAcquire(atLeast int) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.limit-sp.held < atLeast {
		return false
	}
	sp.held++
	return true
}

// release returns a slot and wakes every waiter (each re-checks under
// the lock, so a spurious wake-up costs one loop iteration, never a
// slot).
func (sp *slotPool) release() {
	sp.mu.Lock()
	sp.held--
	close(sp.wake)
	sp.wake = make(chan struct{})
	sp.mu.Unlock()
}

// setLimit adjusts the pool's capacity in place. Growing wakes waiters;
// shrinking below the held count revokes nothing — in-flight requests
// finish, and new acquisitions wait until enough slots release.
func (sp *slotPool) setLimit(limit int) {
	sp.mu.Lock()
	if limit != sp.limit {
		sp.limit = limit
		close(sp.wake)
		sp.wake = make(chan struct{})
	}
	sp.mu.Unlock()
}

// NewCoordinator builds a coordinator.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 5 * time.Second
	}
	if cfg.RunTimeout <= 0 {
		cfg.RunTimeout = 2 * time.Minute
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	c := &Coordinator{
		cfg:    cfg,
		client: cfg.Client,
		log:    cfg.Log,
		leases: make(map[LeaseKey]Lease),
		stats:  make(map[string]*WorkerStats),
		slots:  make(map[string]*slotPool),
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	if reg := cfg.Registry; reg != nil {
		c.mWorkerUp = reg.Gauge("gemstone_dist_worker_up",
			"Worker health: 1 when the last probe or request succeeded.", "worker")
		c.mInflight = reg.Gauge("gemstone_dist_inflight_leases",
			"Jobs currently leased to remote workers.")
		c.mQueue = reg.Gauge("gemstone_dist_queue_depth",
			"Jobs waiting for a worker slot.")
		c.mRetries = reg.Counter("gemstone_dist_retries_total",
			"Remote job attempts that failed and were rescheduled.")
		c.mJobs = reg.Counter("gemstone_dist_jobs_total",
			"Jobs finished, by execution mode.", "mode")
		c.mHTTPErrors = reg.Counter("gemstone_dist_http_errors_total",
			"Worker request failures, by kind.", "kind")
	}
	return c
}

// WorkerStats reports per-worker provenance accumulated across this
// coordinator's campaigns, sorted by address.
func (c *Coordinator) WorkerStats() []WorkerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerStats, 0, len(c.stats))
	for _, ws := range c.stats {
		out = append(out, *ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// DegradedCampaigns counts campaigns that ran fully locally because no
// worker answered the probe (or the platform had no wire spec).
func (c *Coordinator) DegradedCampaigns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded
}

// LiveWorkers probes every configured worker right now and reports how
// many answered with a compatible hello. Probe outcomes update the
// cached WorkerStats, so a readiness endpoint calling this keeps the
// fleet snapshot fresh as a side effect. The probe respects ctx as well
// as the configured ProbeTimeout.
func (c *Coordinator) LiveWorkers(ctx context.Context) int {
	return len(c.probe(ctx))
}

// Leases snapshots the in-flight lease table (tests and debugging).
func (c *Coordinator) Leases() map[LeaseKey]Lease {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[LeaseKey]Lease, len(c.leases))
	for k, l := range c.leases {
		out[k] = l
	}
	return out
}

func (c *Coordinator) leaseAcquire(campaign, job, worker string) {
	c.mu.Lock()
	c.leases[LeaseKey{Campaign: campaign, Job: job}] =
		Lease{Worker: worker, Expires: time.Now().Add(c.cfg.RunTimeout)}
	n := len(c.leases)
	c.mu.Unlock()
	if c.mInflight != nil {
		c.mInflight.Set(float64(n))
	}
}

func (c *Coordinator) leaseRelease(campaign, job string) {
	c.mu.Lock()
	delete(c.leases, LeaseKey{Campaign: campaign, Job: job})
	n := len(c.leases)
	c.mu.Unlock()
	if c.mInflight != nil {
		c.mInflight.Set(float64(n))
	}
}

// slotsFor returns the shared slot pool for a worker, resizing it in
// place when the advertised capacity changed (a restarted worker may
// come back with different parallelism). Pool identity is stable for a
// worker's lifetime, so campaigns probed under the old capacity and
// campaigns probed under the new one are counted by the same semaphore.
func (c *Coordinator) slotsFor(base string, capacity int) *slotPool {
	if capacity < 1 {
		capacity = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sp, ok := c.slots[base]
	if !ok {
		sp = newSlotPool(capacity)
		c.slots[base] = sp
	} else {
		sp.setLimit(capacity)
	}
	return sp
}

func (c *Coordinator) workerStat(addr string) *WorkerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws, ok := c.stats[addr]
	if !ok {
		ws = &WorkerStats{Addr: addr}
		c.stats[addr] = ws
	}
	return ws
}

func (c *Coordinator) logf() *slog.Logger {
	if c.log != nil {
		return c.log
	}
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// workerConn is one probed, healthy worker for the duration of a campaign.
// The alive flag and failure count are per-campaign (a worker benched by
// one campaign's faults is re-probed by the next); the slot pool is the
// fleet-shared capacity semaphore.
type workerConn struct {
	base     string // normalised base URL
	capacity int
	slots    *slotPool // shared across concurrent campaigns
	alive    atomic.Bool
	fails    atomic.Int32 // consecutive request failures
}

// deadAfter is the consecutive-failure count that marks a worker dead for
// the rest of the campaign. Two strikes: a single fault-injected hiccup
// must not bench a healthy worker, but a crashed one fails every request
// and is benched almost immediately.
const deadAfter = 2

func normalizeAddr(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimRight(addr, "/")
	}
	return "http://" + strings.TrimRight(addr, "/")
}

// noteProbe records a probe outcome in the shared per-worker stats.
// Campaigns probe concurrently, so the write happens under the
// coordinator lock like every other WorkerStats mutation.
func (c *Coordinator) noteProbe(base string, alive bool, capacity int) {
	st := c.workerStat(base)
	c.mu.Lock()
	st.Alive = alive
	if alive {
		st.Capacity = capacity
	}
	c.mu.Unlock()
}

// probe hellos every configured worker and returns the healthy ones.
func (c *Coordinator) probe(ctx context.Context) []*workerConn {
	var conns []*workerConn
	for _, addr := range c.cfg.Workers {
		base := normalizeAddr(addr)
		hello, err := c.hello(ctx, base)
		if err != nil {
			c.logf().Warn("worker probe failed", "worker", base, "err", err)
			if c.mWorkerUp != nil {
				c.mWorkerUp.Set(0, base)
			}
			c.noteProbe(base, false, 0)
			continue
		}
		if hello.Proto != ProtoVersion {
			c.logf().Warn("worker speaks a different protocol",
				"worker", base, "proto", hello.Proto, "want", ProtoVersion)
			if c.mWorkerUp != nil {
				c.mWorkerUp.Set(0, base)
			}
			c.noteProbe(base, false, 0)
			continue
		}
		if c.mWorkerUp != nil {
			c.mWorkerUp.Set(1, base)
		}
		c.noteProbe(base, true, hello.Capacity)
		conn := &workerConn{
			base:     base,
			capacity: hello.Capacity,
			slots:    c.slotsFor(base, hello.Capacity),
		}
		conn.alive.Store(true)
		conns = append(conns, conn)
	}
	return conns
}

func (c *Coordinator) hello(ctx context.Context, base string) (Hello, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+PathHello, nil)
	if err != nil {
		return Hello{}, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return Hello{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Hello{}, fmt.Errorf("dist: hello: status %s", resp.Status)
	}
	var h Hello
	if err := gob.NewDecoder(resp.Body).Decode(&h); err != nil {
		return Hello{}, fmt.Errorf("dist: decoding hello: %w", err)
	}
	return h, nil
}

// Collect runs a campaign across the configured workers. It is a drop-in
// replacement for core.Collect with the identical result contract: the
// returned RunSet (and its canonical archive bytes) are bit-for-bit what
// a local collection produces. When no worker answers the probe — or the
// platform cannot be named over the wire — it degrades to pure-local
// execution with no error.
//
// The campaign itself — claiming, the run cache, observer callbacks,
// statistics and failure bookkeeping — is core.CollectWith's; the
// coordinator is its Executor, with one lane per slot of advertised
// worker capacity (see campaign.run).
//
// opt.Name names the campaign: the name keys the campaign's leases and
// appears in coordinator logging, so a service scheduling concurrent
// campaigns (gemstone serve) can attribute in-flight work to the tenant
// campaign that owns it. Names must be unique among in-flight campaigns;
// an empty Name is auto-assigned.
//
// Collect may be called concurrently: campaigns share the worker fleet
// (per-worker capacity is enforced fleet-wide, so overlapping campaigns
// queue for slots instead of overloading workers).
func (c *Coordinator) Collect(ctx context.Context, pl *platform.Platform, opt core.CollectOptions) (*core.RunSet, error) {
	if opt.Name == "" {
		opt.Name = fmt.Sprintf("campaign-%d", c.seq.Add(1))
	}
	// The probe precedes the campaign's CollectStart, so an observer's
	// clock starts once the fleet is known.
	spec, ok := SpecFor(pl)
	probeSpan := opt.Tracer.Start("probe", obs.String("platform", pl.Name()),
		obs.String("campaign", opt.Name), obs.Int("workers", len(c.cfg.Workers)))
	conns := c.probe(ctx)
	probeSpan.Annotate(obs.Int("alive", len(conns)))
	if !ok || len(conns) == 0 {
		reason := "no workers available"
		if !ok {
			reason = "platform has no wire spec"
		}
		c.logf().Info("degrading campaign to local execution",
			"platform", pl.Name(), "reason", reason)
		c.mu.Lock()
		c.degraded++
		c.mu.Unlock()
		probeSpan.Annotate(obs.Bool("degraded", true), obs.String("reason", reason))
		probeSpan.End()
		return core.Collect(ctx, pl, opt)
	}
	probeSpan.End()

	cp := &campaign{
		c:     c,
		pl:    pl,
		opt:   opt,
		spec:  spec,
		fp:    pl.Config().Fingerprint(),
		conns: conns,
		rng:   xrand.New(c.cfg.Seed),
	}
	lanes := 0
	for _, w := range conns {
		lanes += max(w.capacity, 1)
	}
	opt.Observer = core.MultiObserver(opt.Observer, cp)
	return core.CollectWith(ctx, pl, opt, &core.Executor{Lanes: lanes, Run: cp.run})
}

// campaign is one Collect's executor state: the probed fleet and the
// retry jitter source. Each job is owned by the core lane that claimed it
// for its whole life, so nothing here tracks which jobs are done.
type campaign struct {
	c     *Coordinator
	pl    *platform.Platform
	opt   core.CollectOptions
	spec  PlatformSpec
	fp    string
	conns []*workerConn

	remote atomic.Int64 // jobs completed by a worker

	rngMu sync.Mutex
	rng   *xrand.RNG
}

// run is the campaign's core.Executor: it runs job on a live worker with
// a free slot (see acquire), retrying after each retryable failure with
// jittered backoff in between, and hands the job back to its lane
// (core.ErrRunLocally) once MaxAttempts attempts have failed or no worker
// is live. A simulation failure is terminal and returned as is. An
// attempt cut short by ctx charges no worker.
func (cp *campaign) run(ctx context.Context, lane int, j core.PlannedJob, span *obs.Span) (platform.Measurement, time.Duration, error) {
	id := j.CacheKey
	if id == "" {
		var err error
		if id, err = core.CacheKeyFidelity(cp.pl, j.Profile, j.Key.Cluster, j.Key.FreqMHz, cp.opt.Fidelity); err != nil {
			return platform.Measurement{}, 0, err
		}
	}
	for attempt := 1; ; {
		w, err := cp.acquire(ctx, lane, attempt, span)
		if err != nil {
			return platform.Measurement{}, 0, err
		}
		if w == nil {
			return platform.Measurement{}, 0, core.ErrRunLocally
		}
		if !w.alive.Load() {
			// Benched after acquire saw it live: try another worker
			// without burning an attempt.
			w.slots.release()
			continue
		}
		m, simTime, err := cp.dispatch(ctx, w, j, id, span)
		w.slots.release()
		if err == nil || isTerminal(err) {
			return m, simTime, err
		}
		if ctx.Err() != nil {
			return platform.Measurement{}, 0, context.Cause(ctx)
		}

		// Retryable failure: charge the worker, then retry elsewhere.
		cp.noteWorkerFailure(w, err)
		if cp.c.mRetries != nil {
			cp.c.mRetries.Inc()
		}
		cp.c.logf().Warn("remote attempt failed",
			"campaign", cp.opt.Name, "job", j.Key.String(),
			"worker", w.base, "attempt", attempt, "err", err)
		if attempt >= cp.c.cfg.MaxAttempts {
			return platform.Measurement{}, 0, core.ErrRunLocally
		}
		delay := time.NewTimer(cp.backoff(attempt))
		select {
		case <-delay.C:
		case <-ctx.Done():
			delay.Stop()
			return platform.Measurement{}, 0, context.Cause(ctx)
		}
		attempt++
	}
}

// acquire takes a fleet-shared request slot for a lane's attempt, so no
// worker sees more in-flight requests than it advertised however many
// campaigns dispatch to it. It takes the slot on the live worker with
// the most free slots, ties going to the first at or after worker lane
// (shifted by one per earlier attempt), which spreads lanes, retries and
// concurrent campaigns across the fleet. It blocks only while every live
// worker is full, and returns a nil worker when none is live, or ctx's
// cause once ctx is done — the campaign was cancelled or another run
// failed.
func (cp *campaign) acquire(ctx context.Context, lane, attempt int, span *obs.Span) (*workerConn, error) {
	wait := span.Child("slot-wait")
	defer wait.End()
	if cp.c.mQueue != nil {
		cp.c.mQueue.Add(1)
		defer cp.c.mQueue.Add(-1)
	}
	n := len(cp.conns)
	for {
		var (
			best     *workerConn
			bestFree int
			wakes    []reflect.SelectCase
		)
		for k := 0; k < n; k++ {
			w := cp.conns[(lane+attempt-1+k)%n]
			if !w.alive.Load() {
				continue
			}
			free, wake := w.slots.free()
			if free > bestFree {
				best, bestFree = w, free
			}
			wakes = append(wakes, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(wake)})
		}
		switch {
		case len(wakes) == 0:
			return nil, nil
		case best != nil:
			// Only if no lane took one of its slots since the scan: two lanes
			// choosing at once must not both land on one worker.
			if best.slots.tryAcquire(bestFree) {
				return best, nil
			}
			continue
		}
		wakes = append(wakes, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ctx.Done())})
		if i, _, _ := reflect.Select(wakes); i == len(wakes)-1 {
			return nil, context.Cause(ctx)
		}
	}
}

// dispatch runs one remote attempt of job j (wire ID id) on w under a
// lease. span is the lane's trace span (nil when untraced); the dispatch
// child it opens is the local-side window the worker's returned spans
// are clamped into, so a stitched trace nests worker activity inside the
// dispatch that provably contained it.
func (cp *campaign) dispatch(ctx context.Context, w *workerConn, j core.PlannedJob, id string, span *obs.Span) (platform.Measurement, time.Duration, error) {
	var dspan *obs.Span
	if span != nil {
		dspan = span.Child("dispatch", obs.String("job", j.Key.String()), obs.String("worker", w.base))
	}
	cp.c.leaseAcquire(cp.opt.Name, id, w.base)
	m, simSec, batch, err := cp.runRemote(ctx, w, j, id)
	cp.c.leaseRelease(cp.opt.Name, id)
	if err != nil {
		dspan.Annotate(obs.String("error", err.Error()))
		dspan.End()
		return m, 0, err
	}
	dspan.End()
	w.fails.Store(0)
	cp.remote.Add(1)
	st := cp.c.workerStat(w.base)
	cp.c.mu.Lock()
	st.Jobs++
	cp.c.mu.Unlock()
	if cp.c.mJobs != nil {
		cp.c.mJobs.Inc("remote")
	}
	if batch != nil {
		cp.opt.Tracer.ImportProcess("worker "+w.base, batch.spans, batch.offset, batch.lo, batch.hi)
	}
	return m, time.Duration(simSec * float64(time.Second)), nil
}

// noteWorkerFailure charges a failed attempt to w; deadAfter consecutive
// failures bench it for the rest of the campaign, and once every worker
// is benched the lanes simulate locally.
func (cp *campaign) noteWorkerFailure(w *workerConn, err error) {
	var re *remoteError
	if errors.As(err, &re) && cp.c.mHTTPErrors != nil {
		cp.c.mHTTPErrors.Inc(re.kind)
	}
	st := cp.c.workerStat(w.base)
	cp.c.mu.Lock()
	st.Retries++
	cp.c.mu.Unlock()
	if w.fails.Add(1) < deadAfter {
		return
	}
	if !w.alive.CompareAndSwap(true, false) {
		return
	}
	if cp.c.mWorkerUp != nil {
		cp.c.mWorkerUp.Set(0, w.base)
	}
	cp.c.mu.Lock()
	st.Alive = false
	cp.c.mu.Unlock()
	cp.c.logf().Warn("worker benched for this campaign", "worker", w.base, "err", err)
}

// backoff computes the jittered delay before attempt n+1.
func (cp *campaign) backoff(n int) time.Duration {
	d := cp.c.cfg.BackoffBase << (n - 1)
	if d > cp.c.cfg.BackoffMax || d <= 0 {
		d = cp.c.cfg.BackoffMax
	}
	cp.rngMu.Lock()
	f := 0.5 + cp.rng.Float64()
	cp.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// CollectDone implements core.CollectObserver: it folds the campaign's
// cache hits and local runs into gemstone_dist_jobs_total (remote jobs
// are counted as they complete) and logs the campaign.
func (cp *campaign) CollectDone(s core.CollectStats) {
	remote := int(cp.remote.Load())
	if cp.c.mJobs != nil {
		cp.c.mJobs.Add(float64(s.CacheHits), "cache")
		cp.c.mJobs.Add(float64(s.Simulated-remote), "local")
	}
	cp.c.logf().Info("distributed campaign done",
		"campaign", cp.opt.Name, "platform", s.Platform, "jobs", s.Jobs,
		"remote", remote, "local", s.Simulated-remote, "cache_hits", s.CacheHits,
		"errors", s.Errors, "wall", s.WallTime.Round(time.Millisecond).String())
}

// The campaign observes only its CollectDone.
func (cp *campaign) CollectStart(string, int)                                 {}
func (cp *campaign) RunStart(core.RunKey)                                     {}
func (cp *campaign) CacheHit(core.RunKey)                                     {}
func (cp *campaign) RunDone(core.RunKey, platform.Measurement, time.Duration) {}
func (cp *campaign) RunError(core.RunKey, error)                              {}

// remoteError is a retryable worker-request failure, tagged for the
// gemstone_dist_http_errors_total metric.
type remoteError struct {
	kind string // encode | conn | lease-expired | status | decode | proto | misroute | digest
	err  error
}

func (e *remoteError) Error() string { return fmt.Sprintf("dist: %s: %v", e.kind, e.err) }
func (e *remoteError) Unwrap() error { return e.err }

// simFailedError wraps a worker's 422: the simulation itself failed.
// Deterministic simulations fail everywhere, so this is terminal — the
// campaign stops instead of retrying, matching local Collect.
type simFailedError struct{ msg string }

func (e *simFailedError) Error() string { return e.msg }

func isTerminal(err error) bool {
	var sf *simFailedError
	return errors.As(err, &sf)
}

// workerSpanBatch is one job's worth of worker-side spans plus what the
// coordinator needs to place them on its own timeline: the estimated
// worker-minus-coordinator clock offset and the local dispatch window
// [lo, hi] that provably contains the worker's activity.
type workerSpanBatch struct {
	spans  []obs.SpanRecord
	offset time.Duration
	lo, hi time.Time
}

// runRemote performs one HTTP attempt of job j against w under the lease
// timeout, verifying protocol version, job identity and payload digest
// before trusting the measurement. When the job was traced and the worker
// returned spans, the non-nil batch carries them with a clock-offset
// estimate derived from the exchange's four timestamps (the coordinator's
// send/receive bracket the worker's receive/done, NTP-style):
//
//	offset = ((W0 - t0) + (W1 - t1)) / 2
//
// The symmetric-delay assumption can be off by half the round trip, so
// the importer additionally clamps every span into [t0, t1] — worker
// spans can therefore never escape the dispatch span that contains them,
// whatever the skew (including negative offsets).
func (cp *campaign) runRemote(ctx context.Context, w *workerConn, j core.PlannedJob, id string) (platform.Measurement, float64, *workerSpanBatch, error) {
	job := Job{
		Proto:      ProtoVersion,
		ID:         id,
		Spec:       cp.spec,
		PlatformFP: cp.fp,
		Profile:    j.Profile,
		Cluster:    j.Key.Cluster,
		FreqMHz:    j.Key.FreqMHz,
		Fidelity:   cp.opt.Fidelity,
	}
	if tc := cp.opt.Trace; tc.Correlated() || cp.opt.Tracer.Enabled() {
		if tc.Campaign == "" {
			tc.Campaign = cp.opt.Name
		}
		tc.Job = id
		tc.Parent = "dispatch"
		tc.Record = cp.opt.Tracer.Enabled()
		job.Trace = tc
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(job); err != nil {
		return platform.Measurement{}, 0, nil, &remoteError{"encode", err}
	}
	ctx, cancel := context.WithTimeout(ctx, cp.c.cfg.RunTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+PathRun, bytes.NewReader(body.Bytes()))
	if err != nil {
		return platform.Measurement{}, 0, nil, &remoteError{"encode", err}
	}
	req.Header.Set("Content-Type", contentType)

	sendT := time.Now()
	resp, err := cp.c.client.Do(req)
	if err != nil {
		kind := "conn"
		if ctx.Err() == context.DeadlineExceeded {
			kind = "lease-expired"
		}
		return platform.Measurement{}, 0, nil, &remoteError{kind, err}
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	switch resp.StatusCode {
	case http.StatusOK:
		// fall through to decoding
	case http.StatusUnprocessableEntity:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return platform.Measurement{}, 0, nil, &simFailedError{msg: strings.TrimSpace(string(msg))}
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return platform.Measurement{}, 0, nil, &remoteError{"status",
			fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))}
	}

	var res RunResult
	if err := gob.NewDecoder(resp.Body).Decode(&res); err != nil {
		return platform.Measurement{}, 0, nil, &remoteError{"decode", err}
	}
	recvT := time.Now()
	if res.Proto != ProtoVersion {
		return platform.Measurement{}, 0, nil, &remoteError{"proto",
			fmt.Errorf("result protocol %d, want %d", res.Proto, ProtoVersion)}
	}
	if res.ID != job.ID {
		return platform.Measurement{}, 0, nil, &remoteError{"misroute",
			fmt.Errorf("result for %s, want %s", res.ID, job.ID)}
	}
	m, err := res.Measurement()
	if err != nil {
		return platform.Measurement{}, 0, nil, &remoteError{"digest", err}
	}
	var batch *workerSpanBatch
	if len(res.Spans) > 0 && res.RecvUnixNano != 0 && res.DoneUnixNano != 0 {
		w0 := time.Unix(0, res.RecvUnixNano)
		w1 := time.Unix(0, res.DoneUnixNano)
		offset := (w0.Sub(sendT) + w1.Sub(recvT)) / 2
		batch = &workerSpanBatch{spans: res.Spans, offset: offset, lo: sendT, hi: recvT}
	}
	return m, res.SimSeconds, batch, nil
}
