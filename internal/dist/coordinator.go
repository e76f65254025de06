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
	mDuplicates *obs.Counter

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

// acquire blocks until a slot is free or either cancel channel is
// closed, reporting whether the slot was taken.
func (sp *slotPool) acquire(cancelA, cancelB <-chan struct{}) bool {
	for {
		sp.mu.Lock()
		if sp.held < sp.limit {
			sp.held++
			sp.mu.Unlock()
			return true
		}
		wake := sp.wake
		sp.mu.Unlock()
		select {
		case <-wake:
		case <-cancelA:
			return false
		case <-cancelB:
			return false
		}
	}
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
		c.mDuplicates = reg.Counter("gemstone_dist_duplicates_total",
			"Responses discarded because the job had already been recorded.")
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
	name := opt.Name
	if name == "" {
		name = fmt.Sprintf("campaign-%d", c.seq.Add(1))
	}
	start := time.Now()
	root := opt.Tracer.Start("collect",
		obs.String("platform", pl.Name()), obs.String("campaign", name),
		obs.Bool("distributed", true))
	defer root.End()
	planSpan := root.Child("plan")
	jobs, err := core.PlanCampaign(pl, &opt)
	planSpan.Annotate(obs.Int("jobs", len(jobs)))
	planSpan.End()
	if err != nil {
		return nil, err
	}
	planTime := time.Since(start)

	spec, ok := SpecFor(pl)
	probeSpan := root.Child("probe", obs.Int("workers", len(c.cfg.Workers)))
	conns := c.probe(ctx)
	probeSpan.Annotate(obs.Int("alive", len(conns)))
	probeSpan.End()
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
		// End the distributed root before delegating: the local collector
		// starts its own fully-detailed "collect" root, and this span
		// should cover only the planning and probing that preceded the
		// degradation decision.
		root.Annotate(obs.Bool("degraded", true), obs.String("reason", reason))
		root.End()
		return core.Collect(ctx, pl, opt)
	}

	cp := &campaign{
		c:        c,
		id:       name,
		ctx:      ctx,
		pl:       pl,
		opt:      &opt,
		span:     root,
		jobs:     jobs,
		ids:      make([]string, len(jobs)),
		spec:     spec,
		fp:       pl.Config().Fingerprint(),
		conns:    conns,
		pending:  make(chan int, len(jobs)),
		local:    make(chan int, len(jobs)),
		done:     make(chan struct{}),
		stopCh:   make(chan struct{}),
		runs:     make(map[core.RunKey]platform.Measurement, len(jobs)),
		attempts: make([]int, len(jobs)),
		started:  make([]bool, len(jobs)),
		rng:      xrand.New(c.cfg.Seed),
	}
	for i, j := range jobs {
		if j.CacheKey != "" {
			cp.ids[i] = j.CacheKey
			continue
		}
		id, err := core.CacheKeyFidelity(pl, j.Profile, j.Key.Cluster, j.Key.FreqMHz, opt.Fidelity)
		if err != nil {
			return nil, err
		}
		cp.ids[i] = id
	}
	return cp.run(start, planTime)
}

// campaign is the per-Collect state machine. Job ownership is structural:
// an index lives in exactly one place at a time — the pending channel, the
// local channel, a retry timer, or a dispatch in flight — so the buffered
// channels never block and a job can never run twice concurrently on the
// coordinator's initiative. (Duplicate *responses* — chaos or a worker
// answering after its lease expired — are absorbed by record's idempotence
// guard instead.)
type campaign struct {
	c     *Coordinator
	id    string // lease-table key prefix and log tag
	ctx   context.Context
	pl    *platform.Platform
	opt   *core.CollectOptions
	span  *obs.Span // campaign root; nil-safe like the whole span API
	jobs  []core.PlannedJob
	ids   []string
	spec  PlatformSpec
	fp    string
	conns []*workerConn

	pending chan int
	local   chan int
	done    chan struct{}

	remaining atomic.Int64
	stop      atomic.Bool
	stopCh    chan struct{} // closed by fail; wakes every blocked loop
	stopOnce  sync.Once
	drainOnce sync.Once

	mu      sync.Mutex
	runs    map[core.RunKey]platform.Measurement
	failed  []core.RunError
	started []bool

	attempts []int // guarded by mu

	hits, remote, localRuns, dups atomic.Int64
	simNS, cacheNS                atomic.Int64

	rngMu sync.Mutex
	rng   *xrand.RNG
}

func (cp *campaign) observer() core.CollectObserver { return cp.opt.Observer }

func (cp *campaign) run(start time.Time, planTime time.Duration) (*core.RunSet, error) {
	if obsv := cp.observer(); obsv != nil {
		obsv.CollectStart(cp.pl.Name(), len(cp.jobs))
	}
	cp.remaining.Store(int64(len(cp.jobs)))

	// Cache pass: hits complete immediately, misses queue for dispatch.
	cacheSpan := cp.span.Child("cache-pass")
	for i := range cp.jobs {
		if cp.opt.Cache != nil {
			t0 := time.Now()
			m, ok := cp.opt.Cache.Get(cp.ids[i])
			cp.cacheNS.Add(int64(time.Since(t0)))
			if ok {
				cp.hits.Add(1)
				if cp.c.mJobs != nil {
					cp.c.mJobs.Inc("cache")
				}
				if obsv := cp.observer(); obsv != nil {
					obsv.CacheHit(cp.jobs[i].Key)
				}
				cp.mu.Lock()
				cp.runs[cp.jobs[i].Key] = m
				cp.mu.Unlock()
				cp.finish()
				continue
			}
		}
		cp.pending <- i
	}
	cacheSpan.Annotate(obs.Int64("hits", cp.hits.Load()))
	cacheSpan.End()
	cp.setQueueGauge()

	var wg sync.WaitGroup
	for _, w := range cp.conns {
		for s := 0; s < w.capacity; s++ {
			wg.Add(1)
			go func(w *workerConn, slot int) {
				defer wg.Done()
				cp.workerLoop(w, slot)
			}(w, s)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cp.localLoop()
	}()
	wg.Wait()
	cp.setQueueGauge()

	rs := &core.RunSet{Platform: cp.pl.Name(), Runs: cp.runs}
	cp.mu.Lock()
	failed := cp.failed
	cp.mu.Unlock()
	failedKeys := make(map[core.RunKey]bool, len(failed))
	for _, re := range failed {
		failedKeys[re.Key] = true
	}
	var skipped []core.RunKey
	for _, j := range cp.jobs {
		if _, ok := cp.runs[j.Key]; !ok && !failedKeys[j.Key] {
			skipped = append(skipped, j.Key)
		}
	}

	stats := core.CollectStats{
		Platform:  cp.pl.Name(),
		Jobs:      len(cp.jobs),
		Simulated: int(cp.remote.Load() + cp.localRuns.Load()),
		CacheHits: int(cp.hits.Load()),
		Errors:    len(failed),
		Skipped:   len(skipped),
		PlanTime:  planTime,
		CacheTime: time.Duration(cp.cacheNS.Load()),
		SimTime:   time.Duration(cp.simNS.Load()),
		WallTime:  time.Since(start),
	}
	if obsv := cp.observer(); obsv != nil {
		obsv.CollectDone(stats)
	}
	cp.c.logf().Info("distributed campaign done",
		"campaign", cp.id,
		"platform", stats.Platform, "jobs", stats.Jobs,
		"remote", cp.remote.Load(), "local", cp.localRuns.Load(),
		"cache_hits", stats.CacheHits, "duplicates", cp.dups.Load(),
		"errors", stats.Errors, "wall", stats.WallTime.Round(time.Millisecond).String())

	if len(failed) > 0 || cp.ctx.Err() != nil {
		return nil, &core.CollectError{
			Platform: cp.pl.Name(),
			Failed:   failed,
			Skipped:  skipped,
			Cause:    context.Cause(cp.ctx),
			Partial:  rs,
		}
	}
	return rs, nil
}

func (cp *campaign) setQueueGauge() {
	if cp.c.mQueue != nil {
		cp.c.mQueue.Set(float64(len(cp.pending)))
	}
}

// finish marks one job complete; the last one releases every loop.
func (cp *campaign) finish() {
	if cp.remaining.Add(-1) == 0 {
		close(cp.done)
	}
}

// record stores a measurement exactly once, reporting whether this call
// was the one that stored it. The duplicate guard makes completion
// idempotent: a chaos-duplicated response, or a worker answering after
// its lease expired and the job was reassigned, is counted and discarded
// instead of double-finishing the campaign. Both executions of a
// deterministic job carry identical bits, so dropping either copy
// preserves the equivalence contract — and callers drop the duplicate's
// trace spans on the same signal, so a job never renders twice.
func (cp *campaign) record(i int, m platform.Measurement, simTime time.Duration, mode string) bool {
	key := cp.jobs[i].Key
	cp.mu.Lock()
	if _, dup := cp.runs[key]; dup {
		cp.mu.Unlock()
		cp.dups.Add(1)
		if cp.c.mDuplicates != nil {
			cp.c.mDuplicates.Inc()
		}
		return false
	}
	cp.runs[key] = m
	cp.mu.Unlock()

	switch mode {
	case "remote":
		cp.remote.Add(1)
	case "local":
		cp.localRuns.Add(1)
	}
	if cp.c.mJobs != nil {
		cp.c.mJobs.Inc(mode)
	}
	cp.simNS.Add(int64(simTime))
	if cp.opt.Cache != nil {
		t0 := time.Now()
		cp.opt.Cache.Put(cp.ids[i], m)
		cp.cacheNS.Add(int64(time.Since(t0)))
	}
	if obsv := cp.observer(); obsv != nil {
		obsv.RunDone(key, m, simTime)
	}
	cp.finish()
	return true
}

// fail records a terminal run failure and stops the campaign, mirroring
// core.Collect's fail-fast: the remaining jobs become skipped.
func (cp *campaign) fail(i int, err error) {
	re := core.RunError{Key: cp.jobs[i].Key, Err: err}
	cp.mu.Lock()
	cp.failed = append(cp.failed, re)
	cp.mu.Unlock()
	cp.stop.Store(true)
	cp.stopOnce.Do(func() { close(cp.stopCh) })
	if obsv := cp.observer(); obsv != nil {
		obsv.RunError(re.Key, err)
	}
}

// runStartOnce fires the observer's RunStart exactly once per job, however
// many attempts it takes.
func (cp *campaign) runStartOnce(i int) {
	cp.mu.Lock()
	first := !cp.started[i]
	cp.started[i] = true
	cp.mu.Unlock()
	if first {
		if obsv := cp.observer(); obsv != nil {
			obsv.RunStart(cp.jobs[i].Key)
		}
	}
}

func (cp *campaign) aliveWorkers() int {
	n := 0
	for _, w := range cp.conns {
		if w.alive.Load() {
			n++
		}
	}
	return n
}

// workerLoop pulls pending jobs and dispatches them to one worker slot.
// When tracing, the slot owns a root span for the campaign's duration:
// per-dispatch children render on its lane, and the worker's own spans
// (imported under the worker's pid) nest inside the dispatch window.
func (cp *campaign) workerLoop(w *workerConn, slot int) {
	ws := cp.opt.Tracer.Start("slot",
		obs.String("worker", w.base), obs.Int("slot", slot))
	defer ws.End()
	for {
		if cp.stop.Load() || !w.alive.Load() {
			return
		}
		select {
		case <-cp.done:
			return
		case <-cp.stopCh:
			return
		case <-cp.ctx.Done():
			return
		case i := <-cp.pending:
			cp.setQueueGauge()
			if cp.stop.Load() {
				return
			}
			if !w.alive.Load() {
				// This slot was benched while blocked on the queue; hand
				// the job back without burning an attempt.
				cp.reroute(i)
				return
			}
			// Acquire a fleet-shared capacity slot before dispatching:
			// concurrent campaigns contend here, so the worker never sees
			// more in-flight requests than it advertised. The slot is
			// taken only while a job is in hand (never while idling on the
			// queue), so an idle campaign cannot starve a busy one.
			waitSpan := ws.Child("slot-wait")
			if !w.slots.acquire(cp.stopCh, cp.ctx.Done()) {
				waitSpan.End()
				return // campaign is failing or cancelled; i becomes a skipped job
			}
			waitSpan.End()
			cp.dispatch(w, i, ws)
			w.slots.release()
		}
	}
}

// reroute sends a job to another live worker, or to the local lane when
// none remain.
func (cp *campaign) reroute(i int) {
	if cp.aliveWorkers() == 0 {
		cp.local <- i
		return
	}
	cp.pending <- i
	cp.setQueueGauge()
}

// dispatch runs one remote attempt of job i on w and routes the outcome:
// success records, a terminal (simulation) failure stops the campaign, and
// a transport/server failure reschedules with exponential backoff and
// jitter — to any live worker, or locally once attempts are exhausted.
// ws is the slot's trace span (nil when untraced); the dispatch child it
// opens is the local-side window the worker's returned spans are clamped
// into, so a stitched trace nests worker activity inside the dispatch
// that provably contained it.
func (cp *campaign) dispatch(w *workerConn, i int, ws *obs.Span) {
	cp.runStartOnce(i)
	var dspan *obs.Span
	if ws != nil {
		dspan = ws.Child("dispatch", obs.String("job", cp.jobs[i].Key.String()))
	}
	cp.c.leaseAcquire(cp.id, cp.ids[i], w.base)
	m, simSec, batch, err := cp.runRemote(w, i)
	cp.c.leaseRelease(cp.id, cp.ids[i])

	if err == nil {
		w.fails.Store(0)
		st := cp.c.workerStat(w.base)
		cp.c.mu.Lock()
		st.Jobs++
		cp.c.mu.Unlock()
		fresh := cp.record(i, m, time.Duration(simSec*float64(time.Second)), "remote")
		dspan.Annotate(obs.Bool("recorded", fresh))
		dspan.End()
		// Import the worker's spans only for the response that actually
		// recorded: a duplicate completion (chaos, or a worker answering
		// after its lease expired) must not render the job twice.
		if fresh && batch != nil {
			cp.opt.Tracer.ImportProcess("worker "+w.base,
				batch.spans, batch.offset, batch.lo, batch.hi)
		}
		return
	}

	if isTerminal(err) {
		dspan.Annotate(obs.String("error", "terminal"))
		dspan.End()
		cp.fail(i, err)
		return
	}

	// Retryable failure: charge the worker and the job, then reschedule.
	dspan.Annotate(obs.String("error", "retry"))
	dspan.End()
	cp.noteWorkerFailure(w, err)
	if cp.c.mRetries != nil {
		cp.c.mRetries.Inc()
	}
	cp.mu.Lock()
	cp.attempts[i]++
	n := cp.attempts[i]
	cp.mu.Unlock()
	cp.c.logf().Warn("remote attempt failed",
		"campaign", cp.id, "job", cp.jobs[i].Key.String(),
		"worker", w.base, "attempt", n, "err", err)

	if n >= cp.c.cfg.MaxAttempts || cp.aliveWorkers() == 0 {
		cp.local <- i
		return
	}
	delay := cp.backoff(n)
	time.AfterFunc(delay, func() {
		if cp.stop.Load() {
			return
		}
		select {
		case <-cp.done:
			return
		case <-cp.ctx.Done():
			return
		default:
		}
		cp.pending <- i
		cp.setQueueGauge()
	})
}

// noteWorkerFailure charges a failed attempt to w; deadAfter consecutive
// failures bench it for the rest of the campaign. When the last live
// worker is benched, a drainer moves queued jobs to the local lane so
// nothing starves waiting for workers that will never answer.
func (cp *campaign) noteWorkerFailure(w *workerConn, err error) {
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
	if cp.aliveWorkers() == 0 {
		cp.drainOnce.Do(func() { go cp.drainToLocal() })
	}
}

// drainToLocal forwards every queued job to the local lane once no worker
// remains alive.
func (cp *campaign) drainToLocal() {
	for {
		select {
		case <-cp.done:
			return
		case <-cp.stopCh:
			return
		case <-cp.ctx.Done():
			return
		case i := <-cp.pending:
			if cp.stop.Load() {
				return
			}
			cp.local <- i
		}
	}
}

// localLoop is the coordinator-side fallback lane: jobs whose remote
// attempts are exhausted (or that lost every worker) simulate here on a
// reused SimContext, exactly as a local campaign would.
func (cp *campaign) localLoop() {
	ls := cp.opt.Tracer.Start("local-lane")
	defer ls.End()
	var sim *platform.SimContext // built on first use
	for {
		if cp.stop.Load() {
			return
		}
		select {
		case <-cp.done:
			return
		case <-cp.stopCh:
			return
		case <-cp.ctx.Done():
			return
		case i := <-cp.local:
			if cp.stop.Load() {
				return
			}
			cp.runStartOnce(i)
			if sim == nil {
				sim = platform.NewSimContext(cp.pl)
			}
			j := cp.jobs[i]
			// Attribute strings are built only when tracing (ls non-nil):
			// the key format allocates, and untraced campaigns must stay
			// allocation-free on this path.
			var sp *obs.Span
			if ls != nil {
				sp = ls.Child("simulate", obs.String("key", j.Key.String()))
			}
			t0 := time.Now()
			m, err := sim.RunFidelity(j.Profile, j.Key.Cluster, j.Key.FreqMHz, cp.opt.Fidelity, sp)
			sp.End()
			if err != nil {
				cp.fail(i, err)
				return
			}
			cp.record(i, m, time.Since(t0), "local")
		}
	}
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

// remoteError is a retryable worker-request failure, tagged for the
// gemstone_dist_http_errors_total metric.
type remoteError struct {
	kind string // conn | status | decode | proto | misroute | digest
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

// runRemote performs one HTTP attempt of job i against w under the lease
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
func (cp *campaign) runRemote(w *workerConn, i int) (platform.Measurement, float64, *workerSpanBatch, error) {
	j := cp.jobs[i]
	job := Job{
		Proto:      ProtoVersion,
		ID:         cp.ids[i],
		Spec:       cp.spec,
		PlatformFP: cp.fp,
		Profile:    j.Profile,
		Cluster:    j.Key.Cluster,
		FreqMHz:    j.Key.FreqMHz,
		Fidelity:   cp.opt.Fidelity,
	}
	if tc := cp.opt.Trace; tc.Correlated() || cp.opt.Tracer.Enabled() {
		if tc.Campaign == "" {
			tc.Campaign = cp.id
		}
		tc.Job = cp.ids[i]
		tc.Parent = "dispatch"
		tc.Record = cp.opt.Tracer.Enabled()
		job.Trace = tc
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(job); err != nil {
		return platform.Measurement{}, 0, nil, cp.httpErr("encode", err)
	}
	ctx, cancel := context.WithTimeout(cp.ctx, cp.c.cfg.RunTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+PathRun, bytes.NewReader(body.Bytes()))
	if err != nil {
		return platform.Measurement{}, 0, nil, cp.httpErr("encode", err)
	}
	req.Header.Set("Content-Type", contentType)

	sendT := time.Now()
	resp, err := cp.c.client.Do(req)
	if err != nil {
		kind := "conn"
		if ctx.Err() == context.DeadlineExceeded {
			kind = "lease-expired"
		}
		return platform.Measurement{}, 0, nil, cp.httpErr(kind, err)
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
		return platform.Measurement{}, 0, nil, cp.httpErr("status",
			fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg))))
	}

	var res RunResult
	if err := gob.NewDecoder(resp.Body).Decode(&res); err != nil {
		return platform.Measurement{}, 0, nil, cp.httpErr("decode", err)
	}
	recvT := time.Now()
	if res.Proto != ProtoVersion {
		return platform.Measurement{}, 0, nil, cp.httpErr("proto",
			fmt.Errorf("result protocol %d, want %d", res.Proto, ProtoVersion))
	}
	if res.ID != job.ID {
		return platform.Measurement{}, 0, nil, cp.httpErr("misroute",
			fmt.Errorf("result for %s, want %s", res.ID, job.ID))
	}
	m, err := res.Measurement()
	if err != nil {
		return platform.Measurement{}, 0, nil, cp.httpErr("digest", err)
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

func (cp *campaign) httpErr(kind string, err error) error {
	if cp.c.mHTTPErrors != nil {
		cp.c.mHTTPErrors.Inc(kind)
	}
	return &remoteError{kind: kind, err: err}
}
