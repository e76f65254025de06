package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gemstone/internal/core"
	"gemstone/internal/dist"
	"gemstone/internal/gem5"
	"gemstone/internal/hw"
	"gemstone/internal/ledger"
	"gemstone/internal/obs"
	"gemstone/internal/platform"
	"gemstone/internal/power"
)

// CollectFunc executes one platform half of a campaign. opt.Name
// attributes the work ("<campaign-id>/hw", "<campaign-id>/sim") in a
// distributed coordinator's logging, and opt.Fidelity carries the
// simulation tier. Tests install a stub here.
type CollectFunc func(ctx context.Context, pl *platform.Platform, opt core.CollectOptions) (*core.RunSet, error)

// Config assembles a campaign service.
type Config struct {
	// Coordinator, when non-nil, executes campaigns over a distributed
	// worker fleet; nil runs campaigns in-process.
	Coordinator *dist.Coordinator
	// Collector overrides campaign execution entirely (test seam);
	// when nil the coordinator (or local collection) is used.
	Collector CollectFunc
	// Cache memoises runs. It is shared across tenants but accessed
	// through per-tenant namespaces, so no tenant can replay another's
	// entries. Nil disables caching.
	Cache core.RunCache
	// Ledger, when non-nil, receives one provenance entry per completed
	// campaign, attributed with tenant and campaign ID.
	Ledger *ledger.Store
	// Registry, when non-nil, receives gemstone_serve_* metrics and the
	// per-route HTTP instrumentation.
	Registry *obs.Registry
	// TraceCampaigns, when true, gives every campaign its own fleet-wide
	// tracer: the coordinator stitches worker-side spans into it and
	// GET /v1/campaigns/{id}/trace serves the merged Chrome timeline once
	// the campaign is terminal. Traces live exactly as long as their
	// campaign (the retention cap evicts both together).
	TraceCampaigns bool
	// Log, when non-nil, receives service logging.
	Log *slog.Logger
	// MaxCampaigns bounds fleet-wide in-flight campaigns; 0 means 4,
	// negative means unlimited.
	MaxCampaigns int
	// TenantQuota bounds in-flight campaigns per tenant; 0 means 2,
	// negative means unlimited.
	TenantQuota int
	// MaxRetained bounds terminal (done or failed) campaigns kept in
	// memory across all tenants; when a campaign settles beyond the cap
	// the oldest terminal campaigns — and their run sets, analyses and
	// event histories — are evicted, so a long-running daemon's memory
	// is bounded by in-flight work plus a fixed archive window, not by
	// lifetime submissions. Evicted campaigns 404; clients that need an
	// archive longer download it (or re-submit: the run cache replays
	// it). 0 means 64, negative means retain forever.
	MaxRetained int
	// Workers bounds each campaign's local collection parallelism
	// (core.CollectOptions.Workers); 0 means GOMAXPROCS.
	Workers int
}

// DefaultMaxCampaigns, DefaultTenantQuota and DefaultMaxRetained are
// the zero-value admission and retention bounds.
const (
	DefaultMaxCampaigns = 4
	DefaultTenantQuota  = 2
	DefaultMaxRetained  = 64
)

// DefaultTenant is the tenant of requests without an X-Gemstone-Tenant
// header.
const DefaultTenant = "default"

// TenantHeader carries the tenant identifier.
const TenantHeader = "X-Gemstone-Tenant"

// tenantRE constrains tenant identifiers: they appear in cache
// namespaces, metric labels and ledger entries, so keep them to a safe
// token alphabet.
var tenantRE = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// Server is the campaign service. Create with New, mount Handler, and
// Close to stop accepting work and wait for running campaigns.
type Server struct {
	cfg    Config
	log    *slog.Logger // cfg.Log, or a discarding logger
	mux    *http.ServeMux
	ctx    context.Context
	cancel context.CancelCauseFunc
	wg     sync.WaitGroup
	seq    atomic.Int64

	mu        sync.Mutex
	closed    bool
	campaigns map[string]*Campaign
	order     []string // submission order, for listing
	active    int
	perTenant map[string]int

	started time.Time   // server start, for /v1/statusz uptime
	slo     *sloTracker // rolling per-tenant phase latencies

	cacheJobs atomic.Int64 // jobs observed across completed collects
	cacheHits atomic.Int64 // cache hits across completed collects

	mCampaigns *obs.Counter   // gemstone_serve_campaigns_total{tenant,outcome}
	mActive    *obs.Gauge     // gemstone_serve_campaigns_active{tenant}
	mQueue     *obs.Gauge     // gemstone_serve_queue_depth{tenant}
	mRejected  *obs.Counter   // gemstone_serve_rejected_total{tenant,reason}
	mEvents    *obs.Counter   // gemstone_serve_events_total{tenant,type}
	mEvicted   *obs.Counter   // gemstone_serve_evicted_total
	mSeconds   *obs.Histogram // gemstone_serve_campaign_seconds{tenant,outcome}
	mSLO       *obs.Histogram // gemstone_serve_slo_phase_seconds{tenant,phase}
}

// campaignDurationBounds buckets campaign wall time from warm-cache
// smoke campaigns to full multi-hour sweeps.
var campaignDurationBounds = []float64{
	0.1, 0.5, 2.5, 10, 60, 300, 1800, 7200, 28800,
}

// New builds a campaign service from cfg.
func New(cfg Config) *Server {
	if cfg.MaxCampaigns == 0 {
		cfg.MaxCampaigns = DefaultMaxCampaigns
	}
	if cfg.TenantQuota == 0 {
		cfg.TenantQuota = DefaultTenantQuota
	}
	if cfg.MaxRetained == 0 {
		cfg.MaxRetained = DefaultMaxRetained
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:       cfg,
		log:       cfg.Log,
		ctx:       ctx,
		cancel:    cancel,
		campaigns: make(map[string]*Campaign),
		perTenant: make(map[string]int),
		started:   time.Now(),
		slo:       newSLOTracker(),
	}
	if s.log == nil {
		s.log = obs.Discard
	}
	if reg := cfg.Registry; reg != nil {
		s.mCampaigns = reg.Counter("gemstone_serve_campaigns_total",
			"Campaigns accepted, by tenant and final outcome.", "tenant", "outcome")
		s.mActive = reg.Gauge("gemstone_serve_campaigns_active",
			"Campaigns currently pending or running, by tenant.", "tenant")
		s.mQueue = reg.Gauge("gemstone_serve_queue_depth",
			"Admitted campaigns not yet terminal, by tenant: the work the service still owes. "+
				"A load generator reconciling its latencies against the service uses this to "+
				"attribute tail latency to queueing rather than simulation.", "tenant")
		s.mRejected = reg.Counter("gemstone_serve_rejected_total",
			"Campaign submissions rejected by admission control, by tenant and reason.", "tenant", "reason")
		s.mEvents = reg.Counter("gemstone_serve_events_total",
			"Campaign stream events emitted, by tenant and event type.", "tenant", "type")
		s.mEvicted = reg.Counter("gemstone_serve_evicted_total",
			"Terminal campaigns evicted by the retention cap.")
		s.mSeconds = reg.Histogram("gemstone_serve_campaign_seconds",
			"Campaign wall time in seconds, by tenant and outcome.", campaignDurationBounds, "tenant", "outcome")
		s.mSLO = reg.Histogram("gemstone_serve_slo_phase_seconds",
			"Campaign time spent per SLO phase (queued, leased, simulating, collating), by tenant.",
			campaignDurationBounds, "tenant", "phase")
	}
	s.mux = s.routes()
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops admission, cancels running campaigns and waits for their
// goroutines. Event streams observe the terminal error frame first, so
// connected clients see a clean end of stream.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel(fmt.Errorf("serve: server closed"))
	s.wg.Wait()
	return nil
}

// routes assembles the Go 1.22 method/wildcard mux, wrapping each route
// in the registry's HTTP instrumentation and the request log when either
// is configured. The log correlator runs after the mux has matched, so
// path values are populated and every request line carries its tenant
// and (where the route has one) campaign ID alongside the request ID the
// middleware assigns.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	correlate := func(r *http.Request) []any {
		attrs := []any{"tenant", tenantLabel(r)}
		if id := r.PathValue("id"); id != "" {
			attrs = append(attrs, "campaign", id)
		}
		return attrs
	}
	handle := func(method, route string, h http.HandlerFunc) {
		var wrapped http.Handler = h
		if s.cfg.Registry != nil || s.cfg.Log != nil {
			wrapped = obs.InstrumentHandlerLog(s.cfg.Registry, "gemstone_serve", route,
				wrapped, s.cfg.Log, correlate)
		}
		mux.Handle(method+" "+route, wrapped)
	}
	handle("POST", "/v1/campaigns", s.handleSubmit)
	handle("GET", "/v1/campaigns", s.handleList)
	handle("GET", "/v1/campaigns/{id}", s.handleStatus)
	handle("DELETE", "/v1/campaigns/{id}", s.handleDelete)
	handle("GET", "/v1/campaigns/{id}/events", s.handleEvents)
	handle("GET", "/v1/campaigns/{id}/validation", s.handleValidation)
	handle("GET", "/v1/campaigns/{id}/clusters", s.handleClusters)
	handle("GET", "/v1/campaigns/{id}/power", s.handlePower)
	handle("GET", "/v1/campaigns/{id}/archive/{set}", s.handleArchive)
	handle("GET", "/v1/campaigns/{id}/trace", s.handleTrace)
	handle("GET", "/v1/statusz", s.handleStatusz)
	handle("GET", "/readyz", s.handleReady)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	if s.cfg.Registry != nil {
		mux.Handle("GET /metrics", s.cfg.Registry.Handler())
	}
	return mux
}

// tenantLabel is the tenant for logging and metric labels: the header
// when it is well-formed, DefaultTenant when absent, "invalid" when
// malformed — so an abusive header can never mint unbounded label
// values.
func tenantLabel(r *http.Request) string {
	t := r.Header.Get(TenantHeader)
	switch {
	case t == "":
		return DefaultTenant
	case tenantRE.MatchString(t):
		return t
	default:
		return "invalid"
	}
}

// apiError is the uniform error body.
type apiError struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, reason, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...), Reason: reason})
}

// tenant extracts and validates the request tenant; ok=false means the
// response has been written.
func (s *Server) tenant(w http.ResponseWriter, r *http.Request) (string, bool) {
	t := r.Header.Get(TenantHeader)
	if t == "" {
		return DefaultTenant, true
	}
	if !tenantRE.MatchString(t) {
		writeError(w, http.StatusBadRequest, "bad-tenant",
			"tenant must match %s", tenantRE.String())
		return "", false
	}
	return t, true
}

// lookup resolves a campaign for the requesting tenant. A campaign
// owned by another tenant is indistinguishable from a missing one —
// 404, never 403 — so the ID space leaks nothing across tenants.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request, tenant string) (*Campaign, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	c := s.campaigns[id]
	s.mu.Unlock()
	if c == nil || c.Tenant != tenant {
		writeError(w, http.StatusNotFound, "", "no campaign %q", id)
		return nil, false
	}
	return c, true
}

// statusBody is the campaign resource representation.
type statusBody struct {
	ID      string        `json:"id"`
	Tenant  string        `json:"tenant"`
	State   State         `json:"state"`
	Created time.Time     `json:"created"`
	Spec    *CampaignSpec `json:"spec"`
	Error   string        `json:"error,omitempty"`
}

func campaignStatus(c *Campaign) statusBody {
	b := statusBody{
		ID: c.ID, Tenant: c.Tenant, State: c.State(),
		Created: c.Created, Spec: c.Spec,
	}
	if err := c.Err(); err != nil {
		b.Error = err.Error()
	}
	return b
}

// handleSubmit is POST /v1/campaigns: decode, admit, start.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.tenant(w, r)
	if !ok {
		return
	}
	spec, err := ParseCampaignSpec(r.Body)
	if err != nil {
		switch {
		case errors.Is(err, ErrMalformed):
			writeError(w, http.StatusBadRequest, "malformed", "%v", err)
		default:
			writeError(w, http.StatusUnprocessableEntity, "invalid", "%v", err)
		}
		return
	}

	id := fmt.Sprintf("c-%06d", s.seq.Add(1))
	c := newCampaign(id, tenant, spec)
	if s.cfg.TraceCampaigns {
		c.tracer = obs.NewTracer()
	}

	s.mu.Lock()
	switch {
	case s.closed:
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "closed", "server is shutting down")
		return
	case s.cfg.MaxCampaigns > 0 && s.active >= s.cfg.MaxCampaigns:
		s.mu.Unlock()
		s.rejected(tenant, "capacity")
		writeError(w, http.StatusTooManyRequests, "capacity",
			"%d campaigns in flight (limit %d)", s.cfg.MaxCampaigns, s.cfg.MaxCampaigns)
		return
	case s.cfg.TenantQuota > 0 && s.perTenant[tenant] >= s.cfg.TenantQuota:
		s.mu.Unlock()
		s.rejected(tenant, "tenant-quota")
		writeError(w, http.StatusTooManyRequests, "tenant-quota",
			"tenant %q has %d campaigns in flight (quota %d)", tenant, s.cfg.TenantQuota, s.cfg.TenantQuota)
		return
	}
	s.campaigns[id] = c
	s.order = append(s.order, id)
	s.active++
	s.perTenant[tenant]++
	// The waitgroup add happens under mu, so Close (which sets closed
	// under the same lock before waiting) can never miss a campaign
	// admitted concurrently.
	s.wg.Add(1)
	s.mu.Unlock()
	if s.mActive != nil {
		s.mActive.Add(1, tenant)
	}
	if s.mQueue != nil {
		s.mQueue.Add(1, tenant)
	}

	s.emit(c, Event{Type: "submitted"})
	go s.runCampaign(c)

	s.log.Info("campaign accepted", "campaign", id, "tenant", tenant,
		"cluster", spec.Cluster, "workloads", len(spec.Workloads), "freqs", len(spec.FreqsMHz))
	w.Header().Set("Location", "/v1/campaigns/"+id)
	writeJSON(w, http.StatusAccepted, campaignStatus(c))
}

func (s *Server) rejected(tenant, reason string) {
	if s.mRejected != nil {
		s.mRejected.Inc(tenant, reason)
	}
}

// handleList is GET /v1/campaigns: the tenant's campaigns, submission
// order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.tenant(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	var out []statusBody
	for _, id := range s.order {
		if c := s.campaigns[id]; c != nil && c.Tenant == tenant {
			out = append(out, campaignStatus(c))
		}
	}
	s.mu.Unlock()
	if out == nil {
		out = []statusBody{}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleStatus is GET /v1/campaigns/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.tenant(w, r)
	if !ok {
		return
	}
	c, ok := s.lookup(w, r, tenant)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, campaignStatus(c))
}

// handleDelete is DELETE /v1/campaigns/{id}: release a terminal
// campaign's results and event history ahead of the retention cap.
// Running campaigns 409 — cancellation is not part of the surface, so
// an admission slot can never be freed by deleting its campaign.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.tenant(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	s.mu.Lock()
	c := s.campaigns[id]
	if c == nil || c.Tenant != tenant {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "", "no campaign %q", id)
		return
	}
	if !c.State().Terminal() {
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "not-done",
			"campaign is %s; only terminal campaigns can be deleted", c.State())
		return
	}
	delete(s.campaigns, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	s.log.Info("campaign deleted", "campaign", id, "tenant", tenant)
	w.WriteHeader(http.StatusNoContent)
}

// handleEvents is GET /v1/campaigns/{id}/events: the SSE stream. The
// full event history replays from the start, then frames stream live
// until the campaign reaches a terminal state, whose frame ("done" or
// "error") is always the last thing written.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.tenant(w, r)
	if !ok {
		return
	}
	c, ok := s.lookup(w, r, tenant)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "", "streaming unsupported")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	cursor := 0
	for {
		tail, notify, state := c.snapshot(cursor)
		for _, e := range tail {
			data, err := json.Marshal(e)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", e.Type, e.Seq, data); err != nil {
				return
			}
			cursor++
			if e.Type == "done" || e.Type == "error" {
				// The terminal frame is always the stream's last write:
				// close immediately so exactly one is ever delivered.
				flusher.Flush()
				return
			}
		}
		flusher.Flush()
		// Backstop: complete/failWith append the terminal frame and set
		// the terminal state under one campaign mutex hold, so a terminal
		// state with nothing left to drain means the terminal frame was
		// already written above — never that it is still in flight.
		if state.Terminal() && len(tail) == 0 {
			return
		}
		if len(tail) > 0 {
			continue // drain before blocking: state may already be terminal
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			// Server shutdown: the campaign's error frame (appended by
			// runCampaign before it exits) arrives via notify; give it a
			// bounded grace period, then cut the stream.
			select {
			case <-notify:
			case <-time.After(2 * time.Second):
				return
			}
		}
	}
}

// needDone gates the analysis endpoints: 409 until the campaign has
// completed successfully.
func (s *Server) needDone(w http.ResponseWriter, c *Campaign) (*core.RunSet, *core.RunSet, *core.ValidationSummary, bool) {
	hwSet, simSet, vs, ok := c.results()
	if !ok {
		st := c.State()
		if st == StateFailed {
			writeError(w, http.StatusConflict, "failed", "campaign failed: %v", c.Err())
		} else {
			writeError(w, http.StatusConflict, "not-done", "campaign is %s", st)
		}
		return nil, nil, nil, false
	}
	return hwSet, simSet, vs, true
}

// handleValidation is GET /v1/campaigns/{id}/validation: the Section IV
// summary (cached from campaign completion).
func (s *Server) handleValidation(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.tenant(w, r)
	if !ok {
		return
	}
	c, ok := s.lookup(w, r, tenant)
	if !ok {
		return
	}
	_, _, vs, ok := s.needDone(w, c)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, vs)
}

// handleClusters is GET /v1/campaigns/{id}/clusters?k=N: the Fig. 3
// workload clustering at the spec's analysis frequency.
func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.tenant(w, r)
	if !ok {
		return
	}
	c, ok := s.lookup(w, r, tenant)
	if !ok {
		return
	}
	hwSet, simSet, _, ok := s.needDone(w, c)
	if !ok {
		return
	}
	k := min(8, len(c.Spec.Workloads))
	if q := r.URL.Query().Get("k"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "", "bad k %q", q)
			return
		}
		k = n
	}
	wc, err := core.ClusterWorkloads(hwSet, simSet, c.Spec.Cluster, c.Spec.FreqMHz, k)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "", "clustering: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, wc)
}

// handlePower is GET /v1/campaigns/{id}/power: a power model trained on
// the campaign's hardware runs (Section V), in the ledger's JSON shape.
func (s *Server) handlePower(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.tenant(w, r)
	if !ok {
		return
	}
	c, ok := s.lookup(w, r, tenant)
	if !ok {
		return
	}
	hwSet, _, _, ok := s.needDone(w, c)
	if !ok {
		return
	}
	model, err := core.BuildPowerModel(hwSet, c.Spec.Cluster, power.BuildOptions{})
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "", "power model: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, ledger.PowerFromModel(model))
}

// handleArchive is GET /v1/campaigns/{id}/archive/{set}: the canonical
// gob archive of one run set ("hw" or "sim") — byte-for-byte what
// core.SaveRunSet of a local Collect of the same spec writes.
func (s *Server) handleArchive(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.tenant(w, r)
	if !ok {
		return
	}
	c, ok := s.lookup(w, r, tenant)
	if !ok {
		return
	}
	hwSet, simSet, _, ok := s.needDone(w, c)
	if !ok {
		return
	}
	var rs *core.RunSet
	switch r.PathValue("set") {
	case "hw":
		rs = hwSet
	case "sim":
		rs = simSet
	default:
		writeError(w, http.StatusNotFound, "", "no archive %q (want hw or sim)", r.PathValue("set"))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := core.SaveRunSet(w, rs); err != nil {
		s.log.Warn("archive write failed", "campaign", c.ID, "err", err)
	}
}

// emit appends an event to the campaign and counts it. Terminal frames
// never pass through here — complete/failWith append them atomically
// with the state transition, and the caller counts them via countEvent.
func (s *Server) emit(c *Campaign, e Event) {
	c.append(e)
	s.countEvent(c.Tenant, e.Type)
}

func (s *Server) countEvent(tenant, typ string) {
	if s.mEvents != nil {
		s.mEvents.Inc(tenant, typ)
	}
}

// collector resolves the campaign execution function: the configured
// stub, the distributed coordinator, or in-process collection.
func (s *Server) collector() CollectFunc {
	if s.cfg.Collector != nil {
		return s.cfg.Collector
	}
	if coord := s.cfg.Coordinator; coord != nil {
		return coord.Collect
	}
	return core.Collect
}

// runCampaign executes one campaign: hardware reference, then the gem5
// model, then eager validation, ledger provenance and the terminal
// event. It owns the campaign's terminal state transition.
func (s *Server) runCampaign(c *Campaign) {
	defer s.wg.Done()
	start := time.Now()
	// The fleet-wide campaign trace: root brackets the whole campaign;
	// the coordinator's collect spans and every worker's imported spans
	// nest under it. Nil c.tracer (tracing disabled) makes every span
	// call a no-op.
	root := c.tracer.Start("campaign",
		obs.String("campaign", c.ID), obs.String("tenant", c.Tenant))

	observer := &campaignObserver{
		emit:   func(e Event) { s.emit(c, e) },
		onDone: s.noteCollect,
	}
	outcome := "done"
	defer func() {
		// SLO phase accounting: queued + leased + simulating + collating
		// partition the campaign's lifetime. queued is admission to
		// goroutine start; collating is last collect completion to the
		// terminal transition (validation, ledger I/O, bookkeeping); the
		// observer measured the middle two.
		leased, simulating, lastDone := observer.phases()
		queued := start.Sub(c.Created)
		var collating time.Duration
		if !lastDone.IsZero() {
			collating = time.Since(lastDone)
		}
		s.noteSLO(c.Tenant, queued, leased, simulating, collating)
		s.settle(c, outcome, time.Since(start))
	}()

	c.setState(StateRunning)
	s.emit(c, Event{Type: "started"})

	cache := s.cfg.Cache
	if cache != nil {
		cache = core.NewNamespaceCache(c.Tenant, cache)
	}
	recorder := ledger.NewCampaignRecorder()
	collect := s.collector()

	baseOpt := func(name string) core.CollectOptions {
		opt := c.Spec.Options()
		opt.Name = c.ID + "/" + name
		opt.Cache = cache
		opt.Workers = s.cfg.Workers
		opt.Observer = core.MultiObserver(recorder, observer)
		opt.Tracer = c.tracer
		opt.Trace = obs.TraceContext{Campaign: c.ID, Tenant: c.Tenant}
		return opt
	}

	hwPl := hw.Platform()
	simPl := gem5.Platform(gem5.Version(c.Spec.Gem5Version))

	var hwSet, simSet *core.RunSet
	var screened *core.ScreenResult
	var err error
	if c.Spec.Screening() {
		// Screen mode: core.Screen drives both platforms itself (two
		// atomic sweeps, then detailed re-simulation of the flagged
		// points), all through the same collector, so distributed and
		// cached execution work unchanged.
		screened, err = core.Screen(s.ctx, hwPl, simPl, core.ScreenOptions{
			Options: baseOpt("screen"),
			Collect: collect,
		})
		if err == nil {
			hwSet, simSet = screened.HW, screened.Sim
			s.emit(c, Event{Type: "screened", Flagged: len(screened.Flagged)})
		}
	} else {
		hwSet, err = collect(s.ctx, hwPl, baseOpt("hw"))
		if err == nil {
			simSet, err = collect(s.ctx, simPl, baseOpt("sim"))
		}
	}
	if err == nil {
		collate := root.Child("collate")
		var vs *core.ValidationSummary
		vs, err = core.Validate(hwSet, simSet, c.Spec.Cluster)
		if err == nil {
			s.emit(c, Event{Type: "validated", MAPE: vs.MAPE})
			s.appendLedger(c, hwPl, simPl, hwSet, screened, recorder, vs)
			collate.End()
			// End the trace before the terminal transition commits:
			// /trace serves only terminal campaigns, so every span a
			// client can observe is complete.
			root.End()
			s.noteTerminal(c.Tenant, outcome)
			// The results, the terminal frame and the StateDone
			// transition commit atomically (after the ledger I/O), so
			// no event stream can observe a terminal campaign whose
			// "done" frame is not yet appended.
			c.complete(hwSet, simSet, vs, Event{Type: "done", MAPE: vs.MAPE})
			s.countEvent(c.Tenant, "done")
			s.log.Info("campaign done", "campaign", c.ID, "tenant", c.Tenant,
				"mape", vs.MAPE, "wall", time.Since(start))
			return
		}
		collate.End()
	}
	outcome = "failed"
	root.Annotate(obs.Bool("failed", true))
	root.End()
	s.noteTerminal(c.Tenant, outcome)
	c.failWith(err, Event{Type: "error", Error: err.Error()})
	s.countEvent(c.Tenant, "error")
	s.log.Warn("campaign failed", "campaign", c.ID, "tenant", c.Tenant, "err", err)
}

// noteTerminal counts a campaign's outcome and decrements the tenant's
// queue-depth gauge just before its terminal transition commits — not at
// settle, so the gauge tracks "work the service still owes a client",
// the quantity a load generator reconciles its own completion count
// against. Counting first means a client that has seen the terminal
// frame and then scrapes /metrics always finds its campaign counted, and
// so does a reader that sees the gauge drained and then reads the counter.
func (s *Server) noteTerminal(tenant, outcome string) {
	if s.mCampaigns != nil {
		s.mCampaigns.Inc(tenant, outcome)
	}
	if s.mQueue != nil {
		s.mQueue.Add(-1, tenant)
	}
}

// noteCollect folds one completed collect half into the server-wide
// cache accumulators surfaced by /v1/statusz.
func (s *Server) noteCollect(st core.CollectStats) {
	s.cacheJobs.Add(int64(st.Simulated + st.CacheHits))
	s.cacheHits.Add(int64(st.CacheHits))
}

// noteSLO records one campaign's phase split into the histogram and the
// rolling statusz window.
func (s *Server) noteSLO(tenant string, queued, leased, simulating, collating time.Duration) {
	phases := [...]struct {
		name string
		d    time.Duration
	}{
		{"queued", queued}, {"leased", leased},
		{"simulating", simulating}, {"collating", collating},
	}
	for _, p := range phases {
		if s.mSLO != nil {
			s.mSLO.Observe(p.d.Seconds(), tenant, p.name)
		}
		s.slo.observe(p.name, p.d)
	}
}

// settle releases the campaign's admission slot, applies the retention
// cap and records outcome metrics.
func (s *Server) settle(c *Campaign, outcome string, wall time.Duration) {
	s.mu.Lock()
	s.active--
	s.perTenant[c.Tenant]--
	if s.perTenant[c.Tenant] == 0 {
		delete(s.perTenant, c.Tenant)
	}
	evicted := s.evictLocked()
	s.mu.Unlock()
	if len(evicted) > 0 {
		if s.mEvicted != nil {
			s.mEvicted.Add(float64(len(evicted)))
		}
		s.log.Info("evicted terminal campaigns beyond retention cap",
			"evicted", evicted, "cap", s.cfg.MaxRetained)
	}
	if s.mActive != nil {
		s.mActive.Add(-1, c.Tenant)
	}
	if s.mSeconds != nil {
		s.mSeconds.Observe(wall.Seconds(), c.Tenant, outcome)
	}
}

// evictLocked enforces cfg.MaxRetained: while more terminal campaigns
// are retained than the cap allows, the oldest are dropped (in-flight
// campaigns are never touched — admission control bounds those). The
// caller holds s.mu; the returned IDs are for logging.
func (s *Server) evictLocked() []string {
	max := s.cfg.MaxRetained
	if max < 0 {
		return nil
	}
	terminal := 0
	for _, id := range s.order {
		if c := s.campaigns[id]; c != nil && c.State().Terminal() {
			terminal++
		}
	}
	if terminal <= max {
		return nil
	}
	var evicted []string
	kept := s.order[:0]
	for _, id := range s.order {
		c := s.campaigns[id]
		if terminal > max && c != nil && c.State().Terminal() {
			delete(s.campaigns, id)
			terminal--
			evicted = append(evicted, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
	return evicted
}

// appendLedger writes the campaign's provenance entry, attributed to
// tenant and campaign ID. It runs before the campaign's terminal
// transition (the "done" frame means the ledger write has already been
// attempted), and its failures are logged, never fatal.
func (s *Server) appendLedger(c *Campaign, hwPl, simPl *platform.Platform, hwSet *core.RunSet,
	screened *core.ScreenResult, recorder *ledger.CampaignRecorder, vs *core.ValidationSummary) {
	if s.cfg.Ledger == nil {
		return
	}
	man := ledger.NewManifest(hwPl, simPl, c.Spec.Gem5Version, c.Spec.Cluster, c.Spec.FreqMHz,
		c.Spec.Profiles(), hwSet, c.Spec.ResolvedFidelity(), screened, recorder)
	man.Tenant = c.Tenant
	man.CampaignID = c.ID
	entry := ledger.Entry{
		Manifest: man,
		Results:  ledger.ResultsFromValidation(vs, c.Spec.FreqMHz, nil),
	}
	if err := s.cfg.Ledger.Append(entry); err != nil {
		s.log.Warn("ledger append failed", "campaign", c.ID, "err", err)
	}
}
