package serve

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"

	"gemstone/internal/dist"
)

// sloWindow is the number of recent observations each phase's rolling
// percentile window retains. Campaigns are heavyweight (seconds to
// hours), so a few hundred covers days of typical service load while
// keeping the statusz percentile sort trivial.
const sloWindow = 256

// sloTracker keeps a rolling window of per-phase latencies for the
// /v1/statusz snapshot. The Prometheus histogram carries the full
// per-tenant distribution; this tracker answers the operator's "what
// are my percentiles right now" without a metrics pipeline.
type sloTracker struct {
	mu     sync.Mutex
	phases map[string]*sloRing
}

type sloRing struct {
	count int // lifetime observations
	max   time.Duration
	buf   []time.Duration // rolling window, insertion order
	next  int
}

func newSLOTracker() *sloTracker {
	return &sloTracker{phases: make(map[string]*sloRing)}
}

func (t *sloTracker) observe(phase string, d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.phases[phase]
	if r == nil {
		r = &sloRing{}
		t.phases[phase] = r
	}
	r.count++
	if d > r.max {
		r.max = d
	}
	if len(r.buf) < sloWindow {
		r.buf = append(r.buf, d)
	} else {
		r.buf[r.next] = d
		r.next = (r.next + 1) % sloWindow
	}
}

// sloPhaseSummary is one phase's rolling-window latency summary.
type sloPhaseSummary struct {
	Count int     `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// summary snapshots every phase. Percentiles are over the rolling
// window; Count and Max are lifetime.
func (t *sloTracker) summary() map[string]sloPhaseSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]sloPhaseSummary, len(t.phases))
	for name, r := range t.phases {
		window := append([]time.Duration(nil), r.buf...)
		sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
		pct := func(p float64) float64 {
			if len(window) == 0 {
				return 0
			}
			i := int(p * float64(len(window)-1))
			return float64(window[i]) / float64(time.Millisecond)
		}
		out[name] = sloPhaseSummary{
			Count: r.count,
			P50Ms: pct(0.50),
			P95Ms: pct(0.95),
			P99Ms: pct(0.99),
			MaxMs: float64(r.max) / float64(time.Millisecond),
		}
	}
	return out
}

// handleTrace is GET /v1/campaigns/{id}/trace: the campaign's merged
// fleet-wide Chrome trace (chrome://tracing / Perfetto JSON). 409 while
// the campaign is still running — the trace is complete only once the
// campaign is terminal — and 404 when the server runs without
// TraceCampaigns.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.tenant(w, r)
	if !ok {
		return
	}
	c, ok := s.lookup(w, r, tenant)
	if !ok {
		return
	}
	if c.tracer == nil {
		writeError(w, http.StatusNotFound, "untraced",
			"campaign tracing is disabled (start the server with tracing enabled)")
		return
	}
	if !c.State().Terminal() {
		writeError(w, http.StatusConflict, "not-done",
			"campaign is %s; the trace is available once it is terminal", c.State())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := c.tracer.WriteChromeTrace(w); err != nil {
		s.log.Warn("trace write failed", "campaign", c.ID, "err", err)
	}
}

// statuszBody is the /v1/statusz health and SLO snapshot.
type statuszBody struct {
	// Status is "ok", or "degraded" when a coordinator is configured and
	// no worker was alive after the last probe.
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Campaigns     struct {
		Active      int            `json:"active"`
		Retained    int            `json:"retained_terminal"`
		MaxRetained int            `json:"max_retained"`
		PerTenant   map[string]int `json:"per_tenant,omitempty"`
		// QueueDepth counts admitted-but-not-terminal campaigns per
		// tenant (the gemstone_serve_queue_depth gauge): the work the
		// service still owes. A reconciliation report attributes client
		// latency to queueing vs. simulation with it.
		QueueDepth map[string]int `json:"queue_depth,omitempty"`
	} `json:"campaigns"`
	Workers []dist.WorkerStats `json:"workers,omitempty"`
	Cache   struct {
		Jobs    int64   `json:"jobs"`
		Hits    int64   `json:"hits"`
		HitRate float64 `json:"hit_rate"`
	} `json:"cache"`
	SLO map[string]sloPhaseSummary `json:"slo"`
}

// handleStatusz is GET /v1/statusz: one JSON page answering "is the
// service healthy and is it meeting its latency objectives". It reads
// only cached state (the coordinator's last-probe worker stats, the
// rolling SLO window) so scraping it is always cheap; /readyz is the
// endpoint that actively probes the fleet.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	var body statuszBody
	body.Status = "ok"
	body.UptimeSeconds = time.Since(s.started).Seconds()

	s.mu.Lock()
	body.Campaigns.Active = s.active
	retained := 0
	queue := map[string]int{}
	for _, id := range s.order {
		c := s.campaigns[id]
		if c == nil {
			continue
		}
		if c.State().Terminal() {
			retained++
		} else {
			queue[c.Tenant]++
		}
	}
	body.Campaigns.Retained = retained
	if len(queue) > 0 {
		body.Campaigns.QueueDepth = queue
	}
	body.Campaigns.MaxRetained = s.cfg.MaxRetained
	if len(s.perTenant) > 0 {
		body.Campaigns.PerTenant = make(map[string]int, len(s.perTenant))
		for t, n := range s.perTenant {
			body.Campaigns.PerTenant[t] = n
		}
	}
	s.mu.Unlock()

	if coord := s.cfg.Coordinator; coord != nil {
		body.Workers = coord.WorkerStats()
		alive := 0
		for _, ws := range body.Workers {
			if ws.Alive {
				alive++
			}
		}
		if len(body.Workers) > 0 && alive == 0 {
			body.Status = "degraded"
		}
	}

	body.Cache.Jobs = s.cacheJobs.Load()
	body.Cache.Hits = s.cacheHits.Load()
	if body.Cache.Jobs > 0 {
		body.Cache.HitRate = float64(body.Cache.Hits) / float64(body.Cache.Jobs)
	}
	body.SLO = s.slo.summary()
	writeJSON(w, http.StatusOK, body)
}

// handleReady is GET /readyz, the readiness variant of /healthz: it
// actively probes the worker fleet and reports "degraded" — with a 200,
// because a degraded service still serves campaigns by falling back to
// local execution — when no worker answers. Orchestrators that want to
// gate on full capacity can match on the body's status field.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{"status": "ok"}
	if coord := s.cfg.Coordinator; coord != nil {
		ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
		live := coord.LiveWorkers(ctx)
		cancel()
		body["mode"] = "distributed"
		body["workers_live"] = live
		if live == 0 {
			body["status"] = "degraded"
			body["reason"] = "no live workers; campaigns degrade to local execution"
		}
	} else {
		body["mode"] = "local"
	}
	writeJSON(w, http.StatusOK, body)
}
