package load

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"gemstone/internal/obs"
)

// OpStats summarises one request class over the run. Latencies are
// client-observed end-to-end: from the intended arrival instant (open
// loop) or issue instant (closed loop) to the last byte — for
// campaigns, the terminal SSE frame.
type OpStats struct {
	Op       string `json:"op"`
	Issued   int    `json:"issued"`
	OK       int    `json:"ok"`
	Rejected int    `json:"rejected,omitempty"` // admission-control 429s
	Stale    int    `json:"stale,omitempty"`    // replay targets already evicted (404), pruned
	Errors   int    `json:"errors,omitempty"`

	ThroughputRPS float64 `json:"throughput_rps"`
	MeanMs        float64 `json:"mean_ms"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	P999Ms        float64 `json:"p999_ms"`
	MaxMs         float64 `json:"max_ms"`
}

// Check is one client/server reconciliation row: the same quantity
// measured from both sides of the wire, with the allowed gap. Counts
// reconcile exactly; latencies within Tolerance (plus server histogram
// bucket resolution for percentiles).
type Check struct {
	Name      string  `json:"name"`
	Client    float64 `json:"client"`
	Server    float64 `json:"server"`
	Tolerance float64 `json:"tolerance"` // allowed |client−server|, same unit
	OK        bool    `json:"ok"`
	Detail    string  `json:"detail,omitempty"`
}

// Report is one gemload run: per-op client-side stats plus the
// reconciliation against the server's own metrics. OK is the SLO
// verdict — every check passed and no campaign failed.
type Report struct {
	Mode            string  `json:"mode"` // "open" or "closed"
	Seed            uint64  `json:"seed"`
	Concurrency     int     `json:"concurrency"`
	RateHz          float64 `json:"rate_hz,omitempty"`
	Skew            float64 `json:"skew"`
	Tenants         int     `json:"tenants"`
	InvokeLength    int     `json:"invoke_length"`
	Mix             Mix     `json:"mix"`
	DurationSeconds float64 `json:"duration_seconds"` // actual wall incl. drain
	Backlog         int     `json:"backlog,omitempty"`

	Ops             []OpStats `json:"ops"`
	CampaignsDone   int       `json:"campaigns_done"`
	CampaignsFailed int       `json:"campaigns_failed"`
	LastError       string    `json:"last_error,omitempty"`

	Checks []Check `json:"checks"`
	OK     bool    `json:"ok"`

	Statusz json.RawMessage `json:"statusz,omitempty"`
}

// buildReport merges the worker shards and reconciles them against the
// base→cur server metrics delta.
func (d *Driver) buildReport(mode string, wall time.Duration, shards []*shard,
	backlog int, base, cur *Metrics, statusz json.RawMessage) *Report {
	r := &Report{
		Mode:            mode,
		Seed:            d.cfg.Seed,
		Concurrency:     d.cfg.Concurrency,
		RateHz:          d.cfg.RateHz,
		Skew:            d.cfg.Skew,
		Tenants:         d.cfg.Tenants,
		InvokeLength:    d.cfg.InvokeLength,
		Mix:             d.mix,
		DurationSeconds: wall.Seconds(),
		Backlog:         backlog,
		Statusz:         statusz,
	}

	merged := map[OpKind]*obs.HDR{}
	for _, k := range OpKinds {
		merged[k] = obs.NewHDR()
	}
	campaignHDR := obs.NewHDR() // cold+warm pooled, for the latency checks
	for _, sh := range shards {
		r.CampaignsDone += sh.done
		r.CampaignsFailed += sh.failed
		if sh.lastErr != nil {
			r.LastError = sh.lastErr.Error()
		}
		for _, k := range OpKinds {
			merged[k].Merge(sh.hdr[k])
			if k == OpCold || k == OpWarm {
				campaignHDR.Merge(sh.hdr[k])
			}
		}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, k := range OpKinds {
		var st OpStats
		st.Op = string(k)
		h := merged[k]
		for _, sh := range shards {
			st.Issued += sh.issued[k]
			st.OK += sh.okCount[k]
			st.Rejected += sh.rejected[k]
			st.Stale += sh.stale[k]
			st.Errors += sh.errs[k]
		}
		if st.Issued == 0 {
			continue
		}
		if wall > 0 {
			st.ThroughputRPS = float64(st.OK) / wall.Seconds()
		}
		if h.Count() > 0 {
			st.MeanMs = h.Mean() / float64(time.Millisecond)
			st.P50Ms = ms(h.QuantileDuration(0.50))
			st.P95Ms = ms(h.QuantileDuration(0.95))
			st.P99Ms = ms(h.QuantileDuration(0.99))
			st.P999Ms = ms(h.QuantileDuration(0.999))
			st.MaxMs = ms(time.Duration(h.Max()))
		}
		r.Ops = append(r.Ops, st)
	}

	r.Checks = d.reconcile(r, campaignHDR, base, cur)
	r.OK = r.CampaignsFailed == 0
	for _, c := range r.Checks {
		r.OK = r.OK && c.OK
	}
	return r
}

// tenantSum sums a metric delta over this run's tenant set, one label
// match per tenant so other tenants' traffic never pollutes the check.
func (d *Driver) tenantSum(base, cur *Metrics, name string, extra map[string]string) float64 {
	var total float64
	for i := 0; i < d.cfg.Tenants; i++ {
		match := map[string]string{"tenant": tenantName(i)}
		for k, v := range extra {
			match[k] = v
		}
		total += SumDelta(base, cur, name, match)
	}
	return total
}

// The client/server latency reconciliation tolerance: the client-observed
// number may differ from the server-reported one by reconcileRel
// (fraction) plus reconcileAbs (slack for HTTP, SSE delivery and
// scheduler jitter).
const (
	reconcileRel = 0.35
	reconcileAbs = 250 * time.Millisecond
)

// reconcile cross-checks the client-observed run against the server's
// gemstone_serve_* metrics delta:
//
//   - campaign outcome counts match the server's counters exactly —
//     every terminal frame the client saw must be a settled campaign,
//     and vice versa;
//   - the queue is drained: the final gemstone_serve_queue_depth over
//     this run's tenants is zero, so nothing the client submitted is
//     still owed;
//   - mean campaign latency agrees within the tolerance (client measures
//     POST→terminal frame, the server measures admit→settle; the gap is
//     HTTP plus SSE delivery);
//   - client percentiles land inside the server histogram's bucket
//     bounds for the same quantile, widened by the tolerance — the server
//     histogram is bucketed, so bounds are the honest comparison.
func (d *Driver) reconcile(r *Report, campaigns *obs.HDR, base, cur *Metrics) []Check {
	var checks []Check
	absS := reconcileAbs.Seconds()

	serverDone := d.tenantSum(base, cur, "gemstone_serve_campaigns_total", map[string]string{"outcome": "done"})
	serverFailed := d.tenantSum(base, cur, "gemstone_serve_campaigns_total", map[string]string{"outcome": "failed"})
	checks = append(checks,
		Check{
			Name: "campaigns-done", Client: float64(r.CampaignsDone), Server: serverDone,
			OK:     float64(r.CampaignsDone) == serverDone,
			Detail: "terminal done frames vs gemstone_serve_campaigns_total{outcome=done}",
		},
		Check{
			Name: "campaigns-failed", Client: float64(r.CampaignsFailed), Server: serverFailed,
			OK:     float64(r.CampaignsFailed) == serverFailed,
			Detail: "terminal error frames vs gemstone_serve_campaigns_total{outcome=failed}",
		})

	// Final queue depth over our tenants: cur only, not a delta — the
	// gauge must read zero once every submitted campaign is terminal.
	var depth float64
	for i := 0; i < d.cfg.Tenants; i++ {
		depth += cur.Sum("gemstone_serve_queue_depth", map[string]string{"tenant": tenantName(i)})
	}
	checks = append(checks, Check{
		Name: "queue-drained", Client: 0, Server: depth,
		OK:     depth == 0,
		Detail: "final gemstone_serve_queue_depth over the run's tenants",
	})

	if campaigns.Count() == 0 {
		return checks
	}

	clientMean := campaigns.Mean() / float64(time.Second)
	serverCount := SumDelta(base, cur, "gemstone_serve_campaign_seconds_count", map[string]string{"outcome": "done"})
	serverSum := SumDelta(base, cur, "gemstone_serve_campaign_seconds_sum", map[string]string{"outcome": "done"})
	if serverCount > 0 {
		serverMean := serverSum / serverCount
		allowed := reconcileRel*serverMean + absS
		checks = append(checks, Check{
			Name: "latency-mean-s", Client: clientMean, Server: serverMean,
			Tolerance: allowed,
			OK:        math.Abs(clientMean-serverMean) <= allowed,
			Detail:    "mean campaign seconds, client POST→done vs server admit→settle",
		})
	}
	for _, q := range []float64{0.50, 0.95, 0.99} {
		lo, hi, ok := HistogramQuantileDelta(base, cur, "gemstone_serve_campaign_seconds",
			map[string]string{"outcome": "done"}, q)
		if !ok {
			continue
		}
		clientQ := campaigns.QuantileDuration(q).Seconds()
		// The server histogram resolves this quantile to [lo, hi]; the
		// client number must land inside, widened by the tolerance. hi
		// is +Inf when the quantile falls in the overflow bucket — only
		// the lower bound binds there.
		pass := clientQ >= lo-reconcileRel*lo-absS
		if !math.IsInf(hi, 1) {
			pass = pass && clientQ <= hi+reconcileRel*hi+absS
		}
		checks = append(checks, Check{
			Name:   fmt.Sprintf("latency-p%g-s", q*100),
			Client: clientQ, Server: hi, Tolerance: reconcileRel*hi + absS,
			OK:     pass,
			Detail: fmt.Sprintf("client p%g vs server bucket [%g, %g]", q*100, lo, hi),
		})
	}
	return checks
}

// String renders the operator-facing run summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "gemload %s-loop", r.Mode)
	if r.RateHz > 0 {
		fmt.Fprintf(&b, " rate=%.4g/s", r.RateHz)
	}
	fmt.Fprintf(&b, " conc=%d tenants=%d skew=%.4g invoke=%d seed=%d wall=%.2fs\n",
		r.Concurrency, r.Tenants, r.Skew, r.InvokeLength, r.Seed, r.DurationSeconds)
	if r.Backlog > 0 {
		fmt.Fprintf(&b, "  backlog: %d scheduled arrivals never issued (scheduler outran workers)\n", r.Backlog)
	}
	fmt.Fprintf(&b, "  %-9s %7s %7s %7s %6s %6s %9s %9s %9s %9s %9s\n",
		"op", "issued", "ok", "reject", "stale", "err", "rps", "p50ms", "p95ms", "p99ms", "maxms")
	for _, op := range r.Ops {
		fmt.Fprintf(&b, "  %-9s %7d %7d %7d %6d %6d %9.2f %9.2f %9.2f %9.2f %9.2f\n",
			op.Op, op.Issued, op.OK, op.Rejected, op.Stale, op.Errors,
			op.ThroughputRPS, op.P50Ms, op.P95Ms, op.P99Ms, op.MaxMs)
	}
	fmt.Fprintf(&b, "  campaigns: %d done, %d failed\n", r.CampaignsDone, r.CampaignsFailed)
	fmt.Fprintf(&b, "  reconciliation (client vs server):\n")
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "    %-16s client=%-10.4g server=%-10.4g tol=%-8.4g %s\n",
			c.Name, c.Client, c.Server, c.Tolerance, verdict)
	}
	if r.OK {
		fmt.Fprintf(&b, "  SLO: PASS\n")
	} else {
		fmt.Fprintf(&b, "  SLO: FAIL")
		if r.LastError != "" {
			fmt.Fprintf(&b, " (last error: %s)", r.LastError)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}
