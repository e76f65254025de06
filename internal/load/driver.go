package load

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gemstone/internal/obs"
	"gemstone/internal/serve"
	"gemstone/internal/workload"
	"gemstone/internal/xrand"
)

// OpKind names one request class of the mix.
type OpKind string

// The request classes gemload replays. Cold and warm are full
// campaigns measured POST → terminal SSE frame; events replays a
// finished campaign's SSE history; analysis reads a finished
// campaign's validation summary.
const (
	OpCold     OpKind = "cold"     // fresh spec: every job simulates
	OpWarm     OpKind = "warm"     // replayed spec: every job cache-hits
	OpEvents   OpKind = "events"   // SSE history subscriber
	OpAnalysis OpKind = "analysis" // GET /validation
)

// OpKinds lists every request class in mix order.
var OpKinds = []OpKind{OpCold, OpWarm, OpEvents, OpAnalysis}

// Mix weights the request classes. The zero Mix means the default
// 1:3:3:3 — campaigns are expensive, reads are cheap and plentiful,
// which is what a fleet serving dashboards over a few sweeps looks
// like.
type Mix struct {
	Cold     float64 `json:"cold"`
	Warm     float64 `json:"warm"`
	Events   float64 `json:"events"`
	Analysis float64 `json:"analysis"`
}

func (m Mix) orDefault() Mix {
	if m == (Mix{}) {
		return Mix{Cold: 1, Warm: 3, Events: 3, Analysis: 3}
	}
	return m
}

func (m Mix) weights() []float64 {
	return []float64{m.Cold, m.Warm, m.Events, m.Analysis}
}

// Config shapes one load run. The zero value of every field except
// BaseURL is usable.
type Config struct {
	// BaseURL is the gemstone serve endpoint ("http://host:port").
	BaseURL string
	// Concurrency is the number of in-flight request slots. In closed-
	// loop mode it is the offered concurrency (each slot issues
	// back-to-back); in open-loop mode it bounds parallel execution of
	// the scheduled arrivals. 0 means 4.
	Concurrency int
	// RateHz, when positive, switches to open-loop mode: arrivals are
	// scheduled by a Poisson process at this rate and latency is
	// measured from the *intended* arrival instant, so a saturated
	// server shows up as queueing delay instead of silently thinning
	// the load (no coordinated omission). 0 means closed loop.
	RateHz float64
	// Duration is how long new work is issued; in-flight operations
	// then drain to completion. 0 means 5s.
	Duration time.Duration
	// Seed seeds every sampler (arrivals, tenant and spec selection,
	// mix); 0 means 1.
	Seed uint64
	// Skew is the Zipf exponent for tenant and replay-target selection
	// (ReqBench's skew knob). 0 means uniform.
	Skew float64
	// Tenants is how many tenant namespaces the load spreads over
	// (Zipf-skewed); 0 means 3.
	Tenants int
	// InvokeLength is the number of workloads per campaign spec
	// (ReqBench's invokeLength: the size of one invocation); 0 means 1.
	InvokeLength int
	// Mix weights the request classes; the zero value means 1:3:3:3.
	Mix Mix
	// Cluster and FreqsMHz shape the campaign specs; defaults a15 at
	// {1000}.
	Cluster  string
	FreqsMHz []int
	// Log, when non-nil, receives driver progress logging.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Concurrency == 0 {
		c.Concurrency = 4
	}
	if c.Duration == 0 {
		c.Duration = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Tenants == 0 {
		c.Tenants = 3
	}
	if c.InvokeLength == 0 {
		c.InvokeLength = 1
	}
	if c.Cluster == "" {
		c.Cluster = "a15"
	}
	if len(c.FreqsMHz) == 0 {
		c.FreqsMHz = []int{1000}
	}
	return c
}

// opTimeout bounds one operation end-to-end.
const opTimeout = 120 * time.Second

// completedRec is one finished campaign a tenant can replay against.
type completedRec struct {
	id   string
	spec *serve.CampaignSpec
}

// shard is one worker's private measurement state: HDR latency shards
// and outcome counters, merged after the run. No locks on the hot path.
type shard struct {
	hdr      map[OpKind]*obs.HDR
	issued   map[OpKind]int
	okCount  map[OpKind]int
	rejected map[OpKind]int
	stale    map[OpKind]int
	errs     map[OpKind]int
	done     int // campaign "done" frames observed
	failed   int // campaign "error" frames observed
	lastErr  error
}

func newShard() *shard {
	s := &shard{
		hdr:      map[OpKind]*obs.HDR{},
		issued:   map[OpKind]int{},
		okCount:  map[OpKind]int{},
		rejected: map[OpKind]int{},
		stale:    map[OpKind]int{},
		errs:     map[OpKind]int{},
	}
	for _, k := range OpKinds {
		s.hdr[k] = obs.NewHDR()
	}
	return s
}

// Driver replays the configured mix against one service.
type Driver struct {
	cfg     Config
	mix     Mix
	client  *http.Client
	catalog []string // workload names cold specs draw from
	log     *slog.Logger

	coldSeq atomic.Int64

	mu        sync.Mutex
	window    int                       // per-tenant replay window, set before Run's workers start
	completed map[string][]completedRec // tenant → finished campaigns
}

// maxReplayTargets caps the Zipf rank space for replay-target
// selection; the actual per-tenant window is replayWindow's.
const maxReplayTargets = 48

// retentionSlack keeps the tenants' replay windows together this far
// below the server's retention cap: campaigns settling while the
// windows slide count against retention too.
const retentionSlack = 8

// replayWindow sizes the per-tenant completed-campaign window the
// replay ops draw from, given the server's retention cap (terminal
// campaigns kept fleet-wide and evicted oldest-first; negative retains
// forever) and the tenant count. The windows together stay
// retentionSlack below the cap, so a windowed target is usually still
// retained when a replay op reaches it; targets that lose the race with
// eviction anyway are pruned on 404. A tenant whose share rounds to
// zero keeps no targets and its replay ops run cold.
func replayWindow(retained, tenants int) int {
	if retained < 0 {
		return maxReplayTargets
	}
	return min(max(retained-retentionSlack, 0)/tenants, maxReplayTargets)
}

// NewDriver validates cfg and builds a driver.
func NewDriver(cfg Config) (*Driver, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("load: BaseURL required")
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	var catalog []string
	for _, p := range workload.Validation() {
		catalog = append(catalog, p.Name)
	}
	if cfg.InvokeLength > len(catalog) {
		return nil, fmt.Errorf("load: invoke length %d exceeds the %d-workload catalogue",
			cfg.InvokeLength, len(catalog))
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = cfg.Concurrency + 2
	log := cfg.Log
	if log == nil {
		log = obs.Discard
	}
	return &Driver{
		cfg:       cfg,
		mix:       cfg.Mix.orDefault(),
		client:    &http.Client{Transport: tr},
		catalog:   catalog,
		log:       log,
		completed: map[string][]completedRec{},
	}, nil
}

// tenantName formats the i-th tenant namespace.
func tenantName(i int) string { return fmt.Sprintf("load-t%d", i) }

// Run executes the load shape and returns the measured, reconciled
// report. The returned error covers setup failures (unreachable
// server, missing /metrics); request-level failures are counted in the
// report instead.
func (d *Driver) Run(ctx context.Context) (*Report, error) {
	retained, err := d.fetchRetention(ctx)
	if err != nil {
		return nil, fmt.Errorf("load: reading the server's retention: %w", err)
	}
	d.window = replayWindow(retained, d.cfg.Tenants)
	base, err := d.scrapeMetrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("load: baseline metrics scrape: %w", err)
	}

	root := xrand.New(d.cfg.Seed)
	weighted := xrand.NewWeighted(d.mix.weights())

	var arrivals chan time.Time
	var backlog atomic.Int64
	start := time.Now()
	deadline := start.Add(d.cfg.Duration)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	mode := "closed"
	if d.cfg.RateHz > 0 {
		mode = "open"
		arrivals = make(chan time.Time, 1<<16)
		p := NewPoisson(root.Split(), d.cfg.RateHz)
		go func() {
			defer close(arrivals)
			next := start
			for {
				next = next.Add(p.Next())
				if next.After(deadline) {
					return
				}
				if !sleepUntil(runCtx, next) {
					return
				}
				select {
				case arrivals <- next:
				default:
					backlog.Add(1) // scheduler outran the buffer; count, don't block
				}
			}
		}()
	}

	shards := make([]*shard, d.cfg.Concurrency)
	var wg sync.WaitGroup
	for w := 0; w < d.cfg.Concurrency; w++ {
		sh := newShard()
		shards[w] = sh
		rng := root.Split()
		tenantPick := NewZipf(rng.Split(), d.cfg.Tenants, d.cfg.Skew)
		replayPick := NewZipf(rng.Split(), maxReplayTargets, d.cfg.Skew)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var issuedAt time.Time
				if arrivals != nil {
					t, ok := <-arrivals
					if !ok {
						return
					}
					if time.Now().After(deadline) {
						// The offered window is over; arrivals still queued
						// were never issued. Counting them (instead of
						// draining them late) bounds the run's wall time
						// while keeping the saturation visible.
						backlog.Add(1)
						continue
					}
					issuedAt = t // intended arrival: queueing delay counts
				} else {
					if !time.Now().Before(deadline) || runCtx.Err() != nil {
						return
					}
					issuedAt = time.Now()
				}
				op := OpKinds[weighted.Sample(rng)]
				tenant := tenantName(tenantPick.Next())
				d.runOp(runCtx, sh, op, tenant, rng, replayPick, issuedAt)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	cur, err := d.scrapeMetrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("load: final metrics scrape: %w", err)
	}
	statusz, _ := d.fetchStatusz(ctx)

	r := d.buildReport(mode, wall, shards, int(backlog.Load()), base, cur, statusz)
	return r, nil
}

// sleepUntil sleeps until t or ctx cancellation; false means cancelled.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// runOp executes one operation and records its latency into the shard.
func (d *Driver) runOp(ctx context.Context, sh *shard, op OpKind, tenant string,
	rng *xrand.RNG, replayPick *Zipf, issuedAt time.Time) {
	// Replay ops need a finished campaign; fall back to cold until the
	// tenant has one.
	var target *completedRec
	if op != OpCold {
		target = d.pickCompleted(tenant, replayPick)
		if target == nil {
			op = OpCold
		}
	}
	sh.issued[op]++

	opCtx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()

	var err error
	var rejected bool
	switch op {
	case OpCold:
		err, rejected = d.campaignOp(opCtx, sh, tenant, d.coldSpec())
	case OpWarm:
		err, rejected = d.campaignOp(opCtx, sh, tenant, target.spec)
	case OpEvents:
		err = d.eventsOp(opCtx, tenant, target.id)
	case OpAnalysis:
		err = d.analysisOp(opCtx, tenant, target.id)
	}
	switch {
	case rejected:
		sh.rejected[op]++
		// Back off briefly so a saturated admission queue isn't hammered.
		sleepUntil(ctx, time.Now().Add(time.Duration(5+rng.Intn(25))*time.Millisecond))
	case errors.Is(err, errStale):
		d.dropCompleted(tenant, target.id)
		sh.stale[op]++
	case err != nil:
		sh.errs[op]++
		sh.lastErr = err
		d.log.Warn("op failed", "op", string(op), "tenant", tenant, "err", err)
	default:
		sh.okCount[op]++
		sh.hdr[op].RecordDuration(time.Since(issuedAt))
	}
}

// coldSpec deterministically enumerates distinct campaign specs: a
// rotating window with a growing stride over the workload catalogue,
// so consecutive cold campaigns (across all workers) miss the run
// cache for as long as the combination space lasts.
func (d *Driver) coldSpec() *serve.CampaignSpec {
	n := len(d.catalog)
	k := d.cfg.InvokeLength
	seq := int(d.coldSeq.Add(1)) - 1
	stride := seq/n + 1
	used := make(map[int]bool, k)
	names := make([]string, 0, k)
	idx := seq % n
	for len(names) < k {
		for used[idx] {
			idx = (idx + 1) % n
		}
		used[idx] = true
		names = append(names, d.catalog[idx])
		idx = (idx + stride) % n
	}
	return &serve.CampaignSpec{
		Cluster:   d.cfg.Cluster,
		FreqMHz:   d.cfg.FreqsMHz[0],
		FreqsMHz:  append([]int(nil), d.cfg.FreqsMHz...),
		Workloads: names,
	}
}

// pickCompleted selects a finished campaign of the tenant, Zipf-skewed
// towards the newest (still-retained, cache-hottest) entries; nil when
// the tenant has none.
func (d *Driver) pickCompleted(tenant string, pick *Zipf) *completedRec {
	d.mu.Lock()
	defer d.mu.Unlock()
	list := d.completed[tenant]
	if len(list) == 0 {
		return nil
	}
	rec := list[len(list)-1-pick.Next()%len(list)]
	return &rec
}

// noteCompleted registers a finished campaign as a replay target,
// sliding the per-tenant window so only the newest targets survive —
// the oldest are the ones the service's retention cap evicts first.
func (d *Driver) noteCompleted(tenant, id string, spec *serve.CampaignSpec) {
	d.mu.Lock()
	defer d.mu.Unlock()
	list := append(d.completed[tenant], completedRec{id: id, spec: spec})
	if len(list) > d.window {
		list = list[len(list)-d.window:]
	}
	d.completed[tenant] = list
}

// dropCompleted prunes a replay target the service no longer retains.
func (d *Driver) dropCompleted(tenant, id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	list := d.completed[tenant]
	for i, rec := range list {
		if rec.id == id {
			d.completed[tenant] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// errRejected marks an admission-control 429.
var errRejected = fmt.Errorf("load: admission rejected")

// errStale marks a replay target the service has evicted (404): the
// driver prunes it, tallies it apart from errors and moves on —
// retention is the service's contract, not an SLO failure, but repeated
// hits would be the driver's bug.
var errStale = fmt.Errorf("load: replay target evicted")

// campaignOp submits spec and follows its SSE stream to the terminal
// frame. rejected is true on a 429 (not an error, not a latency
// sample).
func (d *Driver) campaignOp(ctx context.Context, sh *shard, tenant string, spec *serve.CampaignSpec) (err error, rejected bool) {
	body, err := json.Marshal(spec)
	if err != nil {
		return err, false
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		d.cfg.BaseURL+"/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		return err, false
	}
	req.Header.Set(serve.TenantHeader, tenant)
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return err, false
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusTooManyRequests {
		return errRejected, true
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: status %d", resp.StatusCode), false
	}
	var status struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		return fmt.Errorf("submit: decode: %v", err), false
	}

	terminal, err := d.followEvents(ctx, tenant, status.ID)
	if err != nil {
		return err, false
	}
	switch terminal {
	case "done":
		sh.done++
		d.noteCompleted(tenant, status.ID, spec)
		return nil, false
	case "error":
		sh.failed++
		return fmt.Errorf("campaign %s failed", status.ID), false
	default:
		return fmt.Errorf("campaign %s: stream ended without terminal frame", status.ID), false
	}
}

// eventsOp replays a finished campaign's SSE history to its terminal
// frame.
func (d *Driver) eventsOp(ctx context.Context, tenant, id string) error {
	terminal, err := d.followEvents(ctx, tenant, id)
	if err != nil {
		return err
	}
	if terminal == "" {
		return fmt.Errorf("events %s: no terminal frame", id)
	}
	return nil
}

// followEvents reads the campaign's SSE stream until a terminal frame
// and returns its type ("done" or "error").
func (d *Driver) followEvents(ctx context.Context, tenant, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		d.cfg.BaseURL+"/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	req.Header.Set(serve.TenantHeader, tenant)
	resp, err := d.client.Do(req)
	if err != nil {
		return "", err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusNotFound {
		return "", fmt.Errorf("events %s: %w", id, errStale)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 16<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			switch ev := strings.TrimPrefix(line, "event: "); ev {
			case "done", "error":
				return ev, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("events %s: %v", id, err)
	}
	return "", nil
}

// analysisOp reads a finished campaign's validation summary.
func (d *Driver) analysisOp(ctx context.Context, tenant, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		d.cfg.BaseURL+"/v1/campaigns/"+id+"/validation", nil)
	if err != nil {
		return err
	}
	req.Header.Set(serve.TenantHeader, tenant)
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("validation %s: %w", id, errStale)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("validation %s: status %d", id, resp.StatusCode)
	}
	var vs struct {
		MAPE float64 `json:"mape"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vs); err != nil {
		return fmt.Errorf("validation %s: decode: %v", id, err)
	}
	if math.IsNaN(vs.MAPE) {
		return fmt.Errorf("validation %s: NaN MAPE", id)
	}
	return nil
}

// scrapeMetrics fetches and parses the server's /metrics.
func (d *Driver) scrapeMetrics(ctx context.Context) (*Metrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.cfg.BaseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d (reconciliation needs the serve registry)", resp.StatusCode)
	}
	return ParseMetrics(resp.Body)
}

// fetchRetention reads the server's retention cap
// (campaigns.max_retained) from /v1/statusz.
func (d *Driver) fetchRetention(ctx context.Context) (int, error) {
	raw, err := d.fetchStatusz(ctx)
	if err != nil {
		return 0, err
	}
	var sz struct {
		Campaigns struct {
			MaxRetained int `json:"max_retained"`
		} `json:"campaigns"`
	}
	if err := json.Unmarshal(raw, &sz); err != nil {
		return 0, fmt.Errorf("decoding /v1/statusz: %w", err)
	}
	return sz.Campaigns.MaxRetained, nil
}

// fetchStatusz fetches the raw /v1/statusz snapshot.
func (d *Driver) fetchStatusz(ctx context.Context) (json.RawMessage, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.cfg.BaseURL+"/v1/statusz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/statusz: status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	return json.RawMessage(raw), nil
}
