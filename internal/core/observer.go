package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"gemstone/internal/platform"
)

// Campaign observability. A CollectObserver receives per-run lifecycle
// callbacks from the collector — the visibility into where campaign time
// goes that call-stack profiling gives the simulator itself. Observers
// must tolerate concurrent calls: runs complete on GOMAXPROCS workers.

// CollectObserver receives campaign lifecycle events.
type CollectObserver interface {
	// CollectStart fires once, before any run, with the campaign size.
	CollectStart(platformName string, totalJobs int)
	// RunStart fires when a lane begins simulating key, locally or
	// through an Executor (cache misses only — cache hits never start a
	// simulation). Exactly one RunDone or RunError follows it.
	RunStart(key RunKey)
	// CacheHit fires when key is served from the run cache.
	CacheHit(key RunKey)
	// RunDone fires when a simulation finishes, with its wall time.
	RunDone(key RunKey, m platform.Measurement, simTime time.Duration)
	// RunError fires when a simulation fails. It also ends a run the
	// campaign abandoned after its RunStart — an Executor attempt cut
	// short by the campaign stopping — with an err matching ErrCutShort
	// and the campaign's cancellation cause; that job is reported
	// skipped, not failed.
	RunError(key RunKey, err error)
	// CollectDone fires once, after every worker has stopped, with the
	// campaign's aggregate statistics.
	CollectDone(stats CollectStats)
}

// CollectStats aggregates one campaign.
type CollectStats struct {
	// Platform names the collected platform.
	Platform string
	// Jobs is the campaign size (workloads x clusters x frequencies).
	Jobs int
	// Simulated counts runs that were actually executed.
	Simulated int
	// CacheHits counts runs served from the cache.
	CacheHits int
	// Errors counts failed runs.
	Errors int
	// Skipped counts runs abandoned after cancellation or a failure.
	Skipped int

	// PlanTime is the time spent expanding options into the job list and
	// fingerprinting clusters.
	PlanTime time.Duration
	// CacheTime is the cumulative time spent in cache lookups and stores,
	// summed across workers.
	CacheTime time.Duration
	// SimTime is the cumulative simulation time summed across workers; on
	// an N-worker campaign it exceeds wall time up to N-fold.
	SimTime time.Duration
	// WallTime is the start-to-finish campaign duration.
	WallTime time.Duration
}

// String renders a one-line campaign summary.
func (s CollectStats) String() string {
	return fmt.Sprintf(
		"%s: %d jobs, %d simulated, %d cache hits, %d errors, %d skipped | plan %v cache %v sim %v wall %v",
		s.Platform, s.Jobs, s.Simulated, s.CacheHits, s.Errors, s.Skipped,
		s.PlanTime.Round(time.Microsecond), s.CacheTime.Round(time.Microsecond),
		s.SimTime.Round(time.Millisecond), s.WallTime.Round(time.Millisecond))
}

// Metrics is a thread-safe CollectObserver accumulating counters and
// per-stage wall time across one or more campaigns.
type Metrics struct {
	mu        sync.Mutex
	stats     CollectStats
	platforms map[string]bool // every platform observed, for the label
	lastDone  CollectStats
}

// NewMetrics returns an empty metrics accumulator.
func NewMetrics() *Metrics { return &Metrics{platforms: make(map[string]bool)} }

// CollectStart implements CollectObserver.
func (m *Metrics) CollectStart(platformName string, totalJobs int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.platforms == nil { // tolerate a zero-value Metrics
		m.platforms = make(map[string]bool)
	}
	m.platforms[platformName] = true
	m.stats.Platform = m.platformLabel()
	m.stats.Jobs += totalJobs
}

// platformLabel names the aggregate: the single platform observed, or the
// sorted list joined with "+" when campaigns spanned several (so Stats()
// never mislabels a multi-platform aggregate with the last platform).
// Callers hold m.mu.
func (m *Metrics) platformLabel() string {
	names := make([]string, 0, len(m.platforms))
	for n := range m.platforms {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "+")
}

// Platforms returns the sorted list of platforms the accumulator has
// observed campaigns on.
func (m *Metrics) Platforms() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.platforms))
	for n := range m.platforms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RunStart implements CollectObserver.
func (m *Metrics) RunStart(RunKey) {}

// CacheHit implements CollectObserver.
func (m *Metrics) CacheHit(RunKey) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.CacheHits++
}

// RunDone implements CollectObserver.
func (m *Metrics) RunDone(_ RunKey, _ platform.Measurement, simTime time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Simulated++
	m.stats.SimTime += simTime
}

// RunError implements CollectObserver. A cut-short run is not an error:
// CollectDone counts it as skipped.
func (m *Metrics) RunError(_ RunKey, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !errors.Is(err, ErrCutShort) {
		m.stats.Errors++
	}
}

// CollectDone implements CollectObserver.
func (m *Metrics) CollectDone(stats CollectStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Skipped += stats.Skipped
	m.stats.PlanTime += stats.PlanTime
	m.stats.CacheTime += stats.CacheTime
	m.stats.WallTime += stats.WallTime
	m.lastDone = stats
}

// Stats returns a snapshot of the accumulated statistics.
func (m *Metrics) Stats() CollectStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// LastCampaign returns the statistics of the most recently finished
// campaign (as passed to CollectDone).
func (m *Metrics) LastCampaign() CollectStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastDone
}

// multiObserver fans callbacks out to several observers.
type multiObserver []CollectObserver

// MultiObserver combines observers; nil entries are dropped. It returns
// nil when none remain so the collector's nil fast path still applies.
func MultiObserver(obs ...CollectObserver) CollectObserver {
	var kept multiObserver
	for _, o := range obs {
		if o != nil {
			kept = append(kept, o)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	if len(kept) == 1 {
		return kept[0]
	}
	return kept
}

func (mo multiObserver) CollectStart(p string, n int) {
	for _, o := range mo {
		o.CollectStart(p, n)
	}
}
func (mo multiObserver) RunStart(k RunKey) {
	for _, o := range mo {
		o.RunStart(k)
	}
}
func (mo multiObserver) CacheHit(k RunKey) {
	for _, o := range mo {
		o.CacheHit(k)
	}
}
func (mo multiObserver) RunDone(k RunKey, m platform.Measurement, d time.Duration) {
	for _, o := range mo {
		o.RunDone(k, m, d)
	}
}
func (mo multiObserver) RunError(k RunKey, err error) {
	for _, o := range mo {
		o.RunError(k, err)
	}
}
func (mo multiObserver) CollectDone(s CollectStats) {
	for _, o := range mo {
		o.CollectDone(s)
	}
}
