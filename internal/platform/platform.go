// Package platform assembles cores, memory hierarchies, branch predictors,
// DVFS tables, a thermal model and power sensors into a runnable system —
// the simulated stand-in for both the ODROID-XU3 hardware board and the
// gem5 simulator. A platform executes one workload at one DVFS point on
// one cluster and returns a Measurement: execution time, the full PMU
// sample and (on platforms with sensors) the measured average power.
//
// The reference ("HW") platform carries a hidden ground-truth power
// process; the gem5-model platforms have no sensors, exactly like the real
// tools: gem5 produces event statistics, never power.
package platform

import (
	"fmt"

	"gemstone/internal/branch"
	"gemstone/internal/mem"
	"gemstone/internal/obs"
	"gemstone/internal/pipeline"
	"gemstone/internal/pmu"
	"gemstone/internal/workload"
)

// DVFSPoint is one operating point of a cluster.
type DVFSPoint struct {
	FreqMHz  int
	VoltageV float64
}

// ClusterConfig describes one CPU cluster of the platform.
type ClusterConfig struct {
	// Name identifies the cluster ("a7" or "a15").
	Name string
	// Core is the timing-model configuration.
	Core pipeline.Config
	// Hier is the memory-system configuration.
	Hier mem.HierarchyConfig
	// Branch is the predictor configuration.
	Branch branch.Config
	// DVFS lists the supported operating points, ascending by frequency.
	DVFS []DVFSPoint
	// Power is the hidden ground-truth power process; nil on platforms
	// without power sensors (the gem5 models).
	Power *PowerProcess
	// Thermal describes the cluster's thermal behaviour; only meaningful
	// when Power is non-nil.
	Thermal ThermalConfig
	// ContentionScale scales the multi-threaded contention model (snoop
	// probability, barrier wait, store-exclusive failures). 0 means 1.0
	// (full fidelity). The gem5 models use a value well below 1: their
	// idealised interconnect makes inter-core communication too cheap,
	// which is why the paper finds barrier/exclusive-heavy workloads'
	// execution times underestimated (Fig. 5, Cluster 1).
	ContentionScale float64
}

// Validate checks the cluster configuration.
func (c ClusterConfig) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("platform: cluster with empty name")
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	if err := c.Hier.Validate(); err != nil {
		return err
	}
	if err := c.Branch.Validate(); err != nil {
		return err
	}
	if len(c.DVFS) == 0 {
		return fmt.Errorf("platform: cluster %q has no DVFS points", c.Name)
	}
	for i, pt := range c.DVFS {
		if pt.FreqMHz <= 0 || pt.VoltageV <= 0 {
			return fmt.Errorf("platform: cluster %q: bad DVFS point %+v", c.Name, pt)
		}
		if i > 0 && pt.FreqMHz <= c.DVFS[i-1].FreqMHz {
			return fmt.Errorf("platform: cluster %q: DVFS points not ascending", c.Name)
		}
	}
	return nil
}

// Voltage returns the supply voltage for freqMHz.
func (c ClusterConfig) Voltage(freqMHz int) (float64, error) {
	for _, pt := range c.DVFS {
		if pt.FreqMHz == freqMHz {
			return pt.VoltageV, nil
		}
	}
	return 0, fmt.Errorf("platform: cluster %q: no DVFS point at %d MHz", c.Name, freqMHz)
}

// Frequencies returns the cluster's frequency list in MHz.
func (c ClusterConfig) Frequencies() []int {
	out := make([]int, len(c.DVFS))
	for i, pt := range c.DVFS {
		out[i] = pt.FreqMHz
	}
	return out
}

// Config describes a complete platform.
type Config struct {
	// Name identifies the platform ("odroid-xu3", "gem5-ex5-v1", ...).
	Name string
	// Clusters lists the CPU clusters.
	Clusters []ClusterConfig
	// HasSensors marks platforms with power instrumentation.
	HasSensors bool
}

// Validate checks the platform configuration.
func (c Config) Validate() error {
	if c.Name == "" || len(c.Clusters) == 0 {
		return fmt.Errorf("platform: incomplete configuration")
	}
	names := map[string]bool{}
	for _, cl := range c.Clusters {
		if err := cl.Validate(); err != nil {
			return err
		}
		if names[cl.Name] {
			return fmt.Errorf("platform: duplicate cluster %q", cl.Name)
		}
		names[cl.Name] = true
		if c.HasSensors && cl.Power == nil {
			return fmt.Errorf("platform: sensored platform %q cluster %q lacks a power process", c.Name, cl.Name)
		}
	}
	return nil
}

// Platform is a runnable system.
type Platform struct {
	cfg    Config
	tracer *obs.Tracer
}

// New builds a platform, panicking on invalid configuration (platform
// configurations are code).
func New(cfg Config) *Platform {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Platform{cfg: cfg}
}

// Config returns the platform configuration.
func (p *Platform) Config() Config { return p.cfg }

// SetTracer attaches a span tracer: every subsequent Run records its
// simulator phases (workload expansion, pipeline execution,
// memory-hierarchy collation, power post-processing) as spans. A nil
// tracer disables tracing; the instrumented paths then cost a pointer
// check. SetTracer must not race with in-flight Run calls — attach the
// tracer before the campaign starts.
func (p *Platform) SetTracer(t *obs.Tracer) { p.tracer = t }

// Name returns the platform name.
func (p *Platform) Name() string { return p.cfg.Name }

// Cluster returns the configuration of the named cluster.
func (p *Platform) Cluster(name string) (ClusterConfig, error) {
	for _, cl := range p.cfg.Clusters {
		if cl.Name == name {
			return cl, nil
		}
	}
	return ClusterConfig{}, fmt.Errorf("platform %q: unknown cluster %q", p.cfg.Name, name)
}

// Measurement is the result of running one workload at one DVFS point.
type Measurement struct {
	Platform string
	Cluster  string
	Workload string
	FreqMHz  int
	VoltageV float64

	// Sample holds the full event record of one workload pass.
	Sample pmu.Sample
	// Seconds is the single-pass execution time.
	Seconds float64
	// PowerWatts is the sensor-measured average power (sensored platforms
	// only; zero otherwise).
	PowerWatts float64
	// EnergyJoules is PowerWatts x Seconds (one pass).
	EnergyJoules float64
	// TemperatureC is the final cluster temperature of the measurement
	// window (sensored platforms only).
	TemperatureC float64
	// Throttled reports that the thermal limit was exceeded during the
	// measurement (the paper hit this at 2 GHz on the Cortex-A15).
	Throttled bool
	// Fidelity is the simulation tier that produced the measurement. The
	// zero value is FidelityDetailed, so archives of detailed runs are
	// unchanged and mixed-tier archives carry per-run provenance.
	Fidelity Fidelity
}

// Run executes the workload on the named cluster at freqMHz at the
// detailed tier. It is the reference the reusing SimContext and its
// sweeps are pinned against: fresh simulation state, the workload
// generator handed straight to the core, one timing lane, no kept event
// log.
// With a tracer attached (SetTracer) the run records a "run" root span
// with the simulator phases as children (see SimContext.RunSweep).
//
// Sensored platforms emulate the paper's measurement procedure: the
// workload is repeated until it has exercised the CPU for at least 30
// seconds of simulated time, and the on-board sensor (3.8 Hz) averages
// power over that window while the thermal state evolves.
func (p *Platform) Run(prof workload.Profile, cluster string, freqMHz int) (Measurement, error) {
	// Without a parent span, open a root on the platform's tracer (a
	// pointer-check no-op when no tracer is attached).
	sp := p.tracer.Start("run",
		obs.String("platform", p.cfg.Name), obs.String("workload", prof.Name),
		obs.String("cluster", cluster), obs.Int("freq_mhz", freqMHz))
	sc := SimContext{p: p} // transient: reuses nothing
	m, err := sc.RunFidelity(prof, cluster, freqMHz, FidelityDetailed, sp)
	sp.End()
	return m, err
}
