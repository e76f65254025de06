package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gemstone/internal/core"
	"gemstone/internal/ledger"
	"gemstone/internal/obs"
	"gemstone/internal/platform"
	"gemstone/internal/workload"
	"gemstone/internal/xrand"
)

// campaignWorkers is the worker count of every campaign the benchmark
// runs: the two CPUs of the machine the benchmark is sized for.
const campaignWorkers = 2

// env is what a workload's set-up receives: its seed, the pinned digests,
// a private scratch directory and the output stream.
type env struct {
	seed   uint64
	golden *golden
	tmp    string
	log    io.Writer
}

// rng returns the input generator of one named purpose. Every input a
// workload draws comes from such a stream, so a seed fixes all inputs.
func (e *env) rng(stream string) *xrand.RNG {
	return xrand.New(xrand.Hash64(e.seed) ^ xrand.HashString(stream))
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

// workloadDef sets a workload up; each set-up yields an instance that runs
// the timed window and then checks what it produced.
type workloadDef struct {
	setup func(e *env) (instance, error)
}

type instance interface {
	// run executes the workload's operations for d. Campaign workloads
	// start operations until d has elapsed and let the last one finish,
	// so every window holds whole campaigns and each is checked.
	run(ctx context.Context, d time.Duration) (*window, error)
	// check verifies the outputs of the window.
	check(w *window) []check
	// jobProfiles lists the workload profiles the window's jobs ran; the
	// traced pass samples its probes from them.
	jobProfiles() []workload.Profile
	close()
}

var workloads = map[string]workloadDef{
	"paper_cold":    {setup: setupPaperCold},
	"atomic_screen": {setup: setupAtomicScreen},
	"serve_open":    {setup: setupServeOpen},
}

// window is what one timed window measured.
type window struct {
	elapsed time.Duration
	cpu     time.Duration
	// ops counts completed operations; latMS holds one host latency per
	// operation when the workload times them itself.
	ops   int
	latMS []float64
	// p50/p95 carry pre-summarised latencies (serve_open's driver keeps
	// its own histograms), with latN samples behind them.
	p50, p95 float64
	latN     int
	// medianLatency reports the median as op_latency_ms instead of the
	// 95th percentile.
	medianLatency bool
	attempted     int
	failed        int
	digest        string
}

func execute(ctx context.Context, w workloadDef, e *env, d time.Duration, trace bool) (*result, *obs.Tracer, error) {
	var setups []float64
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			// Hand a discarded set-up's memory back before the next, so
			// the repeats do not stack up in the peak RSS.
			inst.close()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		in, err := w.setup(e)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		inst = in
	}
	defer inst.close()

	debug.FreeOSMemory()
	cpu0 := cpuTime()
	t0 := time.Now()
	win, err := inst.run(ctx, d)
	if err != nil {
		return nil, nil, err
	}
	win.elapsed = time.Since(t0)
	win.cpu = cpuTime() - cpu0
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	if win.ops == 0 {
		return nil, nil, fmt.Errorf("the window completed no operation")
	}

	checks := inst.check(win)
	checks = append(checks, newCheck("no-failed-ops", win.failed == 0,
		"%d of %d attempted operations failed", win.failed, win.attempted))
	res := &result{Attempted: win.attempted, Failed: win.failed, Digest: win.digest}

	var tracer *obs.Tracer
	if trace {
		tracer = obs.NewTracer()
		layer, probeChecks, err := probeLayers(ctx, e, inst.jobProfiles(), tracer)
		if err != nil {
			return nil, nil, fmt.Errorf("probes: %w", err)
		}
		checks = append(checks, probeChecks...)
		res.Metrics = layer
	} else {
		p50, p95, n := win.p50, win.p95, win.latN
		if win.latMS != nil {
			p50, p95, n = percentile(win.latMS, 0.50), percentile(win.latMS, 0.95), len(win.latMS)
		}
		latency := p95
		if win.medianLatency {
			latency = p50
		} else if q := tailQuantile(n); q < 0.95 {
			e.logf("note       op_latency_ms (p95) rests on %d samples; p%g is the highest percentile with ten beyond it", n, q*100)
		}
		res.Metrics = map[string]float64{
			"setup_s":       median(setups),
			"op_latency_ms": latency,
			"ops_per_s":     float64(win.ops) / win.elapsed.Seconds(),
			"cpu_ms_per_op": win.cpu.Seconds() * 1e3 / float64(win.ops),
			"peak_rss_mb":   rss,
		}
		e.logf("window     %d ops in %.3fs, cpu %.3fs; op latency p50 %.4g ms p95 %.4g ms over %d samples; set-ups %.4g s",
			win.ops, win.elapsed.Seconds(), win.cpu.Seconds(), p50, p95, n, setups)
	}
	res.Checks = checks
	res.Correct = allOK(checks)
	return res, tracer, nil
}

func allOK(checks []check) bool {
	for _, c := range checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// permute returns a seeded permutation of profiles.
func permute(profiles []workload.Profile, rng *xrand.RNG) []workload.Profile {
	out := append([]workload.Profile(nil), profiles...)
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// runRecorder is the campaign observer of a timed window: it counts runs
// and keeps each simulation's host time.
type runRecorder struct {
	mu                    sync.Mutex
	simMS                 []float64
	simulated, hits, errs int
}

func (r *runRecorder) CollectStart(string, int) {}
func (r *runRecorder) RunStart(core.RunKey)     {}
func (r *runRecorder) CacheHit(core.RunKey) {
	r.mu.Lock()
	r.hits++
	r.mu.Unlock()
}
func (r *runRecorder) RunDone(_ core.RunKey, _ platform.Measurement, d time.Duration) {
	r.mu.Lock()
	r.simulated++
	r.simMS = append(r.simMS, float64(d)/float64(time.Millisecond))
	r.mu.Unlock()
}
func (r *runRecorder) RunError(core.RunKey, error) {
	r.mu.Lock()
	r.errs++
	r.mu.Unlock()
}
func (r *runRecorder) CollectDone(core.CollectStats) {}

// fill copies the recorder's counts into w: every simulation is one
// operation.
func (r *runRecorder) fill(w *window) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w.ops = r.simulated
	w.latMS = append([]float64(nil), r.simMS...)
	w.attempted = r.simulated + r.errs
	w.failed = r.errs
}

// checkFreshRuns re-simulates a seeded sample of n measurements through a
// fresh Platform.Run — no reused state, no stream cache, no DVFS replay —
// and requires every one to be bit-identical to what the campaign
// produced.
func checkFreshRuns(name string, pl *platform.Platform, rs *core.RunSet, profiles []workload.Profile, n int, rng *xrand.RNG) check {
	byName := map[string]workload.Profile{}
	for _, p := range profiles {
		byName[p.Name] = p
	}
	keys := sortedKeys(rs.Runs)
	checked := 0
	for checked < n && len(keys) > 0 {
		j := rng.Intn(len(keys))
		k := keys[j]
		keys = append(keys[:j], keys[j+1:]...)
		want := rs.Runs[k]
		if want.Fidelity != platform.FidelityDetailed {
			continue
		}
		got, err := pl.Run(byName[k.Workload], k.Cluster, k.FreqMHz)
		if err != nil {
			return newCheck(name, false, "%s: %v", k, err)
		}
		if !reflect.DeepEqual(got, want) {
			return newCheck(name, false, "%s on %s differs from a fresh run", k, pl.Name())
		}
		checked++
	}
	return newCheck(name, checked > 0, "%d sampled %s runs bit-identical to fresh runs", checked, pl.Name())
}

// checkInvariants runs the ledger's invariant validator over run sets.
// Cross-run DVFS monotonicity applies only to single-tier sets.
func checkInvariants(name string, platforms []*platform.Platform, sets []*core.RunSet, crossRun bool) check {
	v := ledger.NewValidator(nil)
	for _, pl := range platforms {
		v.AddPlatform(pl)
	}
	for _, rs := range sets {
		for _, k := range sortedKeys(rs.Runs) {
			v.CheckMeasurement(rs.Runs[k])
		}
		if crossRun {
			v.CheckRunSet(rs)
		}
	}
	if n := v.Count(); n > 0 {
		return newCheck(name, false, "%d violations, first: %s", n, v.Violations()[0])
	}
	return newCheck(name, true, "%d invariant checks", v.Checks())
}

// checkSlices compares a run set's DVFS-slice digests with pinned ones.
func checkSlices(name string, sets []*core.RunSet, pinned map[string]string) check {
	n := 0
	for _, rs := range sets {
		for slice, d := range sliceDigests(rs) {
			want, ok := pinned[slice]
			if !ok {
				return newCheck(name, false, "no pinned digest for %s", slice)
			}
			if d != want {
				return newCheck(name, false, "%s digest %s, pinned %s", slice, d, want)
			}
			n++
		}
	}
	if n == 0 {
		return newCheck(name, false, "nothing to check: no campaign completed in the window")
	}
	return newCheck(name, true, "%d DVFS slices match bench/golden.json", n)
}
