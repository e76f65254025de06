package dist

import (
	"encoding/gob"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gemstone/internal/obs"
	"gemstone/internal/platform"
)

// WorkerConfig tunes a Worker.
type WorkerConfig struct {
	// MaxParallel bounds concurrent simulations; 0 means GOMAXPROCS.
	// Hello advertises it as the worker's capacity, and the coordinator
	// opens exactly that many request slots.
	MaxParallel int
	// Registry, when non-nil, receives gemstone_dist_worker_* metrics.
	Registry *obs.Registry
	// Log, when non-nil, receives per-job logging.
	Log *slog.Logger
}

// Worker executes jobs for a coordinator. It is an http.Handler factory:
// mount Handler() on any server (cmd/gemstoned in production, httptest in
// the chaos suite). Simulation state is pooled per platform — a
// SimContext costs hundreds of kilobytes to build. The coordinator orders
// jobs workload-major but, unlike core.Collect's workers, which claim
// whole workload groups (or whole sweeps when workloads are fewer than
// workers), it still dispatches one job at a time, so a pooled context's
// expanded stream and kept event log (a later point of the recorded
// workload and cluster runs only its timing lane) serve only when
// consecutive jobs of a sweep happen to land on it. Claiming sweeps here
// is the known follow-up.
type Worker struct {
	cfg WorkerConfig
	sem chan struct{}

	mu        sync.Mutex
	platforms map[PlatformSpec]*platform.Platform
	idle      map[string][]*platform.SimContext // platform fingerprint -> free contexts

	runs     atomic.Int64
	runsOK   *obs.Counter
	runsErr  *obs.Counter
	busy     *obs.Gauge
	simTime  *obs.Histogram
	capacity int

	// clock overrides time.Now for the clock-skew tests; nil means the
	// real clock.
	clock func() time.Time
}

// now reads the worker's clock.
func (w *Worker) now() time.Time {
	if w.clock != nil {
		return w.clock()
	}
	return time.Now()
}

// NewWorker builds a worker.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.MaxParallel <= 0 {
		cfg.MaxParallel = runtime.GOMAXPROCS(0)
	}
	w := &Worker{
		cfg:       cfg,
		sem:       make(chan struct{}, cfg.MaxParallel),
		platforms: make(map[PlatformSpec]*platform.Platform),
		idle:      make(map[string][]*platform.SimContext),
		capacity:  cfg.MaxParallel,
	}
	if reg := cfg.Registry; reg != nil {
		runsTotal := reg.Counter("gemstone_dist_worker_runs_total",
			"Jobs executed by this worker, by outcome.", "outcome")
		w.runsOK, w.runsErr = runsTotal, runsTotal
		w.busy = reg.Gauge("gemstone_dist_worker_busy",
			"Simulations currently executing on this worker.")
		w.simTime = reg.Histogram("gemstone_dist_worker_sim_seconds",
			"Per-job simulation wall time on this worker.", nil)
	}
	return w
}

// Runs reports the number of jobs completed since the worker started.
func (w *Worker) Runs() int64 { return w.runs.Load() }

// Capacity reports the advertised parallelism.
func (w *Worker) Capacity() int { return w.capacity }

// Handler returns the worker's HTTP surface: PathHello (probe) and
// PathRun (execute one job).
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathHello, w.handleHello)
	mux.HandleFunc(PathRun, w.handleRun)
	return mux
}

func (w *Worker) handleHello(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", contentType)
	_ = gob.NewEncoder(rw).Encode(Hello{
		Proto:    ProtoVersion,
		Capacity: w.capacity,
		Runs:     w.runs.Load(),
	})
}

// handleRun executes one job. Status discipline:
//
//	400 — undecodable request (a bug or corrupted-in-flight job)
//	409 — protocol version or platform fingerprint mismatch: this worker
//	      must not contribute measurements (retrying elsewhere may work)
//	422 — the simulation itself failed; deterministic, so the coordinator
//	      fails the campaign instead of retrying
//	200 — a gob RunResult
func (w *Worker) handleRun(rw http.ResponseWriter, req *http.Request) {
	recv := w.now()
	if req.Method != http.MethodPost {
		http.Error(rw, "dist: POST required", http.StatusMethodNotAllowed)
		return
	}
	var job Job
	if err := gob.NewDecoder(req.Body).Decode(&job); err != nil {
		http.Error(rw, fmt.Sprintf("dist: decoding job: %v", err), http.StatusBadRequest)
		return
	}
	if job.Proto != ProtoVersion {
		http.Error(rw, fmt.Sprintf("dist: protocol %d, worker speaks %d", job.Proto, ProtoVersion),
			http.StatusConflict)
		return
	}
	pl, err := w.platform(job.Spec)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusConflict)
		return
	}
	if fp := pl.Config().Fingerprint(); fp != job.PlatformFP {
		// A fingerprint mismatch means coordinator and worker binaries
		// model different machines; measurements would differ silently.
		http.Error(rw, fmt.Sprintf("dist: platform fingerprint mismatch (worker %s)", fp[:12]),
			http.StatusConflict)
		return
	}
	if !job.Fidelity.Valid() {
		// An invalid tier is a malformed job, not a simulation failure:
		// 422 marks it terminal so the coordinator does not retry a job
		// that can never succeed.
		http.Error(rw, fmt.Sprintf("dist: invalid job fidelity %d", job.Fidelity),
			http.StatusUnprocessableEntity)
		return
	}

	// Span recording costs nothing unless the job asks for it: untraced
	// jobs take the exact pre-tracing path plus one branch per phase.
	traced := job.Trace.Recording()
	var spans []obs.SpanRecord
	mark := func(name string, start time.Time, attrs ...obs.Attr) {
		if traced {
			spans = append(spans, obs.NewSpanRecord(name, start, w.now(), attrs...))
		}
	}
	mark("receive", recv, obs.Int64("bytes", req.ContentLength))

	queueT := w.now()
	w.sem <- struct{}{}
	mark("queue", queueT)
	if w.busy != nil {
		w.busy.Add(1)
	}
	ctxT := w.now()
	sc, reused := w.simContext(pl)
	mark("simctx", ctxT, obs.Bool("reused", reused))
	start := w.now()
	m, err := sc.RunFidelity(job.Profile, job.Cluster, job.FreqMHz, job.Fidelity, nil)
	elapsed := w.now().Sub(start)
	mark("simulate", start, obs.String("workload", job.Profile.Name),
		obs.String("cluster", job.Cluster), obs.Int("freq_mhz", job.FreqMHz),
		obs.String("fidelity", job.Fidelity.String()))
	w.releaseSimContext(pl, sc)
	if w.busy != nil {
		w.busy.Add(-1)
	}
	<-w.sem

	if err != nil {
		if w.runsErr != nil {
			w.runsErr.Inc("error")
		}
		if w.cfg.Log != nil {
			w.cfg.Log.Error("job failed", "id", job.ID, "key", job.Profile.Name,
				"campaign", job.Trace.Campaign, "tenant", job.Trace.Tenant, "err", err)
		}
		http.Error(rw, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	encT := w.now()
	payload, digest, err := encodeMeasurement(m)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	mark("encode", encT, obs.Int("bytes", len(payload)))
	w.runs.Add(1)
	if w.runsOK != nil {
		w.runsOK.Inc("ok")
	}
	if w.simTime != nil {
		w.simTime.Observe(elapsed.Seconds())
	}
	if w.cfg.Log != nil {
		w.cfg.Log.Debug("job done", "id", job.ID,
			"workload", job.Profile.Name, "cluster", job.Cluster, "freq_mhz", job.FreqMHz,
			"campaign", job.Trace.Campaign, "tenant", job.Trace.Tenant,
			"sim", elapsed.Round(time.Millisecond).String())
	}
	res := RunResult{
		Proto:      ProtoVersion,
		ID:         job.ID,
		Payload:    payload,
		Digest:     digest,
		SimSeconds: elapsed.Seconds(),
	}
	if traced {
		done := w.now()
		// The root span brackets everything the worker did for the job;
		// its endpoints double as the clock-sync timestamps.
		root := obs.NewSpanRecord("job", recv, done,
			obs.String("job", job.ID), obs.String("campaign", job.Trace.Campaign),
			obs.String("tenant", job.Trace.Tenant), obs.String("parent", job.Trace.Parent))
		res.Spans = append([]obs.SpanRecord{root}, spans...)
		res.RecvUnixNano = recv.UnixNano()
		res.DoneUnixNano = done.UnixNano()
	}
	rw.Header().Set("Content-Type", contentType)
	_ = gob.NewEncoder(rw).Encode(res)
}

// platform resolves (and memoises) the spec's platform.
func (w *Worker) platform(spec PlatformSpec) (*platform.Platform, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if pl, ok := w.platforms[spec]; ok {
		return pl, nil
	}
	pl, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	w.platforms[spec] = pl
	return pl, nil
}

// simContext pops an idle reusable context for pl, or builds one. The
// pool is keyed by platform fingerprint and bounded by MaxParallel via
// the semaphore, so at most MaxParallel contexts exist per platform.
// reused reports whether the context came from the pool (a trace
// annotation: a cold build costs hundreds of kilobytes and milliseconds).
func (w *Worker) simContext(pl *platform.Platform) (sc *platform.SimContext, reused bool) {
	fp := pl.Config().Fingerprint()
	w.mu.Lock()
	defer w.mu.Unlock()
	if free := w.idle[fp]; len(free) > 0 {
		sc := free[len(free)-1]
		w.idle[fp] = free[:len(free)-1]
		return sc, true
	}
	return platform.NewSimContext(pl), false
}

func (w *Worker) releaseSimContext(pl *platform.Platform, sc *platform.SimContext) {
	fp := pl.Config().Fingerprint()
	w.mu.Lock()
	w.idle[fp] = append(w.idle[fp], sc)
	w.mu.Unlock()
}
