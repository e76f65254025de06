package dist

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gemstone/internal/xrand"
)

// Chaos is a deterministic fault-injecting http.RoundTripper for the
// coordinator's client. It perturbs only PathRun exchanges (probes pass
// through, so campaigns always start) and draws every fault decision from
// a seeded counter-based RNG, so a given (seed, probabilities, request
// order modulo scheduling) replays the same fault classes. Faults model
// the distributed failure matrix:
//
//   - Drop: the request reaches the worker and executes, but the response
//     never arrives — the "worker did the work, coordinator never heard"
//     case that forces a retry, so the job executes again elsewhere.
//   - Duplicate: the same job is executed twice and the coordinator sees
//     the second response — a replayed/late answer. Deterministic jobs
//     make both answers bit-identical, and the coordinator hears only
//     one, so the job is recorded once.
//   - Corrupt: one payload byte is flipped in flight. The digest check
//     must catch it and the coordinator must retry elsewhere.
//   - Delay: the response stalls by Delay, exercising lease timeouts.
//
// MaxFaults bounds total injections so a chaotic test still converges:
// after the budget is spent Chaos is a transparent transport.
type Chaos struct {
	// Transport performs the real exchange; nil means
	// http.DefaultTransport.
	Transport http.RoundTripper
	// Seed seeds the fault RNG; 0 means 1.
	Seed uint64
	// Fault probabilities in [0,1], checked in this order: drop,
	// duplicate, corrupt, delay. At most one fault fires per request.
	DropProb      float64
	DuplicateProb float64
	CorruptProb   float64
	DelayProb     float64
	// Delay is how long a delayed response stalls.
	Delay time.Duration
	// MaxFaults caps injected faults; 0 means unlimited.
	MaxFaults int

	once sync.Once
	mu   sync.Mutex
	rng  *xrand.RNG

	faults     atomic.Int64
	drops      atomic.Int64
	duplicates atomic.Int64
	corrupts   atomic.Int64
	delays     atomic.Int64
}

// Faults reports the total number of injected faults.
func (c *Chaos) Faults() int64 { return c.faults.Load() }

// Drops reports injected response drops.
func (c *Chaos) Drops() int64 { return c.drops.Load() }

// Duplicates reports injected double executions.
func (c *Chaos) Duplicates() int64 { return c.duplicates.Load() }

// Corrupts reports injected payload corruptions.
func (c *Chaos) Corrupts() int64 { return c.corrupts.Load() }

// Delays reports injected response delays.
func (c *Chaos) Delays() int64 { return c.delays.Load() }

func (c *Chaos) transport() http.RoundTripper {
	if c.Transport != nil {
		return c.Transport
	}
	return http.DefaultTransport
}

// roll draws one uniform [0,1) variate from the seeded RNG.
func (c *Chaos) roll() float64 {
	c.once.Do(func() {
		seed := c.Seed
		if seed == 0 {
			seed = 1
		}
		c.rng = xrand.New(seed)
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64()
}

// budget reserves one fault from MaxFaults; false means the budget is
// spent and the request must pass through untouched.
func (c *Chaos) budget() bool {
	for {
		n := c.faults.Load()
		if c.MaxFaults > 0 && n >= int64(c.MaxFaults) {
			return false
		}
		if c.faults.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// RoundTrip implements http.RoundTripper.
func (c *Chaos) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(req.URL.Path, PathRun) {
		return c.transport().RoundTrip(req)
	}
	roll := c.roll()
	switch {
	case roll < c.DropProb:
		if c.budget() {
			return c.drop(req)
		}
	case roll < c.DropProb+c.DuplicateProb:
		if c.budget() {
			return c.duplicate(req)
		}
	case roll < c.DropProb+c.DuplicateProb+c.CorruptProb:
		if c.budget() {
			return c.corrupt(req)
		}
	case roll < c.DropProb+c.DuplicateProb+c.CorruptProb+c.DelayProb:
		if c.budget() {
			return c.delay(req)
		}
	}
	return c.transport().RoundTrip(req)
}

// drop lets the worker execute the job, then loses the response.
func (c *Chaos) drop(req *http.Request) (*http.Response, error) {
	c.drops.Add(1)
	resp, err := c.transport().RoundTrip(req)
	if err != nil {
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil, fmt.Errorf("chaos: response dropped")
}

// duplicate executes the job twice and returns the second response: the
// coordinator observes one answer, but the work unit ran twice — the wire
// analogue of a worker answering after its lease expired.
func (c *Chaos) duplicate(req *http.Request) (*http.Response, error) {
	if req.GetBody == nil {
		// Cannot replay the body; degrade to a transparent exchange.
		return c.transport().RoundTrip(req)
	}
	c.duplicates.Add(1)
	first, err := c.transport().RoundTrip(req)
	if err == nil {
		_, _ = io.Copy(io.Discard, first.Body)
		first.Body.Close()
	}
	body, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	replay := req.Clone(req.Context())
	replay.Body = body
	return c.transport().RoundTrip(replay)
}

// corrupt flips one byte in the middle half of the response body — the
// region the measurement payload occupies in a gob RunResult. A flip
// drawn over the whole body could land on a byte no integrity check
// covers (the SimSeconds float, or a gob descriptor name whose mangling
// just makes the decoder skip a field), and an undetectable corruption
// exercises nothing; the middle half keeps the fault inside the digested
// payload whatever optional fields pad the frame.
func (c *Chaos) corrupt(req *http.Request) (*http.Response, error) {
	resp, err := c.transport().RoundTrip(req)
	if err != nil {
		return nil, err
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if len(payload) > 0 {
		c.corrupts.Add(1)
		c.mu.Lock()
		i := c.rng.Intn(len(payload))
		c.mu.Unlock()
		if len(payload) >= 4 {
			i = len(payload)/4 + i%(len(payload)/2)
		}
		payload[i] ^= 0xff
	}
	resp.Body = io.NopCloser(bytes.NewReader(payload))
	resp.ContentLength = int64(len(payload))
	return resp, nil
}

// delay stalls the response.
func (c *Chaos) delay(req *http.Request) (*http.Response, error) {
	c.delays.Add(1)
	resp, err := c.transport().RoundTrip(req)
	select {
	case <-time.After(c.Delay):
	case <-req.Context().Done():
	}
	return resp, err
}

// KillSwitch wraps a worker handler and kills the worker after it has
// accepted After requests: every request from then on — including ones
// already executing — aborts with a connection reset, which is what a
// coordinator observes when a worker process dies mid-job. Run requests
// only are counted, so probes can't trip the switch.
//
// A KillSwitch can also be driven externally: Kill drops the worker
// immediately (every request — probes included — aborts, exactly like
// a dead process) and Revive brings it back, modelling a supervisor
// restarting the crashed worker at the same address. A chaos soak
// cycles Kill/Revive on a schedule while load runs; the coordinator's
// per-campaign probe picks revived workers back up.
type KillSwitch struct {
	// Handler is the wrapped worker surface.
	Handler http.Handler
	// After is how many run requests succeed before the worker dies.
	After int64

	seen   atomic.Int64
	downed atomic.Bool // externally killed via Kill
}

// Dead reports whether the switch has tripped (by request count or by
// an explicit Kill).
func (k *KillSwitch) Dead() bool { return k.downed.Load() || k.seen.Load() > k.After }

// Kill drops the worker now: every subsequent request, including
// health probes and requests already executing, aborts with a
// connection reset.
func (k *KillSwitch) Kill() { k.downed.Store(true) }

// Revive undoes Kill (the supervisor restarted the process). The
// request-count trigger is unaffected: a switch that tripped via After
// stays dead.
func (k *KillSwitch) Revive() { k.downed.Store(false) }

// ServeHTTP implements http.Handler.
func (k *KillSwitch) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	if k.downed.Load() {
		// http.ErrAbortHandler makes the server drop the connection
		// without a response: the client sees io.ErrUnexpectedEOF or a
		// reset, exactly like a crashed process.
		panic(http.ErrAbortHandler)
	}
	if strings.HasSuffix(req.URL.Path, PathRun) {
		if k.seen.Add(1) > k.After {
			panic(http.ErrAbortHandler)
		}
	}
	k.Handler.ServeHTTP(rw, req)
}
