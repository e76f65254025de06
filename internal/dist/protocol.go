// Package dist distributes a GemStone campaign across machines: a
// coordinator shards the campaign's job list into content-addressed work
// units (the same keys the PR-1 run cache uses) and serves them over HTTP
// to remote workers, which simulate with the batched SimContext path and
// stream measurements back. The paper's workflow (Fig. 1) is
// embarrassingly parallel across (workload x cluster x DVFS) runs, so the
// coordinator's only hard job is fault tolerance: retry with exponential
// backoff and jitter, per-attempt timeouts, reassignment when a worker
// dies mid-job, and graceful degradation to pure-local execution when no
// workers answer. The contract is bit-for-bit equivalence: a distributed
// campaign produces the identical canonical RunSet archive as a local
// core.Collect, including under injected faults (see Chaos).
package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"

	"gemstone/internal/gem5"
	"gemstone/internal/hw"
	"gemstone/internal/obs"
	"gemstone/internal/platform"
	"gemstone/internal/workload"
)

// ProtoVersion versions the wire protocol. Coordinator and worker both
// embed it in every message and reject a peer speaking another version —
// a version-skewed worker must never contribute measurements, or the
// bit-for-bit equivalence contract silently breaks.
//
// Additive, behaviour-optional fields do NOT bump the version: gob
// decoders skip stream fields the receiver's struct lacks and zero
// receiver fields the stream lacks, in both directions. The tracing
// fields (Job.Trace, RunResult.Spans/RecvUnixNano/DoneUnixNano) rely on
// exactly that — an old worker simply returns no spans and the
// coordinator's trace shows its dispatch window without worker detail,
// while an old coordinator ignores spans a new worker would have sent.
//
// Version 2 added Job.Fidelity, which is behaviour-REQUIRED: a version-1
// worker would zero the field and silently simulate an atomic job at the
// detailed tier (wrong cost) — or worse, the reverse — so fidelity rode
// a version bump, not gob's skip-and-zero tolerance.
const ProtoVersion = 2

// Wire endpoints (all relative to the worker's base URL).
const (
	// PathHello is the registration/health probe: GET returns a Hello.
	PathHello = "/v1/hello"
	// PathRun accepts one Job (gob body) and returns a RunResult.
	PathRun = "/v1/run"
)

// contentType marks gob-framed request and response bodies.
const contentType = "application/x-gob"

// Hello is the worker's registration/probe response.
type Hello struct {
	// Proto is the worker's protocol version.
	Proto int
	// Capacity is the number of jobs the worker simulates concurrently.
	Capacity int
	// Runs counts the jobs the worker has completed since it started.
	Runs int64
}

// PlatformSpec identifies a platform over the wire. Platforms are code,
// not data — a worker rebuilds the platform from its own binary — so the
// spec names a constructor, and the accompanying fingerprint proves both
// sides built the same configuration.
type PlatformSpec struct {
	// Kind selects the constructor: "hw" (the reference board), "gem5"
	// (a versioned model) or "gem5-defects" (an ablation model).
	Kind string
	// Version is the gem5 model version when Kind is "gem5".
	Version int
	// Defects is the big-cluster defect mask when Kind is "gem5-defects".
	Defects uint64
}

// Platform-spec kinds.
const (
	KindHW          = "hw"
	KindGem5        = "gem5"
	KindGem5Defects = "gem5-defects"
)

// Resolve builds the platform the spec names.
func (s PlatformSpec) Resolve() (*platform.Platform, error) {
	switch s.Kind {
	case KindHW:
		return hw.Platform(), nil
	case KindGem5:
		switch gem5.Version(s.Version) {
		case gem5.V1, gem5.V2:
			return gem5.Platform(gem5.Version(s.Version)), nil
		}
		return nil, fmt.Errorf("dist: unknown gem5 version %d", s.Version)
	case KindGem5Defects:
		if s.Defects > uint64(gem5.AllDefects) {
			return nil, fmt.Errorf("dist: defect mask %#x out of range", s.Defects)
		}
		return gem5.PlatformWithDefects(gem5.Defect(s.Defects)), nil
	}
	return nil, fmt.Errorf("dist: unknown platform kind %q", s.Kind)
}

// SpecFor finds the spec whose constructor reproduces pl, by matching the
// full configuration fingerprint (the same content hash the run cache
// keys on). A platform no spec reproduces — a hand-assembled
// platform.New — reports ok=false, and the coordinator degrades that
// campaign to local execution rather than shipping work it cannot name.
func SpecFor(pl *platform.Platform) (PlatformSpec, bool) {
	fp := pl.Config().Fingerprint()
	if hw.Platform().Config().Fingerprint() == fp {
		return PlatformSpec{Kind: KindHW}, true
	}
	for _, v := range []gem5.Version{gem5.V1, gem5.V2} {
		if gem5.Platform(v).Config().Fingerprint() == fp {
			return PlatformSpec{Kind: KindGem5, Version: int(v)}, true
		}
	}
	// Ablation platforms: the defect mask is a handful of bits, so an
	// exhaustive fingerprint sweep is cheap and runs once per campaign.
	for d := gem5.Defect(0); d <= gem5.AllDefects; d++ {
		if gem5.PlatformWithDefects(d).Config().Fingerprint() == fp {
			return PlatformSpec{Kind: KindGem5Defects, Defects: uint64(d)}, true
		}
	}
	return PlatformSpec{}, false
}

// Job is one work unit: a single (workload, cluster, frequency) run.
type Job struct {
	// Proto is the coordinator's protocol version.
	Proto int
	// ID is the content-addressed work-unit key — core.CacheKeyFidelity of
	// the run, so the same job always carries the same ID and a cached or
	// duplicated response is attributable to exactly one unit of work.
	ID string
	// Spec names the platform; PlatformFP is the coordinator's
	// Config.Fingerprint, which the worker must reproduce exactly.
	Spec       PlatformSpec
	PlatformFP string
	// Profile, Cluster and FreqMHz describe the run.
	Profile workload.Profile
	Cluster string
	FreqMHz int
	// Fidelity is the simulation tier of the run. It participates in the
	// job ID (tiers are distinct work units) and the worker dispatches on
	// it, which is why it is protocol-version-gated.
	Fidelity platform.Fidelity
	// Trace carries the job's correlation identity (campaign, tenant,
	// job, dispatch parent) and whether the worker should record and
	// return spans. Optional: the zero value is an anonymous, untraced
	// job, which is also what a pre-tracing coordinator sends.
	Trace obs.TraceContext
}

// RunResult is the worker's reply to one Job.
type RunResult struct {
	// Proto is the worker's protocol version.
	Proto int
	// ID echoes the job ID, so a misrouted or stale response can never be
	// recorded under the wrong work unit.
	ID string
	// Payload is the gob-encoded platform.Measurement. gob round-trips
	// float64 bits exactly, which the equivalence contract requires.
	Payload []byte
	// Digest is the SHA-256 of Payload. The coordinator recomputes it on
	// receipt: a corrupted-in-flight payload that still gob-decodes is
	// caught here and retried instead of poisoning the run set.
	Digest [sha256.Size]byte
	// SimSeconds is the worker-side wall time of the simulation, reported
	// so the coordinator's CollectStats aggregate stays meaningful.
	SimSeconds float64
	// Spans are the worker-side spans of this job (request receipt to
	// response encoding), timed on the worker's clock. Empty unless the
	// job asked for recording (Job.Trace.Record) — and always empty from
	// a pre-tracing worker, which this protocol version tolerates.
	Spans []obs.SpanRecord
	// RecvUnixNano and DoneUnixNano bracket the worker's handling on its
	// own clock: request decoded, response about to be written. Together
	// with the coordinator's send/receive times they yield an NTP-style
	// clock-offset estimate used to place Spans on the campaign timeline.
	RecvUnixNano int64
	DoneUnixNano int64
}

// encodeMeasurement frames a measurement as a digested payload.
func encodeMeasurement(m platform.Measurement) ([]byte, [sha256.Size]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return nil, [sha256.Size]byte{}, fmt.Errorf("dist: encoding measurement: %w", err)
	}
	return buf.Bytes(), sha256.Sum256(buf.Bytes()), nil
}

// Measurement verifies the result's digest and decodes the payload.
func (r *RunResult) Measurement() (platform.Measurement, error) {
	if sha256.Sum256(r.Payload) != r.Digest {
		return platform.Measurement{}, fmt.Errorf("dist: result %s: payload digest mismatch", r.ID)
	}
	var m platform.Measurement
	if err := gob.NewDecoder(bytes.NewReader(r.Payload)).Decode(&m); err != nil {
		return platform.Measurement{}, fmt.Errorf("dist: decoding result %s: %w", r.ID, err)
	}
	return m, nil
}
