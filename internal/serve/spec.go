// Package serve is the campaign service: a long-running daemon that
// promotes the one-shot CLI campaign flow into a multi-tenant HTTP/JSON
// API. A client POSTs a campaign spec, follows the run over an SSE event
// stream, and reads the analysis surface (validation, workload
// clustering, power model) plus the canonical gob archives back off the
// same campaign resource. Execution is byte-compatible with the CLI: the
// service drives the identical collector (local or distributed), so an
// archive downloaded from the service is byte-for-byte the archive a
// local Collect of the same spec would produce.
//
// Tenancy is namespace isolation, not authentication: the X-Gemstone-Tenant
// header scopes campaign visibility, run-cache keys and ledger provenance.
// Admission control bounds the damage any one tenant can do to the shared
// fleet (max in-flight campaigns, per-tenant quotas, 429 on overflow).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"gemstone/internal/core"
	"gemstone/internal/gem5"
	"gemstone/internal/hw"
	"gemstone/internal/platform"
	"gemstone/internal/workload"
)

// Spec decode errors. The HTTP layer maps ErrMalformed to 400 (the bytes
// are not a spec) and ErrInvalid to 422 (the spec parses but names
// something the service cannot run).
var (
	ErrMalformed = errors.New("malformed campaign spec")
	ErrInvalid   = errors.New("invalid campaign spec")
)

// MaxSpecBytes bounds the request body a spec may occupy. Specs are a
// few hundred bytes of JSON; anything near the limit is hostile.
const MaxSpecBytes = 1 << 20

// CampaignSpec is the request body of POST /v1/campaigns: which gem5
// model to validate, on which cluster, at which DVFS points, over which
// workloads. Every field is optional — the zero spec is the paper's
// default validation campaign (model V1, A15 cluster, Experiment-1
// frequencies, the full validation workload set).
type CampaignSpec struct {
	// Gem5Version selects the simulated model version (1 or 2, Section
	// VII); 0 means 1.
	Gem5Version int `json:"gem5_version,omitempty"`
	// Cluster is the analysed cluster ("a15" or "a7"); empty means a15.
	Cluster string `json:"cluster,omitempty"`
	// FreqMHz is the analysis operating point for the per-workload
	// analyses (clustering, power); 0 means 1000. It must be one of the
	// swept frequencies.
	FreqMHz int `json:"freq_mhz,omitempty"`
	// FreqsMHz lists the swept DVFS points; empty means the paper's
	// Experiment-1 frequencies for the cluster. Each must exist in the
	// cluster's DVFS table.
	FreqsMHz []int `json:"freqs_mhz,omitempty"`
	// Workloads names the workload profiles to run; empty means the
	// validation set. Names must exist in the suite catalogue.
	Workloads []string `json:"workloads,omitempty"`
	// MaxWorkloads truncates the workload list (after defaulting) to the
	// first n entries — the knob that makes smoke campaigns cheap without
	// enumerating names. 0 means no truncation.
	MaxWorkloads int `json:"max_workloads,omitempty"`
	// Fidelity selects the simulation tier ("detailed" or "atomic");
	// empty means detailed. Atomic campaigns predict from short anchor
	// runs — an order of magnitude cheaper, with a documented error
	// bound — and are cached and job-addressed separately from detailed
	// runs. Incompatible with screen mode, which sets the tier per phase.
	Fidelity string `json:"fidelity,omitempty"`
	// Mode selects the campaign shape: "" or "full" runs the whole grid
	// at one tier; "screen" sweeps the grid atomically on both platforms,
	// flags the largest-error points, and re-simulates only those at the
	// detailed tier (mixed-fidelity results, per-run provenance in the
	// archives and ledger entry).
	Mode string `json:"mode,omitempty"`

	// profiles is the resolved workload list, populated by Validate.
	profiles []workload.Profile
	// fidelity is the parsed Fidelity, populated by Validate.
	fidelity platform.Fidelity
}

// Campaign modes.
const (
	ModeFull   = "full"
	ModeScreen = "screen"
)

// ParseCampaignSpec decodes and validates one spec from r. Unknown
// fields, trailing data, oversized bodies and type mismatches are
// ErrMalformed; a well-formed spec naming an unknown model, cluster,
// workload or frequency is ErrInvalid.
func ParseCampaignSpec(r io.Reader) (*CampaignSpec, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxSpecBytes+1))
	dec.DisallowUnknownFields()
	var s CampaignSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	// A spec is exactly one JSON value: trailing bytes mean the client
	// and server disagree about the protocol, so reject rather than
	// silently ignore.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after spec", ErrMalformed)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate applies defaults and checks the spec against the catalogue
// and the platform DVFS tables, resolving workload names to profiles.
// All failures wrap ErrInvalid.
func (s *CampaignSpec) Validate() error {
	fid, err := platform.ParseFidelity(s.Fidelity)
	if err != nil {
		return fmt.Errorf("%w: unknown fidelity %q (want \"detailed\" or \"atomic\")", ErrInvalid, s.Fidelity)
	}
	s.fidelity = fid
	switch s.Mode {
	case "", ModeFull:
	case ModeScreen:
		if s.Fidelity != "" {
			return fmt.Errorf("%w: fidelity cannot be set in screen mode (the screen sets the tier per phase)", ErrInvalid)
		}
	default:
		return fmt.Errorf("%w: unknown mode %q (want \"full\" or \"screen\")", ErrInvalid, s.Mode)
	}
	if s.Gem5Version == 0 {
		s.Gem5Version = int(gem5.V1)
	}
	switch gem5.Version(s.Gem5Version) {
	case gem5.V1, gem5.V2:
	default:
		return fmt.Errorf("%w: unknown gem5 version %d", ErrInvalid, s.Gem5Version)
	}
	if s.Cluster == "" {
		s.Cluster = hw.ClusterA15
	}
	cc, err := hw.Platform().Cluster(s.Cluster)
	if err != nil {
		return fmt.Errorf("%w: unknown cluster %q", ErrInvalid, s.Cluster)
	}
	if len(s.FreqsMHz) == 0 {
		s.FreqsMHz = hw.ExperimentFrequencies(s.Cluster)
	}
	table := map[int]bool{}
	for _, f := range cc.Frequencies() {
		table[f] = true
	}
	seen := map[int]bool{}
	for _, f := range s.FreqsMHz {
		if !table[f] {
			return fmt.Errorf("%w: frequency %d MHz not in %s DVFS table", ErrInvalid, f, s.Cluster)
		}
		if seen[f] {
			return fmt.Errorf("%w: duplicate frequency %d MHz", ErrInvalid, f)
		}
		seen[f] = true
	}
	if s.FreqMHz == 0 {
		s.FreqMHz = 1000
	}
	if !seen[s.FreqMHz] {
		return fmt.Errorf("%w: analysis frequency %d MHz not among swept frequencies", ErrInvalid, s.FreqMHz)
	}
	if s.MaxWorkloads < 0 {
		return fmt.Errorf("%w: negative max_workloads", ErrInvalid)
	}
	if len(s.Workloads) == 0 {
		for _, p := range workload.Validation() {
			s.Workloads = append(s.Workloads, p.Name)
		}
	}
	if s.MaxWorkloads > 0 && len(s.Workloads) > s.MaxWorkloads {
		s.Workloads = s.Workloads[:s.MaxWorkloads]
	}
	s.profiles = s.profiles[:0]
	dup := map[string]bool{}
	for _, name := range s.Workloads {
		if dup[name] {
			return fmt.Errorf("%w: duplicate workload %q", ErrInvalid, name)
		}
		dup[name] = true
		p, err := workload.ByName(name)
		if err != nil {
			return fmt.Errorf("%w: unknown workload %q", ErrInvalid, name)
		}
		s.profiles = append(s.profiles, p)
	}
	return nil
}

// Profiles returns the resolved workload profiles (Validate must have
// succeeded).
func (s *CampaignSpec) Profiles() []workload.Profile { return s.profiles }

// ResolvedFidelity returns the parsed simulation tier (Validate must
// have succeeded).
func (s *CampaignSpec) ResolvedFidelity() platform.Fidelity { return s.fidelity }

// Screening reports whether the spec requests a screen-then-resimulate
// campaign.
func (s *CampaignSpec) Screening() bool { return s.Mode == ModeScreen }

// Options builds the collector options for one platform run of this
// spec. Each call returns a fresh value so the two campaign halves
// (hardware reference, model) never share mutable state.
func (s *CampaignSpec) Options() core.CollectOptions {
	return core.CollectOptions{
		Workloads: append([]workload.Profile(nil), s.profiles...),
		Clusters:  []string{s.Cluster},
		Freqs:     map[string][]int{s.Cluster: append([]int(nil), s.FreqsMHz...)},
		Fidelity:  s.fidelity,
	}
}
