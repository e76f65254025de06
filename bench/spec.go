package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// benchSpec is BENCHMARK.json: the declared workloads and metrics. It is
// the single source of every metric's unit, direction and bound; the
// command reads it to label its output and refuses to report a metric it
// does not declare.
type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	seen := map[string]bool{}
	for _, group := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range group {
			if !metricNameRE.MatchString(m.Name) || seen[m.Name] {
				return nil, fmt.Errorf("%s: bad or duplicate metric name %q", path, m.Name)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return nil, fmt.Errorf("%s: metric %s: better must be lower or higher", path, m.Name)
			}
			seen[m.Name] = true
		}
	}
	return &s, nil
}

// metricsFor returns the metrics one mode reports: the end-to-end set
// untraced, the per-layer set traced.
func (s *benchSpec) metricsFor(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// matchDeclared reports the difference between the metrics a run
// produced and the ones the spec declares for its mode, in both
// directions; an empty result means they agree.
func matchDeclared(declared []metricSpec, got map[string]float64) []string {
	var diffs []string
	want := map[string]bool{}
	for _, m := range declared {
		want[m.Name] = true
		if _, ok := got[m.Name]; !ok {
			diffs = append(diffs, "missing "+m.Name)
		}
	}
	var extra []string
	for name := range got {
		if !want[name] {
			extra = append(extra, "undeclared "+name)
		}
	}
	sort.Strings(extra)
	return append(diffs, extra...)
}
