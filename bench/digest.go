package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"sort"

	"gemstone/internal/core"
	"gemstone/internal/platform"
	"gemstone/internal/pmu"
)

// The canonical projection of a measurement is what the benchmark pins:
// the run key, the timing, power and thermal outputs, the tally's cycles
// and committed instructions, and the value of every PMU event. Fields a
// later change adds to Measurement do not enter it, so adding provenance
// never breaks the golden file; any change to a simulated number does.

var allEvents = pmu.AllEvents()

func writeProjection(h hash.Hash, k core.RunKey, m *platform.Measurement) {
	var buf [8]byte
	str := func(s string) {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		h.Write([]byte(s))
	}
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	str(k.Workload)
	str(k.Cluster)
	u64(uint64(k.FreqMHz))
	f64(m.Seconds)
	f64(m.PowerWatts)
	f64(m.EnergyJoules)
	f64(m.TemperatureC)
	if m.Throttled {
		u64(1)
	} else {
		u64(0)
	}
	u64(m.Sample.Tally.Cycles)
	u64(m.Sample.Tally.Committed)
	for _, e := range allEvents {
		f64(m.Sample.Value(e))
	}
}

func sortedKeys(runs map[core.RunKey]platform.Measurement) []core.RunKey {
	keys := make([]core.RunKey, 0, len(runs))
	for k := range runs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Cluster != b.Cluster {
			return a.Cluster < b.Cluster
		}
		return a.FreqMHz < b.FreqMHz
	})
	return keys
}

func sum16(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:8]) }

// runSetDigest hashes the canonical projection of every run in sorted key
// order, so it is independent of collection order and worker count.
func runSetDigest(rs *core.RunSet) string {
	h := sha256.New()
	h.Write([]byte(rs.Platform))
	for _, k := range sortedKeys(rs.Runs) {
		m := rs.Runs[k]
		writeProjection(h, k, &m)
	}
	return sum16(h)
}

// sliceDigests splits a run set into DVFS slices — every workload at one
// (cluster, frequency) point — and digests each. The slice name is
// "platform/cluster@freq". Golden files key on slices, so a workload that
// samples operating points with its seed can still be checked exactly.
func sliceDigests(rs *core.RunSet) map[string]string {
	slices := map[string]*core.RunSet{}
	for k, m := range rs.Runs {
		name := sliceName(rs.Platform, k.Cluster, k.FreqMHz)
		s := slices[name]
		if s == nil {
			s = &core.RunSet{Platform: rs.Platform, Runs: map[core.RunKey]platform.Measurement{}}
			slices[name] = s
		}
		s.Runs[k] = m
	}
	out := make(map[string]string, len(slices))
	for name, s := range slices {
		out[name] = runSetDigest(s)
	}
	return out
}

func sliceName(platformName, cluster string, freqMHz int) string {
	return fmt.Sprintf("%s/%s@%d", platformName, cluster, freqMHz)
}

// jsonDigest hashes the JSON encoding of v. encoding/json writes floats
// in their shortest exact form and sorts map keys, so equal values give
// equal digests.
func jsonDigest(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(data)
	return sum16(h), nil
}

// golden is bench/golden.json: the pinned digests every run is checked
// against. None depends on the seed, so every run is checked exactly.
type golden struct {
	// PaperCold maps "platform/cluster@freq" to the digest of the 45
	// validation workloads at that point.
	PaperCold map[string]string `json:"paper_cold"`
	// PaperAnalyses is the digest of the paper analyses over the full
	// Experiment 1-2 campaign.
	PaperAnalyses string `json:"paper_analyses"`
	// AtomicScreen is the digest of the held-out screen's result.
	AtomicScreen string `json:"atomic_screen"`
}

func loadGolden(path string) (*golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading golden file: %w", err)
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("parsing golden file %s: %w", path, err)
	}
	return &g, nil
}

func (g *golden) save(path string) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
