package core

import (
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"gemstone/internal/platform"
)

// Run-set persistence: a measurement campaign (Experiments 1-4) can be
// archived and re-analysed later without re-running any simulation — the
// repository analogue of the paper's released experimental datasets
// (DOI 10.5258/SOTON/D0420). The format is gzip-compressed gob of the
// RunSet with a small versioned envelope.
//
// The encoding is canonical: runs are serialised as a slice sorted by
// (workload, cluster, frequency), never as a Go map, so the same RunSet
// always produces the same bytes. That makes archives diffable and
// content-hashable, and it is what lets the determinism test compare a
// parallel collection against a sequential one byte-for-byte.

// runSetFormatVersion names the canonical sorted-slice encoding;
// LoadRunSet refuses every other version.
const runSetFormatVersion = 2

// runRecord is one archived measurement.
type runRecord struct {
	Key RunKey
	M   platform.Measurement
}

type runSetEnvelope struct {
	Version  int
	Platform string
	// Records is the canonical sorted run list.
	Records []runRecord
}

// sortedRecords returns the run set's canonical record order.
func sortedRecords(rs *RunSet) []runRecord {
	recs := make([]runRecord, 0, len(rs.Runs))
	for k, m := range rs.Runs {
		recs = append(recs, runRecord{Key: k, M: m})
	}
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i].Key, recs[j].Key
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Cluster != b.Cluster {
			return a.Cluster < b.Cluster
		}
		return a.FreqMHz < b.FreqMHz
	})
	return recs
}

// SaveRunSet archives a run set to w. The output is deterministic: the
// same runs produce the same bytes regardless of how (or in what order)
// they were collected.
func SaveRunSet(w io.Writer, rs *RunSet) error {
	if rs == nil || len(rs.Runs) == 0 {
		return fmt.Errorf("core: refusing to save an empty run set")
	}
	zw := gzip.NewWriter(w)
	enc := gob.NewEncoder(zw)
	if err := enc.Encode(runSetEnvelope{
		Version:  runSetFormatVersion,
		Platform: rs.Platform,
		Records:  sortedRecords(rs),
	}); err != nil {
		return fmt.Errorf("core: encoding run set: %w", err)
	}
	return zw.Close()
}

// LoadRunSet restores a run set saved by SaveRunSet. Malformed input
// of any kind — truncation, corruption, or bytes that were never an
// archive — returns an error, never a panic.
func LoadRunSet(r io.Reader) (*RunSet, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("core: opening run-set archive: %w", err)
	}
	defer zr.Close()
	var env runSetEnvelope
	if err := gob.NewDecoder(zr).Decode(&env); err != nil {
		return nil, fmt.Errorf("core: decoding run set: %w", err)
	}
	// Drain to EOF so the gzip CRC covering the whole archive is checked;
	// truncation and bit rot surface here as errors, not as silent data.
	if _, err := io.Copy(io.Discard, zr); err != nil {
		return nil, fmt.Errorf("core: verifying run-set archive: %w", err)
	}
	if env.Version != runSetFormatVersion {
		return nil, fmt.Errorf("core: unsupported run-set version %d", env.Version)
	}
	if len(env.Records) == 0 {
		return nil, fmt.Errorf("core: archive contains no runs")
	}
	rs := &RunSet{Platform: env.Platform, Runs: make(map[RunKey]platform.Measurement, len(env.Records))}
	for _, rec := range env.Records {
		rs.Runs[rec.Key] = rec.M
	}
	return rs, nil
}
