package core

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"strings"
	"testing"

	"gemstone/internal/hw"
	"gemstone/internal/platform"
)

func TestRunSetSaveLoadRoundTrip(t *testing.T) {
	f := getFixture(t)
	var buf bytes.Buffer
	if err := SaveRunSet(&buf, f.hwRuns); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRunSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Platform != f.hwRuns.Platform {
		t.Fatal("platform name lost")
	}
	if len(loaded.Runs) != len(f.hwRuns.Runs) {
		t.Fatalf("runs %d != %d", len(loaded.Runs), len(f.hwRuns.Runs))
	}
	for key, want := range f.hwRuns.Runs {
		got, ok := loaded.Runs[key]
		if !ok {
			t.Fatalf("missing run %v", key)
		}
		if got.Seconds != want.Seconds || got.PowerWatts != want.PowerWatts ||
			got.Sample.Tally != want.Sample.Tally {
			t.Fatalf("run %v diverged after round trip", key)
		}
	}
	// The archive supports the full analysis pipeline.
	vs, err := Validate(loaded, f.v1Runs, hw.ClusterA15)
	if err != nil {
		t.Fatal(err)
	}
	vsOrig, err := Validate(f.hwRuns, f.v1Runs, hw.ClusterA15)
	if err != nil {
		t.Fatal(err)
	}
	if vs.MAPE != vsOrig.MAPE || vs.MPE != vsOrig.MPE {
		t.Fatal("analysis on a restored archive must match the original")
	}
}

// TestSaveRunSetCanonicalBytes pins the canonical encoding: repeated
// saves of the same set are byte-identical even though Go randomises the
// map iteration order underneath.
func TestSaveRunSetCanonicalBytes(t *testing.T) {
	f := getFixture(t)
	var a, b bytes.Buffer
	if err := SaveRunSet(&a, f.hwRuns); err != nil {
		t.Fatal(err)
	}
	if err := SaveRunSet(&b, f.hwRuns); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of the same run set produced different bytes")
	}
}

func TestRunSetPersistErrors(t *testing.T) {
	if err := SaveRunSet(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("nil run set must error")
	}
	if err := SaveRunSet(&bytes.Buffer{}, &RunSet{Platform: "x"}); err == nil {
		t.Fatal("empty run set must error")
	}
	if _, err := LoadRunSet(strings.NewReader("junk")); err == nil {
		t.Fatal("non-gzip input must error")
	}

	// A version-1 envelope carried the runs as a map-encoded RunSet; that
	// format is no longer read and must be refused by name.
	var v1 bytes.Buffer
	zw := gzip.NewWriter(&v1)
	legacy := struct {
		Version  int
		Platform string
		Runs     *RunSet
	}{1, "x", &RunSet{Platform: "x", Runs: map[RunKey]platform.Measurement{{Workload: "w"}: {}}}}
	if err := gob.NewEncoder(zw).Encode(legacy); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRunSet(&v1); err == nil || !strings.Contains(err.Error(), "unsupported run-set version 1") {
		t.Fatalf("version-1 archive: got %v, want an unsupported-version error", err)
	}
}
