package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"gemstone/internal/core"
	"gemstone/internal/ledger"
	"gemstone/internal/platform"
)

// loadArchive fetches and decodes one campaign run-set archive.
func loadArchive(t *testing.T, base, tenant, id, set string) *core.RunSet {
	t.Helper()
	status, body := fetch(t, base, tenant, "/v1/campaigns/"+id+"/archive/"+set)
	if status != http.StatusOK {
		t.Fatalf("%s archive status %d", set, status)
	}
	rs, err := core.LoadRunSet(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestAtomicCampaign runs a full atomic-tier campaign through the
// service and checks tier provenance end to end: every archived run is
// atomic, and the ledger entry records the tier.
func TestAtomicCampaign(t *testing.T) {
	n := campaignSize(t)
	ledgerPath := filepath.Join(t.TempDir(), "ledger.jsonl")
	svc := New(Config{Ledger: ledger.Open(ledgerPath)})
	defer svc.Close()
	api := httptest.NewServer(svc.Handler())
	defer api.Close()

	spec := testSpec(n)
	spec.Fidelity = "atomic"
	id := submit(t, api.URL, "t", spec)
	events := followSSE(t, api.URL, "t", id)
	if last := events[len(events)-1]; last.Type != "done" {
		t.Fatalf("stream ended with %q (error=%q), want done", last.Type, last.Error)
	}

	for _, set := range []string{"hw", "sim"} {
		rs := loadArchive(t, api.URL, "t", id, set)
		for k, m := range rs.Runs {
			if m.Fidelity != platform.FidelityAtomic {
				t.Fatalf("%s run %v has fidelity %s, want atomic", set, k, m.Fidelity)
			}
		}
	}

	scan, err := ledger.Open(ledgerPath).Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Entries) != 1 {
		t.Fatalf("ledger has %d entries, want 1", len(scan.Entries))
	}
	if got := scan.Entries[0].Manifest.Fidelity; got != "atomic" {
		t.Fatalf("ledger fidelity %q, want atomic", got)
	}
}

// TestCampaignCacheFidelityIsolation pins the tenant-namespaced cache
// separation between tiers: a detailed campaign followed by an atomic
// campaign of the identical spec, same tenant, same shared cache — the
// atomic campaign must never be served the detailed campaign's cached
// measurements (or vice versa).
func TestCampaignCacheFidelityIsolation(t *testing.T) {
	n := campaignSize(t)
	svc := New(Config{Cache: core.NewMemoryCache(0)})
	defer svc.Close()
	api := httptest.NewServer(svc.Handler())
	defer api.Close()

	detSpec := testSpec(n)
	detID := submit(t, api.URL, "t", detSpec)
	if last := followSSE(t, api.URL, "t", detID); last[len(last)-1].Type != "done" {
		t.Fatalf("detailed campaign failed: %+v", last[len(last)-1])
	}

	atomSpec := testSpec(n)
	atomSpec.Fidelity = "atomic"
	atomID := submit(t, api.URL, "t", atomSpec)
	if last := followSSE(t, api.URL, "t", atomID); last[len(last)-1].Type != "done" {
		t.Fatalf("atomic campaign failed: %+v", last[len(last)-1])
	}

	det := loadArchive(t, api.URL, "t", detID, "sim")
	atom := loadArchive(t, api.URL, "t", atomID, "sim")
	if len(det.Runs) != len(atom.Runs) || len(det.Runs) == 0 {
		t.Fatalf("run counts differ: %d vs %d", len(det.Runs), len(atom.Runs))
	}
	for k, dm := range det.Runs {
		am, ok := atom.Runs[k]
		if !ok {
			t.Fatalf("atomic campaign missing run %v", k)
		}
		if dm.Fidelity != platform.FidelityDetailed {
			t.Fatalf("detailed run %v has fidelity %s", k, dm.Fidelity)
		}
		if am.Fidelity != platform.FidelityAtomic {
			t.Fatalf("atomic run %v has fidelity %s — cache served a detailed entry across tiers", k, am.Fidelity)
		}
	}
}

// TestScreenModeCampaign runs a screen-then-resimulate campaign through
// the service: the stream carries a "screened" frame and one
// collect-start frame per sub-campaign (an atomic sweep and one
// re-simulation per platform), the flagged points hold detailed
// measurements in the merged archives, and the ledger entry records the
// mode and the flagged points.
func TestScreenModeCampaign(t *testing.T) {
	n := campaignSize(t)
	ledgerPath := filepath.Join(t.TempDir(), "ledger.jsonl")
	svc := New(Config{Ledger: ledger.Open(ledgerPath)})
	defer svc.Close()
	api := httptest.NewServer(svc.Handler())
	defer api.Close()

	spec := testSpec(n)
	spec.Mode = ModeScreen
	id := submit(t, api.URL, "t", spec)
	events := followSSE(t, api.URL, "t", id)
	if last := events[len(events)-1]; last.Type != "done" {
		t.Fatalf("stream ended with %q (error=%q), want done", last.Type, last.Error)
	}
	screened := -1
	var starts []Event
	for _, e := range events {
		switch e.Type {
		case "screened":
			screened = e.Flagged
		case "collect-start":
			starts = append(starts, e)
		}
	}
	if screened < 0 {
		t.Fatal("no screened frame on the event stream")
	}
	// One collect-start per campaign: the atomic sweep on each platform,
	// then one re-simulation of all the flagged points on each platform.
	if len(starts) != 4 {
		t.Fatalf("%d collect-start frames, want 4 (2 atomic, 2 re-simulation)", len(starts))
	}
	for i, e := range starts {
		want := n
		if i >= 2 {
			want = screened
		}
		if e.Jobs != want {
			t.Fatalf("collect-start %d on %s has %d jobs, want %d", i, e.Platform, e.Jobs, want)
		}
	}

	scan, err := ledger.Open(ledgerPath).Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Entries) != 1 {
		t.Fatalf("ledger has %d entries, want 1", len(scan.Entries))
	}
	man := scan.Entries[0].Manifest
	if man.Mode != ModeScreen {
		t.Fatalf("ledger mode %q, want screen", man.Mode)
	}
	if len(man.ScreenFlagged) != screened {
		t.Fatalf("ledger flags %d points, screened frame said %d", len(man.ScreenFlagged), screened)
	}

	// The smoke grid is smaller than the screen's default top-K, so every
	// point is flagged and re-simulated: the merged archives must be all
	// detailed, and byte-identical to a plain detailed campaign.
	goldenHW, goldenSim := localGolden(t, testSpec(n))
	for _, tc := range []struct {
		set    string
		golden *core.RunSet
	}{{"hw", goldenHW}, {"sim", goldenSim}} {
		rs := loadArchive(t, api.URL, "t", id, tc.set)
		if screened != len(rs.Runs) {
			t.Fatalf("screened %d points, %s archive has %d runs", screened, tc.set, len(rs.Runs))
		}
		for k, m := range rs.Runs {
			if m.Fidelity != platform.FidelityDetailed {
				t.Fatalf("%s flagged run %v still %s after re-simulation", tc.set, k, m.Fidelity)
			}
		}
		if got, want := archiveBytes(t, rs), archiveBytes(t, tc.golden); !bytes.Equal(got, want) {
			t.Fatalf("%s screen archive differs from detailed golden (%d vs %d bytes)", tc.set, len(got), len(want))
		}
	}
}

// TestLedgerManifestFullCampaign: a full campaign's ledger entry follows
// the manifest schema as the CLI writes it — no mode (empty means a full
// campaign; only screens record one) and the DVFS grid the hardware
// campaign swept, sorted, whatever the request's frequency order.
func TestLedgerManifestFullCampaign(t *testing.T) {
	ledgerPath := filepath.Join(t.TempDir(), "ledger.jsonl")
	svc := New(Config{Ledger: ledger.Open(ledgerPath)})
	defer svc.Close()
	api := httptest.NewServer(svc.Handler())
	defer api.Close()

	// The swept set includes the default 1000 MHz analysis point.
	id := submit(t, api.URL, "t", &CampaignSpec{Mode: ModeFull, FreqsMHz: []int{1800, 1000}, MaxWorkloads: 2})
	if events := followSSE(t, api.URL, "t", id); events[len(events)-1].Type != "done" {
		t.Fatalf("campaign failed: %+v", events[len(events)-1])
	}

	scan, err := ledger.Open(ledgerPath).Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Entries) != 1 {
		t.Fatalf("ledger has %d entries, want 1", len(scan.Entries))
	}
	man := scan.Entries[0].Manifest
	if man.Mode != "" {
		t.Fatalf("ledger mode %q, want empty for a full campaign", man.Mode)
	}
	if want := map[string][]int{"a15": {1000, 1800}}; !reflect.DeepEqual(man.DVFSGrid, want) {
		t.Fatalf("ledger dvfs_grid %v, want %v", man.DVFSGrid, want)
	}
}
