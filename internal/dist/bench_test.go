package dist

import (
	"context"
	"net/http/httptest"
	"testing"

	"gemstone/internal/hw"
	"gemstone/internal/obs"
)

// benchFleet stands up a two-worker fleet for the campaign benchmarks.
func benchFleet(b *testing.B) *Coordinator {
	b.Helper()
	var urls []string
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(NewWorker(WorkerConfig{MaxParallel: 2}).Handler())
		b.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	return NewCoordinator(CoordinatorConfig{Workers: urls})
}

func benchCampaign(b *testing.B, traced bool) {
	coord := benchFleet(b)
	run := func() {
		opt := campaignOpts(2)
		if traced {
			opt.Tracer = obs.NewTracer()
		}
		if _, err := coord.Collect(context.Background(), hw.Platform(), opt); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the workers' SimContext pools
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkRemoteCampaign / BenchmarkRemoteCampaignTraced re-measure
// the ≤ 2 % tracing-overhead bar on the distributed path: the traced
// run additionally records four spans per job worker-side, ships them
// back in the JobResult gob, and stitches them clock-offset-adjusted
// into the campaign tracer.
func BenchmarkRemoteCampaign(b *testing.B)       { benchCampaign(b, false) }
func BenchmarkRemoteCampaignTraced(b *testing.B) { benchCampaign(b, true) }
