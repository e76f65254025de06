package core

import (
	"context"
	"errors"
	"testing"

	"gemstone/internal/hw"
)

// The campaign error chain is part of the public contract: callers detect
// cancellation and per-run failures with errors.Is/errors.As, never by
// string matching. These tests pin the chain end to end.

// TestCollectErrorCancelCause pins that a cancelled campaign's error chain
// reaches context.Canceled through errors.Is.
func TestCollectErrorCancelCause(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Collect(ctx, hw.Platform(), smallCampaign())
	if err == nil {
		t.Fatal("expected an error from a cancelled campaign")
	}
	var ce *CollectError
	if !errors.As(err, &ce) {
		t.Fatalf("errors.As(*CollectError) failed on %T", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false; err = %v", err)
	}
	if !errors.Is(ce.Cause, context.Canceled) {
		t.Fatalf("Cause = %v, want context.Canceled", ce.Cause)
	}
}

// TestCollectErrorDeadlineCause pins that a deadline-exceeded campaign
// reports context.DeadlineExceeded — the context.Cause, not the bare
// context.Canceled a plain ctx.Err() chain would surface.
func TestCollectErrorDeadlineCause(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done()
	_, err := Collect(ctx, hw.Platform(), smallCampaign())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("errors.Is(err, context.DeadlineExceeded) = false; err = %v", err)
	}
}

// TestCollectErrorCustomCause pins that a caller-supplied cancellation
// cause (context.WithCancelCause) propagates into the CollectError chain.
func TestCollectErrorCustomCause(t *testing.T) {
	why := errors.New("power budget exhausted")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(why)
	_, err := Collect(ctx, hw.Platform(), smallCampaign())
	if !errors.Is(err, why) {
		t.Fatalf("errors.Is(err, cause) = false; err = %v", err)
	}
	var ce *CollectError
	if !errors.As(err, &ce) || !errors.Is(ce.Cause, why) {
		t.Fatalf("Cause = %v, want %v", ce.Cause, why)
	}
}

// TestRunErrorUnwrapsThroughCollectError pins that a failing run's
// underlying error is reachable with errors.As/Is through the
// CollectError multi-unwrap.
func TestRunErrorUnwrapsThroughCollectError(t *testing.T) {
	opt := smallCampaign()
	// An unknown frequency fails inside the simulation path of every job.
	opt.Freqs = map[string][]int{hw.ClusterA15: {123}}
	_, err := Collect(context.Background(), hw.Platform(), opt)
	if err == nil {
		t.Fatal("expected a run failure")
	}
	var re RunError
	if !errors.As(err, &re) {
		t.Fatalf("errors.As(RunError) failed on %v", err)
	}
	if re.Key.FreqMHz != 123 {
		t.Fatalf("RunError key = %v", re.Key)
	}
	if re.Unwrap() == nil {
		t.Fatal("RunError.Unwrap returned nil")
	}
}

// TestPlanCampaignMatchesCollect pins that the exported planner produces
// the job list Collect runs: same keys, same order, and cache keys
// exactly when a cache is configured.
func TestPlanCampaignMatchesCollect(t *testing.T) {
	pl := hw.Platform()
	opt := smallCampaign()
	jobs, err := PlanCampaign(pl, &opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 8 {
		t.Fatalf("planned %d jobs, want 8", len(jobs))
	}
	for _, j := range jobs {
		if j.CacheKey != "" {
			t.Fatalf("cache key planned without a cache: %v", j.Key)
		}
		if j.Profile.Name != j.Key.Workload {
			t.Fatalf("profile %q under key %v", j.Profile.Name, j.Key)
		}
	}

	withCache := smallCampaign()
	withCache.Cache = NewMemoryCache(0)
	cachedJobs, err := PlanCampaign(pl, &withCache)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range cachedJobs {
		if j.Key != jobs[i].Key {
			t.Fatalf("job %d key %v diverged from plain plan %v", i, j.Key, jobs[i].Key)
		}
		want, err := CacheKey(pl, j.Profile, j.Key.Cluster, j.Key.FreqMHz)
		if err != nil {
			t.Fatal(err)
		}
		if j.CacheKey != want {
			t.Fatalf("job %d cache key %q, want %q", i, j.CacheKey, want)
		}
	}
}
