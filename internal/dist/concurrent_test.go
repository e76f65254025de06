package dist

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"gemstone/internal/core"
	"gemstone/internal/gem5"
	"gemstone/internal/hw"
	"gemstone/internal/obs"
)

// TestConcurrentCampaigns is the regression test for the coordinator's
// former one-campaign-at-a-time assumption: overlapping campaigns share
// one worker fleet, including two campaigns with *identical* specs,
// whose content-addressed job IDs collide across campaigns. Every
// campaign must produce the byte-identical canonical archive a local
// Collect yields (no cross-campaign job bleed), and the in-flight gauge
// must drain to zero once every campaign has finished.
func TestConcurrentCampaigns(t *testing.T) {
	n := campaignSize(t)
	localHW, err := core.Collect(context.Background(), hw.Platform(), campaignOpts(n))
	if err != nil {
		t.Fatal(err)
	}
	localSim, err := core.Collect(context.Background(), gem5.Platform(gem5.V1), campaignOpts(n))
	if err != nil {
		t.Fatal(err)
	}

	w1 := startWorker(t, nil)
	w2 := startWorker(t, nil)
	reg := obs.NewRegistry()
	coord := NewCoordinator(CoordinatorConfig{
		Workers:  []string{w1.URL, w2.URL},
		Registry: reg,
	})

	// Campaigns a and b are the same spec on the same platform —
	// identical job IDs in flight at once. Campaign c interleaves a
	// different platform through the same fleet.
	type launch struct {
		name string
		pl   string
	}
	launches := []launch{
		{"campaign-a", "hw"},
		{"campaign-b", "hw"},
		{"campaign-c", "sim"},
	}
	results := make([]*core.RunSet, len(launches))
	errs := make([]error, len(launches))
	var wg sync.WaitGroup
	for i, l := range launches {
		wg.Add(1)
		go func(i int, l launch) {
			defer wg.Done()
			pl := hw.Platform()
			if l.pl == "sim" {
				pl = gem5.Platform(gem5.V1)
			}
			opt := campaignOpts(n)
			opt.Name = l.name
			results[i], errs[i] = coord.Collect(context.Background(), pl, opt)
		}(i, l)
	}
	wg.Wait()

	for i, l := range launches {
		if errs[i] != nil {
			t.Fatalf("%s: %v", l.name, errs[i])
		}
		want := localHW
		if l.pl == "sim" {
			want = localSim
		}
		if got := archiveBytes(t, results[i]); !bytes.Equal(got, archiveBytes(t, want)) {
			t.Errorf("%s: archive differs from local %s collect (cross-campaign bleed?)", l.name, l.pl)
		}
	}

	assertNoInflight(t, reg)

	remote := 0
	for _, ws := range coord.WorkerStats() {
		remote += ws.Jobs
	}
	if remote == 0 {
		t.Error("no jobs ran remotely; the fleet was bypassed")
	}
}

// TestFleetSlotsSharedAcrossCampaigns pins the capacity contract: a
// worker advertising capacity k never executes more than k jobs at once
// even when multiple campaigns dispatch to it concurrently. The worker
// wrapper counts in-flight run requests.
func TestFleetSlotsSharedAcrossCampaigns(t *testing.T) {
	n := campaignSize(t)
	var mu sync.Mutex
	inflight, peak := 0, 0
	w := startWorker(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			if strings.HasSuffix(req.URL.Path, PathRun) {
				mu.Lock()
				inflight++
				if inflight > peak {
					peak = inflight
				}
				mu.Unlock()
				defer func() {
					mu.Lock()
					inflight--
					mu.Unlock()
				}()
			}
			h.ServeHTTP(rw, req)
		})
	})
	coord := NewCoordinator(CoordinatorConfig{Workers: []string{w.URL}})

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opt := campaignOpts(n)
			opt.Name = fmt.Sprintf("cap-%d", i)
			_, err := coord.Collect(context.Background(), hw.Platform(), opt)
			if err != nil {
				t.Errorf("cap-%d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	// startWorker advertises MaxParallel=2. The worker itself would 409
	// excess jobs; the fleet slot pool must prevent them being sent at
	// all, so peak concurrency never exceeds the advertised capacity.
	if peak > 2 {
		t.Fatalf("worker saw %d concurrent runs, advertised capacity 2", peak)
	}
}

// TestSlotPoolResizePreservesHeldSlots is the regression test for the
// capacity-change race: when a restarted worker comes back advertising
// different parallelism, slotsFor must resize the existing pool in
// place, never swap in a fresh one — otherwise campaigns probed under
// the old capacity keep dispatching through the abandoned pool and the
// fleet can exceed the worker's new capacity until they finish.
func TestSlotPoolResizePreservesHeldSlots(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	sp := c.slotsFor("http://w1", 2)
	if got := c.slotsFor("http://w1", 3); got != sp {
		t.Fatal("capacity change replaced the slot pool; held slots would escape accounting")
	}
	c.slotsFor("http://w1", 2)

	cancel := make(chan struct{})
	// An old campaign holds both slots.
	for i := 0; i < 2; i++ {
		if !acquireSlot(sp, cancel) {
			t.Fatalf("acquire %d failed with free slots", i)
		}
	}

	// The worker restarts advertising capacity 1: nothing is revoked,
	// but a new campaign gets no slot until *both* old holders release —
	// held slots count against the shrunk limit.
	c.slotsFor("http://w1", 1)
	acquired := make(chan bool, 1)
	go func() { acquired <- acquireSlot(sp, cancel) }()
	for i := 0; i < 2; i++ {
		select {
		case <-acquired:
			t.Fatalf("acquired a slot with %d old slots held, limit 1", 2-i)
		case <-time.After(20 * time.Millisecond):
		}
		sp.release()
	}
	select {
	case ok := <-acquired:
		if !ok {
			t.Fatal("acquire reported cancellation after slots freed")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("acquire still blocked after enough releases")
	}
	sp.release()

	// A waiter blocked on a full pool unblocks when cancelled.
	if !acquireSlot(sp, cancel) {
		t.Fatal("acquire failed on an empty pool")
	}
	go func() { acquired <- acquireSlot(sp, cancel) }()
	close(cancel)
	select {
	case ok := <-acquired:
		if ok {
			t.Fatal("cancelled acquire reported success")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled acquire did not return")
	}
	sp.release()
}

// acquireSlot blocks until sp has a free slot and takes it, or returns
// false once cancel is closed.
func acquireSlot(sp *slotPool, cancel <-chan struct{}) bool {
	for !sp.tryAcquire(1) {
		if free, wake := sp.free(); free <= 0 {
			select {
			case <-wake:
			case <-cancel:
				return false
			}
		}
	}
	return true
}
