# GemStone-Go build and verification targets.
#
# `make check` is the tier-1 gate: build, vet, and the full test suite
# under the race detector (the campaign engine fans out across
# GOMAXPROCS workers, so -race is part of the contract, not an extra).

GO ?= go

.PHONY: check quick build vet test serve-test trace-smoke screen-smoke loadtest loadtest-soak fuzz clean watch experiments baseline

check: build vet test trace-smoke screen-smoke

# Fast development loop: -short skips the full-campaign analysis fixture
# and the worker-count determinism sweep, and trims the golden
# equivalence sweeps to a subset — seconds instead of minutes. The
# internal/dist integration suite runs here too, with its campaigns
# shrunk to 2 runs (CI also runs it as an explicit step).
quick:
	$(GO) test -short ./...

build:
	$(GO) build ./...

# bench/ is its own module, so the root ./... does not reach it: vet it
# separately, so an API change that breaks the benchmark fails here.
# The L1 cache and TLB hit paths (hitLast, lookupLast) must inline:
# hitLast sits at cost 78 of the inliner's budget of 80, so one more node
# would silently move every L1 hit out of line. scripts/check.sh mirrors
# the check.
INLINED = '(*Cache).hitLast' '(*TLB).lookupLast'
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	@m=$$($(GO) build -gcflags=-m ./internal/mem 2>&1) || { echo "$$m" >&2; exit 1; }; \
	for f in $(INLINED); do \
		echo "$$m" | grep -qF "can inline $$f" || { echo "vet: $$f no longer inlines" >&2; exit 1; }; \
	done

test:
	$(GO) test -race -timeout 45m ./...

# Campaign-service integration suite: the end-to-end golden test (two
# tenants through `gemstone serve` with a worker killed mid-campaign),
# admission control, spec fuzz seeds, and the dist concurrent-campaign
# regression — everything under -race. -short trims campaign sizes and
# skips the chaos soak; drop it for the full soak. The queue-depth gauge
# test then runs 20 more times: it checks the order in which a terminal
# campaign moves two metrics, and a regression there fails only a few
# percent of single runs.
serve-test:
	$(GO) test -race -short -count=1 ./internal/serve/ ./internal/dist/
	$(GO) test -race -count=20 -run '^TestQueueDepthGauge$$' ./internal/serve/

# Trace-overhead smoke: the same two-worker campaign traced and
# untraced, interleaved best-of-5, asserting tracing stays within the
# 2% bar (plus a small absolute term for sub-second scheduler jitter).
# Deliberately NOT under -race — it is a wall-clock measurement, and
# the race detector's instrumentation swamps the signal. The benchmark
# in bench/ reports the steady-state number (obs.trace_overhead_pct,
# `bash bench/run.sh`).
trace-smoke:
	GEMSTONE_TRACE_SMOKE=1 $(GO) test -short -count=1 -run TestTraceOverheadSmoke ./internal/dist/

# Fidelity-tier smoke: the atomic tier's documented error bound (short
# workload sweep), its >= 5x speedup floor over the detailed tier on the
# cold validation campaign (a wall-clock ratio, hence no -race), the
# screen-then-resimulate split at the core layer (flagged points
# re-simulated detailed, the rest keep their atomic predictions, per-run
# provenance recording the split), and a screened campaign end to end
# through gemstone serve.
screen-smoke:
	$(GO) test -short -count=1 -run 'TestAtomicErrorBound|TestAtomicSpeedupFloor|TestScreenMixedFidelity|TestScreenModeCampaign' ./internal/platform/ ./internal/core/ ./internal/serve/

# gemload smoke: a short closed-loop mixed load (cold/warm/events/
# analysis) against an in-process two-worker fleet; fails unless every
# client/server SLO reconciliation check passes.
loadtest:
	sh scripts/loadtest.sh

# gemload chaos soak: three workers with one killed every 2s plus wire
# chaos for 20s of sustained load — the SLO contract must hold through
# rolling worker death (nightly CI uploads the report).
loadtest-soak:
	sh scripts/loadtest.sh -soak -out gemload-soak.json

# Result-drift watchdog: re-run the v1 validation campaign with the
# invariant validators on, append it to a scratch ledger, and compare
# against the committed baseline (baselines/ledger.jsonl). Fails when the
# numbers moved — tier-1 CI guards the results, not just the tests.
watch:
	sh scripts/watch.sh

# Re-bless the committed baseline ledger after an intentional model
# change (review the gemwatch drift report first).
baseline:
	sh scripts/watch.sh -update

# Regenerate every EXPERIMENTS.md row: one benchmark per paper table /
# figure, run exactly once each, printing paper-vs-measured values. The
# span and stats microbenchmarks run with `go test -bench` in their
# packages. End-to-end and per-layer performance numbers come from
# `bash bench/run.sh` (`bash bench/run.sh compare` diffs two result
# files; see bench/README.md).
experiments:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Short fuzz smoke of every fuzz target (run-set archives, gem5 stats
# files, campaign specs, generator, sweep lanes). Minimisation of each new
# interesting input is capped at 1s (the default is 60s): uncapped, a
# worker could spend the whole 10s window minimising one run-set
# archive and run nothing else.
FUZZ = $(GO) test -run '^$$' -fuzztime 10s -fuzzminimizetime 1s -fuzz
fuzz:
	$(FUZZ) FuzzLoadRunSet ./internal/core
	$(FUZZ) FuzzParseStatsFile ./internal/gem5
	$(FUZZ) FuzzCampaignSpec ./internal/serve
	$(FUZZ) FuzzGenerator ./internal/workload
	$(FUZZ) FuzzRunSweep ./internal/platform

clean:
	$(GO) clean ./...
