#!/bin/sh
# Tier-1 verification: build, vet, full test suite under the race
# detector. Equivalent to `make check` for environments without make.
set -eu
cd "$(dirname "$0")/.."

# ISSUE.md's acceptance boxes must not reference files that don't
# exist: extract backticked tokens that look like paths (contain a
# slash, no spaces, not a flag) and stat each one. Catches the
# acceptance list drifting from the tree. (Satellite boxes may cite Go
# import paths like encoding/csv, so only the acceptance section is
# path-checked.)
if [ -f ISSUE.md ]; then
	missing=$(awk '/^## Acceptance criteria/{f=1;next} /^## /{f=0} f' ISSUE.md |
		(grep '^- \[' || true) |
		(grep -o '`[^`]*`' || true) | tr -d '`' | sort -u |
		while IFS= read -r ref; do
			case $ref in
			*" "*| -* | \.\.\.*) continue ;;
			*/*) [ -e "$ref" ] || printf '%s\n' "$ref" ;;
			esac
		done)
	if [ -n "$missing" ]; then
		echo "check.sh: ISSUE.md checklist references missing files:" >&2
		printf '  %s\n' $missing >&2
		exit 1
	fi
fi

go build ./...
go vet ./...
# bench/ is its own module, out of reach of the root ./...
(cd bench && go vet ./...)
# The race detector slows the simulator ~10x; the core campaign tests
# need more than the default 10m timeout.
go test -race -timeout 45m ./...

# Execute (not merely build) the committed fuzz seed corpora: running a
# Fuzz target without -fuzz replays every seed in testdata/fuzz/ as a
# unit test, so a regressing seed fails the gate deterministically. The
# explicit -run keeps this step honest even if the main suite above ever
# narrows its selection.
go test -count=1 -run '^Fuzz' \
	./internal/core ./internal/gem5 ./internal/serve ./internal/workload \
	./internal/platform

# Trace-overhead smoke (mirrors `make trace-smoke`): traced vs untraced
# two-worker campaigns, best-of-5, asserting the <=2% tracing bar. Run
# without -race on purpose — it is a wall-clock measurement.
GEMSTONE_TRACE_SMOKE=1 go test -short -count=1 \
	-run TestTraceOverheadSmoke ./internal/dist/

# Fidelity-tier smoke (mirrors `make screen-smoke`): the atomic tier's
# error bound (short workload sweep) and >= 5x speedup floor (wall-clock,
# so without -race), plus the screen-then-resimulate split at the core
# and serve layers.
go test -short -count=1 \
	-run 'TestAtomicErrorBound|TestAtomicSpeedupFloor|TestScreenMixedFidelity|TestScreenModeCampaign' \
	./internal/platform/ ./internal/core/ ./internal/serve/

# staticcheck is advisory: run it when installed, but only fail the
# gate when CHECK_STRICT=1 (CI images without the tool still pass).
if command -v staticcheck >/dev/null 2>&1; then
	if ! staticcheck ./...; then
		if [ "${CHECK_STRICT:-0}" = "1" ]; then
			echo "check.sh: staticcheck failed (CHECK_STRICT=1)" >&2
			exit 1
		fi
		echo "check.sh: staticcheck reported issues (advisory; set CHECK_STRICT=1 to enforce)" >&2
	fi
else
	echo "check.sh: staticcheck not installed; skipping" >&2
fi
