#!/bin/sh
# gemload smoke and soak against an in-process fleet: boots N gemstoned
# workers behind gemstone serve on loopback, replays the default
# cold/warm/events/analysis mix, and fails unless every client/server
# SLO reconciliation check passes.
#
# Usage:
#   scripts/loadtest.sh [-soak] [-out report.json] [-duration D]
#
#   default   2-worker fleet, short closed-loop smoke (CI quick job)
#   -soak     3-worker fleet, a worker killed every 2s plus wire chaos
#             (drops/duplicates/corruption) for the full window — the
#             SLO contract must hold through rolling worker death
#   -out      also write the full JSON report (CI uploads it)
#   -duration override the offered-load window
#
# The seed is pinned so the offered load (arrival schedule, tenant skew,
# spec sequence) is reproducible; wall-clock latencies of course vary
# with the machine.
set -eu
cd "$(dirname "$0")/.."

soak=0
out=""
duration=""
while [ $# -gt 0 ]; do
	case "$1" in
	-soak) soak=1 ;;
	-out)
		out="$2"
		shift
		;;
	-duration)
		duration="$2"
		shift
		;;
	*)
		echo "usage: scripts/loadtest.sh [-soak] [-out report.json] [-duration D]" >&2
		exit 2
		;;
	esac
	shift
done

set -- -seed 42 -tenants 3 -skew 1.1
if [ "$soak" = 1 ]; then
	set -- "$@" -fleet 3 -concurrency 4 -kill-every 2s -chaos -duration "${duration:-20s}"
else
	set -- "$@" -fleet 2 -concurrency 3 -duration "${duration:-4s}"
fi
[ -n "$out" ] && set -- "$@" -out "$out"

exec go run ./cmd/gemload "$@"
