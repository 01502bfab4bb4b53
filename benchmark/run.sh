#!/usr/bin/env bash
# Runs mpcbench over every workload.
#
#   benchmark/run.sh                 every workload, end-to-end metrics then per-layer metrics
#   benchmark/run.sh -check [N]      the steadiness check: two sets of N runs (default 3) per
#                                    workload, each run on another seed, compared against the
#                                    bounds in BENCHMARK.json; exact metrics must repeat exactly
#   benchmark/run.sh -baseline       the same check with N = 10, written to benchmark/BASELINE.json
#   benchmark/run.sh -profile        regenerate benchmark/PROFILE.md from fresh traced runs
#
# SEED and SECONDS_PER_RUN override the seed (1) and the window (10 s).
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${SEED:-1}"
seconds="${SECONDS_PER_RUN:-10}"
bench=benchmark/bench.sh

case "${1:-}" in
-check)
	exec bash "$bench" -repeat "${2:-3}" -seed "$seed" -seconds "$seconds"
	;;
-baseline)
	exec bash "$bench" -repeat 10 -seed "$seed" -seconds "$seconds" -baseline benchmark/BASELINE.json
	;;
-profile)
	bash "$bench" -profile -seed "$seed" >benchmark/PROFILE.md.tmp
	mv benchmark/PROFILE.md.tmp benchmark/PROFILE.md
	exit 0
	;;
"") ;;
*)
	sed -n '2,13p' "$0" >&2
	exit 2
	;;
esac

workloads="serve_reuse serve_repartition serve_small_mixed serve_restart engine_tcp_bulk engine_tcp_rounds"
for w in $workloads; do
	bash "$bench" -workload "$w" -seed "$seed" -seconds "$seconds" -trace 0
	bash "$bench" -workload "$w" -seed "$seed" -seconds "$seconds" -trace 1
done
