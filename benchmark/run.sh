#!/usr/bin/env bash
# Build the benchmark in release mode and run it.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
#
# With --workload and --trace 0|1 this is exactly one run of one
# workload, ending in the one-line JSON result (what BENCHMARK.json's
# command does). Without --workload it runs every workload, each in its
# own process; without --trace each workload is run untraced (the
# end-to-end metrics) and then traced (the per-layer metrics and
# target/trace-<workload>.json). Every metric is printed as
# `workload metric value unit`.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workload="" seed=1989 seconds=10 trace=""
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace)
            # A bare --trace means --trace 1.
            if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# Build where the caller says (CARGO_TARGET_DIR) or under benchmark/target;
# either way nothing outside the checkout is written.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/hrdm-benchmark"

export HRDM_BENCH_OUT="${HRDM_BENCH_OUT:-$here/target}"
export HRDM_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export HRDM_BENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"

if [ -n "$workload" ]; then workloads="$workload"; else workloads="$("$bin" --list)"; fi
for w in $workloads; do
    for t in ${trace:-0 1}; do
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t"
    done
done
