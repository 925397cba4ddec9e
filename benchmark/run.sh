#!/usr/bin/env bash
# Build the referee benchmark and run it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
#
# Without --workload, all four workloads run, one process each (so set-up
# time and peak memory are per workload). The last line each process
# prints on standard output is its machine-readable result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

PDC_BENCH_COMMIT="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
PDC_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export PDC_BENCH_COMMIT PDC_BENCH_RUSTC

# Build output goes to standard error: standard output belongs to the results.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/pdc-benchmark"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done
for workload in scan_wide selective_catalog spill_cold serve_ingest; do
    "$bin" --workload "$workload" "$@"
done
