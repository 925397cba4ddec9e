#!/usr/bin/env bash
# Repeatability check: two full sets (end-to-end and traced) back to back
# on the same commit and seed, compared metric by metric.
#
#   benchmark/repeat.sh [seed] [--smoke]
#
# Prints, per (workload, end-to-end metric), both values, their relative
# difference and the bound. Fails if a wall metric differs by more than its
# bound, or if a simulated-clock metric or an exact count differs at all.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

seed=1
extra=()
for arg in "$@"; do
    case "$arg" in
        --smoke) extra+=("--smoke") ;;
        *) seed="$arg" ;;
    esac
done

out=benchmark/out/repeat
rm -rf "$out"
for set in a b; do
    mkdir -p "$out/$set"
    for workload in scan_wide selective_catalog spill_cold serve_ingest; do
        for trace in 0 1; do
            echo "set $set: $workload --trace $trace" >&2
            benchmark/run.sh --workload "$workload" --seed "$seed" --trace "$trace" "${extra[@]}" \
                > "$out/$set/$workload-trace$trace.log"
            # The result document carries the result line plus commit,
            # rustc, nproc, seed, operation counts and dataset sizes.
            cp "benchmark/out/result-$workload-trace$trace.json" "$out/$set/"
        done
    done
done

python3 - "$out" <<'PY'
import json, sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
# End-to-end metrics that are functions of the seed alone.
exact_e2e = {"sim_query_mean_ms", "sim_latency_p99_ms", "disk_bytes_per_user_byte"}
# Per-layer metrics that are exact counts (README: "(count)"), and do not
# depend on how many passes the host managed.
exact_layer = {
    "plan.selectivity_rel_err", "directory.candidate_ratio", "selection.runs_per_hit",
    "bitmap.candidate_fraction", "bitmap.index_bytes_per_data_byte",
    "blockstore.compression_ratio", "storage.resident_high_water_ratio",
    "storage.region_cache_hit_rate", "server.sim_imbalance",
    "engine.elements_scanned_per_hit", "engine.regions_pruned_ratio",
    "engine.sim_io_share", "engine.sim_cpu_share", "engine.sim_net_share",
    "qcache.late_join_ratio", "qcache.prewarm_regions_per_member", "service.deferral_ratio",
}
failures = []
print(f"{'workload':18} {'metric':28} {'first':>16} {'second':>16} {'rel.diff':>9} {'bound':>6}")
for w in [x["name"] for x in spec["workloads"]]:
    for trace in (0, 1):
        a = json.load(open(f"{out}/a/result-{w}-trace{trace}.json"))["result"]
        b = json.load(open(f"{out}/b/result-{w}-trace{trace}.json"))["result"]
        for doc, which in ((a, "first"), (b, "second")):
            if not doc["correct"]:
                failures.append(f"{w} --trace {trace}: {which} set reported {doc['failed']} failed operation(s)")
        for name, ma in a["metrics"].items():
            va, vb = ma["value"], b["metrics"][name]["value"]
            rel = abs(va - vb) / abs(va) if va else (0.0 if vb == 0 else float("inf"))
            if trace == 0:
                exact = name in exact_e2e
                bound = 0.0 if exact else bounds[name]
                print(f"{w:18} {name:28} {va:16.6f} {vb:16.6f} {rel:9.4f} {bound:6.2f}")
                if rel > bound:
                    failures.append(f"{w}: {name} differs by {rel:.4f} (bound {bound})")
            elif name in exact_layer and va != vb:
                failures.append(f"{w}: exact per-layer metric {name} differs ({va} vs {vb})")
for f in failures:
    print("FAIL:", f)
print("repeatability:", "FAILED" if failures else "ok")
sys.exit(1 if failures else 0)
PY
