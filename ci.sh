#!/usr/bin/env bash
# Tier-1 CI gate for the PDC-Query reproduction.
#
#   ./ci.sh          build + full test suite + named gates
#
# Falls back to `--offline` when the crates.io registry is unreachable
# (the workspace vendors API-compatible shims under compat/, so an
# offline build is fully supported).
set -euo pipefail
cd "$(dirname "$0")"

OFFLINE=""
if ! cargo metadata --format-version 1 >/dev/null 2>&1; then
    echo "ci: registry unreachable, using --offline"
    OFFLINE="--offline"
fi

echo "== build (release) =="
cargo build --release $OFFLINE

echo "== std-only library graph gate =="
# The libraries build from std and this workspace alone: the normal
# (non-dev) dependency tree of every crates/* package and of the facade
# may list only packages under crates/ or the root. A registry crate or
# a compat/ shim on a normal edge fails the build by name. Dev-only
# shims (compat/proptest) sit on dev edges, which this does not follow.
packages="-p pdc-suite"
for manifest in crates/*/Cargo.toml; do
    packages="$packages -p $(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)"
done
foreign=$(cargo tree $OFFLINE -e normal --prefix none $packages \
    | grep -v -e '^$' -e "($PWD)" -e "($PWD/crates/" | sort -u || true)
if [ -n "$foreign" ]; then
    echo "ci: std-only graph FAILED: libraries depend on packages outside crates/:" >&2
    echo "$foreign" >&2
    exit 1
fi
echo "std-only graph: $(echo $packages | wc -w | awk '{print $1 / 2}') packages, no foreign normal edge"

echo "== poison-ignoring lock gate =="
# Every lock in the libraries is taken through `pdc_types::Unpoison`, so
# a panic while one is held never turns later calls into panics. Fail,
# naming file and line, on a `.lock().unwrap()`, `.read().unwrap()` or
# `.write().unwrap()` before the first `#[cfg(test)]` of any source file.
poisoned=$(awk 'FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 }
    live && /\.(lock|read|write)\(\)\.unwrap\(\)/ { print FILENAME ":" FNR ": " $0 }' \
    $(find crates/*/src -name '*.rs' | sort))
if [ -n "$poisoned" ]; then
    echo "ci: lock gate FAILED: take these locks through pdc_types::Unpoison:" >&2
    echo "$poisoned" >&2
    exit 1
fi
echo "lock gate: no poisonable lock unwrap outside tests"

echo "== test suite =="
# The workspace's default members are the facade package and every crate
# under crates/, so this one command runs each crate's unit, integration
# and property tests (fault tolerance, integrity, replication and the
# pruning properties included); the named gates below only add what it
# cannot — release-mode reruns, bench-bin gates and CLI smokes.
cargo test -q $OFFLINE

# Run one gate bin of crates/bench, then hold what it wrote against the
# committed BENCH_<name>.json. Every recorded number is a simulated-clock
# value, a count or an identity, so the two files must be equal byte for
# byte: drift is a red build, not a manual regeneration. The document
# must also satisfy a strict JSON parser. The regenerated files stay in
# $CI_OUT for inspection.
CI_OUT=$(mktemp -d)
bench_gate() {
    target/release/"$1" "$CI_OUT/ci_$1.json"
    python3 -c 'import json,sys; json.load(sys.stdin)' < "$CI_OUT/ci_$1.json"
    cmp -s "$CI_OUT/ci_$1.json" "BENCH_$1.json" || {
        echo "ci: $1 FAILED: $CI_OUT/ci_$1.json differs from the committed BENCH_$1.json:" >&2
        diff "BENCH_$1.json" "$CI_OUT/ci_$1.json" >&2 || true
        exit 1
    }
}

echo "== server-runtime gate =="
# pdc-server's own tests (pool dispatch, persistent crew, assignment,
# placement, fault plans) once more optimised: the crew borrows each
# dispatch's job across threads with `unsafe` and debug builds hide
# reorderings.
cargo test -q $OFFLINE --release -p pdc-server

echo "== kernel + selection gate =="
# pdc-types' and pdc-sorted's own tests (scan kernels, mask packing, the
# 64-lane candidate-window kernel, the gather check a sorted band's
# coordinates are point-checked with and the counting pass that buckets
# them by region, the start/end-bit mask decoder, selection algebra, the
# k-way union, the band merge that ORs slot words and fills slot runs into
# one bitset, the one- and many-slice scatter on both its word and sort
# paths with its popcount run count, the rank directory on both its bitset
# and binary-search paths, and the sorted-replica lookups that feed them)
# once more optimised, and with them twelve pdc-query suites: get_data
# equivalence, whose sorted path scatters values by those ranks; band
# conjunctions, where a band that a conjunction point-checks travels as
# `(coordinate, band position)` pairs bucketed by region rather than as
# decoded runs, and `get_data` reads only the survivors' band positions —
# held to full scans and to pinned outcomes and gathers, spilled, corrupt,
# after a kill and after a join; the kernel and spill equivalence suites,
# which hold every strategy's point checks — through every region's block
# view, the window kernel and the decoder — to the scalar reference and to
# unbounded runs; the point-check charges suite, which pins what those
# checks scan; strategy agreement and service equivalence, which hold
# sorted bands — one scatter per server, shipped as words or runs and ORed
# once on the client, at the charges of servers that decoded — to full
# scans and to solo runs; the cache properties, which hold every
# served outcome to a cold run on a twin world while appends,
# maintenance, corruption, migration and joint registration interleave
# with `serve` (the caches keep artifacts across all of them, so only
# the verified reads and span-length keys stand between a mutation and
# a stale answer); the metadata + data queries, which now dispatch
# through the same preflight and slot failover as `run`; and the ingest
# consistency, pruning and metadata-version suites: an object's metadata
# is published as one version swapped under one lock while readers
# capture snapshots concurrently, and a release build is where a
# reordering of that publication would show. The code is safe
# Rust, so this guards only against a miscompile of the vectorised loops
# and the shift, popcount and bit-pairing arithmetic in the release
# binaries, the band merge's word OR and range-fill shifts (head and tail
# masks of each run), the scatter's carry-and-popcount run count and the
# gather check's branch-free compaction among them; debug assertions are
# off here, so it complements the debug run of the same tests rather than
# replacing it.
cargo test -q $OFFLINE --release -p pdc-types -p pdc-sorted
cargo test -q $OFFLINE --release -p pdc-query --test get_data_equivalence \
    --test band_conjunctions \
    --test kernel_equivalence --test spill_equivalence --test point_check_charges \
    --test strategy_agreement --test service_equivalence --test cache_props \
    --test metadata_data_queries --test ingest_consistency --test pruning_props \
    --test metadata_versions

echo "== integrity gate =="
# Corruption smoke: a run with 5% of regions corrupted must exit 0 and
# return the same selection (hits + runs) as the clean run.
cargo build --release $OFFLINE -p pdc-cli
PDC=target/release/pdc
SMOKE_Q="2.1 < Energy < 2.2"
SMOKE_ARGS="--particles 100000 --servers 4 --seed 42"
clean_hits=$($PDC query "$SMOKE_Q" $SMOKE_ARGS | grep -o '[0-9]* hits ([0-9]* runs)')
corrupt_out=$($PDC query "$SMOKE_Q" $SMOKE_ARGS --corrupt-regions 0.05 --fault-seed 7)
corrupt_hits=$(echo "$corrupt_out" | grep -o '[0-9]* hits ([0-9]* runs)')
if [ "$clean_hits" != "$corrupt_hits" ]; then
    echo "ci: integrity smoke FAILED: clean '$clean_hits' vs corrupt '$corrupt_hits'" >&2
    exit 1
fi
echo "$corrupt_out" | grep -q '^integrity:' || {
    echo "ci: integrity smoke FAILED: no integrity report in corrupt run" >&2
    exit 1
}
echo "integrity smoke: '$corrupt_hits' identical under 5% corruption"

echo "== batch-throughput gate =="
# A closed query series is one client's trace through the service loop:
# one tenant, every arrival at t = 0. On a 32-query overlapping series
# >= 90% of plans and region touches must come from the plan cache and
# resident regions, and the series must end within the sum of the
# sequential critical paths, with bit-identical results (all checked
# inside the bin). A CLI batch smoke checks the user-facing path end to
# end: the series' lead hits must equal the single-run hits, and the
# service report must show all 8 queries completed.
cargo build --release $OFFLINE -p pdc-bench
bench_gate throughput
batch_out=$($PDC query "$SMOKE_Q" $SMOKE_ARGS --queries 8)
batch_hits=$(echo "$batch_out" | grep -o '[0-9]* hits ([0-9]* runs)')
if [ "$clean_hits" != "$batch_hits" ]; then
    echo "ci: batch smoke FAILED: single '$clean_hits' vs batched '$batch_hits'" >&2
    exit 1
fi
echo "$batch_out" | grep -q '^outcomes: 8 completed' || {
    echo "ci: batch smoke FAILED: no service report in batch run" >&2
    exit 1
}
echo "batch smoke: '$batch_hits' identical across 8-query batch"

echo "== adaptive-strategy gate =="
# PDC-A must return exactly the full-scan selection (operator choices
# may differ per region; answers may not), and the cost-model gate in
# the bench bin asserts the adaptive series total is no worse than the
# best fixed strategy at the recorded baseline scale.
adaptive_hits=$($PDC query "$SMOKE_Q" $SMOKE_ARGS --strategy A | grep -o '[0-9]* hits ([0-9]* runs)')
fullscan_hits=$($PDC query "$SMOKE_Q" $SMOKE_ARGS --strategy F | grep -o '[0-9]* hits ([0-9]* runs)')
if [ "$adaptive_hits" != "$fullscan_hits" ]; then
    echo "ci: adaptive smoke FAILED: adaptive '$adaptive_hits' vs full-scan '$fullscan_hits'" >&2
    exit 1
fi
echo "adaptive smoke: '$adaptive_hits' identical to full scan"
explain_out=$($PDC query "$SMOKE_Q" $SMOKE_ARGS --strategy A --explain)
echo "$explain_out" | grep -q '^explain: strategy PDC-A' || {
    echo "ci: explain smoke FAILED: no explain header in --explain run" >&2
    exit 1
}
echo "$explain_out" | grep -q 'est(lo..hi)' || {
    echo "ci: explain smoke FAILED: no operator table in --explain run" >&2
    exit 1
}
echo "explain smoke: operator table rendered"
bench_gate adaptive

echo "== ingest gate =="
# Streaming ingest: a query running mid-ingest must be bit-identical to
# the same query on a store imported whole at the extent it planned
# against, for every strategy, with and without faults/corruption (the
# ingest_consistency suite and the write-path crates' own tests ran in
# the test suite above). Bench-bin correctness gate (exits non-zero on
# any divergence from the sealed baselines), then a CLI smoke that
# appends 10% of the particles across 3 batches mid-series and asserts
# every extent sealed-consistent.
bench_gate ingest
ingest_out=$($PDC ingest "$SMOKE_Q" $SMOKE_ARGS --append-batches 3 --append-fraction 0.1)
echo "$ingest_out" | grep -q 'ingest gate: PASS' || {
    echo "ci: ingest smoke FAILED:" >&2
    echo "$ingest_out" >&2
    exit 1
}
echo "$ingest_out" | tail -n 1

echo "== pruning gate =="
# Hierarchical region directory + joint bounds: pruning must stay
# advisory and sound (bit-identical selections and simulated costs
# against a twin world whose objects carry no usable directory, all
# strategies, under faults + corruption and after appends — pruning_props
# ran in the test suite above), and the bench bin asserts the conjunctive 3-D window workload admits >= 2x fewer
# regions than 1-D min/max pruning.
bench_gate pruning
dir_out=$($PDC query "Energy > 2.0 AND 100 < x < 200" $SMOKE_ARGS --joint Energy,x --explain)
echo "$dir_out" | grep -q '^joint bounds: registered (Energy,x)' || {
    echo "ci: pruning smoke FAILED: no joint-registration report" >&2
    exit 1
}
echo "$dir_out" | grep -q 'directory: .* killed joint' || {
    echo "ci: pruning smoke FAILED: no directory stats in --explain run" >&2
    exit 1
}
dir_hits=$(echo "$dir_out" | grep -o '[0-9]* hits ([0-9]* runs)')
echo "pruning smoke: '$dir_hits' with joint bounds registered"

echo "== replication gate =="
# One failure lane at every replica count: the kill-matrix tests ran in
# the test suite above (every strategy x k x kills combination
# bit-identical whenever one server lives; all dead is a typed
# ServerFailed); here the bench bin's own gate (k >= 2 kill degradation
# <= 1.1x the no-kill series), and a CLI smoke of the failover, rebuild
# and elastic-membership surface at k = 1 and k = 2. The smoke query
# touches every region so the kill probe actually fires mid-evaluation.
bench_gate replication
REPL_Q="Energy > 0"
plain_hits=$($PDC query "$REPL_Q" $SMOKE_ARGS | grep -o '[0-9]* hits ([0-9]* runs)')
for k in 1 2; do
    repl_out=$($PDC query "$REPL_Q" $SMOKE_ARGS --replicas $k --kill-servers 1 --fault-seed 3)
    repl_hits=$(echo "$repl_out" | grep -o '[0-9]* hits ([0-9]* runs)')
    if [ "$plain_hits" != "$repl_hits" ]; then
        echo "ci: replication smoke FAILED: unkilled '$plain_hits' vs killed k=$k '$repl_hits'" >&2
        exit 1
    fi
    echo "$repl_out" | grep -q 'failed over to live replicas' || {
        echo "ci: replication smoke FAILED: no failover report in killed k=$k run" >&2
        exit 1
    }
    echo "$repl_out" | grep -q '^rebuild: redundancy restored' || {
        echo "ci: replication smoke FAILED: no background-rebuild report in killed k=$k run" >&2
        exit 1
    }
    member_out=$($PDC query "$REPL_Q" $SMOKE_ARGS --replicas $k --join-server --leave-server 0)
    [ "$(echo "$member_out" | grep -c 'results unchanged: yes')" = 2 ] || {
        echo "ci: replication smoke FAILED: join/leave changed results at k=$k:" >&2
        echo "$member_out" >&2
        exit 1
    }
done
$PDC query "$SMOKE_Q" $SMOKE_ARGS --replicas 2 --explain | grep -q 'slot routes (slot' || {
    echo "ci: replication smoke FAILED: no per-slot route report in --explain run" >&2
    exit 1
}
echo "replication smoke: '$repl_hits' identical under kill, join, and leave at k = 1 and 2"

echo "== out-of-core gate =="
# Spill tier: block files must roundtrip bit-exact and fail typed on
# damage, and a memory-budgeted store must answer every strategy
# bit-identically to an unbounded one (incl. simulated costs) across
# faults, corruption, batches, and streaming appends.
# pdc-storage's unit tests hold the spill, quarantine and payload-checksum
# logic. Both crates run once more in release: the word-parallel
# checksum and the plane-gather decode are the loops optimisation levels
# can break.
cargo test -q $OFFLINE --release -p pdc-blockstore -p pdc-storage
# Bench-bin gate (compression >= 2x, resident high-water <= budget with
# demotions observed, all strategies identical to unbounded), then a CLI
# smoke under a budget far below the dataset, which must leave its spill
# root empty.
bench_gate blockstore
spill_root=$(mktemp -d)
spill_out=$($PDC query "$SMOKE_Q" $SMOKE_ARGS --memory-budget 256K --spill-dir "$spill_root")
if [ -n "$(ls -A "$spill_root")" ]; then
    echo "ci: out-of-core smoke FAILED: spill files left in $spill_root:" >&2
    ls -A "$spill_root" >&2
    exit 1
fi
rmdir "$spill_root"
spill_hits=$(echo "$spill_out" | grep -o '[0-9]* hits ([0-9]* runs)')
if [ "$clean_hits" != "$spill_hits" ]; then
    echo "ci: out-of-core smoke FAILED: unbounded '$clean_hits' vs budgeted '$spill_hits'" >&2
    exit 1
fi
echo "$spill_out" | grep -q '^out-of-core: resident high-water' || {
    echo "ci: out-of-core smoke FAILED: no spill report in budgeted run" >&2
    exit 1
}
echo "out-of-core smoke: '$spill_hits' identical under a 256K budget"

echo "== service gate =="
# Multi-tenant service loop: the equivalence suite ran in the test suite
# above (every admitted query bit-identical to a solo run under faults,
# corruption, replication, and spill); here the bench bin's own gates
# (dispatch-order replay identical, flood mix degrades well-behaved p99
# <= 1.25x the uniform mix), and a CLI smoke replaying the committed
# 3-tenant trace through `pdc serve`.
bench_gate service
serve_out=$($PDC serve --trace-file examples/service_trace.txt --particles 50000 --servers 4)
echo "$serve_out" | grep -q 'service equivalence: PASS' || {
    echo "ci: service smoke FAILED: no equivalence PASS in serve run:" >&2
    echo "$serve_out" >&2
    exit 1
}
echo "$serve_out" | grep -q '^outcomes: [1-9][0-9]* completed' || {
    echo "ci: service smoke FAILED: no service report in serve run" >&2
    exit 1
}
echo "$serve_out" | grep -Eq 'tenant +flood: .*\([1-9][0-9]* rejected' || {
    echo "ci: service smoke FAILED: flood tenant was never rejected:" >&2
    echo "$serve_out" >&2
    exit 1
}
echo "$serve_out" | tail -n 1

echo "== paper-figures gate =="
# The paper's evaluation on the simulated clock — Figs. 3-6, the §V query
# catalog, the index overheads, the design ablations and fault injection —
# from one bin at the default scale. It fails by name where strategies,
# baselines or fault runs disagree on a result, and records every paper
# claim beside the paper's band (a claim out of band is recorded, not
# failed). BENCH_paper.json and the results/*.md pages rendered from it
# into a results/ directory beside it must equal the committed files byte
# for byte, and no page may appear or vanish.
bench_gate paper
diff <(ls results) <(ls "$CI_OUT/results") >&2 || {
    echo "ci: paper FAILED: the rendered pages differ in name from results/" >&2
    exit 1
}
for page in results/*.md; do
    cmp -s "$CI_OUT/$page" "$page" || {
        echo "ci: paper FAILED: $CI_OUT/$page differs from the committed $page:" >&2
        diff "$page" "$CI_OUT/$page" >&2 || true
        exit 1
    }
done
echo "paper figures: BENCH_paper.json and $(ls results | wc -l) results pages identical"

echo "== clippy gate =="
cargo clippy --release $OFFLINE --workspace --all-targets -- -D warnings

echo "== rustdoc gate =="
# A doc link to a deleted or private item is a red build, not a warning.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace $OFFLINE

echo "ci: all gates green"
