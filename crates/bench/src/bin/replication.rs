//! K-way replication kill-matrix and elastic-membership benchmark.
//!
//! One engine per (strategy, k, kill) cell over the same imported VPIC
//! world: k ∈ {1, 2, 3} replicas per assignment slot, with and without
//! a server crash injected on the first data access. Every cell runs
//! the same 6-query series cold (the kill fires during query 1, so the
//! measured pass includes the failure-handling cost) and must produce
//! selections bit-identical to the unkilled unreplicated reference.
//!
//! The point being measured: under the classic single-home layout
//! (k = 1, PR 1 recovery) a kill forces a whole-batch rescan on one
//! survivor, while under k-way placement each of the dead server's
//! fine-grained slots fails over to a *distinct* live replica, so the
//! degradation flattens to roughly `1/spread`. The gate asserts the
//! killed series stays within 1.1x the unkilled series for every
//! strategy at k >= 2.
//!
//! A second scenario exercises elastic membership: join a fresh server
//! mid-series, then retire one of the originals — selections must be
//! unchanged at every step, and the live-migration volume is recorded.
//!
//! Writes `BENCH_replication.json` (path overridable as `argv[1]`);
//! `PDC_PARTICLES` overrides the default of 983,040 particles = 240
//! regions of 16 KiB — one region per assignment slot at 16 servers
//! (spread 15), so healthy per-server work is perfectly balanced and a
//! failover moves exactly one region to each backup. Exits non-zero on
//! any gate violation.

use pdc_bench::{
    engine_config, generate_vpic, import_vpic, Gates, Json, Scale, VpicWorld, ALL_STRATEGIES,
};
use pdc_query::{EngineConfig, PdcQuery, QueryEngine, Strategy};
use pdc_server::FaultPlan;
use pdc_storage::SimDuration;
use pdc_types::{ObjectId, Selection};
use std::process::ExitCode;
use std::sync::Arc;

const SERVERS: u32 = 16;
const REGION_BYTES: u64 = 16 << 10;
const VICTIM: u32 = 3;
const GATE: f64 = 1.10;

/// The series: a full-touch filter first (so the kill probe fires on
/// query 1 for every strategy), then narrow Energy tail windows and
/// wide spatial windows.
fn series(energy: ObjectId, x: ObjectId) -> Vec<PdcQuery> {
    let x_max = pdc_workloads::vpic::X_MAX as f32;
    vec![
        PdcQuery::create(energy, pdc_types::QueryOp::Gt, 0.0f32),
        PdcQuery::range_open(energy, 2.10f32, 2.15f32),
        PdcQuery::range_open(energy, 2.60f32, 2.65f32),
        PdcQuery::range_open(energy, 3.10f32, 3.15f32),
        PdcQuery::range_open(x, 0.05 * x_max, 0.38 * x_max),
        PdcQuery::range_open(x, 0.50 * x_max, 0.83 * x_max),
    ]
}

fn build(
    world: &VpicWorld,
    scale: &Scale,
    strategy: Strategy,
    replicas: u32,
    kill: bool,
) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(&world.odms),
        EngineConfig {
            replicas,
            fault_plan: kill.then(|| FaultPlan::kill(&[VICTIM])),
            ..engine_config(strategy, SERVERS, scale.cost())
        },
    )
}

#[derive(Default)]
struct Cell {
    total: SimDuration,
    selections: Vec<Selection>,
    failover: SimDuration,
    recovery: SimDuration,
    rebuild_regions: u32,
    rebuild_bytes: u64,
}

/// Run the series cold and fold the outcomes.
fn measure(eng: &QueryEngine, qs: &[PdcQuery]) -> Cell {
    let mut cell = Cell::default();
    for q in qs {
        let out = eng.run(q).expect("matrix cell must recover");
        cell.total += out.elapsed;
        cell.failover += out.breakdown.failover;
        cell.recovery += out.breakdown.recovery;
        cell.rebuild_regions += out.rebuild_regions;
        cell.rebuild_bytes += out.rebuild_bytes;
        cell.selections.push(out.selection);
    }
    cell
}

fn main() -> ExitCode {
    let mut gates = Gates::from_args("replication");
    let scale = Scale::for_gate(240 * 4096, SERVERS);

    let data = generate_vpic(&scale);
    let world = import_vpic(&data, REGION_BYTES, true);
    let qs = series(world.objects.energy, world.objects.x);

    let reference = measure(&build(&world, &scale, Strategy::Histogram, 1, false), &qs);

    let mut matrix = Vec::new();
    for strategy in ALL_STRATEGIES {
        let mut cells = Vec::new();
        for k in [1u32, 2, 3] {
            let clean = measure(&build(&world, &scale, strategy, k, false), &qs);
            let killed = measure(&build(&world, &scale, strategy, k, true), &qs);
            for (name, cell) in [("clean", &clean), ("killed", &killed)] {
                gates.check(
                    format!("{strategy} k={k} {name}: selections diverged"),
                    cell.selections == reference.selections,
                );
            }
            let degradation = killed.total.as_secs_f64() / clean.total.as_secs_f64();
            println!(
                "{:<7} k={k}: clean {}, killed {} ({degradation:.3}x) — failover {}, \
                 recovery {}, rebuilt {} regions",
                strategy.label(),
                clean.total,
                killed.total,
                killed.failover,
                killed.recovery,
                killed.rebuild_regions,
            );
            if k >= 2 {
                gates.check(
                    format!("{strategy} k={k}: kill degradation {degradation:.3}x exceeds {GATE}x"),
                    degradation <= GATE,
                );
                gates.check(
                    format!("{strategy} k={k}: recovery lane charged under placement"),
                    killed.recovery == SimDuration::ZERO,
                );
            }
            cells.push((
                format!("k{k}"),
                Json::obj([
                    ("clean_ms", Json::ms(clean.total)),
                    ("killed_ms", Json::ms(killed.total)),
                    ("degradation", Json::fixed(degradation, 4)),
                    ("failover_ms", Json::ms(killed.failover)),
                    ("recovery_ms", Json::ms(killed.recovery)),
                    ("rebuild_regions", killed.rebuild_regions.into()),
                    ("rebuild_bytes", killed.rebuild_bytes.into()),
                ]),
            ));
        }
        matrix.push((strategy.label(), Json::obj(cells)));
    }

    // Elastic membership under a live series: join, then retire server 0.
    let eng = build(&world, &scale, Strategy::Histogram, 2, false);
    let before = measure(&eng, &qs);
    let joined = eng.join_server().expect("join");
    let mid = measure(&eng, &qs);
    let left = eng.leave_server(0).expect("leave");
    let after = measure(&eng, &qs);
    for (name, cell) in [("join", &mid), ("leave", &after)] {
        gates.check(
            format!("membership {name}: selections diverged"),
            cell.selections == before.selections && cell.selections == reference.selections,
        );
    }
    let mut membership = Json::obj([("join", &joined), ("leave", &left)].map(|(name, m)| {
        println!(
            "membership {name}: server {}, {} slots, {} regions, {} B",
            m.server, m.slots_changed, m.regions_copied, m.bytes_copied,
        );
        let row = Json::obj([
            ("server", Json::from(m.server)),
            ("slots_changed", m.slots_changed.into()),
            ("regions_copied", m.regions_copied.into()),
            ("bytes_copied", m.bytes_copied.into()),
        ]);
        (name, row)
    }));
    membership.set(
        "results_unchanged",
        mid.selections == before.selections && after.selections == before.selections,
    );

    let mut doc = Json::obj([("particles", Json::from(scale.particles))]);
    doc.set("servers", SERVERS)
        .set("region_bytes", REGION_BYTES)
        .set("victim", VICTIM)
        .set("queries", qs.len())
        .set("gate", Json::fixed(GATE, 1))
        .set("matrix", Json::obj(matrix))
        .set("membership", membership);
    gates.finish(&doc)
}
