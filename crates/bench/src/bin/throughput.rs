//! Batch-throughput gate: an overlapping query series evaluated
//! sequentially (`QueryEngine::run` in a loop, fresh engine) vs as one
//! client's closed series through `QueryEngine::serve` (one tenant with
//! an unbounded budget, every arrival at t = 0, fresh engine), at series
//! lengths 1 / 8 / 32. Results are asserted bit-identical; what the
//! series shares is recorded as counts — region reads served from
//! resident copies, plans served from the plan cache — and on the
//! simulated clock, where the series must end within the sum of the
//! sequential critical paths.
//!
//! Writes `BENCH_throughput.json` (path overridable as `argv[1]`);
//! `PDC_PARTICLES` overrides the 1 Mi-element default. Exits non-zero if
//! the 32-query series misses a sharing floor below.

use pdc_bench::{
    build_world, engine_unscaled, synthetic_energy, Columns, Gates, Json, Scale, WorldSpec,
};
use pdc_query::{Arrival, PdcQuery, ServiceConfig, Strategy, TenantSpec};
use pdc_storage::SimDuration;
use pdc_types::ObjectId;
use std::process::ExitCode;

const SERVERS: u32 = 8;
/// Floor on the plan hit ratio and on the share of region touches served
/// without a re-read, at 32 queries over 4 predicates (recorded: 0.958
/// and 1984/2048 = 0.969).
const SHARING_FLOOR: f64 = 0.9;

/// `k` overlapping tail-window queries: 4 distinct shifted windows over
/// the clustered tail, repeated round-robin — the dashboard-refresh
/// shape (repeats hit the plan cache and read resident regions). Every
/// region contains tail values, so histograms prune nothing and the
/// sequential baseline pays a full scan per query.
fn series(energy: ObjectId, k: usize) -> Vec<PdcQuery> {
    (0..k)
        .map(|i| {
            let lo = 2.0 + (i % 4) as f32 * 0.3;
            PdcQuery::range_open(energy, lo, lo + 0.25)
        })
        .collect()
}

fn main() -> ExitCode {
    let mut gates = Gates::from_args("throughput");
    let scale = Scale::for_gate(1 << 20, SERVERS);
    let spec = WorldSpec::resident(64 << 10, Columns::None, Columns::None);
    let world = build_world(&[("energy", &synthetic_energy(scale.particles))], &spec);
    let client = ServiceConfig::new(vec![TenantSpec::new("client", 1, SimDuration::MAX, 0)]);
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;

    let mut rows = Vec::new();
    for k in [1usize, 8, 32] {
        let qs = series(world.objects[0], k);
        // Reference: the series one query at a time on a fresh engine.
        let eng = engine_unscaled(&world, Strategy::Histogram, SERVERS);
        let solo: Vec<_> = qs.iter().map(|q| eng.run(q).unwrap()).collect();
        let sequential: SimDuration = solo.iter().map(|o| o.elapsed).sum();

        let arrivals: Vec<Arrival> = qs
            .iter()
            .map(|q| Arrival { at: SimDuration::ZERO, tenant: "client".into(), query: q.clone() })
            .collect();
        let report = engine_unscaled(&world, Strategy::Histogram, SERVERS)
            .serve(&client, &arrivals)
            .unwrap();
        let served: Vec<_> = report.served.iter().map(|s| &s.outcome).collect();
        gates.check(
            format!("k={k}: served results diverged"),
            served.len() == solo.len()
                && solo.iter().zip(&served).all(|(a, b)| {
                    a.selection == b.selection
                        && a.elapsed == b.elapsed
                        && a.breakdown == b.breakdown
                }),
        );
        let end = report.end_time;
        gates.check(
            format!("k={k}: simulated series {end} exceeds sequential {sequential}"),
            end <= sequential,
        );
        let plan_hit_ratio = ratio(report.stats.plan_hits, report.stats.plan_misses);
        let resident_reads: u64 = served.iter().map(|o| o.io.cache_hits).sum();
        let region_touches: u64 = served.iter().map(|o| o.io.cache_hits + o.io.cache_misses).sum();
        println!(
            "k={k:>2}: simulated sequential {sequential}, served {end}, plan hits {:.1}%, \
             shared reads {resident_reads}/{region_touches}",
            plan_hit_ratio * 100.0,
        );
        if k == 32 {
            let saved = resident_reads as f64 / region_touches.max(1) as f64;
            gates.check(
                format!("shared reads saved {saved:.3} < {SHARING_FLOOR}"),
                saved >= SHARING_FLOOR,
            );
            gates.check("plan hit ratio below floor", plan_hit_ratio >= SHARING_FLOOR);
        }
        rows.push((
            k.to_string(),
            Json::obj([
                ("sequential_sim_ms", Json::ms(sequential)),
                ("batch_sim_ms", Json::ms(end)),
                ("plan_hit_ratio", Json::fixed(plan_hit_ratio, 3)),
                ("shared_reads_saved", format!("{resident_reads}/{region_touches}").into()),
            ]),
        ));
    }
    let mut doc = Json::obj([("n_elements", Json::from(scale.particles))]);
    doc.set("servers", SERVERS).set("strategy", "PDC-H").set("series", Json::obj(rows));
    gates.finish(&doc)
}
