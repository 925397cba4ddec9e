//! Multi-tenant service-loop benchmark: open-loop Poisson arrival
//! traces replayed through `QueryEngine::serve` for three tenant mixes
//! (uniform, skewed heavy-tenant, adversarial flood). Reports per-tenant
//! p50/p95/p99 simulated latency and throughput, and gates on isolation:
//! admission control must bound the flood tenant's impact so the
//! well-behaved tenants' p99 under flood stays within 1.25x of the
//! uniform mix. Every served outcome is asserted bit-identical to a
//! sequential dispatch-order replay on a twin engine.
//!
//! Writes `BENCH_service.json` (path overridable as `argv[1]`);
//! `PDC_PARTICLES` overrides the 1 Mi-element default.

use pdc_bench::{
    build_world, engine_unscaled, synthetic_energy, Columns, Gates, Json, Scale, World, WorldSpec,
};
use pdc_query::{
    percentile, poisson_times, splitmix64, Arrival, PdcQuery, QueryEngine, ServiceConfig, Strategy,
    TenantSpec,
};
use pdc_storage::SimDuration;
use pdc_types::ObjectId;
use std::process::ExitCode;

const SERVERS: u32 = 8;
/// Per-tenant arrival rate of a well-behaved tenant, as a fraction of
/// the solo query service rate 1/E.
const WELL_LOAD: f64 = 0.25;
/// Simulated horizon, in units of the solo elapsed E.
const HORIZON_E: f64 = 120.0;
const P99_ISOLATION_LIMIT: f64 = 1.25;

fn engine(world: &World) -> QueryEngine {
    engine_unscaled(world, Strategy::Histogram, SERVERS)
}

/// Six overlapping tail windows; tenants draw from the pool with a
/// seeded splitmix64 stream, so traces are deterministic.
fn pool(energy: ObjectId) -> Vec<PdcQuery> {
    (0..6)
        .map(|j| {
            let lo = 2.0 + j as f32 * 0.15;
            PdcQuery::range_open(energy, lo, lo + 0.25)
        })
        .collect()
}

struct TenantLoad<'a> {
    name: &'a str,
    weight: u32,
    /// Arrival rate as a multiple of the well-behaved rate.
    rate_x: f64,
    /// Admission budget in units of E (the solo elapsed).
    budget_e: f64,
    queue_cap: usize,
}

/// What the gates need from one mix, plus its recorded document.
struct MixResult {
    well_p99: SimDuration,
    equivalent: bool,
    doc: Json,
}

fn run_mix(
    world: &World,
    queries: &[PdcQuery],
    mix_name: &str,
    loads: &[TenantLoad],
    e_solo: SimDuration,
    seed: u64,
) -> MixResult {
    let e_secs = e_solo.as_secs_f64();
    let horizon = SimDuration::from_secs_f64(HORIZON_E * e_secs);
    let lambda_well = WELL_LOAD / e_secs;

    let specs: Vec<TenantSpec> = loads
        .iter()
        .map(|l| {
            TenantSpec::new(
                l.name,
                l.weight,
                SimDuration::from_secs_f64(l.budget_e * e_secs),
                l.queue_cap,
            )
        })
        .collect();
    let mut cfg = ServiceConfig::new(specs);
    cfg.quantum = e_solo.max(SimDuration::from_nanos(1));

    let mut arrivals: Vec<Arrival> = Vec::new();
    for (ti, l) in loads.iter().enumerate() {
        let tseed = seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(ti as u64 + 1));
        let times = poisson_times(tseed, lambda_well * l.rate_x, horizon);
        let mut pick = tseed.wrapping_add(1);
        for at in times {
            let q = queries[(splitmix64(&mut pick) % queries.len() as u64) as usize].clone();
            arrivals.push(Arrival { at, tenant: l.name.to_string(), query: q });
        }
    }

    // Warm both engines identically (one pass over the pool) so the
    // mixes compare steady-state latencies, not first-touch PFS charges
    // — and so the twin's replay sees the same warm state.
    let eng = engine(world);
    for q in queries {
        eng.run(q).expect("warmup");
    }
    let report = eng.serve(&cfg, &arrivals).expect("serve");

    // Dispatch-order replay on a twin engine: scheduling may decide
    // *when*, never *what* — every outcome must be bit-identical.
    // (`arrival_index` refers to the original arrivals slice.)
    let twin = engine(world);
    for q in queries {
        twin.run(q).expect("warmup");
    }
    let equivalent = report.served.iter().all(|s| {
        let solo = twin.run(&arrivals[s.arrival_index].query).expect("replay");
        solo.selection == s.outcome.selection
            && solo.nhits == s.outcome.nhits
            && solo.elapsed == s.outcome.elapsed
            && solo.breakdown == s.outcome.breakdown
    });

    let mut well: Vec<SimDuration> = report
        .served
        .iter()
        .filter(|s| loads[s.tenant as usize].rate_x <= 1.0)
        .map(|s| s.latency())
        .collect();
    well.sort_unstable();

    let well_p99 = percentile(&well, 99.0);
    println!(
        "{mix_name:>8}: {:>3} served over {:>10}, well p99 {well_p99:>10}, replay {}",
        report.served.len(),
        report.end_time,
        if equivalent { "identical" } else { "DIVERGED" },
    );
    let tenants = report.tenant_summaries().into_iter().map(|t| {
        println!(
            "          {:>7}: {:>3}/{} done ({} rejected, {} deferred), p50 {} p95 {} p99 {}",
            t.name, t.completed, t.submitted, t.rejected, t.deferred, t.p50, t.p95, t.p99,
        );
        let row = Json::obj([
            ("submitted", Json::from(t.submitted)),
            ("completed", t.completed.into()),
            ("rejected", t.rejected.into()),
            ("deferred", t.deferred.into()),
            ("p50_ms", Json::ms(t.p50)),
            ("p95_ms", Json::ms(t.p95)),
            ("p99_ms", Json::ms(t.p99)),
            ("throughput_qps", Json::fixed(t.throughput_qps, 3)),
        ]);
        (t.name, row)
    });
    let doc = Json::obj([
        ("served", Json::from(report.served.len())),
        ("span_ms", Json::ms(report.end_time)),
        ("well_p99_ms", Json::ms(well_p99)),
        ("replay_equivalent", equivalent.into()),
        ("tenants", Json::obj(tenants)),
    ]);
    MixResult { well_p99, equivalent, doc }
}

fn main() -> ExitCode {
    let mut gates = Gates::from_args("service");
    let scale = Scale::for_gate(1 << 20, SERVERS);
    // Same energy shape as the throughput bench: smooth bulk plus
    // clustered tails; the pool below queries the tail windows.
    let spec = WorldSpec::resident(64 << 10, Columns::None, Columns::None);
    let world = build_world(&[("energy", &synthetic_energy(scale.particles))], &spec);
    let queries = pool(world.objects[0]);

    // Calibrate the warm solo elapsed E: the arrival rates, budgets,
    // and quantum all scale from it. (Warm, because the mixes warm
    // their engines before serving.)
    let cal = engine(&world);
    cal.run(&queries[0]).expect("calibration");
    let e_solo = cal.run(&queries[0]).expect("calibration").elapsed;

    let generous = 1000.0; // effectively unbounded budget, in units of E
    let well =
        |name, weight| TenantLoad { name, weight, rate_x: 1.0, budget_e: generous, queue_cap: 64 };
    let mixes = [
        ("uniform", [well("well-a", 1), well("well-b", 1), well("well-c", 1)]),
        (
            "skewed",
            [
                well("well-a", 4),
                well("well-b", 4),
                TenantLoad { name: "heavy", weight: 1, rate_x: 8.0, budget_e: 4.0, queue_cap: 16 },
            ],
        ),
        (
            "flood",
            [
                well("well-a", 4),
                well("well-b", 4),
                TenantLoad { name: "flood", weight: 1, rate_x: 16.0, budget_e: 1.5, queue_cap: 3 },
            ],
        ),
    ];

    let results: Vec<MixResult> = mixes
        .iter()
        .map(|(name, loads)| run_mix(&world, &queries, name, loads, e_solo, 0x5EC7_1CE5))
        .collect();

    let ratio = results[2].well_p99.as_secs_f64() / results[0].well_p99.as_secs_f64().max(1e-12);
    gates.check(
        "a served outcome diverged from its sequential dispatch-order replay",
        results.iter().all(|r| r.equivalent),
    );
    gates.check(
        format!(
            "flood mix degrades well-behaved p99 by {ratio:.3}x (limit {P99_ISOLATION_LIMIT}x)"
        ),
        ratio <= P99_ISOLATION_LIMIT,
    );

    let mut doc = Json::obj([("n_elements", Json::from(scale.particles))]);
    doc.set("servers", SERVERS)
        .set("strategy", "PDC-H")
        .set("solo_elapsed_ms", Json::ms(e_solo))
        .set("well_load_per_tenant", Json::fixed(WELL_LOAD, 2))
        .set("horizon_in_solo_units", Json::fixed(HORIZON_E, 0))
        .set("mixes", Json::obj(mixes.iter().zip(results).map(|((name, _), r)| (*name, r.doc))))
        .set(
            "gate",
            Json::obj([
                ("flood_over_uniform_well_p99", Json::fixed(ratio, 3)),
                ("limit", Json::fixed(P99_ISOLATION_LIMIT, 2)),
                ("pass", gates.all_passed().into()),
            ]),
        );

    println!(
        "isolation: flood well-behaved p99 / uniform well-behaved p99 = {ratio:.3} \
         (limit {P99_ISOLATION_LIMIT})"
    );
    gates.finish(&doc)
}
