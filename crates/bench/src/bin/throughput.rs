//! Batch-throughput gate: an overlapping query series evaluated
//! sequentially (`QueryEngine::run` in a loop, fresh engine) vs as one
//! admitted batch (`QueryEngine::run_batch`, fresh engine), at series
//! lengths 1 / 8 / 32. Results are asserted bit-identical; what the
//! batch buys is recorded as counts — regions read once on behalf of the
//! whole series, plans and artifacts served from the epoch-validated
//! caches — and on the simulated clock, where the batch schedule must
//! not exceed the sum of the sequential critical paths. (How much host
//! wall time that saves is the referee's `service.batching_gain`.)
//!
//! Writes `BENCH_throughput.json` (path overridable as `argv[1]`);
//! `PDC_PARTICLES` overrides the 1 Mi-element default. Exits non-zero if
//! the 32-query batch misses a sharing floor below.

use pdc_bench::{
    build_world, engine_unscaled, synthetic_energy, Columns, Gates, Json, Scale, WorldSpec,
};
use pdc_query::{PdcQuery, Strategy};
use pdc_storage::SimDuration;
use pdc_types::ObjectId;
use std::process::ExitCode;

const SERVERS: u32 = 8;
/// Floor on the plan and artifact hit ratios and on the share of region
/// touches served without a re-read, at 32 queries over 4 predicates
/// (recorded: 0.938, 0.941 and 1984/2048 = 0.969).
const SHARING_FLOOR: f64 = 0.9;

/// `k` overlapping tail-window queries: 4 distinct shifted windows over
/// the clustered tail, repeated round-robin — the dashboard-refresh
/// shape the batch scheduler targets (distinct predicates share one
/// fused scan pass; repeats hit the caches outright). Every region
/// contains tail values, so histograms prune nothing and the sequential
/// baseline pays a full scan per query.
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
    let regions = world.data_bytes.div_ceil(spec.region_bytes);

    let mut rows = Vec::new();
    for k in [1usize, 8, 32] {
        let qs = series(world.objects[0], k);
        // Reference: the series one query at a time on a fresh engine.
        let eng = engine_unscaled(&world, Strategy::Histogram, SERVERS);
        let solo: Vec<_> = qs.iter().map(|q| eng.run(q).unwrap()).collect();
        let sequential: SimDuration = solo.iter().map(|o| o.elapsed).sum();

        let batch = engine_unscaled(&world, Strategy::Histogram, SERVERS).run_batch(&qs).unwrap();
        let hits =
            |outs: &[pdc_query::QueryOutcome]| outs.iter().map(|o| o.nhits).collect::<Vec<_>>();
        gates.check(
            format!("k={k}: batched results diverged"),
            hits(&solo) == hits(&batch.outcomes),
        );
        gates.check(
            format!(
                "k={k}: simulated batch {} exceeds sequential {sequential}",
                batch.batch_elapsed
            ),
            batch.batch_elapsed <= sequential,
        );
        let s = batch.stats;
        println!(
            "k={k:>2}: simulated sequential {sequential}, batched {}, plan hits {:.1}%, \
             artifact hit ratio {:.1}%, shared reads {}/{}",
            batch.batch_elapsed,
            s.plan_hit_ratio() * 100.0,
            s.artifact_hit_ratio() * 100.0,
            s.resident_reads,
            s.region_touches,
        );
        if k == 32 {
            let saved = s.resident_reads as f64 / s.region_touches.max(1) as f64;
            gates.check(
                format!("shared reads saved {saved:.3} < {SHARING_FLOOR}"),
                saved >= SHARING_FLOOR,
            );
            gates.check("plan hit ratio below floor", s.plan_hit_ratio() >= SHARING_FLOOR);
            gates.check("artifact hit ratio below floor", s.artifact_hit_ratio() >= SHARING_FLOOR);
            gates.check(
                format!("prewarm touched {} regions, the object has {regions}", s.prewarm_regions),
                s.prewarm_regions == regions,
            );
        }
        rows.push((
            k.to_string(),
            Json::obj([
                ("sequential_sim_ms", Json::ms(sequential)),
                ("batch_sim_ms", Json::ms(batch.batch_elapsed)),
                ("plan_hit_ratio", Json::fixed(s.plan_hit_ratio(), 3)),
                ("artifact_hit_ratio", Json::fixed(s.artifact_hit_ratio(), 3)),
                ("prewarm_regions", s.prewarm_regions.into()),
                ("shared_reads_saved", format!("{}/{}", s.resident_reads, s.region_touches).into()),
            ]),
        ));
    }

    let mut doc = Json::obj([("n_elements", Json::from(scale.particles))]);
    doc.set("servers", SERVERS).set("strategy", "PDC-H").set("series", Json::obj(rows));
    gates.finish(&doc)
}
