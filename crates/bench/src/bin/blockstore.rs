//! E15: the out-of-core block-compressed region store.
//!
//! Two measurements, each with a hard gate:
//!
//! 1. **Compression** — a VPIC-flavoured `double` array (f32-valued, as
//!    simulation dumps usually are) must compress at least 2x end-to-end
//!    in the block file, checksums and index included.
//! 2. **Budgeted execution** — a store importing under a memory budget
//!    far below the dataset keeps its settled resident high-water under
//!    that budget, and every strategy's selection and simulated elapsed
//!    are bit-identical to an unbounded world's.
//!
//! (Cold-read speed is a wall-clock number: the referee's
//! `blockstore.decode_mb_per_s` and the `spill_cold` workload.)
//!
//! Writes `BENCH_blockstore.json` (path overridable as `argv[1]`);
//! `PDC_PARTICLES` overrides the 4 Mi-element default. Exits non-zero if
//! a gate fails.

use pdc_bench::{
    build_world, engine_unscaled, pass_fail, scratch_dir, sim_ms, synthetic_energy, Columns, Gates,
    Json, Scale, World, WorldSpec, ALL_STRATEGIES,
};
use pdc_blockstore::{write_typed, DEFAULT_BLOCK_ELEMS};
use pdc_query::PdcQuery;
use pdc_types::TypedVec;
use std::path::Path;
use std::process::ExitCode;

const SERVERS: u32 = 8;
const REGION_BYTES: u64 = 128 << 10;

/// 1. End-to-end file compression: uncompressed payload bytes over
///    on-disk file bytes (header, frames, checksums, and index included).
fn compression(values: &[f32]) -> (f64, f64) {
    let dir = scratch_dir("blockstore_comp");
    let as_f64 = TypedVec::Double(values.iter().map(|&v| v as f64).collect());
    let as_f32 = TypedVec::Float(values.to_vec());
    let ratio = |tv: &TypedVec, name: &str| -> f64 {
        let path = dir.join(name);
        write_typed(&path, tv, DEFAULT_BLOCK_ELEMS).unwrap();
        let disk = std::fs::metadata(&path).unwrap().len();
        tv.size_bytes() as f64 / disk as f64
    };
    let f64_ratio = ratio(&as_f64, "vpic_f64.pbf");
    let f32_ratio = ratio(&as_f32, "vpic_f32.pbf");
    let _ = std::fs::remove_dir_all(&dir);
    (f64_ratio, f32_ratio)
}

/// Import energy + x, both indexed and sorted; `spill` is the
/// directory and memory budget of the bounded twin.
fn import(energy: &[f32], spill: Option<(&Path, u64)>) -> World {
    let x: Vec<f32> = (0..energy.len()).map(|i| ((i as f32 * 0.011).cos() + 1.0) * 166.0).collect();
    let spec =
        WorldSpec { region_bytes: REGION_BYTES, index: Columns::All, sorted: Columns::All, spill };
    build_world(&[("energy", energy), ("x", &x)], &spec)
}

fn queries(w: &World) -> Vec<PdcQuery> {
    let (energy, x) = (w.objects[0], w.objects[1]);
    vec![
        PdcQuery::range_open(energy, 2.1f32, 2.2f32),
        PdcQuery::create(energy, pdc_types::QueryOp::Gt, 3.0f32),
        PdcQuery::range_open(energy, 2.0f32, 2.5f32)
            .and(PdcQuery::range_open(x, 100.0f32, 200.0f32)),
    ]
}

fn main() -> ExitCode {
    let mut gates = Gates::from_args("blockstore");
    let n = Scale::for_gate(1 << 22, SERVERS).particles;
    let values = synthetic_energy(n);
    println!("# E15 — out-of-core block-compressed region store ({n} elements)\n");

    let (f64_ratio, f32_ratio) = compression(&values);
    let comp_pass = gates.check("vpic f64 compression below 2x", f64_ratio >= 2.0);
    println!("compression: vpic f64 {f64_ratio:.2}x (gate >= 2.0), f32 {f32_ratio:.2}x");

    // Budget: a quarter of the raw data bytes — far below the dataset,
    // far above any single region.
    let data_bytes = 2 * (n as u64) * 4;
    let budget = (data_bytes / 4).max(2 * REGION_BYTES);
    let dir = scratch_dir("blockstore_spill");
    let unbounded = import(&values, None);
    let bounded = import(&values, Some((&dir, budget)));

    let mut strategies = Vec::new();
    let mut all_match = true;
    for strategy in ALL_STRATEGIES {
        let a = engine_unscaled(&unbounded, strategy, SERVERS);
        let b = engine_unscaled(&bounded, strategy, SERVERS);
        let mut hits = 0u64;
        let mut total_ms = 0.0f64;
        let mut matches = true;
        for (qa, qb) in queries(&unbounded).iter().zip(&queries(&bounded)) {
            let oa = a.run(qa).unwrap();
            let ob = b.run(qb).unwrap();
            matches &= oa.selection == ob.selection && oa.elapsed == ob.elapsed;
            hits += ob.nhits;
            total_ms += sim_ms(ob.elapsed);
        }
        all_match &= matches;
        println!(
            "{:>7}: {hits} hits over 3 queries, simulated {total_ms:.3} ms, \
             identical to unbounded: {matches}",
            strategy.label(),
        );
        strategies.push((
            strategy.label(),
            Json::obj([
                ("hits", Json::from(hits)),
                ("sim_ms", Json::fixed(total_ms, 3)),
                ("identical_to_unbounded", matches.into()),
            ]),
        ));
    }
    gates.check("a strategy diverged from the unbounded world", all_match);

    let stats = bounded.odms.store().spill_stats().expect("spill configured");
    let budget_pass = gates.check(
        format!("resident high-water {} B over the {budget} B budget", stats.resident_high_water),
        stats.resident_high_water <= budget,
    ) & gates.check("no demotion observed under the budget", stats.demotions > 0);
    let spill_ratio = if stats.spilled_comp_bytes > 0 {
        stats.spilled_raw_bytes as f64 / stats.spilled_comp_bytes as f64
    } else {
        1.0
    };
    // The block-cache hit rate depends on server-thread timing, so it is
    // printed but not recorded.
    println!(
        "budget: resident high-water {} B of {budget} B, {} demotion(s), {} fault-in(s), \
         {} region(s) spilled at {spill_ratio:.2}x, block cache {:.1}% hits",
        stats.resident_high_water,
        stats.demotions,
        stats.fault_ins,
        stats.spilled_regions,
        stats.block_cache.hit_rate() * 100.0,
    );
    let _ = std::fs::remove_dir_all(&dir);

    let mut doc = Json::obj([("n_elements", Json::from(n))]);
    doc.set("servers", SERVERS)
        .set("region_bytes", REGION_BYTES)
        .set("compression_f64_vpic", Json::fixed(f64_ratio, 3))
        .set("compression_f32_vpic", Json::fixed(f32_ratio, 3))
        .set("compression_gate_2x", pass_fail(comp_pass))
        .set("memory_budget_bytes", budget)
        .set("resident_high_water_bytes", stats.resident_high_water)
        .set("budget_gate", pass_fail(budget_pass))
        .set("demotions", stats.demotions)
        .set("fault_ins", stats.fault_ins)
        .set("spilled_regions", stats.spilled_regions)
        .set("spill_compression", Json::fixed(spill_ratio, 3))
        .set("identical_to_unbounded", all_match)
        .set("strategies", Json::obj(strategies));
    gates.finish(&doc)
}
