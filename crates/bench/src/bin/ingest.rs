//! E12: query latency and hit correctness under concurrent ingest.
//!
//! A store importing 90% of the dataset up front streams the remaining
//! 10% in as appends interleaved with a range-query series. For every
//! strategy, each interleaved query is verified bit-identical against a
//! fresh store imported whole at the extent the query planned against
//! (the sealed baseline), and the simulated latency of both runs is
//! recorded — the gap is the price of querying mid-ingest (stale sorted
//! replica, pending tail index, cold caches after every epoch bump).
//!
//! Writes `BENCH_ingest.json` (path overridable as `argv[1]`);
//! `PDC_PARTICLES` overrides the 1 Mi-element default. Exits non-zero if
//! any interleaved query disagrees with its sealed rerun — the
//! correctness gate.

use pdc_bench::{
    build_world, engine_unscaled, pass_fail, sim_ms, synthetic_energy, Columns, Gates, Json, Scale,
    World, WorldSpec, ALL_STRATEGIES,
};
use pdc_query::{PdcQuery, QueryOutcome, Strategy};
use pdc_types::{ObjectId, TypedVec};
use std::process::ExitCode;

const SERVERS: u32 = 8;
const APPENDS: usize = 4;
const APPEND_FRACTION: f64 = 0.10;

fn import(data: &[f32]) -> World {
    build_world(&[("energy", data)], &WorldSpec::resident(128 << 10, Columns::All, Columns::All))
}

fn query(energy: ObjectId) -> PdcQuery {
    PdcQuery::range_open(energy, 2.1f32, 2.2f32)
}

/// The sealed baseline: the query on a fresh store imported whole at
/// `extent`.
fn sealed_run(data: &[f32], extent: usize, strategy: Strategy) -> QueryOutcome {
    let sealed = import(&data[..extent]);
    engine_unscaled(&sealed, strategy, SERVERS).run(&query(sealed.objects[0])).unwrap()
}

/// One strategy's interleaved series: whether every query matched its
/// sealed rerun, and the recorded row.
fn measure(data: &[f32], initial: usize, chunk: usize, strategy: Strategy) -> (bool, Json) {
    let world = import(&data[..initial]);
    let obj = world.objects[0];
    let eng = engine_unscaled(&world, strategy, SERVERS);
    let q = query(obj);
    let mut interleaved_sim = 0.0f64;
    let mut sealed_sim = 0.0f64;
    let mut hits_match = true;
    let mut appended = 0u64;
    for k in 0..=APPENDS {
        let out = eng.run(&q).unwrap();
        interleaved_sim += sim_ms(out.elapsed);
        // The sealed baseline at the extent this query planned over.
        let extent = out.planned_elements as usize;
        let sout = sealed_run(data, extent, strategy);
        sealed_sim += sim_ms(sout.elapsed);
        if out.nhits != sout.nhits || out.selection != sout.selection {
            hits_match = false;
            eprintln!(
                "MISMATCH: {strategy} at extent {extent}: interleaved {} vs sealed {}",
                out.nhits, sout.nhits
            );
        }
        if k < APPENDS {
            let lo = initial + k * chunk;
            let hi = (lo + chunk).min(data.len());
            let rep =
                eng.odms().append_array(obj, &TypedVec::Float(data[lo..hi].to_vec())).unwrap();
            appended += rep.appended_elems;
        }
    }
    let maint = world.odms.run_deferred_maintenance().unwrap();
    // Post-maintenance rerun must still agree with the final sealed
    // extent (deferred rebuilds never change results).
    let after = eng.run(&q).unwrap();
    let sout = sealed_run(data, after.planned_elements as usize, strategy);
    if after.selection != sout.selection {
        hits_match = false;
        eprintln!("MISMATCH: {strategy} after deferred maintenance");
    }
    let overhead = interleaved_sim / sealed_sim.max(1e-9);
    println!(
        "{:>7}: {} queries mid-ingest, simulated {interleaved_sim:>9.3} ms vs sealed \
         {sealed_sim:>9.3} ms ({overhead:.2}x), hits match: {hits_match}",
        strategy.label(),
        APPENDS + 1,
    );
    let row = Json::obj([
        ("queries", Json::from(APPENDS + 1)),
        ("interleaved_sim_ms", Json::fixed(interleaved_sim, 3)),
        ("sealed_sim_ms", Json::fixed(sealed_sim, 3)),
        ("ingest_overhead", Json::fixed(overhead, 3)),
        ("appended_elems", appended.into()),
        ("maintenance_bytes", maint.bytes_written.into()),
        ("hits_match", hits_match.into()),
    ]);
    (hits_match, row)
}

fn main() -> ExitCode {
    let mut gates = Gates::from_args("ingest");
    let n = Scale::for_gate(1 << 20, SERVERS).particles;
    let append_total = ((n as f64 * APPEND_FRACTION) as usize).max(APPENDS);
    let initial = n - append_total;
    let chunk = append_total / APPENDS;
    let data = synthetic_energy(n);

    println!("# E12 — query latency and correctness under concurrent ingest ({n} elements)\n");
    let mut all_match = true;
    let strategies = ALL_STRATEGIES.map(|strategy| {
        let (hits_match, row) = measure(&data, initial, chunk, strategy);
        all_match &= hits_match;
        (strategy.label(), row)
    });
    gates.check("interleaved queries diverged from the sealed baseline", all_match);

    let mut doc = Json::obj([("n_elements", Json::from(n))]);
    doc.set("initial_elements", initial)
        .set("appends", APPENDS)
        .set("append_fraction", Json::fixed(APPEND_FRACTION, 1))
        .set("servers", SERVERS)
        .set("correctness_gate", pass_fail(all_match))
        .set("strategies", Json::obj(strategies));
    gates.finish(&doc)
}
