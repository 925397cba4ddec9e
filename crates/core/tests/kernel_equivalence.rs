//! Oracle suite for the scan path. The engine has exactly one way to scan
//! a region (the typed kernels), so there is nothing to toggle against;
//! instead every strategy is held to an independent oracle: the scalar
//! per-element reference scan (`kernels::scan_interval_scalar`) over the
//! raw columns, combined by a naive per-coordinate conjunction. Two fresh
//! engines must also agree on every simulated cost field, so the scan
//! path stays deterministic.

use pdc_odms::{ImportOptions, Odms};
use pdc_query::{EngineConfig, PdcQuery, QueryEngine, QueryOutcome, Strategy};
use pdc_types::{kernels, Interval, ObjectId, QueryOp, Selection, TypedVec};
use std::sync::Arc;

struct World {
    odms: Arc<Odms>,
    energy: ObjectId,
    x: ObjectId,
    raw_energy: TypedVec,
    raw_x: TypedVec,
}

/// Regions of 2 MiB (512 Ki floats) over 600k elements: one full region
/// plus a partial tail, so whole-region scans run well past any
/// block-size boundary the kernels care about.
fn build_world() -> World {
    let n = 600_000usize;
    let odms = Arc::new(Odms::new(8));
    let c = odms.create_container("kernels");
    let energy: Vec<f32> = (0..n)
        .map(|i| {
            let base = ((i as f32 * 0.37).sin() + 1.0) * 0.9;
            if (3000..3400).contains(&(i % 8000)) {
                2.0 + ((i * 31) % 160) as f32 / 100.0
            } else {
                base
            }
        })
        .collect();
    let x: Vec<f32> = (0..n).map(|i| ((i as f32 * 0.011).cos() + 1.0) * 166.0).collect();
    let opts = ImportOptions {
        region_bytes: 2 << 20,
        build_index: true,
        build_sorted: true,
        ..Default::default()
    };
    let (raw_energy, raw_x) = (TypedVec::Float(energy), TypedVec::Float(x));
    let energy = odms.import_array(c, "energy", raw_energy.clone(), &opts).unwrap().object;
    let x = odms.import_array(c, "x", raw_x.clone(), &opts).unwrap().object;
    World { odms, energy, x, raw_energy, raw_x }
}

fn run_fresh(world: &World, strategy: Strategy, q: &PdcQuery) -> QueryOutcome {
    let eng = QueryEngine::new(
        Arc::clone(&world.odms),
        EngineConfig { strategy, num_servers: 4, ..Default::default() },
    );
    eng.run(q).unwrap()
}

/// The queries under test, each with its oracle selection: the scalar
/// reference scan of the first constraint, narrowed by testing every
/// further constraint one coordinate at a time.
fn queries_with_oracles(world: &World) -> Vec<(PdcQuery, Selection)> {
    // Query constants are f32 values; the engine compares in f64.
    let band = Interval::open(2.1f32 as f64, 2.2f32 as f64);
    let tail = Interval::from_op(QueryOp::Gt, 2.0);
    let slab = Interval::open(100.0, 200.0);
    vec![
        (
            PdcQuery::range_open(world.energy, 2.1f32, 2.2f32),
            kernels::scan_interval_scalar(&world.raw_energy, &band, 0),
        ),
        (
            PdcQuery::create(world.energy, QueryOp::Gt, 2.0f32)
                .and(PdcQuery::range_open(world.x, 100.0f32, 200.0f32)),
            kernels::scan_interval_scalar(&world.raw_energy, &tail, 0)
                .filter_coords(|c| slab.contains(world.raw_x.get_f64(c as usize))),
        ),
    ]
}

#[test]
fn every_strategy_matches_the_scalar_oracle() {
    let world = build_world();
    for (q, oracle) in queries_with_oracles(&world) {
        assert!(oracle.count() > 0, "test query must hit");
        for strategy in Strategy::ALL {
            let got = run_fresh(&world, strategy, &q);
            assert_eq!(got.nhits, oracle.count(), "{strategy}: nhits");
            assert_eq!(
                got.selection.runs(),
                oracle.runs(),
                "{strategy}: selection runs must equal the oracle's"
            );
        }
    }
}

#[test]
fn fresh_engines_agree_on_every_cost_field() {
    let world = build_world();
    for (q, _) in queries_with_oracles(&world) {
        for strategy in Strategy::ALL {
            let a = run_fresh(&world, strategy, &q);
            let b = run_fresh(&world, strategy, &q);
            assert_eq!(a.selection, b.selection, "{strategy}: selection");
            assert_eq!(a.work, b.work, "{strategy}: work counters");
            assert_eq!(a.breakdown, b.breakdown, "{strategy}: cost breakdown");
            assert_eq!(a.io, b.io, "{strategy}: io counters");
            assert_eq!(a.elapsed, b.elapsed, "{strategy}: simulated elapsed");
            assert_eq!(a.per_server, b.per_server, "{strategy}: per-server times");
        }
    }
}
