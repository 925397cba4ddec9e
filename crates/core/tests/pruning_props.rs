//! Soundness and bit-identity properties of the hierarchical region
//! directory and the cross-variable joint-bounds pruning.
//!
//! Three invariants:
//!
//! 1. **Candidate soundness**: the directory's candidate set contains
//!    every region that truly holds a match, and admits nothing the 1-D
//!    histogram bounds test would kill (candidates == the exact
//!    bounds-overlap set).
//! 2. **Bit-identity**: selections *and* every simulated cost (elapsed,
//!    per-server times, I/O, work, breakdown, integrity) are identical
//!    with the directory on or off, for all five strategies, on clean
//!    pools, under seeded faults plus ≤20% corruption, and after
//!    streaming appends. "Off" is not a switch: the reference world's
//!    objects carry a directory shorter than their metadata, which the
//!    snapshot refuses, so the evaluator takes the fallback every
//!    directory-less object takes in production — the full region walk.
//!    Under a corruption plan the off world is **partial**: the integrity
//!    preflight rebuilds a lagging directory like a damaged one, so
//!    there the reference is a store reopened from its metadata snapshot
//!    (which persists no directory at all), and an object whose
//!    directory the plan damages keeps it in both worlds — that repair
//!    is part of the compared outcome. The test asserts that the
//!    primary constraint's object, the only one whose directory
//!    evaluation consults, is not among those.
//! 3. **Joint invariance**: registering a joint-bounds grid kills
//!    additional candidate regions but never changes the selection.
//!
//! Each holds on a NaN-bearing energy column too (NaN scattered and in
//! two whole regions), since a NaN element satisfies no predicate.

use pdc_directory::RegionDirectory;
use pdc_odms::{ImportOptions, Odms};
use pdc_query::{
    apply_corruption, EngineConfig, MetaSnapshot, PdcQuery, QueryEngine, QueryOutcome, Strategy,
};
use pdc_server::{CorruptionSpec, FaultPlan};
use pdc_types::{Interval, ObjectId, QueryOp, RegionId, TypedVec};
use std::sync::Arc;

const N: usize = 40_000;

/// Deterministic VPIC-flavoured world: `x` sweeps [0, 332] monotonically
/// (so each region covers a narrow spatial window), and the energetic
/// tail (> 2.0) appears in a periodic cluster regardless of `x` — which
/// is exactly the correlation structure that makes independent 1-D
/// pruning admit tail regions a joint (energy, x) grid can kill.
struct World {
    odms: Arc<Odms>,
    energy: ObjectId,
    x: ObjectId,
    raw_energy: Vec<f32>,
    raw_x: Vec<f32>,
}

fn energy_at(i: usize) -> f32 {
    if (3000..3400).contains(&(i % 8000)) {
        2.0 + ((i * 31) % 160) as f32 / 100.0 // tail [2.0, 3.6)
    } else {
        ((i as f32 * 0.37).sin() + 1.0) * 0.9 // bulk [0, 1.8]
    }
}

fn x_at(i: usize) -> f32 {
    332.0 * i as f32 / N as f32
}

/// [`energy_at`] with NaN at every 11th element and in all of regions 5
/// and 20 (1024 floats each), one of them inside a tail cluster.
fn nan_energy_at(i: usize) -> f32 {
    if i.is_multiple_of(11) || matches!(i / 1024, 5 | 20) {
        f32::NAN
    } else {
        energy_at(i)
    }
}

fn build_world() -> World {
    build_world_from(energy_at)
}

fn build_world_from(energy_at: fn(usize) -> f32) -> World {
    let odms = Arc::new(Odms::new(8));
    let c = odms.create_container("vpic");
    let energy: Vec<f32> = (0..N).map(energy_at).collect();
    let x: Vec<f32> = (0..N).map(x_at).collect();
    let opts = ImportOptions {
        region_bytes: 4096,
        build_index: true,
        build_sorted: true,
        ..Default::default()
    };
    let energy_id =
        odms.import_array(c, "energy", TypedVec::Float(energy.clone()), &opts).unwrap().object;
    let x_id = odms.import_array(c, "x", TypedVec::Float(x.clone()), &opts).unwrap().object;
    World { odms, energy: energy_id, x: x_id, raw_energy: energy, raw_x: x }
}

/// Replace `obj`'s directory with an empty one: it indexes 0 regions,
/// fewer than the metadata describes, so it is unusable and candidate
/// resolution falls back to walking every region.
fn strip_directory(world: &World, obj: ObjectId) {
    world.odms.meta().set_directory(obj, RegionDirectory::new());
    let snap = MetaSnapshot::capture(&world.odms, &[obj]).unwrap();
    assert!(snap.directory(obj).is_none(), "a lagging directory must be refused");
}

/// The directory-off twin of [`build_world_from`].
fn build_world_without_directories_from(energy_at: fn(usize) -> f32) -> World {
    let w = build_world_from(energy_at);
    strip_directory(&w, w.energy);
    strip_directory(&w, w.x);
    w
}

fn build_world_without_directories() -> World {
    build_world_without_directories_from(energy_at)
}

/// [`build_world`] reopened from its metadata snapshot: a fresh system
/// holding the same data and index regions. Snapshots persist no
/// directory, so every object comes back with none at all — unlike the
/// lagging one of [`strip_directory`], nothing for an integrity
/// preflight to find and rebuild.
fn build_world_reopened() -> World {
    let w = build_world();
    let fresh = Arc::new(Odms::new(8));
    for meta in w.odms.meta().all_objects() {
        for obj in std::iter::once(meta.id).chain(meta.index_object) {
            for r in 0..meta.num_regions() {
                let rid = RegionId::new(obj, r);
                let (payload, tier) = w.odms.store().get(rid).unwrap();
                fresh.store().put(rid, payload, tier);
            }
        }
    }
    fresh.restore_metadata(&w.odms.meta().snapshot()).unwrap();
    for obj in [w.energy, w.x] {
        assert!(fresh.meta().directory(obj).is_none(), "snapshots carry no directory");
    }
    World { odms: fresh, ..w }
}

fn engine(world: &World, strategy: Strategy, plan: Option<FaultPlan>) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(&world.odms),
        EngineConfig { strategy, num_servers: 4, fault_plan: plan, ..Default::default() },
    )
}

/// The conjunctive window query: tail energy inside a spatial slab.
fn window_query(world: &World) -> PdcQuery {
    PdcQuery::create(world.energy, QueryOp::Gt, 2.0f32)
        .and(PdcQuery::range_open(world.x, 100.0f32, 200.0f32))
}

fn assert_outcomes_identical(a: &QueryOutcome, b: &QueryOutcome, tag: &str) {
    assert_eq!(a.selection, b.selection, "{tag}: selection");
    assert_eq!(a.nhits, b.nhits, "{tag}: nhits");
    assert_eq!(a.elapsed, b.elapsed, "{tag}: elapsed");
    assert_eq!(a.per_server, b.per_server, "{tag}: per-server times");
    assert_eq!(a.io, b.io, "{tag}: io counters");
    assert_eq!(a.work, b.work, "{tag}: work counters");
    assert_eq!(a.breakdown, b.breakdown, "{tag}: cost breakdown");
    assert_eq!(a.failed_servers, b.failed_servers, "{tag}: failed servers");
    assert_eq!(a.retry_rounds, b.retry_rounds, "{tag}: retry rounds");
    assert_eq!(a.integrity, b.integrity, "{tag}: integrity counters");
}

#[test]
fn directory_candidates_cover_matches_and_respect_1d_bounds() {
    for energy_at in [energy_at, nan_energy_at] {
        check_directory_candidates(&build_world_from(energy_at));
    }
}

fn check_directory_candidates(world: &World) {
    let meta = world.odms.meta().get(world.energy).unwrap();
    let dir = world.odms.meta().directory(world.energy).expect("import builds a directory");
    let hists = world.odms.meta().region_histograms(world.energy).unwrap();
    for iv in [
        Interval::from_op(QueryOp::Gt, 2.0),
        Interval::open(2.1, 2.2),
        Interval::open(0.0, 0.5),
        Interval::from_op(QueryOp::Lt, -10.0), // empty everywhere
        Interval::from_op(QueryOp::Gt, -1e9),  // everything
    ] {
        let probe = dir.probe(&iv);
        for r in 0..meta.num_regions() {
            let span = meta.region_span(r);
            let truly_matches = (span.offset..span.offset + span.len)
                .any(|i| iv.contains(world.raw_energy[i as usize] as f64));
            let candidate = probe.candidates.binary_search(&r).is_ok();
            if truly_matches {
                assert!(candidate, "region {r} holds a match of {iv} but was not admitted");
            }
            let all_nan = (span.offset..span.offset + span.len)
                .all(|i| world.raw_energy[i as usize].is_nan());
            assert!(!(all_nan && candidate), "all-NaN region {r} admitted for {iv}");
            if !candidate {
                // Non-candidates are exactly the regions the 1-D bounds
                // test kills: the histogram estimate is provably zero.
                let est = hists[r as usize].estimate_hits(&iv);
                assert_eq!(est.upper, 0, "region {r} skipped for {iv} but 1-D admits it");
            }
        }
        assert!(probe.bins_probed as usize <= dir.num_bins().max(1), "{iv}");
    }
}

#[test]
fn directory_on_off_bit_identical_all_strategies() {
    for (energy_at, column) in [(energy_at as fn(usize) -> f32, "clean"), (nan_energy_at, "NaN")] {
        for strategy in Strategy::ALL {
            // Separate worlds per engine: cache state must not leak
            // between the compared runs.
            let won = build_world_from(energy_at);
            let woff = build_world_without_directories_from(energy_at);
            let on = engine(&won, strategy, None);
            let off = engine(&woff, strategy, None);
            let (qon, qoff) = (window_query(&won), window_query(&woff));
            let a = on.run(&qon).unwrap();
            let b = off.run(&qoff).unwrap();
            assert!(a.nhits > 0, "{strategy}, {column}: window query must hit");
            assert_outcomes_identical(&a, &b, &format!("{strategy}, {column}, cold"));
            // Warm (cached) runs stay identical too.
            let a2 = on.run(&qon).unwrap();
            let b2 = off.run(&qoff).unwrap();
            assert_outcomes_identical(&a2, &b2, &format!("{strategy}, {column}, warm"));
        }
    }
}

#[test]
fn directory_on_off_bit_identical_under_faults_and_corruption() {
    let spec = || CorruptionSpec::new(0.2, 0.2, 42);
    let plan = || FaultPlan::seeded(11, 4).with_corruption(spec());
    // Which directories does this plan damage? Their repair is part of
    // the compared outcome, so those objects keep a directory in both
    // worlds; every other object of the reference world has none.
    let probe = build_world();
    apply_corruption(&probe.odms, &spec()).unwrap();
    let damaged = |obj: ObjectId| {
        let regions = probe.odms.meta().get(obj).unwrap().num_regions();
        !probe.odms.meta().directory(obj).unwrap().self_check(regions)
    };
    assert!(
        !damaged(probe.energy),
        "the plan damages energy's directory: both worlds would repair and consult it, \
         and the on/off comparison would compare nothing — pick another corruption seed"
    );
    for strategy in Strategy::ALL {
        let (won, woff) = (build_world(), build_world_reopened());
        if damaged(probe.x) {
            woff.odms.rebuild_directory(woff.x).unwrap();
        }
        // A joint pair in play exercises the grid's corruption/rebuild
        // lane as well.
        won.odms.register_joint_pair(won.energy, won.x).unwrap();
        woff.odms.register_joint_pair(woff.energy, woff.x).unwrap();
        let on = engine(&won, strategy, Some(plan()));
        let off = engine(&woff, strategy, Some(plan()));
        let (qon, qoff) = (window_query(&won), window_query(&woff));
        let a = on.run(&qon).unwrap();
        let b = off.run(&qoff).unwrap();
        assert_outcomes_identical(&a, &b, &format!("{strategy} corrupt"));
        assert!(
            a.integrity.any(),
            "{strategy}: 20% corruption must surface integrity work"
        );
        // Energy is the primary constraint — the one whose directory
        // candidate resolution consults — and the reference run had none
        // to consult, before the preflight or after it.
        let (_, explained) = on.explain(&qon).unwrap();
        assert_eq!(explained.constraints[0].0, won.energy, "{strategy}: primary constraint");
        assert!(woff.odms.meta().directory(woff.energy).is_none(), "{strategy}: reference regained a directory");
    }
}

#[test]
fn directory_on_off_bit_identical_after_appends_and_maintenance() {
    const DELTA: usize = 5_000;
    for strategy in Strategy::ALL {
        let (won, woff) = (build_world(), build_world_without_directories());
        for w in [&won, &woff] {
            let energy: Vec<f32> = (N..N + DELTA).map(energy_at).collect();
            let x: Vec<f32> = (N..N + DELTA).map(x_at).collect();
            w.odms.append_array(w.energy, &TypedVec::Float(energy)).unwrap();
            w.odms.append_array(w.x, &TypedVec::Float(x)).unwrap();
            w.odms.run_deferred_maintenance().unwrap();
        }
        // The append maintained the full directory; the stripped one
        // only gained the appended regions and still lags.
        let meta = won.odms.meta().get(won.energy).unwrap();
        let snap_on = MetaSnapshot::capture(&won.odms, &[won.energy]).unwrap();
        assert_eq!(snap_on.directory(won.energy).unwrap().num_regions(), meta.num_regions());
        let snap_off = MetaSnapshot::capture(&woff.odms, &[woff.energy]).unwrap();
        assert!(snap_off.directory(woff.energy).is_none());

        let on = engine(&won, strategy, None);
        let off = engine(&woff, strategy, None);
        // A window reaching into the appended extent (x keeps ramping).
        let q = |w: &World| {
            PdcQuery::create(w.energy, QueryOp::Gt, 2.0f32)
                .and(PdcQuery::range_open(w.x, 150.0f32, 400.0f32))
        };
        let a = on.run(&q(&won)).unwrap();
        let b = off.run(&q(&woff)).unwrap();
        assert!(
            a.selection.iter_coords().any(|c| c >= N as u64),
            "{strategy}: query must reach the appended extent"
        );
        assert_outcomes_identical(&a, &b, &format!("{strategy} appended"));
    }
}

#[test]
fn joint_registration_never_changes_the_selection() {
    for energy_at in [energy_at as fn(usize) -> f32, nan_energy_at] {
        let w = build_world_from(energy_at);
        let baseline = engine(&w, Strategy::Histogram, None).run(&window_query(&w)).unwrap();
        // The joint-killed regions are provably empty under the full
        // conjunction: the naive filter agrees with the baseline.
        let expect: Vec<u64> = (0..N as u64)
            .filter(|&i| {
                w.raw_energy[i as usize] > 2.0
                    && w.raw_x[i as usize] > 100.0
                    && w.raw_x[i as usize] < 200.0
            })
            .collect();
        assert!(!expect.is_empty());
        assert_eq!(baseline.selection.iter_coords().collect::<Vec<_>>(), expect);
        for strategy in Strategy::ALL {
            for with_directory in [true, false] {
                let w = if with_directory {
                    build_world_from(energy_at)
                } else {
                    build_world_without_directories_from(energy_at)
                };
                w.odms.register_joint_pair(w.energy, w.x).unwrap();
                // NaN pairs land in no cell, so the grid stays valid.
                assert!(w.odms.meta().joint_grid(w.energy, w.x).unwrap().self_check());
                let out = engine(&w, strategy, None).run(&window_query(&w)).unwrap();
                assert_eq!(
                    out.selection, baseline.selection,
                    "{strategy} with_directory={with_directory}: joint bounds changed hits"
                );
            }
        }
    }
}

#[test]
fn joint_bounds_kill_regions_independent_pruning_admits() {
    let w = build_world();
    w.odms.register_joint_pair(w.energy, w.x).unwrap();
    let eng = engine(&w, Strategy::Histogram, None);
    let (_, plan) = eng.explain(&window_query(&w)).unwrap();
    let stats = plan
        .directory
        .iter()
        .find(|d| d.object == w.energy)
        .expect("energy constraint carries directory stats");
    // The tail cluster recurs every 8000 elements, so 1-D energy bounds
    // admit tail regions across the whole x sweep; the joint grid kills
    // the ones outside the x window.
    assert!(stats.killed_joint > 0, "joint bounds killed nothing: {stats:?}");
    assert!(
        stats.admitted < stats.regions_total - stats.killed_1d,
        "joint pruning must shrink the 1-D admitted set: {stats:?}"
    );
    assert_eq!(
        stats.killed_1d + stats.killed_joint + stats.admitted,
        stats.regions_total,
        "{stats:?}"
    );
}
