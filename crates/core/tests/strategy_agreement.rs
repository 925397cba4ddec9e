//! The central correctness invariant of the reproduction: **every
//! evaluation strategy returns exactly the same hits** as a naive filter
//! over the raw data — full scan, histogram pruning, bitmap index, and
//! sorted replica are pure optimizations.

use pdc_odms::{ImportOptions, Odms};
use pdc_query::{EngineConfig, ExplainPhase, PdcQuery, QueryEngine, Strategy};
use pdc_types::{Interval, NdRegion, ObjectId, QueryOp, Selection, TypedVec};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A small VPIC-flavoured dataset: energy has a bulk plus a clustered
/// tail; x/y/z are spatial coordinates with smooth variation.
struct TestWorld {
    odms: Arc<Odms>,
    energy: ObjectId,
    x: ObjectId,
    raw_energy: Vec<f32>,
    raw_x: Vec<f32>,
}

fn build_world(n: usize, region_bytes: u64) -> TestWorld {
    let odms = Arc::new(Odms::new(8));
    let c = odms.create_container("vpic");
    let energy: Vec<f32> = (0..n)
        .map(|i| {
            let base = ((i as f32 * 0.37).sin() + 1.0) * 0.9; // smooth [0, 1.8]
            if (3000..3400).contains(&(i % 8000)) {
                2.0 + ((i * 31) % 160) as f32 / 100.0 // clustered tail [2.0, 3.6)
            } else {
                base
            }
        })
        .collect();
    let x: Vec<f32> = (0..n).map(|i| ((i as f32 * 0.011).cos() + 1.0) * 166.0).collect();
    let opts = ImportOptions {
        region_bytes,
        build_index: true,
        build_sorted: true,
        ..Default::default()
    };
    let e = odms.import_array(c, "energy", TypedVec::Float(energy.clone()), &opts).unwrap().object;
    let xo = odms.import_array(c, "x", TypedVec::Float(x.clone()), &opts).unwrap().object;
    TestWorld { odms, energy: e, x: xo, raw_energy: energy, raw_x: x }
}

fn engine(world: &TestWorld, strategy: Strategy, servers: u32) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(&world.odms),
        EngineConfig { strategy, num_servers: servers, ..Default::default() },
    )
}

fn naive_hits(world: &TestWorld, e_iv: Option<&Interval>, x_iv: Option<&Interval>) -> Vec<u64> {
    (0..world.raw_energy.len() as u64)
        .filter(|&i| {
            e_iv.is_none_or(|iv| iv.contains(world.raw_energy[i as usize] as f64))
                && x_iv.is_none_or(|iv| iv.contains(world.raw_x[i as usize] as f64))
        })
        .collect()
}

#[test]
fn single_object_range_query_all_strategies_agree() {
    let world = build_world(40_000, 8192);
    let expect = naive_hits(&world, Some(&Interval::open(2.1, 2.2)), None);
    assert!(!expect.is_empty(), "test data must produce hits");
    for strategy in Strategy::ALL {
        let eng = engine(&world, strategy, 4);
        let q = PdcQuery::range_open(world.energy, 2.1f32, 2.2f32);
        let out = eng.run(&q).unwrap();
        assert_eq!(
            out.selection.iter_coords().collect::<Vec<_>>(),
            expect,
            "strategy {strategy} disagrees"
        );
        assert_eq!(out.nhits, expect.len() as u64);
    }
}

#[test]
fn one_sided_queries_all_strategies_agree() {
    let world = build_world(20_000, 4096);
    for (op, v) in [
        (QueryOp::Gt, 2.0f32),
        (QueryOp::Gte, 2.0),
        (QueryOp::Lt, 0.5),
        (QueryOp::Lte, 0.5),
    ] {
        let iv = Interval::from_op(op, v as f64);
        let expect = naive_hits(&world, Some(&iv), None);
        for strategy in Strategy::ALL {
            let eng = engine(&world, strategy, 3);
            let out = eng.run(&PdcQuery::create(world.energy, op, v)).unwrap();
            assert_eq!(
                out.selection.iter_coords().collect::<Vec<_>>(),
                expect,
                "{strategy} on {op:?} {v}"
            );
        }
    }
}

#[test]
fn multi_object_conjunction_all_strategies_agree() {
    let world = build_world(30_000, 8192);
    let e_iv = Interval::from_op(QueryOp::Gt, 2.0);
    let x_iv = Interval::open(100.0, 200.0);
    let expect = naive_hits(&world, Some(&e_iv), Some(&x_iv));
    assert!(!expect.is_empty());
    for strategy in Strategy::ALL {
        let eng = engine(&world, strategy, 4);
        let q = PdcQuery::create(world.energy, QueryOp::Gt, 2.0f32)
            .and(PdcQuery::range_open(world.x, 100.0f32, 200.0f32));
        let out = eng.run(&q).unwrap();
        assert_eq!(
            out.selection.iter_coords().collect::<Vec<_>>(),
            expect,
            "strategy {strategy}"
        );
    }
}

#[test]
fn disjunction_all_strategies_agree() {
    let world = build_world(20_000, 8192);
    let lo = Interval::from_op(QueryOp::Lt, 0.1);
    let hi = Interval::from_op(QueryOp::Gt, 3.0);
    let mut expect = naive_hits(&world, Some(&lo), None);
    expect.extend(naive_hits(&world, Some(&hi), None));
    expect.sort_unstable();
    expect.dedup();
    for strategy in Strategy::ALL {
        let eng = engine(&world, strategy, 4);
        let q = PdcQuery::create(world.energy, QueryOp::Lt, 0.1f32)
            .or(PdcQuery::create(world.energy, QueryOp::Gt, 3.0f32));
        let out = eng.run(&q).unwrap();
        assert_eq!(out.selection.iter_coords().collect::<Vec<_>>(), expect, "{strategy}");
    }
}

#[test]
fn and_over_or_all_strategies_agree() {
    let world = build_world(20_000, 8192);
    // (energy < 0.1 OR energy > 3.0) AND 100 < x < 250
    let x_iv = Interval::open(100.0, 250.0);
    let expect: Vec<u64> = (0..world.raw_energy.len() as u64)
        .filter(|&i| {
            let e = world.raw_energy[i as usize] as f64;
            let x = world.raw_x[i as usize] as f64;
            !(0.1..=3.0).contains(&e) && x_iv.contains(x)
        })
        .collect();
    for strategy in Strategy::ALL {
        let eng = engine(&world, strategy, 4);
        let q = (PdcQuery::create(world.energy, QueryOp::Lt, 0.1f32)
            .or(PdcQuery::create(world.energy, QueryOp::Gt, 3.0f32)))
        .and(PdcQuery::range_open(world.x, 100.0f32, 250.0f32));
        let out = eng.run(&q).unwrap();
        assert_eq!(out.selection.iter_coords().collect::<Vec<_>>(), expect, "{strategy}");
    }
}

#[test]
fn spatial_region_constraint_all_strategies_agree() {
    let world = build_world(20_000, 4096);
    let e_iv = Interval::from_op(QueryOp::Gt, 2.0);
    let expect: Vec<u64> = naive_hits(&world, Some(&e_iv), None)
        .into_iter()
        .filter(|&c| (5_000..12_000).contains(&c))
        .collect();
    for strategy in Strategy::ALL {
        let eng = engine(&world, strategy, 4);
        let q = PdcQuery::create(world.energy, QueryOp::Gt, 2.0f32)
            .set_region(NdRegion::one_d(5_000, 7_000));
        let out = eng.run(&q).unwrap();
        assert_eq!(out.selection.iter_coords().collect::<Vec<_>>(), expect, "{strategy}");
    }
}

#[test]
fn results_independent_of_server_count() {
    let world = build_world(30_000, 4096);
    let q = PdcQuery::create(world.energy, QueryOp::Gt, 2.0f32)
        .and(PdcQuery::range_open(world.x, 100.0f32, 200.0f32));
    let reference = engine(&world, Strategy::Histogram, 1).run(&q).unwrap();
    for servers in [2, 3, 7, 16, 64] {
        for strategy in Strategy::ALL {
            let eng = engine(&world, strategy, servers);
            let out = eng.run(&q).unwrap();
            assert_eq!(
                out.selection, reference.selection,
                "{strategy} with {servers} servers"
            );
        }
    }
}

#[test]
fn repeated_queries_get_faster_with_caching() {
    let world = build_world(40_000, 4096);
    let eng = engine(&world, Strategy::Histogram, 4);
    let q = PdcQuery::range_open(world.energy, 2.1f32, 2.2f32);
    let first = eng.run(&q).unwrap();
    let second = eng.run(&q).unwrap();
    assert_eq!(first.selection, second.selection);
    assert!(
        second.elapsed < first.elapsed,
        "cached run {} should beat cold run {}",
        second.elapsed,
        first.elapsed
    );
    assert_eq!(second.io.pfs_bytes_read, 0, "second run must be fully cached");
}

#[test]
fn get_data_returns_exact_values_all_strategies() {
    let world = build_world(20_000, 8192);
    let q = PdcQuery::range_open(world.energy, 2.1f32, 2.2f32);
    let expect_coords = naive_hits(&world, Some(&Interval::open(2.1, 2.2)), None);
    let expect_values: Vec<f32> =
        expect_coords.iter().map(|&c| world.raw_energy[c as usize]).collect();
    for strategy in Strategy::ALL {
        let eng = engine(&world, strategy, 4);
        let out = eng.run(&q).unwrap();
        let data = eng.get_data(&out, world.energy).unwrap();
        match &data.data {
            TypedVec::Float(vs) => assert_eq!(vs, &expect_values, "{strategy}"),
            other => panic!("wrong type {other:?}"),
        }
        assert!(data.servers_involved > 0);
    }
}

#[test]
fn get_data_on_other_object_than_queried() {
    // "The memory objects may have the same or different data structures
    // from those in the query condition" — query energy, fetch x.
    let world = build_world(20_000, 8192);
    let q = PdcQuery::range_open(world.energy, 2.1f32, 2.2f32);
    let expect_coords = naive_hits(&world, Some(&Interval::open(2.1, 2.2)), None);
    let expect_values: Vec<f32> =
        expect_coords.iter().map(|&c| world.raw_x[c as usize]).collect();
    for strategy in Strategy::ALL {
        let eng = engine(&world, strategy, 4);
        let out = eng.run(&q).unwrap();
        let data = eng.get_data(&out, world.x).unwrap();
        match &data.data {
            TypedVec::Float(vs) => assert_eq!(vs, &expect_values, "{strategy}"),
            other => panic!("wrong type {other:?}"),
        }
    }
}

#[test]
fn get_data_batch_concatenates_to_get_data() {
    let world = build_world(20_000, 8192);
    let eng = engine(&world, Strategy::Histogram, 4);
    let q = PdcQuery::create(world.energy, QueryOp::Gt, 2.0f32);
    let out = eng.run(&q).unwrap();
    assert!(out.nhits > 100);
    let whole = eng.get_data(&out, world.energy).unwrap();
    let batches = eng.get_data_batch(&out, world.energy, 64).unwrap();
    assert!(batches.len() > 1, "should need multiple batches");
    let mut concat: Vec<f32> = Vec::new();
    for b in &batches {
        match &b.data {
            TypedVec::Float(vs) => concat.extend_from_slice(vs),
            other => panic!("wrong type {other:?}"),
        }
    }
    match &whole.data {
        TypedVec::Float(vs) => assert_eq!(&concat, vs),
        other => panic!("wrong type {other:?}"),
    }
}

#[test]
fn empty_result_short_circuits() {
    let world = build_world(10_000, 4096);
    for strategy in Strategy::ALL {
        let eng = engine(&world, strategy, 4);
        let q = PdcQuery::create(world.energy, QueryOp::Gt, 100.0f32)
            .and(PdcQuery::range_open(world.x, 100.0f32, 200.0f32));
        let out = eng.run(&q).unwrap();
        assert_eq!(out.nhits, 0, "{strategy}");
        assert!(out.selection.is_empty());
    }
}

/// 20 regions of 1024 floats (the last one 544 long). Energy's hot
/// stretches put candidate runs on the region-grouping edges of the point
/// check: `[1500, 4700)` (3.0) crosses three region ends, `[6000, 7168)`
/// (2.5) ends exactly at region 6's end, and `[19700, 20000)` (3.7) lies
/// wholly in the last region and ends at the object's end. x is 500 — so
/// `x < 300` fails and histograms prune — on all of region 3 and on every
/// 97th element.
fn grouping_edge_world() -> TestWorld {
    let n = 20_000usize;
    let odms = Arc::new(Odms::new(8));
    let c = odms.create_container("edges");
    let energy: Vec<f32> = (0..n)
        .map(|i| match i {
            1500..4700 => 3.0,
            6000..7168 => 2.5,
            19_700.. => 3.7,
            _ => ((i as f32 * 0.37).sin() + 1.0) * 0.9,
        })
        .collect();
    let x: Vec<f32> = (0..n)
        .map(|i| match i {
            3072..4096 => 500.0,
            _ if i % 97 == 0 => 500.0,
            _ => (i % 7) as f32 * 30.0,
        })
        .collect();
    let opts = ImportOptions {
        region_bytes: 4096,
        build_index: true,
        build_sorted: true,
        ..Default::default()
    };
    let e = odms.import_array(c, "energy", TypedVec::Float(energy.clone()), &opts).unwrap().object;
    let xo = odms.import_array(c, "x", TypedVec::Float(x.clone()), &opts).unwrap().object;
    TestWorld { odms, energy: e, x: xo, raw_energy: energy, raw_x: x }
}

#[test]
fn point_check_grouping_edges_all_strategies_agree() {
    const REGION: u64 = 1024;
    let world = grouping_edge_world();
    let x_iv = Interval::from_op(QueryOp::Lt, 300.0);
    // (primary constraint, its interval as the engine compares it): every
    // hot stretch, only the one ending at region 6's end, only the last
    // region's.
    let cases = [
        (PdcQuery::create(world.energy, QueryOp::Gt, 2.0f32), Interval::from_op(QueryOp::Gt, 2.0)),
        (
            PdcQuery::range_open(world.energy, 2.4f32, 2.6f32),
            Interval::open(2.4f32 as f64, 2.6f32 as f64),
        ),
        (PdcQuery::create(world.energy, QueryOp::Gt, 3.5f32), Interval::from_op(QueryOp::Gt, 3.5)),
    ];
    for (primary, e_iv) in cases {
        let q = primary.and(PdcQuery::create(world.x, QueryOp::Lt, 300.0f32));
        let candidates = naive_hits(&world, Some(&e_iv), None);
        let expect = Selection::from_sorted_coords(naive_hits(&world, Some(&e_iv), Some(&x_iv)));
        assert!(!expect.is_empty(), "{e_iv}: test query must hit");
        // The regions the point check groups the candidates into, with the
        // candidates and the matches each one holds.
        let mut per_region: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for &c in &candidates {
            let entry = per_region.entry((c / REGION) as u32).or_default();
            entry.0 += 1;
            entry.1 += u64::from(x_iv.contains(world.raw_x[c as usize] as f64));
        }
        for servers in [1, 3, 4] {
            for strategy in Strategy::ALL {
                let tag = format!("{e_iv}, {strategy}, {servers} servers");
                let eng = engine(&world, strategy, servers);
                let (out, plan) = eng.explain(&q).unwrap();
                assert_eq!(out.selection, expect, "{tag}: selection");
                assert_eq!(out.nhits, expect.count(), "{tag}: nhits");
                let plain = engine(&world, strategy, servers).run(&q).unwrap();
                assert_eq!(plain.selection, out.selection, "{tag}: run vs explain selection");
                assert_eq!(plain.elapsed, out.elapsed, "{tag}: elapsed");
                assert_eq!(plain.per_server, out.per_server, "{tag}: per-server times");
                assert_eq!(plain.work, out.work, "{tag}: work counters");
                assert_eq!(plain.io, out.io, "{tag}: io counters");
                assert_eq!(plain.breakdown, out.breakdown, "{tag}: cost breakdown");
                // Filter rows: exactly the candidate-holding regions, each
                // finding its own matches (rows of one region from several
                // slots sum — the sorted primary spreads candidates).
                let mut seen: BTreeMap<u32, (bool, u64)> = BTreeMap::new();
                for row in plan.regions.iter().filter(|r| r.phase == ExplainPhase::Filter) {
                    assert_eq!(row.object, world.x, "{tag}: filter row object");
                    let entry = seen.entry(row.region).or_default();
                    entry.0 |= row.pruned;
                    entry.1 += row.actual_hits.unwrap_or(0);
                }
                assert_eq!(
                    seen.keys().collect::<Vec<_>>(),
                    per_region.keys().collect::<Vec<_>>(),
                    "{tag}: filter regions"
                );
                for (r, &(pruned, hits)) in &seen {
                    let want = per_region[r].1;
                    assert_eq!(hits, if pruned { 0 } else { want }, "{tag}: region {r} hits");
                    assert!(!pruned || want == 0, "{tag}: region {r} pruned with matches");
                }
                // Scan-only strategies: every scanned element is accounted
                // for by a primary region scan or a grouped candidate.
                if matches!(strategy, Strategy::FullScan | Strategy::Histogram) {
                    let primary: u64 = plan
                        .regions
                        .iter()
                        .filter(|r| r.phase == ExplainPhase::Primary && !r.pruned)
                        .map(|r| r.span_len)
                        .sum();
                    let filtered: u64 = seen
                        .iter()
                        .filter(|(_, (pruned, _))| !pruned)
                        .map(|(r, _)| per_region[r].0)
                        .sum();
                    assert_eq!(out.work.elements_scanned, primary + filtered, "{tag}: scanned");
                }
            }
        }
    }
}

#[test]
fn equality_query_on_integers() {
    let odms = Arc::new(Odms::new(4));
    let c = odms.create_container("ints");
    let data: Vec<i32> = (0..10_000).map(|i| i % 37).collect();
    let opts = ImportOptions {
        region_bytes: 4096,
        build_index: true,
        build_sorted: true,
        ..Default::default()
    };
    let obj = odms.import_array(c, "ids", TypedVec::Int32(data.clone()), &opts).unwrap().object;
    let expect: Vec<u64> = (0..10_000u64).filter(|&i| data[i as usize] == 17).collect();
    for strategy in Strategy::ALL {
        let eng = QueryEngine::new(
            Arc::clone(&odms),
            EngineConfig { strategy, num_servers: 4, ..Default::default() },
        );
        let q = PdcQuery::create(obj, QueryOp::Eq, 17i32);
        let out = eng.run(&q).unwrap();
        assert_eq!(out.selection.iter_coords().collect::<Vec<_>>(), expect, "{strategy}");
    }
}

/// Energy with NaN at every `nan_every`-th element (none when 0) and in
/// every element of regions 3 and 7 (1024 floats each); x with NaN at
/// every 13th element.
fn nan_world(nan_every: usize) -> TestWorld {
    let n = 20_000usize;
    let odms = Arc::new(Odms::new(8));
    let c = odms.create_container("nan");
    let energy: Vec<f32> = (0..n)
        .map(|i| {
            if (nan_every > 0 && i % nan_every == 0) || matches!(i / 1024, 3 | 7) {
                f32::NAN
            } else if (3000..3400).contains(&(i % 8000)) {
                2.0 + ((i * 31) % 160) as f32 / 100.0
            } else {
                ((i as f32 * 0.37).sin() + 1.0) * 0.9
            }
        })
        .collect();
    let x: Vec<f32> = (0..n)
        .map(|i| if i % 13 == 0 { f32::NAN } else { ((i as f32 * 0.011).cos() + 1.0) * 166.0 })
        .collect();
    let opts = ImportOptions {
        region_bytes: 4096,
        build_index: true,
        build_sorted: true,
        ..Default::default()
    };
    let e = odms.import_array(c, "energy", TypedVec::Float(energy.clone()), &opts).unwrap().object;
    let xo = odms.import_array(c, "x", TypedVec::Float(x.clone()), &opts).unwrap().object;
    TestWorld { odms, energy: e, x: xo, raw_energy: energy, raw_x: x }
}

#[test]
fn nan_elements_match_nothing_under_every_strategy() {
    // IEEE semantics: a NaN element satisfies no predicate, so every
    // strategy — scans, histogram pruning, bitmap bins and the sorted
    // replica, whose total order puts NaN last — returns the naive filter.
    for nan_every in [0, 97, 5, 2] {
        let world = nan_world(nan_every);
        let (e, x) = (world.energy, world.x);
        let cases = [
            (
                PdcQuery::range_open(e, 2.1f32, 2.2f32),
                Some(Interval::open(2.1f32 as f64, 2.2f32 as f64)),
                None,
            ),
            (
                PdcQuery::create(e, QueryOp::Gt, 2.0f32),
                Some(Interval::from_op(QueryOp::Gt, 2.0)),
                None,
            ),
            (
                PdcQuery::create(e, QueryOp::Lte, 0.5f32),
                Some(Interval::from_op(QueryOp::Lte, 0.5)),
                None,
            ),
            (
                PdcQuery::create(e, QueryOp::Gt, f32::NEG_INFINITY),
                Some(Interval::from_op(QueryOp::Gt, f64::NEG_INFINITY)),
                None,
            ),
            (
                PdcQuery::create(e, QueryOp::Gt, 2.0f32)
                    .and(PdcQuery::range_open(x, 100.0f32, 200.0f32)),
                Some(Interval::from_op(QueryOp::Gt, 2.0)),
                Some(Interval::open(100.0, 200.0)),
            ),
            (
                PdcQuery::create(x, QueryOp::Gt, f32::NEG_INFINITY),
                None,
                Some(Interval::from_op(QueryOp::Gt, f64::NEG_INFINITY)),
            ),
        ];
        for (q, e_iv, x_iv) in cases {
            let expect = naive_hits(&world, e_iv.as_ref(), x_iv.as_ref());
            assert!(!expect.is_empty(), "every {nan_every}: test query must hit");
            let reference = engine(&world, Strategy::FullScan, 4).run(&q).unwrap();
            assert_eq!(
                reference.selection.iter_coords().collect::<Vec<_>>(),
                expect,
                "every {nan_every}"
            );
            for strategy in Strategy::ALL {
                let out = engine(&world, strategy, 4).run(&q).unwrap();
                assert_eq!(out.selection, reference.selection, "{strategy}, NaN every {nan_every}");
                assert_eq!(out.nhits, reference.nhits, "{strategy}, NaN every {nan_every}");
            }
        }
    }
}

/// Elements of the rank world: every value distinct, and value order
/// scatters coordinates over the whole object, rank `(i * 7919) % n` at
/// coordinate `i`; sorted regions hold 1 024 ranks each.
const RANK_WORLD: usize = 40_000;

/// The value of rank `rank` in the rank world.
fn rank_value(rank: usize) -> f32 {
    rank as f32 * 0.00025
}

/// The rank world: the ranked object and a second object for
/// conjunctions, the coordinate itself.
fn rank_world() -> (Arc<Odms>, ObjectId, ObjectId) {
    let n = RANK_WORLD;
    let odms = Arc::new(Odms::new(8));
    let c = odms.create_container("paths");
    let energy: Vec<f32> = (0..n).map(|i| rank_value((i * 7919) % n)).collect();
    let opts = ImportOptions { region_bytes: 4096, build_sorted: true, ..Default::default() };
    let obj = odms.import_array(c, "energy", TypedVec::Float(energy), &opts).unwrap().object;
    let coord: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let pos = odms.import_array(c, "pos", TypedVec::Float(coord), &opts).unwrap().object;
    (odms, obj, pos)
}

/// Whether a server scatters `slice` alone into words (the density rule of
/// `PartialSelection::scatter`) rather than sorting it.
fn scatters_to_words(slice: &[u64]) -> bool {
    use pdc_types::selection::{DENSE_WORDS_PER_COORD, SORT_BELOW};
    let (lo, hi) = (slice.iter().min().unwrap(), slice.iter().max().unwrap());
    slice.len() >= SORT_BELOW && hi - lo < slice.len() as u64 * DENSE_WORDS_PER_COORD * 64
}

#[test]
fn sorted_slices_on_both_primitive_paths_match_full_scan() {
    use pdc_query::OpKind;
    use pdc_types::selection::SORT_BELOW;
    let (n, value) = (RANK_WORLD, rank_value);
    let (odms, obj, pos) = rank_world();
    // Ranks 5120..6244: sorted region 5 whole, plus the first 100 slots of
    // region 6.
    let q = PdcQuery::range_open(obj, value(5119), value(6244));
    let replica = odms.meta().sorted_replica(obj).unwrap();
    let span = replica.matching_span(&Interval::open(value(5119) as f64, value(6244) as f64));
    assert_eq!((span.start, span.len), (5120, 1124));
    let dense = scatters_to_words;
    let (full, edge) = (&replica.perm()[5120..6144], &replica.perm()[6144..6244]);
    assert!(dense(full), "the whole region must take the bitset path");
    assert!(edge.len() >= SORT_BELOW && !dense(edge), "the edge slice must take the sort path");
    // Ranks 2000..16500: the tail of sorted region 1, regions 2..=15
    // whole and the head of region 16 — at least 3 band regions per
    // server at 4 servers, so each server scatters several slices at once.
    let wide = PdcQuery::range_open(obj, value(1999), value(16500));
    // The same band as the primary of a conjunction: `pos` keeps 3/4 of
    // the object, so the band stays the more selective constraint.
    let conj = PdcQuery::range_open(obj, value(1999), value(16500))
        .and(PdcQuery::create(pos, QueryOp::Lt, 30_000.0f32));

    let in_ranks = |lo: usize, hi: usize| {
        move |&i: &u64| (lo..hi).contains(&((i as usize * 7919) % n))
    };
    let cases = [
        ("two-region band", q, (0..n as u64).filter(in_ranks(5120, 6244)).collect::<Vec<_>>(), true),
        ("wide band", wide, (0..n as u64).filter(in_ranks(2000, 16500)).collect(), true),
        ("conjunction", conj, (0..30_000u64).filter(in_ranks(2000, 16500)).collect(), false),
    ];
    for (name, query, expect, single) in &cases {
        let reference = QueryEngine::new(
            Arc::clone(&odms),
            EngineConfig { strategy: Strategy::FullScan, num_servers: 4, ..Default::default() },
        )
        .run(query)
        .unwrap();
        assert_eq!(&reference.selection.iter_coords().collect::<Vec<_>>(), expect, "{name}");
        for strategy in [Strategy::SortedHistogram, Strategy::Adaptive] {
            for servers in [1, 3, 4] {
                let ctx = format!("{name}: {strategy} on {servers} servers");
                let engine = QueryEngine::new(
                    Arc::clone(&odms),
                    EngineConfig { strategy, num_servers: servers, ..Default::default() },
                );
                let (out, explain) = engine.explain(query).unwrap();
                assert_eq!(out.selection, reference.selection, "{ctx}");
                assert_eq!(engine.run(query).unwrap().selection, reference.selection, "{ctx}");
                let band: Vec<_> =
                    explain.regions.iter().filter(|r| r.op == OpKind::SortedRange).collect();
                // PDC-A's cost model prefers the band on every case here,
                // so both strategies take the band lane and the client's
                // word-OR merge.
                assert!(explain.sorted_primary, "{ctx}: the band answers the primary");
                assert!(band.iter().all(|r| r.object == obj), "{ctx}: band rows are the primary's");
                if *single {
                    let hits: u64 = band.iter().map(|r| r.actual_hits.unwrap()).sum();
                    assert_eq!(hits, out.nhits, "{ctx}: band rows must account for every hit");
                }
            }
        }
    }
}

#[test]
fn band_word_slots_and_a_sorted_edge_slot_merge_at_unchanged_charges() {
    let (n, value) = (RANK_WORLD, rank_value);
    let (odms, obj, _) = rank_world();
    // Ranks 4096..7268: sorted regions 4, 5 and 6 whole and the first 100
    // ranks of region 7, one band region per server at 4 servers. Servers
    // 0–2 ship their region's scatter as words; server 3's 100 ranks are
    // too sparse and ship as sorted runs. The band answers the root
    // conjunction's only constraint, so the client ORs the three word
    // slots and the run slot into one bitset.
    let q = PdcQuery::range_open(obj, value(4095), value(7268));
    let replica = odms.meta().sorted_replica(obj).unwrap();
    let span = replica.matching_span(&Interval::open(value(4095) as f64, value(7268) as f64));
    assert_eq!((span.start, span.len), (4096, 3172));
    let perm = replica.perm();
    for r in 4..7 {
        assert!(scatters_to_words(&perm[r * 1024..(r + 1) * 1024]), "region {r} ships words");
    }
    assert!(!scatters_to_words(&perm[7168..7268]), "the edge slot ships runs");
    let expect: Vec<u64> =
        (0..n as u64).filter(|&i| (4096..7268).contains(&((i as usize * 7919) % n))).collect();
    let reference = QueryEngine::new(
        Arc::clone(&odms),
        EngineConfig { strategy: Strategy::FullScan, num_servers: 4, ..Default::default() },
    )
    .run(&q)
    .unwrap();
    assert_eq!(reference.selection.iter_coords().collect::<Vec<_>>(), expect);
    for strategy in [Strategy::SortedHistogram, Strategy::Adaptive] {
        let engine = QueryEngine::new(
            Arc::clone(&odms),
            EngineConfig { strategy, num_servers: 4, ..Default::default() },
        );
        let out = engine.run(&q).unwrap();
        assert!(out.sorted_hint.is_some(), "{strategy}: the band must answer");
        assert_eq!(out.selection, reference.selection, "{strategy}");
        // Simulated charges recorded from the parent of the word-shipping
        // merge, where every slot decoded its runs before returning them:
        // the return transfer is still charged by the decoded runs.
        let per_server: Vec<u64> = out.per_server.iter().map(|d| d.as_nanos()).collect();
        assert_eq!(out.elapsed.as_nanos(), 2_962_513, "{strategy}: elapsed");
        assert_eq!(per_server, [2_839_063, 2_839_063, 2_839_063, 2_836_660], "{strategy}");
    }
}
