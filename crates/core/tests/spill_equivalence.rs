//! The tentpole invariant of the out-of-core region store: spilling
//! sealed regions to block-compressed disk files under a memory budget
//! is a pure **physical** change. Every query outcome — selection,
//! counters, per-lane cost breakdown, per-server simulated times,
//! integrity reports — must be bit-identical with spill on or off, for
//! all five strategies, under seeded server faults, under at-rest
//! corruption, and across streaming appends. The simulated machine
//! never learns where the bytes physically live.

use pdc_odms::{ImportOptions, Odms};
use pdc_query::{
    Arrival, EngineConfig, PdcQuery, QueryEngine, QueryOutcome, ServiceConfig, ServiceReport,
    Strategy, TenantSpec,
};
use pdc_server::{CorruptionSpec, FaultPlan};
use pdc_storage::SimDuration;
use pdc_types::{NdRegion, ObjectId, QueryOp, TypedVec};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Memory budget used by the bounded engines: far below the dataset so
/// demotions are guaranteed, comfortably above any single region.
const BUDGET: u64 = 96 * 1024;

struct TestWorld {
    odms: Arc<Odms>,
    energy: ObjectId,
    x: ObjectId,
    raw_energy: Vec<f32>,
}

fn energy_at(i: usize) -> f32 {
    let base = ((i as f32 * 0.37).sin() + 1.0) * 0.9;
    if (3000..3400).contains(&(i % 8000)) {
        2.0 + ((i * 31) % 160) as f32 / 100.0
    } else {
        base
    }
}

/// [`energy_at`] with NaN at every 9th element and in all of regions 2
/// and 4 (2048 floats each at 8 KiB regions).
fn nan_energy_at(i: usize) -> f32 {
    if i.is_multiple_of(9) || matches!(i / 2048, 2 | 4) {
        f32::NAN
    } else {
        energy_at(i)
    }
}

/// Same VPIC-flavoured shape the strategy-agreement suite uses. Spill
/// mutates the store physically, so A/B comparisons each build their own
/// world; generation is seed-free and exact, so two builds are
/// logically identical.
fn build_world(n: usize, region_bytes: u64) -> TestWorld {
    build_world_from(n, region_bytes, energy_at)
}

fn build_world_from(n: usize, region_bytes: u64, energy_at: fn(usize) -> f32) -> TestWorld {
    let odms = Arc::new(Odms::new(8));
    let c = odms.create_container("vpic");
    let energy: Vec<f32> = (0..n).map(energy_at).collect();
    let x: Vec<f32> = (0..n).map(|i| ((i as f32 * 0.011).cos() + 1.0) * 166.0).collect();
    let opts = ImportOptions {
        region_bytes,
        build_index: true,
        build_sorted: true,
        ..Default::default()
    };
    let e = odms.import_array(c, "energy", TypedVec::Float(energy.clone()), &opts).unwrap().object;
    let xo = odms.import_array(c, "x", TypedVec::Float(x), &opts).unwrap().object;
    TestWorld { odms, energy: e, x: xo, raw_energy: energy }
}

fn spill_dir(tag: &str) -> PathBuf {
    let thread = std::thread::current()
        .name()
        .unwrap_or("t")
        .replace(|c: char| !c.is_ascii_alphanumeric(), "_");
    std::env::temp_dir().join(format!("pdc_spilleq_{tag}_{}_{thread}", std::process::id()))
}

fn unbounded_engine(world: &TestWorld, strategy: Strategy, plan: Option<FaultPlan>) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(&world.odms),
        EngineConfig { strategy, num_servers: 4, fault_plan: plan, ..Default::default() },
    )
}

fn bounded_engine(
    world: &TestWorld,
    strategy: Strategy,
    plan: Option<FaultPlan>,
    dir: &Path,
    block_cache_bytes: u64,
) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(&world.odms),
        EngineConfig {
            strategy,
            num_servers: 4,
            fault_plan: plan,
            memory_budget: Some(BUDGET),
            spill_dir: Some(dir.to_path_buf()),
            block_cache_bytes,
            ..Default::default()
        },
    )
}

/// The same evaluator-coverage series the batch suite runs: repeats,
/// shifted ranges, a conjunction (candidate point checks), a
/// disjunction, and a spatial constraint.
fn series(world: &TestWorld) -> Vec<PdcQuery> {
    vec![
        PdcQuery::range_open(world.energy, 2.1f32, 2.2f32),
        PdcQuery::range_open(world.energy, 2.1f32, 2.2f32),
        PdcQuery::range_open(world.energy, 2.15f32, 2.3f32),
        PdcQuery::create(world.energy, QueryOp::Gt, 2.0f32)
            .and(PdcQuery::range_open(world.x, 100.0f32, 200.0f32)),
        PdcQuery::create(world.energy, QueryOp::Lt, 0.1f32)
            .or(PdcQuery::create(world.energy, QueryOp::Gt, 3.0f32)),
        PdcQuery::range_open(world.energy, 2.1f32, 2.2f32)
            .set_region(NdRegion::one_d(5_000, 9_000)),
    ]
}

/// Field-by-field equality of two outcomes (everything simulated).
fn assert_outcomes_identical(a: &QueryOutcome, b: &QueryOutcome, ctx: &str) {
    assert_eq!(a.nhits, b.nhits, "{ctx}: nhits");
    assert_eq!(a.selection, b.selection, "{ctx}: selection");
    assert_eq!(a.elapsed, b.elapsed, "{ctx}: elapsed");
    assert_eq!(a.per_server, b.per_server, "{ctx}: per-server times");
    assert_eq!(a.io, b.io, "{ctx}: io counters");
    assert_eq!(a.work, b.work, "{ctx}: work counters");
    assert_eq!(a.breakdown, b.breakdown, "{ctx}: cost breakdown");
    let hint = |o: &QueryOutcome| o.sorted_hint.as_ref().map(|h| (h.object, h.span));
    assert_eq!(hint(a), hint(b), "{ctx}: sorted hint");
    assert_eq!(a.failed_servers, b.failed_servers, "{ctx}: failed servers");
    assert_eq!(a.retry_rounds, b.retry_rounds, "{ctx}: retry rounds");
    assert_eq!(a.integrity, b.integrity, "{ctx}: integrity counters");
}

/// The bounded world must actually spill and must honour its budget —
/// otherwise the equivalence assertions are vacuous.
fn assert_spill_engaged(world: &TestWorld, ctx: &str) {
    let stats = world.odms.store().spill_stats().expect("spill configured");
    assert!(stats.demotions > 0, "{ctx}: no region was ever demoted: {stats:?}");
    assert!(stats.spilled_regions > 0, "{ctx}: nothing is spilled after the run: {stats:?}");
    assert!(
        stats.resident_high_water <= BUDGET,
        "{ctx}: settled resident high-water {} exceeds budget {BUDGET}",
        stats.resident_high_water
    );
    assert!(stats.resident_bytes <= BUDGET, "{ctx}: resident {} over budget", stats.resident_bytes);
}

/// Run the series on an unbounded world and on a budgeted world and
/// demand bit-identical per-query outcomes.
fn check_equivalence(
    n: usize,
    strategy: Strategy,
    plan: Option<FaultPlan>,
    tag: &str,
    block_cache_bytes: u64,
) {
    let world_a = build_world(n, 8192);
    let world_b = build_world(n, 8192);
    let dir = spill_dir(tag);
    let qs = series(&world_a);

    let unbounded = unbounded_engine(&world_a, strategy, plan.clone());
    let base: Vec<QueryOutcome> = qs.iter().map(|q| unbounded.run(q).unwrap()).collect();

    let bounded = bounded_engine(&world_b, strategy, plan, &dir, block_cache_bytes);
    for (i, q) in series(&world_b).iter().enumerate() {
        let out = bounded.run(q).unwrap();
        assert_outcomes_identical(&base[i], &out, &format!("{strategy}, query {i}"));
    }
    assert_spill_engaged(&world_b, &format!("{strategy}"));
    drop(bounded);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spill_matches_unbounded_all_strategies() {
    // PDC-A included: the per-region planner's band decisions must also
    // be residency-blind.
    for strategy in Strategy::ALL {
        check_equivalence(40_000, strategy, None, "clean", 32 << 20);
    }
}

#[test]
fn spill_matches_unbounded_on_nan_data() {
    // NaN payloads survive the block codec bit for bit, and a NaN element
    // satisfies no predicate wherever its region lives.
    for strategy in Strategy::ALL {
        let world_a = build_world_from(30_000, 8192, nan_energy_at);
        let world_b = build_world_from(30_000, 8192, nan_energy_at);
        let dir = spill_dir("nan");
        let unbounded = unbounded_engine(&world_a, strategy, None);
        let base: Vec<QueryOutcome> =
            series(&world_a).iter().map(|q| unbounded.run(q).unwrap()).collect();
        let bounded = bounded_engine(&world_b, strategy, None, &dir, 32 << 20);
        for (i, q) in series(&world_b).iter().enumerate() {
            let out = bounded.run(q).unwrap();
            assert_outcomes_identical(
                &base[i],
                &out,
                &format!("{strategy} on NaN data, query {i}"),
            );
            assert!(
                out.selection.iter_coords().all(|c| !world_b.raw_energy[c as usize].is_nan()),
                "{strategy}, query {i}: a NaN element matched"
            );
        }
        assert_spill_engaged(&world_b, &format!("{strategy} on NaN data"));
        drop(bounded);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn spill_matches_unbounded_with_tiny_block_cache() {
    // A block cache far smaller than the spilled set forces evictions on
    // every scan; decisions stay bit-identical because the cache is a
    // host-side artifact the simulated machine never observes.
    for strategy in [Strategy::FullScan, Strategy::HistogramIndex] {
        check_equivalence(40_000, strategy, None, "tinycache", 16 * 1024);
    }
}

#[test]
fn spill_matches_unbounded_under_seeded_faults() {
    for (i, strategy) in [Strategy::Histogram, Strategy::SortedHistogram, Strategy::Adaptive]
        .into_iter()
        .enumerate()
    {
        let plan = FaultPlan::seeded(0xFA11 + i as u64, 4);
        check_equivalence(30_000, strategy, Some(plan), "faults", 32 << 20);
    }
}

#[test]
fn spill_matches_unbounded_under_corruption() {
    for strategy in Strategy::ALL {
        let plan = FaultPlan::new().with_corruption(CorruptionSpec::new(0.2, 0.2, 0xBAD5EED));
        let world_a = build_world(25_000, 8192);
        let world_b = build_world(25_000, 8192);
        let dir = spill_dir("corrupt");
        let qs = series(&world_a);

        let unbounded = unbounded_engine(&world_a, strategy, Some(plan.clone()));
        let base: Vec<QueryOutcome> = qs.iter().map(|q| unbounded.run(q).unwrap()).collect();
        assert!(
            base.iter().any(|o| o.integrity.any()),
            "{strategy}: the corruption spec must actually damage something"
        );

        let bounded = bounded_engine(&world_b, strategy, Some(plan), &dir, 32 << 20);
        for (i, q) in series(&world_b).iter().enumerate() {
            let out = bounded.run(q).unwrap();
            assert_outcomes_identical(&base[i], &out, &format!("{strategy} + corruption, query {i}"));
        }
        assert_spill_engaged(&world_b, &format!("{strategy} + corruption"));
        drop(bounded);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `queries` as one client's closed series: one tenant, every arrival
/// at t = 0, served in submission order.
fn serve_closed(eng: &QueryEngine, queries: &[PdcQuery]) -> ServiceReport {
    let cfg = ServiceConfig::new(vec![TenantSpec::new("client", 1, SimDuration::MAX, 0)]);
    let arrivals: Vec<Arrival> = queries
        .iter()
        .map(|q| Arrival { at: SimDuration::ZERO, tenant: "client".into(), query: q.clone() })
        .collect();
    eng.serve(&cfg, &arrivals).unwrap()
}

#[test]
fn spill_batch_matches_unbounded_sequential() {
    // A closed series through `serve` over a spilled store: its
    // per-query outcomes must match a sequential unbounded run exactly.
    for strategy in [Strategy::Histogram, Strategy::HistogramIndex, Strategy::Adaptive] {
        let world_a = build_world(40_000, 8192);
        let world_b = build_world(40_000, 8192);
        let dir = spill_dir("batch");
        let qs = series(&world_a);

        let unbounded = unbounded_engine(&world_a, strategy, None);
        let base: Vec<QueryOutcome> = qs.iter().map(|q| unbounded.run(q).unwrap()).collect();

        let bounded = bounded_engine(&world_b, strategy, None, &dir, 32 << 20);
        let batch = serve_closed(&bounded, &series(&world_b));
        assert_eq!(batch.served.len(), base.len());
        for (i, (a, b)) in base.iter().zip(&batch.served).enumerate() {
            assert_outcomes_identical(a, &b.outcome, &format!("{strategy} batch, query {i}"));
        }
        assert_spill_engaged(&world_b, &format!("{strategy} batch"));
        drop(bounded);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn spill_matches_unbounded_across_streaming_appends() {
    // Interleave queries with streaming appends: appends land in the
    // unsealed tail (never demoted), sealing by growth triggers fresh
    // demotions, and every engine plans against its metadata snapshot.
    let n = 24_000;
    let world_a = build_world(n, 8192);
    let world_b = build_world(n, 8192);
    let dir = spill_dir("append");

    let unbounded = unbounded_engine(&world_a, Strategy::Histogram, None);
    let bounded = bounded_engine(&world_b, Strategy::Histogram, None, &dir, 32 << 20);

    let mut next = n;
    for round in 0..3 {
        let delta: Vec<f32> = (next..next + 6_000).map(energy_at).collect();
        next += 6_000;
        world_a.odms.append_array(world_a.energy, &TypedVec::Float(delta.clone())).unwrap();
        world_b.odms.append_array(world_b.energy, &TypedVec::Float(delta)).unwrap();

        for (i, (qa, qb)) in
            [PdcQuery::range_open(world_a.energy, 2.1f32, 2.2f32),
             PdcQuery::create(world_a.energy, QueryOp::Gt, 3.0f32)]
            .iter()
            .zip(&[
                PdcQuery::range_open(world_b.energy, 2.1f32, 2.2f32),
                PdcQuery::create(world_b.energy, QueryOp::Gt, 3.0f32),
            ])
            .enumerate()
        {
            let a = unbounded.run(qa).unwrap();
            let b = bounded.run(qb).unwrap();
            assert_outcomes_identical(&a, &b, &format!("append round {round}, query {i}"));
        }
    }
    assert_spill_engaged(&world_b, "streaming appends");
    drop(bounded);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupt **spilled** bitmap-index region must take the same road as
/// a corrupt resident one: the probe detects the damage, answers by the
/// verified exact scan, rebuilds the index in place (charging
/// `aux_rebuilds`), and the repair sticks — with outcomes bit-identical
/// to an unbounded world corrupted at the same site.
#[test]
fn corrupt_spilled_index_region_rebuilds_identically() {
    let world_a = build_world(30_000, 8192);
    let world_b = build_world(30_000, 8192);
    let dir = spill_dir("auxrebuild");

    let unbounded = unbounded_engine(&world_a, Strategy::HistogramIndex, None);
    let bounded = bounded_engine(&world_b, Strategy::HistogramIndex, None, &dir, 32 << 20);

    // Pick an index region the budgeted store actually spilled, and
    // corrupt the same site in both worlds.
    let idx_obj = world_b.odms.meta().get(world_b.energy).unwrap().index_object.unwrap();
    let victim = (0..64)
        .map(|r| pdc_types::RegionId::new(idx_obj, r))
        .find(|rid| world_b.odms.store().is_spilled(*rid))
        .expect("a spilled index region under a 96 KiB budget");
    assert!(world_b.odms.store().corrupt(victim, 0xD1CE).unwrap());
    assert!(world_a.odms.store().corrupt(victim, 0xD1CE).unwrap());

    // Match-everything query: every region is a candidate, so the probe
    // must visit the corrupted index.
    let q = PdcQuery::create(world_a.energy, QueryOp::Gt, -1.0e9f32);
    let a = unbounded.run(&q).unwrap();
    let b = bounded.run(&q).unwrap();
    assert_outcomes_identical(&a, &b, "spilled index rebuild");
    assert!(b.integrity.aux_rebuilds >= 1, "probe must rebuild the corrupt index: {:?}", b.integrity);
    assert_eq!(a.nhits, world_a.raw_energy.len() as u64);

    // The rebuild is durable: a second pass probes cleanly.
    let b2 = bounded.run(&q).unwrap();
    assert_eq!(b2.integrity.aux_rebuilds, 0, "rebuilt index must persist: {:?}", b2.integrity);
    assert_eq!(b2.nhits, a.nhits);

    assert_spill_engaged(&world_b, "spilled index rebuild");
    drop(bounded);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spilled data region corrupted at rest — with no fault plan, so no
/// preflight sweep repairs it first — must be found by the read path
/// itself, on every path that reads region data: whole scans, point
/// checks, index-probe candidate checks and the `get_data` gather. The
/// first read that misses on it quarantines it, repairs it from its
/// pristine copy and charges the repair as the unbounded world charges a
/// corrupt resident region; a read that hits its cold cache slot repairs
/// it host-side, as the unbounded world's hot slot never sees the damage.
/// Outcomes and gathered data are identical to the unbounded world's.
#[test]
fn corrupt_spilled_data_region_repairs_on_every_read_path() {
    for strategy in Strategy::ALL {
        let world_a = build_world(30_000, 8192);
        let world_b = build_world(30_000, 8192);
        let dir = spill_dir("corruptread");
        let mut unbounded = unbounded_engine(&world_a, strategy, None);
        let mut bounded = bounded_engine(&world_b, strategy, None, &dir, 32 << 20);
        let victim = pdc_types::RegionId::new(world_b.energy, 0);
        assert!(world_b.odms.store().is_spilled(victim), "{strategy}: the victim must be spilled");
        let (e, x) = (world_a.energy, world_a.x);
        let queries = [
            // Whole scans (PDC-F/H); PDC-HI answers region 0 from the
            // index alone and reads it in the gather.
            PdcQuery::range_open(e, 0.5f32, 0.6f32),
            // Off the bin edges: probe candidate checks (PDC-HI).
            PdcQuery::range_open(e, 0.513f32, 0.587f32),
            // `x` near its maximum is the more selective constraint, so
            // the broad `energy` interval is point-checked in region 0.
            PdcQuery::range_open(x, 331.0f32, 333.0f32)
                .and(PdcQuery::range_open(e, 0.01f32, 1.7f32)),
            // And the other way round.
            PdcQuery::range_open(e, 0.5f32, 0.52f32)
                .and(PdcQuery::range_open(x, 1.0f32, 330.0f32)),
        ];
        let mut repaired = 0;
        for (i, q) in queries.iter().enumerate() {
            // "miss": fresh engines, so fresh server caches; "hit": the
            // region sits in the caches the previous run left.
            if i > 0 {
                unbounded = unbounded_engine(&world_a, strategy, None);
                bounded = bounded_engine(&world_b, strategy, None, &dir, 32 << 20);
            }
            for phase in ["miss", "hit"] {
                let seed = 0xC0DE + i as u64;
                assert!(world_a.odms.store().corrupt(victim, seed).unwrap());
                assert!(world_b.odms.store().corrupt(victim, seed).unwrap());
                let ctx = format!("{strategy}, query {i}, {phase}");
                let a = unbounded.run(q).unwrap();
                let b = bounded.run(q).unwrap();
                assert_outcomes_identical(&a, &b, &ctx);
                repaired += b.integrity.repaired_regions;
                let ga = unbounded.get_data(&a, world_a.energy).unwrap();
                let gb = bounded.get_data(&b, world_b.energy).unwrap();
                assert_eq!(ga.data, gb.data, "{ctx}: gathered data");
                assert_eq!(ga.elapsed, gb.elapsed, "{ctx}: get_data elapsed");
                assert_eq!(ga.io, gb.io, "{ctx}: get_data io");
                assert_eq!(ga.bytes_transferred, gb.bytes_transferred, "{ctx}: get_data bytes");
                assert_eq!(ga.servers_involved, gb.servers_involved, "{ctx}: get_data servers");
                let naive =
                    b.selection.iter_coords().map(|c| world_b.raw_energy[c as usize] as f64);
                assert!(gb.data.iter_f64().eq(naive), "{ctx}: gathered values are the data");
            }
        }
        if strategy != Strategy::SortedHistogram {
            assert!(repaired > 0, "{strategy}: a query must have read the corrupt region");
        }
        assert_spill_engaged(&world_b, &format!("{strategy} + corrupt spilled region"));
        drop(bounded);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Candidate scans read a spilled region one block at a time and keep
/// the decoded block across consecutive candidate runs. Regions of 1 MiB
/// hold four 64 Ki-element blocks; both variables match in bands that
/// straddle every block boundary (and in short bands inside blocks), so
/// whichever constraint the planner evaluates first, the other one's
/// candidate runs cross from one block into the next. A block cache of
/// exactly one block makes every such crossing evict the block just
/// left.
#[test]
fn candidate_runs_straddling_blocks_match_unbounded() {
    const BLOCK: usize = 64 * 1024; // pdc-blockstore's DEFAULT_BLOCK_ELEMS, checked below
    const REGION_BYTES: u64 = 1 << 20;
    const N: usize = 3 * (REGION_BYTES as usize / 4) + 10_000; // 3 full regions + a tail
    // `a` matches 600 elements around every block boundary and 40 of
    // every 5 000 elsewhere; `b` matches 2 000 around every boundary and
    // follows a slow cosine elsewhere.
    let a_at = |i: usize| {
        let near_boundary = (i + 300) % BLOCK < 600;
        if near_boundary || i % 5000 < 40 { 1.0f32 } else { 0.0 }
    };
    let b_at = |i: usize| {
        if (i + 1000) % BLOCK < 2000 { 150.0f32 } else { ((i as f32 * 0.011).cos() + 1.0) * 166.0 }
    };
    let build = || {
        let odms = Arc::new(Odms::new(8));
        let c = odms.create_container("straddle");
        let opts = ImportOptions {
            region_bytes: REGION_BYTES,
            build_index: true,
            build_sorted: true,
            ..Default::default()
        };
        let a = TypedVec::Float((0..N).map(a_at).collect());
        let b = TypedVec::Float((0..N).map(b_at).collect());
        let a = odms.import_array(c, "a", a, &opts).unwrap().object;
        let b = odms.import_array(c, "b", b, &opts).unwrap().object;
        (odms, a, b)
    };
    let query = |a: ObjectId, b: ObjectId| {
        PdcQuery::create(a, QueryOp::Gt, 0.5f32).and(PdcQuery::range_open(b, 100.0f32, 200.0f32))
    };
    let expect: Vec<u64> = (0..N)
        .filter(|&i| a_at(i) > 0.5 && b_at(i) > 100.0 && b_at(i) < 200.0)
        .map(|i| i as u64)
        .collect();
    assert!(
        (1..N / BLOCK).all(|k| expect.contains(&((k * BLOCK) as u64 - 1))
            && expect.contains(&((k * BLOCK) as u64))),
        "hits must sit on both sides of every block boundary"
    );

    let budget = 3 * REGION_BYTES / 2;
    for strategy in [Strategy::FullScan, Strategy::Histogram, Strategy::Adaptive] {
        let (odms_a, a, b) = build();
        let unbounded = QueryEngine::new(
            Arc::clone(&odms_a),
            EngineConfig { strategy, num_servers: 4, ..Default::default() },
        );
        // Two passes: the second meets warm server caches and, in the
        // bounded world, whatever the first left in the one-block cache.
        let base = [unbounded.run(&query(a, b)).unwrap(), unbounded.run(&query(a, b)).unwrap()];
        assert_eq!(base[0].selection.iter_coords().collect::<Vec<_>>(), expect, "{strategy}");

        let (odms_b, a, b) = build();
        let dir = spill_dir("straddle");
        let bounded = QueryEngine::new(
            Arc::clone(&odms_b),
            EngineConfig {
                strategy,
                num_servers: 4,
                memory_budget: Some(budget),
                spill_dir: Some(dir.clone()),
                block_cache_bytes: (BLOCK * 4) as u64,
                ..Default::default()
            },
        );
        for (pass, want) in base.iter().enumerate() {
            let out = bounded.run(&query(a, b)).unwrap();
            assert_outcomes_identical(want, &out, &format!("{strategy} straddle, pass {pass}"));
        }
        let stats = odms_b.store().spill_stats().expect("spill configured");
        assert!(stats.spilled_regions > 0 && stats.resident_bytes <= budget, "{strategy}: {stats:?}");
        let cold = (0..3)
            .find_map(|r| odms_b.store().cold_region(pdc_types::RegionId::new(a, r)))
            .expect("a full data region of `a` is spilled");
        assert_eq!((cold.n_blocks(), cold.block_span(0).1 as usize), (4, BLOCK), "{strategy}");
        assert!(
            stats.block_cache.evictions > 0,
            "{strategy}: a one-block cache must evict while scans cross blocks: {stats:?}"
        );
        drop(bounded);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Sanity anchor: the budgeted engine doesn't just agree with the
/// unbounded one — both agree with a naive filter over the raw data.
#[test]
fn spill_results_match_naive_filter() {
    let world = build_world(30_000, 8192);
    let dir = spill_dir("naive");
    let expect: Vec<u64> = (0..world.raw_energy.len() as u64)
        .filter(|&i| {
            let v = world.raw_energy[i as usize];
            v > 2.1 && v < 2.2
        })
        .collect();
    assert!(!expect.is_empty());
    for strategy in Strategy::ALL {
        let eng = bounded_engine(&world, strategy, None, &dir, 32 << 20);
        let out = eng.run(&PdcQuery::range_open(world.energy, 2.1f32, 2.2f32)).unwrap();
        assert_eq!(out.selection.iter_coords().collect::<Vec<_>>(), expect, "{strategy}");
        assert_eq!(out.nhits, expect.len() as u64);
    }
    assert_spill_engaged(&world, "naive anchor");
    let _ = std::fs::remove_dir_all(&dir);
}
