//! The tentpole invariant of the concurrent query-series engine:
//! [`QueryEngine::run_batch`] is a pure **host-side** optimization.
//! Every per-query outcome — selection, counters, per-lane cost
//! breakdown, per-server times, fault and integrity reports — must be
//! bit-identical to running the same series sequentially through
//! [`QueryEngine::run`] on an identically-configured engine, for all
//! five strategies, with and without injected faults and corruption.
//! Plus: the epoch-based invalidation of the plan and artifact caches
//! after aux rebuilds and region migrations.

use pdc_odms::{ImportOptions, Odms};
use pdc_query::{EngineConfig, PdcQuery, QueryEngine, QueryOutcome, Strategy};
use pdc_server::{CorruptionSpec, FaultPlan};
use pdc_storage::StorageTier;
use pdc_types::{Interval, NdRegion, ObjectId, QueryOp, RegionId, TypedVec};
use std::sync::Arc;

struct TestWorld {
    odms: Arc<Odms>,
    energy: ObjectId,
    x: ObjectId,
    raw_energy: Vec<f32>,
}

/// Same VPIC-flavoured shape the strategy-agreement suite uses: a smooth
/// bulk plus clustered high-energy tails, so histogram pruning, index
/// candidate checks, and the sorted replica all get exercised.
fn build_world(n: usize, region_bytes: u64) -> TestWorld {
    let odms = Arc::new(Odms::new(8));
    let c = odms.create_container("vpic");
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
        region_bytes,
        build_index: true,
        build_sorted: true,
        ..Default::default()
    };
    let e = odms.import_array(c, "energy", TypedVec::Float(energy.clone()), &opts).unwrap().object;
    let xo = odms.import_array(c, "x", TypedVec::Float(x), &opts).unwrap().object;
    TestWorld { odms, energy: e, x: xo, raw_energy: energy }
}

fn engine_with(world: &TestWorld, strategy: Strategy, plan: Option<FaultPlan>) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(&world.odms),
        EngineConfig { strategy, num_servers: 4, fault_plan: plan, ..Default::default() },
    )
}

/// An overlapping query series: repeats, shifted ranges, a multi-object
/// conjunction (candidate point checks), a disjunction, and a spatial
/// constraint — every evaluator code path.
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

/// Run the series sequentially on one engine and batched on another
/// (identical config) and demand bit-identical per-query outcomes plus
/// the makespan bound.
fn check_equivalence(world: &TestWorld, strategy: Strategy, plan: Option<FaultPlan>) {
    let qs = series(world);
    let sequential = engine_with(world, strategy, plan.clone());
    let seq: Vec<QueryOutcome> = qs.iter().map(|q| sequential.run(q).unwrap()).collect();

    let batched = engine_with(world, strategy, plan);
    let batch = batched.run_batch(&qs).unwrap();

    assert_eq!(batch.outcomes.len(), seq.len());
    for (i, (a, b)) in seq.iter().zip(&batch.outcomes).enumerate() {
        assert_outcomes_identical(a, b, &format!("{strategy}, query {i}"));
    }
    let total: pdc_storage::SimDuration = seq.iter().map(|o| o.elapsed).sum();
    assert!(
        batch.batch_elapsed <= total,
        "{strategy}: batch makespan {} must not exceed sequential total {}",
        batch.batch_elapsed,
        total
    );
    assert!(batch.batch_elapsed > pdc_storage::SimDuration::ZERO, "{strategy}");
    assert_eq!(batch.stats.queries, qs.len() as u64);
}

#[test]
fn batch_matches_sequential_all_strategies() {
    let world = build_world(40_000, 8192);
    for strategy in Strategy::ALL {
        check_equivalence(&world, strategy, None);
    }
}

#[test]
fn batch_caches_actually_engage() {
    let world = build_world(40_000, 8192);
    let eng = engine_with(&world, Strategy::Histogram, None);
    let batch = eng.run_batch(&series(&world)).unwrap();
    let s = &batch.stats;
    assert!(s.plan_hits > 0, "repeated queries must hit the plan cache: {s:?}");
    assert!(s.artifact_hits > 0, "overlapping queries must hit the artifact cache: {s:?}");
    assert!(s.prewarm_regions > 0, "the prewarm pass must load regions: {s:?}");
    assert!(
        s.resident_reads > 0,
        "later queries must be served from resident regions: {s:?}"
    );
    assert!(s.artifact_hit_ratio() > 0.0 && s.artifact_hit_ratio() <= 1.0);
}

#[test]
fn batch_matches_sequential_under_server_kills() {
    let world = build_world(30_000, 8192);
    for strategy in Strategy::ALL {
        let plan = FaultPlan::kill_count(1, 4, 0xFA11);
        check_equivalence(&world, strategy, Some(plan));
    }
}

#[test]
fn batch_matches_sequential_under_seeded_fault_plan() {
    let world = build_world(30_000, 8192);
    for strategy in [Strategy::Histogram, Strategy::HistogramIndex] {
        let plan = FaultPlan::seeded(7, 4);
        check_equivalence(&world, strategy, Some(plan));
    }
}

#[test]
fn batch_matches_sequential_under_corruption() {
    // Corruption mutates the store, so each engine gets its own
    // deterministically-built world; generation is seed-free and exact.
    for strategy in Strategy::ALL {
        let plan =
            FaultPlan::new().with_corruption(CorruptionSpec::new(0.15, 0.15, 0xC0FFEE));
        let world_a = build_world(25_000, 8192);
        let world_b = build_world(25_000, 8192);
        let qs = series(&world_a);

        let sequential = engine_with(&world_a, strategy, Some(plan.clone()));
        let seq: Vec<QueryOutcome> = qs.iter().map(|q| sequential.run(q).unwrap()).collect();
        assert!(
            seq.iter().any(|o| o.integrity.any()),
            "{strategy}: the corruption spec must actually damage something"
        );

        let batched = engine_with(&world_b, strategy, Some(plan));
        let batch = batched.run_batch(&series(&world_b)).unwrap();
        for (i, (a, b)) in seq.iter().zip(&batch.outcomes).enumerate() {
            assert_outcomes_identical(a, b, &format!("{strategy} + corruption, query {i}"));
        }
    }
}

#[test]
fn single_query_batch_matches_run() {
    let world = build_world(20_000, 8192);
    let q = PdcQuery::range_open(world.energy, 2.1f32, 2.2f32);
    let a = engine_with(&world, Strategy::Histogram, None).run(&q).unwrap();
    let batch =
        engine_with(&world, Strategy::Histogram, None).run_batch(std::slice::from_ref(&q)).unwrap();
    assert_outcomes_identical(&a, &batch.outcomes[0], "singleton batch");
    assert!(batch.batch_elapsed <= a.elapsed);
}

#[test]
fn empty_batch_is_typed_error() {
    let world = build_world(10_000, 8192);
    let eng = engine_with(&world, Strategy::Histogram, None);
    match eng.run_batch(&[]) {
        Err(pdc_types::PdcError::InvalidQuery(msg)) => {
            assert!(msg.contains("empty batch"), "diagnostic should name the cause: {msg}")
        }
        other => panic!("empty batch must be a typed InvalidQuery error, got {other:?}"),
    }
}

#[test]
fn duplicate_query_batch_matches_sequential_run() {
    // The same query three times over: every copy must produce the
    // bit-identical outcome (the artifact caches replay exact charges),
    // and the shared-scan group admits its predicates exactly once.
    let world = build_world(20_000, 8192);
    let q = PdcQuery::range_open(world.energy, 2.1f32, 2.2f32);
    let queries = vec![q.clone(), q.clone(), q];

    let seq_eng = engine_with(&world, Strategy::Histogram, None);
    let solo: Vec<QueryOutcome> =
        queries.iter().map(|q| seq_eng.run(q).unwrap()).collect();

    let eng = engine_with(&world, Strategy::Histogram, None);
    let batch = eng.run_batch(&queries).unwrap();
    assert_eq!(batch.stats.queries, 3);
    for (i, (a, b)) in solo.iter().zip(batch.outcomes.iter()).enumerate() {
        assert_outcomes_identical(a, b, &format!("duplicate batch member {i}"));
    }
}

/// The dedicated cache-invalidation regression test: poison one region
/// histogram so its prune verdict (wrongly) reports "no hits", cache
/// that verdict through a batch, then rebuild the histogram via the
/// epoch-bumping ODMS path. The next batch MUST drop the stale verdict
/// and recover the region's hits — if epoch invalidation ever breaks,
/// the cached prune verdict survives and this test fails.
#[test]
fn prune_and_plan_caches_invalidate_after_rebuild() {
    let world = build_world(40_000, 8192);
    let meta = world.odms.meta().get(world.energy).unwrap();
    let region_elems = meta.region_span(0).len;

    let iv = Interval::open(2.1, 2.2);
    let expect: Vec<u64> = (0..world.raw_energy.len() as u64)
        .filter(|&i| iv.contains(world.raw_energy[i as usize] as f64))
        .collect();
    assert!(!expect.is_empty());
    // A region that holds hits, whose histogram we poison.
    let poisoned_region = (expect[0] / region_elems) as u32;

    // Histogram built over far-away values: estimates zero hits in the
    // queried interval, so the evaluator prunes the region.
    let bogus = pdc_histogram::Histogram::build(
        &vec![1000.0; region_elems as usize],
        &pdc_histogram::HistogramConfig::default(),
    )
    .unwrap();
    world
        .odms
        .meta()
        .replace_region_histogram(world.energy, poisoned_region, bogus)
        .unwrap();

    let eng = engine_with(&world, Strategy::Histogram, None);
    let q = PdcQuery::range_open(world.energy, 2.1f32, 2.2f32);
    let poisoned = eng.run_batch(&[q.clone(), q.clone()]).unwrap();
    assert!(
        poisoned.outcomes[0].nhits < expect.len() as u64,
        "the poisoned histogram must suppress some hits for this test to mean anything"
    );
    assert_eq!(poisoned.outcomes[0].nhits, poisoned.outcomes[1].nhits);

    // Epoch-bumping rebuild restores the true histogram.
    world.odms.rebuild_region_histogram(world.energy, poisoned_region).unwrap();

    let healed = eng.run_batch(&[q.clone(), q]).unwrap();
    assert_eq!(
        healed.outcomes[0].selection.iter_coords().collect::<Vec<_>>(),
        expect,
        "stale prune verdict served after an epoch-bumping rebuild"
    );
    assert!(
        healed.stats.plan_misses > 0,
        "the epoch bump must also invalidate the plan cache: {:?}",
        healed.stats
    );
}

/// Streaming-ingest regression: a batch warms the plan, prune-verdict,
/// scan, and prewarm caches; an append then grows the primary object —
/// including filling the partial tail region whose artifacts are
/// cached. The next batch MUST NOT serve any stale artifact: a cached
/// "pruned" verdict or short scan selection for the old tail extent
/// would silently drop every hit the append introduced.
#[test]
fn caches_invalidate_after_streaming_append() {
    let world = build_world(40_000, 8192);
    let eng = engine_with(&world, Strategy::Histogram, None);
    let q = PdcQuery::range_open(world.energy, 2.1f32, 2.2f32);
    let qs = [q.clone(), q.clone()];

    let first = eng.run_batch(&qs).unwrap();
    let base_hits = first.outcomes[0].nhits;
    assert!(base_hits > 0);

    // Append a chunk that lands entirely inside the queried interval:
    // every appended element is a hit, so any stale artifact is visible
    // as a wrong count.
    let delta: Vec<f32> = (0..1_000).map(|i| 2.15 + (i % 7) as f32 * 0.001).collect();
    let report = world.odms.append_array(world.energy, &TypedVec::Float(delta)).unwrap();
    assert!(report.filled_tail.is_some(), "append must touch the cached tail region");

    let second = eng.run_batch(&qs).unwrap();
    assert_eq!(
        second.outcomes[0].nhits,
        base_hits + 1_000,
        "stale artifact served after a streaming append: {:?}",
        second.stats
    );
    assert_eq!(second.outcomes[0].nhits, second.outcomes[1].nhits);
    assert!(
        second.stats.plan_misses > 0,
        "the append's epoch bump must invalidate the plan cache: {:?}",
        second.stats
    );
    assert!(
        second.stats.artifact_misses > 0,
        "the append's epoch bump must invalidate the artifact caches: {:?}",
        second.stats
    );
    // Selection-level check against the naive filter over grown data.
    let mut raw = world.raw_energy.clone();
    raw.extend((0..1_000).map(|i| 2.15 + (i % 7) as f32 * 0.001));
    let expect: Vec<u64> = (0..raw.len() as u64)
        .filter(|&i| {
            let v = raw[i as usize] as f64;
            v > 2.1 && v < 2.2
        })
        .collect();
    assert_eq!(second.outcomes[0].selection.iter_coords().collect::<Vec<_>>(), expect);
}

#[test]
fn caches_invalidate_after_region_migration() {
    let world = build_world(30_000, 8192);
    let eng = engine_with(&world, Strategy::Histogram, None);
    let qs = series(&world);

    let first = eng.run_batch(&qs).unwrap();
    // Identical follow-up batch: everything is served from the caches.
    let second = eng.run_batch(&qs).unwrap();
    assert_eq!(second.stats.plan_misses, 0, "{:?}", second.stats);
    assert_eq!(second.stats.artifact_misses, 0, "{:?}", second.stats);
    assert_eq!(second.stats.prewarm_regions, 0, "{:?}", second.stats);
    for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
        assert_eq!(a.selection, b.selection);
    }

    // A region migration bumps the store epoch: every cache must drop.
    world
        .odms
        .migrate_region(RegionId::new(world.energy, 0), StorageTier::BurstBuffer)
        .unwrap();
    let third = eng.run_batch(&qs).unwrap();
    assert!(third.stats.plan_misses > 0, "plan cache survived a migration: {:?}", third.stats);
    assert!(
        third.stats.artifact_misses > 0,
        "artifact caches survived a migration: {:?}",
        third.stats
    );
    assert!(third.stats.prewarm_regions > 0, "{:?}", third.stats);
    for (a, b) in first.outcomes.iter().zip(&third.outcomes) {
        assert_eq!(a.selection, b.selection, "migration must never change results");
        assert_eq!(a.nhits, b.nhits);
    }
}
