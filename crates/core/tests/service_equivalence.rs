//! The tentpole invariant of the multi-tenant service loop:
//! [`QueryEngine::serve`] is **scheduling only**. Admission control,
//! weighted-fair dispatch and deferral decide *when* each query runs —
//! never *what* it computes or charges.
//! For every admitted query, the `Selection` and simulated
//! `CostBreakdown` must be bit-identical to executing the service's
//! dispatch sequence through plain [`QueryEngine::run`] on an
//! identically-configured engine (warm-cache accounting is dispatch-order
//! dependent, so the oracle replays the same order). Verified across
//! tenant mixes and interleavings, under seeded faults, 20% corruption,
//! k≥2 replication, and an out-of-core spill budget; plus a
//! deterministic-given-seed scheduler-trace test.
//!
//! A closed series is the one-tenant case: every arrival at t = 0, an
//! unbounded budget, no deferral queue. Its served outcomes must equal a
//! sequential `run()` series in submission order for all five
//! strategies, under kills, a seeded fault plan and corruption. The plan
//! cache every dispatch goes through — `run`'s as well as `serve`'s —
//! must drop plans after an aux rebuild and a streaming append, and must
//! survive a region migration, which changes neither metadata nor data.

use pdc_odms::{ImportOptions, Odms};
use pdc_query::{
    Arrival, EngineConfig, PdcQuery, QueryEngine, QueryOutcome, ServiceConfig, ServiceReport,
    Strategy, TenantSpec,
};
use pdc_server::{CorruptionSpec, FaultPlan};
use pdc_storage::{SimDuration, StorageTier};
use pdc_types::{Interval, NdRegion, ObjectId, QueryOp, RegionId, TypedVec};
use std::path::PathBuf;
use std::sync::Arc;

struct TestWorld {
    odms: Arc<Odms>,
    energy: ObjectId,
    x: ObjectId,
    raw_energy: Vec<f32>,
}

/// A smooth bulk plus clustered high-energy tails, so histogram pruning,
/// index candidate checks, and the sorted replica all get exercised.
/// Generation is seed-free and exact, so twin builds are logically
/// identical (needed for the corruption comparison, which mutates the
/// store).
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

/// The evaluator-coverage query pool: repeats, shifted ranges, a
/// conjunction, a disjunction, a spatial constraint.
fn query_pool(world: &TestWorld) -> Vec<PdcQuery> {
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

/// Three tenants with generous budgets: every arrival admits directly,
/// so the mix exercises fair dispatch without deferrals.
fn open_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("alice", 1, SimDuration::from_secs_f64(1e6), 64),
        TenantSpec::new("bob", 2, SimDuration::from_secs_f64(1e6), 64),
        TenantSpec::new("carol", 1, SimDuration::from_secs_f64(1e6), 64),
    ]
}

/// A deterministic interleaved arrival mix: the query pool dealt
/// round-robin across tenants, with a burst at t=0 and staggered tails
/// (so the loop sees simultaneous arrivals, queueing, and idle gaps).
fn mixed_arrivals(world: &TestWorld, tenants: &[TenantSpec], copies: usize) -> Vec<Arrival> {
    let pool = query_pool(world);
    let mut arrivals = Vec::new();
    for c in 0..copies {
        for (i, q) in pool.iter().enumerate() {
            let k = c * pool.len() + i;
            arrivals.push(Arrival {
                // Burst at 0, then strides of 150us with per-tenant jitter.
                at: if k < 4 {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_micros((k as u64) * 150 + (k as u64 % 3) * 37)
                },
                tenant: tenants[k % tenants.len()].name.clone(),
                query: q.clone(),
            });
        }
    }
    arrivals
}

/// The oracle: replay the service's dispatch order sequentially through
/// `run()` on a fresh engine over `oracle_world`, and demand bit-identical
/// outcomes. (`oracle_world` is the same world for healthy runs, a twin
/// build when the fault plan mutates the store.)
fn assert_replay_identical(
    report: &ServiceReport,
    arrivals: &[Arrival],
    oracle: &QueryEngine,
    ctx: &str,
) {
    for (i, s) in report.served.iter().enumerate() {
        let solo = oracle.run(&arrivals[s.arrival_index].query).unwrap();
        assert_outcomes_identical(&solo, &s.outcome, &format!("{ctx}: dispatch {i} (seq {})", s.seq));
    }
}

fn serve_and_check(world: &TestWorld, strategy: Strategy, plan: Option<FaultPlan>) {
    let tenants = open_tenants();
    let cfg = ServiceConfig::new(tenants.clone());
    let arrivals = mixed_arrivals(world, &tenants, 2);

    let eng = engine_with(world, strategy, plan.clone());
    let report = eng.serve(&cfg, &arrivals).unwrap();
    assert_eq!(report.stats.submitted, arrivals.len() as u64);
    assert_eq!(report.stats.completed, arrivals.len() as u64, "{strategy}: open budgets reject nothing");
    assert_eq!(report.stats.rejected, 0);
    assert_eq!(report.served.len(), arrivals.len());

    let oracle = engine_with(world, strategy, plan);
    assert_replay_identical(&report, &arrivals, &oracle, &format!("{strategy}"));

    // Latency sanity: completion never precedes dispatch, dispatch never
    // precedes admission, admission never precedes arrival.
    for s in &report.served {
        assert!(s.admitted_at >= s.arrival);
        assert!(s.dispatched_at >= s.admitted_at);
        assert!(s.completed_at >= s.dispatched_at);
    }
}

#[test]
fn serve_matches_dispatch_order_replay_all_strategies() {
    let world = build_world(40_000, 8192);
    for strategy in Strategy::ALL {
        serve_and_check(&world, strategy, None);
    }
}

#[test]
fn serve_matches_replay_under_seeded_faults() {
    let world = build_world(30_000, 8192);
    for strategy in [Strategy::Histogram, Strategy::HistogramIndex] {
        serve_and_check(&world, strategy, Some(FaultPlan::seeded(7, 4)));
    }
    serve_and_check(&world, Strategy::Histogram, Some(FaultPlan::kill_count(1, 4, 0xFA11)));
}

#[test]
fn serve_matches_replay_under_20pct_corruption() {
    // Corruption mutates the store, so service and oracle each get their
    // own deterministically-built twin world.
    for strategy in [Strategy::Histogram, Strategy::SortedHistogram] {
        let plan =
            FaultPlan::new().with_corruption(CorruptionSpec::new(0.2, 0.2, 0xC0FFEE));
        let world_a = build_world(25_000, 8192);
        let world_b = build_world(25_000, 8192);
        let tenants = open_tenants();
        let cfg = ServiceConfig::new(tenants.clone());
        let arrivals_a = mixed_arrivals(&world_a, &tenants, 1);
        let arrivals_b = mixed_arrivals(&world_b, &tenants, 1);

        let eng = engine_with(&world_a, strategy, Some(plan.clone()));
        let report = eng.serve(&cfg, &arrivals_a).unwrap();
        assert!(
            report.served.iter().any(|s| s.outcome.integrity.any()),
            "{strategy}: the corruption spec must actually damage something"
        );
        let oracle = engine_with(&world_b, strategy, Some(plan));
        // Replay the dispatch order against the twin world's arrivals
        // (same indices — the builds are identical).
        for (i, s) in report.served.iter().enumerate() {
            let solo = oracle.run(&arrivals_b[s.arrival_index].query).unwrap();
            assert_outcomes_identical(
                &solo,
                &s.outcome,
                &format!("{strategy} + corruption: dispatch {i}"),
            );
        }
    }
}

#[test]
fn serve_matches_replay_with_replication_and_spill() {
    fn spill_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pdc_serveeq_{tag}_{}", std::process::id()))
    }
    // Spill mutates physical residency, so service and oracle get twin
    // worlds (residency never leaks into accounting, but twin worlds
    // keep the comparison airtight).
    let world_a = build_world(30_000, 8192);
    let world_b = build_world(30_000, 8192);
    let mk = |world: &TestWorld, tag: &str| {
        QueryEngine::new(
            Arc::clone(&world.odms),
            EngineConfig {
                strategy: Strategy::Histogram,
                num_servers: 4,
                replicas: 2,
                fault_plan: Some(FaultPlan::kill_count(1, 4, 0xFA11)),
                memory_budget: Some(96 * 1024),
                spill_dir: Some(spill_dir(tag)),
                block_cache_bytes: 32 * 1024,
                ..Default::default()
            },
        )
    };
    let tenants = open_tenants();
    let cfg = ServiceConfig::new(tenants.clone());
    let arrivals_a = mixed_arrivals(&world_a, &tenants, 1);
    let arrivals_b = mixed_arrivals(&world_b, &tenants, 1);

    let eng = mk(&world_a, "svc");
    let report = eng.serve(&cfg, &arrivals_a).unwrap();
    assert_eq!(report.stats.completed, arrivals_a.len() as u64);
    let oracle = mk(&world_b, "oracle");
    for (i, s) in report.served.iter().enumerate() {
        let solo = oracle.run(&arrivals_b[s.arrival_index].query).unwrap();
        assert_outcomes_identical(&solo, &s.outcome, &format!("replication+spill: dispatch {i}"));
    }
    for tag in ["svc", "oracle"] {
        let _ = std::fs::remove_dir_all(spill_dir(tag));
    }
}

#[test]
fn scheduler_trace_is_deterministic_given_the_schedule() {
    // Two identically-configured engines over twin worlds must produce
    // the *exact same* scheduler trace for the same arrival schedule —
    // every Arrive/Admit/Dispatch/Complete event, timestamps
    // included. A different schedule must produce a different trace.
    let world_a = build_world(30_000, 8192);
    let world_b = build_world(30_000, 8192);
    let tenants = open_tenants();
    let cfg = ServiceConfig::new(tenants.clone());
    let arrivals_a = mixed_arrivals(&world_a, &tenants, 2);
    let arrivals_b = mixed_arrivals(&world_b, &tenants, 2);

    let ra = engine_with(&world_a, Strategy::Histogram, None).serve(&cfg, &arrivals_a).unwrap();
    let rb = engine_with(&world_b, Strategy::Histogram, None).serve(&cfg, &arrivals_b).unwrap();
    assert_eq!(ra.trace, rb.trace, "identical schedules must replay identical traces");
    assert!(ra.trace.windows(2).all(|w| w[0].at() <= w[1].at()), "trace must be time-ordered");

    // Perturb one arrival time: the trace must change.
    let mut arrivals_c = arrivals_b;
    let last = arrivals_c.len() - 1;
    arrivals_c[last].at += SimDuration::from_millis(50);
    let world_c = build_world(30_000, 8192);
    let arrivals_c: Vec<Arrival> = arrivals_c
        .iter()
        .enumerate()
        .map(|(i, a)| Arrival {
            at: a.at,
            tenant: a.tenant.clone(),
            query: mixed_arrivals(&world_c, &tenants, 2)[i].query.clone(),
        })
        .collect();
    let rc = engine_with(&world_c, Strategy::Histogram, None).serve(&cfg, &arrivals_c).unwrap();
    assert_ne!(ra.trace, rc.trace, "a perturbed schedule must alter the trace");
}

#[test]
fn late_identical_arrivals_replay_their_solo_runs() {
    // One early query; two identical ones arrive while the client is
    // still mid-overhead on it. They queue behind it, plan from the
    // cache the first arrival filled, and replay their solo runs.
    let world = build_world(40_000, 8192);
    let tenants = open_tenants();
    let cfg = ServiceConfig::new(tenants.clone());
    let q = PdcQuery::range_open(world.energy, 2.1f32, 2.2f32);
    let arrivals = vec![
        Arrival { at: SimDuration::ZERO, tenant: "alice".into(), query: q.clone() },
        Arrival { at: SimDuration::from_micros(1), tenant: "bob".into(), query: q.clone() },
        Arrival { at: SimDuration::from_micros(2), tenant: "carol".into(), query: q },
    ];
    let eng = engine_with(&world, Strategy::Histogram, None);
    let report = eng.serve(&cfg, &arrivals).unwrap();
    assert_eq!(report.served.len(), 3);
    assert!(report.served[1].dispatched_at > report.served[1].arrival, "the late ones queue");
    assert_eq!(report.stats.plan_misses, 1, "{:?}", report.stats);
    assert!(report.group.is_none(), "serve opens no shared-scan group");
    let oracle = engine_with(&world, Strategy::Histogram, None);
    assert_replay_identical(&report, &arrivals, &oracle, "late arrivals");
}

#[test]
fn band_answered_primaries_replay_their_solo_runs() {
    // Under PDC-SH every single-constraint arrival is answered from the
    // sorted band, and the outcomes are those of solo runs; so are those
    // of a later conjunction that point-checks a predicate an earlier
    // arrival answered from the band.
    let world = build_world(40_000, 8192);
    let tenants = open_tenants();
    let cfg = ServiceConfig::new(tenants.clone());
    let pool = [
        PdcQuery::range_open(world.energy, 2.1f32, 2.2f32),
        PdcQuery::range_open(world.energy, 2.15f32, 2.3f32),
        PdcQuery::create(world.x, QueryOp::Gt, 300.0f32),
        PdcQuery::range_open(world.energy, 2.1f32, 2.2f32),
    ];
    let arrivals: Vec<Arrival> = pool
        .iter()
        .enumerate()
        .map(|(k, q)| Arrival {
            at: SimDuration::from_micros(k as u64),
            tenant: tenants[k % tenants.len()].name.clone(),
            query: q.clone(),
        })
        .collect();
    let eng = engine_with(&world, Strategy::SortedHistogram, None);
    let report = eng.serve(&cfg, &arrivals).unwrap();
    assert_eq!(report.served.len(), pool.len());
    for s in &report.served {
        assert!(s.outcome.sorted_hint.is_some(), "seq {}: the band answers", s.seq);
    }
    let oracle = engine_with(&world, Strategy::SortedHistogram, None);
    assert_replay_identical(&report, &arrivals, &oracle, "band-only serve");

    let filter = PdcQuery::create(world.energy, QueryOp::Gt, 1.0f32);
    let conj = PdcQuery::create(world.x, QueryOp::Gt, 331.9f32).and(filter.clone());
    let plan = pdc_query::QueryPlan::build(&conj, &world.odms).unwrap();
    match &plan.root {
        pdc_query::plan::PlanNode::Conj(cs) => {
            assert_eq!(cs.len(), 2);
            assert_eq!(cs[0].object, world.x, "x must be the primary for this check");
        }
        other => panic!("expected one conjunction, got {other:?}"),
    }
    let arrivals = vec![
        Arrival { at: SimDuration::ZERO, tenant: "alice".into(), query: filter },
        Arrival { at: SimDuration::from_micros(1), tenant: "bob".into(), query: conj },
    ];
    let report = eng.serve(&cfg, &arrivals).unwrap();
    assert!(report.served[0].outcome.sorted_hint.is_some(), "the filter alone is a band");
    assert_replay_identical(&report, &arrivals, &oracle, "band then filter");
}

#[test]
fn admission_control_defers_and_rejects_as_typed_outcomes() {
    // A tight budget forces deferrals; a tiny deferral queue forces
    // rejections. Everything is accounted: submitted = completed +
    // rejected, deferred queries complete with bit-identical outcomes.
    let world = build_world(40_000, 8192);
    let flood_q = PdcQuery::create(world.energy, QueryOp::Gt, 0.0f32); // expensive: all regions
    let tenants = vec![
        TenantSpec::new("well", 1, SimDuration::from_secs_f64(1e6), 64),
        // Budget below two floods' estimate, queue of 2.
        TenantSpec::new("flood", 1, SimDuration::from_micros(1), 2),
    ];
    let cfg = ServiceConfig::new(tenants.clone());
    let mut arrivals = Vec::new();
    for k in 0..8u64 {
        arrivals.push(Arrival {
            at: SimDuration::from_micros(k),
            tenant: "flood".into(),
            query: flood_q.clone(),
        });
    }
    arrivals.push(Arrival {
        at: SimDuration::from_micros(3),
        tenant: "well".into(),
        query: PdcQuery::range_open(world.energy, 2.1f32, 2.2f32),
    });

    let eng = engine_with(&world, Strategy::Histogram, None);
    let report = eng.serve(&cfg, &arrivals).unwrap();
    let s = report.stats;
    assert_eq!(s.submitted, 9);
    assert!(s.deferrals > 0, "the tight budget must defer: {s:?}");
    assert!(s.rejected > 0, "the full deferral queue must reject: {s:?}");
    assert_eq!(
        s.completed + s.rejected,
        s.submitted,
        "no silent drops: every arrival completes or is rejected: {s:?}"
    );
    assert_eq!(report.rejected.len() as u64, s.rejected);
    assert!(
        report.served.iter().any(|q| q.was_deferred),
        "deferred queries must eventually dispatch"
    );
    // The well-behaved tenant is untouched by the flood's rejections.
    let well = report.tenant_summaries().into_iter().find(|t| t.name == "well").unwrap();
    assert_eq!(well.completed, 1);
    assert_eq!(well.rejected, 0);
    // Typed rejections carry the flood tenant's identity.
    assert!(report.rejected.iter().all(|r| r.tenant == 1));
    // And the invariant: everything that ran matches solo replay.
    let oracle = engine_with(&world, Strategy::Histogram, None);
    assert_replay_identical(&report, &arrivals, &oracle, "admission");
}

#[test]
fn serve_rejects_bad_configs_with_typed_errors() {
    let world = build_world(10_000, 8192);
    let eng = engine_with(&world, Strategy::Histogram, None);
    // No tenants.
    let empty = ServiceConfig::new(vec![]);
    assert!(matches!(
        eng.serve(&empty, &[]),
        Err(pdc_types::PdcError::InvalidQuery(_))
    ));
    // Unknown tenant name in an arrival.
    let cfg = ServiceConfig::new(open_tenants());
    let arrivals = vec![Arrival {
        at: SimDuration::ZERO,
        tenant: "mallory".into(),
        query: PdcQuery::range_open(world.energy, 2.1f32, 2.2f32),
    }];
    assert!(matches!(
        eng.serve(&cfg, &arrivals),
        Err(pdc_types::PdcError::InvalidQuery(_))
    ));
    // No arrivals at all is fine: an empty report.
    let report = eng.serve(&cfg, &[]).unwrap();
    assert_eq!(report.stats.submitted, 0);
    assert!(report.served.is_empty());
}

// ---------------------------------------------------------------------
// Closed series: one tenant, every arrival at t = 0
// ---------------------------------------------------------------------

/// Serve `queries` as one client's closed series and check that the
/// loop neither deferred nor rejected anything and dispatched in
/// submission order.
fn serve_closed(eng: &QueryEngine, queries: &[PdcQuery]) -> ServiceReport {
    let cfg = ServiceConfig::new(vec![TenantSpec::new("client", 1, SimDuration::MAX, 0)]);
    let arrivals: Vec<Arrival> = queries
        .iter()
        .map(|q| Arrival { at: SimDuration::ZERO, tenant: "client".into(), query: q.clone() })
        .collect();
    let report = eng.serve(&cfg, &arrivals).unwrap();
    assert_eq!((report.stats.deferrals, report.stats.rejected), (0, 0));
    assert!(
        report.served.iter().map(|s| s.arrival_index).eq(0..queries.len()),
        "a closed series dispatches in submission order"
    );
    report
}

/// Run the pool sequentially on one engine and as a closed series on
/// another (identical config) and demand bit-identical per-query
/// outcomes in submission order, ending within the sequential total.
fn check_closed_equivalence(world: &TestWorld, strategy: Strategy, plan: Option<FaultPlan>) {
    let qs = query_pool(world);
    let sequential = engine_with(world, strategy, plan.clone());
    let seq: Vec<QueryOutcome> = qs.iter().map(|q| sequential.run(q).unwrap()).collect();

    let report = serve_closed(&engine_with(world, strategy, plan), &qs);
    assert_eq!(report.served.len(), seq.len());
    for (i, (a, b)) in seq.iter().zip(&report.served).enumerate() {
        assert_outcomes_identical(a, &b.outcome, &format!("{strategy}, query {i}"));
    }
    let total: SimDuration = seq.iter().map(|o| o.elapsed).sum();
    assert!(
        report.end_time <= total,
        "{strategy}: series end {} must not exceed sequential total {total}",
        report.end_time,
    );
    assert!(report.end_time > SimDuration::ZERO, "{strategy}");
}

#[test]
fn batch_matches_sequential_all_strategies() {
    let world = build_world(40_000, 8192);
    for strategy in Strategy::ALL {
        check_closed_equivalence(&world, strategy, None);
    }
}

#[test]
fn batch_caches_actually_engage() {
    let world = build_world(40_000, 8192);
    let eng = engine_with(&world, Strategy::Histogram, None);
    let report = serve_closed(&eng, &query_pool(&world));
    let s = report.stats;
    assert!(s.plan_hits > 0, "repeated queries must hit the plan cache: {s:?}");
    let resident_reads: u64 = report.served.iter().map(|q| q.outcome.io.cache_hits).sum();
    assert!(resident_reads > 0, "later queries must be served from resident regions");
}

#[test]
fn batch_matches_sequential_under_server_kills() {
    let world = build_world(30_000, 8192);
    for strategy in Strategy::ALL {
        let plan = FaultPlan::kill_count(1, 4, 0xFA11);
        check_closed_equivalence(&world, strategy, Some(plan));
    }
}

#[test]
fn batch_matches_sequential_under_seeded_fault_plan() {
    let world = build_world(30_000, 8192);
    for strategy in [Strategy::Histogram, Strategy::HistogramIndex] {
        let plan = FaultPlan::seeded(7, 4);
        check_closed_equivalence(&world, strategy, Some(plan));
    }
}

#[test]
fn batch_matches_sequential_under_corruption() {
    // Corruption mutates the store, so each engine gets its own
    // deterministically-built world; generation is seed-free and exact.
    for strategy in Strategy::ALL {
        let plan = FaultPlan::new().with_corruption(CorruptionSpec::new(0.15, 0.15, 0xC0FFEE));
        let world_a = build_world(25_000, 8192);
        let world_b = build_world(25_000, 8192);
        let qs = query_pool(&world_a);

        let sequential = engine_with(&world_a, strategy, Some(plan.clone()));
        let seq: Vec<QueryOutcome> = qs.iter().map(|q| sequential.run(q).unwrap()).collect();
        assert!(
            seq.iter().any(|o| o.integrity.any()),
            "{strategy}: the corruption spec must actually damage something"
        );

        let eng = engine_with(&world_b, strategy, Some(plan));
        let report = serve_closed(&eng, &query_pool(&world_b));
        assert_eq!(report.served.len(), seq.len());
        for (i, (a, b)) in seq.iter().zip(&report.served).enumerate() {
            assert_outcomes_identical(
                a,
                &b.outcome,
                &format!("{strategy} + corruption, query {i}"),
            );
        }
    }
}

#[test]
fn single_query_batch_matches_run() {
    let world = build_world(20_000, 8192);
    let q = PdcQuery::range_open(world.energy, 2.1f32, 2.2f32);
    let a = engine_with(&world, Strategy::Histogram, None).run(&q).unwrap();
    let report =
        serve_closed(&engine_with(&world, Strategy::Histogram, None), std::slice::from_ref(&q));
    assert_outcomes_identical(&a, &report.served[0].outcome, "singleton series");
    assert!(report.end_time <= a.elapsed);
}

#[test]
fn duplicate_query_batch_matches_sequential_run() {
    // The same query three times over: every copy must produce the
    // bit-identical outcome, and only the first builds a plan.
    let world = build_world(20_000, 8192);
    let q = PdcQuery::range_open(world.energy, 2.1f32, 2.2f32);
    let queries = vec![q.clone(), q.clone(), q];

    let seq_eng = engine_with(&world, Strategy::Histogram, None);
    let solo: Vec<QueryOutcome> = queries.iter().map(|q| seq_eng.run(q).unwrap()).collect();

    let report = serve_closed(&engine_with(&world, Strategy::Histogram, None), &queries);
    assert_eq!(report.served.len(), 3);
    assert_eq!((report.stats.plan_misses, report.stats.plan_hits), (1, 5), "{:?}", report.stats);
    for (i, (a, b)) in solo.iter().zip(&report.served).enumerate() {
        assert_outcomes_identical(a, &b.outcome, &format!("duplicate series member {i}"));
    }
}

/// The dedicated cache-invalidation regression test: poison one region
/// histogram so its prune verdict (wrongly) reports "no hits", serve
/// that verdict through a closed series, then rebuild the histogram via
/// the ODMS path. The next series MUST recover the region's hits — a
/// plan or verdict that outlived the rebuild would fail this test.
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
    world.odms.meta().replace_region_histogram(world.energy, poisoned_region, bogus).unwrap();

    let eng = engine_with(&world, Strategy::Histogram, None);
    let q = PdcQuery::range_open(world.energy, 2.1f32, 2.2f32);
    let poisoned = serve_closed(&eng, &[q.clone(), q.clone()]);
    assert!(
        poisoned.served[0].outcome.nhits < expect.len() as u64,
        "the poisoned histogram must suppress some hits for this test to mean anything"
    );
    assert_eq!(poisoned.served[0].outcome.nhits, poisoned.served[1].outcome.nhits);

    // The rebuild publishes the true histogram.
    world.odms.rebuild_region_histogram(world.energy, poisoned_region).unwrap();

    let healed = serve_closed(&eng, &[q.clone(), q]);
    assert_eq!(
        healed.served[0].outcome.selection.iter_coords().collect::<Vec<_>>(),
        expect,
        "stale prune verdict served after a histogram rebuild"
    );
    assert!(
        healed.stats.plan_misses > 0,
        "the rebuilt histogram must retire the cached plan: {:?}",
        healed.stats
    );
}

/// Streaming-ingest regression: a closed series warms the plan cache and
/// the region caches; an append then grows the primary object —
/// including filling the partial tail region the servers hold resident.
/// The next series MUST NOT answer the old extent: a plan or a read
/// clipped to the old tail would silently drop every hit the append
/// introduced.
#[test]
fn caches_invalidate_after_streaming_append() {
    let world = build_world(40_000, 8192);
    let eng = engine_with(&world, Strategy::Histogram, None);
    let q = PdcQuery::range_open(world.energy, 2.1f32, 2.2f32);
    let qs = [q.clone(), q.clone()];

    let first = serve_closed(&eng, &qs);
    let base_hits = first.served[0].outcome.nhits;
    assert!(base_hits > 0);

    // Append a chunk that lands entirely inside the queried interval:
    // every appended element is a hit, so any stale answer is visible
    // as a wrong count.
    let delta: Vec<f32> = (0..1_000).map(|i| 2.15 + (i % 7) as f32 * 0.001).collect();
    let report = world.odms.append_array(world.energy, &TypedVec::Float(delta)).unwrap();
    assert!(report.filled_tail.is_some(), "append must touch the cached tail region");

    let second = serve_closed(&eng, &qs);
    let (a, b) = (&second.served[0].outcome, &second.served[1].outcome);
    assert_eq!(
        a.nhits,
        base_hits + 1_000,
        "old extent answered after a streaming append: {:?}",
        second.stats
    );
    assert_eq!(a.nhits, b.nhits);
    assert!(
        second.stats.plan_misses > 0,
        "the append's new metadata must retire the cached plan: {:?}",
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
    assert_eq!(a.selection.iter_coords().collect::<Vec<_>>(), expect);
}

/// A region migration moves bytes between tiers without changing them
/// or any metadata, so the plan cache survives it: the next series plans
/// wholly from it, and every outcome still equals a cold `run`.
#[test]
fn caches_survive_region_migration() {
    let world = build_world(30_000, 8192);
    let eng = engine_with(&world, Strategy::Histogram, None);
    let qs = query_pool(&world);

    let first = serve_closed(&eng, &qs);
    world.odms.store().migrate(RegionId::new(world.energy, 0), StorageTier::BurstBuffer).unwrap();
    // The cold oracle replays the same dispatch order on a fresh engine
    // over the migrated world, so its warm-cache accounting matches.
    let oracle = engine_with(&world, Strategy::Histogram, None);
    for q in &qs {
        oracle.run(q).unwrap();
    }
    let second = serve_closed(&eng, &qs);
    assert_eq!(second.stats.plan_misses, 0, "{:?}", second.stats);
    for (i, (a, b)) in first.served.iter().zip(&second.served).enumerate() {
        assert_eq!(a.outcome.selection, b.outcome.selection, "migration must never change results");
        let cold = oracle.run(&qs[b.arrival_index]).unwrap();
        assert_outcomes_identical(&cold, &b.outcome, &format!("query {i} after migration"));
    }
}

/// `run` plans through the same cache as `serve`: a query `run` planned
/// is a plan hit for `serve`, and an append plus deferred maintenance
/// retires that plan exactly once. Every outcome equals a twin engine's
/// `run` over the same history, and every selection a fresh engine's.
#[test]
fn run_and_serve_plan_through_one_cache() {
    for strategy in Strategy::ALL {
        let world = build_world(30_000, 8192);
        let eng = engine_with(&world, strategy, None);
        let twin = engine_with(&world, strategy, None);
        let q = PdcQuery::range_open(world.energy, 2.1f32, 2.2f32);
        let check = |o: &QueryOutcome, step: &str| {
            let ctx = format!("{strategy}: {step}");
            assert_outcomes_identical(&twin.run(&q).unwrap(), o, &ctx);
            let fresh = engine_with(&world, strategy, None).run(&q).unwrap();
            assert_eq!(fresh.selection, o.selection, "{ctx}");
        };

        check(&eng.run(&q).unwrap(), "run");
        let served = serve_closed(&eng, std::slice::from_ref(&q));
        assert_eq!(served.stats.plan_misses, 0, "{strategy}: {:?}", served.stats);
        check(&served.served[0].outcome, "serve after run");

        let delta: Vec<f32> = (0..500).map(|i| 2.15 + (i % 5) as f32 * 0.001).collect();
        world.odms.append_array(world.energy, &TypedVec::Float(delta)).unwrap();
        world.odms.run_deferred_maintenance().unwrap();
        let served = serve_closed(&eng, std::slice::from_ref(&q));
        assert_eq!(served.stats.plan_misses, 1, "{strategy}: {:?}", served.stats);
        check(&served.served[0].outcome, "serve after append + maintenance");
    }
}
