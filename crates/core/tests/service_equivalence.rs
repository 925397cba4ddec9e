//! The tentpole invariant of the multi-tenant service loop:
//! [`QueryEngine::serve`] is **scheduling only**. Admission control,
//! weighted-fair dispatch, deferral, and continuous shared-scan batching
//! decide *when* each query runs — never *what* it computes or charges.
//! For every admitted query, the `Selection` and simulated
//! `CostBreakdown` must be bit-identical to executing the service's
//! dispatch sequence through plain [`QueryEngine::run`] on an
//! identically-configured engine (warm-cache accounting is dispatch-order
//! dependent, so the oracle replays the same order). Verified across
//! tenant mixes and interleavings, under seeded faults, 20% corruption,
//! k≥2 replication, and an out-of-core spill budget; plus a
//! deterministic-given-seed scheduler-trace test and the late-join
//! continuous-batching assertion.

use pdc_odms::{ImportOptions, Odms};
use pdc_query::{
    Arrival, EngineConfig, PdcQuery, QueryEngine, QueryOutcome, ServiceConfig, ServiceReport,
    Strategy, TenantSpec, TraceEvent,
};
use pdc_server::{CorruptionSpec, FaultPlan};
use pdc_storage::SimDuration;
use pdc_types::{NdRegion, ObjectId, QueryOp, TypedVec};
use std::path::PathBuf;
use std::sync::Arc;

struct TestWorld {
    odms: Arc<Odms>,
    energy: ObjectId,
    x: ObjectId,
}

/// Same VPIC-flavoured shape the batch suite uses; generation is
/// seed-free and exact, so twin builds are logically identical (needed
/// for the corruption comparison, which mutates the store).
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
    let e = odms.import_array(c, "energy", TypedVec::Float(energy), &opts).unwrap().object;
    let xo = odms.import_array(c, "x", TypedVec::Float(x), &opts).unwrap().object;
    TestWorld { odms, energy: e, x: xo }
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
/// so the mix exercises fair dispatch and continuous batching without
/// deferrals.
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
            report.group.is_none(),
            "{strategy}: continuous batching must be disabled under corruption"
        );
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
    // every Arrive/Admit/Dispatch/GroupJoin/Complete event, timestamps
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
fn late_arrival_joins_inflight_shared_scan_group() {
    // One early query opens the group; an identical query arrives while
    // the first is still being served. The late join must be visible in
    // the group stats and trace, and its predicates — already admitted
    // by the first member — must add zero new intervals.
    let world = build_world(40_000, 8192);
    let tenants = open_tenants();
    let cfg = ServiceConfig::new(tenants.clone());
    let q = PdcQuery::range_open(world.energy, 2.1f32, 2.2f32);
    let arrivals = vec![
        Arrival { at: SimDuration::ZERO, tenant: "alice".into(), query: q.clone() },
        // Arrives 1us later: the client is still mid-overhead on query 0,
        // so this joins the group the first dispatch opened.
        Arrival { at: SimDuration::from_micros(1), tenant: "bob".into(), query: q.clone() },
        Arrival { at: SimDuration::from_micros(2), tenant: "carol".into(), query: q },
    ];
    let eng = engine_with(&world, Strategy::Histogram, None);
    let report = eng.serve(&cfg, &arrivals).unwrap();
    let group = report.group.expect("continuous batching must be on");
    assert_eq!(group.members, 3);
    assert_eq!(group.admissions, 3, "one admission per dispatch");
    assert!(group.late_joins >= 2, "later dispatches must join the open group: {group:?}");
    assert!(group.prewarm_regions > 0, "the first admission must prewarm regions");

    let late_joins: Vec<_> = report
        .trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::GroupJoin { late: true, new_intervals, .. } => Some(*new_intervals),
            _ => None,
        })
        .collect();
    assert_eq!(late_joins.len(), 2, "trace must record the late joins");
    assert!(
        late_joins.iter().all(|&n| n == 0),
        "identical predicates must already be covered by the group: {late_joins:?}"
    );
    // And the invariant still holds.
    let oracle = engine_with(&world, Strategy::Histogram, None);
    assert_replay_identical(&report, &arrivals, &oracle, "late-join");
}

#[test]
fn band_answered_primaries_skip_the_shared_scan_prewarm() {
    // Under PDC-SH every single-constraint arrival is answered from the
    // sorted band, which reads none of the per-region artifacts a prewarm
    // seeds: the group admits every member and prewarms nothing, and the
    // outcomes are those of solo runs.
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
    let group = report.group.expect("continuous batching must be on");
    assert_eq!(group.members, pool.len() as u64);
    assert_eq!(group.prewarm_regions, 0, "{group:?}");
    assert_eq!(group.admitted_intervals, 0, "skipped predicates stay out of the ledger");
    for s in &report.served {
        assert!(s.outcome.sorted_hint.is_some(), "seq {}: the band answers", s.seq);
    }
    let oracle = engine_with(&world, Strategy::SortedHistogram, None);
    assert_replay_identical(&report, &arrivals, &oracle, "band-only serve");

    // A later conjunction point-checks the predicate an earlier arrival
    // answered from the band: it was never admitted, so it prewarms now.
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
    let group = report.group.expect("continuous batching must be on");
    assert_eq!(group.admitted_intervals, 1, "only the conjunction's filter is admitted");
    assert!(group.prewarm_regions > 0, "the filter must prewarm: {group:?}");
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
    let well = report.tenant_summary("well").unwrap();
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
