//! Failure injection and edge cases across the assembled system.

use pdc_suite::odms::{ImportOptions, Odms};
use pdc_suite::query::{EngineConfig, PdcQuery, QueryEngine, Strategy};
use pdc_suite::types::{ObjectId, PdcError, QueryOp, RegionId, TypedVec};
use std::sync::Arc;

fn small_world() -> (Arc<Odms>, ObjectId, Vec<f32>) {
    let odms = Arc::new(Odms::new(4));
    let c = odms.create_container("edge");
    let data: Vec<f32> = (0..50_000).map(|i| ((i * 31) % 997) as f32 / 100.0).collect();
    let opts = ImportOptions {
        region_bytes: 8 << 10,
        build_index: true,
        build_sorted: true,
        ..Default::default()
    };
    let obj = odms.import_array(c, "v", TypedVec::Float(data.clone()), &opts).unwrap().object;
    (odms, obj, data)
}

fn engine(odms: &Arc<Odms>, strategy: Strategy) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(odms),
        EngineConfig { strategy, num_servers: 4, ..Default::default() },
    )
}

#[test]
fn lost_region_surfaces_a_storage_error_not_a_panic() {
    let (odms, obj, _) = small_world();
    // Simulate storage loss of one data region.
    assert!(odms.store().remove(RegionId::new(obj, 3)));
    let eng = engine(&odms, Strategy::Histogram);
    let q = PdcQuery::create(obj, QueryOp::Gt, 0.0f32); // touches every region
    let err = eng.run(&q).unwrap_err();
    assert!(matches!(err, PdcError::NoSuchRegion(_)), "got {err:?}");
}

#[test]
fn lost_index_region_rebuilds_online_without_changing_hits() {
    let (odms, obj, data) = small_world();
    let meta = odms.meta().get(obj).unwrap();
    let idx_obj = meta.index_object.unwrap();
    assert!(odms.store().remove(RegionId::new(idx_obj, 0)));
    // Histogram strategy is unaffected...
    let eng = engine(&odms, Strategy::Histogram);
    let q = PdcQuery::create(obj, QueryOp::Gt, 0.0f32);
    let expect = data.iter().filter(|&&v| v > 0.0).count() as u64;
    assert_eq!(eng.get_nhits(&q).unwrap(), expect);
    // ...the index strategy answers the first probe by an exact scan and
    // rebuilds the missing index region in place (the same lazy path a
    // streaming append takes for not-yet-indexed tail regions).
    let eng = engine(&odms, Strategy::HistogramIndex);
    let out = eng.run(&q).unwrap();
    assert_eq!(out.nhits, expect, "fallback scan must stay exact");
    assert_eq!(out.integrity.fallback_regions, 1);
    assert_eq!(out.integrity.aux_rebuilds, 1);
    // The rebuild restored the region: the next run probes cleanly.
    let again = eng.run(&q).unwrap();
    assert_eq!(again.nhits, expect);
    assert_eq!(again.integrity.fallback_regions, 0, "{:?}", again.integrity);
}

#[test]
fn undecodable_index_bytes_fall_back_to_exact_scan_and_rebuild() {
    let (odms, obj, data) = small_world();
    let meta = odms.meta().get(obj).unwrap();
    let idx_obj = meta.index_object.unwrap();
    // Overwrite one index region with garbage that passes the checksum
    // (put recomputes it) but cannot decode: the codec layer is the last
    // line of defense, and the query degrades to scanning that region.
    odms.store().put(
        RegionId::new(idx_obj, 1),
        pdc_suite::storage::StoredPayload::Raw(pdc_suite::types::Bytes::from(&b"garbage"[..])),
        pdc_suite::storage::StorageTier::Pfs,
    );
    let eng = engine(&odms, Strategy::HistogramIndex);
    let q = PdcQuery::create(obj, QueryOp::Gt, 0.0f32);
    let expect = data.iter().filter(|&&v| v > 0.0).count() as u64;
    let out = eng.run(&q).unwrap();
    assert_eq!(out.nhits, expect, "fallback scan must stay exact");
    assert_eq!(out.integrity.fallback_regions, 1);
    assert_eq!(out.integrity.aux_rebuilds, 1);
    // The rebuild restored a decodable index: the next run is clean.
    let again = eng.run(&q).unwrap();
    assert_eq!(again.nhits, expect);
    assert_eq!(again.integrity.fallback_regions, 0, "{:?}", again.integrity);
}

#[test]
fn sorted_strategy_without_replica_falls_back_to_histogram_path() {
    let odms = Arc::new(Odms::new(4));
    let c = odms.create_container("edge");
    let data: Vec<f32> = (0..10_000).map(|i| i as f32).collect();
    let opts = ImportOptions { region_bytes: 4 << 10, ..Default::default() }; // no replica
    let obj = odms.import_array(c, "v", TypedVec::Float(data), &opts).unwrap().object;
    let eng = engine(&odms, Strategy::SortedHistogram);
    let q = PdcQuery::range_open(obj, 100.0f32, 200.0f32);
    assert_eq!(eng.get_nhits(&q).unwrap(), 99);
}

#[test]
fn zero_cache_budget_still_answers_correctly() {
    let (odms, obj, data) = small_world();
    let eng = QueryEngine::new(
        Arc::clone(&odms),
        EngineConfig {
            strategy: Strategy::Histogram,
            num_servers: 4,
            cache_bytes_per_server: 0,
            ..Default::default()
        },
    );
    let q = PdcQuery::range_open(obj, 2.0f32, 3.0f32);
    let expect = data.iter().filter(|&&v| v > 2.0 && v < 3.0).count() as u64;
    let first = eng.run(&q).unwrap();
    let second = eng.run(&q).unwrap();
    assert_eq!(first.nhits, expect);
    // nothing cached: the second run re-reads from the PFS
    assert!(second.io.pfs_bytes_read > 0);
}

#[test]
fn empty_and_always_true_queries() {
    let (odms, obj, data) = small_world();
    let eng = engine(&odms, Strategy::Histogram);
    // Contradiction: no hits, no storage reads needed.
    let q = PdcQuery::create(obj, QueryOp::Gt, 100.0f32)
        .and(PdcQuery::create(obj, QueryOp::Lt, -100.0f32));
    let out = eng.run(&q).unwrap();
    assert_eq!(out.nhits, 0);
    assert_eq!(out.io.pfs_bytes_read, 0);
    // Tautology-ish: everything matches.
    let q = PdcQuery::create(obj, QueryOp::Gte, -1.0e9f32);
    assert_eq!(eng.get_nhits(&q).unwrap(), data.len() as u64);
}

#[test]
fn single_element_object() {
    let odms = Arc::new(Odms::new(2));
    let c = odms.create_container("tiny");
    let opts = ImportOptions { build_index: true, build_sorted: true, ..Default::default() };
    let obj = odms.import_array(c, "one", TypedVec::Float(vec![42.0]), &opts).unwrap().object;
    for strategy in [
        Strategy::FullScan,
        Strategy::Histogram,
        Strategy::HistogramIndex,
        Strategy::SortedHistogram,
    ] {
        let eng = engine(&odms, strategy);
        assert_eq!(eng.get_nhits(&PdcQuery::create(obj, QueryOp::Eq, 42.0f32)).unwrap(), 1);
        assert_eq!(eng.get_nhits(&PdcQuery::create(obj, QueryOp::Gt, 42.0f32)).unwrap(), 0);
    }
}

#[test]
fn more_servers_than_regions() {
    let odms = Arc::new(Odms::new(2));
    let c = odms.create_container("tiny");
    let data: Vec<f32> = (0..1000).map(|i| i as f32).collect();
    let opts = ImportOptions { region_bytes: 2048, ..Default::default() }; // 2 regions
    let obj = odms.import_array(c, "v", TypedVec::Float(data), &opts).unwrap().object;
    let eng = QueryEngine::new(
        Arc::clone(&odms),
        EngineConfig { strategy: Strategy::Histogram, num_servers: 64, ..Default::default() },
    );
    let q = PdcQuery::create(obj, QueryOp::Lt, 10.0f32);
    assert_eq!(eng.get_nhits(&q).unwrap(), 10);
}

#[test]
fn get_data_batch_respects_batch_size() {
    let (odms, obj, _) = small_world();
    let eng = engine(&odms, Strategy::Histogram);
    let q = PdcQuery::create(obj, QueryOp::Lt, 3.0f32);
    let out = eng.run(&q).unwrap();
    assert!(out.nhits > 500);
    let batches = eng.get_data_batch(&out, obj, 100).unwrap();
    for (i, b) in batches.iter().enumerate() {
        let is_last = i + 1 == batches.len();
        let len = b.data.len() as u64;
        if is_last {
            assert!(len <= 100 && len > 0);
        } else {
            assert_eq!(len, 100, "batch {i}");
        }
    }
    let total: u64 = batches.iter().map(|b| b.data.len() as u64).sum();
    assert_eq!(total, out.nhits);
}

#[test]
fn get_data_batch_of_zero_is_a_typed_error() {
    let (odms, obj, _) = small_world();
    let eng = engine(&odms, Strategy::Histogram);
    let out = eng.run(&PdcQuery::create(obj, QueryOp::Lt, 3.0f32)).unwrap();
    assert_eq!(
        eng.get_data_batch(&out, obj, 0).unwrap_err(),
        PdcError::InvalidQuery("batch size must be positive".into())
    );
}

// ---------------------------------------------------------------------------
// Fault injection: crashes, transient errors, slowdowns, retry budget.
// ---------------------------------------------------------------------------

use pdc_suite::server::{FaultPlan, ServerFaultSpec};
use pdc_suite::storage::SimDuration;

fn fault_engine(odms: &Arc<Odms>, strategy: Strategy, n: u32, plan: FaultPlan) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(odms),
        EngineConfig {
            strategy,
            num_servers: n,
            fault_plan: Some(plan),
            ..Default::default()
        },
    )
}

/// The acceptance criterion: any fault plan leaving at least one server
/// alive yields results bit-identical to the fault-free run — for every
/// strategy, killing 1, N/2, and N−1 of the N servers.
#[test]
fn killing_servers_never_changes_results() {
    let (odms, obj, data) = small_world();
    let n = 6u32;
    let q = PdcQuery::range_open(obj, 2.0f32, 7.5f32);
    let expect = data.iter().filter(|&&v| v > 2.0 && v < 7.5).count() as u64;
    for strategy in Strategy::ALL {
        let healthy = QueryEngine::new(
            Arc::clone(&odms),
            EngineConfig { strategy, num_servers: n, ..Default::default() },
        )
        .run(&q)
        .unwrap();
        assert_eq!(healthy.nhits, expect, "{strategy}: healthy baseline wrong");
        for kills in [1u32, n / 2, n - 1] {
            let victims: Vec<u32> = (0..kills).collect();
            let out = fault_engine(&odms, strategy, n, FaultPlan::kill(&victims))
                .run(&q)
                .unwrap_or_else(|e| panic!("{strategy} with {kills} dead servers: {e}"));
            assert_eq!(out.nhits, healthy.nhits, "{strategy}, {kills} killed: nhits");
            assert_eq!(
                out.selection, healthy.selection,
                "{strategy}, {kills} killed: selection diverged"
            );
        }
    }
}

/// Seed-picked victims (the `--kill-servers` path) preserve results too,
/// and the outcome reports who failed and how many rounds it took.
#[test]
fn kill_count_reports_failures_and_recovers() {
    let (odms, obj, _) = small_world();
    let n = 6u32;
    let q = PdcQuery::create(obj, QueryOp::Gte, -1.0f32); // touches every region
    let healthy = QueryEngine::new(
        Arc::clone(&odms),
        EngineConfig { strategy: Strategy::Histogram, num_servers: n, ..Default::default() },
    )
    .run(&q)
    .unwrap();
    let plan = FaultPlan::kill_count(n - 1, n, 0xFA11);
    let out = fault_engine(&odms, Strategy::Histogram, n, plan.clone()).run(&q).unwrap();
    assert_eq!(out.nhits, healthy.nhits);
    assert_eq!(out.selection, healthy.selection);
    // Exactly the plan's n - 1 victims failed.
    assert_eq!(out.failed_servers.len(), (n - 1) as usize);
    assert_eq!(FaultPlan::kill(&out.failed_servers), plan);
    assert!(out.retry_rounds >= 1, "dead servers must force a retry round");
    assert!(out.breakdown.failover > SimDuration::ZERO);
    assert_eq!(out.breakdown.total(), healthy.breakdown.total() + out.breakdown.failover);
}

/// Transient faults on *every* server still recover within the default
/// retry budget — the erroring servers stay reassignment candidates and
/// succeed once their fault schedule is exhausted.
#[test]
fn transient_errors_on_all_servers_recover() {
    let (odms, obj, data) = small_world();
    let n = 4u32;
    let mut plan = FaultPlan::new();
    for s in 0..n {
        plan = plan.with_spec(s, ServerFaultSpec { transient_errors: 2, ..Default::default() });
    }
    let q = PdcQuery::range_open(obj, 1.0f32, 4.0f32);
    let expect = data.iter().filter(|&&v| v > 1.0 && v < 4.0).count() as u64;
    let out = fault_engine(&odms, Strategy::Histogram, n, plan).run(&q).unwrap();
    assert_eq!(out.nhits, expect);
    assert!(out.retry_rounds >= 1);
    assert!(!out.failed_servers.is_empty());
}

/// Exhausting the retry budget is a typed error, not a panic: 50
/// transient errors per server outlast every retry round (none of them
/// finds a crash, so each one spends the budget).
#[test]
fn retry_budget_exhaustion_is_a_typed_error() {
    let (odms, obj, _) = small_world();
    let n = 3u32;
    let mut plan = FaultPlan::new();
    for s in 0..n {
        plan = plan.with_spec(s, ServerFaultSpec { transient_errors: 50, ..Default::default() });
    }
    let eng = fault_engine(&odms, Strategy::Histogram, n, plan);
    let err = eng.run(&PdcQuery::create(obj, QueryOp::Gt, 0.0f32)).unwrap_err();
    assert!(matches!(err, PdcError::RetriesExhausted { .. }), "got {err:?}");
}

/// Killing every server is unrecoverable and surfaces as a typed
/// `ServerFailed` — not a panic, a hang or a spent retry budget — for
/// every strategy at every replica count.
#[test]
fn killing_all_servers_is_a_typed_error() {
    let (odms, obj, _) = small_world();
    let n = 4u32;
    let victims: Vec<u32> = (0..n).collect();
    for strategy in Strategy::ALL {
        for k in [1u32, 2, 3] {
            let eng = replicated_engine(&odms, strategy, n, k, Some(FaultPlan::kill(&victims)));
            let err = eng.run(&PdcQuery::create(obj, QueryOp::Gt, 0.0f32)).unwrap_err();
            assert!(matches!(err, PdcError::ServerFailed { .. }), "{strategy} k={k}: got {err:?}");
        }
    }
}

/// A crashed server stays dead for subsequent queries (no retry rounds
/// needed: it left the membership and its slot was re-homed) for the
/// engine's life; a new engine arms the crash schedule afresh.
#[test]
fn crashed_servers_stay_dead_until_reset() {
    let (odms, obj, _) = small_world();
    let eng = fault_engine(&odms, Strategy::Histogram, 4, FaultPlan::kill(&[1]));
    let q = PdcQuery::range_open(obj, 2.0f32, 7.5f32);
    let first = eng.run(&q).unwrap();
    assert_eq!(first.failed_servers, vec![1]);
    assert!(first.retry_rounds >= 1);
    let second = eng.run(&q).unwrap();
    assert_eq!(second.nhits, first.nhits);
    assert_eq!(second.retry_rounds, 0, "already-dead server needs no new retry");
    let fresh = fault_engine(&odms, Strategy::Histogram, 4, FaultPlan::kill(&[1]));
    let third = fresh.run(&q).unwrap();
    assert_eq!(third.nhits, first.nhits);
    assert_eq!(third.failed_servers, vec![1], "a new engine arms the crash schedule");
    assert!(third.retry_rounds >= 1);
}

/// A slowed-down server changes only the simulated timeline, never the
/// result: the client waits for it rather than abandoning it.
#[test]
fn slow_server_inflates_time_not_results() {
    let (odms, obj, _) = small_world();
    let n = 4u32;
    let q = PdcQuery::create(obj, QueryOp::Gte, -1.0f32);
    let healthy = QueryEngine::new(
        Arc::clone(&odms),
        EngineConfig { strategy: Strategy::Histogram, num_servers: n, ..Default::default() },
    )
    .run(&q)
    .unwrap();
    let plan = FaultPlan::new()
        .with_spec(0, ServerFaultSpec { slowdown: 10.0, ..Default::default() });
    let waited = fault_engine(&odms, Strategy::Histogram, n, plan).run(&q).unwrap();
    assert_eq!(waited.selection, healthy.selection);
    assert!(waited.elapsed > healthy.elapsed);
    assert!(waited.failed_servers.is_empty());
    assert_eq!(waited.retry_rounds, 0);
}

// ---------------------------------------------------------------------------
// K-way replication: kill matrix, failover accounting, elastic membership.
// ---------------------------------------------------------------------------

fn replicated_engine(
    odms: &Arc<Odms>,
    strategy: Strategy,
    n: u32,
    replicas: u32,
    plan: Option<FaultPlan>,
) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(odms),
        EngineConfig { strategy, num_servers: n, replicas, fault_plan: plan, ..Default::default() },
    )
}

/// The replication acceptance matrix: for every strategy, k ∈ {1, 2, 3}
/// and killed ∈ {1, N−2, N−1}, a run returns results bit-identical to the
/// unkilled unreplicated reference. One member is always left alive, and
/// every slot's preference list reaches every member, so no cell may fail
/// (killing all N is `killing_all_servers_is_a_typed_error`).
#[test]
fn replication_kill_matrix_is_bit_identical_or_typed() {
    let (odms, obj, data) = small_world();
    let n = 6u32;
    let q = PdcQuery::range_open(obj, 2.0f32, 7.5f32);
    let expect = data.iter().filter(|&&v| v > 2.0 && v < 7.5).count() as u64;
    let reference = QueryEngine::new(
        Arc::clone(&odms),
        EngineConfig { strategy: Strategy::Histogram, num_servers: n, ..Default::default() },
    )
    .run(&q)
    .unwrap();
    assert_eq!(reference.nhits, expect);
    for strategy in Strategy::ALL {
        for k in [1u32, 2, 3] {
            for kills in [1u32, n - 2, n - 1] {
                let victims: Vec<u32> = (0..kills).collect();
                let out = replicated_engine(&odms, strategy, n, k, Some(FaultPlan::kill(&victims)))
                    .run(&q)
                    .unwrap_or_else(|e| panic!("{strategy} k={k} kills={kills}: {e}"));
                assert_eq!(
                    out.selection, reference.selection,
                    "{strategy} k={k} kills={kills}: selection diverged"
                );
                assert_eq!(out.nhits, expect);
            }
        }
    }
}

/// A healthy replicated run does exactly the unreplicated run's work:
/// anchor routing keeps each server's region set identical to k = 1, so
/// selections, I/O, and kernel work match and the failover lane stays zero.
#[test]
fn replication_healthy_run_matches_unreplicated_work() {
    let (odms, obj, _) = small_world();
    let n = 6u32;
    let q = PdcQuery::range_open(obj, 2.0f32, 7.5f32);
    let base = QueryEngine::new(
        Arc::clone(&odms),
        EngineConfig { strategy: Strategy::Histogram, num_servers: n, ..Default::default() },
    )
    .run(&q)
    .unwrap();
    let out = replicated_engine(&odms, Strategy::Histogram, n, 2, None).run(&q).unwrap();
    assert_eq!(out.selection, base.selection);
    assert_eq!(out.io, base.io);
    assert_eq!(out.work, base.work);
    assert_eq!(out.breakdown.failover, SimDuration::ZERO);
    assert_eq!(out.rebuild_regions, 0);
}

/// A kill charges the `failover` lane at every k: under k = 2 surviving
/// replicas each absorb a small slice of the dead server's slots, the
/// breakdown invariant holds against the same-k healthy baseline, and the
/// cost undercuts k = 1, where the dead server's one slot — its whole
/// batch — fails over to a single survivor.
#[test]
fn replication_failover_lane_replaces_recovery() {
    let (odms, obj, _) = small_world();
    let n = 6u32;
    let q = PdcQuery::create(obj, QueryOp::Gte, -1.0f32); // touches every region
    let healthy = replicated_engine(&odms, Strategy::Histogram, n, 2, None).run(&q).unwrap();
    assert_eq!(healthy.breakdown.failover, SimDuration::ZERO);
    let out = replicated_engine(&odms, Strategy::Histogram, n, 2, Some(FaultPlan::kill(&[1])))
        .run(&q)
        .unwrap();
    assert_eq!(out.selection, healthy.selection);
    assert_eq!(out.failed_servers, vec![1]);
    assert!(out.breakdown.failover > SimDuration::ZERO);
    assert_eq!(out.breakdown.total(), healthy.breakdown.total() + out.breakdown.failover);
    // The point of fine-grained replica failover: far cheaper than moving
    // the dead server's whole batch, as k = 1 must for the same kill.
    let single =
        fault_engine(&odms, Strategy::Histogram, n, FaultPlan::kill(&[1])).run(&q).unwrap();
    assert_eq!(single.selection, healthy.selection);
    assert!(single.breakdown.failover > out.breakdown.failover);
}

/// After a replicated run observes a crash, redundancy is rebuilt in the
/// background: the dead member is evicted, its slots' regions are copied
/// to replacement replicas (reported on the outcome), and the next query
/// runs clean — no retries, no failover, same bits.
#[test]
fn replication_rebuild_restores_redundancy_after_crash() {
    let (odms, obj, _) = small_world();
    let n = 6u32;
    let q = PdcQuery::range_open(obj, 2.0f32, 7.5f32);
    let eng = replicated_engine(&odms, Strategy::Histogram, n, 2, Some(FaultPlan::kill(&[2])));
    let first = eng.run(&q).unwrap();
    assert_eq!(first.failed_servers, vec![2]);
    assert!(first.rebuild_regions > 0, "crash must trigger a redundancy rebuild");
    assert!(first.rebuild_bytes > 0);
    assert!(!eng.placement_members().contains(&2), "dead member evicted");
    let second = eng.run(&q).unwrap();
    assert_eq!(second.selection, first.selection);
    assert!(second.failed_servers.is_empty(), "evicted server receives no work");
    assert_eq!(second.retry_rounds, 0);
    assert_eq!(second.breakdown.failover, SimDuration::ZERO);
    assert_eq!(second.rebuild_regions, 0);
}

/// Elastic membership under a live query series: join a fresh server,
/// then retire one of the originals — every run in between returns the
/// same bits, and the reports carry the live-migration volume.
#[test]
fn replication_join_and_leave_never_change_results() {
    let (odms, obj, data) = small_world();
    let n = 4u32;
    let q = PdcQuery::range_open(obj, 1.0f32, 6.0f32);
    let expect = data.iter().filter(|&&v| v > 1.0 && v < 6.0).count() as u64;
    let eng = replicated_engine(&odms, Strategy::Histogram, n, 2, None);
    let before = eng.run(&q).unwrap();
    assert_eq!(before.nhits, expect);

    let joined = eng.join_server().unwrap();
    assert_eq!(joined.server, n, "fresh server gets the next stable id");
    assert!(joined.slots_changed > 0, "HRW must hand the newcomer some replicas");
    assert!(joined.regions_copied > 0 && joined.bytes_copied > 0);
    assert!(eng.placement_members().contains(&n));
    let mid = eng.run(&q).unwrap();
    assert_eq!(mid.selection, before.selection);

    let left = eng.leave_server(0).unwrap();
    assert_eq!(left.server, 0);
    assert!(left.regions_copied > 0, "the leaver's replicas re-home with a copy");
    assert!(!eng.placement_members().contains(&0));
    let after = eng.run(&q).unwrap();
    assert_eq!(after.selection, before.selection);

    // Typed guard rail: double-leave is invalid.
    assert!(matches!(eng.leave_server(0), Err(PdcError::InvalidQuery(_))));

    // Membership works at k = 1 too: one slot per server, re-homed with
    // the same verified copy, and the bits never move.
    let single = replicated_engine(&odms, Strategy::Histogram, n, 1, None);
    assert_eq!(single.replica_sets(), (0..n).map(|s| vec![s]).collect::<Vec<_>>());
    let joined = single.join_server().unwrap();
    assert_eq!(joined.server, n);
    assert_eq!(single.run(&q).unwrap().selection, before.selection);
    let left = single.leave_server(0).unwrap();
    assert!(left.regions_copied > 0, "slot 0 re-homes with a copy");
    assert_eq!(single.run(&q).unwrap().selection, before.selection);
    for s in 1..n {
        single.leave_server(s).unwrap();
    }
    assert_eq!(single.placement_members(), vec![n]);
    assert_eq!(single.run(&q).unwrap().selection, before.selection);
    assert!(
        matches!(single.leave_server(n), Err(PdcError::InvalidQuery(_))),
        "the last member cannot leave"
    );
}
