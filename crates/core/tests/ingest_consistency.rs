//! The headline correctness suite for streaming ingest: a store that
//! grows by appends mid-query-series must be indistinguishable — hit for
//! hit — from a store created whole ("sealed") at each observed extent.
//!
//! Three invariants, per ISSUE 6:
//!
//! 1. Interleaved append/query schedules give Selections bit-identical
//!    to a fresh store holding exactly the elements the query planned
//!    against (`QueryOutcome::planned_elements`), for all five
//!    strategies, with and without injected faults and corruption.
//! 2. The incremental histogram maintenance (per-append delta folds)
//!    is bit-identical to a from-scratch re-merge of the per-region
//!    histograms — no drift, ever.
//! 3. Deferred aux maintenance (bitmap-index and sorted-replica
//!    rebuilds) never changes Selections, before or after it runs.

use pdc_histogram::merge_all;
use pdc_odms::{ImportOptions, MaintenanceReport, Odms};
use pdc_query::{EngineConfig, PdcQuery, QueryEngine, Strategy};
use pdc_server::{CorruptionSpec, FaultPlan};
use pdc_types::{ObjectId, TypedVec};
use std::sync::Arc;

/// Initial extent imported before the first append.
const PREFIX: usize = 20_000;
/// Elements per streaming append. Deliberately NOT a multiple of the
/// region size, so appends exercise tail fills, seals, and partial new
/// regions in varying phases.
const CHUNK: usize = 3_500;
/// Number of appends in a schedule.
const APPENDS: usize = 5;

/// The same VPIC-flavoured value stream the strategy-agreement suite
/// uses: a smooth bulk plus clustered high-energy tails, extended far
/// enough to cover the full ingest schedule.
fn gen(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let base = ((i as f32 * 0.37).sin() + 1.0) * 0.9;
            if (3000..3400).contains(&(i % 8000)) {
                2.0 + ((i * 31) % 160) as f32 / 100.0
            } else {
                base
            }
        })
        .collect()
}

fn import_opts() -> ImportOptions {
    ImportOptions {
        region_bytes: 8 << 10,
        build_index: true,
        build_sorted: true,
        ..Default::default()
    }
}

/// A store holding `data` imported in one shot — the sealed baseline an
/// interleaved schedule must be indistinguishable from.
fn sealed_world(data: &[f32]) -> (Arc<Odms>, ObjectId) {
    let odms = Arc::new(Odms::new(4));
    let c = odms.create_container("ingest");
    let obj = odms
        .import_array(c, "energy", TypedVec::Float(data.to_vec()), &import_opts())
        .unwrap()
        .object;
    (odms, obj)
}

fn engine(odms: &Arc<Odms>, strategy: Strategy, plan: Option<FaultPlan>) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(odms),
        EngineConfig { strategy, num_servers: 4, fault_plan: plan, ..Default::default() },
    )
}

fn query(obj: ObjectId) -> PdcQuery {
    PdcQuery::range_open(obj, 2.1f32, 2.2f32)
}

fn naive_hits(data: &[f32]) -> Vec<u64> {
    (0..data.len() as u64)
        .filter(|&i| {
            let v = data[i as usize] as f64;
            v > 2.1 && v < 2.2
        })
        .collect()
}

/// Drive one interleaved schedule: query at the initial extent, then
/// after every append. Returns `(planned_elements, selection coords)`
/// per query, in schedule order. `maintain_at` runs deferred aux
/// maintenance after that append index (to mix rebuilt and pending
/// states inside one schedule).
fn run_schedule(
    data: &[f32],
    strategy: Strategy,
    plan: Option<FaultPlan>,
    maintain_at: Option<usize>,
) -> Vec<(u64, Vec<u64>)> {
    let (odms, obj) = sealed_world(&data[..PREFIX]);
    let eng = engine(&odms, strategy, plan);
    let q = query(obj);
    let mut observed = Vec::new();
    let out = eng.run(&q).unwrap();
    observed.push((out.planned_elements, out.selection.iter_coords().collect()));
    for k in 0..APPENDS {
        let lo = PREFIX + k * CHUNK;
        let hi = PREFIX + (k + 1) * CHUNK;
        let report = odms.append_array(obj, &TypedVec::Float(data[lo..hi].to_vec())).unwrap();
        assert_eq!(report.total_elems, hi as u64);
        if maintain_at == Some(k) {
            odms.run_deferred_maintenance().unwrap();
        }
        let out = eng.run(&q).unwrap();
        assert_eq!(
            out.planned_elements, hi as u64,
            "{strategy}: plan must see exactly the registered extent"
        );
        observed.push((out.planned_elements, out.selection.iter_coords().collect()));
    }
    observed
}

/// For every `(extent, coords)` pair a schedule observed, a fresh store
/// imported whole at that extent must produce bit-identical coords.
fn check_against_sealed(
    data: &[f32],
    strategy: Strategy,
    plan: Option<FaultPlan>,
    observed: &[(u64, Vec<u64>)],
) {
    for (extent, coords) in observed {
        let expect = naive_hits(&data[..*extent as usize]);
        assert_eq!(coords, &expect, "{strategy} at extent {extent}: naive filter disagrees");
        let (sealed, sobj) = sealed_world(&data[..*extent as usize]);
        let seng = engine(&sealed, strategy, plan.clone());
        let sout = seng.run(&query(sobj)).unwrap();
        assert_eq!(
            &sout.selection.iter_coords().collect::<Vec<_>>(),
            coords,
            "{strategy} at extent {extent}: interleaved != sealed store"
        );
    }
}

#[test]
fn interleaved_queries_match_sealed_store_all_strategies() {
    let data = gen(PREFIX + APPENDS * CHUNK);
    for strategy in Strategy::ALL {
        // Once with aux maintenance mid-schedule, once fully deferred.
        for maintain_at in [Some(1), None] {
            let observed = run_schedule(&data, strategy, None, maintain_at);
            assert_eq!(observed.len(), APPENDS + 1);
            assert!(observed.iter().all(|(_, c)| !c.is_empty()), "{strategy}: dead test data");
            check_against_sealed(&data, strategy, None, &observed);
        }
    }
}

#[test]
fn interleaved_matches_sealed_under_server_faults() {
    let data = gen(PREFIX + APPENDS * CHUNK);
    for strategy in [Strategy::Histogram, Strategy::HistogramIndex, Strategy::Adaptive] {
        let plan = FaultPlan::seeded(7, 4);
        let observed = run_schedule(&data, strategy, Some(plan.clone()), None);
        check_against_sealed(&data, strategy, Some(plan), &observed);
    }
}

#[test]
fn interleaved_matches_sealed_under_corruption() {
    // Corruption damages the growing store; the sealed baselines stay
    // clean. Verify-and-fallback must heal every read, so Selections
    // still match a pristine store at each extent.
    let data = gen(PREFIX + APPENDS * CHUNK);
    for strategy in Strategy::ALL {
        let plan = FaultPlan::new().with_corruption(CorruptionSpec::new(0.2, 0.3, 0xC0FFEE));
        let (odms, obj) = sealed_world(&data[..PREFIX]);
        let eng = engine(&odms, strategy, Some(plan));
        let q = query(obj);
        let mut damaged = false;
        let mut observed = Vec::new();
        let out = eng.run(&q).unwrap();
        damaged |= out.integrity.any();
        observed.push((out.planned_elements, out.selection.iter_coords().collect::<Vec<_>>()));
        for k in 0..APPENDS {
            let lo = PREFIX + k * CHUNK;
            let hi = PREFIX + (k + 1) * CHUNK;
            odms.append_array(obj, &TypedVec::Float(data[lo..hi].to_vec())).unwrap();
            let out = eng.run(&q).unwrap();
            damaged |= out.integrity.any();
            observed
                .push((out.planned_elements, out.selection.iter_coords().collect::<Vec<_>>()));
        }
        assert!(damaged, "{strategy}: the corruption spec must actually damage something");
        check_against_sealed(&data, strategy, None, &observed);
    }
}

#[test]
fn incremental_histogram_merge_matches_remerge_after_every_append() {
    let data = gen(PREFIX + APPENDS * CHUNK);
    let (odms, obj) = sealed_world(&data[..PREFIX]);
    for k in 0..=APPENDS {
        if k > 0 {
            let lo = PREFIX + (k - 1) * CHUNK;
            let hi = PREFIX + k * CHUNK;
            odms.append_array(obj, &TypedVec::Float(data[lo..hi].to_vec())).unwrap();
        }
        let extent = (PREFIX + k * CHUNK) as u64;
        let hists = odms.meta().region_histograms(obj).unwrap();
        let meta = odms.meta().get(obj).unwrap();
        assert_eq!(hists.len() as u32, meta.num_regions(), "append {k}");
        // Every per-region histogram is internally consistent and
        // accounts for exactly its region's elements.
        for (r, h) in hists.iter().enumerate() {
            let span = meta.region_span(r as u32);
            assert!(h.self_check(span.len), "append {k}, region {r}");
        }
        // The incrementally-folded global histogram is bit-identical to
        // a from-scratch re-merge of the region histograms (the fold
        // Algorithm 1's merge machinery would run on rebuild).
        let global = odms.meta().global_histogram(obj).unwrap();
        let remerged = merge_all(hists.iter()).unwrap();
        assert_eq!(*global.as_ref(), remerged, "append {k}: incremental fold drifted");
        assert_eq!(global.total(), extent, "append {k}: global histogram element count");
    }
}

#[test]
fn deferred_maintenance_never_changes_selections() {
    let data = gen(PREFIX + APPENDS * CHUNK);
    for strategy in Strategy::ALL {
        for plan in [
            None,
            Some(FaultPlan::new().with_corruption(CorruptionSpec::new(0.15, 0.25, 0xBEEF))),
        ] {
            let (odms, obj) = sealed_world(&data[..PREFIX]);
            for k in 0..APPENDS {
                let lo = PREFIX + k * CHUNK;
                let hi = PREFIX + (k + 1) * CHUNK;
                odms.append_array(obj, &TypedVec::Float(data[lo..hi].to_vec())).unwrap();
            }
            let eng = engine(&odms, strategy, plan.clone());
            let q = query(obj);
            let before = eng.run(&q).unwrap();
            let report = odms.run_deferred_maintenance().unwrap();
            // The lazy probe-time rebuilds may have beaten the drain to
            // some regions, but the sorted replica is always stale here.
            assert!(report.sorted_replicas_rebuilt >= 1, "{strategy}: {report:?}");
            // The drain emptied the queue: a second one has nothing to do.
            let again = odms.run_deferred_maintenance().unwrap();
            assert_eq!(
                format!("{again:?}"),
                format!("{:?}", MaintenanceReport::default()),
                "{strategy}: maintenance left work queued"
            );
            let after = eng.run(&q).unwrap();
            assert_eq!(
                before.selection, after.selection,
                "{strategy} (corruption: {}): maintenance changed the selection",
                plan.is_some()
            );
            assert_eq!(before.nhits, after.nhits);
            assert_eq!(
                after.selection.iter_coords().collect::<Vec<_>>(),
                naive_hits(&data[..PREFIX + APPENDS * CHUNK]),
                "{strategy}"
            );
        }
    }
}

/// Deferred maintenance merges only the appended elements into the
/// sorted replica, and what it publishes is the replica a one-shot
/// import at the same extent builds — so every strategy answers alike on
/// the maintained and the one-shot store. A damaged base is not merged
/// into: it is rebuilt from the stored regions and comes out valid.
#[test]
fn maintained_sorted_replica_equals_one_shot_import() {
    let data = gen(PREFIX + APPENDS * CHUNK);
    let (odms, obj) = sealed_world(&data[..PREFIX]);
    for k in 0..APPENDS {
        let lo = PREFIX + k * CHUNK;
        let hi = PREFIX + (k + 1) * CHUNK;
        odms.append_array(obj, &TypedVec::Float(data[lo..hi].to_vec())).unwrap();
        // Every other append, damage the published base first.
        let damaged = k % 2 == 1;
        if damaged {
            let base = odms.meta().sorted_replica(obj).unwrap();
            odms.meta().set_sorted_replica(obj, base.corrupted_copy(k as u64));
        }
        let report = odms.run_deferred_maintenance().unwrap();
        assert_eq!(report.sorted_replicas_rebuilt, 1, "append {k}");
        let merged = if damaged { 0 } else { CHUNK as u64 };
        assert_eq!(report.sorted_elems_merged, merged, "append {k}");
        let (sealed, sobj) = sealed_world(&data[..hi]);
        let replica = odms.meta().sorted_replica(obj).unwrap();
        assert!(replica.self_check(hi as u64), "append {k}");
        assert_eq!(*replica, *sealed.meta().sorted_replica(sobj).unwrap(), "append {k}");
    }
    let (sealed, sobj) = sealed_world(&data);
    for strategy in Strategy::ALL {
        let out = engine(&odms, strategy, None).run(&query(obj)).unwrap();
        let sout = engine(&sealed, strategy, None).run(&query(sobj)).unwrap();
        assert_eq!(out.selection, sout.selection, "{strategy}");
        assert_eq!(out.nhits, sout.nhits, "{strategy}");
        assert_eq!(out.elapsed, sout.elapsed, "{strategy}");
    }
}

/// Streaming ingest maintains the region directory and the joint-bounds
/// grid *incrementally* — the tail region's bounds are updated and each
/// sealed new region inserted on append, and the joint grid is extended
/// to the grown common extent, all without a rebuild — and conjunctive
/// queries routed through the directory stay sealed-consistent at every
/// extent.
#[test]
fn directory_and_joint_bounds_follow_streaming_appends() {
    let total = PREFIX + APPENDS * CHUNK;
    let energy = gen(total);
    let x: Vec<f32> = (0..total).map(|i| 332.0 * i as f32 / total as f32).collect();
    let build_pair = |extent: usize| {
        let odms = Arc::new(Odms::new(4));
        let c = odms.create_container("ingest");
        let e = odms
            .import_array(c, "energy", TypedVec::Float(energy[..extent].to_vec()), &import_opts())
            .unwrap()
            .object;
        let xo = odms
            .import_array(c, "x", TypedVec::Float(x[..extent].to_vec()), &import_opts())
            .unwrap()
            .object;
        (odms, e, xo)
    };
    let (odms, e, xo) = build_pair(PREFIX);
    odms.register_joint_pair(e, xo).unwrap();
    let eng = engine(&odms, Strategy::Histogram, None);
    let q = PdcQuery::range_open(e, 2.1f32, 2.2f32)
        .and(PdcQuery::range_open(xo, 100.0f32, 200.0f32));

    for k in 0..=APPENDS {
        if k > 0 {
            let lo = PREFIX + (k - 1) * CHUNK;
            let hi = PREFIX + k * CHUNK;
            odms.append_array(e, &TypedVec::Float(energy[lo..hi].to_vec())).unwrap();
            odms.append_array(xo, &TypedVec::Float(x[lo..hi].to_vec())).unwrap();
        }
        let extent = PREFIX + k * CHUNK;
        // The directory tracked the append without a rebuild: it indexes
        // every region and its bounds agree with the (incrementally
        // maintained) region histograms.
        for obj in [e, xo] {
            let meta = odms.meta().get(obj).unwrap();
            let dir = odms.meta().directory(obj).expect("directory survives appends");
            assert!(dir.self_check(meta.num_regions()), "append {k}");
            let hists = odms.meta().region_histograms(obj).unwrap();
            for r in 0..meta.num_regions() {
                let h = &hists[r as usize];
                assert_eq!(
                    dir.region_bounds(r),
                    Some((h.min(), h.max())),
                    "append {k}, region {r}: directory bounds drifted from histograms"
                );
            }
        }
        // The joint grid extended to the grown common extent.
        let grid = odms.meta().joint_grid(e, xo).unwrap();
        assert_eq!(grid.covered(), extent as u64, "append {k}: joint coverage lags");
        assert!(grid.self_check(), "append {k}");
        // And the conjunctive query, routed through the directory, stays
        // sealed-consistent.
        let out = eng.run(&q).unwrap();
        let expect: Vec<u64> = (0..extent as u64)
            .filter(|&i| {
                let ev = energy[i as usize] as f64;
                let xv = x[i as usize] as f64;
                ev > 2.1 && ev < 2.2 && xv > 100.0 && xv < 200.0
            })
            .collect();
        assert_eq!(
            out.selection.iter_coords().collect::<Vec<_>>(),
            expect,
            "append {k}: interleaved directory-routed query disagrees with naive filter"
        );
        let (sealed, se, sx) = build_pair(extent);
        sealed.register_joint_pair(se, sx).unwrap();
        let seng = engine(&sealed, Strategy::Histogram, None);
        let sq = PdcQuery::range_open(se, 2.1f32, 2.2f32)
            .and(PdcQuery::range_open(sx, 100.0f32, 200.0f32));
        let sout = seng.run(&sq).unwrap();
        assert_eq!(out.selection, sout.selection, "append {k}: interleaved != sealed");
    }
}

/// A real two-thread schedule: a writer streams appends while a reader
/// runs the same range query in a loop. Every outcome the reader sees
/// must carry a registered extent and match the sealed baseline at that
/// extent — queries are linearized at plan time, never torn mid-append.
#[test]
fn concurrent_ingest_reader_sees_sealed_consistent_snapshots() {
    let data = Arc::new(gen(PREFIX + APPENDS * CHUNK));
    for strategy in [Strategy::Histogram, Strategy::Adaptive] {
        let (odms, obj) = sealed_world(&data[..PREFIX]);
        let eng = engine(&odms, strategy, None);
        let q = query(obj);

        let writer_odms = Arc::clone(&odms);
        let writer_data = Arc::clone(&data);
        let writer = std::thread::spawn(move || {
            for k in 0..APPENDS {
                let lo = PREFIX + k * CHUNK;
                let hi = PREFIX + (k + 1) * CHUNK;
                writer_odms
                    .append_array(obj, &TypedVec::Float(writer_data[lo..hi].to_vec()))
                    .unwrap();
                std::thread::yield_now();
            }
            writer_odms.run_deferred_maintenance().unwrap();
        });

        let mut observed: Vec<(u64, Vec<u64>)> = Vec::new();
        while !writer.is_finished() {
            let out = eng.run(&q).unwrap();
            observed.push((out.planned_elements, out.selection.iter_coords().collect()));
        }
        writer.join().unwrap();
        // One more after the writer is done: the full extent.
        let out = eng.run(&q).unwrap();
        observed.push((out.planned_elements, out.selection.iter_coords().collect()));
        assert_eq!(out.planned_elements, (PREFIX + APPENDS * CHUNK) as u64);

        let valid_extents: Vec<u64> =
            (0..=APPENDS).map(|k| (PREFIX + k * CHUNK) as u64).collect();
        for (extent, coords) in &observed {
            assert!(
                valid_extents.contains(extent),
                "{strategy}: torn extent {extent} observed mid-append"
            );
            assert_eq!(
                coords,
                &naive_hits(&data[..*extent as usize]),
                "{strategy} at extent {extent}: concurrent reader saw wrong hits"
            );
        }
    }
}
