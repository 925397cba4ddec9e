//! One publication per object: what a reader of the metadata registry can
//! observe while writers publish.
//!
//! 1. A snapshot captured while appends land always pins one consistent
//!    object: exactly one histogram per region, a directory over exactly
//!    those regions, and a global histogram that is the sum of the local
//!    ones.
//! 2. Server-side sorted residency follows the replica's version: after
//!    an append and deferred maintenance republish the replica, its
//!    regions are read cold, exactly as a fresh engine reads them.

use pdc_odms::{ImportOptions, Odms};
use pdc_query::{EngineConfig, MetaSnapshot, PdcQuery, QueryEngine, Strategy};
use pdc_types::{ObjectId, TypedVec};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// `n` values `((i · 7919) mod 1000) / 100` starting at coordinate `from`.
fn values(from: usize, n: usize) -> TypedVec {
    TypedVec::Float((from..from + n).map(|i| ((i * 7919) % 1000) as f32 / 100.0).collect())
}

fn world(n: usize, region_bytes: u64) -> (Arc<Odms>, ObjectId) {
    let odms = Arc::new(Odms::new(4));
    let c = odms.create_container("versions");
    let opts =
        ImportOptions { region_bytes, build_index: true, build_sorted: true, ..Default::default() };
    let obj = odms.import_array(c, "e", values(0, n), &opts).unwrap().object;
    (odms, obj)
}

/// Every check a pinned version must pass, whenever it was captured.
fn assert_consistent(snap: &MetaSnapshot, obj: ObjectId) {
    let v = snap.version(obj).unwrap();
    let regions = v.meta.num_regions() as usize;
    let hists = v.region_hists.as_ref().expect("histograms");
    assert_eq!(hists.len(), regions, "one histogram per region");
    if let Some(dir) = &v.directory {
        assert_eq!(dir.num_regions() as usize, regions, "directory over exactly the regions");
    }
    let total: u64 = hists.iter().map(|h| h.total()).sum();
    assert_eq!(v.global_hist.as_ref().expect("global").total(), total, "global = sum of locals");
    assert_eq!(total, v.meta.num_elements(), "histograms cover the extent");
}

#[test]
fn snapshots_captured_during_appends_are_consistent() {
    let (odms, obj) = world(20_000, 8 << 10);
    let done = AtomicBool::new(false);
    let captured = std::thread::scope(|s| {
        s.spawn(|| {
            for k in 0..20 {
                // 3 500 is not a multiple of the 2 048-element region, so
                // appends fill tails, seal regions and open new ones.
                odms.append_array(obj, &values(20_000 + k * 3_500, 3_500)).unwrap();
            }
            done.store(true, Ordering::Release);
        });
        let mut captured = 0u32;
        while !done.load(Ordering::Acquire) {
            assert_consistent(&MetaSnapshot::capture(&odms, &[obj]).unwrap(), obj);
            captured += 1;
        }
        captured
    });
    let last = MetaSnapshot::capture(&odms, &[obj]).unwrap();
    assert_consistent(&last, obj);
    assert_eq!(last.meta(obj).unwrap().num_elements(), 90_000);
    assert!(captured > 0);
}

/// The band `-1 < e < 0.3` lies in sorted region 0 before and after the
/// append. Once maintenance republishes the replica, the engine that read
/// the old replica's region 0 must pay for the new one as a cold read.
#[test]
fn republished_sorted_replica_is_read_cold() {
    for strategy in [Strategy::SortedHistogram, Strategy::Adaptive] {
        let (odms, obj) = world(64_000, 16 << 10);
        let cfg = EngineConfig { strategy, num_servers: 4, ..Default::default() };
        let q = PdcQuery::range_open(obj, -1.0f32, 0.3f32);
        let engine = QueryEngine::new(Arc::clone(&odms), cfg.clone());
        engine.run(&q).unwrap();
        let warm = engine.run(&q).unwrap();
        assert_eq!(warm.io.pfs_read_requests, 0, "{strategy}: the second run is warm");

        odms.append_array(obj, &values(64_000, 8_000)).unwrap();
        odms.run_deferred_maintenance().unwrap();
        let after = engine.run(&q).unwrap();
        let fresh = QueryEngine::new(Arc::clone(&odms), cfg).run(&q).unwrap();
        assert!(after.sorted_hint.is_some(), "{strategy}: the band answers");
        assert_eq!(after.selection, fresh.selection, "{strategy}");
        assert_eq!(after.io, fresh.io, "{strategy}: charged as a fresh engine's first read");
        assert_eq!((after.io.cache_hits, after.io.pfs_read_requests), (0, 1), "{strategy}");
        // The fresh engine also pays the one-time metadata distribution.
        assert_eq!(after.elapsed.as_nanos(), 960_666, "{strategy}");
    }
}
