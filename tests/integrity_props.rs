//! Property-based data-plane integrity testing: deterministic corruption
//! of stored regions and auxiliary structures never changes what a query
//! returns — only its integrity counters and the `integrity` cost lane —
//! and snapshot restore survives torn or bit-flipped frames without ever
//! panicking.

use pdc_suite::odms::{ImportOptions, MetadataSnapshot, Odms, SnapshotJournal};
use pdc_suite::query::{EngineConfig, PdcQuery, QueryEngine, Strategy};
use pdc_suite::server::{CorruptionSpec, FaultPlan};
use pdc_suite::storage::bytes::Bytes;
use pdc_suite::types::{ObjectId, PdcError, TypedVec};
use proptest::prelude::*;
use std::sync::Arc;

const N: usize = 3_000;

fn build_world(seed: u32) -> (Arc<Odms>, ObjectId, Vec<f32>) {
    let s = seed as f32;
    let data: Vec<f32> =
        (0..N).map(|i| ((i as f32 * 0.003 + s).sin() + 1.0) * 5.0).collect();
    let odms = Arc::new(Odms::new(4));
    let c = odms.create_container("integrity-prop");
    let opts = ImportOptions {
        region_bytes: 2048,
        build_index: true,
        build_sorted: true,
        ..Default::default()
    };
    let obj = odms.import_array(c, "v", TypedVec::Float(data.clone()), &opts).unwrap().object;
    (odms, obj, data)
}

fn engine(
    odms: &Arc<Odms>,
    strategy: Strategy,
    servers: u32,
    plan: Option<FaultPlan>,
) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(odms),
        EngineConfig { strategy, num_servers: servers, fault_plan: plan, ..Default::default() },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// The acceptance criterion: corrupting up to 20% of the data regions
    /// (and up to half the aux structures) of every object yields results
    /// bit-identical to the uncorrupted run, under every strategy.
    #[test]
    fn corruption_never_changes_results(
        world_seed in 0u32..4,
        corrupt_seed in any::<u64>(),
        servers in 2u32..6,
        data_frac in 0.0f64..0.2,
        aux_frac in 0.0f64..0.5,
        lo in 0.0f32..5.0,
        width in 0.1f32..5.0,
    ) {
        let (odms, obj, data) = build_world(world_seed);
        let hi = lo + width;
        let q = PdcQuery::range_open(obj, lo, hi);
        let expect = data.iter().filter(|&&v| v > lo && v < hi).count() as u64;
        let plan = FaultPlan::new()
            .with_corruption(CorruptionSpec::new(data_frac, aux_frac, corrupt_seed));
        for strategy in Strategy::ALL {
            let clean = engine(&odms, strategy, servers, None).run(&q).unwrap();
            prop_assert_eq!(clean.nhits, expect, "{}: clean baseline wrong", strategy);
            prop_assert!(!clean.integrity.any(), "{}: clean run saw integrity events", strategy);
            let corrupted = engine(&odms, strategy, servers, Some(plan.clone()))
                .run(&q)
                .unwrap_or_else(|e| panic!("{strategy} seed {corrupt_seed}: {e}"));
            prop_assert_eq!(corrupted.nhits, clean.nhits, "{} seed {}", strategy, corrupt_seed);
            prop_assert_eq!(
                &corrupted.selection, &clean.selection,
                "{} seed {}: selection diverged", strategy, corrupt_seed
            );
        }
    }

    /// The damage timeline is deterministic: two engines configured with
    /// the same corruption spec report identical integrity counters and
    /// identical cost breakdowns — including the integrity lane.
    #[test]
    fn same_corruption_seed_same_costs(
        world_seed in 0u32..4,
        corrupt_seed in any::<u64>(),
        servers in 2u32..6,
        data_frac in 0.0f64..0.2,
    ) {
        let (odms, obj, _) = build_world(world_seed);
        let q = PdcQuery::range_open(obj, 1.0f32, 7.0f32);
        let plan = FaultPlan::new()
            .with_corruption(CorruptionSpec::new(data_frac, 0.4, corrupt_seed));
        for strategy in Strategy::ALL {
            let a = engine(&odms, strategy, servers, Some(plan.clone())).run(&q).unwrap();
            let b = engine(&odms, strategy, servers, Some(plan.clone())).run(&q).unwrap();
            prop_assert_eq!(a.integrity, b.integrity, "{} seed {}", strategy, corrupt_seed);
            prop_assert_eq!(a.breakdown, b.breakdown, "{} seed {}", strategy, corrupt_seed);
            prop_assert_eq!(a.elapsed, b.elapsed, "{} seed {}", strategy, corrupt_seed);
            prop_assert_eq!(&a.per_server, &b.per_server, "{} seed {}", strategy, corrupt_seed);
        }
    }

    /// Corruption composes with server faults: a plan drawing crashes,
    /// slowdowns, transient errors AND corruption still returns the exact
    /// clean-run results.
    #[test]
    fn corruption_composes_with_server_faults(
        world_seed in 0u32..4,
        seed in any::<u64>(),
        servers in 2u32..6,
    ) {
        let (odms, obj, _) = build_world(world_seed);
        let q = PdcQuery::range_open(obj, 2.0f32, 6.0f32);
        let plan = FaultPlan::seeded_with_corruption(seed, servers, 0.1, 0.3);
        for strategy in Strategy::ALL {
            let clean = engine(&odms, strategy, servers, None).run(&q).unwrap();
            let stressed = engine(&odms, strategy, servers, Some(plan.clone()))
                .run(&q)
                .unwrap_or_else(|e| panic!("{strategy} seed {seed}: {e}"));
            prop_assert_eq!(&stressed.selection, &clean.selection,
                "{} seed {}", strategy, seed);
        }
    }
}

/// Deterministic end-to-end check that corruption is actually detected
/// and paid for: a meaningful fraction must produce nonzero integrity
/// counters, a nonzero integrity lane, and a second (clean) run with
/// neither.
#[test]
fn corruption_is_detected_and_charged_then_heals() {
    use pdc_suite::storage::SimDuration;
    let (odms, obj, data) = build_world(1);
    let q = PdcQuery::range_open(obj, 2.0f32, 7.0f32);
    let expect = data.iter().filter(|&&v| v > 2.0 && v < 7.0).count() as u64;
    let plan = FaultPlan::new().with_corruption(CorruptionSpec::new(0.2, 0.5, 7));
    let eng = engine(&odms, Strategy::Histogram, 4, Some(plan));
    let first = eng.run(&q).unwrap();
    assert_eq!(first.nhits, expect);
    assert!(first.integrity.checksum_failures > 0, "{:?}", first.integrity);
    assert_eq!(first.integrity.repaired_regions, first.integrity.checksum_failures);
    assert!(first.breakdown.integrity > SimDuration::ZERO);
    assert_eq!(
        first.breakdown.total(),
        first.breakdown.io
            + first.breakdown.cpu
            + first.breakdown.net
            + first.breakdown.failover
            + first.breakdown.integrity
    );
    // Everything was repaired in place: the second run is clean.
    let second = eng.run(&q).unwrap();
    assert_eq!(second.nhits, expect);
    assert!(!second.integrity.any(), "{:?}", second.integrity);
    assert_eq!(second.breakdown.integrity, SimDuration::ZERO);
}

// ---------------------------------------------------------------------------
// Snapshot robustness: torn writes and bit flips (satellite of the same
// integrity story — the metadata snapshot is the other durable artifact).
// ---------------------------------------------------------------------------

fn sample_snapshot() -> (Arc<Odms>, MetadataSnapshot) {
    let (odms, _, _) = build_world(0);
    let snap = odms.meta().snapshot();
    (odms, snap)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// A truncated (torn-write) latest frame never panics: the journal
    /// recovers from the newest older frame that verifies.
    #[test]
    fn torn_latest_frame_recovers_from_journal(
        cut_frac in 0.0f64..1.0,
        keep in 2usize..5,
    ) {
        let (odms, snap) = sample_snapshot();
        let good = snap.to_bytes();
        let cut = ((good.len() as f64) * cut_frac) as usize;
        let mut journal = SnapshotJournal::new(keep);
        journal.append(&snap);
        journal.push_raw(Bytes::from(good[..cut.min(good.len() - 1)].to_vec()));
        let (recovered, skipped) = journal.recover().unwrap();
        prop_assert_eq!(skipped, 1, "torn latest frame must be skipped");
        prop_assert_eq!(&recovered, &snap);
        // And the recovered snapshot restores onto a live system.
        prop_assert_eq!(journal.restore_into(&odms).unwrap(), 1);
    }

    /// Any single bit flip anywhere in a snapshot frame is caught by the
    /// frame validation (magic/format/length) or the checksum — a typed
    /// `SnapshotCorrupt`, never a panic, never a silently wrong restore.
    #[test]
    fn bit_flipped_frame_is_typed_error(
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let (_, snap) = sample_snapshot();
        let good = snap.to_bytes();
        let pos = (((good.len() - 1) as f64) * pos_frac) as usize;
        let mut bad = good.to_vec();
        bad[pos] ^= 1 << bit;
        match MetadataSnapshot::from_bytes(&bad) {
            Err(PdcError::SnapshotCorrupt(_)) => {}
            Err(other) => prop_assert!(false, "wrong error type: {other:?}"),
            Ok(_) => prop_assert!(false, "flip at byte {pos} bit {bit} went undetected"),
        }
    }

    /// A journal holding only damaged frames reports a typed error.
    #[test]
    fn journal_of_damaged_frames_is_typed_error(
        cut_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let (_, snap) = sample_snapshot();
        let good = snap.to_bytes();
        let cut = ((good.len() as f64) * cut_frac) as usize;
        let mut flipped = good.to_vec();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 1 << bit;
        let mut journal = SnapshotJournal::new(4);
        journal.push_raw(Bytes::from(good[..cut.min(good.len() - 1)].to_vec()));
        journal.push_raw(Bytes::from(flipped));
        match journal.recover() {
            Err(PdcError::SnapshotCorrupt(_)) => {}
            other => prop_assert!(false, "expected SnapshotCorrupt, got {other:?}"),
        }
    }
}
