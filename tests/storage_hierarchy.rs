//! The deep memory hierarchy end to end: staging objects across tiers
//! changes simulated cost but never answers.

use pdc_suite::odms::{ImportOptions, Odms};
use pdc_suite::query::{EngineConfig, PdcQuery, QueryEngine, Strategy};
use pdc_suite::storage::StorageTier;
use pdc_suite::types::{ObjectId, QueryOp, TypedVec};
use std::sync::Arc;

fn world() -> (Arc<Odms>, ObjectId, Vec<f32>) {
    let odms = Arc::new(Odms::new(4));
    let c = odms.create_container("tiers");
    let data: Vec<f32> = (0..40_000).map(|i| ((i * 17) % 400) as f32 / 10.0).collect();
    let opts = ImportOptions { region_bytes: 8192, ..Default::default() };
    let obj = odms.import_array(c, "v", TypedVec::Float(data.clone()), &opts).unwrap().object;
    (odms, obj, data)
}

/// Engine with caching disabled so the tier cost is what we measure.
fn engine(odms: &Arc<Odms>) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(odms),
        EngineConfig {
            strategy: Strategy::Histogram,
            num_servers: 4,
            cache_bytes_per_server: 0,
            ..Default::default()
        },
    )
}

#[test]
fn tier_ladder_orders_simulated_cost() {
    let q_of = |obj| PdcQuery::create(obj, QueryOp::Lt, 10.0f32);
    let mut elapsed = Vec::new();
    let mut nhits = Vec::new();
    for tier in [StorageTier::Pfs, StorageTier::BurstBuffer, StorageTier::Dram] {
        let (odms, obj, _) = world();
        odms.stage_object(obj, tier).unwrap();
        let out = engine(&odms).run(&q_of(obj)).unwrap();
        elapsed.push(out.elapsed);
        nhits.push(out.nhits);
    }
    assert_eq!(nhits[0], nhits[1]);
    assert_eq!(nhits[1], nhits[2]);
    assert!(
        elapsed[0] > elapsed[1] && elapsed[1] > elapsed[2],
        "PFS {} > BB {} > DRAM {} expected",
        elapsed[0],
        elapsed[1],
        elapsed[2]
    );
}

#[test]
fn metadata_snapshot_survives_engine_restart() {
    // Snapshot, rebuild a "restarted" system over the same store, and
    // answer queries identically — the §II fault-tolerance story.
    let (odms, obj, data) = world();
    let q = PdcQuery::range_open(obj, 5.0f32, 15.0f32);
    let before = engine(&odms).run(&q).unwrap();

    let snap = odms.meta().snapshot();
    let restarted = Arc::new(Odms::new(4));
    let meta = odms.meta().get(obj).unwrap();
    for r in 0..meta.num_regions() {
        let rid = pdc_suite::types::RegionId::new(obj, r);
        let (payload, tier) = odms.store().get(rid).unwrap();
        restarted.store().put(rid, payload, tier);
    }
    restarted.restore_metadata(&snap).unwrap();

    let after = engine(&restarted).run(&q).unwrap();
    assert_eq!(after.selection, before.selection);
    let expect = data.iter().filter(|&&v| v > 5.0 && v < 15.0).count() as u64;
    assert_eq!(after.nhits, expect);
}

#[test]
fn query_tag_api_resolves_with_timing() {
    let odms = Arc::new(Odms::new(4));
    let c = odms.create_container("tags");
    for i in 0..50 {
        let mut attrs = std::collections::BTreeMap::new();
        attrs.insert(
            "run".to_string(),
            pdc_suite::odms::MetaValue::I64((i % 5) as i64),
        );
        odms.import_array(
            c,
            &format!("o{i}"),
            TypedVec::Float(vec![0.0; 16]),
            &ImportOptions { attrs, ..Default::default() },
        )
        .unwrap();
    }
    let eng = engine(&odms);
    let (ids, elapsed) = eng.query_tag(&[("run", pdc_suite::odms::MetaValue::I64(3))]);
    assert_eq!(ids.len(), 10);
    assert!(elapsed.as_secs_f64() > 0.0);
    let (none, _) = eng.query_tag(&[("run", pdc_suite::odms::MetaValue::I64(99))]);
    assert!(none.is_empty());
}
