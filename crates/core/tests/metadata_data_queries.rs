//! Integration tests for the combined metadata + data query path
//! (the H5BOSS scenario of §VI-C).

use pdc_odms::{ImportOptions, MetaValue, Odms};
use pdc_query::{EngineConfig, QueryEngine, Strategy};
use pdc_server::{CorruptionSpec, FaultPlan};
use pdc_types::{Interval, TypedVec};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A small catalog: `n` objects, the first `matching` of which carry the
/// designated (RA, Dec) pair; flux values are deterministic.
fn catalog(n: usize, matching: usize, with_index: bool) -> (Arc<Odms>, Vec<Vec<f32>>) {
    let odms = Arc::new(Odms::new(8));
    let c = odms.create_container("boss");
    let mut fluxes = Vec::new();
    for i in 0..n {
        let flux: Vec<f32> = (0..64).map(|k| ((i * 31 + k * 7) % 200) as f32 / 4.0).collect();
        let mut attrs = BTreeMap::new();
        if i < matching {
            attrs.insert("RADEG".to_string(), MetaValue::F64(153.17));
            attrs.insert("DECDEG".to_string(), MetaValue::F64(23.06));
        } else {
            attrs.insert("RADEG".to_string(), MetaValue::F64(i as f64));
            attrs.insert("DECDEG".to_string(), MetaValue::F64(-(i as f64)));
        }
        let opts = ImportOptions {
            region_bytes: 256,
            build_index: with_index,
            attrs,
            ..Default::default()
        };
        let report =
            odms.import_array(c, &format!("fiber{i}"), TypedVec::Float(flux.clone()), &opts)
                .unwrap();
        let _ = report;
        fluxes.push(flux);
    }
    (odms, fluxes)
}

fn conds() -> [(&'static str, MetaValue); 2] {
    [("RADEG", MetaValue::F64(153.17)), ("DECDEG", MetaValue::F64(23.06))]
}

fn engine(odms: &Arc<Odms>, strategy: Strategy, servers: u32) -> QueryEngine {
    faulty_engine(odms, strategy, servers, None)
}

fn faulty_engine(
    odms: &Arc<Odms>,
    strategy: Strategy,
    servers: u32,
    fault_plan: Option<FaultPlan>,
) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(odms),
        EngineConfig { strategy, num_servers: servers, fault_plan, ..Default::default() },
    )
}

#[test]
fn counts_match_naive_across_strategies() {
    let (odms, fluxes) = catalog(120, 30, true);
    let iv = Interval::open(0.0, 20.0);
    let expect: u64 = fluxes[..30]
        .iter()
        .flat_map(|f| f.iter())
        .filter(|&&v| iv.contains(v as f64))
        .count() as u64;
    for strategy in [Strategy::FullScan, Strategy::Histogram, Strategy::HistogramIndex] {
        let eng = engine(&odms, strategy, 4);
        let out = eng.metadata_data_query(&conds(), &iv).unwrap();
        assert_eq!(out.objects_matched, 30);
        assert_eq!(out.nhits, expect, "{strategy}");
        assert_eq!(out.per_object_hits.len(), 30);
    }
}

#[test]
fn per_object_hits_are_exact() {
    let (odms, fluxes) = catalog(40, 10, false);
    let iv = Interval::closed(5.0, 15.0);
    let eng = engine(&odms, Strategy::Histogram, 3);
    let out = eng.metadata_data_query(&conds(), &iv).unwrap();
    // per-object hits are sorted by object id == import order here
    for (k, &(_, hits)) in out.per_object_hits.iter().enumerate() {
        let expect =
            fluxes[k].iter().filter(|&&v| iv.contains(v as f64)).count() as u64;
        assert_eq!(hits, expect, "object {k}");
    }
}

#[test]
fn no_matching_metadata_is_empty_and_fast() {
    let (odms, _) = catalog(50, 10, false);
    let eng = engine(&odms, Strategy::Histogram, 4);
    let out = eng
        .metadata_data_query(&[("RADEG", MetaValue::F64(999.0))], &Interval::ALL)
        .unwrap();
    assert_eq!(out.objects_matched, 0);
    assert_eq!(out.nhits, 0);
    assert_eq!(out.io.pfs_bytes_read, 0, "no object may be read");
}

#[test]
fn histogram_pruning_skips_impossible_flux_ranges() {
    let (odms, _) = catalog(60, 20, false);
    // All flux values are < 50; a (1000, 2000) window prunes everything.
    let eng = engine(&odms, Strategy::Histogram, 4);
    let out = eng.metadata_data_query(&conds(), &Interval::open(1000.0, 2000.0)).unwrap();
    assert_eq!(out.nhits, 0);
    assert_eq!(out.io.pfs_bytes_read, 0, "histograms must prune every region");
}

#[test]
fn results_independent_of_server_count() {
    let (odms, _) = catalog(100, 25, true);
    let iv = Interval::open(10.0, 30.0);
    let reference = engine(&odms, Strategy::Histogram, 1)
        .metadata_data_query(&conds(), &iv)
        .unwrap();
    for servers in [2u32, 5, 16, 64] {
        for strategy in [Strategy::Histogram, Strategy::HistogramIndex] {
            let out = engine(&odms, strategy, servers)
                .metadata_data_query(&conds(), &iv)
                .unwrap();
            assert_eq!(out.nhits, reference.nhits, "{strategy} x{servers}");
            assert_eq!(out.per_object_hits, reference.per_object_hits);
        }
    }
}

#[test]
fn metadata_resolution_reported_separately() {
    let (odms, _) = catalog(50, 10, false);
    let eng = engine(&odms, Strategy::Histogram, 4);
    let out = eng.metadata_data_query(&conds(), &Interval::open(0.0, 10.0)).unwrap();
    assert!(out.metadata_elapsed < out.elapsed);
    assert!(out.metadata_elapsed.as_secs_f64() > 0.0);
}

/// The integrity preflight runs before dispatch, as it does for `run`:
/// corrupt region histograms are rebuilt before they prune, and corrupt
/// data regions are repaired on read.
#[test]
fn counts_are_exact_under_corruption() {
    let iv = Interval::open(0.0, 20.0);
    for seed in 0..8 {
        let (odms, fluxes) = catalog(120, 60, true);
        let expect: u64 = fluxes[..60]
            .iter()
            .flat_map(|f| f.iter())
            .filter(|&&v| iv.contains(v as f64))
            .count() as u64;
        assert_eq!(expect, 1_524);
        let plan = FaultPlan::new().with_corruption(CorruptionSpec::new(0.3, 0.5, seed));
        let eng = faulty_engine(&odms, Strategy::Histogram, 4, Some(plan));
        let out = eng.metadata_data_query(&conds(), &iv).unwrap();
        assert_eq!(out.nhits, expect, "corruption seed {seed}");
    }
}

/// A killed server's objects fail over to a survivor, as a `run` does.
#[test]
fn killed_server_fails_over() {
    let (odms, _) = catalog(120, 60, true);
    let iv = Interval::open(0.0, 20.0);
    let healthy = engine(&odms, Strategy::Histogram, 4).metadata_data_query(&conds(), &iv).unwrap();
    let eng = faulty_engine(&odms, Strategy::Histogram, 4, Some(FaultPlan::kill(&[1])));
    let out = eng.metadata_data_query(&conds(), &iv).unwrap();
    assert_eq!(out.nhits, healthy.nhits);
    assert_eq!(out.per_object_hits, healthy.per_object_hits);
    assert!(out.elapsed > healthy.elapsed, "failover costs time");
}
