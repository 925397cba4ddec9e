//! Fig. 5: queries with both metadata and data constraints on the
//! BOSS-like catalog (§VI-C).
//!
//! The metadata condition (`RADEG=153.17 AND DECDEG=23.06`) selects
//! exactly 1000 objects; the data condition on `flux` sweeps 11 %–65 %
//! selectivity. The paper's observations: PDC resolves the metadata
//! condition "instantly" from its metadata service, while HDF5 must
//! traverse every file; and because each BOSS object is a single region
//! that is read wholly, PDC's total time barely varies with the data
//! selectivity.

use pdc_baseline::Hdf5Baseline;
use pdc_bench::*;
use pdc_odms::{ImportOptions, Odms};
use pdc_query::{QueryEngine, Strategy};
use pdc_types::Interval;
use pdc_workloads::{boss_flux_catalog, BossConfig, BossData};
use std::sync::Arc;

fn main() {
    let scale = Scale::from_env();
    println!(
        "# Fig. 5 — metadata + data queries on the BOSS catalog, {} objects, {} servers\n",
        scale.boss_objects, scale.servers
    );
    let odms = Arc::new(Odms::new(64));
    let cfg = BossConfig {
        objects: scale.boss_objects,
        matching_objects: 1_000.min(scale.boss_objects / 2),
        values_per_object: 512,
        seed: scale.seed,
    };
    let opts = ImportOptions { build_index: true, ..Default::default() };
    let boss = BossData::generate_and_import(&odms, &cfg, &opts).expect("import BOSS");
    println!(
        "catalog: {} objects, {} designated (RA, Dec) matches, {} flux values\n",
        boss.objects.len(),
        boss.matching.len(),
        boss.total_values
    );

    // The BOSS data scale factor: 25 million objects in the paper.
    let factor = 25e6 / boss.objects.len() as f64;
    let cost = pdc_storage::CostModel::scaled(factor, factor * scale.servers as f64 / 64.0, 1.0);
    let baseline = Hdf5Baseline::new(cost, scale.servers);
    let make_engine = |strategy| {
        QueryEngine::new(Arc::clone(&odms), engine_config(strategy, scale.servers, cost))
    };
    let engines = [make_engine(Strategy::Histogram), make_engine(Strategy::HistogramIndex)];

    // Matching flux arrays for the baseline's traversal.
    let matching_flux: Vec<Vec<f32>> = boss
        .matching
        .iter()
        .map(|&o| match &*odms.read_region(o, 0).expect("flux") {
            pdc_types::TypedVec::Float(v) => v.clone(),
            other => panic!("unexpected type {other:?}"),
        })
        .collect();

    let mut table = Table::new(&[
        "flux condition",
        "target sel",
        "achieved sel",
        "nhits",
        "HDF5 traversal",
        "PDC-H",
        "PDC-HI",
    ]);
    // Warm-up pass (paper reports best-of-5).
    for spec in boss_flux_catalog() {
        let bound = BossData::flux_bound_for_selectivity(spec.selectivity);
        let iv = Interval::open(0.0, bound);
        for eng in &engines {
            eng.metadata_data_query(&BossData::target_conds(), &iv).expect("warm-up");
        }
    }
    for spec in boss_flux_catalog() {
        let bound = BossData::flux_bound_for_selectivity(spec.selectivity);
        let iv = Interval::open(0.0, bound);
        let h5 = baseline.boss_traversal(boss.objects.len() as u64, &matching_flux, &iv);
        let h = engines[0].metadata_data_query(&BossData::target_conds(), &iv).expect("PDC-H");
        let hi = engines[1].metadata_data_query(&BossData::target_conds(), &iv).expect("PDC-HI");
        assert_eq!(h.nhits, h5.nhits, "baseline disagrees");
        assert_eq!(h.nhits, hi.nhits, "strategies disagree");
        assert_eq!(h.objects_matched, boss.matching.len() as u64);
        let achieved = h.nhits as f64
            / (boss.matching.len() as f64 * cfg.values_per_object as f64);
        table.row(vec![
            format!("0 < flux < {bound:.2}"),
            fmt_sel(spec.selectivity),
            fmt_sel(achieved),
            h.nhits.to_string(),
            fmt_dur(h5.total()),
            fmt_dur(h.elapsed),
            fmt_dur(hi.elapsed),
        ]);
    }
    table.print();
    println!(
        "\nshape: PDC metadata resolution is instant (inverted index); HDF5 must open all {} \
         files — the paper's multi-fold speedup. PDC times vary little with selectivity because \
         each object is one region, read wholly.",
        boss.objects.len()
    );
}
