//! The BOSS-like object catalog (paper §VI-C).
//!
//! H5BOSS holds ~25 million small objects (fiber spectra), each with rich
//! metadata. We generate a scaled catalog: every object carries
//! `RADEG`/`DECDEG`/`PLATE` attributes and a per-fiber `flux` array; one
//! designated (RA, Dec) pair is shared by exactly
//! [`BossConfig::matching_objects`] objects, so the paper's metadata query
//! (`RADEG=153.17 AND DECDEG=23.06`, selecting 1000 objects) reproduces at
//! any scale.

use crate::dist;
use pdc_odms::{ImportOptions, MetaValue, Odms};
use pdc_types::{ObjectId, PdcResult, TypedVec};
use rand::Rng;
use std::collections::BTreeMap;

/// The paper's metadata query constants.
pub const TARGET_RADEG: f64 = 153.17;
/// See [`TARGET_RADEG`].
pub const TARGET_DECDEG: f64 = 23.06;
/// Mean of the flux exponential distribution.
pub const FLUX_MEAN: f64 = 15.0;

/// Generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct BossConfig {
    /// Total number of objects (the paper has ~25 million).
    pub objects: usize,
    /// Objects sharing the designated (RA, Dec) pair (paper: 1000).
    pub matching_objects: usize,
    /// Flux values per object (spectra are a few thousand samples).
    pub values_per_object: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BossConfig {
    fn default() -> Self {
        Self { objects: 5_000, matching_objects: 1_000, values_per_object: 512, seed: 0xB055 }
    }
}

/// A generated BOSS-like catalog, already imported into an ODMS.
#[derive(Debug)]
pub struct BossData {
    /// All object ids, in import order.
    pub objects: Vec<ObjectId>,
    /// The ids carrying the designated (RA, Dec) pair.
    pub matching: Vec<ObjectId>,
    /// Total flux values imported.
    pub total_values: u64,
    /// Total data bytes imported.
    pub total_bytes: u64,
}

impl BossData {
    /// Generate and import the catalog. `opts` controls indexing; region
    /// size is forced to cover a whole object ("each object has one region
    /// only in PDC-Query").
    pub fn generate_and_import(
        odms: &Odms,
        cfg: &BossConfig,
        opts: &ImportOptions,
    ) -> PdcResult<BossData> {
        let container = odms.create_container("h5boss");
        let mut rng = dist::rng(cfg.seed);
        let mut objects = Vec::with_capacity(cfg.objects);
        let mut matching = Vec::with_capacity(cfg.matching_objects);
        let mut total_values = 0u64;
        let mut total_bytes = 0u64;

        for i in 0..cfg.objects {
            let is_match = i < cfg.matching_objects;
            // Spread non-matching objects over a quantized sky grid; a
            // collision with the target pair is excluded by construction.
            let (ra, dec) = if is_match {
                (TARGET_RADEG, TARGET_DECDEG)
            } else {
                let ra = (rng.gen_range(0.0f64..360.0) * 100.0).round() / 100.0;
                let dec = (rng.gen_range(-30.0f64..60.0) * 100.0).round() / 100.0;
                if (ra - TARGET_RADEG).abs() < 1e-9 && (dec - TARGET_DECDEG).abs() < 1e-9 {
                    (ra + 0.01, dec)
                } else {
                    (ra, dec)
                }
            };
            let flux: Vec<f32> = (0..cfg.values_per_object)
                .map(|_| dist::exponential(&mut rng, 1.0 / FLUX_MEAN) as f32)
                .collect();
            let mut attrs = BTreeMap::new();
            attrs.insert("RADEG".to_string(), MetaValue::F64(ra));
            attrs.insert("DECDEG".to_string(), MetaValue::F64(dec));
            attrs.insert("PLATE".to_string(), MetaValue::I64((i / 640) as i64));
            attrs.insert("FIBER".to_string(), MetaValue::I64((i % 640) as i64));
            let obj_opts = ImportOptions {
                // One region per object.
                region_bytes: (cfg.values_per_object as u64 * 4).max(4),
                attrs,
                ..opts.clone()
            };
            let report =
                odms.import_array(container, &format!("fiber-{i:07}"), TypedVec::Float(flux), &obj_opts)?;
            total_values += cfg.values_per_object as u64;
            total_bytes += report.data_bytes;
            if is_match {
                matching.push(report.object);
            }
            objects.push(report.object);
        }
        Ok(BossData { objects, matching, total_values, total_bytes })
    }

    /// The paper's metadata conditions selecting the designated objects.
    pub fn target_conds() -> [(&'static str, MetaValue); 2] {
        [
            ("RADEG", MetaValue::F64(TARGET_RADEG)),
            ("DECDEG", MetaValue::F64(TARGET_DECDEG)),
        ]
    }

    /// The flux bound whose `0 < flux < bound` query has the given
    /// selectivity under the exponential flux distribution.
    pub fn flux_bound_for_selectivity(selectivity: f64) -> f64 {
        -FLUX_MEAN * (1.0 - selectivity).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_types::Interval;

    fn small_catalog() -> (Odms, BossData) {
        let odms = Odms::new(8);
        let cfg = BossConfig {
            objects: 300,
            matching_objects: 50,
            values_per_object: 128,
            seed: 7,
        };
        let data =
            BossData::generate_and_import(&odms, &cfg, &ImportOptions::default()).unwrap();
        (odms, data)
    }

    #[test]
    fn metadata_query_selects_exactly_the_designated_objects() {
        let (odms, data) = small_catalog();
        let hits = odms.meta().query_tags(&BossData::target_conds());
        assert_eq!(hits.len(), 50);
        let mut expect = data.matching.clone();
        expect.sort_unstable();
        assert_eq!(hits, expect);
    }

    #[test]
    fn every_object_has_one_region() {
        let (odms, data) = small_catalog();
        for &o in data.objects.iter().take(20) {
            assert_eq!(odms.meta().get(o).unwrap().num_regions(), 1);
        }
    }

    #[test]
    fn flux_bound_selectivity_roundtrip() {
        // Empirical check: the computed bound yields the requested
        // selectivity on generated flux data.
        let (odms, data) = small_catalog();
        let bound = BossData::flux_bound_for_selectivity(0.40);
        let iv = Interval::open(0.0, bound);
        let mut hits = 0u64;
        let mut total = 0u64;
        for &o in &data.objects {
            let payload = odms.read_region(o, 0).unwrap();
            total += payload.len() as u64;
            hits += pdc_types::kernels::count_matches(&payload, &iv);
        }
        let got = hits as f64 / total as f64;
        assert!((got - 0.40).abs() < 0.02, "selectivity {got}, want 0.40");
    }

    #[test]
    fn histograms_built_per_object() {
        let (odms, data) = small_catalog();
        for &o in data.objects.iter().take(5) {
            let g = odms.meta().global_histogram(o).unwrap();
            assert_eq!(g.total(), 128);
        }
    }

    #[test]
    fn catalog_sizes_accounted() {
        let (_odms, data) = small_catalog();
        assert_eq!(data.total_values, 300 * 128);
        assert_eq!(data.total_bytes, 300 * 128 * 4);
        assert_eq!(data.objects.len(), 300);
    }
}
