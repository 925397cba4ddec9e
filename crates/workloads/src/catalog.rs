//! The paper's query catalogs (§V): "we have constructed 21 different
//! queries with single or multiple constraints".
//!
//! * 15 single-object range queries on `Energy`, spanning selectivities
//!   1.3025 % down to 0.0004 % (Fig. 3). The paper names the endpoints
//!   (`2.1 < E < 2.2` and `3.5 < E < 3.6`); the interior queries step the
//!   window down the energy tail in 0.1 increments — exactly 15 windows.
//! * 6 multi-object queries on `(Energy, x, y, z)` between the paper's
//!   two named endpoints (Fig. 4), 0.0013 %–0.0442 %.
//! * Flux-range queries on the BOSS catalog at 11 %–65 % data selectivity
//!   with the metadata constraint fixed to 1000 objects (Fig. 5).


/// One single-object range query `lo < Energy < hi`.
#[derive(Debug, Clone, Copy)]
pub struct SingleObjectQuerySpec {
    /// Lower bound (exclusive).
    pub lo: f32,
    /// Upper bound (exclusive).
    pub hi: f32,
    /// Selectivity the paper reports for its dataset (fraction), where
    /// stated; interior points are interpolated on the calibrated tail.
    pub paper_selectivity: f64,
}

/// One multi-object conjunction (Fig. 4's `energy, x, y, z` queries).
#[derive(Debug, Clone, Copy)]
pub struct MultiObjectQuerySpec {
    /// `Energy > energy_gt`.
    pub energy_gt: f32,
    /// `x_lo < x < x_hi`.
    pub x_lo: f32,
    /// See `x_lo`.
    pub x_hi: f32,
    /// `y_lo < y < y_hi`.
    pub y_lo: f32,
    /// See `y_lo`.
    pub y_hi: f32,
    /// `z_lo < z < z_hi`.
    pub z_lo: f32,
    /// See `z_lo`.
    pub z_hi: f32,
    /// The paper's joint selectivity where stated (endpoints only).
    pub paper_selectivity: f64,
}

/// One BOSS data-condition spec (metadata condition is fixed).
#[derive(Debug, Clone, Copy)]
pub struct BossQuerySpec {
    /// Target data selectivity (the paper's x-axis: 11 %–65 %).
    pub selectivity: f64,
}

/// The 15 single-object queries of Fig. 3: windows `(2.1+k/10, 2.2+k/10)`
/// for `k = 0..15`. Under the calibrated tail (`rate` 5.78, mass 5.29 %),
/// window `k` has selectivity `0.013025 · e^(−0.578·k)`, hitting the
/// paper's two anchors at `k = 0` (1.3025 %) and `k = 14` (0.0004 %).
pub fn single_object_catalog() -> Vec<SingleObjectQuerySpec> {
    (0..15)
        .map(|k| {
            let lo = 2.1 + 0.1 * k as f64;
            SingleObjectQuerySpec {
                lo: lo as f32,
                hi: (lo + 0.1) as f32,
                paper_selectivity: 0.013025 * (-0.578 * k as f64).exp(),
            }
        })
        .collect()
}

/// The 6 multi-object queries of Fig. 4, interpolating between the
/// paper's two named endpoints:
/// `E>2.0 ∧ 100<x<200 ∧ −90<y<0 ∧ 0<z<66` (0.0013 %) and
/// `E>1.3 ∧ 100<x<140 ∧ −100<y<0 ∧ 0<z<66` (0.0442 %).
pub fn multi_object_catalog() -> Vec<MultiObjectQuerySpec> {
    let energy = [2.0f32, 1.9, 1.8, 1.6, 1.5, 1.3];
    let x_hi = [200.0f32, 190.0, 180.0, 160.0, 150.0, 140.0];
    let y_lo = [-90.0f32, -92.0, -94.0, -96.0, -98.0, -100.0];
    let paper = [0.000013, f64::NAN, f64::NAN, f64::NAN, f64::NAN, 0.000442];
    (0..6)
        .map(|i| MultiObjectQuerySpec {
            energy_gt: energy[i],
            x_lo: 100.0,
            x_hi: x_hi[i],
            y_lo: y_lo[i],
            y_hi: 0.0,
            z_lo: 0.0,
            z_hi: 66.0,
            paper_selectivity: paper[i],
        })
        .collect()
}

/// The Fig. 5 data-selectivity sweep (the paper varies the flux condition
/// from 11 % to 65 %).
pub fn boss_flux_catalog() -> Vec<BossQuerySpec> {
    [0.11, 0.25, 0.40, 0.65].iter().map(|&s| BossQuerySpec { selectivity: s }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vpic::{VpicConfig, VpicData};
    use pdc_types::Interval;

    #[test]
    fn single_catalog_has_15_queries_with_paper_anchors() {
        let cat = single_object_catalog();
        assert_eq!(cat.len(), 15);
        assert!((cat[0].lo - 2.1).abs() < 1e-6);
        assert!((cat[0].hi - 2.2).abs() < 1e-6);
        assert!((cat[0].paper_selectivity - 0.013025).abs() < 1e-9);
        assert!((cat[14].lo - 3.5).abs() < 1e-5);
        assert!((cat[14].hi - 3.6).abs() < 1e-5);
        assert!((cat[14].paper_selectivity - 4e-6).abs() < 2e-6);
        // strictly decreasing selectivity
        for w in cat.windows(2) {
            assert!(w[1].paper_selectivity < w[0].paper_selectivity);
        }
    }

    #[test]
    fn multi_catalog_matches_paper_endpoints() {
        let cat = multi_object_catalog();
        assert_eq!(cat.len(), 6);
        let q1 = &cat[0];
        assert_eq!(q1.energy_gt, 2.0);
        assert_eq!((q1.x_lo, q1.x_hi), (100.0, 200.0));
        assert_eq!((q1.y_lo, q1.y_hi), (-90.0, 0.0));
        assert_eq!((q1.z_lo, q1.z_hi), (0.0, 66.0));
        let q6 = &cat[5];
        assert_eq!(q6.energy_gt, 1.3);
        assert_eq!((q6.x_lo, q6.x_hi), (100.0, 140.0));
        assert_eq!((q6.y_lo, q6.y_hi), (-100.0, 0.0));
    }

    #[test]
    fn boss_catalog_spans_the_paper_range() {
        let cat = boss_flux_catalog();
        assert!((cat.first().unwrap().selectivity - 0.11).abs() < 1e-9);
        assert!((cat.last().unwrap().selectivity - 0.65).abs() < 1e-9);
    }

    #[test]
    fn generated_data_tracks_catalog_targets() {
        // Achieved selectivities of the 15 windows must follow the
        // calibrated targets within sampling noise (large windows only;
        // the smallest expect < 1 hit at this scale).
        let d = VpicData::generate(&VpicConfig { particles: 500_000, seed: 31 });
        for spec in single_object_catalog().iter().take(6) {
            let achieved = VpicData::exact_selectivity(
                &d.energy,
                &Interval::open(spec.lo as f64, spec.hi as f64),
            );
            let target = spec.paper_selectivity;
            assert!(
                achieved > target * 0.5 && achieved < target * 2.0,
                "window ({}, {}): achieved {achieved}, target {target}",
                spec.lo,
                spec.hi
            );
        }
    }
}
