//! Selectivity estimation and region pruning with histograms
//! (paper §III-D2).
//!
//! *Region elimination*: only the histogram's min/max are needed — a region
//! whose `[min, max]` does not overlap the query interval has no hits.
//!
//! *Selectivity estimation*: "go through the histogram and find all bins
//! that overlap with the query condition, and aggregate their count. The
//! upper bound of the number of hits includes all bins that fully or
//! partially overlap with the query condition, while the lower bound only
//! counts the fully overlapping bins. Dividing the count by the total
//! number of elements produces the upper and lower bound of the
//! selectivity."

use crate::algorithm1::Histogram;
use pdc_types::Interval;

/// Lower/upper bounds on the number of hits for a query interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitBounds {
    /// Hits guaranteed (bins fully covered by the interval).
    pub lower: u64,
    /// Hits possible (bins fully or partially overlapping the interval).
    pub upper: u64,
}

impl HitBounds {
    /// Zero hits on both bounds.
    pub const ZERO: HitBounds = HitBounds { lower: 0, upper: 0 };
}

impl Histogram {
    /// Whether the interval can match anything in the histogrammed data —
    /// the region-elimination test. Uses only the observed min/max.
    pub fn overlaps(&self, interval: &Interval) -> bool {
        if self.total() == 0 {
            return false;
        }
        interval.overlaps_range(self.min(), self.max())
    }

    /// Lower/upper bounds on the number of hits for `interval`.
    pub fn estimate_hits(&self, interval: &Interval) -> HitBounds {
        if !self.overlaps(interval) {
            return HitBounds::ZERO;
        }
        let mut lower = 0u64;
        let mut upper = 0u64;
        for k in 0..self.num_bins() {
            let c = self.counts()[k];
            if c == 0 {
                continue;
            }
            let (lo, hi) = self.bin_bounds(k);
            // The bin holds values in [lo, hi). For the covers/overlap
            // tests use the tightest closed range the bin's values can
            // occupy, clipped to the exact observed min/max.
            let bin_max = (hi - f64::EPSILON * hi.abs().max(1.0)).min(self.max());
            let bin_min = lo.max(self.min());
            if !interval.overlaps_range(bin_min, bin_max) {
                continue;
            }
            upper += c;
            if interval.covers_range(bin_min, bin_max) {
                lower += c;
            }
        }
        HitBounds { lower, upper }
    }

    /// Selectivity bounds `(lower, upper)` as fractions of the total
    /// element count.
    pub fn selectivity_bounds(&self, interval: &Interval) -> (f64, f64) {
        let hb = self.estimate_hits(interval);
        if self.total() == 0 {
            return (0.0, 0.0);
        }
        let n = self.total() as f64;
        (hb.lower as f64 / n, hb.upper as f64 / n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::HistogramConfig;
    use pdc_types::QueryOp;

    fn uniform(n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|i| lo + (hi - lo) * (i as f64) / (n as f64)).collect()
    }

    fn exact_hits(data: &[f64], iv: &Interval) -> u64 {
        data.iter().filter(|&&v| iv.contains(v)).count() as u64
    }

    #[test]
    fn bounds_bracket_exact_count_uniform() {
        let data = uniform(100_000, 0.0, 10.0);
        let h = Histogram::build(&data, &HistogramConfig::default()).unwrap();
        for iv in [
            Interval::open(2.1, 2.2),
            Interval::closed(0.0, 10.0),
            Interval::from_op(QueryOp::Gt, 9.5),
            Interval::from_op(QueryOp::Lt, 0.5),
            Interval::open(4.9999, 5.0001),
        ] {
            let exact = exact_hits(&data, &iv);
            let hb = h.estimate_hits(&iv);
            assert!(hb.lower <= exact, "{iv}: lower {} > exact {exact}", hb.lower);
            assert!(hb.upper >= exact, "{iv}: upper {} < exact {exact}", hb.upper);
        }
    }

    #[test]
    fn full_range_estimate_is_exact() {
        let data = uniform(10_000, -5.0, 5.0);
        let h = Histogram::build(&data, &HistogramConfig::default()).unwrap();
        let hb = h.estimate_hits(&Interval::ALL);
        assert_eq!(hb.lower, 10_000);
        assert_eq!(hb.upper, 10_000);
    }

    #[test]
    fn disjoint_interval_estimates_zero() {
        let data = uniform(10_000, 0.0, 1.0);
        let h = Histogram::build(&data, &HistogramConfig::default()).unwrap();
        let hb = h.estimate_hits(&Interval::from_op(QueryOp::Gt, 2.0));
        assert_eq!(hb, HitBounds::ZERO);
        assert!(!h.overlaps(&Interval::from_op(QueryOp::Gt, 2.0)));
    }

    #[test]
    fn selectivity_bounds_are_fractions() {
        let data = uniform(50_000, 0.0, 100.0);
        let h = Histogram::build(&data, &HistogramConfig::default()).unwrap();
        let iv = Interval::open(0.0, 50.0);
        let (lo, hi) = h.selectivity_bounds(&iv);
        assert!(lo <= 0.5 + 1e-9 && hi >= 0.5 - 1e-9, "({lo}, {hi})");
        assert!(lo >= 0.0 && hi <= 1.0);
        // With ~64 bins, bounds should be within a couple of bins' mass.
        assert!(hi - lo < 0.1, "bounds too loose: ({lo}, {hi})");
    }

    #[test]
    fn estimation_orders_queries_correctly() {
        // The planner only needs the *ordering* of selectivities to be
        // right; check a highly selective vs. barely selective interval.
        let data = uniform(100_000, 0.0, 10.0);
        let h = Histogram::build(&data, &HistogramConfig::default()).unwrap();
        let narrow = h.estimate_hits(&Interval::open(5.0, 5.05));
        let wide = h.estimate_hits(&Interval::open(1.0, 9.0));
        // Compare midpoints, doubled.
        assert!(narrow.lower + narrow.upper < wide.lower + wide.upper);
    }

    #[test]
    fn skewed_data_bounds_still_bracket() {
        // Exponential-ish tail like VPIC energy.
        let mut data = Vec::new();
        for i in 0..50_000 {
            let u = (i as f64 + 0.5) / 50_000.0;
            data.push(2.0 - 2.0 * u); // bulk [0,2)
        }
        for i in 0..2_500 {
            let u = (i as f64 + 0.5) / 2_500.0;
            data.push(2.0 - (1.0 - u).ln() / 5.77); // tail above 2
        }
        let h = Histogram::build(&data, &HistogramConfig::default()).unwrap();
        for iv in [
            Interval::open(2.1, 2.2),
            Interval::open(3.5, 3.6),
            Interval::from_op(QueryOp::Gt, 2.0),
        ] {
            let exact = exact_hits(&data, &iv);
            let hb = h.estimate_hits(&iv);
            assert!(hb.lower <= exact && exact <= hb.upper, "{iv}: {hb:?} vs {exact}");
        }
    }
}
