//! Algorithm 1 of the paper: generate a histogram that can be merged into
//! a global histogram.
//!
//! The construction (paper §IV):
//!
//! 1. Randomly sample 10 % of the data to get approximate `min`/`max`
//!    (lines 1–2).
//! 2. Compute the raw bin width `(max-min)/N_bin` and round it **down to a
//!    power of two** `2^x, x ∈ ℤ` (line 3). Different regions may end up
//!    with different widths, but all widths divide each other.
//! 3. Align the first bin boundary to the grid of multiples of the bin
//!    width (the paper anchors boundaries at natural numbers, so every
//!    boundary is of the form `ℕ ± n·2^x`; multiples of `2^x` satisfy
//!    exactly that) (lines 4–5).
//! 4. Count every element into its bin; elements outside the sampled range
//!    widen the histogram (lines 11–18). Time complexity O(N).
//!
//! The resulting number of bins can exceed the requested lower bound
//! `N_bin` — the paper accepts this since selectivity estimation does not
//! require an exact bin count.
//!
//! **Fidelity note on out-of-range values.** Algorithm 1 lines 13–16
//! stretch the *boundary* of the first/last bin to the outlying value,
//! which silently breaks the paper's own grid-alignment invariant for edge
//! bins (and, after merging, can place the outlier's count in the wrong
//! global bin, making the "upper bound" estimate not actually an upper
//! bound). We instead **extend the histogram with additional grid-aligned
//! bins** when a value falls outside the sampled range, coarsening the
//! whole histogram (doubling the bin width, still a power of two) whenever
//! the bin count would exceed [`HistogramConfig::max_bins`]. The observed
//! exact min/max are tracked separately, exactly as the paper requires for
//! region elimination. This keeps every estimate a true lower/upper bound
//! — an invariant our property tests enforce.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tunables for histogram construction.
#[derive(Debug, Clone, Copy)]
pub struct HistogramConfig {
    /// Lower bound on the number of bins (`N_bin` in Algorithm 1). The
    /// paper uses 50–100 bins per region depending on region size.
    pub nbins_lower_bound: usize,
    /// Fraction of elements sampled for the approximate min/max (line 1).
    pub sample_fraction: f64,
    /// RNG seed for the sampling step, so builds are reproducible.
    pub seed: u64,
    /// Hard cap on the number of bins; when out-of-range values would push
    /// the histogram past this, the bin width doubles instead.
    pub max_bins: usize,
}

impl Default for HistogramConfig {
    fn default() -> Self {
        Self { nbins_lower_bound: 64, sample_fraction: 0.1, seed: 0x9D0C_51A7, max_bins: 4096 }
    }
}

/// A mergeable histogram per Algorithm 1.
///
/// ```
/// use pdc_histogram::{merge_all, Histogram, HistogramConfig};
/// use pdc_types::Interval;
/// let cfg = HistogramConfig::default();
/// let region_a = Histogram::build(&[0.5, 1.0, 1.5, 2.5], &cfg).unwrap();
/// let region_b = Histogram::build(&[2.0, 2.2, 3.0], &cfg).unwrap();
/// let global = merge_all([&region_a, &region_b]).unwrap();
/// assert_eq!(global.total(), 7);
/// let est = global.estimate_hits(&Interval::closed(2.0, 3.0));
/// assert!(est.lower <= 4 && 4 <= est.upper); // exact count is 4
/// ```
///
/// Bin `k` nominally covers `[first_edge + k·w, first_edge + (k+1)·w)`
/// where `w` is the power-of-two bin width. The first and last bins
/// additionally absorb any values outside the sampled range; the *actual*
/// observed `[min, max]` is stored alongside and is what region pruning
/// uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Power-of-two bin width (`2^x`, `x` may be negative).
    bin_width: f64,
    /// First nominal bin boundary; an integer multiple of `bin_width`.
    first_edge: f64,
    /// Per-bin element counts.
    counts: Vec<u64>,
    /// Smallest value actually observed.
    min: f64,
    /// Largest value actually observed.
    max: f64,
    /// Total number of elements counted.
    total: u64,
    /// Bin-count cap carried from the build configuration.
    max_bins: usize,
}

/// Round `raw` down to a power of two, clamping the exponent to a sane
/// range so degenerate inputs (tiny or huge ranges) stay finite.
fn round_down_pow2(raw: f64) -> f64 {
    if !raw.is_finite() || raw <= 0.0 {
        return 1.0;
    }
    let exp = raw.log2().floor().clamp(-48.0, 60.0);
    2f64.powi(exp as i32)
}

impl Histogram {
    /// Build a histogram over `values` per Algorithm 1.
    ///
    /// Returns `None` for empty input: an absent histogram means "no data",
    /// which callers treat as an always-prunable region.
    pub fn build(values: &[f64], cfg: &HistogramConfig) -> Option<Histogram> {
        if values.is_empty() {
            return None;
        }
        // Line 1: sample ~10 % of the data for approximate min/max. We
        // always include the first element so the sample is never empty.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut smin = values[0];
        let mut smax = values[0];
        let frac = cfg.sample_fraction.clamp(0.0, 1.0);
        for &v in values.iter().skip(1) {
            if frac >= 1.0 || rng.gen::<f64>() < frac {
                if v < smin {
                    smin = v;
                }
                if v > smax {
                    smax = v;
                }
            }
        }

        let nbins_req = cfg.nbins_lower_bound.max(1);
        // Line 2-3: bin width, rounded down to a power of two.
        let range = smax - smin;
        let bin_width = if range > 0.0 {
            round_down_pow2(range / nbins_req as f64)
        } else {
            // Constant (as far as the sample saw) data: one nominal bin.
            1.0
        };

        // Lines 4-5: align boundaries to the bin-width grid.
        let first_edge = (smin / bin_width).floor() * bin_width;
        let last_edge = {
            let e = (smax / bin_width).ceil() * bin_width;
            if e > first_edge {
                e
            } else {
                first_edge + bin_width
            }
        };
        // Line 6: actual number of bins (>= requested when range > 0).
        let nbins = ((last_edge - first_edge) / bin_width).round() as usize;
        let nbins = nbins.max(1);

        let mut h = Histogram {
            bin_width,
            first_edge,
            counts: vec![0; nbins],
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            total: 0,
            max_bins: cfg.max_bins.max(nbins).max(2),
        };
        // Lines 11-18: count elements; out-of-range values extend the grid.
        for &v in values {
            h.add(v);
        }
        Some(h)
    }

    /// Count one value (lines 12–17 of Algorithm 1). Values outside the
    /// current boundary range grow the histogram with grid-aligned bins,
    /// coarsening (doubling the bin width) if the cap would be exceeded.
    #[inline]
    pub fn add(&mut self, v: f64) {
        if v.is_nan() {
            return; // NaN carries no position; it is not counted
        }
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.total += 1;
        loop {
            let idx = ((v - self.first_edge) / self.bin_width).floor();
            if idx >= 0.0 && idx < self.counts.len() as f64 {
                self.counts[idx as usize] += 1;
                return;
            }
            self.grow_to_cover(v);
        }
    }

    /// Extend the bin array so that `v` falls inside the nominal range,
    /// doubling the bin width first if the extension would exceed the cap.
    fn grow_to_cover(&mut self, v: f64) {
        loop {
            let new_first = (v.min(self.first_edge) / self.bin_width).floor() * self.bin_width;
            let cur_last = self.first_edge + self.counts.len() as f64 * self.bin_width;
            let mut new_last = (v.max(cur_last) / self.bin_width).ceil() * self.bin_width;
            if new_last <= v {
                new_last += self.bin_width;
            }
            let nbins = ((new_last - new_first) / self.bin_width).round();
            if nbins.is_finite() && (nbins as usize) <= self.max_bins {
                let prepend = ((self.first_edge - new_first) / self.bin_width).round() as usize;
                let total_bins = nbins as usize;
                let mut counts = vec![0u64; total_bins];
                counts[prepend..prepend + self.counts.len()].copy_from_slice(&self.counts);
                self.counts = counts;
                self.first_edge = new_first;
                return;
            }
            self.coarsen();
        }
    }

    /// Double the bin width by folding adjacent bin pairs, keeping the
    /// boundary grid aligned to multiples of the new width.
    pub(crate) fn coarsen(&mut self) {
        let new_width = self.bin_width * 2.0;
        let new_first = (self.first_edge / new_width).floor() * new_width;
        // Whether the old first bin sits on the odd half of the new grid.
        let offset = ((self.first_edge - new_first) / self.bin_width).round() as usize;
        let new_len = (self.counts.len() + offset).div_ceil(2);
        let mut counts = vec![0u64; new_len.max(1)];
        for (k, &c) in self.counts.iter().enumerate() {
            counts[(k + offset) / 2] += c;
        }
        self.counts = counts;
        self.bin_width = new_width;
        self.first_edge = new_first;
    }

    /// Power-of-two bin width.
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// First nominal bin boundary (multiple of the bin width).
    pub fn first_edge(&self) -> f64 {
        self.first_edge
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.counts.len()
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Smallest observed value.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observed value.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Total number of counted elements.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bin-count cap carried from the build configuration.
    pub fn max_bins(&self) -> usize {
        self.max_bins
    }

    /// Boundaries `[lo, hi)` of bin `k`; every boundary lies on the grid
    /// of multiples of the bin width.
    pub fn bin_bounds(&self, k: usize) -> (f64, f64) {
        let lo = self.first_edge + k as f64 * self.bin_width;
        (lo, lo + self.bin_width)
    }

    /// In-memory metadata footprint in bytes; histograms are metadata
    /// objects in PDC and their size matters for the metadata service.
    pub fn size_bytes(&self) -> u64 {
        // width + first_edge + min + max + total + counts
        8 * 5 + 8 * self.counts.len() as u64
    }

    /// Validate this histogram against the region it claims to summarize:
    /// the per-bin counts must sum to the recorded total, the total must
    /// not exceed the region length (`<=`, not `==`: NaN elements are not
    /// counted), `min ≤ max` whenever anything was counted, and the bin
    /// geometry must be finite with a positive width. A histogram failing
    /// this check cannot be trusted for pruning or selectivity estimation
    /// and must be rebuilt from the data.
    pub fn self_check(&self, region_len: u64) -> bool {
        let sum: u64 = self.counts.iter().sum();
        sum == self.total
            && self.total <= region_len
            && !self.counts.is_empty()
            && self.bin_width.is_finite()
            && self.bin_width > 0.0
            && self.first_edge.is_finite()
            && (self.total == 0 || (self.min <= self.max && self.min.is_finite() && self.max.is_finite()))
    }

    /// A deterministically corrupted clone for integrity-injection tests:
    /// the mutation always breaks the `Σcounts == total` invariant, so
    /// [`Histogram::self_check`] is guaranteed to reject the result.
    pub fn corrupted_copy(&self, seed: u64) -> Histogram {
        let mut bad = self.clone();
        let bin = (seed as usize) % bad.counts.len();
        bad.counts[bin] += 1 + (seed % 7);
        if seed % 2 == 1 && bad.min < bad.max {
            std::mem::swap(&mut bad.min, &mut bad.max);
        }
        bad
    }

    /// Reconstruct a histogram from persisted raw parts (the snapshot
    /// codec's path). Returns `None` when the parts fail basic validation
    /// — a decoded-from-disk histogram must never poison pruning.
    pub fn from_raw_parts(
        bin_width: f64,
        first_edge: f64,
        counts: Vec<u64>,
        min: f64,
        max: f64,
        total: u64,
        max_bins: usize,
    ) -> Option<Histogram> {
        let h = Histogram { bin_width, first_edge, counts, min, max, total, max_bins };
        let sum: u64 = h.counts.iter().sum();
        (sum == h.total
            && !h.counts.is_empty()
            && h.bin_width.is_finite()
            && h.bin_width > 0.0
            && h.first_edge.is_finite()
            && (h.total == 0 || h.min <= h.max))
        .then_some(h)
    }

    /// Internal constructor used by merging.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        bin_width: f64,
        first_edge: f64,
        counts: Vec<u64>,
        min: f64,
        max: f64,
        total: u64,
        max_bins: usize,
    ) -> Histogram {
        Histogram { bin_width, first_edge, counts, min, max, total, max_bins }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_pow2(w: f64) -> bool {
        let exp = w.log2();
        (exp - exp.round()).abs() < 1e-12
    }

    #[test]
    fn empty_input_yields_none() {
        assert!(Histogram::build(&[], &HistogramConfig::default()).is_none());
    }

    #[test]
    fn bin_width_is_power_of_two() {
        let data: Vec<f64> = (0..10_000).map(|i| (i as f64) * 0.001).collect();
        let h = Histogram::build(&data, &HistogramConfig::default()).unwrap();
        assert!(is_pow2(h.bin_width()), "width {} not a power of two", h.bin_width());
    }

    #[test]
    fn first_edge_is_aligned_to_width_grid() {
        let data: Vec<f64> = (0..5_000).map(|i| 3.7 + (i as f64) * 0.01).collect();
        let h = Histogram::build(&data, &HistogramConfig::default()).unwrap();
        let ratio = h.first_edge() / h.bin_width();
        assert!((ratio - ratio.round()).abs() < 1e-9, "edge {} not on grid {}", h.first_edge(), h.bin_width());
    }

    #[test]
    fn total_equals_input_len_and_counts_sum() {
        let data: Vec<f64> = (0..1234).map(|i| (i % 97) as f64).collect();
        let h = Histogram::build(&data, &HistogramConfig::default()).unwrap();
        assert_eq!(h.total(), 1234);
        assert_eq!(h.counts().iter().sum::<u64>(), 1234);
    }

    #[test]
    fn min_max_are_exact_despite_sampling() {
        // Put an extreme outlier where a 10 % sample will likely miss it;
        // Algorithm 1 lines 13-16 must still record it in min/max.
        let mut data: Vec<f64> = vec![0.5; 2000];
        data[1777] = 1e6;
        data[3] = -1e6;
        let h = Histogram::build(&data, &HistogramConfig::default()).unwrap();
        assert_eq!(h.min(), -1e6);
        assert_eq!(h.max(), 1e6);
        assert_eq!(h.total(), 2000);
    }

    #[test]
    fn nbins_at_least_requested_for_spread_data() {
        let data: Vec<f64> = (0..100_000).map(|i| i as f64).collect();
        let cfg = HistogramConfig { nbins_lower_bound: 64, ..Default::default() };
        let h = Histogram::build(&data, &cfg).unwrap();
        assert!(h.num_bins() >= 64, "got {} bins", h.num_bins());
        // but not absurdly more (rounding down the width at most doubles it)
        assert!(h.num_bins() <= 64 * 2 + 2, "got {} bins", h.num_bins());
    }

    #[test]
    fn constant_data_single_bin() {
        let data = vec![7.25; 500];
        let h = Histogram::build(&data, &HistogramConfig::default()).unwrap();
        assert_eq!(h.total(), 500);
        assert_eq!(h.min(), 7.25);
        assert_eq!(h.max(), 7.25);
        assert_eq!(h.counts().iter().sum::<u64>(), 500);
    }

    #[test]
    fn negative_values_supported() {
        let data: Vec<f64> = (0..10_000).map(|i| -100.0 + (i as f64) * 0.015).collect();
        let h = Histogram::build(&data, &HistogramConfig::default()).unwrap();
        assert!(h.min() < -99.0);
        assert!(h.first_edge() <= h.min());
        assert_eq!(h.total(), 10_000);
    }

    #[test]
    fn bin_bounds_tile_the_range() {
        let data: Vec<f64> = (0..5_000).map(|i| (i as f64) * 0.02).collect();
        let h = Histogram::build(&data, &HistogramConfig::default()).unwrap();
        for k in 0..h.num_bins() - 1 {
            let (_, hi) = h.bin_bounds(k);
            let (lo_next, _) = h.bin_bounds(k + 1);
            assert!((hi - lo_next).abs() < 1e-9);
        }
        let (lo0, _) = h.bin_bounds(0);
        assert!(lo0 <= h.min());
        let (_, hi_last) = h.bin_bounds(h.num_bins() - 1);
        assert!(hi_last > h.max());
    }

    #[test]
    fn outliers_extend_the_grid_not_the_edge_bins() {
        let mut data: Vec<f64> = vec![0.5; 2000];
        data[1777] = 1000.0;
        let h = Histogram::build(&data, &HistogramConfig::default()).unwrap();
        // The outlier must live in a bin whose bounds actually contain it.
        let (_, hi_last) = h.bin_bounds(h.num_bins() - 1);
        assert!(hi_last > 1000.0);
        let (lo0, _) = h.bin_bounds(0);
        assert!(lo0 <= 0.5);
        // grid stays power-of-two aligned
        let exp = h.bin_width().log2();
        assert!((exp - exp.round()).abs() < 1e-12);
        let ratio = h.first_edge() / h.bin_width();
        assert!((ratio - ratio.round()).abs() < 1e-6);
    }

    #[test]
    fn bin_cap_triggers_coarsening() {
        let cfg = HistogramConfig { max_bins: 128, ..Default::default() };
        // Dense cluster plus a far outlier would need thousands of fine
        // bins; the cap forces the width to double instead.
        let mut data: Vec<f64> = (0..5_000).map(|i| (i % 100) as f64 * 0.001).collect();
        data.push(1.0e5);
        let h = Histogram::build(&data, &cfg).unwrap();
        assert!(h.num_bins() <= 128, "bins {}", h.num_bins());
        assert_eq!(h.total(), 5_001);
        assert_eq!(h.max(), 1.0e5);
    }

    #[test]
    fn nan_values_are_ignored() {
        let mut h = Histogram::build(&[1.0, 2.0], &HistogramConfig::default()).unwrap();
        h.add(f64::NAN);
        assert_eq!(h.total(), 2);
        assert_eq!(h.counts().iter().sum::<u64>(), 2);
    }

    #[test]
    fn round_down_pow2_cases() {
        assert_eq!(round_down_pow2(1.0), 1.0);
        assert_eq!(round_down_pow2(1.5), 1.0);
        assert_eq!(round_down_pow2(2.0), 2.0);
        assert_eq!(round_down_pow2(3.99), 2.0);
        assert_eq!(round_down_pow2(0.3), 0.25);
        assert_eq!(round_down_pow2(0.125), 0.125);
        // degenerate inputs stay finite and positive
        assert!(round_down_pow2(0.0) > 0.0);
        assert!(round_down_pow2(f64::NAN) > 0.0);
        assert!(round_down_pow2(f64::INFINITY).is_finite());
    }

    #[test]
    fn size_bytes_tracks_bins() {
        let data: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let h = Histogram::build(&data, &HistogramConfig::default()).unwrap();
        assert_eq!(h.size_bytes(), 40 + 8 * h.num_bins() as u64);
    }

    #[test]
    fn deterministic_given_seed() {
        let data: Vec<f64> = (0..50_000).map(|i| ((i * 31) % 1000) as f64 / 10.0).collect();
        let cfg = HistogramConfig::default();
        let a = Histogram::build(&data, &cfg).unwrap();
        let b = Histogram::build(&data, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn self_check_accepts_freshly_built() {
        let data: Vec<f64> = (0..1000).map(|i| (i % 97) as f64).collect();
        let h = Histogram::build(&data, &HistogramConfig::default()).unwrap();
        assert!(h.self_check(data.len() as u64));
    }

    #[test]
    fn self_check_tolerates_nan_gaps() {
        // NaN elements are skipped by `add`, so total < region_len is fine.
        let h = Histogram::build(&[1.0, 2.0, 3.0], &HistogramConfig::default()).unwrap();
        assert!(h.self_check(5)); // region holds 5 elements, 2 were NaN
        assert!(!h.self_check(2)); // total exceeding region length is not
    }

    #[test]
    fn corrupted_copy_always_fails_self_check() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 7) % 113) as f64).collect();
        let h = Histogram::build(&data, &HistogramConfig::default()).unwrap();
        for seed in 0..32u64 {
            let bad = h.corrupted_copy(seed);
            assert!(!bad.self_check(data.len() as u64), "seed {seed} escaped detection");
            // deterministic: same seed, same corruption
            assert_eq!(bad, h.corrupted_copy(seed));
        }
    }

    #[test]
    fn from_raw_parts_round_trips_and_rejects_garbage() {
        let data: Vec<f64> = (0..500).map(|i| (i % 41) as f64).collect();
        let h = Histogram::build(&data, &HistogramConfig::default()).unwrap();
        let rebuilt = Histogram::from_raw_parts(
            h.bin_width(),
            h.first_edge(),
            h.counts().to_vec(),
            h.min(),
            h.max(),
            h.total(),
            h.max_bins(),
        )
        .unwrap();
        assert_eq!(rebuilt, h);

        // counts/total mismatch rejected
        assert!(Histogram::from_raw_parts(1.0, 0.0, vec![2, 2], 0.0, 1.0, 5, 64).is_none());
        // non-finite / non-positive geometry rejected
        assert!(Histogram::from_raw_parts(0.0, 0.0, vec![1], 0.0, 0.0, 1, 64).is_none());
        assert!(Histogram::from_raw_parts(f64::NAN, 0.0, vec![1], 0.0, 0.0, 1, 64).is_none());
        // min > max with nonzero total rejected
        assert!(Histogram::from_raw_parts(1.0, 0.0, vec![1], 5.0, 1.0, 1, 64).is_none());
        // empty counts rejected
        assert!(Histogram::from_raw_parts(1.0, 0.0, vec![], 0.0, 0.0, 0, 64).is_none());
    }
}
