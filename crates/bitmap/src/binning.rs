//! FastBit-style precision binning.
//!
//! FastBit's `precision=p` binning option places bin boundaries at numbers
//! with `p` significant decimal digits. The decisive property for query
//! performance: a query constant written with at most `p` significant
//! digits (the paper's `2.1 < Energy < 2.2`, `100 < x < 200`, ...) falls
//! **exactly on a bin boundary**, so the range query decomposes into a
//! union of whole bins with no raw-data candidate check.
//!
//! We generate boundaries as multiples of `10^(floor(log10(range)) - p + 1)`
//! spanning the data range, i.e. the uniform grid of `p`-significant-digit
//! numbers at the scale of the data, capped at [`BinningConfig::max_bins`]
//! (falling back to a uniform grid when the cap binds).


/// Binning parameters.
#[derive(Debug, Clone, Copy)]
pub struct BinningConfig {
    /// Number of significant decimal digits for bin boundaries; the paper
    /// uses `precision = 2`.
    pub precision: u32,
    /// Upper bound on the number of bins per region index.
    pub max_bins: usize,
}

impl Default for BinningConfig {
    fn default() -> Self {
        Self { precision: 2, max_bins: 4096 }
    }
}

/// Generate ascending bin edges covering `[min, max]` per the precision
/// rule. The returned vector has at least 2 edges (1 bin); the first edge
/// is `<= min` and the last edge is `> max` so every value falls in
/// exactly one half-open bin `[e_k, e_{k+1})`.
pub fn precision_edges(min: f64, max: f64, cfg: &BinningConfig) -> Vec<f64> {
    assert!(min.is_finite() && max.is_finite() && min <= max, "bad range [{min}, {max}]");
    // Degenerate (constant) data still gets a real bin around the value.
    let range = (max - min).max(max.abs().max(1.0) * 1e-7);
    // Step exponent: power of ten such that the range spans about
    // 10^(precision) steps.
    let mut exp10 = (range.log10().floor() as i32) - (cfg.precision as i32 - 1);
    // Respect the cap by growing the step decade by decade.
    while range / pow10(exp10) > (cfg.max_bins as f64 - 2.0) {
        exp10 += 1;
    }
    // Edges are the integer multiples of 10^exp10 covering [min, max].
    // Each edge is computed as one correctly rounded operation on exactly
    // representable integers (n * 10^e, or n / 10^-e), so an edge equals
    // the f64 a user gets from writing the same decimal in a query — the
    // property that lets precision-aligned queries skip candidate checks.
    let edge_at = |n: i64| -> f64 {
        if exp10 >= 0 {
            n as f64 * pow10(exp10)
        } else {
            n as f64 / pow10(-exp10)
        }
    };
    let step = pow10(exp10);
    let first_n = (min / step).floor() as i64;
    let mut edges = Vec::new();
    let mut n = first_n;
    // Guard the first edge: floating floor may land one step high.
    while edge_at(n) > min {
        n -= 1;
    }
    loop {
        let e = edge_at(n);
        edges.push(e);
        if e > max {
            break;
        }
        n += 1;
    }
    if edges.len() < 2 {
        edges.push(edge_at(n + 1));
    }
    edges
}

/// `10^e` for moderate exponents (exact up to `10^22`).
fn pow10(e: i32) -> f64 {
    10f64.powi(e)
}

/// Locate the bin containing `v`: the index `k` with
/// `edges[k] <= v < edges[k+1]`, clamped into range so every finite value
/// maps somewhere (values at or beyond the last edge go to the last bin).
pub fn bin_of(edges: &[f64], v: f64) -> usize {
    debug_assert!(edges.len() >= 2);
    match edges.binary_search_by(|e| e.partial_cmp(&v).unwrap()) {
        Ok(k) => k.min(edges.len() - 2),
        Err(0) => 0,
        Err(k) => (k - 1).min(edges.len() - 2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_cover_range() {
        let cfg = BinningConfig::default();
        let edges = precision_edges(0.0, 6.3, &cfg);
        assert!(edges[0] <= 0.0);
        assert!(*edges.last().unwrap() > 6.3);
        assert!(edges.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn precision2_on_unit_scale_gives_tenth_steps() {
        let cfg = BinningConfig::default();
        let edges = precision_edges(0.0, 6.3, &cfg);
        // Range ~6.3 -> step 0.1; the paper's energy bounds 2.1, 2.2, 3.5,
        // 3.6 must all fall exactly on an edge.
        for target in [2.1, 2.2, 3.5, 3.6, 2.0, 1.3] {
            assert!(
                edges.iter().any(|&e| (e - target).abs() < 1e-9),
                "edge {target} missing; step seems wrong"
            );
        }
        assert!(edges.len() > 50 && edges.len() < 80, "got {} edges", edges.len());
    }

    #[test]
    fn precision2_on_hundreds_scale() {
        let cfg = BinningConfig::default();
        let edges = precision_edges(0.0, 332.0, &cfg);
        // Range ~332 -> step 10; paper's x bounds 100, 140, 200 align.
        for target in [100.0, 140.0, 200.0] {
            assert!(edges.iter().any(|&e| (e - target).abs() < 1e-9), "{target}");
        }
    }

    #[test]
    fn negative_ranges_work() {
        let cfg = BinningConfig::default();
        let edges = precision_edges(-125.0, 125.0, &cfg);
        assert!(edges[0] <= -125.0);
        assert!(*edges.last().unwrap() > 125.0);
        // -90 and 0 (paper's y bounds) align on the step-10 grid
        for target in [-90.0, 0.0] {
            assert!(edges.iter().any(|&e| (e - target).abs() < 1e-9), "{target}");
        }
    }

    #[test]
    fn max_bins_cap_is_respected() {
        let cfg = BinningConfig { precision: 6, max_bins: 100 };
        let edges = precision_edges(0.0, 1.0, &cfg);
        assert!(edges.len() <= 101, "{} edges", edges.len());
        assert!(*edges.last().unwrap() > 1.0);
    }

    #[test]
    fn constant_data_single_bin() {
        let cfg = BinningConfig::default();
        let edges = precision_edges(5.0, 5.0, &cfg);
        assert!(edges.len() >= 2);
        assert!(edges[0] <= 5.0 && *edges.last().unwrap() > 5.0);
    }

    #[test]
    fn bin_of_places_values_correctly() {
        let edges = vec![0.0, 1.0, 2.0, 3.0];
        assert_eq!(bin_of(&edges, 0.0), 0);
        assert_eq!(bin_of(&edges, 0.5), 0);
        assert_eq!(bin_of(&edges, 1.0), 1);
        assert_eq!(bin_of(&edges, 2.999), 2);
        // clamped extremes
        assert_eq!(bin_of(&edges, -5.0), 0);
        assert_eq!(bin_of(&edges, 3.0), 2);
        assert_eq!(bin_of(&edges, 99.0), 2);
    }

    #[test]
    fn every_value_in_range_lands_in_its_bin() {
        let cfg = BinningConfig::default();
        let edges = precision_edges(0.0, 10.0, &cfg);
        for i in 0..1000 {
            let v = i as f64 * 0.01;
            let k = bin_of(&edges, v);
            assert!(edges[k] <= v && v < edges[k + 1], "v={v} k={k}");
        }
    }
}
