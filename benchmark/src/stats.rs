//! Order statistics used by every metric: medians, nearest-rank
//! quantiles, and the tail-percentile rule of the choosing-metrics guide
//! (report the highest percentile that still has at least ten samples
//! beyond it, with the sample count).

/// Ascending copy of `v` (NaNs sort last; the benchmark never produces them).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    s
}

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending-sorted slice.
pub fn percentile_sorted(s: &[f64], p: f64) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The lower quartile of a set of repeated timings of the same work.
///
/// On a shared host, interference from other tenants only ever *adds*
/// time, and it comes in stretches that can cover half a run; the fast
/// quartile of the repeats tracks what the code costs far more steadily
/// than their median does.
pub fn fast_time(v: &[f64]) -> f64 {
    percentile_sorted(&sorted(v), 25.0)
}

/// The upper quartile of a set of repeated rates of the same work: the
/// counterpart of [`fast_time`] for throughputs.
pub fn fast_rate(v: &[f64]) -> f64 {
    percentile_sorted(&sorted(v), 75.0)
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The highest percentile of `n` samples that still has at least
/// [`TAIL_SAMPLES_BEYOND`] samples strictly beyond its nearest-rank
/// position, capped at `cap`; `None` when `n` is too small for any tail.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    if n <= TAIL_SAMPLES_BEYOND {
        return None;
    }
    Some((100.0 * (n - TAIL_SAMPLES_BEYOND) as f64 / n as f64).min(cap))
}

/// A reported tail: which percentile, its value, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (≤ 99).
    pub pct: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples it was taken over.
    pub n: usize,
}

/// The p99-capped tail of `v` under the ten-samples-beyond rule. With too
/// few samples for any tail the median is reported instead (pct 50), so
/// the figure never claims more than the sample supports.
pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    match tail_percentile(s.len(), 99.0) {
        Some(pct) => Tail { pct, value: percentile_sorted(&s, pct), n: s.len() },
        None => Tail { pct: 50.0, value: median(&s), n: s.len() },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50.0);
        assert_eq!(percentile_sorted(&s, 99.0), 99.0);
        assert_eq!(percentile_sorted(&s, 100.0), 100.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
    }

    #[test]
    fn fast_quartiles_ignore_the_slow_half() {
        let times = [10.0, 10.2, 10.1, 14.0, 19.0, 10.3, 25.0, 10.0];
        assert_eq!(fast_time(&times), 10.0);
        let rates = [100.0, 99.0, 60.0, 98.0, 40.0, 101.0, 97.0, 55.0];
        assert_eq!(fast_rate(&rates), 99.0);
        // Three set-ups: the best of the three.
        assert_eq!(fast_rate(&[5.0, 7.0, 6.0]), 7.0);
        assert_eq!((fast_time(&[]), fast_rate(&[])), (0.0, 0.0));
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 10 or fewer samples: no tail at all.
        assert_eq!(tail_percentile(10, 99.0), None);
        // 100 samples: p90 is the highest with ten beyond it.
        assert_eq!(tail_percentile(100, 99.0), Some(90.0));
        // 1000 samples: exactly p99.
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        // More than 1000: the rule would allow p99.75; the cap holds it at 99.
        assert_eq!(tail_percentile(4000, 99.0), Some(99.0));
        for n in [11usize, 37, 100, 999, 1000, 5000] {
            let pct = tail_percentile(n, 99.0).unwrap();
            let rank = ((pct / 100.0) * n as f64).ceil() as usize;
            assert!(n - rank >= TAIL_SAMPLES_BEYOND, "n={n} pct={pct} rank={rank}");
        }
    }

    #[test]
    fn tail_reports_value_and_count() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.n, 200);
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.value, 190.0);
        let few = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((few.pct, few.value, few.n), (50.0, 3.0, 3));
    }
}
