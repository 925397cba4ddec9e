//! Deterministic samplers for the workload generators. Each draws from a
//! SplitMix64 state seeded with the workload's seed
//! ([`pdc_types::splitmix64`]), so every workload is reproducible given
//! its seed.

use pdc_types::unit_f64;

/// Sample uniformly from `[lo, hi)`.
pub fn uniform(rng: &mut u64, lo: f64, hi: f64) -> f64 {
    lo + unit_f64(rng) * (hi - lo)
}

/// Sample an exponential with the given `rate` (mean `1/rate`).
pub fn exponential(rng: &mut u64, rate: f64) -> f64 {
    let u = uniform(rng, f64::MIN_POSITIVE, 1.0);
    -u.ln() / rate
}

/// Sample an exponential with `rate`, truncated to `[0, limit)` via
/// inverse-CDF (exact, no rejection loop).
pub fn truncated_exponential(rng: &mut u64, rate: f64, limit: f64) -> f64 {
    let cap = 1.0 - (-rate * limit).exp();
    let u = uniform(rng, 0.0, 1.0) * cap;
    -(1.0 - u).ln() / rate
}

/// A standard normal via Box–Muller.
pub fn normal(rng: &mut u64, mean: f64, std: f64) -> f64 {
    let u1 = uniform(rng, f64::MIN_POSITIVE, 1.0);
    let u2 = uniform(rng, 0.0, 1.0);
    mean + std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A triangle wave in `[0, 1]` with unit period: 0 → 1 → 0 over one
/// period. Used to cycle positions through their domain smoothly (so
/// per-region min/max stay informative).
pub fn triangle(phase: f64) -> f64 {
    let t = phase.rem_euclid(1.0);
    if t < 0.5 {
        2.0 * t
    } else {
        2.0 * (1.0 - t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = 42u64;
        let mut b = 42u64;
        for _ in 0..100 {
            assert_eq!(uniform(&mut a, -1.0, 1.0), uniform(&mut b, -1.0, 1.0));
        }
    }

    #[test]
    fn exponential_mean_roughly_inverse_rate() {
        let mut r = 7u64;
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut r, 4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn truncated_exponential_respects_limit() {
        let mut r = 9u64;
        for _ in 0..50_000 {
            let v = truncated_exponential(&mut r, 1.47, 2.0);
            assert!((0.0..2.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn truncated_exponential_matches_conditional_distribution() {
        // P(X < 1 | X < 2) for rate 1.47.
        let mut r = 11u64;
        let n = 200_000;
        let below: usize =
            (0..n).filter(|_| truncated_exponential(&mut r, 1.47, 2.0) < 1.0).count();
        let expect = (1.0 - (-1.47f64).exp()) / (1.0 - (-2.0 * 1.47f64).exp());
        let got = below as f64 / n as f64;
        assert!((got - expect).abs() < 0.01, "got {got}, expect {expect}");
    }

    #[test]
    fn normal_moments() {
        let mut r = 13u64;
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut r, 2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn triangle_shape() {
        assert_eq!(triangle(0.0), 0.0);
        assert_eq!(triangle(0.25), 0.5);
        assert_eq!(triangle(0.5), 1.0);
        assert_eq!(triangle(0.75), 0.5);
        assert!((triangle(1.0) - 0.0).abs() < 1e-12);
        assert_eq!(triangle(1.25), 0.5); // periodic
        assert_eq!(triangle(-0.25), 0.5); // negative phases fold
    }
}
