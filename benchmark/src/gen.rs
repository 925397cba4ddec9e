//! Seeded input generation: the query lists of the four workloads and
//! the open-loop arrival traces of `serve_ingest`. Everything here is a
//! pure function of the seed — the program under test only ever sees
//! the generated query text, arrival times and arrays.

use pdc_types::{Interval, QueryOp};
use pdc_workloads::vpic::{X_MAX, Y_MAX, Y_MIN};

/// SplitMix64: the benchmark's only random source.
#[derive(Debug, Clone)]
pub struct Rng(pub u64);

impl Rng {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` (never 0, so `ln` is safe).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Uniform in `[-half, half]`.
    pub fn jitter(&mut self, half: f64) -> f64 {
        (self.unit() * 2.0 - 1.0) * half
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// An independent stream derived from this seed and a label.
    pub fn fork(seed: u64, label: u64) -> Rng {
        let mut r = Rng(seed ^ label.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }
}

/// A queried VPIC variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Var {
    /// Particle energy.
    Energy,
    /// Position x.
    X,
    /// Position y.
    Y,
    /// Position z.
    Z,
}

impl Var {
    /// The object name the variable is imported under (and the name the
    /// query text uses).
    pub fn name(self) -> &'static str {
        match self {
            Var::Energy => "Energy",
            Var::X => "x",
            Var::Y => "y",
            Var::Z => "z",
        }
    }
}

/// One constraint of a conjunction: an interval on one variable, with the
/// text the parser receives. Bounds are `f32` values (the element type),
/// so the text round-trips to exactly the interval the oracle checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Term {
    /// The constrained variable.
    pub var: Var,
    /// The interval the oracle checks values against.
    pub interval: Interval,
    /// The constraint as query text.
    pub text: String,
}

impl Term {
    /// `lo < var < hi`.
    pub fn open(var: Var, lo: f32, hi: f32) -> Term {
        Term {
            var,
            interval: Interval::open(lo as f64, hi as f64),
            text: format!("{lo} < {} < {hi}", var.name()),
        }
    }

    /// `var > v`.
    pub fn gt(var: Var, v: f32) -> Term {
        Term {
            var,
            interval: Interval::from_op(QueryOp::Gt, v as f64),
            text: format!("{} > {v}", var.name()),
        }
    }
}

/// One query: a conjunction of terms, submitted as text.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// The constraints, in the order they appear in the text.
    pub terms: Vec<Term>,
    /// The full query text (`term AND term …`).
    pub text: String,
}

impl QuerySpec {
    /// The conjunction of `terms`.
    pub fn new(terms: Vec<Term>) -> QuerySpec {
        let text = terms.iter().map(|t| t.text.as_str()).collect::<Vec<_>>().join(" AND ");
        QuerySpec { terms, text }
    }
}

/// `count` wide windows on `x`, widths stepping from 10 % to 40 % of the
/// domain, each start jittered by ±2 % of the domain.
fn wide_x_windows(rng: &mut Rng, count: usize) -> Vec<Term> {
    (0..count)
        .map(|i| {
            let f = i as f64 / (count.max(2) - 1) as f64;
            let lo = X_MAX * (0.05 + 0.45 * f) + rng.jitter(0.02 * X_MAX);
            let hi = lo + X_MAX * (0.10 + 0.30 * f);
            Term::open(Var::X, lo as f32, hi as f32)
        })
        .collect()
}

/// `count` windows over the bulk (non-tail, `< 2.0`) energy band, 0.3–0.55
/// wide, each start jittered by ±0.01.
fn bulk_energy_windows(rng: &mut Rng, count: usize) -> Vec<Term> {
    (0..count)
        .map(|i| {
            let f = i as f64 / (count.max(2) - 1) as f64;
            let lo = 0.1 + 1.0 * f + rng.jitter(0.01);
            let hi = lo + 0.30 + 0.25 * f;
            Term::open(Var::Energy, lo as f32, hi as f32)
        })
        .collect()
}

/// `scan_wide`: 12 wide single-variable windows (6 on `x`, 6 on bulk
/// `Energy`) and 4 wide `x AND y` conjunctions.
pub fn scan_wide_queries(seed: u64) -> Vec<QuerySpec> {
    let mut rng = Rng::fork(seed, 1);
    let mut out: Vec<QuerySpec> = Vec::new();
    let xs = wide_x_windows(&mut rng, 6);
    let es = bulk_energy_windows(&mut rng, 6);
    for (x, e) in xs.into_iter().zip(es) {
        out.push(QuerySpec::new(vec![x]));
        out.push(QuerySpec::new(vec![e]));
    }
    for i in 0..4 {
        let xlo = X_MAX * (0.10 + 0.15 * i as f64) + rng.jitter(0.02 * X_MAX);
        let xhi = xlo + X_MAX * 0.35;
        let ylo = Y_MIN + (Y_MAX - Y_MIN) * (0.15 + 0.05 * i as f64) + rng.jitter(2.0);
        let yhi = ylo + (Y_MAX - Y_MIN) * 0.5;
        out.push(QuerySpec::new(vec![
            Term::open(Var::X, xlo as f32, xhi as f32),
            Term::open(Var::Y, ylo as f32, yhi as f32),
        ]));
    }
    out
}

/// `selective_catalog`: the paper's 21-query catalog (15 `Energy` windows,
/// 6 four-variable conjunctions). Fixed by the paper, so seed-independent.
pub fn catalog_queries() -> Vec<QuerySpec> {
    let mut out: Vec<QuerySpec> = pdc_workloads::single_object_catalog()
        .iter()
        .map(|s| QuerySpec::new(vec![Term::open(Var::Energy, s.lo, s.hi)]))
        .collect();
    for m in pdc_workloads::multi_object_catalog() {
        out.push(QuerySpec::new(vec![
            Term::gt(Var::Energy, m.energy_gt),
            Term::open(Var::X, m.x_lo, m.x_hi),
            Term::open(Var::Y, m.y_lo, m.y_hi),
            Term::open(Var::Z, m.z_lo, m.z_hi),
        ]));
    }
    out
}

/// `spill_cold`: 6 wide `x` windows, 6 bulk `Energy` windows and 3
/// `Energy AND x` conjunctions.
pub fn spill_cold_queries(seed: u64) -> Vec<QuerySpec> {
    let mut rng = Rng::fork(seed, 2);
    let mut out: Vec<QuerySpec> = Vec::new();
    let xs = wide_x_windows(&mut rng, 6);
    let es = bulk_energy_windows(&mut rng, 6);
    for (x, e) in xs.iter().zip(&es) {
        out.push(QuerySpec::new(vec![x.clone()]));
        out.push(QuerySpec::new(vec![e.clone()]));
    }
    for i in [0usize, 2, 4] {
        out.push(QuerySpec::new(vec![es[i].clone(), xs[5 - i].clone()]));
    }
    out
}

/// `serve_ingest`: a pool of 12 overlapping 0.2-wide windows stepping up
/// the energetic tail from 2.0, each start jittered by ±0.005.
pub fn serve_pool_queries(seed: u64) -> Vec<QuerySpec> {
    let mut rng = Rng::fork(seed, 3);
    (0..12)
        .map(|j| {
            let lo = 2.0 + 0.08 * j as f64 + rng.jitter(0.005);
            QuerySpec::new(vec![Term::open(Var::Energy, lo as f32, (lo + 0.2) as f32)])
        })
        .collect()
}

/// One tenant's offered load.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantLoad {
    /// Tenant name.
    pub name: &'static str,
    /// Weighted-fair share.
    pub weight: u32,
    /// Poisson arrival rate, per simulated second.
    pub rate_hz: f64,
    /// Admission budget, simulated seconds of estimated in-flight cost.
    pub budget_s: f64,
    /// Deferral-queue capacity.
    pub queue_cap: usize,
}

/// One generated arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenArrival {
    /// Simulated arrival time, seconds.
    pub at_s: f64,
    /// Index into the tenant list.
    pub tenant: usize,
    /// Index into the query pool.
    pub query: usize,
}

/// The open-loop trace of serve window `window`: one independent Poisson
/// stream per tenant over `(0, horizon_s]`, each arrival drawing a pool
/// query uniformly. Arrivals are simulated timestamps, merged in time order.
pub fn window_arrivals(
    seed: u64,
    window: u64,
    tenants: &[TenantLoad],
    pool_len: usize,
    horizon_s: f64,
) -> Vec<GenArrival> {
    let mut out = Vec::new();
    for (ti, t) in tenants.iter().enumerate() {
        let mut rng = Rng::fork(seed, 1000 + window * 16 + ti as u64);
        let mut at = 0.0f64;
        loop {
            at += -rng.unit().ln() / t.rate_hz;
            if at > horizon_s {
                break;
            }
            out.push(GenArrival { at_s: at, tenant: ti, query: rng.below(pool_len) });
        }
    }
    out.sort_by(|a, b| a.at_s.partial_cmp(&b.at_s).expect("finite arrival times"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_lists_are_a_function_of_the_seed() {
        assert_eq!(scan_wide_queries(5), scan_wide_queries(5));
        assert_ne!(scan_wide_queries(5), scan_wide_queries(6));
        assert_eq!(spill_cold_queries(5), spill_cold_queries(5));
        assert_ne!(spill_cold_queries(5), spill_cold_queries(6));
        assert_eq!(serve_pool_queries(9), serve_pool_queries(9));
        assert_ne!(serve_pool_queries(9), serve_pool_queries(10));
    }

    #[test]
    fn query_lists_have_the_documented_shape() {
        let sw = scan_wide_queries(1);
        assert_eq!(sw.len(), 16);
        assert_eq!(sw.iter().filter(|q| q.terms.len() == 2).count(), 4);
        let cat = catalog_queries();
        assert_eq!(cat.len(), 21);
        assert_eq!(cat[0].text, "2.1 < Energy < 2.2");
        assert_eq!(cat[15].text, "Energy > 2 AND 100 < x < 200 AND -90 < y < 0 AND 0 < z < 66");
        let sc = spill_cold_queries(1);
        assert_eq!(sc.len(), 15);
        assert_eq!(sc.iter().filter(|q| q.terms.len() == 2).count(), 3);
        assert_eq!(serve_pool_queries(1).len(), 12);
    }

    #[test]
    fn windows_stay_inside_the_domain_for_any_seed() {
        for seed in 0..50 {
            for q in scan_wide_queries(seed).iter().chain(&spill_cold_queries(seed)) {
                for t in &q.terms {
                    assert!(!t.interval.is_empty(), "{}", t.text);
                    if t.var == Var::X {
                        assert!(t.interval.overlaps_range(1.0, X_MAX - 1.0), "{}", t.text);
                    }
                }
            }
        }
    }

    #[test]
    fn term_text_round_trips_to_the_oracle_interval() {
        let t = Term::open(Var::X, 33.25, 99.5);
        assert_eq!(t.text, "33.25 < x < 99.5");
        assert!(
            t.interval.contains(50.0) && !t.interval.contains(33.25) && !t.interval.contains(99.5)
        );
        let lo: f32 = "2.1".parse::<f64>().unwrap() as f32;
        assert_eq!(Term::open(Var::Energy, lo, 2.2).text, "2.1 < Energy < 2.2");
        let g = Term::gt(Var::Energy, 1.3);
        assert_eq!(g.text, "Energy > 1.3");
        assert!(g.interval.contains(1.4) && !g.interval.contains(1.3f32 as f64));
    }

    fn tenants() -> Vec<TenantLoad> {
        vec![
            TenantLoad { name: "a", weight: 4, rate_hz: 100.0, budget_s: 1.0, queue_cap: 8 },
            TenantLoad { name: "flood", weight: 1, rate_hz: 800.0, budget_s: 0.01, queue_cap: 8 },
        ]
    }

    #[test]
    fn traces_are_seeded_sorted_and_rate_proportional() {
        let a = window_arrivals(3, 0, &tenants(), 12, 1.0);
        assert_eq!(a, window_arrivals(3, 0, &tenants(), 12, 1.0));
        assert_ne!(a, window_arrivals(4, 0, &tenants(), 12, 1.0));
        assert_ne!(a, window_arrivals(3, 1, &tenants(), 12, 1.0));
        assert!(a.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        assert!(a.iter().all(|x| x.at_s > 0.0 && x.at_s <= 1.0 && x.query < 12));
        let well = a.iter().filter(|x| x.tenant == 0).count() as f64;
        let flood = a.iter().filter(|x| x.tenant == 1).count() as f64;
        assert!((60.0..140.0).contains(&well), "{well}");
        assert!((5.0..11.0).contains(&(flood / well)), "{flood} / {well}");
    }
}
