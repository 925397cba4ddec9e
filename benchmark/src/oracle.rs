//! The answer oracle: every distinct query is brute-forced over the raw
//! generated arrays at set-up, independently of the program under test,
//! and every measured operation is checked against it.

use crate::gen::{QuerySpec, Term, Var};
use pdc_types::{Interval, TypedVec};
use pdc_workloads::VpicData;

/// The raw column of a variable.
pub fn column(data: &VpicData, var: Var) -> &[f32] {
    match var {
        Var::Energy => &data.energy,
        Var::X => &data.x,
        Var::Y => &data.y,
        Var::Z => &data.z,
    }
}

fn matches(cols: &[(&[f32], &Term)], i: usize) -> bool {
    cols.iter().all(|(c, t)| t.interval.contains(c[i] as f64))
}

/// Exact hit count of `query` over the first `extent` particles.
pub fn count_hits(query: &QuerySpec, data: &VpicData, extent: usize) -> u64 {
    count_hits_at(query, data, &[extent])[0]
}

/// Exact hit counts of `query` over several prefixes of the data, in one
/// pass. `extents` must be ascending.
pub fn count_hits_at(query: &QuerySpec, data: &VpicData, extents: &[usize]) -> Vec<u64> {
    let cols: Vec<(&[f32], &Term)> = query.terms.iter().map(|t| (column(data, t.var), t)).collect();
    let mut out = Vec::with_capacity(extents.len());
    let mut hits = 0u64;
    let mut from = 0usize;
    for &extent in extents {
        assert!(extent >= from && extent <= data.len(), "extents must ascend within the data");
        hits += (from..extent).filter(|&i| matches(&cols, i)).count() as u64;
        from = extent;
        out.push(hits);
    }
    out
}

/// Whether every returned value lies in `interval` (the `get_data` check).
pub fn values_within(data: &TypedVec, interval: &Interval) -> bool {
    data.iter_f64().all(|v| interval.contains(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{QuerySpec, Term};

    fn data() -> VpicData {
        let ramp = |k: f32| (0..100).map(|i| i as f32 * k).collect::<Vec<f32>>();
        VpicData {
            energy: ramp(0.1),
            x: ramp(1.0),
            y: ramp(-1.0),
            z: ramp(2.0),
            ux: vec![0.0; 100],
            uy: vec![0.0; 100],
            uz: vec![0.0; 100],
        }
    }

    #[test]
    fn counts_conjunctions_over_prefixes() {
        let d = data();
        let q = QuerySpec::new(vec![Term::open(Var::X, 9.5, 50.5), Term::gt(Var::Energy, 2.05)]);
        // x in 10..=50 and energy > 2.05 (i >= 21) → i in 21..=50.
        assert_eq!(count_hits(&q, &d, 100), 30);
        assert_eq!(count_hits_at(&q, &d, &[10, 30, 30, 100]), vec![0, 9, 9, 30]);
    }

    #[test]
    fn open_bounds_are_exclusive() {
        let d = data();
        let q = QuerySpec::new(vec![Term::open(Var::X, 10.0, 12.0)]);
        assert_eq!(count_hits(&q, &d, 100), 1);
    }

    #[test]
    fn value_check_rejects_outliers() {
        let iv = Interval::open(1.0, 2.0);
        assert!(values_within(&TypedVec::Float(vec![1.5, 1.25]), &iv));
        assert!(!values_within(&TypedVec::Float(vec![1.5, 2.0]), &iv));
        assert!(values_within(&TypedVec::Float(vec![]), &iv));
    }
}
