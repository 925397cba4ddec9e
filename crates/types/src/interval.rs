//! Normalized value intervals.
//!
//! A conjunction of comparison constraints on one object (e.g.
//! `Energy > 2.1 AND Energy < 2.2`) reduces to a single [`Interval`].
//! Intervals are the lingua franca between the planner, the histogram
//! (pruning + selectivity estimation), the bitmap index (bin overlap) and
//! the sorted replica (binary-search bounds).

use crate::op::QueryOp;
use std::fmt;

/// One endpoint of an interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Endpoint value.
    pub value: f64,
    /// Whether the endpoint itself is included.
    pub inclusive: bool,
}

/// A (possibly unbounded, possibly empty) interval of `f64` values.
///
/// The canonical empty interval is `lo > hi`, produced by
/// [`Interval::empty`] or by intersecting disjoint intervals.
///
/// ```
/// use pdc_types::{Interval, QueryOp};
/// // Energy > 2.1 AND Energy < 2.2 fuses into one interval:
/// let iv = Interval::from_op(QueryOp::Gt, 2.1)
///     .intersect(&Interval::from_op(QueryOp::Lt, 2.2));
/// assert!(iv.contains(2.15));
/// assert!(!iv.contains(2.1));
/// assert!(!Interval::ALL.contains(f64::NAN)); // NaN satisfies no predicate
/// // region pruning: does a region with values in [0.0, 2.0] matter?
/// assert!(!iv.overlaps_range(0.0, 2.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower endpoint, or `None` for unbounded below.
    pub lo: Option<Bound>,
    /// Upper endpoint, or `None` for unbounded above.
    pub hi: Option<Bound>,
}

impl Interval {
    /// The interval containing every value.
    pub const ALL: Interval = Interval { lo: None, hi: None };

    /// An interval from a single comparison `x OP value`.
    pub fn from_op(op: QueryOp, value: f64) -> Self {
        match op {
            QueryOp::Gt => Interval { lo: Some(Bound { value, inclusive: false }), hi: None },
            QueryOp::Gte => Interval { lo: Some(Bound { value, inclusive: true }), hi: None },
            QueryOp::Lt => Interval { lo: None, hi: Some(Bound { value, inclusive: false }) },
            QueryOp::Lte => Interval { lo: None, hi: Some(Bound { value, inclusive: true }) },
            QueryOp::Eq => Interval {
                lo: Some(Bound { value, inclusive: true }),
                hi: Some(Bound { value, inclusive: true }),
            },
        }
    }

    /// The closed interval `[lo, hi]`.
    pub fn closed(lo: f64, hi: f64) -> Self {
        Interval {
            lo: Some(Bound { value: lo, inclusive: true }),
            hi: Some(Bound { value: hi, inclusive: true }),
        }
    }

    /// The open interval `(lo, hi)` — how the paper writes `lo < x < hi`.
    pub fn open(lo: f64, hi: f64) -> Self {
        Interval {
            lo: Some(Bound { value: lo, inclusive: false }),
            hi: Some(Bound { value: hi, inclusive: false }),
        }
    }

    /// A canonical empty interval.
    pub fn empty() -> Self {
        Interval {
            lo: Some(Bound { value: 1.0, inclusive: false }),
            hi: Some(Bound { value: 0.0, inclusive: false }),
        }
    }

    /// Whether no value satisfies the interval.
    pub fn is_empty(&self) -> bool {
        match (self.lo, self.hi) {
            (Some(lo), Some(hi)) => {
                lo.value > hi.value
                    || (lo.value == hi.value && !(lo.inclusive && hi.inclusive))
            }
            _ => false,
        }
    }

    /// Whether every value satisfies the interval.
    pub fn is_all(&self) -> bool {
        self.lo.is_none() && self.hi.is_none()
    }

    /// Membership test. IEEE semantics: a NaN value satisfies no interval
    /// (not even [`Interval::ALL`]), while a NaN *bound* never rejects a
    /// value, because every ordered comparison with it is false.
    #[inline]
    pub fn contains(&self, v: f64) -> bool {
        if v.is_nan() {
            return false;
        }
        if let Some(lo) = self.lo {
            if v < lo.value || (v == lo.value && !lo.inclusive) {
                return false;
            }
        }
        if let Some(hi) = self.hi {
            if v > hi.value || (v == hi.value && !hi.inclusive) {
                return false;
            }
        }
        true
    }

    /// Intersection with another interval (conjunction of constraints).
    pub fn intersect(&self, other: &Interval) -> Interval {
        let lo = match (self.lo, other.lo) {
            (None, b) | (b, None) => b,
            (Some(a), Some(b)) => {
                if a.value > b.value || (a.value == b.value && !a.inclusive) {
                    Some(a)
                } else {
                    Some(b)
                }
            }
        };
        let hi = match (self.hi, other.hi) {
            (None, b) | (b, None) => b,
            (Some(a), Some(b)) => {
                if a.value < b.value || (a.value == b.value && !a.inclusive) {
                    Some(a)
                } else {
                    Some(b)
                }
            }
        };
        Interval { lo, hi }
    }

    /// Whether the closed range `[min, max]` (e.g. a region's min/max
    /// metadata) can contain any matching value. This is the region-pruning
    /// test of the paper (§III-D2): a region whose `[min,max]` does not
    /// overlap the query interval is skipped entirely.
    pub fn overlaps_range(&self, min: f64, max: f64) -> bool {
        if self.is_empty() {
            return false;
        }
        if let Some(lo) = self.lo {
            if max < lo.value || (max == lo.value && !lo.inclusive) {
                return false;
            }
        }
        if let Some(hi) = self.hi {
            if min > hi.value || (min == hi.value && !hi.inclusive) {
                return false;
            }
        }
        true
    }

    /// Whether the closed range `[min, max]` lies entirely inside the
    /// interval (every value in the range matches). Inlined: it is the
    /// per-bin test of the histogram estimate, across a crate boundary.
    #[inline]
    pub fn covers_range(&self, min: f64, max: f64) -> bool {
        self.contains(min) && self.contains(max)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.lo {
            Some(b) if b.inclusive => write!(f, "[{}", b.value)?,
            Some(b) => write!(f, "({}", b.value)?,
            None => write!(f, "(-inf")?,
        }
        write!(f, ", ")?;
        match self.hi {
            Some(b) if b.inclusive => write!(f, "{}]", b.value),
            Some(b) => write!(f, "{})", b.value),
            None => write!(f, "+inf)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_op_semantics_match_direct_eval() {
        for op in [QueryOp::Gt, QueryOp::Gte, QueryOp::Lt, QueryOp::Lte, QueryOp::Eq] {
            let iv = Interval::from_op(op, 2.0);
            for v in [1.0, 2.0, 3.0] {
                assert_eq!(iv.contains(v), op.eval(v, 2.0), "{op} {v}");
            }
        }
    }

    #[test]
    fn open_closed_membership() {
        let open = Interval::open(1.0, 2.0);
        assert!(!open.contains(1.0));
        assert!(open.contains(1.5));
        assert!(!open.contains(2.0));

        let closed = Interval::closed(1.0, 2.0);
        assert!(closed.contains(1.0));
        assert!(closed.contains(2.0));
        assert!(!closed.contains(2.5));
    }

    #[test]
    fn intersect_produces_conjunction() {
        // Energy > 2.1 AND Energy < 2.2
        let iv = Interval::from_op(QueryOp::Gt, 2.1).intersect(&Interval::from_op(QueryOp::Lt, 2.2));
        assert!(iv.contains(2.15));
        assert!(!iv.contains(2.1));
        assert!(!iv.contains(2.2));
        assert!(!iv.is_empty());
    }

    #[test]
    fn intersect_disjoint_is_empty() {
        let a = Interval::from_op(QueryOp::Lt, 1.0);
        let b = Interval::from_op(QueryOp::Gt, 2.0);
        assert!(a.intersect(&b).is_empty());

        // touching at an excluded endpoint
        let a = Interval::from_op(QueryOp::Lt, 1.0);
        let b = Interval::from_op(QueryOp::Gte, 1.0);
        assert!(a.intersect(&b).is_empty());

        // touching at an included endpoint is the single point
        let a = Interval::from_op(QueryOp::Lte, 1.0);
        let b = Interval::from_op(QueryOp::Gte, 1.0);
        let point = a.intersect(&b);
        assert!(!point.is_empty());
        assert!(point.contains(1.0));
        assert!(!point.contains(1.0001));
    }

    #[test]
    fn tighter_bound_wins_at_equal_values() {
        let strict = Interval::from_op(QueryOp::Gt, 1.0);
        let loose = Interval::from_op(QueryOp::Gte, 1.0);
        let iv = strict.intersect(&loose);
        assert!(!iv.contains(1.0));
    }

    #[test]
    fn overlaps_range_prunes_correctly() {
        let iv = Interval::open(2.1, 2.2); // 2.1 < x < 2.2
        assert!(!iv.overlaps_range(0.0, 2.0)); // region entirely below
        assert!(!iv.overlaps_range(2.3, 5.0)); // region entirely above
        assert!(iv.overlaps_range(2.0, 2.15)); // straddles lower endpoint
        assert!(iv.overlaps_range(0.0, 10.0)); // superset
        // touching the excluded endpoint exactly -> prune
        assert!(!iv.overlaps_range(0.0, 2.1));
        assert!(!iv.overlaps_range(2.2, 3.0));
        // touching an included endpoint -> keep
        let iv = Interval::closed(2.1, 2.2);
        assert!(iv.overlaps_range(0.0, 2.1));
        assert!(iv.overlaps_range(2.2, 3.0));
    }

    #[test]
    fn covers_range() {
        let iv = Interval::closed(0.0, 10.0);
        assert!(iv.covers_range(1.0, 9.0));
        assert!(iv.covers_range(0.0, 10.0));
        assert!(!iv.covers_range(-1.0, 5.0));
        assert!(!Interval::open(0.0, 10.0).covers_range(0.0, 5.0));
    }

    #[test]
    fn empty_and_all() {
        assert!(Interval::empty().is_empty());
        assert!(!Interval::empty().contains(0.5));
        assert!(Interval::ALL.is_all());
        assert!(Interval::ALL.contains(f64::MAX));
        assert!(!Interval::ALL.is_empty());
        for iv in [Interval::ALL, Interval::empty(), Interval::closed(-1.0, 1.0)] {
            assert!(!iv.contains(f64::NAN) && !iv.contains(-f64::NAN), "{iv}");
            assert!(!iv.covers_range(f64::NAN, 0.0), "{iv}");
        }
        let nan_bound = Interval::from_op(QueryOp::Lt, f64::NAN);
        assert!(nan_bound.contains(1.0) && !nan_bound.contains(f64::NAN));
        assert!(!Interval::empty().overlaps_range(0.0, 2.0));
    }

    #[test]
    fn display_renders_standard_notation() {
        assert_eq!(Interval::open(1.0, 2.0).to_string(), "(1, 2)");
        assert_eq!(Interval::closed(1.0, 2.0).to_string(), "[1, 2]");
        assert_eq!(Interval::from_op(QueryOp::Gt, 3.0).to_string(), "(3, +inf)");
        assert_eq!(Interval::from_op(QueryOp::Lte, 3.0).to_string(), "(-inf, 3]");
    }
}
