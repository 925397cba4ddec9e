//! Query comparison operators.

use std::fmt;

/// The comparison operators accepted by `PDCquery_create` (paper Fig. 1):
/// `>`, `>=`, `<`, `<=`, `=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryOp {
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Gte,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Lte,
    /// Equal.
    Eq,
}

impl QueryOp {
    /// Evaluate the operator on `lhs OP rhs`.
    #[inline]
    pub fn eval(self, lhs: f64, rhs: f64) -> bool {
        match self {
            QueryOp::Gt => lhs > rhs,
            QueryOp::Gte => lhs >= rhs,
            QueryOp::Lt => lhs < rhs,
            QueryOp::Lte => lhs <= rhs,
            QueryOp::Eq => lhs == rhs,
        }
    }

    /// The operator's symbol as written in queries.
    pub fn symbol(self) -> &'static str {
        match self {
            QueryOp::Gt => ">",
            QueryOp::Gte => ">=",
            QueryOp::Lt => "<",
            QueryOp::Lte => "<=",
            QueryOp::Eq => "=",
        }
    }

    /// The mirrored operator, i.e. the op such that `a OP b == b OP' a`.
    pub fn mirrored(self) -> Self {
        match self {
            QueryOp::Gt => QueryOp::Lt,
            QueryOp::Gte => QueryOp::Lte,
            QueryOp::Lt => QueryOp::Gt,
            QueryOp::Lte => QueryOp::Gte,
            QueryOp::Eq => QueryOp::Eq,
        }
    }
}

impl fmt::Display for QueryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_matches_semantics() {
        assert!(QueryOp::Gt.eval(2.0, 1.0));
        assert!(!QueryOp::Gt.eval(1.0, 1.0));
        assert!(QueryOp::Gte.eval(1.0, 1.0));
        assert!(QueryOp::Lt.eval(0.5, 1.0));
        assert!(!QueryOp::Lt.eval(1.0, 1.0));
        assert!(QueryOp::Lte.eval(1.0, 1.0));
        assert!(QueryOp::Eq.eval(3.25, 3.25));
        assert!(!QueryOp::Eq.eval(3.25, 3.26));
    }

    #[test]
    fn mirrored_is_involutive_and_correct() {
        for op in [QueryOp::Gt, QueryOp::Gte, QueryOp::Lt, QueryOp::Lte, QueryOp::Eq] {
            assert_eq!(op.mirrored().mirrored(), op);
            for (a, b) in [(1.0, 2.0), (2.0, 1.0), (1.5, 1.5)] {
                assert_eq!(op.eval(a, b), op.mirrored().eval(b, a), "{op} on ({a},{b})");
            }
        }
    }

    #[test]
    fn symbols() {
        assert_eq!(QueryOp::Gte.to_string(), ">=");
        assert_eq!(QueryOp::Eq.to_string(), "=");
    }
}
