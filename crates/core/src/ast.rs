//! The query construction API (paper Fig. 1).
//!
//! ```text
//! pdcquery_t *PDCquery_create(pdcid_t obj_id, pdcquery_op_t op,
//!                             pdc_type_t type, void *value);
//! pdcquery_t *PDCquery_and(pdcquery_t *q1, pdcquery_t *q2);
//! pdcquery_t *PDCquery_or (pdcquery_t *q1, pdcquery_t *q2);
//! perr_t PDCquery_set_region(pdcquery_t *query, pdc_region_t *region);
//! ```
//!
//! "Internally in PDC, we use a tree structure to store and represent the
//! query conditions, which allows for chaining an unlimited number of
//! conditions." The client broadcasts the tree to every server;
//! [`PdcQuery::wire_size_bytes`] is what the simulated network charges.

use pdc_types::{NdRegion, ObjectId, PdcValue, QueryOp};
use std::fmt;

/// One node of the query condition tree.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryNode {
    /// A single comparison `object OP value`.
    Constraint {
        /// The queried data object.
        object: ObjectId,
        /// Comparison operator.
        op: QueryOp,
        /// Comparison constant (carries the `pdc_type_t`).
        value: PdcValue,
    },
    /// Conjunction of two sub-queries.
    And(Box<QueryNode>, Box<QueryNode>),
    /// Disjunction of two sub-queries.
    Or(Box<QueryNode>, Box<QueryNode>),
}

impl QueryNode {
    /// All object ids referenced by the tree (with duplicates).
    pub fn objects(&self, out: &mut Vec<ObjectId>) {
        match self {
            QueryNode::Constraint { object, .. } => out.push(*object),
            QueryNode::And(a, b) | QueryNode::Or(a, b) => {
                a.objects(out);
                b.objects(out);
            }
        }
    }

    /// Number of constraint leaves.
    pub fn num_constraints(&self) -> usize {
        match self {
            QueryNode::Constraint { .. } => 1,
            QueryNode::And(a, b) | QueryNode::Or(a, b) => {
                a.num_constraints() + b.num_constraints()
            }
        }
    }
}

impl fmt::Display for QueryNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryNode::Constraint { object, op, value } => {
                write!(f, "obj{} {} {}", object.raw(), op, value)
            }
            QueryNode::And(a, b) => write!(f, "({a} AND {b})"),
            QueryNode::Or(a, b) => write!(f, "({a} OR {b})"),
        }
    }
}

/// A query handle: the condition tree plus an optional spatial region
/// constraint.
///
/// ```
/// use pdc_query::PdcQuery;
/// use pdc_types::{ObjectId, QueryOp};
/// let energy = ObjectId(1);
/// let x = ObjectId(2);
/// // Energy > 2.0 AND 100 < x < 200
/// let q = PdcQuery::create(energy, QueryOp::Gt, 2.0f32)
///     .and(PdcQuery::range_open(x, 100.0f32, 200.0f32));
/// assert_eq!(q.objects(), vec![energy, x]);
/// assert_eq!(q.to_string(), "(obj1 > 2 AND (obj2 > 100 AND obj2 < 200))");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PdcQuery {
    /// The condition tree.
    pub root: QueryNode,
    /// Optional spatial constraint (`PDCquery_set_region`); "the region
    /// selection can be arbitrary and does not need to match any of the
    /// existing PDC internal region partitions".
    pub region: Option<NdRegion>,
}

impl PdcQuery {
    /// `PDCquery_create`: a one-sided comparison on a single object.
    pub fn create(object: ObjectId, op: QueryOp, value: impl Into<PdcValue>) -> PdcQuery {
        PdcQuery {
            root: QueryNode::Constraint { object, op, value: value.into() },
            region: None,
        }
    }

    /// `PDCquery_and`: conjunction. Region constraints are merged (both
    /// must be absent or equal; the C API sets the region on the combined
    /// query afterwards).
    pub fn and(self, other: PdcQuery) -> PdcQuery {
        PdcQuery {
            root: QueryNode::And(Box::new(self.root), Box::new(other.root)),
            region: self.region.or(other.region),
        }
    }

    /// `PDCquery_or`: disjunction.
    pub fn or(self, other: PdcQuery) -> PdcQuery {
        PdcQuery {
            root: QueryNode::Or(Box::new(self.root), Box::new(other.root)),
            region: self.region.or(other.region),
        }
    }

    /// `PDCquery_set_region`: attach a spatial constraint.
    pub fn set_region(mut self, region: NdRegion) -> PdcQuery {
        self.region = Some(region);
        self
    }

    /// Convenience: the range query `lo < object < hi` (the paper's most
    /// common query shape, e.g. `2.1 < Energy < 2.2`).
    pub fn range_open(
        object: ObjectId,
        lo: impl Into<PdcValue>,
        hi: impl Into<PdcValue>,
    ) -> PdcQuery {
        PdcQuery::create(object, QueryOp::Gt, lo).and(PdcQuery::create(object, QueryOp::Lt, hi))
    }

    /// Distinct objects referenced by the query.
    pub fn objects(&self) -> Vec<ObjectId> {
        let mut out = Vec::new();
        self.root.objects(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// A canonical, bit-exact structural encoding of the query: tree
    /// shape, object ids, operators, the comparison constants' raw bit
    /// patterns, and the spatial region. Two queries produce the same
    /// key iff they are structurally identical, which is what keys the
    /// engine's plan cache (floats are compared by bits, so `-0.0` and
    /// `0.0`, or distinct NaN payloads, never collide into one entry).
    pub fn canonical_key(&self) -> String {
        use std::fmt::Write as _;
        fn value_bits(v: &PdcValue) -> (u8, u64) {
            match v {
                PdcValue::Float(x) => (0, u64::from(x.to_bits())),
                PdcValue::Double(x) => (1, x.to_bits()),
                PdcValue::Int32(x) => (2, u64::from(*x as u32)),
                PdcValue::UInt32(x) => (3, u64::from(*x)),
                PdcValue::Int64(x) => (4, *x as u64),
                PdcValue::UInt64(x) => (5, *x),
            }
        }
        fn node(n: &QueryNode, out: &mut String) {
            match n {
                QueryNode::Constraint { object, op, value } => {
                    let (tag, bits) = value_bits(value);
                    let _ = write!(out, "c{:x}.{:?}.{}.{:x};", object.raw(), op, tag, bits);
                }
                QueryNode::And(a, b) => {
                    out.push('(');
                    node(a, out);
                    out.push('&');
                    node(b, out);
                    out.push(')');
                }
                QueryNode::Or(a, b) => {
                    out.push('(');
                    node(a, out);
                    out.push('|');
                    node(b, out);
                    out.push(')');
                }
            }
        }
        let mut key = String::new();
        node(&self.root, &mut key);
        if let Some(r) = &self.region {
            let _ = write!(key, "@{:?}x{:?}", r.offsets, r.lens);
        }
        key
    }

    /// Serialized size of the query for the broadcast (what the client
    /// ships to every server).
    pub fn wire_size_bytes(&self) -> u64 {
        // constraint ≈ 8 (obj) + 1 (op) + 9 (tagged value); combinator ≈ 2;
        // region ≈ 16/dim. A close, deterministic stand-in for an actual
        // wire codec.
        let constraints = self.root.num_constraints() as u64;
        let combinators = constraints.saturating_sub(1);
        let region = self.region.as_ref().map_or(0, |r| 16 * r.ndims() as u64);
        16 + constraints * 18 + combinators * 2 + region
    }
}

impl fmt::Display for PdcQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.root)?;
        if let Some(r) = &self.region {
            write!(f, " WITHIN {:?}x{:?}", r.offsets, r.lens)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(n: u64) -> ObjectId {
        ObjectId(n)
    }

    #[test]
    fn create_builds_single_constraint() {
        let q = PdcQuery::create(obj(1), QueryOp::Gt, 2.0f32);
        assert_eq!(q.objects(), vec![obj(1)]);
        assert_eq!(q.root.num_constraints(), 1);
        assert!(q.region.is_none());
    }

    #[test]
    fn range_open_is_two_anded_constraints() {
        let q = PdcQuery::range_open(obj(1), 2.1f32, 2.2f32);
        assert_eq!(q.root.num_constraints(), 2);
        assert_eq!(q.objects(), vec![obj(1)]);
        assert!(matches!(q.root, QueryNode::And(_, _)));
    }

    #[test]
    fn complex_tree_chains_unlimited_conditions() {
        // Energy > 2.0 AND 100 < x < 200 AND -90 < y < 0 AND 0 < z < 66
        let q = PdcQuery::create(obj(1), QueryOp::Gt, 2.0f32)
            .and(PdcQuery::range_open(obj(2), 100.0f32, 200.0f32))
            .and(PdcQuery::range_open(obj(3), -90.0f32, 0.0f32))
            .and(PdcQuery::range_open(obj(4), 0.0f32, 66.0f32));
        assert_eq!(q.root.num_constraints(), 7);
        assert_eq!(q.objects(), vec![obj(1), obj(2), obj(3), obj(4)]);
    }

    #[test]
    fn or_combination() {
        let q = PdcQuery::create(obj(1), QueryOp::Lt, 0.5f32)
            .or(PdcQuery::create(obj(1), QueryOp::Gt, 3.5f32));
        assert!(matches!(q.root, QueryNode::Or(_, _)));
        assert_eq!(q.objects(), vec![obj(1)]);
    }

    #[test]
    fn set_region_attaches_constraint() {
        let q = PdcQuery::create(obj(1), QueryOp::Gt, 1.0f64)
            .set_region(NdRegion::one_d(100, 50));
        assert_eq!(q.region.as_ref().unwrap().num_elements(), 50);
    }

    #[test]
    fn region_survives_combination() {
        let a = PdcQuery::create(obj(1), QueryOp::Gt, 1.0f64).set_region(NdRegion::one_d(0, 10));
        let b = PdcQuery::create(obj(2), QueryOp::Lt, 5.0f64);
        let q = a.and(b);
        assert!(q.region.is_some());
    }

    #[test]
    fn wire_size_grows_with_conditions() {
        let small = PdcQuery::create(obj(1), QueryOp::Gt, 1.0f32);
        let big = PdcQuery::range_open(obj(1), 0.0f32, 1.0f32)
            .and(PdcQuery::range_open(obj(2), 0.0f32, 1.0f32));
        assert!(big.wire_size_bytes() > small.wire_size_bytes());
    }

    #[test]
    fn display_is_readable() {
        let q = PdcQuery::range_open(obj(1), 2.1f64, 2.2f64);
        assert_eq!(q.to_string(), "(obj1 > 2.1 AND obj1 < 2.2)");
    }

    #[test]
    fn debug_names_operator() {
        let q = PdcQuery::create(obj(1), QueryOp::Gte, 7i64)
            .or(PdcQuery::create(obj(2), QueryOp::Eq, 3u32))
            .set_region(NdRegion::one_d(5, 10));
        assert!(format!("{q:?}").contains("Gte"));
    }
}
