//! Query planning: normalization and selectivity-ordered evaluation.
//!
//! The planner turns the user's condition tree into a [`PlanNode`]:
//! conjunctions collapse into per-object [`Interval`]s, and every And/Conj
//! level is **ordered by estimated selectivity** from the objects' global
//! histograms (§III-D2): "when a query involves conditions on multiple
//! objects, the execution order has a significant impact on the overall
//! query evaluation time ... we chose to use a histogram that can provide
//! an approximate estimation at a very low cost."

use crate::ast::{PdcQuery, QueryNode};
use pdc_histogram::Histogram;
use pdc_odms::Odms;
use pdc_types::{Interval, NdRegion, ObjectId, PdcError, PdcResult};

/// One normalized constraint: all comparisons on `object` in a
/// conjunction, fused into a single interval.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjConstraint {
    /// The constrained object.
    pub object: ObjectId,
    /// The fused value interval.
    pub interval: Interval,
    /// Estimated selectivity (midpoint of the global-histogram bounds),
    /// used for ordering; `None` when no histogram exists.
    pub est_selectivity: Option<f64>,
}

/// A normalized plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// AND of per-object intervals, ordered most-selective-first.
    Conj(Vec<ObjConstraint>),
    /// General conjunction of sub-plans (arises when an AND has an OR
    /// below it), ordered most-selective-first; evaluated by candidate
    /// chaining.
    And(Vec<PlanNode>),
    /// Disjunction of sub-plans; results are unioned with duplicate
    /// removal.
    Or(Vec<PlanNode>),
}

/// The executable plan: normalized tree plus the spatial constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// Normalized, selectivity-ordered condition tree.
    pub root: PlanNode,
    /// Optional spatial constraint carried over from the query.
    pub region: Option<NdRegion>,
}

impl PlanNode {
    /// Estimated selectivity of the node (fraction of elements), for
    /// ordering. Conservative: AND takes the minimum of its children
    /// (an upper bound of the conjunction), OR the clamped sum.
    pub fn est_selectivity(&self) -> f64 {
        match self {
            PlanNode::Conj(cs) => {
                cs.iter().filter_map(|c| c.est_selectivity).fold(1.0, f64::min)
            }
            PlanNode::And(children) => {
                children.iter().map(|c| c.est_selectivity()).fold(1.0, f64::min)
            }
            PlanNode::Or(children) => {
                children.iter().map(|c| c.est_selectivity()).sum::<f64>().min(1.0)
            }
        }
    }

    /// Every constraint of the tree, pre-order and left to right (the
    /// plan's selectivity-ordered evaluation order).
    pub fn constraints(&self) -> impl Iterator<Item = &ObjConstraint> + '_ {
        let mut stack: Vec<&PlanNode> = vec![self];
        let mut conj = [].iter();
        std::iter::from_fn(move || loop {
            if let Some(c) = conj.next() {
                return Some(c);
            }
            match stack.pop()? {
                PlanNode::Conj(cs) => conj = cs.iter(),
                PlanNode::And(children) | PlanNode::Or(children) => {
                    stack.extend(children.iter().rev())
                }
            }
        })
    }

    /// All objects referenced by the node.
    pub fn objects(&self, out: &mut Vec<ObjectId>) {
        out.extend(self.constraints().map(|c| c.object));
    }

    /// Whether any constraint interval is empty (the whole conjunction
    /// can short-circuit to no hits).
    pub fn trivially_empty(&self) -> bool {
        match self {
            PlanNode::Conj(cs) => cs.iter().any(|c| c.interval.is_empty()),
            PlanNode::And(children) => children.iter().any(|c| c.trivially_empty()),
            PlanNode::Or(children) => children.iter().all(|c| c.trivially_empty()),
        }
    }
}

impl QueryPlan {
    /// Normalize and order a query against the system's metadata.
    ///
    /// Validates that all referenced objects exist, share identical array
    /// dimensions ("querying on multiple objects is allowed when the
    /// object dimensions are identical") and — for multi-object queries —
    /// share the same region partitioning grid.
    pub fn build(query: &PdcQuery, odms: &Odms) -> PdcResult<QueryPlan> {
        Self::build_with_ordering(query, odms, true)
    }

    /// Like [`Self::build`], but optionally disabling the
    /// selectivity-based evaluation ordering (used by the E7 ablation to
    /// quantify what the ordering buys).
    pub fn build_with_ordering(
        query: &PdcQuery,
        odms: &Odms,
        order_by_selectivity: bool,
    ) -> PdcResult<QueryPlan> {
        let objects = query.objects();
        if objects.is_empty() {
            return Err(PdcError::InvalidQuery("no constraints".into()));
        }
        let first_meta = odms.meta().get(objects[0])?;
        for &o in &objects[1..] {
            let m = odms.meta().get(o)?;
            if m.shape != first_meta.shape {
                return Err(PdcError::DimensionMismatch {
                    left: first_meta.shape.0.clone(),
                    right: m.shape.0.clone(),
                });
            }
            if m.region_elems != first_meta.region_elems {
                return Err(PdcError::InvalidQuery(format!(
                    "objects {} and {} use different region grids ({} vs {} elements)",
                    objects[0], o, first_meta.region_elems, m.region_elems
                )));
            }
        }
        // Type check: comparison constants must match the object type.
        check_types(&query.root, odms)?;

        let root = normalize(&query.root, odms, order_by_selectivity);
        Ok(QueryPlan { root, region: query.region.clone() })
    }

    /// The primary object of the plan: the first-evaluated constraint's
    /// object (after selectivity ordering). Used by the engine for region
    /// assignment.
    pub fn primary_object(&self) -> ObjectId {
        fn first(node: &PlanNode) -> ObjectId {
            match node {
                PlanNode::Conj(cs) => cs[0].object,
                PlanNode::And(children) | PlanNode::Or(children) => first(&children[0]),
            }
        }
        first(&self.root)
    }
}

fn check_types(node: &QueryNode, odms: &Odms) -> PdcResult<()> {
    match node {
        QueryNode::Constraint { object, value, .. } => {
            let meta = odms.meta().get(*object)?;
            if meta.pdc_type != value.pdc_type() {
                return Err(PdcError::TypeMismatch {
                    expected: meta.pdc_type,
                    got: value.pdc_type(),
                });
            }
            Ok(())
        }
        QueryNode::And(a, b) | QueryNode::Or(a, b) => {
            check_types(a, odms)?;
            check_types(b, odms)
        }
    }
}

/// Estimated selectivity midpoint from an object's global histogram.
fn estimate(hist: Option<&Histogram>, interval: &Interval) -> Option<f64> {
    let h = hist?;
    if h.total() == 0 {
        return Some(0.0);
    }
    let (lo, hi) = h.selectivity_bounds(interval);
    Some((lo + hi) / 2.0)
}

/// Normalize a query tree: fuse conjunctive constraints per object, then
/// order every level by estimated selectivity (ascending — most selective
/// first).
fn normalize(node: &QueryNode, odms: &Odms, order: bool) -> PlanNode {
    match node {
        QueryNode::Constraint { object, op, value } => {
            let interval = Interval::from_op(*op, value.as_f64());
            PlanNode::Conj(vec![constraint(*object, interval, odms)])
        }
        QueryNode::And(a, b) => {
            let left = normalize(a, odms, order);
            let right = normalize(b, odms, order);
            merge_and(left, right, odms, order)
        }
        QueryNode::Or(a, b) => {
            let left = normalize(a, odms, order);
            let right = normalize(b, odms, order);
            let mut children = Vec::new();
            flatten_or(left, &mut children);
            flatten_or(right, &mut children);
            if order {
                children.sort_by(|x, y| {
                    x.est_selectivity().partial_cmp(&y.est_selectivity()).unwrap()
                });
            }
            PlanNode::Or(children)
        }
    }
}

fn constraint(object: ObjectId, interval: Interval, odms: &Odms) -> ObjConstraint {
    let hist = odms.meta().global_histogram(object).ok();
    let est = estimate(hist.as_deref(), &interval);
    ObjConstraint { object, interval, est_selectivity: est }
}

fn flatten_or(node: PlanNode, out: &mut Vec<PlanNode>) {
    match node {
        PlanNode::Or(children) => out.extend(children),
        other => out.push(other),
    }
}

fn merge_and(left: PlanNode, right: PlanNode, odms: &Odms, order: bool) -> PlanNode {
    match (left, right) {
        // Two conjunctions fuse: intervals on the same object intersect.
        (PlanNode::Conj(a), PlanNode::Conj(b)) => {
            let mut merged: Vec<ObjConstraint> = a;
            for c in b {
                if let Some(existing) = merged.iter_mut().find(|m| m.object == c.object) {
                    let fused = existing.interval.intersect(&c.interval);
                    *existing = constraint(c.object, fused, odms);
                } else {
                    merged.push(c);
                }
            }
            // Most selective first — the paper's evaluation ordering.
            if order {
                merged.sort_by(|x, y| {
                    let sx = x.est_selectivity.unwrap_or(1.0);
                    let sy = y.est_selectivity.unwrap_or(1.0);
                    sx.partial_cmp(&sy).unwrap().then(x.object.cmp(&y.object))
                });
            }
            PlanNode::Conj(merged)
        }
        // Anything else: general And, candidate-chained at evaluation.
        (l, r) => {
            let mut children = Vec::new();
            let mut push = |n: PlanNode| match n {
                PlanNode::And(cs) => children.extend(cs),
                other => children.push(other),
            };
            push(l);
            push(r);
            if order {
                children.sort_by(|x, y| {
                    x.est_selectivity().partial_cmp(&y.est_selectivity()).unwrap()
                });
            }
            PlanNode::And(children)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_odms::ImportOptions;
    use pdc_types::{QueryOp, TypedVec};

    /// Build a small system with two f32 objects of the same shape whose
    /// distributions differ (x is uniform; energy is mostly small with a
    /// sparse tail), so selectivity ordering is testable.
    fn system() -> (Odms, ObjectId, ObjectId) {
        let odms = Odms::new(4);
        let c = odms.create_container("t");
        let n = 20_000;
        let energy: Vec<f32> = (0..n)
            .map(|i| if i % 100 == 0 { 2.0 + (i % 7) as f32 * 0.3 } else { (i % 97) as f32 / 50.0 })
            .collect();
        let x: Vec<f32> = (0..n).map(|i| (i % 1000) as f32 / 3.0).collect();
        let opts = ImportOptions { region_bytes: 8192, ..Default::default() };
        let e = odms.import_array(c, "energy", TypedVec::Float(energy), &opts).unwrap().object;
        let xo = odms.import_array(c, "x", TypedVec::Float(x), &opts).unwrap().object;
        (odms, e, xo)
    }

    #[test]
    fn single_constraint_plan() {
        let (odms, e, _) = system();
        let q = PdcQuery::create(e, QueryOp::Gt, 2.0f32);
        let plan = QueryPlan::build(&q, &odms).unwrap();
        match &plan.root {
            PlanNode::Conj(cs) => {
                assert_eq!(cs.len(), 1);
                assert_eq!(cs[0].object, e);
                assert!(cs[0].est_selectivity.unwrap() < 0.2);
            }
            other => panic!("expected Conj, got {other:?}"),
        }
        assert_eq!(plan.primary_object(), e);
    }

    #[test]
    fn range_fuses_into_one_interval() {
        let (odms, e, _) = system();
        let q = PdcQuery::range_open(e, 0.5f32, 0.6f32);
        let plan = QueryPlan::build(&q, &odms).unwrap();
        match &plan.root {
            PlanNode::Conj(cs) => {
                assert_eq!(cs.len(), 1, "two constraints on one object must fuse");
                assert!(cs[0].interval.contains(0.55));
                assert!(!cs[0].interval.contains(0.5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multi_object_ordered_by_selectivity() {
        let (odms, e, xo) = system();
        // energy > 2.0 is rare (~1%); x < 200 is common (~60%). The plan
        // must evaluate energy first even though x comes first in the
        // user's tree.
        let q = PdcQuery::create(xo, QueryOp::Lt, 200.0f32)
            .and(PdcQuery::create(e, QueryOp::Gt, 2.0f32));
        let plan = QueryPlan::build(&q, &odms).unwrap();
        match &plan.root {
            PlanNode::Conj(cs) => {
                assert_eq!(cs.len(), 2);
                assert_eq!(cs[0].object, e, "most selective constraint must come first");
                assert_eq!(plan.primary_object(), e);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn or_flattens_and_orders() {
        let (odms, e, _) = system();
        let q = PdcQuery::create(e, QueryOp::Gt, 3.0f32)
            .or(PdcQuery::create(e, QueryOp::Lt, 0.1f32))
            .or(PdcQuery::create(e, QueryOp::Gt, 100.0f32));
        let plan = QueryPlan::build(&q, &odms).unwrap();
        match &plan.root {
            PlanNode::Or(children) => {
                assert_eq!(children.len(), 3);
                let sels: Vec<f64> = children.iter().map(|c| c.est_selectivity()).collect();
                assert!(sels.windows(2).all(|w| w[0] <= w[1]), "not ordered: {sels:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn and_over_or_becomes_general_and() {
        let (odms, e, xo) = system();
        let q = (PdcQuery::create(e, QueryOp::Gt, 3.0f32)
            .or(PdcQuery::create(e, QueryOp::Lt, 0.1f32)))
        .and(PdcQuery::create(xo, QueryOp::Lt, 50.0f32));
        let plan = QueryPlan::build(&q, &odms).unwrap();
        assert!(matches!(plan.root, PlanNode::And(_)));
    }

    #[test]
    fn contradictory_range_is_trivially_empty() {
        let (odms, e, _) = system();
        let q = PdcQuery::create(e, QueryOp::Gt, 5.0f32)
            .and(PdcQuery::create(e, QueryOp::Lt, 1.0f32));
        let plan = QueryPlan::build(&q, &odms).unwrap();
        assert!(plan.root.trivially_empty());
    }

    #[test]
    fn type_mismatch_rejected() {
        let (odms, e, _) = system();
        let q = PdcQuery::create(e, QueryOp::Gt, 2.0f64); // object is f32
        assert!(matches!(
            QueryPlan::build(&q, &odms),
            Err(PdcError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let odms = Odms::new(4);
        let c = odms.create_container("t");
        let opts = ImportOptions::default();
        let a = odms
            .import_array(c, "a", TypedVec::Float(vec![0.0; 100]), &opts)
            .unwrap()
            .object;
        let b = odms
            .import_array(c, "b", TypedVec::Float(vec![0.0; 200]), &opts)
            .unwrap()
            .object;
        let q = PdcQuery::create(a, QueryOp::Gt, 0.0f32)
            .and(PdcQuery::create(b, QueryOp::Gt, 0.0f32));
        assert!(matches!(
            QueryPlan::build(&q, &odms),
            Err(PdcError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn missing_object_rejected() {
        let (odms, _, _) = system();
        let q = PdcQuery::create(ObjectId(9999), QueryOp::Gt, 0.0f32);
        assert!(matches!(QueryPlan::build(&q, &odms), Err(PdcError::NoSuchObject(_))));
    }

    #[test]
    fn region_constraint_carried_over() {
        let (odms, e, _) = system();
        let q = PdcQuery::create(e, QueryOp::Gt, 2.0f32)
            .set_region(pdc_types::NdRegion::one_d(100, 500));
        let plan = QueryPlan::build(&q, &odms).unwrap();
        assert!(plan.region.is_some());
    }
}
