//! Per-server query evaluation (paper §III-C, §III-D).
//!
//! Each logical server evaluates the plan over the regions assigned to it
//! (round-robin on the shared region grid; for the sorted strategy, on the
//! sorted replica's value-partitioned regions). The strategies:
//!
//! * **FullScan** (`PDC-F`) — read every assigned region, scan every
//!   element.
//! * **Histogram** (`PDC-H`) — skip regions whose histogram min/max cannot
//!   contain matches, scan the surviving regions.
//! * **HistogramIndex** (`PDC-HI`) — like `PDC-H`, but surviving regions
//!   are answered from the bitmap index (reading the index file instead of
//!   the data); raw data is read only for candidate boundary bins.
//! * **SortedHistogram** (`PDC-SH`) — the primary constraint is answered
//!   from the value-sorted replica: only the contiguous band of sorted
//!   regions overlapping the interval is touched.
//! * **Adaptive** (`PDC-A`) — per (region, predicate), the planner picks
//!   the cheapest of the above operators from the region histogram's
//!   selectivity estimate and aux availability (see [`crate::ops`]).
//!
//! Region-level evaluation is delegated to the physical-operator layer in
//! [`crate::ops`]: this module owns plan traversal, region assignment,
//! and candidate chaining; the operators own reads, charges, caching, and
//! integrity fallback.
//!
//! Conjunctions evaluate the most-selective constraint first and
//! point-check the remaining constraints only at already-matching
//! locations; disjunctions union their children with duplicate removal
//! (paper §III-C).

use crate::engine::Policy;
use crate::ops::{self, ExplainPhase, RegionTask};
use crate::plan::{ObjConstraint, PlanNode, QueryPlan};
use crate::snapshot::MetaSnapshot;
use crate::state::ServerState;
use pdc_odms::Odms;
use pdc_storage::CostModel;
use pdc_types::selection::append_runs;
use pdc_types::{Interval, NdRegion, ObjectId, PdcResult, Run, Selection};
use std::sync::Arc;

/// Everything a server needs to evaluate a plan.
pub struct EvalCtx<'a> {
    /// The data management system.
    pub odms: &'a Odms,
    /// The plan-time metadata snapshot: every metadata, histogram, and
    /// replica read during evaluation goes through this pinned view, so
    /// an append landing mid-query cannot change what this query sees.
    pub snap: &'a MetaSnapshot,
    /// The cost model.
    pub cost: &'a CostModel,
    /// The evaluation strategy's decisions.
    pub(crate) policy: Policy,
    /// Number of servers participating (= read concurrency).
    pub n_servers: u32,
    /// Number of assignment slots work is partitioned into. Equal to
    /// `n_servers` classically; with k-way replication the engine spreads
    /// each server over several finer slots so a failover moves a sliver
    /// of a server's work instead of all of it. Because `n_servers`
    /// divides `n_slots`, region `r`'s anchor server is still `r %
    /// n_servers` and healthy per-server region sets are unchanged.
    pub n_slots: u32,
    /// The slot this evaluation covers (`< n_slots`).
    pub server: u32,
    /// Consult the per-server [`crate::qcache::QueryArtifactCache`]
    /// (batch mode). A hit skips host recomputation only — every
    /// simulated counter and clock charge is replayed exactly as on a
    /// miss, so results and cost breakdowns are bit-identical either
    /// way.
    pub use_cache: bool,
}

/// Evaluate the full plan on this server; returns the server's partial
/// selection in global coordinates.
pub fn eval_plan(ctx: &EvalCtx, state: &mut ServerState, plan: &QueryPlan) -> PdcResult<Selection> {
    // Metadata distribution: each server fetches the metadata (offsets,
    // sizes, histograms) of its assigned regions for every object in the
    // query; cached for the server's lifetime afterwards.
    let mut objects = Vec::new();
    plan.root.objects(&mut objects);
    objects.sort_unstable();
    objects.dedup();
    for obj in objects {
        let meta = ctx.snap.meta(obj)?;
        let assigned = u64::from(meta.num_regions()).div_ceil(u64::from(ctx.n_servers));
        state.charge_metadata_distribution(ctx.cost, obj, assigned);
    }
    eval_node(ctx, state, &plan.root, plan.region.as_ref(), None)
}

fn eval_node(
    ctx: &EvalCtx,
    state: &mut ServerState,
    node: &PlanNode,
    region: Option<&NdRegion>,
    candidates: Option<&Selection>,
) -> PdcResult<Selection> {
    match node {
        PlanNode::Conj(constraints) => eval_conj(ctx, state, constraints, region, candidates),
        PlanNode::Or(children) => {
            // Union with duplicate removal ("merge sort" in the paper):
            // one k-way run merge over all children instead of a
            // pairwise fold.
            let mut sels = Vec::with_capacity(children.len());
            for child in children {
                sels.push(eval_node(ctx, state, child, region, candidates)?);
            }
            Ok(Selection::union_many(&sels))
        }
        PlanNode::And(children) => {
            // Children are selectivity-ordered; the first evaluates with
            // its primary strategy, the rest run in candidate mode over
            // the shrinking selection. Short-circuit on empty (the
            // paper's special case).
            let mut current: Option<Selection> = candidates.cloned();
            for child in children {
                let sel = eval_node(ctx, state, child, region, current.as_ref())?;
                if sel.is_empty() {
                    return Ok(Selection::empty());
                }
                current = Some(sel);
            }
            Ok(current.unwrap_or_else(Selection::empty))
        }
    }
}

fn eval_conj(
    ctx: &EvalCtx,
    state: &mut ServerState,
    constraints: &[ObjConstraint],
    region: Option<&NdRegion>,
    candidates: Option<&Selection>,
) -> PdcResult<Selection> {
    if constraints.iter().any(|c| c.interval.is_empty()) {
        return Ok(Selection::empty());
    }
    // The conjunction's (object, interval) pairs feed each constraint's
    // cross-variable joint-bounds context (empty unless grids are
    // registered for a constrained pair).
    let pairs: Vec<(ObjectId, Interval)> =
        constraints.iter().map(|c| (c.object, c.interval)).collect();
    let joint_for =
        |object: ObjectId| ops::JointContext::build(ctx.snap, object, &pairs);
    let mut sel = match candidates {
        // Candidate mode: every constraint point-checks the incoming
        // selection — no primary evaluation.
        Some(cand) => {
            let mut sel = cand.clone();
            for c in constraints {
                if sel.is_empty() {
                    break;
                }
                sel = point_check(ctx, state, c.object, &c.interval, &sel, joint_for(c.object))?;
            }
            sel
        }
        None => {
            let primary = &constraints[0];
            let mut sel = eval_primary(ctx, state, primary, region, joint_for(primary.object))?;
            for c in &constraints[1..] {
                if sel.is_empty() {
                    break; // "no need to evaluate the remainder"
                }
                sel = point_check(ctx, state, c.object, &c.interval, &sel, joint_for(c.object))?;
            }
            sel
        }
    };
    // Spatial constraint: exact filter (the primary pass already narrowed
    // the regions for 1-D constraints; this handles the boundaries and
    // the N-dimensional case).
    if let Some(r) = region {
        sel = apply_region_filter(ctx, sel, constraints[0].object, r)?;
    }
    Ok(sel)
}

/// Evaluate the primary (most selective) constraint with the configured
/// strategy over this server's assigned regions.
fn eval_primary(
    ctx: &EvalCtx,
    state: &mut ServerState,
    c: &ObjConstraint,
    region: Option<&NdRegion>,
    joint: Option<Arc<ops::JointContext>>,
) -> PdcResult<Selection> {
    if ctx.policy.sorted_primary(ctx.snap, ctx.cost, ctx.n_servers, c)? {
        return eval_primary_sorted(ctx, state, c);
    }
    let meta = ctx.snap.meta(c.object)?;
    // 1-D spatial constraints narrow the candidate region set up front.
    let span_limit = region.and_then(|r| r.as_1d_span());
    let planner = ops::RegionPlanner::for_primary(ctx, c.object, joint)?;
    // Hierarchical-directory candidate resolution: one range→bin probe
    // replaces the per-region metadata walk. Only pruning lanes consult
    // it (`FullScan` must scan non-candidates too). A region outside the
    // candidate set has bounds disjoint from the interval, so its prune
    // verdict is `true` by construction and it takes the charge-identical
    // skip path below; an object without a usable directory (none built,
    // or one lagging the snapshot) walks every region instead, with
    // bit-identical selections and simulated costs.
    let dir_candidates: Option<Vec<u32>> = if planner.prune_op().is_some() {
        ctx.snap.directory(c.object).map(|d| d.probe(&c.interval).candidates)
    } else {
        None
    };

    // Regions run in ascending order and each answers inside its own span,
    // so the slot's runs are assembled in order: only a run touching the
    // previous region's last one needs coalescing.
    let mut out: Vec<Run> = Vec::new();
    for r in 0..meta.num_regions() {
        if r % ctx.n_slots != ctx.server {
            continue; // load-balanced round-robin assignment
        }
        let span = meta.region_span(r);
        if let Some(limit) = span_limit {
            if span.intersect(&pdc_types::RegionSpec::new(limit.offset, limit.len)).is_none() {
                continue;
            }
        }
        let task = RegionTask { object: c.object, region: r, span, interval: c.interval };
        if let Some(cands) = &dir_candidates {
            if cands.binary_search(&r).is_err() {
                ops::execute_region_skipped(ctx, state, &planner, &task, ExplainPhase::Primary);
                continue;
            }
        }
        if let Some(sel) =
            ops::execute_region(ctx, state, &planner, &task, ExplainPhase::Primary, None)?
        {
            append_runs(&mut out, sel.runs());
        }
    }
    Ok(Selection::from_canonical_runs(out))
}

/// Answer the primary constraint from the value-sorted replica
/// (SortedHistogram strategy, and Adaptive when the band wins).
fn eval_primary_sorted(
    ctx: &EvalCtx,
    state: &mut ServerState,
    c: &ObjConstraint,
) -> PdcResult<Selection> {
    let meta = ctx.snap.meta(c.object)?;
    let replica = ctx.snap.sorted_replica(c.object)?;
    let elem_bytes = meta.pdc_type.size_bytes();
    // The global histogram narrows the span; two binary searches find it
    // exactly.
    let before = state.work;
    state.work.sorted_probes += 2 * (replica.len().max(2) as f64).log2().ceil() as u64;
    state.settle_cpu(ctx.cost, &before);
    let sspan = replica.matching_span(&c.interval);
    let touched = replica.regions_of_span(&sspan);

    // Sorted regions are value-partitioned; distribute the touched band
    // round-robin across servers. (A pseudo object id derived from the
    // data object keys the residency set.)
    let op = ops::SortedRangeOp {
        replica: Arc::clone(&replica),
        sspan,
        elem_bytes,
        sorted_object: ObjectId(c.object.raw() | 1 << 63),
    };
    let mut sels: Vec<Selection> = Vec::new();
    for (i, &sr) in touched.iter().enumerate() {
        if i as u32 % ctx.n_slots != ctx.server {
            continue;
        }
        let rspan = op.replica.region_span(sr);
        let task = RegionTask {
            object: c.object,
            region: sr,
            span: pdc_types::RegionSpec::new(rspan.start, rspan.len),
            interval: c.interval,
        };
        let sel = op.run(ctx, state, &task)?;
        if state.explain.is_some() {
            let overlap =
                sspan.end().min(rspan.end()).saturating_sub(sspan.start.max(rspan.start));
            ops::record_explain(
                state,
                ops::RegionExplain {
                    object: c.object,
                    region: sr,
                    phase: ExplainPhase::Primary,
                    op: ops::OpKind::SortedRange,
                    pruned: false,
                    span_len: rspan.len,
                    est: Some(pdc_histogram::HitBounds { lower: overlap, upper: overlap }),
                    actual_hits: Some(sel.count()),
                    // Sorted replicas are in-memory structures, never
                    // spilled.
                    cold: false,
                },
            );
        }
        sels.push(sel);
    }
    Ok(Selection::union_many(&sels))
}

/// Check `interval` on `object` only at already-selected locations:
/// the paper's AND optimization. Regions are the unit of I/O — a touched
/// region is read wholly (and cached); untouched regions cost nothing,
/// which is why evaluating the most selective constraint first wins.
/// Routed through the same operator pipeline as the primary pass (prune,
/// then a candidate-restricted [`ops::ScanExactOp`]).
pub fn point_check(
    ctx: &EvalCtx,
    state: &mut ServerState,
    object: ObjectId,
    interval: &Interval,
    candidates: &Selection,
    joint: Option<Arc<ops::JointContext>>,
) -> PdcResult<Selection> {
    let meta = ctx.snap.meta(object)?;
    let planner = ops::RegionPlanner::for_filter(ctx, object, joint)?;
    let mut out: Vec<Run> = Vec::new();
    // Group candidate coordinates by region in one forward pass over the
    // ascending candidate runs. `head` is the first run not yet grouped —
    // or the remainder of a run that crossed the previous region's end.
    let mut rest = candidates.runs().iter().copied();
    let mut head = rest.next();
    let mut r = 0u32;
    let num_regions = meta.num_regions();
    while r < num_regions && head.is_some() {
        let span = meta.region_span(r);
        // Runs intersecting this region.
        let mut in_region: Vec<Run> = Vec::new();
        while let Some(run) = head.filter(|run| run.start < span.end()) {
            let lo = run.start.max(span.offset);
            let hi = run.end().min(span.end());
            if lo < hi {
                in_region.push(Run::new(lo, hi - lo));
            }
            head = if run.end() > span.end() {
                Some(Run::new(span.end(), run.end() - span.end()))
            } else {
                rest.next()
            };
        }
        if !in_region.is_empty() {
            let task = RegionTask { object, region: r, span, interval: *interval };
            if let Some(sel) = ops::execute_region(
                ctx,
                state,
                &planner,
                &task,
                ExplainPhase::Filter,
                Some(in_region),
            )? {
                append_runs(&mut out, sel.runs());
            }
        }
        r += 1;
    }
    Ok(Selection::from_canonical_runs(out))
}

/// Exact spatial filtering for `PDCquery_set_region`.
fn apply_region_filter(
    ctx: &EvalCtx,
    sel: Selection,
    object: ObjectId,
    region: &NdRegion,
) -> PdcResult<Selection> {
    let meta = ctx.snap.meta(object)?;
    if let Some(span) = region.as_1d_span() {
        Ok(sel.restrict_to_span(span.offset, span.len))
    } else {
        let shape = meta.shape.clone();
        Ok(sel.filter_coords(|c| region.contains_linear(&shape, c)))
    }
}
