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
//! locations (a sorted band's as `(coordinate, band position)` pairs,
//! bucketed by region per check; the root conjunction also returns the
//! survivors' band positions for `get_data`); disjunctions union their
//! children with duplicate removal (paper §III-C).

use crate::engine::Policy;
use crate::ops::{self, ExplainPhase, RegionTask};
use crate::plan::{ObjConstraint, PlanNode, QueryPlan};
use crate::snapshot::MetaSnapshot;
use crate::state::ServerState;
use pdc_odms::Odms;
use pdc_sorted::SortedReplica;
use pdc_storage::CostModel;
use pdc_types::selection::{append_runs, PartialSelection};
use pdc_types::{kernels, Interval, NdRegion, ObjectId, PdcResult, Run, Selection};
use std::ops::Range;
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
}

/// A slot's answer: its partial selection and, for a narrowed root band,
/// the selected band positions (unsorted).
pub type SlotAnswer = (PartialSelection, Option<Vec<usize>>);

/// Evaluate the full plan on this server; returns the server's partial
/// selection in global coordinates, and its band positions when the band
/// answers a narrowed root conjunction. When it answers the root's only
/// constraint and there is no spatial region, the band's scatter is the
/// whole answer and travels as it is, words included; else runs travel.
pub fn eval_plan(
    ctx: &EvalCtx,
    state: &mut ServerState,
    plan: &QueryPlan,
) -> PdcResult<SlotAnswer> {
    // Metadata distribution: each server fetches the metadata (offsets,
    // sizes, histograms) of its assigned regions for every object in the
    // query; cached for the server's lifetime afterwards.
    for &obj in &plan.objects {
        let meta = ctx.snap.meta(obj)?;
        let assigned = u64::from(meta.num_regions()).div_ceil(u64::from(ctx.n_servers));
        state.charge_metadata_distribution(ctx.cost, obj, assigned);
    }
    // An empty interval answers nothing and charges nothing (`eval_conj`).
    match (&plan.root, &plan.region) {
        (PlanNode::Conj(cs), None)
            if cs.len() == 1 && !cs[0].interval.is_empty() && cs[0].band =>
        {
            let (replica, share) = band_share(ctx, state, &cs[0])?;
            let slices: Vec<&[u64]> = share.into_iter().map(|r| &replica.perm()[r]).collect();
            Ok((PartialSelection::scatter(&slices), None))
        }
        (PlanNode::Conj(cs), region) if cs[0].band => {
            let mut positions = Vec::new();
            let sel = eval_conj(ctx, state, cs, region.as_ref(), None, Some(&mut positions))?;
            Ok((sel.into(), Some(positions)))
        }
        _ => Ok((eval_node(ctx, state, &plan.root, plan.region.as_ref(), None)?.into(), None)),
    }
}

fn eval_node(
    ctx: &EvalCtx,
    state: &mut ServerState,
    node: &PlanNode,
    region: Option<&NdRegion>,
    candidates: Option<&Selection>,
) -> PdcResult<Selection> {
    match node {
        PlanNode::Conj(cs) => eval_conj(ctx, state, cs, region, candidates, None),
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

/// Evaluate one conjunction. A band-answered primary stays `(coordinate,
/// band position)` pairs through the point checks and the spatial
/// filter; `positions`, when given, receives the survivors' positions.
fn eval_conj(
    ctx: &EvalCtx,
    state: &mut ServerState,
    constraints: &[ObjConstraint],
    region: Option<&NdRegion>,
    candidates: Option<&Selection>,
    positions: Option<&mut Vec<usize>>,
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
        None if constraints[0].band => {
            let (replica, share) = band_share(ctx, state, &constraints[0])?;
            let perm = replica.perm();
            let mut band: Vec<(u64, usize)> =
                share.into_iter().flat_map(|r| r.map(|p| (perm[p], p))).collect();
            for c in &constraints[1..] {
                if band.is_empty() {
                    break;
                }
                let joint = joint_for(c.object);
                band = point_check_band(ctx, state, c.object, &c.interval, &band, joint)?;
            }
            if let Some(r) = region {
                let (shape, span) = (&ctx.snap.meta(constraints[0].object)?.shape, r.as_1d_span());
                let keep = |c| span.map_or_else(|| r.contains_linear(shape, c), |s| s.contains(c));
                band.retain(|&(c, _)| keep(c));
            }
            let (coords, survivors): (Vec<u64>, Vec<usize>) = band.into_iter().unzip();
            if let Some(p) = positions {
                *p = survivors;
            }
            return Ok(Selection::from_unsorted_coords(&coords));
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
    // or a damaged or stripped one) walks every region instead, with
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
        let phase = ExplainPhase::Primary;
        if let Some(sel) = ops::execute_region(ctx, state, &planner, &task, phase)? {
            append_runs(&mut out, sel.runs());
        }
    }
    Ok(Selection::from_canonical_runs(out))
}

/// The slot's share of the sorted band answering the primary constraint
/// `c` (SortedHistogram strategy, and Adaptive when the band wins — the
/// client's once-per-plan verdict marked on `c`). Each of the slot's band
/// regions is charged by its [`ops::SortedRangeOp`], which hands back the
/// band positions it matched; returns the replica and those ranges.
fn band_share(
    ctx: &EvalCtx,
    state: &mut ServerState,
    c: &ObjConstraint,
) -> PdcResult<(Arc<SortedReplica>, Vec<Range<usize>>)> {
    let meta = ctx.snap.meta(c.object)?;
    let (version, replica) = ctx.snap.sorted_replica(c.object)?;
    let elem_bytes = meta.pdc_type.size_bytes();
    // The global histogram narrows the span; two binary searches find it
    // exactly.
    let before = state.work;
    state.work.sorted_probes += 2 * (replica.len().max(2) as f64).log2().ceil() as u64;
    state.settle_cpu(ctx.cost, &before);
    let sspan = replica.matching_span(&c.interval);
    let touched = replica.regions_of_span(&sspan);

    // Sorted regions are value-partitioned; distribute the touched band
    // round-robin across servers.
    let op = ops::SortedRangeOp { replica, version, sspan, elem_bytes };
    let mut share = Vec::new();
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
        let matched = op.run(ctx, state, &task)?;
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
                    // The permutation holds each coordinate once, so the
                    // matched positions are the region's hits.
                    actual_hits: Some(matched.len() as u64),
                    // Sorted replicas are in-memory structures, never
                    // spilled.
                    cold: false,
                },
            );
        }
        share.push(matched);
    }
    Ok((op.replica, share))
}

/// Check `interval` on `object` only at already-selected locations:
/// the paper's AND optimization. Regions are the unit of I/O — a touched
/// region is read wholly (and cached); untouched regions cost nothing,
/// which is why evaluating the most selective constraint first wins.
/// Each region holding candidates runs `ops::check_region`'s pipeline
/// (prune, then a scan of only the candidate lanes).
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
    // Regions tile the object in order, so each region's candidates are a
    // borrowed slice of the ascending candidate runs: `rest` starts at the
    // first run not yet wholly checked, and one `partition_point` finds
    // where the region's runs end. A run crossing a region's end belongs to
    // both regions' slices; the scan clips each to its span.
    let mut rest = candidates.runs();
    for r in 0..meta.num_regions() {
        let Some(first) = rest.first() else { break };
        let span = meta.region_span(r);
        debug_assert!(first.end() > span.offset, "regions tile the object in order");
        if first.start >= span.end() {
            continue;
        }
        let n = rest.partition_point(|run| run.start < span.end());
        let in_region = &rest[..n];
        let task = RegionTask { object, region: r, span, interval: *interval };
        let in_span = |run: &Run| run.end().min(span.end()) - run.start.max(span.offset);
        let lanes = in_region.iter().map(in_span).sum();
        let mut sel = None;
        ops::check_region(ctx, state, &planner, &task, lanes, |view, extent| {
            let s = ops::scan_candidates(view, interval, span.offset, extent, in_region)?;
            Ok(sel.insert(s).count())
        })?;
        if let Some(sel) = sel {
            append_runs(&mut out, sel.runs());
        }
        let carried = in_region[n - 1].end() > span.end();
        rest = &rest[n - usize::from(carried)..];
    }
    Ok(Selection::from_canonical_runs(out))
}

/// [`point_check`] of a sorted band's `(coordinate, band position)` pairs,
/// in value order: one counting pass buckets them by the object's regions
/// (a coordinate past the planned extent matches nothing), and each region
/// holding candidates, in ascending order, runs the same pipeline, checking
/// its bucket block by block with a gather kernel. Returns the survivors.
fn point_check_band(
    ctx: &EvalCtx,
    state: &mut ServerState,
    object: ObjectId,
    interval: &Interval,
    candidates: &[(u64, usize)],
    joint: Option<Arc<ops::JointContext>>,
) -> PdcResult<Vec<(u64, usize)>> {
    let meta = ctx.snap.meta(object)?;
    let planner = ops::RegionPlanner::for_filter(ctx, object, joint)?;
    let n_regions = meta.num_regions();
    let (extent, region_elems) = (meta.num_elements(), meta.region_elems);
    let (bucketed, starts) = kernels::bucket_by(candidates, n_regions as usize, |&(c, _)| {
        if c < extent { (c / region_elems) as usize } else { usize::MAX }
    });
    let mut out = Vec::new();
    for r in 0..n_regions {
        let in_region = &bucketed[starts[r as usize]..starts[r as usize + 1]];
        if in_region.is_empty() {
            continue;
        }
        let span = meta.region_span(r);
        let task = RegionTask { object, region: r, span, interval: *interval };
        let before = out.len();
        ops::check_region(ctx, state, &planner, &task, in_region.len() as u64, |view, extent| {
            out.truncate(before); // a repaired region is checked afresh
            for b in view.blocks_overlapping(0, extent) {
                let (bs, be) = view.block_span(b);
                let origin = span.offset + bs;
                if in_region.iter().any(|&(c, _)| c >= origin && c < span.offset + be) {
                    let (block, len) = (view.read_block(b)?, (be.min(extent) - bs) as usize);
                    kernels::check_coords(&block, interval, len, origin, in_region, &mut out);
                }
            }
            Ok((out.len() - before) as u64)
        })?;
    }
    Ok(out)
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
