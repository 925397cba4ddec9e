//! The physical operators: every way a server can answer one region's
//! predicate. Each is a struct with an inherent `run` that returns what
//! it computes — a prune verdict or the region's [`Selection`]:
//!
//! * [`PruneOp`] — histogram min/max region elimination (the paper's
//!   pruning use of the per-region histogram);
//! * [`ScanExactOp`] — the fused-kernel exact scan of a whole region;
//! * [`IndexProbeOp`] — WAH bitmap probe with a conditional candidate
//!   check against the raw data;
//! * [`SortedRangeOp`] — the contiguous band positions of one
//!   sorted-replica region inside a binary-searched span;
//! * [`VerifyRebuildOp`] — the integrity fallback: answer a region whose
//!   index failed validation by the exact scan, then rebuild and rewrite
//!   the index (charged to the `integrity` lane).
//!
//! [`execute_region`] drives the pipeline — prune, then the access
//! operator chosen by a [`RegionPlanner`] — so retry/reassignment
//! (`recover.rs`) and corruption fallback are written once; every point
//! check, of runs or of a band's coordinates, runs `check_region`.
//!
//! **Cost fidelity.** The primary lane's histogram bin walks are
//! work-counted but never clock-settled (every recorded baseline embeds
//! this), while the point-check and metadata-query lanes settle theirs.
//! `settle_cpu` is linear in the counter deltas, so settling per operator
//! changes no total.
//!
//! **Strategies as policies.** Every strategy decision reads the
//! strategy's policy table (`Strategy::policy`): whether to prune,
//! whether to probe the bitmap index per region, whether to answer the
//! primary constraint from the sorted replica, and — for the two access
//! methods — `Never`, `Always` or `IfCheaper`. `IfCheaper` probes
//! consult the region histogram's [`HitBounds`] and aux availability per
//! (region, predicate): a probe is chosen only when the estimate predicts
//! a candidate-free index answer (`lower == upper`) *and* the modelled
//! probe cost beats the scan in both the storage-bound and CPU-bound
//! regimes (the planner cannot see cache residency, so the probe must
//! dominate) — under this cost model a candidate check re-reads the whole
//! data region, so a probe with predicted boundary bins can never win.
//! `IfCheaper` sorted answers compare the sorted band against the
//! per-region alternative; that verdict is taken once per conjunction per
//! plan on the client, marked on the constraint (`ObjConstraint::band`)
//! and read by every slot. Every decision is a pure function of metadata,
//! histograms, and the cost model — independent of cache residency — so
//! retried and reassigned slots always agree.

use crate::engine::{Policy, Strategy, Use};
use crate::exec::EvalCtx;
use crate::snapshot::MetaSnapshot;
use crate::state::ServerState;
use pdc_directory::JointGrid;
use pdc_histogram::{HitBounds, Histogram};
use pdc_sorted::SortedReplica;
use pdc_storage::{BlockView, CostModel, SimDuration, WorkCounters};
use pdc_types::{
    kernels, Interval, ObjectId, PdcError, PdcResult, RegionId, RegionSpec, Run, Selection,
    TypedVec,
};
use std::sync::Arc;

/// The operator vocabulary (what `EXPLAIN` reports per region).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Histogram region elimination.
    Prune,
    /// Exact data scan (fused kernels).
    ScanExact,
    /// Bitmap-index probe (+ conditional candidate check).
    IndexProbe,
    /// Sorted-replica band slice.
    SortedRange,
    /// Integrity fallback: exact scan + index rebuild.
    VerifyRebuild,
}

impl OpKind {
    /// Short label for EXPLAIN tables.
    pub fn label(&self) -> &'static str {
        match self {
            OpKind::Prune => "prune",
            OpKind::ScanExact => "scan",
            OpKind::IndexProbe => "probe",
            OpKind::SortedRange => "sorted",
            OpKind::VerifyRebuild => "rebuild",
        }
    }
}

/// One region's unit of work: which object/region, its global span, and
/// the predicate interval to answer on it.
#[derive(Debug, Clone)]
pub struct RegionTask {
    /// The data object.
    pub object: ObjectId,
    /// Region index (for [`SortedRangeOp`], the *sorted* region index).
    pub region: u32,
    /// The region's span in global coordinates (for [`SortedRangeOp`],
    /// in sorted coordinates).
    pub span: RegionSpec,
    /// The predicate.
    pub interval: Interval,
}

/// The shared prune formula: a region is eliminated when the histogram's
/// upper hit bound for the interval is zero (subsumes the min/max test).
/// Every lane — primary, point check, counts — must
/// agree on this verdict bit-for-bit, which is why it lives here.
pub fn prune_verdict(h: &Histogram, interval: &Interval) -> bool {
    h.estimate_hits(interval).upper == 0
}

/// One registered joint grid as seen from one constraint of a
/// conjunction: the grid, which axis the constraint's object occupies,
/// and the *other* variable's interval in the same conjunction.
struct JointPairCtx {
    grid: Arc<JointGrid>,
    /// Whether the constraint's object is the grid's `a` axis.
    self_is_a: bool,
    /// The conjunction's interval on the grid's other object.
    other_iv: Interval,
}

/// The cross-variable joint-bounds context of one constraint inside one
/// conjunction: every registered grid pairing the constraint's object
/// with another constrained object (an empty context is represented as
/// no context at all).
pub struct JointContext {
    pairs: Vec<JointPairCtx>,
}

impl JointContext {
    /// The joint context of `object` inside a conjunction constraining
    /// `(object, interval)` pairs, from the snapshot's pinned grids.
    /// `None` when no registered grid pairs `object` with another
    /// constrained object — the common case, costing one slice walk.
    pub fn build(
        snap: &MetaSnapshot,
        object: ObjectId,
        constraints: &[(ObjectId, Interval)],
    ) -> Option<Arc<JointContext>> {
        let mut pairs = Vec::new();
        // Snapshot grids are pinned in sorted pair order, so the context
        // is a pure function of the conjunction.
        for grid in snap.joint_grids() {
            let (a, b) = grid.pair();
            let (self_is_a, other) = if a == object {
                (true, b)
            } else if b == object {
                (false, a)
            } else {
                continue;
            };
            let Some((_, other_iv)) =
                constraints.iter().find(|(o, iv)| *o == other && !iv.is_all())
            else {
                continue;
            };
            pairs.push(JointPairCtx { grid: Arc::clone(grid), self_is_a, other_iv: *other_iv });
        }
        if pairs.is_empty() {
            return None;
        }
        Some(Arc::new(JointContext { pairs }))
    }

    /// Joint-grid cells a verdict for `(region, span_len)` examines — the
    /// deterministic work charge, independent of the verdict itself.
    pub fn cells_examined(&self, region: u32, span_len: u64) -> u64 {
        self.pairs.iter().map(|p| p.grid.cells_examined(region, span_len)).sum()
    }

    /// Whether any participating grid proves the region empty for the
    /// joint rectangle (`self_iv` × that grid's other-side interval).
    pub fn proves_empty(&self, region: u32, span_len: u64, self_iv: &Interval) -> bool {
        self.pairs.iter().any(|p| {
            let (iva, ivb) = if p.self_is_a {
                (self_iv, &p.other_iv)
            } else {
                (&p.other_iv, self_iv)
            };
            p.grid.rect_upper(region, span_len, iva, ivb) == Some(0)
        })
    }

    /// The tightest joint upper bound on the region's hits for `self_iv`,
    /// or `None` when no grid covers the region's span.
    pub fn upper(&self, region: u32, span_len: u64, self_iv: &Interval) -> Option<u64> {
        self.pairs
            .iter()
            .filter_map(|p| {
                let (iva, ivb) = if p.self_is_a {
                    (self_iv, &p.other_iv)
                } else {
                    (&p.other_iv, self_iv)
                };
                p.grid.rect_upper(region, span_len, iva, ivb)
            })
            .min()
    }
}

/// Per-constraint directory statistics for EXPLAIN: how the hierarchical
/// directory resolved the candidate set and what the joint bounds killed
/// on top. Pure host observation — computing these charges nothing.
#[derive(Debug, Clone)]
pub struct DirectoryStats {
    /// The constrained object.
    pub object: ObjectId,
    /// Populated bins the range→bin probe visited.
    pub bins_probed: u64,
    /// Regions the object has in total.
    pub regions_total: u32,
    /// Regions killed by the 1-D bounds-overlap test (non-candidates).
    pub killed_1d: u32,
    /// Candidate regions additionally proven empty by joint bounds.
    pub killed_joint: u32,
    /// Regions admitted after both levels of pruning.
    pub admitted: u32,
}

/// Compute the directory statistics of one constraint, when the object
/// carries a snapshot-visible directory. Shared by the engine's EXPLAIN
/// assembly and the pruning benchmark.
pub fn directory_stats(
    snap: &MetaSnapshot,
    object: ObjectId,
    interval: &Interval,
    joint: Option<&JointContext>,
) -> Option<DirectoryStats> {
    let meta = snap.meta(object).ok()?;
    let dir = snap.directory(object)?;
    let probe = dir.probe(interval);
    let regions_total = meta.num_regions();
    let mut killed_joint = 0u32;
    if let Some(j) = joint {
        for &r in &probe.candidates {
            if r < regions_total && j.proves_empty(r, meta.region_span(r).len, interval) {
                killed_joint += 1;
            }
        }
    }
    let candidates = probe.candidates.iter().filter(|&&r| r < regions_total).count() as u32;
    Some(DirectoryStats {
        object,
        bins_probed: probe.bins_probed,
        regions_total,
        killed_1d: regions_total - candidates,
        killed_joint,
        admitted: candidates - killed_joint,
    })
}

/// Histogram min/max region elimination.
pub struct PruneOp {
    hists: Arc<Vec<Histogram>>,
    /// Whether the bin walk is clock-settled by this operator. The
    /// point-check and count lanes settle their walks; the primary lane
    /// historically charges the work counters without settling (a quirk
    /// every recorded cost baseline embeds, so it is preserved exactly).
    settle: bool,
    /// Cross-variable joint bounds participating in this lane's verdict
    /// (`None` when no registered grid pairs the object with another
    /// constrained variable — then the verdict and its charges are
    /// exactly the historical 1-D ones).
    joint: Option<Arc<JointContext>>,
}

impl PruneOp {
    /// The deterministic work charge of one verdict: the histogram bin
    /// walk plus the joint-grid cell walks. Charged identically on
    /// evaluated and directory-skipped regions.
    fn charge_verdict_work(&self, st: &mut ServerState, task: &RegionTask) {
        let h = &self.hists[task.region as usize];
        st.work.histogram_bins += h.num_bins() as u64;
        if let Some(j) = &self.joint {
            st.work.histogram_bins += j.cells_examined(task.region, task.span.len);
        }
    }

    /// Replay the prune pipeline for a region the directory already
    /// proved disjoint: charges and settling are bit-identical to
    /// [`PruneOp::run`] with a `true` verdict — which is what `run`
    /// necessarily computes, since disjoint bounds force `estimate_hits`
    /// to zero. Only the host-side estimate walk is skipped.
    fn run_directory_pruned(&self, ctx: &EvalCtx, st: &mut ServerState, task: &RegionTask) {
        let before = st.work;
        self.charge_verdict_work(st, task);
        if self.settle {
            st.settle_cpu(ctx.cost, &before);
        }
    }

    /// Whether the region is eliminated for the task's interval.
    pub fn run(&self, ctx: &EvalCtx, st: &mut ServerState, task: &RegionTask) -> bool {
        let before = st.work;
        let h = &self.hists[task.region as usize];
        self.charge_verdict_work(st, task);
        let joint = self.joint.as_deref();
        // Non-short-circuiting `|`: the joint test runs whether or not
        // the 1-D test already pruned, so the verdict's host work is a
        // pure function of the task.
        let pruned = prune_verdict(h, &task.interval)
            | joint.is_some_and(|j| j.proves_empty(task.region, task.span.len, &task.interval));
        if self.settle {
            st.settle_cpu(ctx.cost, &before);
        }
        pruned
    }
}

/// Exact scan of one region's data through the fused kernel layer.
///
/// The region is scanned block by block through its [`BlockView`]: a
/// resident payload is one block, a spilled region decodes one block at a
/// time through the budgeted block cache, never the whole region. Blocks
/// are scanned in ascending order into one run list and the kernels
/// coalesce runs across block boundaries, so the result is canonical
/// without re-sorting, and the charges and the selection do not depend on
/// where the region lives.
pub struct ScanExactOp;

/// Whole-extent scan of a region: one kernel pass per block, emitting the
/// selection at coordinates `global_offset + index`. `scan_elems` clips to
/// the plan-time snapshot's extent (an in-flight append can have grown the
/// stored payload past it).
pub(crate) fn scan_whole(
    view: &BlockView,
    interval: &Interval,
    global_offset: u64,
    scan_elems: u64,
) -> PdcResult<Selection> {
    let mut out: Vec<Run> = Vec::new();
    for b in view.blocks_overlapping(0, scan_elems) {
        let (start, end) = view.block_span(b);
        let len = (end.min(scan_elems) - start) as usize;
        let block = view.read_block(b)?;
        kernels::scan_intervals_into(
            &block,
            std::slice::from_ref(interval),
            len,
            global_offset + start,
            std::slice::from_mut(&mut out),
        );
    }
    Ok(Selection::from_canonical_runs(out))
}

/// Visit, in ascending order and each once, the blocks of `view` holding
/// lanes of `runs` below `extent`: `visit(block, runs, origin, len)` gets
/// the decoded block, whose element `i` sits at coordinate `origin + i`
/// for `i < len`, with the runs overlapping it (the first and last may
/// cross its ends). `runs` are sorted and disjoint in coordinates where
/// the region starts at `offset`; the first may start before it.
fn for_each_run_block(
    view: &BlockView,
    offset: u64,
    extent: u64,
    runs: &[Run],
    mut visit: impl FnMut(&TypedVec, &[Run], u64, usize) -> PdcResult<()>,
) -> PdcResult<()> {
    let mut k = 0; // the first run not yet wholly visited
    let mut pos = 0; // the first unvisited element (region-local)
    while k < runs.len() {
        let lo = (runs[k].start.max(offset) - offset).max(pos);
        if lo >= extent {
            break;
        }
        let b = view.blocks_overlapping(lo, lo + 1).start;
        let (bs, be) = view.block_span(b);
        let be = be.min(extent);
        let n = runs[k..].partition_point(|r| r.start < offset + be);
        let in_block = &runs[k..k + n];
        visit(&*view.read_block(b)?, in_block, offset + bs, (be - bs) as usize)?;
        // A run crossing the block's end continues in the next block.
        let carried = in_block[n - 1].end() > offset + be;
        k += n - usize::from(carried);
        pos = be;
    }
    Ok(())
}

/// Candidate scan of a region: each block holding candidate lanes below
/// `extent` is read once and checked in one [`kernels::filter_runs`] pass
/// over the candidates it holds (see [`for_each_run_block`] for `offset`
/// and `runs`).
pub(crate) fn scan_candidates(
    view: &BlockView,
    interval: &Interval,
    offset: u64,
    extent: u64,
    runs: &[Run],
) -> PdcResult<Selection> {
    let mut out = Vec::new();
    for_each_run_block(view, offset, extent, runs, |block, in_block, origin, len| {
        kernels::filter_runs(block, interval, len, in_block, origin, &mut out);
        Ok(())
    })?;
    Ok(Selection::from_canonical_runs(out))
}

/// Copy the values at `runs` (global coordinates inside the region
/// starting at `offset`) out of `view`, in order, onto `values` — the
/// gather behind `get_data`.
pub(crate) fn gather_runs(
    view: &BlockView,
    offset: u64,
    extent: u64,
    runs: &[Run],
    values: &mut TypedVec,
) -> PdcResult<()> {
    for_each_run_block(view, offset, extent, runs, |block, in_block, origin, len| {
        for r in in_block {
            let lo = r.start.max(origin) - origin;
            let hi = r.end().min(origin + len as u64) - origin;
            values.extend_from_range(block, lo as usize..hi as usize)?;
        }
        Ok(())
    })
}

impl ScanExactOp {
    /// The region's matching locations, in global coordinates.
    pub fn run(
        &self,
        ctx: &EvalCtx,
        st: &mut ServerState,
        task: &RegionTask,
    ) -> PdcResult<Selection> {
        let RegionTask { object, region, span, interval } = task;
        let before = st.work;
        let rid = RegionId::new(*object, *region);
        let (odms, cost, n) = (ctx.odms, ctx.cost, ctx.n_servers);
        let sel = st.read_region(odms, cost, rid, n, span.len, true, |st, view| {
            // Only the plan-time snapshot's extent is scanned: an
            // in-flight append can grow the stored payload past the span
            // this query planned against.
            let extent = view.len().min(span.len);
            st.work.elements_scanned += extent;
            scan_whole(view, interval, span.offset, extent)
        })?;
        st.settle_cpu(ctx.cost, &before);
        Ok(sel)
    }
}

/// Answer one region from its bitmap index; the raw data is read only
/// when boundary bins need a candidate check.
///
/// A region whose index fails validation — stored checksum mismatch,
/// undecodable bytes, or an element count that disagrees with the region
/// span — is quarantined and answered by [`VerifyRebuildOp`] instead;
/// only infrastructure errors (`ServerFailed`, missing prerequisites)
/// propagate.
pub struct IndexProbeOp;

impl IndexProbeOp {
    /// The region's matching locations, in global coordinates.
    pub fn run(
        &self,
        ctx: &EvalCtx,
        st: &mut ServerState,
        task: &RegionTask,
    ) -> PdcResult<Selection> {
        let RegionTask { object, region, span, interval } = task;
        let before = st.work;
        let idx = match st.read_index_region(ctx.odms, ctx.cost, *object, *region, ctx.n_servers) {
            Ok(idx) if idx.num_elements() == span.len => idx,
            Ok(_) => {
                // Decoded cleanly but describes the wrong number of
                // elements: treat as invalid, same as a failed decode.
                return VerifyRebuildOp.run(ctx, st, task);
            }
            Err(PdcError::CorruptRegion { .. }) => {
                st.integrity.checksum_failures += 1;
                return VerifyRebuildOp.run(ctx, st, task);
            }
            Err(PdcError::Codec(_)) => {
                return VerifyRebuildOp.run(ctx, st, task);
            }
            Err(PdcError::NoSuchRegion(_)) => {
                // Online index maintenance: a streaming append dropped
                // the tail region's stale index (or created a region
                // whose index was deferred). First probe answers by the
                // exact scan and rebuilds the index in place.
                return VerifyRebuildOp.run(ctx, st, task);
            }
            Err(e) => return Err(e),
        };
        st.work.bitmap_words += idx.size_bytes_serialized() / 4;
        // The planner fuses per-object conjunction chains into one
        // interval, so this is the 1-chain case of the index's
        // conjunction API.
        let ans = idx.query_conj(std::slice::from_ref(interval));
        let local = if ans.needs_candidate_check() {
            // Boundary bins: read the region's data and verify the
            // candidates (region-local runs) block by block.
            let rid = RegionId::new(*object, *region);
            let (odms, cost, n) = (ctx.odms, ctx.cost, ctx.n_servers);
            let candidates_count = ans.candidates.count();
            let candidates = ans.candidates.runs();
            let confirmed = st.read_region(odms, cost, rid, n, span.len, true, |st, view| {
                st.work.elements_scanned += candidates_count;
                scan_candidates(view, interval, 0, view.len().min(span.len), candidates)
            })?;
            ans.sure.union(&confirmed)
        } else {
            ans.sure
        };
        st.settle_cpu(ctx.cost, &before);
        Ok(local.shifted(span.offset))
    }
}

/// Graceful degradation for a region whose bitmap index failed
/// validation: answer the region exactly by scanning its data (which
/// transparently repairs a corrupt data copy too), then rebuild the index
/// from the clean data and write it back so later queries take the
/// indexed path again. The rebuild's write and scan work land on the
/// `integrity` lane.
pub struct VerifyRebuildOp;

impl VerifyRebuildOp {
    /// The region's matching locations, in global coordinates.
    pub fn run(
        &self,
        ctx: &EvalCtx,
        st: &mut ServerState,
        task: &RegionTask,
    ) -> PdcResult<Selection> {
        let out = ScanExactOp.run(ctx, st, task)?;
        let rebuilt = ctx.odms.rebuild_index_region(task.object, task.region)?;
        // Drop any resident decode of the replaced index so later probes
        // pick up the rebuilt one instead of falling back forever.
        if let Some(idx_obj) = ctx.snap.meta(task.object)?.index_object {
            if let Some(old) = st.index_cache.remove(&RegionId::new(idx_obj, task.region)) {
                st.index_cache_bytes =
                    st.index_cache_bytes.saturating_sub(old.size_bytes_serialized());
            }
        }
        st.integrity.aux_rebuilds += 1;
        st.integrity.fallback_regions += 1;
        st.io.bytes_written += rebuilt;
        st.io.write_requests += 1;
        let scan = WorkCounters { elements_scanned: task.span.len, ..Default::default() };
        let t = ctx.cost.pfs.write_cost(rebuilt, 1, ctx.n_servers) + ctx.cost.cpu.work_cost(&scan);
        st.clock.advance(t);
        st.integrity_time += t;
        Ok(out)
    }
}

/// The contiguous matching band positions of one value-partitioned
/// sorted-replica region. The task's `region`/`span` are in *sorted*
/// coordinates; the operator charges the region's read and scan and
/// returns the positions, whose permutation entries are the matching
/// elements' global coordinates, in value order (`exec::band_share`
/// collects a slot's ranges). Runs only for primaries the client's
/// once-per-query verdict gave to the band.
pub struct SortedRangeOp {
    /// The replica being sliced.
    pub replica: Arc<SortedReplica>,
    /// The version that published `replica`.
    pub version: u64,
    /// The binary-searched matching span (sorted coordinates).
    pub sspan: Run,
    /// Bytes per data element (keys cost `elem_bytes + 8` with the
    /// permutation word).
    pub elem_bytes: u64,
}

impl SortedRangeOp {
    /// Charge the region, and return its matching band positions.
    pub fn run(
        &self,
        ctx: &EvalCtx,
        st: &mut ServerState,
        task: &RegionTask,
    ) -> PdcResult<std::ops::Range<usize>> {
        let before = st.work;
        let region_start = task.span.offset;
        let region_end = task.span.end();
        // Reading a sorted region brings in keys + permutation.
        let bytes = (region_end - region_start) * (self.elem_bytes + 8);
        st.touch_sorted_region(
            ctx.cost,
            (task.object, self.version, task.region),
            bytes,
            ctx.n_servers,
        )?;
        // The matching positions inside this region are contiguous.
        let lo = self.sspan.start.max(region_start);
        let hi = self.sspan.end().min(region_end).max(lo);
        st.work.elements_scanned += hi - lo;
        st.settle_cpu(ctx.cost, &before);
        Ok(lo as usize..hi as usize)
    }
}

/// Per-(object, policy) operator planner: owns the prune operator and
/// picks each region's access operator. Built once per object per
/// evaluation lane; all choices are pure functions of metadata,
/// histograms, and the cost model (never of cache state), so every slot —
/// original, retried, or reassigned — resolves the same pipeline.
pub struct RegionPlanner {
    prune: Option<PruneOp>,
    hists: Option<Arc<Vec<Histogram>>>,
    access: Access,
    /// The conjunction's joint-bounds context for this object, when any.
    joint: Option<Arc<JointContext>>,
}

/// The policy's `probe` rule resolved against one object's index.
enum Access {
    Scan,
    Probe,
    /// Per region, the probe when it dominates the scan.
    IfCheaper {
        elem_bytes: u64,
        /// The snapshot's serialized index bytes per region (a recorded
        /// 0, or no entry, is a pending rebuild).
        index_sizes: Arc<Vec<u64>>,
    },
}

impl RegionPlanner {
    /// `filter` marks the point-check and metadata-query lanes: they
    /// clock-settle their bin walks, and where an `Always` probe finds no
    /// index they scan, while the primary lane lets the probe surface
    /// `MissingPrerequisite`.
    fn build(
        ctx: &EvalCtx,
        object: ObjectId,
        hists: Option<Arc<Vec<Histogram>>>,
        filter: bool,
        joint: Option<Arc<JointContext>>,
    ) -> PdcResult<RegionPlanner> {
        let meta = ctx.snap.meta(object)?;
        let access = match (ctx.policy.probe, meta.index_object) {
            (Use::Always, Some(_)) => Access::Probe,
            (Use::Always, None) if !filter => Access::Probe,
            // The snapshot's recorded index sizes (host-side metadata, no
            // simulated charge — this is planning, like building the
            // query plan itself). A recorded 0 is a pending rebuild.
            (Use::IfCheaper, Some(_)) => {
                let index_sizes = ctx.snap.version(object)?.index_sizes.clone().unwrap_or_default();
                Access::IfCheaper { elem_bytes: meta.pdc_type.size_bytes(), index_sizes }
            }
            _ => Access::Scan,
        };
        Ok(RegionPlanner {
            prune: hists.as_ref().map(|hs| PruneOp {
                hists: Arc::clone(hs),
                settle: filter,
                joint: joint.clone(),
            }),
            hists,
            access,
            joint,
        })
    }

    /// Planner for the primary lane of `exec::eval_primary`: a policy
    /// that does not prune loads no histograms; every other one requires
    /// them. Bin walks are left unsettled (the primary lane's historical
    /// accounting), and a missing index under `Use::Always` probes is a
    /// hard `MissingPrerequisite`.
    pub fn for_primary(
        ctx: &EvalCtx,
        object: ObjectId,
        joint: Option<Arc<JointContext>>,
    ) -> PdcResult<RegionPlanner> {
        let hists =
            if ctx.policy.prune { Some(ctx.snap.region_histograms(object)?) } else { None };
        Self::build(ctx, object, hists, false, joint)
    }

    /// Planner for the point-check (filter) and metadata-query lanes:
    /// histograms are advisory (objects without them simply never
    /// prune), bin walks are clock-settled, and `Use::Always` probes
    /// degrade to a scan when the object has no index.
    pub fn for_filter(
        ctx: &EvalCtx,
        object: ObjectId,
        joint: Option<Arc<JointContext>>,
    ) -> PdcResult<RegionPlanner> {
        let hists =
            if ctx.policy.prune { ctx.snap.region_histograms_opt(object) } else { None };
        Self::build(ctx, object, hists, true, joint)
    }

    /// The prune operator, when this lane/strategy prunes at all.
    pub fn prune_op(&self) -> Option<&PruneOp> {
        self.prune.as_ref()
    }

    /// The hit-bound estimate for one region task (`None` when the lane
    /// carries no histograms): the histogram's bounds, with the upper
    /// bound tightened by the joint grids when the conjunction carries a
    /// joint context. Pure host work — EXPLAIN uses it to report
    /// estimated vs actual selectivity without charging, and the adaptive
    /// access choice consumes the tightened bounds.
    pub fn estimate_for(&self, task: &RegionTask) -> Option<HitBounds> {
        let mut est = self
            .hists
            .as_ref()
            .map(|hs| hs[task.region as usize].estimate_hits(&task.interval))?;
        if let Some(j) = &self.joint {
            if let Some(upper) = j.upper(task.region, task.span.len, &task.interval) {
                est.upper = est.upper.min(upper);
                // The 1-D lower bound counts elements matching this
                // variable alone; the joint rectangle can exclude them,
                // so the conjunction's lower bound degrades to 0 when the
                // joint upper undercuts it.
                est.lower = est.lower.min(est.upper);
            }
        }
        Some(est)
    }

    /// Choose the access operator for one region: `IndexProbe` or
    /// `ScanExact`.
    pub fn access_for(&self, ctx: &EvalCtx, task: &RegionTask) -> OpKind {
        match &self.access {
            Access::Scan => OpKind::ScanExact,
            Access::Probe => OpKind::IndexProbe,
            Access::IfCheaper { elem_bytes, index_sizes } => {
                let index_bytes =
                    index_sizes.get(task.region as usize).copied().filter(|&b| b > 0);
                self.adaptive_choice(ctx, task, *elem_bytes, index_bytes)
            }
        }
    }

    /// The adaptive scan-vs-probe comparison for one region. A probe is
    /// modelled as the index read plus — when the histogram bounds
    /// disagree (boundary bins expected) — a full candidate data read;
    /// the estimates are cold-storage costs so the verdict is stable
    /// across cache states and server reassignment.
    ///
    /// Because the planner deliberately cannot observe cache residency,
    /// the probe must *dominate*: win the cold (storage-bound) estimate
    /// AND the warm (CPU-bound) one, where the probe pays
    /// `bitmap_ns_per_word` over the serialized index against the scan's
    /// `scan_ns_per_element` over the span. A poorly-compressing index
    /// (serialized size approaching the data size) loses the CPU regime
    /// and the planner stays with the scan rather than gamble on tier.
    fn adaptive_choice(
        &self,
        ctx: &EvalCtx,
        task: &RegionTask,
        elem_bytes: u64,
        index_bytes: Option<u64>,
    ) -> OpKind {
        let Some(est) = self.estimate_for(task) else {
            return OpKind::ScanExact;
        };
        let data_bytes = task.span.len * elem_bytes;
        let index_bytes = index_bytes
            .unwrap_or((data_bytes as f64 * pdc_bitmap::TYPICAL_INDEX_RATIO) as u64);
        let predicted_candidates = est.upper.saturating_sub(est.lower);
        let candidate_bytes = if predicted_candidates > 0 { data_bytes } else { 0 };
        let scan = ctx.cost.scan_op_estimate(data_bytes, task.span.len, ctx.n_servers);
        let probe = ctx.cost.probe_op_estimate(
            index_bytes,
            candidate_bytes,
            predicted_candidates,
            ctx.n_servers,
        );
        let scan_cpu = ctx.cost.cpu.work_cost(&WorkCounters {
            elements_scanned: task.span.len,
            ..Default::default()
        });
        let probe_cpu = ctx.cost.cpu.work_cost(&WorkCounters {
            bitmap_words: index_bytes / 4,
            elements_scanned: predicted_candidates,
            ..Default::default()
        });
        if probe < scan && probe_cpu <= scan_cpu {
            OpKind::IndexProbe
        } else {
            OpKind::ScanExact
        }
    }
}

/// The modelled cold cost of answering `interval` from the sorted
/// replica's band: the keys and permutation words of every sorted region
/// the matching span touches. `None` when no replica covers this
/// snapshot's extent (stale after an append, pending deferred
/// maintenance).
fn sorted_band_estimate(
    snap: &MetaSnapshot,
    cost: &CostModel,
    n_servers: u32,
    object: ObjectId,
    elem_bytes: u64,
    interval: &Interval,
) -> PdcResult<Option<SimDuration>> {
    if !snap.sorted_available(object) {
        return Ok(None);
    }
    let (_, replica) = snap.sorted_replica(object)?;
    let sspan = replica.matching_span(interval);
    let band = replica.regions_of_span(&sspan);
    let band_bytes: u64 =
        band.iter().map(|&sr| replica.region_span(sr).len * (elem_bytes + 8)).sum();
    Ok(Some(cost.sorted_op_estimate(band_bytes, band.len() as u64, sspan.len, n_servers)))
}

/// The constraint-level adaptive decision: answer the primary constraint
/// from the sorted replica's band, or per region? Compares the band's
/// modelled cold cost against pruned per-region scans. Pure host work on
/// metadata and histograms only; the client takes it once per
/// conjunction per query, and every server slot reads that verdict.
pub(crate) fn adaptive_sorted_choice(
    snap: &MetaSnapshot,
    cost: &CostModel,
    n_servers: u32,
    object: ObjectId,
    interval: &Interval,
) -> PdcResult<bool> {
    let meta = snap.meta(object)?;
    let elem_bytes = meta.pdc_type.size_bytes();
    let Some(sorted) = sorted_band_estimate(snap, cost, n_servers, object, elem_bytes, interval)?
    else {
        return Ok(false);
    };
    let hists = snap.region_histograms(object)?;
    let mut per_region = SimDuration::ZERO;
    for r in 0..meta.num_regions() {
        let span = meta.region_span(r);
        if prune_verdict(&hists[r as usize], interval) {
            continue;
        }
        per_region += cost.scan_op_estimate(span.len * elem_bytes, span.len, n_servers);
    }
    Ok(sorted < per_region)
}

/// The modelled cold cost of answering one normalized constraint alone
/// under `policy`, composed from the same operator estimates the adaptive
/// planner uses (`CostModel::{scan_op_estimate, probe_op_estimate,
/// sorted_op_estimate}`). Pure host work on plan-time metadata and
/// histograms — no simulated charge, no cache observation — so the
/// admission controller's verdict for a query is a deterministic
/// function of (snapshot, cost model, strategy) and never perturbs
/// evaluation.
fn estimate_constraint_cost(
    snap: &MetaSnapshot,
    cost: &CostModel,
    policy: Policy,
    n_servers: u32,
    object: ObjectId,
    interval: &Interval,
) -> PdcResult<SimDuration> {
    if interval.is_empty() {
        return Ok(SimDuration::ZERO);
    }
    let meta = snap.meta(object)?;
    let elem_bytes = meta.pdc_type.size_bytes();
    let sorted = if policy.sorted == Use::Never {
        None
    } else {
        sorted_band_estimate(snap, cost, n_servers, object, elem_bytes, interval)?
    };
    let hists = if policy.prune { snap.region_histograms_opt(object) } else { None };
    let mut per_region = SimDuration::ZERO;
    for r in 0..meta.num_regions() {
        let span = meta.region_span(r);
        let est = hists.as_ref().map(|hs| hs[r as usize].estimate_hits(interval));
        if let Some(hs) = hists.as_ref() {
            if prune_verdict(&hs[r as usize], interval) {
                continue;
            }
        }
        let data_bytes = span.len * elem_bytes;
        let scan = cost.scan_op_estimate(data_bytes, span.len, n_servers);
        let probe = meta.index_object.is_some().then(|| {
            let index_bytes = (data_bytes as f64 * pdc_bitmap::TYPICAL_INDEX_RATIO) as u64;
            let candidates =
                est.map(|e| e.upper.saturating_sub(e.lower)).unwrap_or(span.len);
            let candidate_bytes = if candidates > 0 { data_bytes } else { 0 };
            cost.probe_op_estimate(index_bytes, candidate_bytes, candidates, n_servers)
        });
        per_region += policy.probe.cost(probe, scan);
    }
    Ok(policy.sorted.cost(sorted, per_region))
}

/// Admission-control cost estimate for a whole plan: the modelled cold
/// cost of running it alone, summed over every constraint the evaluator
/// would touch (conjunction chaining makes later constraints cheaper in
/// practice, so the sum is a conservative upper bound — exactly what a
/// budget controller wants). Deterministic pure host work on plan-time
/// metadata and histograms: no simulated charge, no cache observation.
pub fn estimate_plan_cost(
    snap: &MetaSnapshot,
    cost: &CostModel,
    strategy: Strategy,
    n_servers: u32,
    plan: &crate::plan::QueryPlan,
) -> PdcResult<SimDuration> {
    let policy = strategy.policy();
    let mut total = SimDuration::ZERO;
    for c in plan.root.constraints() {
        total += estimate_constraint_cost(snap, cost, policy, n_servers, c.object, &c.interval)?;
    }
    Ok(total)
}

/// Which evaluation lane produced an EXPLAIN entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ExplainPhase {
    /// The primary (most selective) constraint's pass.
    Primary,
    /// A point-check pass over candidate locations.
    Filter,
}

impl ExplainPhase {
    /// Short label for EXPLAIN tables.
    pub fn label(&self) -> &'static str {
        match self {
            ExplainPhase::Primary => "primary",
            ExplainPhase::Filter => "filter",
        }
    }
}

/// One region's row in an [`ExplainPlan`].
#[derive(Debug, Clone)]
pub struct RegionExplain {
    /// The data object.
    pub object: ObjectId,
    /// Region index (sorted-region index for [`OpKind::SortedRange`]).
    pub region: u32,
    /// Which lane evaluated it.
    pub phase: ExplainPhase,
    /// The operator that answered it (the chosen access operator; a
    /// pruned region reports the operator it *would* have run).
    pub op: OpKind,
    /// Whether the prune operator eliminated the region.
    pub pruned: bool,
    /// Elements in the region (the selectivity denominator).
    pub span_len: u64,
    /// The histogram's hit-bound estimate (`None` on lanes without
    /// histograms, e.g. `FullScan`).
    pub est: Option<HitBounds>,
    /// Matching elements actually found (`None` when pruned).
    pub actual_hits: Option<u64>,
    /// Whether the region's payload was spilled to the out-of-core block
    /// store when this row was recorded (host observation; always `false`
    /// with spill disabled).
    pub cold: bool,
}

/// The explained plan of one query: per-region operator choices with
/// estimated vs actual selectivity, merged across all server slots.
#[derive(Debug, Clone)]
pub struct ExplainPlan {
    /// The engine strategy that produced the choices.
    pub strategy: Strategy,
    /// The plan's constraints in evaluation order:
    /// `(object, interval, estimated selectivity)`.
    pub constraints: Vec<(ObjectId, Interval, Option<f64>)>,
    /// Whether the primary constraint was answered from the sorted
    /// replica.
    pub sorted_primary: bool,
    /// Per-constraint directory statistics (one entry per constrained
    /// object carrying a usable region directory).
    pub directory: Vec<DirectoryStats>,
    /// Per-region rows, ordered by (object, region, phase).
    pub regions: Vec<RegionExplain>,
    /// The server that answered each assignment slot (index = slot id).
    /// On a healthy pool this is the slot's anchor; under k-way
    /// replication a failed-over slot shows its chosen replica instead.
    pub slot_routes: Vec<u32>,
}

/// Record an EXPLAIN row on the evaluating server, when EXPLAIN capture
/// is armed for this slot. No simulated charges — EXPLAIN observes.
pub(crate) fn record_explain(st: &mut ServerState, entry: RegionExplain) {
    if let Some(rows) = st.explain.as_mut() {
        rows.push(entry);
    }
}

/// Run one region through its operator pipeline: prune (when the lane
/// carries histograms), then the access operator the planner chose.
/// Records an EXPLAIN row when capture is armed. `None` when the prune
/// operator eliminated the region.
pub fn execute_region(
    ctx: &EvalCtx,
    st: &mut ServerState,
    planner: &RegionPlanner,
    task: &RegionTask,
    phase: ExplainPhase,
) -> PdcResult<Option<Selection>> {
    let chosen = planner.access_for(ctx, task);
    if let Some(p) = planner.prune_op() {
        if p.run(ctx, st, task) {
            explain_region(ctx, st, planner, task, phase, chosen, None);
            return Ok(None);
        }
    }
    let fallbacks_before = st.integrity.fallback_regions;
    let sel = match chosen {
        OpKind::IndexProbe => IndexProbeOp.run(ctx, st, task)?,
        _ => ScanExactOp.run(ctx, st, task)?,
    };
    // A probe that fell back to the integrity path reports the operator
    // that actually answered the region.
    let op = if st.integrity.fallback_regions > fallbacks_before {
        OpKind::VerifyRebuild
    } else {
        chosen
    };
    explain_region(ctx, st, planner, task, phase, op, Some(sel.count()));
    Ok(Some(sel))
}

/// The point-check pipeline of one region holding `candidates` candidates:
/// the prune verdict, then a read of the region, charged `candidates`
/// elements scanned, in which `check(view, extent)` returns how many
/// candidates below the planned `extent` match; an EXPLAIN row either way.
/// After a corrupt copy is repaired `check` runs again, from scratch.
pub(crate) fn check_region(
    ctx: &EvalCtx,
    st: &mut ServerState,
    planner: &RegionPlanner,
    task: &RegionTask,
    candidates: u64,
    mut check: impl FnMut(&BlockView, u64) -> PdcResult<u64>,
) -> PdcResult<()> {
    let (phase, op) = (ExplainPhase::Filter, OpKind::ScanExact);
    if planner.prune_op().is_some_and(|p| p.run(ctx, st, task)) {
        explain_region(ctx, st, planner, task, phase, op, None);
        return Ok(());
    }
    let before = st.work;
    let rid = RegionId::new(task.object, task.region);
    let span_len = task.span.len;
    let hits = st.read_region(ctx.odms, ctx.cost, rid, ctx.n_servers, span_len, true, |st, view| {
        st.work.elements_scanned += candidates;
        check(view, view.len().min(span_len))
    })?;
    st.settle_cpu(ctx.cost, &before);
    explain_region(ctx, st, planner, task, phase, op, Some(hits));
    Ok(())
}

/// Replay the pipeline for a region the directory excluded from the
/// candidate set. Such a region's `[min, max]` bounds are disjoint from
/// the interval, which forces `estimate_hits` to zero bounds — so
/// [`execute_region`] would necessarily take its pruned path with a
/// `true` verdict. This fast path reproduces that outcome bit-for-bit —
/// the same work-counter charges, settling, and EXPLAIN row — while
/// skipping the host-side estimate walk and operator dispatch. Callers
/// must only invoke it on a planner that prunes (`prune_op().is_some()`);
/// lanes whose policy does not prune never consult the directory.
pub fn execute_region_skipped(
    ctx: &EvalCtx,
    st: &mut ServerState,
    planner: &RegionPlanner,
    task: &RegionTask,
    phase: ExplainPhase,
) {
    let p = planner.prune_op().expect("directory skip requires a pruning lane");
    p.run_directory_pruned(ctx, st, task);
    if st.explain.is_some() {
        let chosen = planner.access_for(ctx, task);
        explain_region(ctx, st, planner, task, phase, chosen, None);
    }
}

/// Record one region's EXPLAIN row when capture is armed. `hits` is the
/// region's hit count, `None` when it was pruned.
fn explain_region(
    ctx: &EvalCtx,
    st: &mut ServerState,
    planner: &RegionPlanner,
    task: &RegionTask,
    phase: ExplainPhase,
    op: OpKind,
    hits: Option<u64>,
) {
    if st.explain.is_none() {
        return;
    }
    let row = RegionExplain {
        object: task.object,
        region: task.region,
        phase,
        op,
        pruned: hits.is_none(),
        span_len: task.span.len,
        est: planner.estimate_for(task),
        actual_hits: hits,
        cold: task_cold(ctx, task),
    };
    record_explain(st, row);
}

/// Whether a task's data region is currently spilled (EXPLAIN metadata).
fn task_cold(ctx: &EvalCtx, task: &RegionTask) -> bool {
    ctx.odms.store().is_spilled(RegionId::new(task.object, task.region))
}
