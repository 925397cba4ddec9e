//! Per-layer probes: the layers are measured **from outside**, by timing
//! direct calls into their public functions on the exact inputs a query
//! touched (regions, intervals, index blobs, candidate runs — all taken
//! from the query's `ExplainPlan` rows and the ODMS accessors).
//!
//! [`replay_query`] walks one query the way the per-server evaluator does
//! — plan, dispatch, directory probe, joint refutation, histogram
//! pruning, region reads (resident or block-decoded), scan / index probe /
//! sorted lookup, candidate chaining, client merge — and records one
//! *replayed* span per layer function under the query's `engine.run`
//! span. The replay recomputes the selection independently and checks its
//! hit count against the engine's, so a replay that drifted from what the
//! engine does is reported, not trusted.
//!
//! Layer functions a plain `run` does not call on these workloads
//! (`count_matches`, the prewarm's fused `scan_intervals`,
//! `Selection::intersect`, raw WAH ops) and one-off costs (`SortedReplica::build`, block encode/decode,
//! histogram merge) are *standalone* probes: spans with operation id 0,
//! which the busy shares leave out.

use crate::trace::{SpanId, Tracer, STANDALONE_OP};
use pdc_bitmap::{BinnedBitmapIndex, IndexAnswer, WahBitVector};
use pdc_blockstore::{codec, write_typed, BlockReader, DEFAULT_BLOCK_ELEMS};
use pdc_histogram::{Histogram, HistogramConfig};
use pdc_odms::{ObjectMeta, Odms};
use pdc_query::{
    ExplainPhase, ExplainPlan, OpKind, PdcQuery, QueryEngine, QueryOutcome, QueryPlan,
    RegionExplain, Strategy,
};
use pdc_server::{assign, ServerPool};
use pdc_sorted::SortedReplica;
use pdc_storage::ColdRegion;
use pdc_types::{kernels, Interval, ObjectId, PdcResult, RegionId, Run, Selection, TypedVec};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

/// Standalone probes look at no more than this many regions per query.
const STANDALONE_REGION_CAP: usize = 16;

/// Exact counts accumulated over the replayed queries.
#[derive(Debug, Clone, Default)]
pub struct ReplayCounts {
    /// Queries replayed.
    pub queries: u64,
    /// Replays whose independently recomputed hit count disagreed with
    /// the engine's.
    pub mismatches: u64,
    /// `ExplainPlan` region rows seen / pruned.
    pub rows: u64,
    /// See `rows`.
    pub rows_pruned: u64,
    /// Directory probes: candidate regions returned / regions indexed.
    pub dir_candidates: u64,
    /// See `dir_candidates`.
    pub dir_regions: u64,
    /// Bitmap answers: candidates needing a data check / upper bound.
    pub index_candidates: u64,
    /// See `index_candidates`.
    pub index_upper: u64,
    /// Per query: |estimated − exact| ÷ max(exact, one element) selectivity.
    pub sel_rel_err: Vec<f64>,
}

/// State shared by the replays of one workload.
pub struct ReplayCtx {
    /// Logical servers of the workload's engines.
    pub servers: u32,
    /// A pool of the same width with empty server state, for timing the
    /// bare dispatch.
    pub pool: ServerPool<()>,
    /// Exact counts.
    pub counts: ReplayCounts,
}

impl ReplayCtx {
    /// A context for engines with `servers` logical servers.
    pub fn new(servers: u32) -> Self {
        Self { servers, pool: ServerPool::new(servers, |_| ()), counts: ReplayCounts::default() }
    }
}

/// A region's payload as the replay reads it.
enum RegionInput {
    /// Whole resident payload.
    Resident(Arc<TypedVec>),
    /// Decoded blocks of a spilled region: `(first element, one past the
    /// last, block)`, ascending.
    Cold(Vec<(u64, u64, Arc<TypedVec>)>),
}

/// One region the replay must read: its id, span, and — for candidate
/// checks — the candidate runs in global coordinates.
struct Need {
    rid: RegionId,
    offset: u64,
    len: u64,
    cold: bool,
    cands: Option<Vec<Run>>,
}

/// Read the regions in `needs`: resident ones through
/// `ObjectStore::get_typed` (checksum-verified), spilled ones block by
/// block through `ColdRegion::read_block` (only the blocks the candidate
/// runs overlap, as the engine's cold scan does).
///
/// The engine's servers keep resident regions in their own region cache,
/// so a warm query never reaches the store: the store reads are charged
/// to the query (`store_reads_charged`) only when its outcome recorded
/// region-cache misses. Otherwise they are timed as a standalone probe.
/// Block reads of spilled regions bypass that cache and are always charged.
fn load(
    t: &mut Tracer,
    run: SpanId,
    odms: &Odms,
    needs: &[Need],
    store_reads_charged: bool,
) -> PdcResult<Vec<RegionInput>> {
    let store = odms.store();
    let mut out: Vec<Option<RegionInput>> = (0..needs.len()).map(|_| None).collect();
    let mut cold: Vec<(usize, ColdRegion)> = Vec::new();
    for (i, n) in needs.iter().enumerate() {
        if n.cold {
            if let Some(c) = store.cold_region(n.rid) {
                cold.push((i, c));
            }
        }
    }
    let cold_idx: BTreeSet<usize> = cold.iter().map(|(i, _)| *i).collect();
    if cold_idx.len() < needs.len() {
        let span = if store_reads_charged {
            let op = t.spans()[run].op;
            t.begin("storage.get_typed", Some(run), op, true)
        } else {
            t.begin("storage.get_typed", None, STANDALONE_OP, false)
        };
        let mut calls = 0;
        for (i, n) in needs.iter().enumerate() {
            if !cold_idx.contains(&i) {
                out[i] = Some(RegionInput::Resident(store.get_typed(n.rid)?));
                calls += 1;
            }
        }
        t.end(span, calls, 0);
    }
    if !cold.is_empty() {
        t.replay("blockstore.read_block", run, || {
            let (mut calls, mut bytes) = (0, 0);
            for (i, c) in &cold {
                let n = &needs[*i];
                let wanted: BTreeSet<u32> = match &n.cands {
                    None => (0..c.n_blocks()).collect(),
                    Some(runs) => runs
                        .iter()
                        .flat_map(|r| c.blocks_overlapping(r.start - n.offset, r.end() - n.offset))
                        .collect(),
                };
                let mut blocks = Vec::with_capacity(wanted.len());
                for b in wanted {
                    let (s, e) = c.block_span(b);
                    match c.read_block(b) {
                        Ok(block) => {
                            bytes += block.size_bytes();
                            blocks.push((s, e.min(n.len), block));
                        }
                        Err(e) => return (Err(e), calls, bytes),
                    }
                    calls += 1;
                }
                out[*i] = Some(RegionInput::Cold(blocks));
            }
            (Ok(()), calls, bytes)
        })?;
    }
    Ok(out.into_iter().map(|o| o.expect("every needed region was loaded")).collect())
}

/// Scan `input` for `iv`, whole or restricted to `cands` (global
/// coordinates), appending runs in global coordinates. Returns the
/// elements examined.
fn scan_input(
    input: &RegionInput,
    iv: &Interval,
    offset: u64,
    cands: Option<&[Run]>,
    out: &mut Vec<Run>,
) -> u64 {
    let mut examined = 0;
    match (input, cands) {
        (RegionInput::Resident(tv), None) => {
            out.extend_from_slice(kernels::scan_interval(tv, iv, offset).runs());
            examined += tv.len() as u64;
        }
        (RegionInput::Resident(tv), Some(runs)) => {
            for r in runs {
                let (s, e) = ((r.start - offset) as usize, (r.end() - offset) as usize);
                kernels::scan_range(tv, iv, s, e.min(tv.len()), r.start, out);
                examined += r.len;
            }
        }
        (RegionInput::Cold(blocks), None) => {
            for (s, e, block) in blocks {
                kernels::scan_range(block, iv, 0, (e - s) as usize, offset + s, out);
                examined += e - s;
            }
        }
        (RegionInput::Cold(blocks), Some(runs)) => {
            for (s, e, block) in blocks {
                for r in runs {
                    let lo = r.start.max(offset + s);
                    let hi = r.end().min(offset + e);
                    if lo < hi {
                        let (ls, le) = ((lo - offset - s) as usize, (hi - offset - s) as usize);
                        kernels::scan_range(block, iv, ls, le, lo, out);
                        examined += hi - lo;
                    }
                }
            }
        }
    }
    examined
}

/// Split ascending `runs` over ascending, disjoint `[start, end)` spans:
/// for each span, the parts of the runs that fall inside it.
fn group_by_span(runs: &[Run], spans: &[(u64, u64)]) -> Vec<Vec<Run>> {
    let mut out: Vec<Vec<Run>> = vec![Vec::new(); spans.len()];
    let mut first = 0;
    for (slot, &(start, end)) in out.iter_mut().zip(spans) {
        while first < runs.len() && runs[first].end() <= start {
            first += 1;
        }
        for r in &runs[first..] {
            if r.start >= end {
                break;
            }
            let lo = r.start.max(start);
            let hi = r.end().min(end);
            slot.push(Run::new(lo, hi - lo));
        }
    }
    out
}

fn rows_of<'a>(
    plan: &'a ExplainPlan,
    phase: ExplainPhase,
    object: ObjectId,
) -> impl Iterator<Item = &'a RegionExplain> + 'a {
    plan.regions.iter().filter(move |r| r.phase == phase && r.object == object)
}

fn need_of(meta: &ObjectMeta, row: &RegionExplain, cands: Option<Vec<Run>>) -> Need {
    let span = meta.region_span(row.region);
    Need {
        rid: RegionId::new(row.object, row.region),
        offset: span.offset,
        len: row.span_len.min(span.len),
        cold: row.cold,
        cands,
    }
}

/// Replay one query under its `engine.run` span; see the module docs.
/// `exact_selectivity` is the oracle's hit fraction for the query.
pub fn replay_query(
    t: &mut Tracer,
    ctx: &mut ReplayCtx,
    engine: &QueryEngine,
    query: &PdcQuery,
    run: SpanId,
    exact_selectivity: f64,
) -> PdcResult<()> {
    let odms: &Odms = engine.odms();
    let explain_span = t.begin("engine.explain", None, STANDALONE_OP, false);
    let explained = engine.explain(query);
    t.end(explain_span, 1, 0);
    let (outcome, plan): (QueryOutcome, ExplainPlan) = explained?;
    let cold_start = outcome.io.cache_misses > 0;

    let built = t.replay("plan.build", run, || (QueryPlan::build(query, odms), 1, 0))?;
    let elements = odms.meta().get(built.primary_object())?.num_elements().max(1);
    ctx.counts.sel_rel_err.push(
        (built.root.est_selectivity() - exact_selectivity).abs()
            / exact_selectivity.max(1.0 / elements as f64),
    );

    let (primary_obj, primary_iv, _) = plan.constraints[0];
    let primary_meta = odms.meta().get(primary_obj)?;
    let pool = &ctx.pool;
    t.replay("server.broadcast", run, || (pool.broadcast(|_, _| ()), 1, 0));
    let weights: Vec<u64> =
        primary_meta.regions().iter().map(|r| r.len * primary_meta.pdc_type.size_bytes()).collect();
    let servers = ctx.servers;
    t.replay("server.assign_balanced", run, || {
        (assign::balanced_by_weight(&weights, servers), 1, weights.len() as u64)
    });

    ctx.counts.queries += 1;
    ctx.counts.rows += plan.regions.len() as u64;
    ctx.counts.rows_pruned += plan.regions.iter().filter(|r| r.pruned).count() as u64;
    let pruning = plan.strategy != Strategy::FullScan;

    // Candidate resolution for the primary constraint.
    if pruning && !plan.sorted_primary {
        if let Some(dir) = odms.meta().directory(primary_obj) {
            let probe = t.replay("directory.probe", run, || (dir.probe(&primary_iv), 1, 0));
            ctx.counts.dir_candidates += probe.candidates.len() as u64;
            ctx.counts.dir_regions += u64::from(dir.num_regions());
        }
        for &(other, other_iv, _) in &plan.constraints[1..] {
            let grid = odms
                .meta()
                .joint_grid(primary_obj, other)
                .map(|g| (g, primary_iv, other_iv))
                .or_else(|| {
                    odms.meta().joint_grid(other, primary_obj).map(|g| (g, other_iv, primary_iv))
                });
            if let Some((grid, iva, ivb)) = grid {
                let rows: Vec<&RegionExplain> =
                    rows_of(&plan, ExplainPhase::Primary, primary_obj).collect();
                t.replay("directory.joint_rect_upper", run, || {
                    let live = rows
                        .iter()
                        .filter(|r| grid.rect_upper(r.region, r.span_len, &iva, &ivb) != Some(0))
                        .count();
                    (live, rows.len() as u64, 0)
                });
            }
        }
    }

    // Histogram pruning: one estimate per (region, predicate) row that
    // carried a histogram.
    for &(obj, iv, _) in &plan.constraints {
        let rows: Vec<u32> = plan
            .regions
            .iter()
            .filter(|r| r.object == obj && r.est.is_some() && r.op != OpKind::SortedRange)
            .map(|r| r.region)
            .collect();
        if rows.is_empty() {
            continue;
        }
        let hists: Arc<Vec<Histogram>> = odms.meta().region_histograms(obj)?;
        t.replay("histogram.estimate_hits", run, || {
            let upper: u64 = rows
                .iter()
                .filter_map(|&r| hists.get(r as usize))
                .map(|h| h.estimate_hits(&iv).upper)
                .sum();
            (upper, rows.len() as u64, 0)
        });
    }

    // The primary constraint.
    let mut current = if plan.sorted_primary {
        let replica: Arc<SortedReplica> = odms.meta().sorted_replica(primary_obj)?;
        t.replay("sorted.lookup", run, || (replica.lookup(&primary_iv).selection, 1, 0))
    } else {
        replay_primary_regions(t, ctx, run, odms, &plan, cold_start)?
    };

    // Candidate chaining through the remaining constraints.
    for (ci, &(obj, iv, _)) in plan.constraints.iter().enumerate().skip(1) {
        if current.is_empty() {
            break;
        }
        let meta = odms.meta().get(obj)?;
        let rows: Vec<&RegionExplain> = rows_of(&plan, ExplainPhase::Filter, obj).collect();
        // Group the candidate runs by region in one linear walk, as the
        // evaluator's point check does (its own glue, not a layer call).
        let spans: Vec<(u64, u64)> = rows
            .iter()
            .map(|r| {
                let span = meta.region_span(r.region);
                (span.offset, span.end())
            })
            .collect();
        let cands = group_by_span(current.runs(), &spans);
        let needs: Vec<Need> = rows
            .iter()
            .zip(cands)
            .filter(|(r, c)| !r.pruned && !c.is_empty())
            .map(|(r, c)| need_of(&meta, r, Some(c)))
            .collect();
        let inputs = load(t, run, odms, &needs, cold_start)?;
        let mut out: Vec<Run> = Vec::new();
        if !needs.is_empty() {
            t.replay("kernels.scan_range", run, || {
                let mut elems = 0;
                for (n, input) in needs.iter().zip(&inputs) {
                    elems += scan_input(input, &iv, n.offset, n.cands.as_deref(), &mut out);
                }
                ((), needs.len() as u64, elems)
            });
        }
        let next = t.replay("selection.from_runs", run, || {
            let runs = out.len() as u64;
            (Selection::from_runs(std::mem::take(&mut out)), 1, runs)
        });
        if ci == 1 {
            // `current` is still the primary constraint's selection here.
            standalone_intersect_probe(t, &current, &next, &iv, &needs, &inputs);
        }
        current = next;
    }

    if current.count() != outcome.nhits {
        ctx.counts.mismatches += 1;
        eprintln!(
            "replay mismatch: {} hits recomputed, engine reported {} ({})",
            current.count(),
            outcome.nhits,
            plan.strategy
        );
    }
    Ok(())
}

/// The primary constraint answered region by region: exact scans and
/// index probes (with their candidate checks) on the unpruned rows, the
/// per-server run lists canonicalised, then the client's k-way merge.
fn replay_primary_regions(
    t: &mut Tracer,
    ctx: &mut ReplayCtx,
    run: SpanId,
    odms: &Odms,
    plan: &ExplainPlan,
    cold_start: bool,
) -> PdcResult<Selection> {
    let (primary_obj, primary_iv, _) = plan.constraints[0];
    let primary_meta = odms.meta().get(primary_obj)?;
    let servers = ctx.servers;
    let live: Vec<&RegionExplain> =
        rows_of(plan, ExplainPhase::Primary, primary_obj).filter(|r| !r.pruned).collect();
    let (probe_rows, scan_rows): (Vec<&RegionExplain>, Vec<&RegionExplain>) =
        live.into_iter().partition(|r| r.op == OpKind::IndexProbe);
    let mut per_slot: Vec<Vec<Run>> = vec![Vec::new(); ctx.servers as usize];

    if !scan_rows.is_empty() {
        let needs: Vec<Need> = scan_rows.iter().map(|r| need_of(&primary_meta, r, None)).collect();
        let inputs = load(t, run, odms, &needs, cold_start)?;
        t.replay("kernels.scan_interval", run, || {
            let mut elems = 0;
            for (n, input) in needs.iter().zip(&inputs) {
                let slot = (n.rid.index % servers) as usize;
                elems += scan_input(input, &primary_iv, n.offset, None, &mut per_slot[slot]);
            }
            ((), needs.len() as u64, elems)
        });
        standalone_count_probe(t, &primary_iv, &inputs);
    }

    if !probe_rows.is_empty() {
        let answers = probe_indexes(t, ctx, run, odms, primary_obj, &primary_iv, &probe_rows)?;
        let check: Vec<usize> =
            (0..answers.len()).filter(|&i| answers[i].needs_candidate_check()).collect();
        let needs: Vec<Need> = check
            .iter()
            .map(|&i| {
                let offset = primary_meta.region_span(probe_rows[i].region).offset;
                let cands = answers[i].candidates.shifted(offset).runs().to_vec();
                need_of(&primary_meta, probe_rows[i], Some(cands))
            })
            .collect();
        let inputs = load(t, run, odms, &needs, cold_start)?;
        let mut confirmed: Vec<Selection> = vec![Selection::empty(); answers.len()];
        if !needs.is_empty() {
            t.replay("kernels.filter_selection", run, || {
                let mut elems = 0;
                for ((&i, n), input) in check.iter().zip(&needs).zip(&inputs) {
                    confirmed[i] = match input {
                        RegionInput::Resident(tv) => {
                            elems += answers[i].candidates.count();
                            kernels::filter_selection(tv, &primary_iv, &answers[i].candidates)
                                .shifted(n.offset)
                        }
                        cold => {
                            let mut out = Vec::new();
                            elems += scan_input(
                                cold,
                                &primary_iv,
                                n.offset,
                                n.cands.as_deref(),
                                &mut out,
                            );
                            Selection::from_runs(out)
                        }
                    };
                }
                ((), check.len() as u64, elems)
            });
        }
        t.replay("selection.union", run, || {
            let mut runs = 0;
            for (i, row) in probe_rows.iter().enumerate() {
                let offset = primary_meta.region_span(row.region).offset;
                let sel = answers[i].sure.shifted(offset).union(&confirmed[i]);
                runs += sel.num_runs() as u64;
                per_slot[(row.region % servers) as usize].extend_from_slice(sel.runs());
            }
            ((), probe_rows.len() as u64, runs)
        });
    }

    let slots: Vec<Selection> = t.replay("selection.from_runs", run, || {
        let runs: u64 = per_slot.iter().map(|s| s.len() as u64).sum();
        let slots: Vec<Selection> =
            std::mem::take(&mut per_slot).into_iter().map(Selection::from_runs).collect();
        (slots, u64::from(servers), runs)
    });
    Ok(t.replay("selection.union_many", run, || {
        let runs: u64 = slots.iter().map(|s| s.num_runs() as u64).sum();
        (Selection::union_many(&slots), 1, runs)
    }))
}

/// Decode and query the bitmap index of every probed region.
fn probe_indexes(
    t: &mut Tracer,
    ctx: &mut ReplayCtx,
    run: SpanId,
    odms: &Odms,
    object: ObjectId,
    iv: &Interval,
    rows: &[&RegionExplain],
) -> PdcResult<Vec<IndexAnswer>> {
    let indexes: Vec<BinnedBitmapIndex> = t.replay("bitmap.from_bytes", run, || {
        let mut bytes = 0;
        let mut out = Vec::with_capacity(rows.len());
        for r in rows {
            let decoded = odms.read_index_region(object, r.region).and_then(|blob| {
                bytes += blob.len() as u64;
                BinnedBitmapIndex::from_bytes(&blob)
            });
            match decoded {
                Ok(idx) => out.push(idx),
                Err(e) => return (Err(e), out.len() as u64, bytes),
            }
        }
        (Ok(out), rows.len() as u64, bytes)
    })?;
    let answers: Vec<IndexAnswer> = t.replay("bitmap.query", run, || {
        let answers: Vec<IndexAnswer> = indexes.iter().map(|idx| idx.query(iv)).collect();
        (answers, indexes.len() as u64, 0)
    });
    for a in &answers {
        ctx.counts.index_candidates += a.candidates.count();
        ctx.counts.index_upper += a.upper_bound();
    }
    // Standalone: raw WAH ops on the first index's own bitmaps, over the
    // bins the interval overlaps.
    if let Some(idx) = indexes.first() {
        let edges = idx.edges();
        let bins: Vec<&WahBitVector> = (0..idx.num_bins())
            .filter(|&k| iv.overlaps_range(edges[k], edges[k + 1]))
            .map(|k| idx.bitmap(k))
            .collect();
        if bins.len() >= 2 {
            let words: u64 = bins.iter().map(|b| b.num_words() as u64).sum();
            let s = t.begin("bitmap.wah_or_many", None, STANDALONE_OP, false);
            let all = WahBitVector::or_many(idx.num_elements(), bins.iter().copied());
            t.end(s, 1, words);
            let s = t.begin("bitmap.wah_and", None, STANDALONE_OP, false);
            let both = all.and(bins[0]);
            t.end(s, 1, (all.num_words() + bins[0].num_words()) as u64);
            std::hint::black_box(both);
        }
    }
    Ok(answers)
}

/// Standalone `count_matches` probe on the resident regions a primary
/// scan read.
fn standalone_count_probe(t: &mut Tracer, iv: &Interval, inputs: &[RegionInput]) {
    let resident: Vec<&Arc<TypedVec>> = inputs
        .iter()
        .filter_map(|i| match i {
            RegionInput::Resident(tv) => Some(tv),
            RegionInput::Cold(_) => None,
        })
        .take(STANDALONE_REGION_CAP)
        .collect();
    if resident.is_empty() {
        return;
    }
    let elems: u64 = resident.iter().map(|tv| tv.len() as u64).sum();
    let s = t.begin("kernels.count_matches", None, STANDALONE_OP, false);
    let hits: u64 = resident.iter().map(|tv| kernels::count_matches(tv, iv)).sum();
    t.end(s, resident.len() as u64, elems);
    std::hint::black_box(hits);
}

/// Standalone `Selection::intersect` probe on a conjunction: the primary
/// selection against the second constraint's own selection over the
/// regions the candidates reached (scanned untimed). The intersection
/// must equal the chained result.
fn standalone_intersect_probe(
    t: &mut Tracer,
    primary: &Selection,
    chained: &Selection,
    iv: &Interval,
    needs: &[Need],
    inputs: &[RegionInput],
) {
    if needs.is_empty() || inputs.iter().any(|i| matches!(i, RegionInput::Cold(_))) {
        return;
    }
    let mut runs = Vec::new();
    for (n, input) in needs.iter().zip(inputs) {
        scan_input(input, iv, n.offset, None, &mut runs);
    }
    let second = Selection::from_runs(runs);
    let s = t.begin("selection.intersect", None, STANDALONE_OP, false);
    let both = primary.intersect(&second);
    t.end(s, 1, (primary.num_runs() + second.num_runs()) as u64);
    if both != *chained {
        eprintln!(
            "intersect probe disagrees with candidate chaining ({} vs {} hits)",
            both.count(),
            chained.count()
        );
    }
}

/// Standalone probe of the fused multi-interval kernel (`scan_intervals`,
/// what a shared-scan prewarm runs): every interval the workload asks of
/// `object`, in one pass over each of the object's first regions. Work is
/// counted in element × interval evaluations.
pub fn fused_scan_probe(
    t: &mut Tracer,
    odms: &Odms,
    object: ObjectId,
    intervals: &[Interval],
) -> PdcResult<()> {
    if intervals.len() < 2 {
        return Ok(());
    }
    let regions = odms.meta().get(object)?.num_regions().min(STANDALONE_REGION_CAP as u32);
    let payloads: Vec<Arc<TypedVec>> =
        (0..regions).map(|r| odms.read_region(object, r)).collect::<PdcResult<_>>()?;
    let elems: u64 = payloads.iter().map(|p| p.len() as u64).sum();
    let s = t.begin("kernels.scan_intervals", None, STANDALONE_OP, false);
    for p in &payloads {
        std::hint::black_box(kernels::scan_intervals(p, intervals, 0));
    }
    t.end(s, u64::from(regions), elems * intervals.len() as u64);
    Ok(())
}

/// One-off standalone probes over an object's stored regions: block
/// encode, block-file decode (checksums included), and — when the object
/// has a sorted replica — a replica build at the object's current extent.
pub fn storage_format_probes(
    t: &mut Tracer,
    odms: &Odms,
    object: ObjectId,
    scratch: &Path,
    blockstore: bool,
    sorted: bool,
) -> PdcResult<()> {
    let meta = odms.meta().get(object)?;
    let regions = meta.num_regions().min(STANDALONE_REGION_CAP as u32);
    if blockstore {
        let payloads: Vec<Arc<TypedVec>> =
            (0..regions).map(|r| odms.read_region(object, r)).collect::<PdcResult<_>>()?;
        let bytes: u64 = payloads.iter().map(|p| p.size_bytes()).sum();
        let s = t.begin("blockstore.encode_block", None, STANDALONE_OP, false);
        let mut blocks = 0;
        for p in &payloads {
            for start in (0..p.len()).step_by(DEFAULT_BLOCK_ELEMS as usize) {
                let len = (p.len() - start).min(DEFAULT_BLOCK_ELEMS as usize);
                std::hint::black_box(codec::encode_block(p, start, len));
                blocks += 1;
            }
        }
        t.end(s, blocks, bytes);
        // Decode through a block file of the benchmark's own, so the
        // block cache cannot serve the read; checksums are verified.
        let path = scratch.join(format!("probe-{}.pbf", std::process::id()));
        for p in &payloads {
            write_typed(&path, p, DEFAULT_BLOCK_ELEMS)?;
            let reader = BlockReader::open(&path)?;
            let s = t.begin("blockstore.read_typed_block", None, STANDALONE_OP, false);
            let mut decoded = 0;
            for b in 0..reader.n_blocks() {
                decoded += reader.read_typed_block(b)?.size_bytes();
            }
            t.end(s, u64::from(reader.n_blocks()), decoded);
        }
        let _ = std::fs::remove_file(&path);
    }
    if sorted && meta.has_sorted_replica {
        let mut values = Vec::with_capacity(meta.num_elements() as usize);
        for r in 0..meta.num_regions() {
            odms.read_region(object, r)?.append_f64_to(&mut values);
        }
        let s = t.begin("sorted.build", None, STANDALONE_OP, false);
        let replica = SortedReplica::build(&values, meta.region_elems);
        t.end(s, 1, values.len() as u64);
        std::hint::black_box(replica.len());
    }
    Ok(())
}

/// Standalone `Histogram::merge_in_place` probe: fold the delta histogram
/// of `delta` (one append's worth of values) into a copy of the object's
/// global histogram.
pub fn histogram_merge_probe(
    t: &mut Tracer,
    odms: &Odms,
    object: ObjectId,
    delta: &[f32],
) -> PdcResult<()> {
    let values: Vec<f64> = delta.iter().map(|&v| v as f64).collect();
    let Some(delta_hist) = Histogram::build(&values, &HistogramConfig::default()) else {
        return Ok(());
    };
    let mut global: Histogram = (*odms.meta().global_histogram(object)?).clone();
    let s = t.begin("histogram.merge_in_place", None, STANDALONE_OP, false);
    global.merge_in_place(&delta_hist);
    t.end(s, 1, delta_hist.num_bins() as u64);
    std::hint::black_box(global.total());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_are_grouped_by_span_in_one_walk() {
        let runs = [Run::new(0, 5), Run::new(8, 4), Run::new(20, 10), Run::new(40, 1)];
        let spans = [(0, 10), (10, 20), (20, 30), (35, 50)];
        let grouped = group_by_span(&runs, &spans);
        assert_eq!(grouped[0], vec![Run::new(0, 5), Run::new(8, 2)]);
        assert_eq!(grouped[1], vec![Run::new(10, 2)]);
        assert_eq!(grouped[2], vec![Run::new(20, 10)]);
        assert_eq!(grouped[3], vec![Run::new(40, 1)]);
        // Spans may skip regions (only regions with rows are listed).
        assert_eq!(group_by_span(&runs, &[(20, 30)]), vec![vec![Run::new(20, 10)]]);
        assert_eq!(group_by_span(&[], &spans), vec![Vec::<Run>::new(); 4]);
    }
}
