//! E7: ablations of the design choices DESIGN.md §6 calls out.
//!
//! 1. Histogram bin count — estimation tightness vs. metadata size.
//! 2. Pruning effectiveness per region size (the §III-B trade-off).
//! 3. Bitmap precision — index size vs. candidate-check frequency.
//! 4. Server-side caching on/off across the sequential query series.
//! 5. Selectivity-based evaluation ordering on/off (the §III-D2 claim;
//!    explains Fig. 4).
//! 6. Block index (related work \[26\]): min/max pruning alone vs. the
//!    paper's full-histogram pruning.
//! 7. Burst-buffer staging across the storage hierarchy (§II).
//!
//! Plus E8 — fault injection: the degradation curve as servers are
//! killed, per strategy, with result integrity checked against the
//! fault-free run.

use pdc_bench::*;
use pdc_bitmap::{BinnedBitmapIndex, BinningConfig, ValueDomain};
use pdc_histogram::{Histogram, HistogramConfig};
use pdc_query::{EngineConfig, PdcQuery, QueryEngine, Strategy};
use pdc_storage::SimDuration;
use pdc_types::{Interval, QueryOp};
use pdc_workloads::{multi_object_catalog, single_object_catalog};
use std::sync::Arc;

fn main() {
    let scale = Scale::from_env();
    println!("# E7 — design-choice ablations ({} particles)\n", scale.particles);
    let data = generate_vpic(&scale);

    ablation_bin_count(&scale, &data);
    ablation_pruning_by_region_size(&scale, &data);
    ablation_bitmap_precision(&scale, &data);
    ablation_caching(&scale, &data);
    ablation_ordering(&scale, &data);
    ablation_block_index(&scale, &data);
    ablation_staging(&scale, &data);
    ablation_fault_injection(&scale, &data);
}

/// E8. Fault injection: kill 0, 1, N/2, N−1 of the N servers and measure
/// the degradation per strategy. Hits must match the fault-free run
/// bit-for-bit — each dead server's slot fails over along its preference
/// list to a survivor.
fn ablation_fault_injection(scale: &Scale, data: &pdc_workloads::VpicData) {
    use pdc_server::FaultPlan;
    println!("\n# E8 — fault injection ({} servers)\n", scale.servers);
    let world = import_vpic(data, BEST_REGION.0, true);
    let n = scale.servers;
    let spec = &single_object_catalog()[6];
    let q = PdcQuery::range_open(world.objects.energy, spec.lo, spec.hi);
    println!("query: {}<Energy<{}\n", spec.lo, spec.hi);
    let mut t = Table::new(&[
        "strategy",
        "killed",
        "hits",
        "elapsed",
        "failover",
        "slowdown vs healthy",
        "rounds",
    ]);
    for &strategy in &ALL_STRATEGIES[..4] {
        let mut healthy = None;
        for kills in [0u32, 1, n / 2, n - 1] {
            let plan = (kills > 0).then(|| FaultPlan::kill_count(kills, n, scale.seed));
            let eng = QueryEngine::new(
                Arc::clone(&world.odms),
                EngineConfig { fault_plan: plan, ..engine_config(strategy, n, scale.cost()) },
            );
            let out = eng.run(&q).expect("query must survive while one server lives");
            let (healthy_hits, healthy_elapsed) =
                *healthy.get_or_insert((out.nhits, out.elapsed));
            assert_eq!(out.nhits, healthy_hits, "{strategy}: faults changed the result");
            t.row(vec![
                strategy.label().to_string(),
                format!("{kills}/{n}"),
                out.nhits.to_string(),
                fmt_dur(out.elapsed),
                fmt_dur(out.breakdown.failover),
                format!("{:.2}x", out.elapsed.as_secs_f64() / healthy_elapsed.as_secs_f64()),
                out.retry_rounds.to_string(),
            ]);
        }
    }
    t.print();
    println!("\nkilled servers are detected from their error responses; each of their region");
    println!("slots fails over to the next live server of its preference list (its replicas,");
    println!("then every other server in rendezvous order), so every row returns the fault-free");
    println!("hit count. The degradation curve is the price: retry round-trips plus the");
    println!("survivors' larger share.");
}

/// 6. Block index (ref. 26) vs. PDC-H: min/max blocks read vs.
///    histogram-pruned regions read, same granularity.
fn ablation_block_index(scale: &Scale, data: &pdc_workloads::VpicData) {
    println!("\n## 6. Block index (related work ref.26) vs. histogram pruning\n");
    use pdc_baseline::BlockIndex;
    let (region_bytes, _) = BEST_REGION;
    let block_elems = (region_bytes / 4) as usize;
    let idx = BlockIndex::build(&data.energy, block_elems);
    let world = import_vpic(data, region_bytes, false);
    let hists = world.odms.meta().region_histograms(world.objects.energy).expect("hists");
    let cost = scale.cost();
    let mut t = Table::new(&["query", "blocks read (min/max)", "regions read (histogram)", "total"]);
    for spec in single_object_catalog().iter().step_by(3) {
        let iv = Interval::open(spec.lo as f64, spec.hi as f64);
        let report = idx.query(&data.energy, &iv, &cost, scale.servers);
        let surviving = hists.iter().filter(|h| h.estimate_hits(&iv).upper > 0).count();
        t.row(vec![
            format!("{}<E<{}", spec.lo, spec.hi),
            report.blocks_read.to_string(),
            surviving.to_string(),
            report.blocks_total.to_string(),
        ]);
    }
    t.print();
    println!("\nhistogram pruning reads no more (usually fewer) partitions than min/max block");
    println!("pruning: occupied-bin tests reject range-straddling partitions min/max cannot.\n");
}

/// 7. Burst-buffer staging: the same query series cold from the PFS vs.
///    after staging the object into the node-local burst buffer.
fn ablation_staging(scale: &Scale, data: &pdc_workloads::VpicData) {
    println!("## 7. Burst-buffer staging (deep memory hierarchy, §II)\n");
    use pdc_storage::StorageTier;
    let mut t = Table::new(&["placement", "Fig. 3 series total (PDC-H, cold caches)"]);
    for (label, stage) in [("PFS (cold)", false), ("staged to burst buffer", true)] {
        let world = import_vpic(data, BEST_REGION.0, false);
        if stage {
            world
                .odms
                .stage_object(world.objects.energy, StorageTier::BurstBuffer)
                .expect("staging");
        }
        let eng = QueryEngine::new(
            Arc::clone(&world.odms),
            EngineConfig {
                cache_bytes_per_server: 0, // isolate the tier effect
                ..engine_config(Strategy::Histogram, scale.servers, scale.cost())
            },
        );
        let mut total = SimDuration::ZERO;
        for spec in single_object_catalog() {
            let q = PdcQuery::range_open(world.objects.energy, spec.lo, spec.hi);
            total += eng.run(&q).expect("query").elapsed;
        }
        t.row(vec![label.to_string(), fmt_dur(total)]);
    }
    t.print();
    println!("\nstaging moves the object one tier up the hierarchy; reads then avoid the");
    println!("shared PFS entirely — PDC's transparent data-movement value proposition.");
}

/// 1. Histogram bin count: average (upper−lower) selectivity-bound width
///    over the catalog, and the metadata footprint.
fn ablation_bin_count(scale: &Scale, data: &pdc_workloads::VpicData) {
    println!("## 1. Histogram bin count (paper uses 50-100)\n");
    let values: Vec<f64> = data.energy.iter().map(|&v| v as f64).collect();
    let mut t = Table::new(&["bins requested", "bins built", "avg bound width", "bytes"]);
    for nbins in [16usize, 32, 64, 128, 256] {
        let cfg = HistogramConfig { nbins_lower_bound: nbins, ..Default::default() };
        let h = Histogram::build(&values, &cfg).expect("histogram");
        let mut width_sum = 0.0;
        let mut count = 0;
        for spec in single_object_catalog() {
            let iv = Interval::open(spec.lo as f64, spec.hi as f64);
            let (lo, hi) = h.selectivity_bounds(&iv);
            width_sum += hi - lo;
            count += 1;
        }
        t.row(vec![
            nbins.to_string(),
            h.num_bins().to_string(),
            format!("{:.5}", width_sum / count as f64),
            h.size_bytes().to_string(),
        ]);
    }
    t.print();
    println!("\nmore bins tighten the estimate at linear metadata cost; ~64 bins already");
    println!("bounds the catalog's windows well — consistent with the paper's 50-100.\n");
    let _ = scale;
}

/// 2. Pruning effectiveness per region size: fraction of regions the
///    histogram eliminates per catalog query.
fn ablation_pruning_by_region_size(scale: &Scale, data: &pdc_workloads::VpicData) {
    println!("## 2. Region pruning effectiveness vs. region size\n");
    let mut t = Table::new(&["region size", "paper", "regions", "avg pruned", "avg survivors"]);
    for (region_bytes, paper_label) in REGION_SWEEP {
        let world = import_vpic(data, region_bytes, false);
        let hists =
            world.odms.meta().region_histograms(world.objects.energy).expect("histograms");
        let mut pruned_sum = 0usize;
        let mut queries = 0usize;
        for spec in single_object_catalog() {
            let iv = Interval::open(spec.lo as f64, spec.hi as f64);
            pruned_sum += hists.iter().filter(|h| h.estimate_hits(&iv).upper == 0).count();
            queries += 1;
        }
        let total = hists.len() * queries;
        let avg_pruned = pruned_sum as f64 / queries as f64;
        t.row(vec![
            fmt_bytes(region_bytes),
            paper_label.to_string(),
            hists.len().to_string(),
            format!("{:.1} ({:.0}%)", avg_pruned, 100.0 * pruned_sum as f64 / total as f64),
            format!("{:.1}", hists.len() as f64 - avg_pruned),
        ]);
    }
    t.print();
    println!("\nsmaller regions prune a larger fraction but leave more surviving regions in");
    println!("absolute terms to manage — the paper's region-size trade-off.\n");
    let _ = scale;
}

/// 3. Bitmap precision: index size and candidate-check frequency across
///    the catalog.
fn ablation_bitmap_precision(scale: &Scale, data: &pdc_workloads::VpicData) {
    println!("## 3. Bitmap index precision (paper uses precision = 2)\n");
    let region = (BEST_REGION.0 / 4) as usize;
    let values: Vec<f64> = data.energy.iter().map(|&v| v as f64).collect();
    let mut t = Table::new(&["precision", "index bytes", "% of data", "queries needing checks"]);
    for precision in [1u32, 2, 3] {
        let cfg = BinningConfig { precision, ..Default::default() };
        let mut bytes = 0u64;
        let mut any_candidates = vec![false; single_object_catalog().len()];
        for start in (0..values.len()).step_by(region) {
            let end = (start + region).min(values.len());
            let idx =
                BinnedBitmapIndex::build_with_domain(&values[start..end], &cfg, ValueDomain::F32)
                    .expect("index");
            bytes += idx.size_bytes_serialized();
            for (qi, spec) in single_object_catalog().iter().enumerate() {
                let iv = Interval::open(spec.lo as f64, spec.hi as f64);
                if idx.query(&iv).needs_candidate_check() {
                    any_candidates[qi] = true;
                }
            }
        }
        t.row(vec![
            precision.to_string(),
            fmt_bytes(bytes),
            format!("{:.1}%", 100.0 * bytes as f64 / (values.len() * 4) as f64),
            format!("{}/15", any_candidates.iter().filter(|&&c| c).count()),
        ]);
    }
    t.print();
    println!("\nprecision 1 is small but its decade-wide bins force raw-data candidate checks");
    println!("on the paper's 0.1-wide windows; precision 2 answers them index-only; precision");
    println!("3 pays more space for nothing the catalog needs — the paper's default.\n");
    let _ = scale;
}

/// 4. Server-side caching on/off across the sequential Fig. 3 series.
fn ablation_caching(scale: &Scale, data: &pdc_workloads::VpicData) {
    println!("## 4. Region caching across a sequential query series\n");
    let world = import_vpic(data, BEST_REGION.0, false);
    let mut t = Table::new(&["cache", "series total (PDC-H)", "PFS bytes read"]);
    for (label, cache_bytes) in [("64GB-scaled (on)", 1u64 << 30), ("off", 0)] {
        let eng = QueryEngine::new(
            Arc::clone(&world.odms),
            EngineConfig {
                cache_bytes_per_server: cache_bytes,
                ..engine_config(Strategy::Histogram, scale.servers, scale.cost())
            },
        );
        let mut total = SimDuration::ZERO;
        let mut pfs = 0u64;
        for spec in single_object_catalog() {
            let q = PdcQuery::range_open(world.objects.energy, spec.lo, spec.hi);
            let out = eng.run(&q).expect("query");
            total += out.elapsed;
            pfs += out.io.pfs_bytes_read;
        }
        t.row(vec![label.to_string(), fmt_dur(total), fmt_bytes(pfs)]);
    }
    t.print();
    println!("\nthe paper's observed speedup across the sequential series comes from exactly");
    println!("this cache: without it every query re-reads its surviving regions.\n");
}

/// 5. Selectivity-based ordering on/off for the Fig. 4 queries.
fn ablation_ordering(scale: &Scale, data: &pdc_workloads::VpicData) {
    println!("## 5. Selectivity-based evaluation ordering (the §III-D2 planner)\n");
    let world = import_vpic(data, BEST_REGION.0, true);
    let mut t = Table::new(&["ordering", "Fig. 4 series total (PDC-H)", "elements scanned"]);
    for (label, ordering) in [("on (paper)", true), ("off (user order)", false)] {
        let eng = QueryEngine::new(
            Arc::clone(&world.odms),
            EngineConfig {
                order_by_selectivity: ordering,
                ..engine_config(Strategy::Histogram, scale.servers, scale.cost())
            },
        );
        let mut total = SimDuration::ZERO;
        let mut scanned = 0u64;
        for spec in multi_object_catalog() {
            // User writes the *least* selective condition first (x), as in
            // the paper's C example; the planner may reorder.
            let q = PdcQuery::range_open(world.objects.x, spec.x_lo, spec.x_hi)
                .and(PdcQuery::range_open(world.objects.y, spec.y_lo, spec.y_hi))
                .and(PdcQuery::range_open(world.objects.z, spec.z_lo, spec.z_hi))
                .and(PdcQuery::create(world.objects.energy, QueryOp::Gt, spec.energy_gt));
            eng.run(&q).expect("warm-up");
            let out = eng.run(&q).expect("query");
            total += out.elapsed;
            scanned += out.work.elements_scanned;
        }
        t.row(vec![label.to_string(), fmt_dur(total), scanned.to_string()]);
    }
    t.print();
    println!("\nevaluating the most selective constraint first shrinks the candidate set the");
    println!("later point-checks must touch — \"the execution order has a significant impact\".");
}
