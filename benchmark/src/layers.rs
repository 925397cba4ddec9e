//! Turning spans, exact counts and query outcomes into the per-layer
//! metrics of the registry. Shared by all four workloads.

use crate::metrics::MetricSet;
use crate::probes::ReplayCounts;
use crate::stats;
use crate::trace::{Totals, Tracer, STANDALONE_OP};
use crate::world::World;
use pdc_query::QueryOutcome;
use pdc_storage::SpillStats;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Exact, simulated-clock and counter aggregates over query outcomes.
/// Taken over one pass of the operation list, where every value repeats
/// bit-for-bit from run to run.
#[derive(Debug, Clone, Default)]
pub struct OutcomeAgg {
    queries: u64,
    nhits: u64,
    runs: u64,
    cache_hits: u64,
    cache_misses: u64,
    scanned: u64,
    io_s: f64,
    cpu_s: f64,
    net_s: f64,
    total_s: f64,
    imbalance_sum: f64,
}

impl OutcomeAgg {
    /// Fold in one outcome.
    pub fn add(&mut self, o: &QueryOutcome) {
        self.queries += 1;
        self.nhits += o.nhits;
        self.runs += o.selection.num_runs() as u64;
        self.cache_hits += o.io.cache_hits;
        self.cache_misses += o.io.cache_misses;
        self.scanned += o.work.elements_scanned;
        self.io_s += o.breakdown.io.as_secs_f64();
        self.cpu_s += o.breakdown.cpu.as_secs_f64();
        self.net_s += o.breakdown.net.as_secs_f64();
        self.total_s += o.breakdown.total().as_secs_f64();
        let per: Vec<f64> = o.per_server.iter().map(|d| d.as_secs_f64()).collect();
        let max = per.iter().copied().fold(0.0, f64::max);
        self.imbalance_sum += ratio(max, stats::mean(&per));
    }

    /// Write the outcome-derived per-layer metrics.
    pub fn fill(&self, m: &mut MetricSet) {
        m.set("selection.runs_per_hit", ratio(self.runs as f64, self.nhits as f64));
        m.set(
            "storage.region_cache_hit_rate",
            ratio(self.cache_hits as f64, (self.cache_hits + self.cache_misses) as f64),
        );
        m.set("server.sim_imbalance", ratio(self.imbalance_sum, self.queries as f64));
        m.set("engine.elements_scanned_per_hit", ratio(self.scanned as f64, self.nhits as f64));
        m.set("engine.sim_io_share", ratio(self.io_s, self.total_s));
        m.set("engine.sim_cpu_share", ratio(self.cpu_s, self.total_s));
        m.set("engine.sim_net_share", ratio(self.net_s, self.total_s));
    }
}

/// The wall tail of `engine.run` under the ten-samples-beyond rule, with
/// the percentile actually supported and the sample count.
pub fn fill_run_tail(m: &mut MetricSet, run_wall_s: &[f64]) {
    let tail = stats::tail(run_wall_s);
    m.set("engine.run_wall_p99_ms", tail.value * 1e3);
    m.set("engine.run_wall_tail_pct", tail.pct);
    m.set("engine.run_wall_samples", tail.n as f64);
}

/// Exact counts gathered by the replays.
pub fn fill_counts(m: &mut MetricSet, c: &ReplayCounts) {
    m.set("plan.selectivity_rel_err", stats::median(&c.sel_rel_err));
    m.set("directory.candidate_ratio", ratio(c.dir_candidates as f64, c.dir_regions as f64));
    m.set("bitmap.candidate_fraction", ratio(c.index_candidates as f64, c.index_upper as f64));
    m.set("engine.regions_pruned_ratio", ratio(c.rows_pruned as f64, c.rows as f64));
}

/// Import-side figures of a world.
pub fn fill_world(m: &mut MetricSet, world: &World) {
    let data: u64 = world.reports.iter().map(|r| r.data_bytes).sum();
    let index: u64 = world.reports.iter().map(|r| r.index_bytes).sum();
    m.set("bitmap.index_bytes_per_data_byte", ratio(index as f64, data as f64));
    m.set("odms.import_melems_per_s", ratio(world.written_elems as f64 / 1e6, world.write_wall_s));
}

/// Out-of-core counters over the measured phase (`before` → `after`).
pub fn fill_spill(m: &mut MetricSet, before: &SpillStats, after: &SpillStats, memory_budget: u64) {
    let hits = after.block_cache.hits - before.block_cache.hits;
    let misses = after.block_cache.misses - before.block_cache.misses;
    m.set("blockstore.cache_hit_rate", ratio(hits as f64, (hits + misses) as f64));
    m.set(
        "blockstore.cache_evictions",
        (after.block_cache.evictions - before.block_cache.evictions) as f64,
    );
    m.set("blockstore.compression_ratio", after.compression_ratio());
    m.set("storage.fault_ins", (after.fault_ins - before.fault_ins) as f64);
    m.set("storage.demotions", after.demotions as f64);
    m.set(
        "storage.resident_high_water_ratio",
        ratio(after.resident_high_water as f64, memory_budget as f64),
    );
}

/// The layers whose busy share is reported.
const SHARE_LAYERS: &[&str] = &[
    "parse",
    "plan",
    "histogram",
    "directory",
    "kernels",
    "selection",
    "bitmap",
    "sorted",
    "blockstore",
    "storage",
    "server",
    "odms",
    "service",
];

/// Span-derived per-layer metrics. Times per call and throughputs come
/// from every span of a name; busy shares and the unattributed share come
/// from the operations of the replay pass only (operation ids from
/// `replay_ops_from` on), as shares of the summed `root` span durations.
pub fn fill_spans(m: &mut MetricSet, t: &Tracer, replay_ops_from: u64, root: &str) {
    let of = |name: &str| t.total_of(name);
    let us_per_call = |tot: Totals| tot.ns_per_call() / 1e3;
    m.set("parse.parse_query_us", us_per_call(of("parse.parse_query")));
    m.set("plan.build_us", us_per_call(of("plan.build")));
    m.set("histogram.estimate_hits_ns", of("histogram.estimate_hits").ns_per_call());
    m.set("histogram.merge_us", us_per_call(of("histogram.merge_in_place")));
    m.set("directory.probe_us", us_per_call(of("directory.probe")));
    m.set("directory.joint_rect_upper_ns", of("directory.joint_rect_upper").ns_per_call());
    m.set("kernels.scan_melems_per_s", of("kernels.scan_interval").units_per_us());
    m.set("kernels.scan_fused_melems_per_s", of("kernels.scan_intervals").units_per_us());
    m.set(
        "kernels.filter_melems_per_s",
        of("kernels.filter_selection").plus(of("kernels.scan_range")).units_per_us(),
    );
    m.set("kernels.count_melems_per_s", of("kernels.count_matches").units_per_us());
    m.set("selection.union_many_mruns_per_s", of("selection.union_many").units_per_us());
    m.set("selection.intersect_mruns_per_s", of("selection.intersect").units_per_us());
    m.set("bitmap.from_bytes_us", us_per_call(of("bitmap.from_bytes")));
    m.set("bitmap.query_us", us_per_call(of("bitmap.query")));
    m.set("bitmap.wah_and_mwords_per_s", of("bitmap.wah_and").units_per_us());
    m.set("bitmap.wah_or_many_mwords_per_s", of("bitmap.wah_or_many").units_per_us());
    m.set("sorted.lookup_ns", of("sorted.lookup").ns_per_call());
    m.set("sorted.build_melems_per_s", of("sorted.build").units_per_us());
    m.set("blockstore.decode_mb_per_s", of("blockstore.read_typed_block").units_per_us());
    m.set("blockstore.encode_mb_per_s", of("blockstore.encode_block").units_per_us());
    m.set("storage.get_typed_us", us_per_call(of("storage.get_typed")));
    m.set("server.broadcast_us", us_per_call(of("server.broadcast")));
    m.set("server.assign_balanced_us", us_per_call(of("server.assign_balanced")));
    m.set("engine.get_data_us", us_per_call(of("engine.get_data")));
    m.set("odms.maintenance_ms", of("odms.run_deferred_maintenance").ns_per_call() / 1e6);
    let append = of("odms.append_array");
    m.set("odms.append_us_per_kelem", ratio(append.dur_ns as f64 / 1e3, append.units as f64 / 1e3));
    let serve = of("service.serve");
    m.set("service.serve_us_per_arrival", ratio(serve.dur_ns as f64 / 1e3, serve.units as f64));

    // The replay pass: shares of the root spans' wall time.
    let in_replay = |op: u64| op != STANDALONE_OP && op >= replay_ops_from;
    let dur_of = |pred: &dyn Fn(&crate::trace::Span) -> bool| -> u64 {
        t.spans().iter().filter(|s| in_replay(s.op) && pred(s)).map(|s| s.dur_ns()).sum()
    };
    let root_ns = dur_of(&|s| s.name == root);
    let run_ns = dur_of(&|s| s.name == "engine.run");
    let get_data_ns = dur_of(&|s| s.name == "engine.get_data");
    let replayed_ns = dur_of(&|s| s.replayed);
    let busy = t.busy_ns_by_layer(replay_ops_from);
    for layer in SHARE_LAYERS {
        let ns = busy.get(layer).copied().unwrap_or(0);
        m.set(&format!("{layer}.busy_share"), ratio(ns as f64, root_ns as f64));
    }
    // The engine's own share: result fetch plus whatever part of `run`
    // the replayed layer calls do not account for.
    let glue_ns = run_ns.saturating_sub(replayed_ns) + get_data_ns;
    m.set("engine.busy_share", ratio(glue_ns as f64, root_ns as f64));

    // Every span with replayed children (an `engine.run`, inside an
    // operation or standalone) against the sum of those children.
    let parents: std::collections::BTreeSet<usize> =
        t.spans().iter().filter(|s| s.replayed).filter_map(|s| s.parent).collect();
    let parent_ns: u64 = parents.iter().map(|&p| t.spans()[p].dur_ns()).sum();
    let children_ns: u64 = t.spans().iter().filter(|s| s.replayed).map(|s| s.dur_ns()).sum();
    if parent_ns > 0 {
        m.set("engine.unattributed_share", 1.0 - children_ns as f64 / parent_ns as f64);
    }
    m.set(
        "engine.explain_overhead_ratio",
        ratio(of("engine.explain").dur_ns as f64, parent_ns as f64),
    );
}
