//! The metric registry: every name the benchmark may print, with its unit
//! and direction. `BENCHMARK.json` lists exactly these (a unit test holds
//! the two in step), and a [`MetricSet`] refuses names outside it, so a
//! typo cannot silently drop a metric from the output.

use crate::json::Json;

/// One metric definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name (`layer.metric` for per-layer metrics).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only; 0 for per-layer metrics, which are never gated).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

/// End-to-end metrics: printed by every workload with `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("queries_per_s", "1/s", "higher", 0.25),
    e2e("query_wall_p50_ms", "ms", "lower", 0.25),
    e2e("sim_query_mean_ms", "ms", "lower", 0.05),
    e2e("sim_latency_p99_ms", "ms", "lower", 0.10),
    e2e("ingest_melems_per_s", "Melem/s", "higher", 0.25),
    e2e("disk_bytes_per_user_byte", "ratio", "lower", 0.02),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
];

/// Per-layer metrics: printed by every workload with `--trace 1`. A value
/// of 0 means the workload's operations never enter that layer function.
pub const PER_LAYER: &[MetricDef] = &[
    layer("parse.parse_query_us", "us", "lower"),
    layer("plan.build_us", "us", "lower"),
    layer("plan.selectivity_rel_err", "ratio", "lower"),
    layer("histogram.estimate_hits_ns", "ns", "lower"),
    layer("histogram.merge_us", "us", "lower"),
    layer("directory.probe_us", "us", "lower"),
    layer("directory.candidate_ratio", "ratio", "lower"),
    layer("directory.joint_rect_upper_ns", "ns", "lower"),
    layer("kernels.scan_melems_per_s", "Melem/s", "higher"),
    layer("kernels.scan_fused_melems_per_s", "Melem/s", "higher"),
    layer("kernels.filter_melems_per_s", "Melem/s", "higher"),
    layer("kernels.count_melems_per_s", "Melem/s", "higher"),
    layer("selection.union_many_mruns_per_s", "Mrun/s", "higher"),
    layer("selection.intersect_mruns_per_s", "Mrun/s", "higher"),
    layer("selection.runs_per_hit", "ratio", "lower"),
    layer("bitmap.from_bytes_us", "us", "lower"),
    layer("bitmap.query_us", "us", "lower"),
    layer("bitmap.wah_and_mwords_per_s", "Mword/s", "higher"),
    layer("bitmap.wah_or_many_mwords_per_s", "Mword/s", "higher"),
    layer("bitmap.candidate_fraction", "ratio", "lower"),
    layer("bitmap.index_bytes_per_data_byte", "ratio", "lower"),
    layer("sorted.lookup_ns", "ns", "lower"),
    layer("sorted.build_melems_per_s", "Melem/s", "higher"),
    layer("blockstore.decode_mb_per_s", "MB/s", "higher"),
    layer("blockstore.encode_mb_per_s", "MB/s", "higher"),
    layer("blockstore.cache_hit_rate", "ratio", "higher"),
    layer("blockstore.cache_evictions", "count", "lower"),
    layer("blockstore.compression_ratio", "ratio", "higher"),
    layer("storage.get_typed_us", "us", "lower"),
    layer("storage.fault_ins", "count", "lower"),
    layer("storage.demotions", "count", "lower"),
    layer("storage.resident_high_water_ratio", "ratio", "lower"),
    layer("storage.region_cache_hit_rate", "ratio", "higher"),
    layer("server.broadcast_us", "us", "lower"),
    layer("server.assign_balanced_us", "us", "lower"),
    layer("server.sim_imbalance", "ratio", "lower"),
    layer("odms.import_melems_per_s", "Melem/s", "higher"),
    layer("odms.append_us_per_kelem", "us", "lower"),
    layer("odms.maintenance_ms", "ms", "lower"),
    layer("engine.run_wall_p99_ms", "ms", "lower"),
    layer("engine.run_wall_tail_pct", "%", "higher"),
    layer("engine.run_wall_samples", "count", "higher"),
    layer("engine.get_data_us", "us", "lower"),
    layer("engine.unattributed_share", "ratio", "lower"),
    layer("engine.explain_overhead_ratio", "ratio", "lower"),
    layer("engine.elements_scanned_per_hit", "ratio", "lower"),
    layer("engine.regions_pruned_ratio", "ratio", "higher"),
    layer("engine.sim_io_share", "ratio", "lower"),
    layer("engine.sim_cpu_share", "ratio", "lower"),
    layer("engine.sim_net_share", "ratio", "lower"),
    layer("qcache.late_join_ratio", "ratio", "higher"),
    layer("qcache.prewarm_regions_per_member", "ratio", "lower"),
    layer("service.serve_us_per_arrival", "us", "lower"),
    layer("service.batching_gain", "ratio", "higher"),
    layer("service.deferral_ratio", "ratio", "lower"),
    layer("cli.serve_trace_wall_ms", "ms", "lower"),
    layer("bench.trace_overhead_ratio", "ratio", "higher"),
    layer("parse.busy_share", "ratio", "lower"),
    layer("plan.busy_share", "ratio", "lower"),
    layer("histogram.busy_share", "ratio", "lower"),
    layer("directory.busy_share", "ratio", "lower"),
    layer("kernels.busy_share", "ratio", "lower"),
    layer("selection.busy_share", "ratio", "lower"),
    layer("bitmap.busy_share", "ratio", "lower"),
    layer("sorted.busy_share", "ratio", "lower"),
    layer("blockstore.busy_share", "ratio", "lower"),
    layer("storage.busy_share", "ratio", "lower"),
    layer("server.busy_share", "ratio", "lower"),
    layer("odms.busy_share", "ratio", "lower"),
    layer("service.busy_share", "ratio", "lower"),
    layer("engine.busy_share", "ratio", "lower"),
];

/// The four workloads and why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "scan_wide",
        "wide windows (10-40 % selectivity) under PDC-F/PDC-H: scan kernels, selection merge and dispatch do the work; indexes are bypassed",
    ),
    (
        "selective_catalog",
        "the paper's 21 selective queries as text under PDC-HI/SH/A: parse, plan, histograms, directory, bitmap and sorted replica dominate; the scan kernel only sees candidates",
    ),
    (
        "spill_cold",
        "working set about 4x the memory budget and 8x the block cache: block decode, checksums, fault-in and the block cache dominate; the resident workloads bypass this path",
    ),
    (
        "serve_ingest",
        "open-loop tenant traces through serve, each followed by an append plus deferred maintenance: writes invalidate the caches that make reads fast",
    ),
];

/// A full set of values for one metric list, every metric present from the
/// start (0 until set).
#[derive(Debug, Clone)]
pub struct MetricSet {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl MetricSet {
    /// All metrics of `defs`, zeroed.
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Self { defs, values: vec![0.0; defs.len()] }
    }

    /// Set a metric. Panics on a name outside the registry: that is a bug
    /// in the benchmark, never a property of the program under test.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not in the registry"));
        self.values[i] = if value.is_finite() { value } else { 0.0 };
    }

    /// A metric's current value.
    pub fn get(&self, name: &str) -> f64 {
        self.iter().find(|(d, _)| d.name == name).map_or(0.0, |(_, v)| v)
    }

    /// `(definition, value)` in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(d, v)| {
                    (
                        d.name.to_string(),
                        Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(d.unit))]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.better == "higher" || d.better == "lower");
            assert!((0.0..=0.25).contains(&d.bound));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
        let largest = END_TO_END.iter().map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(END_TO_END.iter().find(|d| d.name == "setup_s").unwrap().bound, largest);
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// registry: same names, units, directions, bounds, in the same order.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let squeezed: String = text.split_whitespace().collect();
        let mut expected = String::from("\"workloads\":[");
        for (i, (name, why)) in WORKLOADS.iter().enumerate() {
            let why: String = why.split_whitespace().collect();
            expected.push_str(&format!(
                "{}{{\"name\":\"{name}\",\"why\":\"{why}\"}}",
                if i > 0 { "," } else { "" }
            ));
            assert!(why.len() <= 200);
        }
        expected.push_str("],\"end_to_end\":[");
        for (i, d) in END_TO_END.iter().enumerate() {
            expected.push_str(&format!(
                "{}{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{}}}",
                if i > 0 { "," } else { "" },
                d.name,
                d.unit,
                d.better,
                d.bound
            ));
        }
        expected.push_str("],\"per_layer\":[");
        for (i, d) in PER_LAYER.iter().enumerate() {
            expected.push_str(&format!(
                "{}{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
                if i > 0 { "," } else { "" },
                d.name,
                d.unit,
                d.better
            ));
        }
        expected.push_str("]}");
        assert!(
            squeezed.ends_with(&expected),
            "BENCHMARK.json is out of step with src/metrics.rs; regenerate it with \
             `pdc-benchmark --emit-benchmark-json`"
        );
    }

    #[test]
    fn metric_set_holds_every_metric_and_rejects_strangers() {
        let mut m = MetricSet::new(END_TO_END);
        m.set("setup_s", 1.25);
        m.set("peak_rss_mb", f64::NAN);
        assert_eq!(m.get("setup_s"), 1.25);
        assert_eq!(m.get("peak_rss_mb"), 0.0);
        assert_eq!(m.iter().count(), END_TO_END.len());
        let line = m.to_json().to_line();
        assert!(line.starts_with(r#"{"queries_per_s":{"value":0,"unit":"1/s"}"#));
        assert!(line.contains(r#""setup_s":{"value":1.25,"unit":"s"}"#));
        assert!(std::panic::catch_unwind(move || m.set("no_such_metric", 1.0)).is_err());
    }
}
