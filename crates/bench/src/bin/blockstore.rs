//! E15: the out-of-core block-compressed region store.
//!
//! Three measurements, each with a hard gate:
//!
//! 1. **Compression** — a VPIC-flavoured `double` array (f32-valued, as
//!    simulation dumps usually are) must compress at least 2x end-to-end
//!    in the block file, checksums and index included.
//! 2. **Cold-scan throughput** — interval scans that stream spilled
//!    blocks (verify + decompress + fused kernel, block by block) vs the
//!    same scan over the resident payload; selections must be identical
//!    and the cold scan must reach [`COLD_OVER_RESIDENT_FLOOR`] of the
//!    resident one.
//! 3. **Budgeted execution** — a store importing under a memory budget
//!    far below the dataset keeps its settled resident high-water under
//!    that budget, and every strategy's selection is bit-identical to an
//!    unbounded world's.
//!
//! Writes `BENCH_blockstore.json` (path overridable as argv[1]).
//! Element count via `PDC_BLOCKSTORE_N` (default 4M). Exits non-zero if
//! a gate fails, unless `PDC_BLOCKSTORE_NO_ASSERT=1`.

use pdc_blockstore::{write_typed, BlockReader, DEFAULT_BLOCK_ELEMS};
use pdc_odms::{ImportOptions, Odms};
use pdc_query::{EngineConfig, PdcQuery, QueryEngine, Strategy};
use pdc_types::{kernels, Interval, ObjectId, Run, Selection, TypedVec};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const DEFAULT_N: usize = 1 << 22;
const SERVERS: u32 = 8;
const REGION_BYTES: u64 = 128 << 10;
/// Floor on cold-streamed over resident scan throughput. Measured 0.84-0.88 at
/// 100M elements (2.08x-compressible blocks) and 1.2 at the CI size of 4M
/// (1.13x; the resident side is the scalar reference scan) with the
/// word-parallel frame checksum and single-pass decode — it was 0.23 with
/// the byte-wise checksum and three-pass decode. The floor leaves 1.7x
/// headroom for a noisy host and still fails on a return to the old read
/// path.
const COLD_OVER_RESIDENT_FLOOR: f64 = 0.5;
/// Written next to `block_cache_hit_rate`, which fell from 0.985 when
/// candidate scans stopped going back to the cache once per run.
const CACHE_NOTE: &str = "candidate scans hold the decoded block across the runs of a region \
    task, so same-block self-hits are no longer counted; varies run to run with server-thread \
    timing (0.02-0.10 over three runs)";

const STRATEGIES: [Strategy; 5] = [
    Strategy::FullScan,
    Strategy::Histogram,
    Strategy::HistogramIndex,
    Strategy::SortedHistogram,
    Strategy::Adaptive,
];

fn gen(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let base = ((i as f32 * 0.37).sin() + 1.0) * 0.9;
            if (3000..3400).contains(&(i % 8000)) {
                2.0 + ((i * 31) % 160) as f32 / 100.0
            } else {
                base
            }
        })
        .collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdc_bench_blockstore_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// 1. End-to-end file compression: uncompressed payload bytes over
///    on-disk file bytes (header, frames, checksums, and index included).
fn compression(values: &[f32]) -> (f64, f64) {
    let dir = tmp_dir("comp");
    let as_f64 = TypedVec::Double(values.iter().map(|&v| v as f64).collect());
    let as_f32 = TypedVec::Float(values.to_vec());
    let ratio = |tv: &TypedVec, name: &str| -> f64 {
        let path = dir.join(name);
        write_typed(&path, tv, DEFAULT_BLOCK_ELEMS).unwrap();
        let disk = std::fs::metadata(&path).unwrap().len();
        tv.size_bytes() as f64 / disk as f64
    };
    let f64_ratio = ratio(&as_f64, "vpic_f64.pbf");
    let f32_ratio = ratio(&as_f32, "vpic_f32.pbf");
    let _ = std::fs::remove_dir_all(&dir);
    (f64_ratio, f32_ratio)
}

/// 2. Wall-clock scan throughput, resident vs streamed-from-disk, with
///    a bit-identity check between the two selections.
fn scan_throughput(values: &[f32]) -> (f64, f64) {
    let dir = tmp_dir("scan");
    let tv = TypedVec::Float(values.to_vec());
    let path = dir.join("scan.pbf");
    write_typed(&path, &tv, DEFAULT_BLOCK_ELEMS).unwrap();
    let interval = Interval::open(2.1, 2.2);
    let n = values.len() as f64;

    let mut resident_best = f64::MAX;
    let mut resident_sel = Selection::default();
    for _ in 0..3 {
        let t = Instant::now();
        resident_sel = kernels::scan_interval_scalar(&tv, &interval, 0);
        resident_best = resident_best.min(t.elapsed().as_secs_f64());
    }

    let mut cold_best = f64::MAX;
    let mut cold_sel = Selection::default();
    for _ in 0..3 {
        let t = Instant::now();
        // The engine's cold path: decode one block at a time, scan it in
        // place, never materialize the region.
        let r = BlockReader::open(&path).unwrap();
        let mut runs: Vec<Run> = Vec::new();
        for b in 0..r.n_blocks() {
            let (start, elems) = r.block_span(b);
            let block = r.read_typed_block(b).unwrap();
            kernels::scan_range(&block, &interval, 0, elems as usize, start, &mut runs);
        }
        cold_sel = Selection::from_runs(runs);
        cold_best = cold_best.min(t.elapsed().as_secs_f64());
    }
    assert_eq!(resident_sel, cold_sel, "cold streaming scan must match the resident scan");
    let _ = std::fs::remove_dir_all(&dir);
    (n / resident_best / 1e6, n / cold_best / 1e6)
}

struct World {
    odms: Arc<Odms>,
    energy: ObjectId,
    x: ObjectId,
}

/// Import energy + x; when a budget is given, spill is configured
/// *before* the import so ingest itself demotes as regions seal.
fn world(values: &[f32], budget: Option<(u64, &PathBuf)>) -> World {
    let odms = Arc::new(Odms::new(64));
    if let Some((bytes, dir)) = budget {
        odms.store().configure_spill(dir, bytes, 8 << 20).unwrap();
    }
    let c = odms.create_container("bench");
    let opts = ImportOptions {
        region_bytes: REGION_BYTES,
        build_index: true,
        build_sorted: true,
        ..Default::default()
    };
    let energy =
        odms.import_array(c, "energy", TypedVec::Float(values.to_vec()), &opts).unwrap().object;
    let x: Vec<f32> = (0..values.len()).map(|i| ((i as f32 * 0.011).cos() + 1.0) * 166.0).collect();
    let x = odms.import_array(c, "x", TypedVec::Float(x), &opts).unwrap().object;
    World { odms, energy, x }
}

fn engine(w: &World, strategy: Strategy) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(&w.odms),
        EngineConfig { strategy, num_servers: SERVERS, ..Default::default() },
    )
}

fn queries(w: &World) -> Vec<PdcQuery> {
    vec![
        PdcQuery::range_open(w.energy, 2.1f32, 2.2f32),
        PdcQuery::create(w.energy, pdc_types::QueryOp::Gt, 3.0f32),
        PdcQuery::range_open(w.energy, 2.0f32, 2.5f32)
            .and(PdcQuery::range_open(w.x, 100.0f32, 200.0f32)),
    ]
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_blockstore.json".to_string());
    let n: usize = std::env::var("PDC_BLOCKSTORE_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_N);
    let values = gen(n);
    println!("# E15 — out-of-core block-compressed region store ({n} elements)\n");

    let (f64_ratio, f32_ratio) = compression(&values);
    let comp_pass = f64_ratio >= 2.0;
    println!(
        "compression: vpic f64 {f64_ratio:.2}x (gate >= 2.0: {}), f32 {f32_ratio:.2}x",
        if comp_pass { "PASS" } else { "FAIL" }
    );

    let (resident_meps, cold_meps) = scan_throughput(&values);
    let cold_over_resident = cold_meps / resident_meps;
    let cold_pass = cold_over_resident >= COLD_OVER_RESIDENT_FLOOR;
    println!(
        "scan: resident {resident_meps:.0} Melem/s, cold stream {cold_meps:.0} Melem/s \
         ({cold_over_resident:.2}x of resident, gate >= {COLD_OVER_RESIDENT_FLOOR}: {})",
        if cold_pass { "PASS" } else { "FAIL" }
    );

    // Budget: a quarter of the raw data bytes — far below the dataset,
    // far above any single region.
    let data_bytes = 2 * (n as u64) * 4;
    let budget = (data_bytes / 4).max(2 * REGION_BYTES);
    let dir = tmp_dir("spill");
    let unbounded = world(&values, None);
    let bounded = world(&values, Some((budget, &dir)));

    let mut strat_json = String::new();
    let mut all_match = true;
    for (i, strategy) in STRATEGIES.into_iter().enumerate() {
        let a = engine(&unbounded, strategy);
        let b = engine(&bounded, strategy);
        let mut hits = 0u64;
        let mut sim_ms = 0.0f64;
        let mut matches = true;
        for (qa, qb) in queries(&unbounded).iter().zip(&queries(&bounded)) {
            let oa = a.run(qa).unwrap();
            let ob = b.run(qb).unwrap();
            matches &= oa.selection == ob.selection && oa.elapsed == ob.elapsed;
            hits += ob.nhits;
            sim_ms += ob.elapsed.as_secs_f64() * 1e3;
        }
        all_match &= matches;
        println!(
            "{:>7}: {hits} hits over {} queries, simulated {sim_ms:.3} ms, \
             identical to unbounded: {matches}",
            strategy.label(),
            queries(&bounded).len(),
        );
        let _ = write!(
            strat_json,
            "    \"{}\": {{ \"hits\": {hits}, \"sim_ms\": {sim_ms:.3}, \
             \"identical_to_unbounded\": {matches} }}{}",
            strategy.label(),
            if i + 1 < STRATEGIES.len() { ",\n" } else { "\n" },
        );
    }

    let stats = bounded.odms.store().spill_stats().expect("spill configured");
    let budget_pass = stats.resident_high_water <= budget && stats.demotions > 0;
    let spill_ratio = if stats.spilled_comp_bytes > 0 {
        stats.spilled_raw_bytes as f64 / stats.spilled_comp_bytes as f64
    } else {
        1.0
    };
    println!(
        "budget: resident high-water {} B of {} B ({}), {} demotion(s), {} fault-in(s), \
         {} region(s) spilled at {spill_ratio:.2}x, block cache {:.1}% hits",
        stats.resident_high_water,
        budget,
        if budget_pass { "PASS" } else { "FAIL" },
        stats.demotions,
        stats.fault_ins,
        stats.spilled_regions,
        stats.block_cache.hit_rate() * 100.0,
    );
    let _ = std::fs::remove_dir_all(&dir);

    let gates = comp_pass && cold_pass && budget_pass && all_match;
    let json = format!(
        "{{\n  \"n_elements\": {n},\n  \"servers\": {SERVERS},\n  \
         \"region_bytes\": {REGION_BYTES},\n  \
         \"compression_f64_vpic\": {f64_ratio:.3},\n  \
         \"compression_f32_vpic\": {f32_ratio:.3},\n  \
         \"compression_gate_2x\": \"{}\",\n  \
         \"scan_resident_melems_per_s\": {resident_meps:.1},\n  \
         \"scan_cold_stream_melems_per_s\": {cold_meps:.1},\n  \
         \"cold_over_resident\": {cold_over_resident:.3},\n  \
         \"cold_over_resident_gate\": \"{}\",\n  \
         \"memory_budget_bytes\": {budget},\n  \
         \"resident_high_water_bytes\": {},\n  \
         \"budget_gate\": \"{}\",\n  \
         \"demotions\": {},\n  \"fault_ins\": {},\n  \"spilled_regions\": {},\n  \
         \"spill_compression\": {spill_ratio:.3},\n  \
         \"block_cache_hit_rate\": {:.4},\n  \
         \"block_cache_hit_rate_note\": \"{CACHE_NOTE}\",\n  \
         \"identical_to_unbounded\": {all_match},\n  \"strategies\": {{\n{strat_json}  }}\n}}\n",
        if comp_pass { "PASS" } else { "FAIL" },
        if cold_pass { "PASS" } else { "FAIL" },
        stats.resident_high_water,
        if budget_pass { "PASS" } else { "FAIL" },
        stats.demotions,
        stats.fault_ins,
        stats.spilled_regions,
        stats.block_cache.hit_rate(),
    );
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("wrote {out_path}");

    if std::env::var("PDC_BLOCKSTORE_NO_ASSERT").is_err() && !gates {
        eprintln!("FAIL: an E15 gate did not hold");
        std::process::exit(1);
    }
}
