//! Records the repo's scan-kernel wall-clock baseline: the monomorphized
//! mask kernels against the per-element `get_f64` scalar reference, per
//! payload type, plus the candidate-confirmation filter and the WAH
//! mask-block builder.
//!
//! Writes `BENCH_kernels.json` (path overridable as argv[1]); element
//! count via `PDC_KERNEL_BENCH_N` (default 4M, the recorded baseline).

use pdc_bitmap::WahBitVector;
use pdc_types::{kernels, Interval, Run, Selection, TypedVec};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const DEFAULT_N: usize = 4 << 20; // 4 Mi elements
const REPS: usize = 5;

/// Best-of-`REPS` wall time of `f`, with its (checksummed) output kept
/// alive through `black_box`.
fn best_ns<O, F: FnMut() -> O>(mut f: F) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..REPS {
        let t = Instant::now();
        black_box(f());
        best = best.min(t.elapsed().as_nanos());
    }
    best
}

struct Row {
    name: &'static str,
    scalar_ns: u128,
    kernel_ns: u128,
}

impl Row {
    fn json(&self, n: usize) -> String {
        let speed = |ns: u128| self.scalar_ns as f64 / ns as f64;
        let melems = |ns: u128| n as f64 / ns as f64 * 1e3;
        format!(
            "    \"{}\": {{\n      \"scalar_ns\": {},\n      \"kernel_ns\": {},\n      \
             \"kernel_speedup\": {:.2},\n      \"kernel_melems_per_s\": {:.1}\n    }}",
            self.name,
            self.scalar_ns,
            self.kernel_ns,
            speed(self.kernel_ns),
            melems(self.kernel_ns),
        )
    }
}

fn scan_row(name: &'static str, tv: &TypedVec, iv: &Interval) -> Row {
    let expect = kernels::scan_interval_scalar(tv, iv, 0);
    assert_eq!(kernels::scan_interval(tv, iv, 0), expect, "{name}: kernel disagrees");
    Row {
        name,
        scalar_ns: best_ns(|| kernels::scan_interval_scalar(tv, iv, 0)),
        kernel_ns: best_ns(|| kernels::scan_interval(tv, iv, 0)),
    }
}

fn main() {
    let out_path =
        std::env::args().nth(1).unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let n: usize = std::env::var("PDC_KERNEL_BENCH_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_N);

    // Energy-like doubles: a smooth bulk in [0, 1.8] plus a clustered
    // tail, so the open(2.1, 2.2) query is selective (realistic masks).
    let doubles: Vec<f64> = (0..n)
        .map(|i| {
            let base = ((i as f64 * 0.37).sin() + 1.0) * 0.9;
            if (3000..3400).contains(&(i % 8000)) {
                2.0 + ((i * 31) % 160) as f64 / 100.0
            } else {
                base
            }
        })
        .collect();
    let iv = Interval::open(2.1, 2.2);
    let int_iv = Interval::closed(100.0, 119.0);
    let tv_f32 = TypedVec::Float(doubles.iter().map(|&v| v as f32).collect());
    let tv_i32 = TypedVec::Int32((0..n).map(|i| (i as i32).wrapping_mul(31) % 1000).collect());
    let tv_u32 =
        TypedVec::UInt32((0..n).map(|i| (i as u32).wrapping_mul(2654435761) % 1000).collect());
    let tv_i64 =
        TypedVec::Int64((0..n).map(|i| (i as i64).wrapping_mul(2654435761) % 1000).collect());
    let tv_u64 =
        TypedVec::UInt64((0..n).map(|i| (i as u64).wrapping_mul(2654435761) % 1000).collect());
    let tv_f64 = TypedVec::Double(doubles);

    let rows = [
        scan_row("double", &tv_f64, &iv),
        scan_row("float", &tv_f32, &iv),
        scan_row("int32", &tv_i32, &int_iv),
        scan_row("uint32", &tv_u32, &int_iv),
        scan_row("int64", &tv_i64, &int_iv),
        scan_row("uint64", &tv_u64, &int_iv),
    ];

    // Candidate confirmation (PDC-HI edge bins): 13-wide candidate runs
    // every 100 coordinates.
    let candidates = Selection::from_runs(
        (0..n as u64 - 13).step_by(100).map(|s| Run::new(s, 13)).collect(),
    );
    let cand_expect = candidates.filter_coords(|i| iv.contains(tv_f64.get_f64(i as usize)));
    assert_eq!(kernels::filter_selection(&tv_f64, &iv, &candidates), cand_expect);
    let cand_scalar =
        best_ns(|| candidates.filter_coords(|i| iv.contains(tv_f64.get_f64(i as usize))));
    let cand_kernel = best_ns(|| kernels::filter_selection(&tv_f64, &iv, &candidates));

    // WAH ingestion: per-bit append vs 64-bit mask blocks (sparse bits,
    // the shape bitmap binning produces).
    let bools: Vec<bool> = (0..n).map(|i| i % 97 == 0).collect();
    let blocks: Vec<u64> = bools
        .chunks(64)
        .map(|ch| ch.iter().enumerate().fold(0u64, |m, (j, &b)| m | ((b as u64) << j)))
        .collect();
    assert_eq!(WahBitVector::from_mask_blocks(n as u64, &blocks), WahBitVector::from_bools(&bools));
    let wah_scalar = best_ns(|| WahBitVector::from_bools(&bools));
    let wah_kernel = best_ns(|| WahBitVector::from_mask_blocks(n as u64, &blocks));

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"kernel_scans\",");
    let _ = writeln!(json, "  \"elements\": {n},");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(json, "  \"timing\": \"best-of-reps wall clock, ns\",");
    json.push_str("  \"scan\": {\n");
    let body: Vec<String> = rows.iter().map(|r| r.json(n)).collect();
    json.push_str(&body.join(",\n"));
    json.push_str("\n  },\n");
    let _ = writeln!(
        json,
        "  \"candidate_filter\": {{\n    \"scalar_ns\": {cand_scalar},\n    \
         \"kernel_ns\": {cand_kernel},\n    \"kernel_speedup\": {:.2}\n  }},",
        cand_scalar as f64 / cand_kernel as f64
    );
    let _ = writeln!(
        json,
        "  \"wah_mask_ingest\": {{\n    \"per_bit_ns\": {wah_scalar},\n    \
         \"mask_block_ns\": {wah_kernel},\n    \"speedup\": {:.2}\n  }}",
        wah_scalar as f64 / wah_kernel as f64
    );
    json.push_str("}\n");

    print!("{json}");
    std::fs::write(&out_path, &json).expect("write json");
    eprintln!("wrote {out_path}");

    let double = &rows[0];
    let speedup = double.scalar_ns as f64 / double.kernel_ns as f64;
    assert!(
        n < DEFAULT_N || speedup >= 3.0,
        "double scan kernel speedup {speedup:.2} < 3x at {n} elements"
    );
}
