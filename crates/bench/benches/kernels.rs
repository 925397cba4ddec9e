//! Criterion micro-benchmarks of the kernels behind each strategy:
//! histogram construction and merging, WAH bitmap operations, index
//! build/query, sorted-replica build/lookup, raw scan throughput, and an
//! end-to-end small query per strategy (real wall-clock, complementing
//! the figure harness's simulated times).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pdc_bitmap::{BinnedBitmapIndex, BinningConfig, ValueDomain, WahBitVector};
use pdc_histogram::{merge_all, Histogram, HistogramConfig};
use pdc_odms::{ImportOptions, Odms};
use pdc_query::{EngineConfig, PdcQuery, QueryEngine, Strategy};
use pdc_sorted::SortedReplica;
use pdc_types::{kernels, Interval, Selection, TypedVec};
use pdc_workloads::{VpicConfig, VpicData};
use std::sync::Arc;

const N: usize = 1 << 18; // 256k elements per kernel input

/// Elements for the scan-kernel scalar-vs-kernel comparison
/// (`PDC_KERNEL_BENCH_N` overrides; the recorded baseline uses 4M).
fn kernel_n() -> usize {
    std::env::var("PDC_KERNEL_BENCH_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(N)
}

fn energy_values() -> Vec<f64> {
    let data = VpicData::generate(&VpicConfig { particles: N, seed: 42 });
    data.energy.iter().map(|&v| v as f64).collect()
}

fn bench_histogram(c: &mut Criterion) {
    let values = energy_values();
    let cfg = HistogramConfig::default();
    let mut g = c.benchmark_group("histogram");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("build_256k", |b| {
        b.iter(|| Histogram::build(black_box(&values), &cfg).unwrap())
    });
    let locals: Vec<Histogram> =
        values.chunks(N / 64).map(|ch| Histogram::build(ch, &cfg).unwrap()).collect();
    g.bench_function("merge_64_locals", |b| {
        b.iter(|| merge_all(black_box(&locals).iter()).unwrap())
    });
    let global = merge_all(locals.iter()).unwrap();
    let iv = Interval::open(2.1, 2.2);
    g.bench_function("estimate", |b| b.iter(|| global.estimate_hits(black_box(&iv))));
    g.finish();
}

fn bench_wah(c: &mut Criterion) {
    let values = energy_values();
    let tail: Selection = Selection::from_sorted_coords(
        values.iter().enumerate().filter(|(_, &v)| v > 2.0).map(|(i, _)| i as u64),
    );
    let bulk = Selection::from_sorted_coords(
        values.iter().enumerate().filter(|(_, &v)| v < 1.0).map(|(i, _)| i as u64),
    );
    let a = WahBitVector::from_selection(N as u64, &tail);
    let b_vec = WahBitVector::from_selection(N as u64, &bulk);
    let mut g = c.benchmark_group("wah");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("encode_tail", |b| {
        b.iter(|| WahBitVector::from_selection(N as u64, black_box(&tail)))
    });
    g.bench_function("and", |b| b.iter(|| black_box(&a).and(black_box(&b_vec))));
    g.bench_function("or", |b| b.iter(|| black_box(&a).or(black_box(&b_vec))));
    g.bench_function("count_ones", |b| b.iter(|| black_box(&a).count_ones()));
    g.bench_function("to_selection", |b| b.iter(|| black_box(&a).to_selection()));
    g.finish();
}

fn bench_index(c: &mut Criterion) {
    let values = energy_values();
    let cfg = BinningConfig::default();
    let mut g = c.benchmark_group("bitmap_index");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("build_256k", |b| {
        b.iter(|| {
            BinnedBitmapIndex::build_with_domain(black_box(&values), &cfg, ValueDomain::F32)
                .unwrap()
        })
    });
    let idx = BinnedBitmapIndex::build_with_domain(&values, &cfg, ValueDomain::F32).unwrap();
    let iv = Interval::open(2.1, 2.2);
    g.bench_function("range_query", |b| b.iter(|| idx.query(black_box(&iv))));
    let bytes = idx.to_bytes();
    g.bench_function("deserialize", |b| {
        b.iter(|| BinnedBitmapIndex::from_bytes(black_box(&bytes)).unwrap())
    });
    g.finish();
}

fn bench_sorted(c: &mut Criterion) {
    let values = energy_values();
    let mut g = c.benchmark_group("sorted_replica");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("build_256k", |b| {
        b.iter(|| SortedReplica::build(black_box(&values), 4096))
    });
    let replica = SortedReplica::build(&values, 4096);
    let iv = Interval::open(2.1, 2.2);
    g.bench_function("lookup", |b| b.iter(|| replica.lookup(black_box(&iv))));
    g.bench_function("matching_span", |b| b.iter(|| replica.matching_span(black_box(&iv))));
    g.finish();
}

fn bench_scan(c: &mut Criterion) {
    let values = energy_values();
    let iv = Interval::open(2.1, 2.2);
    let mut g = c.benchmark_group("scan");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("filter_count_256k", |b| {
        b.iter(|| values.iter().filter(|&&v| iv.contains(v)).count())
    });
    g.bench_function("selection_union", |b| {
        let odd = Selection::from_sorted_coords((0..N as u64).filter(|i| i % 3 == 0));
        let even = Selection::from_sorted_coords((0..N as u64).filter(|i| i % 2 == 0));
        b.iter(|| black_box(&odd).union(black_box(&even)))
    });
    g.finish();
}

/// The monomorphized mask kernels against the per-element `get_f64`
/// scalar reference they replaced, per payload type.
fn bench_kernel_scans(c: &mut Criterion) {
    let n = kernel_n();
    let iv = Interval::open(2.1, 2.2);
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
    let floats = TypedVec::Float(doubles.iter().map(|&v| v as f32).collect());
    let int_iv = Interval::closed(100.0, 119.0);
    let i64s = TypedVec::Int64(
        (0..n).map(|i| (i as i64).wrapping_mul(2654435761) % 1000).collect(),
    );
    let doubles = TypedVec::Double(doubles);

    let mut g = c.benchmark_group("kernel_scans");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("scalar_double", |b| {
        b.iter(|| kernels::scan_interval_scalar(black_box(&doubles), black_box(&iv), 0))
    });
    g.bench_function("kernel_double", |b| {
        b.iter(|| kernels::scan_interval(black_box(&doubles), black_box(&iv), 0))
    });
    g.bench_function("scalar_float", |b| {
        b.iter(|| kernels::scan_interval_scalar(black_box(&floats), black_box(&iv), 0))
    });
    g.bench_function("kernel_float", |b| {
        b.iter(|| kernels::scan_interval(black_box(&floats), black_box(&iv), 0))
    });
    g.bench_function("scalar_i64", |b| {
        b.iter(|| kernels::scan_interval_scalar(black_box(&i64s), black_box(&int_iv), 0))
    });
    g.bench_function("kernel_i64", |b| {
        b.iter(|| kernels::scan_interval(black_box(&i64s), black_box(&int_iv), 0))
    });

    // Candidate confirmation (the PDC-HI edge-bin path): per-coordinate
    // get_f64 closure vs the range-kernel filter.
    let candidates = Selection::from_runs(
        (0..n as u64 - 13).step_by(100).map(|s| pdc_types::Run::new(s, 13)).collect(),
    );
    g.bench_function("candidates_scalar", |b| {
        b.iter(|| {
            black_box(&candidates)
                .filter_coords(|i| iv.contains(doubles.get_f64(i as usize)))
        })
    });
    g.bench_function("candidates_kernel", |b| {
        b.iter(|| kernels::filter_selection(black_box(&doubles), black_box(&iv), &candidates))
    });
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let data = VpicData::generate(&VpicConfig { particles: N, seed: 42 });
    let odms = Arc::new(Odms::new(8));
    let container = odms.create_container("bench");
    let opts = ImportOptions {
        region_bytes: 16 << 10,
        build_index: true,
        build_sorted: true,
        ..Default::default()
    };
    let obj = odms
        .import_array(container, "energy", TypedVec::Float(data.energy.clone()), &opts)
        .unwrap()
        .object;
    let mut g = c.benchmark_group("query_wallclock");
    for strategy in [
        Strategy::FullScan,
        Strategy::Histogram,
        Strategy::HistogramIndex,
        Strategy::SortedHistogram,
    ] {
        let engine = QueryEngine::new(
            Arc::clone(&odms),
            EngineConfig { strategy, num_servers: 4, ..Default::default() },
        );
        let q = PdcQuery::range_open(obj, 2.1f32, 2.2f32);
        engine.run(&q).unwrap(); // warm
        g.bench_with_input(BenchmarkId::new("range_query", strategy.label()), &q, |b, q| {
            b.iter(|| engine.run(black_box(q)).unwrap())
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_histogram,
    bench_wah,
    bench_index,
    bench_sorted,
    bench_scan,
    bench_kernel_scans,
    bench_end_to_end
);
criterion_main!(benches);
