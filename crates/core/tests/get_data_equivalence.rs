//! `PDCquery_get_data` returns exactly the naive coordinate-order gather
//! — the queried object's values at the selection's coordinates, in
//! ascending coordinate order — for every strategy, resident and under a
//! spill budget, on a `float`, a `double` and an `int` object, and for a
//! narrow, a wide, a conjunctive, a disjunctive, an empty and an
//! all-matching query. The simulated charges of each call (`elapsed`,
//! `io`, `bytes_transferred`, `servers_involved`) are pinned to a table;
//! concatenating `get_data_batch` reproduces `get_data`; and after an
//! append plus deferred maintenance, `get_data` still serves the extent
//! the query planned against.
//!
//! A change that moves a charge on purpose re-records the table: the
//! failure message prints the new one in the table's own syntax.

use pdc_odms::{ImportOptions, Odms};
use pdc_query::{EngineConfig, GetDataOutcome, PdcQuery, QueryEngine, QueryOutcome, Strategy};
use pdc_types::{ObjectId, PdcType, PdcValue, QueryOp, Selection, TypedVec};
use std::path::PathBuf;
use std::sync::Arc;

const N: usize = 24_000;

/// Memory budget of the spill mode: far below the two objects, above any
/// single region.
const BUDGET: u64 = 64 * 1024;

/// Batch sizes 1 and 7 walk the selection once per batch; above this
/// many hits they would dominate the suite's run time, so only the
/// one-batch split runs.
const SMALL_BATCH_MAX_HITS: u64 = 1_500;

fn energy_at(i: usize) -> f64 {
    if (3000..3400).contains(&(i % 8000)) {
        2.0 + ((i * 31) % 160) as f64 / 100.0
    } else {
        ((i as f64 * 0.37).sin() + 1.0) * 0.9
    }
}

fn x_at(i: usize) -> f32 {
    ((i as f32 * 0.011).cos() + 1.0) * 166.0
}

/// Integers hold the energy in hundredths.
fn scale(ty: PdcType) -> f64 {
    if ty == PdcType::Int32 {
        100.0
    } else {
        1.0
    }
}

fn values(ty: PdcType, range: std::ops::Range<usize>) -> TypedVec {
    match ty {
        PdcType::Float => TypedVec::Float(range.map(|i| energy_at(i) as f32).collect()),
        PdcType::Double => TypedVec::Double(range.map(energy_at).collect()),
        PdcType::Int32 => {
            TypedVec::Int32(range.map(|i| (energy_at(i) * 100.0).round() as i32).collect())
        }
        other => unreachable!("no world of type {other:?}"),
    }
}

/// `v` (in energy units) as a literal of the object's type.
fn lit(ty: PdcType, v: f64) -> PdcValue {
    match ty {
        PdcType::Float => PdcValue::Float(v as f32),
        PdcType::Double => PdcValue::Double(v),
        PdcType::Int32 => PdcValue::Int32((v * scale(ty)).round() as i32),
        other => unreachable!("no world of type {other:?}"),
    }
}

struct World {
    odms: Arc<Odms>,
    ty: PdcType,
    v: ObjectId,
    x: ObjectId,
    raw: TypedVec,
}

/// Elements per region of both objects (a conjunction needs one grid).
const REGION_ELEMS: u64 = 2048;

/// The queried object `v` of type `ty` and a `float` object `x`, both
/// with a bitmap index and a sorted replica.
fn build_world(ty: PdcType, n: usize) -> World {
    let odms = Arc::new(Odms::new(8));
    let c = odms.create_container("vpic");
    let opts = |ty: PdcType| ImportOptions {
        region_bytes: REGION_ELEMS * ty.size_bytes(),
        build_index: true,
        build_sorted: true,
        ..Default::default()
    };
    let raw = values(ty, 0..n);
    let v = odms.import_array(c, "v", raw.clone(), &opts(ty)).unwrap().object;
    let x = TypedVec::Float((0..n).map(x_at).collect());
    let x = odms.import_array(c, "x", x, &opts(PdcType::Float)).unwrap().object;
    World { odms, ty, v, x, raw }
}

const QUERIES: [&str; 6] = ["narrow", "wide", "conj", "or", "empty", "all"];

fn query(w: &World, name: &str) -> PdcQuery {
    let c = |op, v| PdcQuery::create(w.v, op, lit(w.ty, v));
    match name {
        "narrow" => c(QueryOp::Gt, 2.1).and(c(QueryOp::Lt, 2.2)),
        "wide" => c(QueryOp::Gt, 0.4).and(c(QueryOp::Lt, 1.4)),
        "conj" => c(QueryOp::Gt, 2.0)
            .and(PdcQuery::create(w.x, QueryOp::Gt, 100.0f32))
            .and(PdcQuery::create(w.x, QueryOp::Lt, 200.0f32)),
        "or" => c(QueryOp::Lt, 0.1).or(c(QueryOp::Gt, 3.0)),
        "empty" => c(QueryOp::Gt, 10.0),
        "all" => c(QueryOp::Gt, -1.0),
        other => unreachable!("no query {other}"),
    }
}

/// The naive gather: the raw values at the selection's coordinates.
fn naive_gather(raw: &TypedVec, sel: &Selection) -> TypedVec {
    let mut out = TypedVec::empty(raw.pdc_type());
    for c in sel.iter_coords() {
        out.push_from(raw, c as usize).unwrap();
    }
    out
}

fn spill_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pdc_getdata_{tag}_{}", std::process::id()))
}

fn engine(w: &World, strategy: Strategy, spill: Option<&PathBuf>) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(&w.odms),
        EngineConfig {
            strategy,
            num_servers: 4,
            memory_budget: spill.map(|_| BUDGET),
            spill_dir: spill.cloned(),
            ..Default::default()
        },
    )
}

/// The pinned charges of one call.
fn charges(g: &GetDataOutcome) -> [u64; 10] {
    let io = g.io;
    [
        g.elapsed.as_nanos(),
        io.pfs_bytes_read,
        io.pfs_read_requests,
        io.cache_bytes_read,
        io.cache_hits,
        io.cache_misses,
        io.bytes_written,
        io.write_requests,
        g.bytes_transferred,
        u64::from(g.servers_involved),
    ]
}

fn concat(parts: &[GetDataOutcome], ty: PdcType) -> TypedVec {
    let mut out = TypedVec::empty(ty);
    for p in parts {
        out.extend_from_range(&p.data, 0..p.data.len()).unwrap();
    }
    out
}

fn check_batches(eng: &QueryEngine, w: &World, out: &QueryOutcome, whole: &TypedVec, ctx: &str) {
    let mut sizes = vec![out.nhits.max(1)];
    if out.nhits <= SMALL_BATCH_MAX_HITS {
        sizes.extend([1, 7]);
    }
    for size in sizes {
        let parts = eng.get_data_batch(out, w.v, size).unwrap();
        assert_eq!(parts.len() as u64, out.nhits.div_ceil(size), "{ctx}: batches of {size}");
        assert_eq!(&concat(&parts, w.ty), whole, "{ctx}: batches of {size}");
    }
}

/// Every (type, mode, strategy, query) combination: check the data and
/// batch splits, and return the charges keyed like the table.
fn record() -> Vec<(String, [u64; 10])> {
    let mut got = Vec::new();
    for ty in [PdcType::Float, PdcType::Double, PdcType::Int32] {
        for spilled in [false, true] {
            let mode = if spilled { "spill" } else { "resident" };
            for strategy in Strategy::ALL {
                let w = build_world(ty, N);
                let dir = spilled.then(|| spill_dir(&format!("{ty:?}_{strategy}")));
                let eng = engine(&w, strategy, dir.as_ref());
                for name in QUERIES {
                    let ctx = format!("{ty:?} {mode} {strategy} {name}");
                    let out = eng.run(&query(&w, name)).unwrap();
                    let g = eng.get_data(&out, w.v).unwrap();
                    assert_eq!(g.data.len() as u64, out.nhits, "{ctx}: length");
                    assert_eq!(g.data, naive_gather(&w.raw, &out.selection), "{ctx}: data");
                    got.push((ctx.clone(), charges(&g)));
                    check_batches(&eng, &w, &out, &g.data, &ctx);
                }
                if spilled {
                    let stats = w.odms.store().spill_stats().expect("spill configured");
                    assert!(stats.demotions > 0, "{ty:?} {strategy}: nothing was demoted");
                }
                drop(eng);
                if let Some(dir) = dir {
                    let _ = std::fs::remove_dir_all(dir);
                }
            }
        }
    }
    got
}

/// Recorded from the build before `get_data` dropped its coordinate
/// sort; the columns are `charges`' fields in order.
#[rustfmt::skip]
const EXPECTED: &[(&str, [u64; 10])] = &[
    ("Float resident PDC-F narrow", [32499, 0, 0, 24576, 3, 0, 0, 0, 756, 1]),
    ("Float resident PDC-F wide", [48685, 0, 0, 96000, 12, 0, 0, 0, 102624, 4]),
    ("Float resident PDC-F conj", [33961, 0, 0, 24576, 3, 0, 0, 0, 3192, 1]),
    ("Float resident PDC-F or", [40470, 0, 0, 96000, 12, 0, 0, 0, 46692, 4]),
    ("Float resident PDC-F empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Float resident PDC-F all", [76282, 0, 0, 96000, 12, 0, 0, 0, 288000, 4]),
    ("Float resident PDC-H narrow", [32499, 0, 0, 24576, 3, 0, 0, 0, 756, 1]),
    ("Float resident PDC-H wide", [48685, 0, 0, 96000, 12, 0, 0, 0, 102624, 4]),
    ("Float resident PDC-H conj", [33961, 0, 0, 24576, 3, 0, 0, 0, 3192, 1]),
    ("Float resident PDC-H or", [40470, 0, 0, 96000, 12, 0, 0, 0, 46692, 4]),
    ("Float resident PDC-H empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Float resident PDC-H all", [76282, 0, 0, 96000, 12, 0, 0, 0, 288000, 4]),
    ("Float resident PDC-HI narrow", [2440692, 24576, 3, 0, 0, 3, 0, 0, 756, 1]),
    ("Float resident PDC-HI wide", [48685, 0, 0, 96000, 12, 0, 0, 0, 102624, 4]),
    ("Float resident PDC-HI conj", [33961, 0, 0, 24576, 3, 0, 0, 0, 3192, 1]),
    ("Float resident PDC-HI or", [40470, 0, 0, 96000, 12, 0, 0, 0, 46692, 4]),
    ("Float resident PDC-HI empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Float resident PDC-HI all", [76282, 0, 0, 96000, 12, 0, 0, 0, 288000, 4]),
    ("Float resident PDC-SH narrow", [31925, 0, 0, 17664, 1, 0, 0, 0, 756, 1]),
    ("Float resident PDC-SH wide", [51433, 0, 0, 122880, 5, 0, 0, 0, 102624, 4]),
    ("Float resident PDC-SH conj", [33387, 0, 0, 17664, 1, 0, 0, 0, 3192, 1]),
    ("Float resident PDC-SH or", [2448663, 96000, 12, 0, 0, 12, 0, 0, 46692, 4]),
    ("Float resident PDC-SH empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Float resident PDC-SH all", [80380, 0, 0, 288000, 12, 0, 0, 0, 288000, 4]),
    ("Float resident PDC-A narrow", [31925, 0, 0, 17664, 1, 0, 0, 0, 756, 1]),
    ("Float resident PDC-A wide", [51433, 0, 0, 122880, 5, 0, 0, 0, 102624, 4]),
    ("Float resident PDC-A conj", [33387, 0, 0, 17664, 1, 0, 0, 0, 3192, 1]),
    ("Float resident PDC-A or", [2448663, 96000, 12, 0, 0, 12, 0, 0, 46692, 4]),
    ("Float resident PDC-A empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Float resident PDC-A all", [2484475, 96000, 12, 0, 0, 12, 0, 0, 288000, 4]),
    ("Float spill PDC-F narrow", [32499, 0, 0, 24576, 3, 0, 0, 0, 756, 1]),
    ("Float spill PDC-F wide", [48685, 0, 0, 96000, 12, 0, 0, 0, 102624, 4]),
    ("Float spill PDC-F conj", [33961, 0, 0, 24576, 3, 0, 0, 0, 3192, 1]),
    ("Float spill PDC-F or", [40470, 0, 0, 96000, 12, 0, 0, 0, 46692, 4]),
    ("Float spill PDC-F empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Float spill PDC-F all", [76282, 0, 0, 96000, 12, 0, 0, 0, 288000, 4]),
    ("Float spill PDC-H narrow", [32499, 0, 0, 24576, 3, 0, 0, 0, 756, 1]),
    ("Float spill PDC-H wide", [48685, 0, 0, 96000, 12, 0, 0, 0, 102624, 4]),
    ("Float spill PDC-H conj", [33961, 0, 0, 24576, 3, 0, 0, 0, 3192, 1]),
    ("Float spill PDC-H or", [40470, 0, 0, 96000, 12, 0, 0, 0, 46692, 4]),
    ("Float spill PDC-H empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Float spill PDC-H all", [76282, 0, 0, 96000, 12, 0, 0, 0, 288000, 4]),
    ("Float spill PDC-HI narrow", [2440692, 24576, 3, 0, 0, 3, 0, 0, 756, 1]),
    ("Float spill PDC-HI wide", [48685, 0, 0, 96000, 12, 0, 0, 0, 102624, 4]),
    ("Float spill PDC-HI conj", [33961, 0, 0, 24576, 3, 0, 0, 0, 3192, 1]),
    ("Float spill PDC-HI or", [40470, 0, 0, 96000, 12, 0, 0, 0, 46692, 4]),
    ("Float spill PDC-HI empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Float spill PDC-HI all", [76282, 0, 0, 96000, 12, 0, 0, 0, 288000, 4]),
    ("Float spill PDC-SH narrow", [31925, 0, 0, 17664, 1, 0, 0, 0, 756, 1]),
    ("Float spill PDC-SH wide", [51433, 0, 0, 122880, 5, 0, 0, 0, 102624, 4]),
    ("Float spill PDC-SH conj", [33387, 0, 0, 17664, 1, 0, 0, 0, 3192, 1]),
    ("Float spill PDC-SH or", [2448663, 96000, 12, 0, 0, 12, 0, 0, 46692, 4]),
    ("Float spill PDC-SH empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Float spill PDC-SH all", [80380, 0, 0, 288000, 12, 0, 0, 0, 288000, 4]),
    ("Float spill PDC-A narrow", [31925, 0, 0, 17664, 1, 0, 0, 0, 756, 1]),
    ("Float spill PDC-A wide", [51433, 0, 0, 122880, 5, 0, 0, 0, 102624, 4]),
    ("Float spill PDC-A conj", [33387, 0, 0, 17664, 1, 0, 0, 0, 3192, 1]),
    ("Float spill PDC-A or", [2448663, 96000, 12, 0, 0, 12, 0, 0, 46692, 4]),
    ("Float spill PDC-A empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Float spill PDC-A all", [2484475, 96000, 12, 0, 0, 12, 0, 0, 288000, 4]),
    ("Double resident PDC-F narrow", [34573, 0, 0, 49152, 3, 0, 0, 0, 1008, 1]),
    ("Double resident PDC-F wide", [51658, 0, 0, 192000, 12, 0, 0, 0, 136832, 4]),
    ("Double resident PDC-F conj", [36116, 0, 0, 49152, 3, 0, 0, 0, 4256, 1]),
    ("Double resident PDC-F or", [42987, 0, 0, 192000, 12, 0, 0, 0, 62256, 4]),
    ("Double resident PDC-F empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Double resident PDC-F all", [80789, 0, 0, 192000, 12, 0, 0, 0, 384000, 4]),
    ("Double resident PDC-H narrow", [34573, 0, 0, 49152, 3, 0, 0, 0, 1008, 1]),
    ("Double resident PDC-H wide", [51658, 0, 0, 192000, 12, 0, 0, 0, 136832, 4]),
    ("Double resident PDC-H conj", [36116, 0, 0, 49152, 3, 0, 0, 0, 4256, 1]),
    ("Double resident PDC-H or", [42987, 0, 0, 192000, 12, 0, 0, 0, 62256, 4]),
    ("Double resident PDC-H empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Double resident PDC-H all", [80789, 0, 0, 192000, 12, 0, 0, 0, 384000, 4]),
    ("Double resident PDC-HI narrow", [34573, 0, 0, 49152, 3, 0, 0, 0, 1008, 1]),
    ("Double resident PDC-HI wide", [2468041, 142848, 9, 49152, 3, 9, 0, 0, 136832, 4]),
    ("Double resident PDC-HI conj", [36116, 0, 0, 49152, 3, 0, 0, 0, 4256, 1]),
    ("Double resident PDC-HI or", [2457546, 142848, 9, 49152, 3, 9, 0, 0, 62256, 4]),
    ("Double resident PDC-HI empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Double resident PDC-HI all", [2497172, 142848, 9, 49152, 3, 9, 0, 0, 384000, 4]),
    ("Double resident PDC-SH narrow", [32440, 0, 0, 23552, 1, 0, 0, 0, 1008, 1]),
    ("Double resident PDC-SH wide", [53760, 0, 0, 163840, 5, 0, 0, 0, 136832, 4]),
    ("Double resident PDC-SH conj", [33983, 0, 0, 23552, 1, 0, 0, 0, 4256, 1]),
    ("Double resident PDC-SH or", [2459370, 192000, 12, 0, 0, 12, 0, 0, 62256, 4]),
    ("Double resident PDC-SH empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Double resident PDC-SH all", [84884, 0, 0, 384000, 12, 0, 0, 0, 384000, 4]),
    ("Double resident PDC-A narrow", [32440, 0, 0, 23552, 1, 0, 0, 0, 1008, 1]),
    ("Double resident PDC-A wide", [53760, 0, 0, 163840, 5, 0, 0, 0, 136832, 4]),
    ("Double resident PDC-A conj", [33983, 0, 0, 23552, 1, 0, 0, 0, 4256, 1]),
    ("Double resident PDC-A or", [2459370, 192000, 12, 0, 0, 12, 0, 0, 62256, 4]),
    ("Double resident PDC-A empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Double resident PDC-A all", [2497172, 192000, 12, 0, 0, 12, 0, 0, 384000, 4]),
    ("Double spill PDC-F narrow", [34573, 0, 0, 49152, 3, 0, 0, 0, 1008, 1]),
    ("Double spill PDC-F wide", [51658, 0, 0, 192000, 12, 0, 0, 0, 136832, 4]),
    ("Double spill PDC-F conj", [36116, 0, 0, 49152, 3, 0, 0, 0, 4256, 1]),
    ("Double spill PDC-F or", [42987, 0, 0, 192000, 12, 0, 0, 0, 62256, 4]),
    ("Double spill PDC-F empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Double spill PDC-F all", [80789, 0, 0, 192000, 12, 0, 0, 0, 384000, 4]),
    ("Double spill PDC-H narrow", [34573, 0, 0, 49152, 3, 0, 0, 0, 1008, 1]),
    ("Double spill PDC-H wide", [51658, 0, 0, 192000, 12, 0, 0, 0, 136832, 4]),
    ("Double spill PDC-H conj", [36116, 0, 0, 49152, 3, 0, 0, 0, 4256, 1]),
    ("Double spill PDC-H or", [42987, 0, 0, 192000, 12, 0, 0, 0, 62256, 4]),
    ("Double spill PDC-H empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Double spill PDC-H all", [80789, 0, 0, 192000, 12, 0, 0, 0, 384000, 4]),
    ("Double spill PDC-HI narrow", [34573, 0, 0, 49152, 3, 0, 0, 0, 1008, 1]),
    ("Double spill PDC-HI wide", [2468041, 142848, 9, 49152, 3, 9, 0, 0, 136832, 4]),
    ("Double spill PDC-HI conj", [36116, 0, 0, 49152, 3, 0, 0, 0, 4256, 1]),
    ("Double spill PDC-HI or", [2457546, 142848, 9, 49152, 3, 9, 0, 0, 62256, 4]),
    ("Double spill PDC-HI empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Double spill PDC-HI all", [2497172, 142848, 9, 49152, 3, 9, 0, 0, 384000, 4]),
    ("Double spill PDC-SH narrow", [32440, 0, 0, 23552, 1, 0, 0, 0, 1008, 1]),
    ("Double spill PDC-SH wide", [53760, 0, 0, 163840, 5, 0, 0, 0, 136832, 4]),
    ("Double spill PDC-SH conj", [33983, 0, 0, 23552, 1, 0, 0, 0, 4256, 1]),
    ("Double spill PDC-SH or", [2459370, 192000, 12, 0, 0, 12, 0, 0, 62256, 4]),
    ("Double spill PDC-SH empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Double spill PDC-SH all", [84884, 0, 0, 384000, 12, 0, 0, 0, 384000, 4]),
    ("Double spill PDC-A narrow", [32440, 0, 0, 23552, 1, 0, 0, 0, 1008, 1]),
    ("Double spill PDC-A wide", [53760, 0, 0, 163840, 5, 0, 0, 0, 136832, 4]),
    ("Double spill PDC-A conj", [33983, 0, 0, 23552, 1, 0, 0, 0, 4256, 1]),
    ("Double spill PDC-A or", [2459370, 192000, 12, 0, 0, 12, 0, 0, 62256, 4]),
    ("Double spill PDC-A empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Double spill PDC-A all", [2497172, 192000, 12, 0, 0, 12, 0, 0, 384000, 4]),
    ("Int32 resident PDC-F narrow", [32499, 0, 0, 24576, 3, 0, 0, 0, 756, 1]),
    ("Int32 resident PDC-F wide", [48483, 0, 0, 96000, 12, 0, 0, 0, 101424, 4]),
    ("Int32 resident PDC-F conj", [33961, 0, 0, 24576, 3, 0, 0, 0, 3192, 1]),
    ("Int32 resident PDC-F or", [40333, 0, 0, 96000, 12, 0, 0, 0, 45624, 4]),
    ("Int32 resident PDC-F empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Int32 resident PDC-F all", [76282, 0, 0, 96000, 12, 0, 0, 0, 288000, 4]),
    ("Int32 resident PDC-H narrow", [32499, 0, 0, 24576, 3, 0, 0, 0, 756, 1]),
    ("Int32 resident PDC-H wide", [48483, 0, 0, 96000, 12, 0, 0, 0, 101424, 4]),
    ("Int32 resident PDC-H conj", [33961, 0, 0, 24576, 3, 0, 0, 0, 3192, 1]),
    ("Int32 resident PDC-H or", [40333, 0, 0, 96000, 12, 0, 0, 0, 45624, 4]),
    ("Int32 resident PDC-H empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Int32 resident PDC-H all", [76282, 0, 0, 96000, 12, 0, 0, 0, 288000, 4]),
    ("Int32 resident PDC-HI narrow", [32499, 0, 0, 24576, 3, 0, 0, 0, 756, 1]),
    ("Int32 resident PDC-HI wide", [48483, 0, 0, 96000, 12, 0, 0, 0, 101424, 4]),
    ("Int32 resident PDC-HI conj", [33961, 0, 0, 24576, 3, 0, 0, 0, 3192, 1]),
    ("Int32 resident PDC-HI or", [40333, 0, 0, 96000, 12, 0, 0, 0, 45624, 4]),
    ("Int32 resident PDC-HI empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Int32 resident PDC-HI all", [76282, 0, 0, 96000, 12, 0, 0, 0, 288000, 4]),
    ("Int32 resident PDC-SH narrow", [31925, 0, 0, 17664, 1, 0, 0, 0, 756, 1]),
    ("Int32 resident PDC-SH wide", [50713, 0, 0, 122880, 5, 0, 0, 0, 101424, 4]),
    ("Int32 resident PDC-SH conj", [33387, 0, 0, 17664, 1, 0, 0, 0, 3192, 1]),
    ("Int32 resident PDC-SH or", [2448526, 96000, 12, 0, 0, 12, 0, 0, 45624, 4]),
    ("Int32 resident PDC-SH empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Int32 resident PDC-SH all", [80380, 0, 0, 288000, 12, 0, 0, 0, 288000, 4]),
    ("Int32 resident PDC-A narrow", [31925, 0, 0, 17664, 1, 0, 0, 0, 756, 1]),
    ("Int32 resident PDC-A wide", [50713, 0, 0, 122880, 5, 0, 0, 0, 101424, 4]),
    ("Int32 resident PDC-A conj", [33387, 0, 0, 17664, 1, 0, 0, 0, 3192, 1]),
    ("Int32 resident PDC-A or", [2448526, 96000, 12, 0, 0, 12, 0, 0, 45624, 4]),
    ("Int32 resident PDC-A empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Int32 resident PDC-A all", [2484475, 96000, 12, 0, 0, 12, 0, 0, 288000, 4]),
    ("Int32 spill PDC-F narrow", [32499, 0, 0, 24576, 3, 0, 0, 0, 756, 1]),
    ("Int32 spill PDC-F wide", [48483, 0, 0, 96000, 12, 0, 0, 0, 101424, 4]),
    ("Int32 spill PDC-F conj", [33961, 0, 0, 24576, 3, 0, 0, 0, 3192, 1]),
    ("Int32 spill PDC-F or", [40333, 0, 0, 96000, 12, 0, 0, 0, 45624, 4]),
    ("Int32 spill PDC-F empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Int32 spill PDC-F all", [76282, 0, 0, 96000, 12, 0, 0, 0, 288000, 4]),
    ("Int32 spill PDC-H narrow", [32499, 0, 0, 24576, 3, 0, 0, 0, 756, 1]),
    ("Int32 spill PDC-H wide", [48483, 0, 0, 96000, 12, 0, 0, 0, 101424, 4]),
    ("Int32 spill PDC-H conj", [33961, 0, 0, 24576, 3, 0, 0, 0, 3192, 1]),
    ("Int32 spill PDC-H or", [40333, 0, 0, 96000, 12, 0, 0, 0, 45624, 4]),
    ("Int32 spill PDC-H empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Int32 spill PDC-H all", [76282, 0, 0, 96000, 12, 0, 0, 0, 288000, 4]),
    ("Int32 spill PDC-HI narrow", [32499, 0, 0, 24576, 3, 0, 0, 0, 756, 1]),
    ("Int32 spill PDC-HI wide", [48483, 0, 0, 96000, 12, 0, 0, 0, 101424, 4]),
    ("Int32 spill PDC-HI conj", [33961, 0, 0, 24576, 3, 0, 0, 0, 3192, 1]),
    ("Int32 spill PDC-HI or", [40333, 0, 0, 96000, 12, 0, 0, 0, 45624, 4]),
    ("Int32 spill PDC-HI empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Int32 spill PDC-HI all", [76282, 0, 0, 96000, 12, 0, 0, 0, 288000, 4]),
    ("Int32 spill PDC-SH narrow", [31925, 0, 0, 17664, 1, 0, 0, 0, 756, 1]),
    ("Int32 spill PDC-SH wide", [50713, 0, 0, 122880, 5, 0, 0, 0, 101424, 4]),
    ("Int32 spill PDC-SH conj", [33387, 0, 0, 17664, 1, 0, 0, 0, 3192, 1]),
    ("Int32 spill PDC-SH or", [2448526, 96000, 12, 0, 0, 12, 0, 0, 45624, 4]),
    ("Int32 spill PDC-SH empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Int32 spill PDC-SH all", [80380, 0, 0, 288000, 12, 0, 0, 0, 288000, 4]),
    ("Int32 spill PDC-A narrow", [31925, 0, 0, 17664, 1, 0, 0, 0, 756, 1]),
    ("Int32 spill PDC-A wide", [50713, 0, 0, 122880, 5, 0, 0, 0, 101424, 4]),
    ("Int32 spill PDC-A conj", [33387, 0, 0, 17664, 1, 0, 0, 0, 3192, 1]),
    ("Int32 spill PDC-A or", [2448526, 96000, 12, 0, 0, 12, 0, 0, 45624, 4]),
    ("Int32 spill PDC-A empty", [30000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("Int32 spill PDC-A all", [2484475, 96000, 12, 0, 0, 12, 0, 0, 288000, 4]),
];

#[test]
fn get_data_equals_naive_gather_with_pinned_charges() {
    let got = record();
    let expected: Vec<(String, [u64; 10])> =
        EXPECTED.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    if got != expected {
        let table: String = got.iter().map(|(k, v)| format!("    (\"{k}\", {v:?}),\n")).collect();
        panic!("get_data charges moved; the recorded table is now:\n{table}");
    }
}

/// A query answered from the sorted replica keeps the replica it planned
/// against: an append plus deferred maintenance rebuilds the live replica
/// (whose slots no longer line up with the query's band), yet `get_data`
/// still returns every hit of the planned extent.
#[test]
fn get_data_after_append_and_maintenance_serves_the_planned_extent() {
    let w = build_world(PdcType::Float, 20_000);
    let q = query(&w, "narrow");
    let runs: Vec<(QueryEngine, QueryOutcome)> = Strategy::ALL
        .into_iter()
        .map(|s| {
            let eng = engine(&w, s, None);
            let out = eng.run(&q).unwrap();
            (eng, out)
        })
        .collect();
    let expect = naive_gather(&w.raw, &runs[0].1.selection);
    assert!(!expect.is_empty(), "the query must have hits");
    w.odms.append_array(w.v, &values(PdcType::Float, 20_000..22_000)).unwrap();
    w.odms.run_deferred_maintenance().unwrap();
    for (eng, out) in &runs {
        assert_eq!(eng.get_data(out, w.v).unwrap().data, expect, "{}", eng.strategy());
    }
}
