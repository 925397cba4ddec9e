//! Conjunctions whose primary the value-sorted band answers (PDC-SH, and
//! PDC-A when the band wins): the band's coordinates are point-checked
//! against the later constraints region by region, and `get_data` serves
//! the band object's values straight from the replica. For every shape
//! below, each band-primary conjunction must return PDC-F's selection
//! (itself the brute-force one), and its whole outcome — `elapsed`,
//! `per_server`, `io`, `work`, `breakdown`, `integrity` and the EXPLAIN
//! rows — must equal the table. `get_data` and `get_data_batch` (batches
//! of 1, 7 and all hits) must return the naive gather at pinned charges
//! (`elapsed`, `io`, `bytes_transferred`, `servers_involved`), also after a
//! server joins between the query and the gather.
//!
//! The shapes: resident 32 Ki-element regions and spilled 1 MiB regions
//! of four blocks each; an `f64` filter beside `f32` ones (a conjunction's
//! objects share one element grid, so the `f64` regions are twice the
//! bytes); a 1-D and an N-D `set_region`; a band nested under an OR and
//! under an AND; an empty answer; 20 % of the data regions corrupt (a
//! region's read is retried after its repair); and a killed server (on
//! the resident world). A filter object shorter than the band cannot
//! reach a server: a conjunction's objects must share one shape and one
//! element grid, and the planner refuses the query (`plan.rs`'s
//! `dimension_mismatch_rejected`).
//!
//! A change that moves a value on purpose re-records the table: the
//! failure message prints the new one in the table's own syntax.

use pdc_odms::{ImportOptions, Odms};
use pdc_query::{EngineConfig, GetDataOutcome, PdcQuery, QueryEngine, QueryOutcome, Strategy};
use pdc_server::{CorruptionSpec, FaultPlan};
use pdc_types::{NdRegion, ObjectId, QueryOp, Selection, Shape, TypedVec};
use std::path::PathBuf;
use std::sync::Arc;

/// Rows × columns of the resident world (six 32 Ki-element regions).
const ROWS: u64 = 384;
const COLS: u64 = 512;

/// Elements of the spilled world: two 1 MiB `f32` regions.
const SPILL_N: usize = 2 * 256 * 1024;
const SPILL_BUDGET: u64 = 3 << 20;

/// Batches of 1 and 7 cost one gather per batch; above this many hits
/// only the one-batch split runs.
const SMALL_BATCH_MAX_HITS: u64 = 2_500;

fn unit(i: usize, salt: u64) -> f64 {
    let mut z = (i as u64).wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

fn energy_at(i: usize) -> f32 {
    (3.0 * unit(i, 1)) as f32
}

/// Anti-correlated with the energy's upper 40 %: there `x` lies in
/// `[500, 1000)` but for a rare 3 % in `[0, 100)`, elsewhere in `[0, 500)`.
/// So a filter `x < 450` keeps more than half of the elements (the band
/// stays the conjunction's primary) but only the rare few of the band.
fn x_at(i: usize) -> f32 {
    let u = unit(i, 2);
    let v = match energy_at(i) > 1.8 {
        true if unit(i, 4) < 0.03 => 100.0 * u,
        true => 500.0 + 500.0 * u,
        false => 500.0 * u,
    };
    v as f32
}

fn y_at(i: usize) -> f64 {
    unit(i, 3)
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Resident,
    Spilled,
}

#[derive(Clone, Copy)]
enum Variant {
    Healthy,
    Corrupt,
    Killed,
}

impl Variant {
    fn label(self) -> &'static str {
        match self {
            Variant::Healthy => "healthy",
            Variant::Corrupt => "corrupt",
            Variant::Killed => "killed",
        }
    }

    fn fault_plan(self) -> Option<FaultPlan> {
        match self {
            Variant::Healthy => None,
            Variant::Corrupt => {
                Some(FaultPlan::new().with_corruption(CorruptionSpec::new(0.2, 0.0, 11)))
            }
            Variant::Killed => Some(FaultPlan::kill(&[1])),
        }
    }
}

struct World {
    kind: Kind,
    odms: Arc<Odms>,
    energy: ObjectId,
    x: ObjectId,
    y: ObjectId,
    n: usize,
    raw_energy: TypedVec,
}

/// `energy` (`f32`, sorted replica), `x` (`f32`) and `y` (`f64`) on one
/// element grid: 32 Ki-element regions in a 384 × 512 array, or 256
/// Ki-element (1 MiB) regions in a 1-D array.
fn build_world(kind: Kind) -> World {
    let (n, shape, region_elems) = match kind {
        Kind::Resident => ((ROWS * COLS) as usize, Shape(vec![ROWS, COLS]), 32 * 1024),
        Kind::Spilled => (SPILL_N, Shape::one_d(SPILL_N as u64), 256 * 1024),
    };
    let odms = Arc::new(Odms::new(8));
    let c = odms.create_container("band");
    let opts = |elem_bytes: u64, sorted: bool| ImportOptions {
        region_bytes: region_elems * elem_bytes,
        build_sorted: sorted,
        ..Default::default()
    };
    let import = |name: &str, data: TypedVec, sorted: bool| {
        let o = opts(data.pdc_type().size_bytes(), sorted);
        odms.import_array_nd(c, name, data, shape.clone(), &o).unwrap().object
    };
    let raw_energy = TypedVec::Float((0..n).map(energy_at).collect());
    let energy = import("energy", raw_energy.clone(), true);
    let x = import("x", TypedVec::Float((0..n).map(x_at).collect()), false);
    let y = import("y", TypedVec::Double((0..n).map(y_at).collect()), false);
    World { kind, odms, energy, x, y, n, raw_energy }
}

/// The queries of one world, with the brute-force predicate of each.
type Oracle = Box<dyn Fn(usize) -> bool>;

fn queries(w: &World) -> Vec<(&'static str, PdcQuery, Oracle)> {
    let e = |op, v: f32| PdcQuery::create(w.energy, op, v);
    let x = |op, v: f32| PdcQuery::create(w.x, op, v);
    let y = |op, v: f64| PdcQuery::create(w.y, op, v);
    let spilled = w.kind == Kind::Spilled;
    // The narrow band lies in one sorted region, the wide one in several.
    let narrow = if spilled { 2.99 } else { 2.9 };
    let mut out: Vec<(&'static str, PdcQuery, Oracle)> = vec![
        (
            "narrow",
            e(QueryOp::Gt, narrow).and(x(QueryOp::Lt, 450.0)).and(y(QueryOp::Gt, 0.5)),
            Box::new(move |i| energy_at(i) > narrow && x_at(i) < 450.0 && y_at(i) > 0.5),
        ),
        (
            "wide",
            e(QueryOp::Gt, 1.8).and(x(QueryOp::Lt, 450.0)).and(y(QueryOp::Lt, 0.7)),
            Box::new(|i| energy_at(i) > 1.8 && x_at(i) < 450.0 && y_at(i) < 0.7),
        ),
        (
            "empty",
            e(QueryOp::Gt, narrow).and(x(QueryOp::Gt, 200.0)).and(x(QueryOp::Lt, 480.0)),
            Box::new(|_| false),
        ),
        (
            "or",
            e(QueryOp::Gt, 2.95)
                .and(x(QueryOp::Lt, 450.0))
                .or(e(QueryOp::Gt, 2.985))
                .or(y(QueryOp::Lt, 0.0002)),
            Box::new(|i| {
                (energy_at(i) > 2.95 && x_at(i) < 450.0) || energy_at(i) > 2.985 || y_at(i) < 0.0002
            }),
        ),
        (
            "and_or",
            e(QueryOp::Gt, narrow).and(x(QueryOp::Lt, 100.0).or(y(QueryOp::Gt, 0.9))),
            Box::new(move |i| energy_at(i) > narrow && (x_at(i) < 100.0 || y_at(i) > 0.9)),
        ),
        (
            "region_1d",
            e(QueryOp::Gt, 1.8).and(x(QueryOp::Lt, 450.0)).set_region(NdRegion::one_d(40_000, 90_000)),
            Box::new(|i| (40_000..130_000).contains(&i) && energy_at(i) > 1.8 && x_at(i) < 450.0),
        ),
    ];
    if !spilled {
        out.push((
            "region_nd",
            e(QueryOp::Gt, 1.8)
                .and(x(QueryOp::Lt, 450.0))
                .set_region(NdRegion::new(vec![50, 100], vec![200, 300])),
            Box::new(|i| {
                let (r, c) = (i as u64 / COLS, i as u64 % COLS);
                (50..250).contains(&r)
                    && (100..400).contains(&c)
                    && energy_at(i) > 1.8
                    && x_at(i) < 450.0
            }),
        ));
    }
    out
}

fn spill_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pdc_bandconj_{tag}_{}", std::process::id()))
}

fn engine(w: &World, strategy: Strategy, variant: Variant, dir: Option<&PathBuf>) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(&w.odms),
        EngineConfig {
            strategy,
            num_servers: 4,
            fault_plan: variant.fault_plan(),
            memory_budget: dir.map(|_| SPILL_BUDGET),
            spill_dir: dir.cloned(),
            block_cache_bytes: 512 << 10,
            ..Default::default()
        },
    )
}

/// FNV-1a over a value's `Debug` image: one pinned number per group of
/// counters.
fn fnv<T: std::fmt::Debug>(v: &T) -> u64 {
    format!("{v:?}").bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn gather_charges(g: &GetDataOutcome) -> (u64, pdc_storage::IoCounters, u64, u32) {
    (g.elapsed.as_nanos(), g.io, g.bytes_transferred, g.servers_involved)
}

fn naive_gather(raw: &TypedVec, sel: &Selection) -> TypedVec {
    let mut out = TypedVec::empty(raw.pdc_type());
    for c in sel.iter_coords() {
        out.push_from(raw, c as usize).unwrap();
    }
    out
}

fn concat(parts: &[GetDataOutcome]) -> TypedVec {
    let mut out = TypedVec::empty(parts[0].data.pdc_type());
    for p in parts {
        out.extend_from_range(&p.data, 0..p.data.len()).unwrap();
    }
    out
}

/// One row: the query's elapsed time, hits, whether the band answered
/// the root, and fingerprints of the rest of the outcome, the EXPLAIN
/// rows, the gather, its batches and the gather after a join.
type Row = [u64; 8];

/// Run one band strategy on a fresh world; check every answer and return
/// the query's row.
fn check_case(
    kind: Kind,
    variant: Variant,
    strategy: Strategy,
    name: &str,
    expect: &Selection,
) -> Row {
    let w = build_world(kind);
    let ctx = format!("{} {} {strategy} {name}", kind_label(kind), variant.label());
    let dir = (kind == Kind::Spilled).then(|| spill_dir(&format!("{strategy}_{name}")));
    let eng = engine(&w, strategy, variant, dir.as_ref());
    let q = queries(&w).into_iter().find(|(n, _, _)| *n == name).unwrap().1;
    let (out, plan) = eng.explain(&q).unwrap();
    assert_eq!(&out.selection, expect, "{ctx}: selection");
    let rest = (
        &out.per_server,
        out.io,
        out.work,
        out.breakdown,
        out.integrity,
        &out.failed_servers,
        out.retry_rounds,
    );
    let row_head = [
        out.elapsed.as_nanos(),
        out.nhits,
        u64::from(out.sorted_hint.is_some()),
        fnv(&rest),
        fnv(&(plan.sorted_primary, &plan.regions)),
    ];
    let (whole, batches) = check_gather(&eng, &w, &out, &ctx);
    eng.join_server().unwrap();
    let joined = eng.get_data(&out, w.energy).unwrap();
    assert_eq!(joined.data, whole.data, "{ctx}: get_data after a join");
    if kind == Kind::Spilled {
        assert!(w.odms.store().spill_stats().expect("spill configured").demotions > 0, "{ctx}");
    }
    drop(eng);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let [a, b, c, d, e] = row_head;
    [a, b, c, d, e, fnv(&gather_charges(&whole)), batches, fnv(&gather_charges(&joined))]
}

/// `get_data` of the band object and its batch splits against the naive
/// gather; returns the whole gather and a fingerprint of every batch's
/// charges.
fn check_gather(
    eng: &QueryEngine,
    w: &World,
    out: &QueryOutcome,
    ctx: &str,
) -> (GetDataOutcome, u64) {
    let whole = eng.get_data(out, w.energy).unwrap();
    assert_eq!(whole.data, naive_gather(&w.raw_energy, &out.selection), "{ctx}: get_data");
    let mut sizes = vec![out.nhits.max(1)];
    if out.nhits <= SMALL_BATCH_MAX_HITS {
        sizes.extend([1, 7]);
    }
    let mut charges = Vec::new();
    for size in sizes {
        let parts = eng.get_data_batch(out, w.energy, size).unwrap();
        assert_eq!(parts.len() as u64, out.nhits.div_ceil(size), "{ctx}: batches of {size}");
        if !parts.is_empty() {
            assert_eq!(concat(&parts), whole.data, "{ctx}: batches of {size}");
        }
        charges.extend(parts.iter().map(gather_charges));
    }
    (whole, fnv(&charges))
}

fn kind_label(kind: Kind) -> &'static str {
    match kind {
        Kind::Resident => "resident",
        Kind::Spilled => "spilled",
    }
}

/// Every (world, variant, query, band strategy): PDC-F's selection must
/// be the brute-force one, and each band strategy's row is recorded.
fn record() -> Vec<(String, Row)> {
    let mut got = Vec::new();
    for kind in [Kind::Resident, Kind::Spilled] {
        let w = build_world(kind);
        let full = engine(&w, Strategy::FullScan, Variant::Healthy, None);
        let expected: Vec<(&str, Selection)> = queries(&w)
            .into_iter()
            .map(|(name, q, oracle)| {
                let sel = Selection::from_sorted_coords((0..w.n).filter(|&i| oracle(i)).map(|i| i as u64));
                assert_eq!(full.run(&q).unwrap().selection, sel, "{name}: PDC-F");
                (name, sel)
            })
            .collect();
        drop(full);
        // A kill needs no spilled world: the slots fail over alike.
        let variants: &[Variant] = match kind {
            Kind::Resident => &[Variant::Healthy, Variant::Corrupt, Variant::Killed],
            Kind::Spilled => &[Variant::Healthy, Variant::Corrupt],
        };
        for &variant in variants {
            for (name, sel) in &expected {
                for strategy in [Strategy::SortedHistogram, Strategy::Adaptive] {
                    let row = check_case(kind, variant, strategy, name, sel);
                    let ctx = format!("{} {} {strategy} {name}", kind_label(kind), variant.label());
                    got.push((ctx, row));
                }
            }
        }
    }
    got
}

/// Recorded from the build before band conjunctions kept their band
/// share as pairs; the columns are `Row`'s fields in order.
#[rustfmt::skip]
const EXPECTED: &[(&str, Row)] = &[
    ("resident healthy PDC-SH narrow", [12862871, 95, 1, 84445586962563431, 8896092173236630351, 923332083632524354, 1503471143300085678, 923332083632524354]),
    ("resident healthy PDC-A narrow", [12862871, 95, 1, 84445586962563431, 8896092173236630351, 923332083632524354, 1503471143300085678, 923332083632524354]),
    ("resident healthy PDC-SH wide", [12943712, 1597, 1, 15196497005769805891, 9325801419350936810, 2853624820498757433, 16871000360713373297, 2853624820498757433]),
    ("resident healthy PDC-A wide", [12943712, 1597, 1, 15196497005769805891, 9325801419350936810, 2853624820498757433, 16871000360713373297, 2853624820498757433]),
    ("resident healthy PDC-SH empty", [6999100, 0, 1, 11233733439322459231, 5081228749672950410, 6482743176899153064, 675868731199239589, 6482743176899153064]),
    ("resident healthy PDC-A empty", [6999100, 0, 1, 11233733439322459231, 5081228749672950410, 6482743176899153064, 675868731199239589, 6482743176899153064]),
    ("resident healthy PDC-SH or", [9334136, 1050, 0, 2444282241217505851, 20629151836155136, 10216398218911123843, 32970161200832875, 10216398218911123843]),
    ("resident healthy PDC-A or", [9334136, 1050, 0, 2444282241217505851, 20629151836155136, 10216398218911123843, 32970161200832875, 10216398218911123843]),
    ("resident healthy PDC-SH and_or", [12881113, 790, 0, 13549046963106197970, 10078915911123130979, 7069487115581086487, 8771171189194500993, 7069487115581086487]),
    ("resident healthy PDC-A and_or", [12881113, 790, 0, 13549046963106197970, 10078915911123130979, 7069487115581086487, 8771171189194500993, 7069487115581086487]),
    ("resident healthy PDC-SH region_1d", [7072690, 1039, 1, 3954330777128652201, 13825211639669269610, 16308864345423685098, 8680687093751002591, 16308864345423685098]),
    ("resident healthy PDC-A region_1d", [7072690, 1039, 1, 3954330777128652201, 13825211639669269610, 16308864345423685098, 8680687093751002591, 16308864345423685098]),
    ("resident healthy PDC-SH region_nd", [7065022, 662, 1, 4714481965476469686, 13825211639669269610, 17244042097054880235, 3344244456752935513, 17244042097054880235]),
    ("resident healthy PDC-A region_nd", [7065022, 662, 1, 4714481965476469686, 13825211639669269610, 17244042097054880235, 3344244456752935513, 17244042097054880235]),
    ("resident corrupt PDC-SH narrow", [18099775, 95, 1, 13569245875937479014, 8896092173236630351, 923332083632524354, 1503471143300085678, 923332083632524354]),
    ("resident corrupt PDC-A narrow", [18099775, 95, 1, 13569245875937479014, 8896092173236630351, 923332083632524354, 1503471143300085678, 923332083632524354]),
    ("resident corrupt PDC-SH wide", [18180616, 1597, 1, 14800278962719690042, 9325801419350936810, 2853624820498757433, 16871000360713373297, 2853624820498757433]),
    ("resident corrupt PDC-A wide", [18180616, 1597, 1, 14800278962719690042, 9325801419350936810, 2853624820498757433, 16871000360713373297, 2853624820498757433]),
    ("resident corrupt PDC-SH empty", [12236004, 0, 1, 1050225227591654862, 5081228749672950410, 6482743176899153064, 675868731199239589, 6482743176899153064]),
    ("resident corrupt PDC-A empty", [12236004, 0, 1, 1050225227591654862, 5081228749672950410, 6482743176899153064, 675868731199239589, 6482743176899153064]),
    ("resident corrupt PDC-SH or", [14571040, 1050, 0, 6883518239904474946, 20629151836155136, 10216398218911123843, 32970161200832875, 10216398218911123843]),
    ("resident corrupt PDC-A or", [14571040, 1050, 0, 6883518239904474946, 20629151836155136, 10216398218911123843, 32970161200832875, 10216398218911123843]),
    ("resident corrupt PDC-SH and_or", [18118017, 790, 0, 14282908939257483239, 10078915911123130979, 7069487115581086487, 8771171189194500993, 7069487115581086487]),
    ("resident corrupt PDC-A and_or", [18118017, 790, 0, 14282908939257483239, 10078915911123130979, 7069487115581086487, 8771171189194500993, 7069487115581086487]),
    ("resident corrupt PDC-SH region_1d", [12309594, 1039, 1, 11558948255146492108, 13825211639669269610, 16308864345423685098, 8680687093751002591, 16308864345423685098]),
    ("resident corrupt PDC-A region_1d", [12309594, 1039, 1, 11558948255146492108, 13825211639669269610, 16308864345423685098, 8680687093751002591, 16308864345423685098]),
    ("resident corrupt PDC-SH region_nd", [12301926, 662, 1, 17711816317672523219, 13825211639669269610, 17244042097054880235, 3344244456752935513, 17244042097054880235]),
    ("resident corrupt PDC-A region_nd", [12301926, 662, 1, 17711816317672523219, 13825211639669269610, 17244042097054880235, 3344244456752935513, 17244042097054880235]),
    ("resident killed PDC-SH narrow", [12862871, 95, 1, 84445586962563431, 8896092173236630351, 923332083632524354, 1503471143300085678, 923332083632524354]),
    ("resident killed PDC-A narrow", [12862871, 95, 1, 84445586962563431, 8896092173236630351, 923332083632524354, 1503471143300085678, 923332083632524354]),
    ("resident killed PDC-SH wide", [24595552, 1597, 1, 17693174271623883067, 9325801419350936810, 6210685937378081294, 7070468154789754199, 6210685937378081294]),
    ("resident killed PDC-A wide", [24595552, 1597, 1, 17693174271623883067, 9325801419350936810, 6210685937378081294, 7070468154789754199, 6210685937378081294]),
    ("resident killed PDC-SH empty", [6999100, 0, 1, 11233733439322459231, 5081228749672950410, 6482743176899153064, 675868731199239589, 6482743176899153064]),
    ("resident killed PDC-A empty", [6999100, 0, 1, 11233733439322459231, 5081228749672950410, 6482743176899153064, 675868731199239589, 6482743176899153064]),
    ("resident killed PDC-SH or", [11251025, 1050, 0, 5825209301692643697, 20629151836155136, 6223413304193037443, 12157348603524441515, 6223413304193037443]),
    ("resident killed PDC-A or", [11251025, 1050, 0, 5825209301692643697, 20629151836155136, 6223413304193037443, 12157348603524441515, 6223413304193037443]),
    ("resident killed PDC-SH and_or", [12881113, 790, 0, 13549046963106197970, 10078915911123130979, 2198419495090664600, 2372698923201446356, 5945875580327283454]),
    ("resident killed PDC-A and_or", [12881113, 790, 0, 13549046963106197970, 10078915911123130979, 2198419495090664600, 2372698923201446356, 5945875580327283454]),
    ("resident killed PDC-SH region_1d", [13264840, 1039, 1, 10784999717424627084, 13825211639669269610, 9379304236914060445, 1282146652851607092, 9379304236914060445]),
    ("resident killed PDC-A region_1d", [13264840, 1039, 1, 10784999717424627084, 13825211639669269610, 9379304236914060445, 1282146652851607092, 9379304236914060445]),
    ("resident killed PDC-SH region_nd", [13256944, 662, 1, 16097782501206007638, 13825211639669269610, 11157574610697983560, 16607173864202558761, 11157574610697983560]),
    ("resident killed PDC-A region_nd", [13256944, 662, 1, 16097782501206007638, 13825211639669269610, 11157574610697983560, 16607173864202558761, 11157574610697983560]),
    ("spilled healthy PDC-SH narrow", [8630538, 26, 1, 17804369757991625587, 10569536861652752237, 3726444648967548058, 19883281163876269, 3726444648967548058]),
    ("spilled healthy PDC-A narrow", [8630538, 26, 1, 17804369757991625587, 10569536861652752237, 3726444648967548058, 19883281163876269, 3726444648967548058]),
    ("spilled healthy PDC-SH wide", [9146050, 4462, 1, 6782088268954846718, 3730992642866373669, 2829264807990958989, 1900568677321741809, 2829264807990958989]),
    ("spilled healthy PDC-A wide", [9146050, 4462, 1, 6782088268954846718, 3730992642866373669, 2829264807990958989, 1900568677321741809, 2829264807990958989]),
    ("spilled healthy PDC-SH empty", [5080502, 0, 1, 7447639807624825207, 3171650069539552018, 13037077336805151263, 675868731199239589, 13037077336805151263]),
    ("spilled healthy PDC-A empty", [5080502, 0, 1, 7447639807624825207, 3171650069539552018, 13037077336805151263, 675868731199239589, 13037077336805151263]),
    ("spilled healthy PDC-SH or", [7557074, 2819, 0, 10978479947504086421, 12292876087868224309, 2361578166035930008, 18416214406352149604, 2361578166035930008]),
    ("spilled healthy PDC-A or", [7557074, 2819, 0, 10978479947504086421, 12292876087868224309, 2361578166035930008, 18416214406352149604, 2361578166035930008]),
    ("spilled healthy PDC-SH and_or", [8635320, 206, 0, 695503545377178585, 8762829268793555518, 9868137282098359328, 9835709113138808107, 9868137282098359328]),
    ("spilled healthy PDC-A and_or", [8635320, 206, 0, 695503545377178585, 8762829268793555518, 9868137282098359328, 9835709113138808107, 9868137282098359328]),
    ("spilled healthy PDC-SH region_1d", [5517985, 1039, 1, 12414889474703306486, 8082734906320670172, 7113837043533342105, 2859502909193656826, 7113837043533342105]),
    ("spilled healthy PDC-A region_1d", [5517985, 1039, 1, 12414889474703306486, 8082734906320670172, 7113837043533342105, 2859502909193656826, 7113837043533342105]),
    ("spilled corrupt PDC-SH narrow", [12778163, 26, 1, 17800312186376602428, 10569536861652752237, 3726444648967548058, 19883281163876269, 3726444648967548058]),
    ("spilled corrupt PDC-A narrow", [12778163, 26, 1, 17800312186376602428, 10569536861652752237, 3726444648967548058, 19883281163876269, 3726444648967548058]),
    ("spilled corrupt PDC-SH wide", [13293675, 4462, 1, 7240275919572181073, 3730992642866373669, 2829264807990958989, 1900568677321741809, 2829264807990958989]),
    ("spilled corrupt PDC-A wide", [13293675, 4462, 1, 7240275919572181073, 3730992642866373669, 2829264807990958989, 1900568677321741809, 2829264807990958989]),
    ("spilled corrupt PDC-SH empty", [9228127, 0, 1, 5925696574703130696, 3171650069539552018, 13037077336805151263, 675868731199239589, 13037077336805151263]),
    ("spilled corrupt PDC-A empty", [9228127, 0, 1, 5925696574703130696, 3171650069539552018, 13037077336805151263, 675868731199239589, 13037077336805151263]),
    ("spilled corrupt PDC-SH or", [11704699, 2819, 0, 3419430698095071234, 12292876087868224309, 2361578166035930008, 18416214406352149604, 2361578166035930008]),
    ("spilled corrupt PDC-A or", [11704699, 2819, 0, 3419430698095071234, 12292876087868224309, 2361578166035930008, 18416214406352149604, 2361578166035930008]),
    ("spilled corrupt PDC-SH and_or", [12782945, 206, 0, 12359820681835235742, 8762829268793555518, 9868137282098359328, 9835709113138808107, 9868137282098359328]),
    ("spilled corrupt PDC-A and_or", [12782945, 206, 0, 12359820681835235742, 8762829268793555518, 9868137282098359328, 9835709113138808107, 9868137282098359328]),
    ("spilled corrupt PDC-SH region_1d", [9665610, 1039, 1, 9215105489602551081, 8082734906320670172, 7113837043533342105, 2859502909193656826, 7113837043533342105]),
    ("spilled corrupt PDC-A region_1d", [9665610, 1039, 1, 9215105489602551081, 8082734906320670172, 7113837043533342105, 2859502909193656826, 7113837043533342105]),
];

#[test]
fn band_conjunctions_match_full_scan_at_pinned_outcomes() {
    let got = record();
    let expected: Vec<(String, Row)> = EXPECTED.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    if got != expected {
        let table: String = got.iter().map(|(k, v)| format!("    (\"{k}\", {v:?}),\n")).collect();
        panic!("band conjunction outcomes moved; the recorded table is now:\n{table}");
    }
}
