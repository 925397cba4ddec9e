//! Hierarchical-directory pruning benchmark: the fig. 3/4 conjunctive
//! 3-D window workload (`Energy > e AND x_lo < x < x_hi AND y_lo < y <
//! 0 AND 0 < z < 66`, the six multi-object catalog queries) on the
//! scaled VPIC world, comparing **1-D min/max pruning** (the historical
//! per-query walk over every region's histogram bounds) against the
//! **hierarchical region directory plus cross-variable joint bounds**.
//!
//! Joint grids are registered on the position-correlated pairs —
//! `(Energy, x)`, `(x, y)`, `(x, z)` — which is where the VPIC data's
//! correlation lives: `x` ramps monotonically across the array, so each
//! region covers a narrow spatial slab, while the energetic tail (and
//! the wide-spanning `y`/`z` cycles) recur in *every* region. 1-D
//! bounds therefore admit nearly all regions for the `Energy`/`y`/`z`
//! constraints; the joint grids kill the ones whose slab lies outside
//! the query's `x` window.
//!
//! Two measurements per query:
//! * **admitted-region rate** — regions surviving pruning, summed over
//!   the four constraints, 1-D vs hierarchical+joint (from the same
//!   [`pdc_query::DirectoryStats`] the `--explain` report prints);
//! * **planner wall-clock** — host time to resolve the candidate set:
//!   the O(regions) metadata walk vs the range→bin directory probe plus
//!   joint refinement, averaged over repeated resolutions.
//!
//! Pruning is advisory: the benchmark also runs every query under all
//! five strategies on a twin world whose objects carry no usable
//! directory (so the evaluator walks every region's metadata) and
//! requires the outcomes (selection, hits, and every simulated cost)
//! bit-identical.
//!
//! Writes `BENCH_pruning.json` (path overridable as argv[1]). Particle
//! count via `PDC_PRUNING_N` (default 2M, the recorded baseline). Exits
//! non-zero if outcomes diverge or the total admitted-region count
//! fails the >=2x reduction gate (set `PDC_PRUNING_NO_ASSERT=1` to
//! record without gating).

use pdc_bench::{engine, import_vpic, Scale, VpicWorld, BEST_REGION};
use pdc_directory::{DirectoryConfig, RegionDirectory};
use pdc_query::{
    directory_stats, JointContext, MetaSnapshot, PdcQuery, QueryOutcome, Strategy,
};
use pdc_types::{Interval, ObjectId, QueryOp};
use pdc_workloads::{multi_object_catalog, MultiObjectQuerySpec, VpicConfig, VpicData};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const DEFAULT_N: usize = 2 << 20;
const SERVERS: u32 = 8;
/// Candidate-set resolutions per timing sample (host wall-clock is
/// nanoseconds per resolution; averaging keeps the numbers stable).
const RESOLVE_REPS: u32 = 512;

const STRATEGIES: [Strategy; 5] = [
    Strategy::FullScan,
    Strategy::Histogram,
    Strategy::HistogramIndex,
    Strategy::SortedHistogram,
    Strategy::Adaptive,
];

/// The four constraints of one catalog query as `(object, interval)`
/// pairs — the same normalization the planner derives from the AST.
fn constraints(world: &VpicWorld, spec: &MultiObjectQuerySpec) -> Vec<(ObjectId, Interval)> {
    vec![
        (world.objects.energy, Interval::from_op(QueryOp::Gt, spec.energy_gt as f64)),
        (world.objects.x, Interval::open(spec.x_lo as f64, spec.x_hi as f64)),
        (world.objects.y, Interval::open(spec.y_lo as f64, spec.y_hi as f64)),
        (world.objects.z, Interval::open(spec.z_lo as f64, spec.z_hi as f64)),
    ]
}

fn build_query(world: &VpicWorld, spec: &MultiObjectQuerySpec) -> PdcQuery {
    PdcQuery::create(world.objects.energy, QueryOp::Gt, spec.energy_gt)
        .and(PdcQuery::range_open(world.objects.x, spec.x_lo, spec.x_hi))
        .and(PdcQuery::range_open(world.objects.y, spec.y_lo, spec.y_hi))
        .and(PdcQuery::range_open(world.objects.z, spec.z_lo, spec.z_hi))
}

/// Register joint grids on the three position-correlated pairs; returns
/// their total metadata footprint in bytes.
fn register_joint_grids(world: &VpicWorld) -> u64 {
    let o = &world.objects;
    [(o.energy, o.x), (o.x, o.y), (o.x, o.z)]
        .into_iter()
        .map(|(a, b)| world.odms.register_joint_pair(a, b).expect("register joint pair"))
        .sum()
}

/// The reference world: the same import and joint grids, but every
/// queried object's directory replaced by an empty one. A directory
/// indexing fewer regions than the metadata describes is unusable, so
/// the evaluator falls back to walking every region — the pruning
/// *verdicts* (including joint bounds) are unchanged, which is exactly
/// what makes on/off bit-identity meaningful.
fn world_without_directories(data: &VpicData) -> VpicWorld {
    let world = import_vpic(data, BEST_REGION.0, true);
    register_joint_grids(&world);
    let o = &world.objects;
    for obj in [o.energy, o.x, o.y, o.z] {
        world.odms.meta().set_directory(obj, RegionDirectory::new(DirectoryConfig::default()));
    }
    world
}

fn outcomes_identical(a: &QueryOutcome, b: &QueryOutcome) -> bool {
    a.selection == b.selection
        && a.nhits == b.nhits
        && a.elapsed == b.elapsed
        && a.per_server == b.per_server
        && a.io == b.io
        && a.work == b.work
        && a.breakdown == b.breakdown
        && a.failed_servers == b.failed_servers
        && a.retry_rounds == b.retry_rounds
        && a.integrity == b.integrity
}

struct QueryRow {
    label: String,
    nhits: u64,
    admitted_1d: u64,
    admitted_joint: u64,
    resolve_1d_us: f64,
    resolve_dir_us: f64,
}

/// Mean host microseconds per 1-D candidate resolution: the historical
/// planner walk testing every region's histogram bounds.
fn time_resolve_1d(snap: &MetaSnapshot, cs: &[(ObjectId, Interval)]) -> f64 {
    let per_obj: Vec<_> = cs
        .iter()
        .map(|(obj, iv)| {
            let meta = snap.meta(*obj).unwrap();
            (snap.region_histograms(*obj).unwrap(), meta.num_regions(), *iv)
        })
        .collect();
    let start = Instant::now();
    let mut admitted = 0u64;
    for _ in 0..RESOLVE_REPS {
        for (hists, num_regions, iv) in &per_obj {
            for r in 0..*num_regions {
                if hists[r as usize].estimate_hits(black_box(iv)).upper > 0 {
                    admitted += 1;
                }
            }
        }
    }
    black_box(admitted);
    start.elapsed().as_secs_f64() * 1e6 / f64::from(RESOLVE_REPS)
}

/// Mean host microseconds per hierarchical resolution: the range→bin
/// directory probe plus the joint-bounds refinement of the candidates.
fn time_resolve_directory(snap: &MetaSnapshot, cs: &[(ObjectId, Interval)]) -> f64 {
    let per_obj: Vec<_> = cs
        .iter()
        .map(|(obj, iv)| {
            let meta = snap.meta(*obj).unwrap();
            let dir = snap.directory(*obj).expect("import builds a directory");
            let joint = JointContext::build(snap, *obj, cs);
            (meta, dir, joint, *iv)
        })
        .collect();
    let start = Instant::now();
    let mut admitted = 0u64;
    for _ in 0..RESOLVE_REPS {
        for (meta, dir, joint, iv) in &per_obj {
            let probe = dir.probe(black_box(iv));
            for &r in &probe.candidates {
                let alive = match joint {
                    Some(j) => !j.proves_empty(r, meta.region_span(r).len, iv),
                    None => true,
                };
                if alive {
                    admitted += 1;
                }
            }
        }
    }
    black_box(admitted);
    start.elapsed().as_secs_f64() * 1e6 / f64::from(RESOLVE_REPS)
}

fn main() {
    let out_path =
        std::env::args().nth(1).unwrap_or_else(|| "BENCH_pruning.json".to_string());
    let n: usize = std::env::var("PDC_PRUNING_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_N);
    let scale = Scale { particles: n, servers: SERVERS, ..Scale::from_env() };

    let data = VpicData::generate(&VpicConfig { particles: n, seed: scale.seed });
    let world = import_vpic(&data, BEST_REGION.0, true);
    let joint_bytes = register_joint_grids(&world);
    let all_objects =
        [world.objects.energy, world.objects.x, world.objects.y, world.objects.z];
    let snap = MetaSnapshot::capture(&world.odms, &all_objects).expect("snapshot");
    let world_off = world_without_directories(&data);

    let catalog = multi_object_catalog();
    let mut rows = Vec::new();
    let mut bit_identical = true;
    for spec in &catalog {
        let q = build_query(&world, spec);
        let q_off = build_query(&world_off, spec);
        let cs = constraints(&world, spec);

        // Admitted-region rate, summed over the four constraints. The
        // same stats back the `--explain` directory report: 1-D admits
        // `regions_total - killed_1d`; the hierarchy admits `admitted`.
        let (mut admitted_1d, mut admitted_joint) = (0u64, 0u64);
        for (obj, iv) in &cs {
            let joint = JointContext::build(&snap, *obj, &cs);
            let st = directory_stats(&snap, *obj, iv, joint.as_deref())
                .expect("import builds a directory");
            admitted_1d += u64::from(st.regions_total - st.killed_1d);
            admitted_joint += u64::from(st.admitted);
        }

        // Bit-identity: every strategy, directory on vs off.
        let mut nhits = 0;
        for strategy in STRATEGIES {
            let on = engine(&world, strategy, &scale).run(&q).expect("query (directory on)");
            let off = engine(&world_off, strategy, &scale)
                .run(&q_off)
                .expect("query (directory off)");
            if !outcomes_identical(&on, &off) {
                eprintln!(
                    "FAIL: {} E>{}: outcomes diverge with the directory on vs off",
                    strategy.label(),
                    spec.energy_gt,
                );
                bit_identical = false;
            }
            nhits = on.nhits;
        }

        rows.push(QueryRow {
            label: format!("E>{} x({},{})", spec.energy_gt, spec.x_lo, spec.x_hi),
            nhits,
            admitted_1d,
            admitted_joint,
            resolve_1d_us: time_resolve_1d(&snap, &cs),
            resolve_dir_us: time_resolve_directory(&snap, &cs),
        });
    }

    let total_1d: u64 = rows.iter().map(|r| r.admitted_1d).sum();
    let total_joint: u64 = rows.iter().map(|r| r.admitted_joint).sum();
    let ratio = total_1d as f64 / total_joint.max(1) as f64;
    let sum_1d_us: f64 = rows.iter().map(|r| r.resolve_1d_us).sum();
    let sum_dir_us: f64 = rows.iter().map(|r| r.resolve_dir_us).sum();

    let mut json = format!(
        "{{\n  \"particles\": {n},\n  \"servers\": {SERVERS},\n  \
         \"region_bytes\": {},\n  \
         \"workload\": \"fig4 conjunctive 3-D windows (Energy,x,y,z), 6 queries\",\n  \
         \"joint_pairs\": [\"(Energy,x)\", \"(x,y)\", \"(x,z)\"],\n  \
         \"joint_bytes\": {joint_bytes},\n  \"queries\": [\n",
        BEST_REGION.0,
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"query\": \"{}\", \"nhits\": {}, \"admitted_1d\": {}, \
             \"admitted_joint\": {}, \"resolve_1d_us\": {:.2}, \"resolve_dir_us\": {:.2}}}{}",
            r.label,
            r.nhits,
            r.admitted_1d,
            r.admitted_joint,
            r.resolve_1d_us,
            r.resolve_dir_us,
            if i + 1 < rows.len() { ",\n" } else { "\n" },
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"total\": {{\"admitted_1d\": {total_1d}, \"admitted_joint\": {total_joint}, \
         \"reduction\": {ratio:.2}, \"resolve_1d_us\": {sum_1d_us:.2}, \
         \"resolve_dir_us\": {sum_dir_us:.2}}},\n  \"bit_identical\": {bit_identical}\n}}\n",
    );
    std::fs::write(&out_path, &json).expect("write benchmark json");

    for r in &rows {
        println!(
            "{:<22} hits {:>7}  admitted 1-D {:>4} -> joint {:>4}  resolve {:>8.2}us -> {:>6.2}us",
            r.label, r.nhits, r.admitted_1d, r.admitted_joint, r.resolve_1d_us, r.resolve_dir_us,
        );
    }
    println!(
        "total admitted: 1-D {total_1d} -> hierarchical+joint {total_joint} ({ratio:.2}x fewer); \
         resolve {sum_1d_us:.2}us -> {sum_dir_us:.2}us per pass"
    );
    println!("wrote {out_path}");

    let gate = std::env::var("PDC_PRUNING_NO_ASSERT").is_err();
    let mut ok = bit_identical;
    if total_1d < 2 * total_joint.max(1) {
        eprintln!(
            "FAIL: admitted regions dropped only {ratio:.2}x (1-D {total_1d} vs joint \
             {total_joint}); the gate requires >=2x"
        );
        ok = false;
    }
    if gate && !ok {
        std::process::exit(1);
    }
}
