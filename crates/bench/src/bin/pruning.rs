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
//! Measured per query: the **admitted-region rate** — regions surviving
//! pruning, summed over the four constraints, 1-D vs hierarchical+joint
//! (from the same [`pdc_query::DirectoryStats`] the `--explain` report
//! prints). What a resolution costs in host time is the referee's
//! `directory.probe_us`.
//!
//! Pruning is advisory: the benchmark also runs every query under all
//! five strategies on a twin world whose objects carry no usable
//! directory (so the evaluator walks every region's metadata) and
//! requires the outcomes (selection, hits, and every simulated cost)
//! bit-identical.
//!
//! Writes `BENCH_pruning.json` (path overridable as argv[1]);
//! `PDC_PARTICLES` overrides the 2 Mi-particle default. Exits non-zero
//! if outcomes diverge or the total admitted-region count fails the
//! >=2x reduction gate.

use pdc_bench::{
    engine, generate_vpic, import_vpic, multi_object_query, Gates, Json, Scale, VpicWorld,
    ALL_STRATEGIES, BEST_REGION,
};
use pdc_directory::RegionDirectory;
use pdc_query::{directory_stats, JointContext, MetaSnapshot, QueryOutcome};
use pdc_types::{Interval, ObjectId, QueryOp};
use pdc_workloads::{multi_object_catalog, MultiObjectQuerySpec, VpicData};
use std::process::ExitCode;

const SERVERS: u32 = 8;

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
fn directoryless_twin(data: &VpicData) -> VpicWorld {
    let world = import_vpic(data, BEST_REGION.0, true);
    register_joint_grids(&world);
    let o = &world.objects;
    for obj in [o.energy, o.x, o.y, o.z] {
        world.odms.meta().set_directory(obj, RegionDirectory::new());
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

fn main() -> ExitCode {
    let mut gates = Gates::from_args("pruning");
    let scale = Scale::for_gate(2 << 20, SERVERS);

    let data = generate_vpic(&scale);
    let world = import_vpic(&data, BEST_REGION.0, true);
    let joint_bytes = register_joint_grids(&world);
    let all_objects = [world.objects.energy, world.objects.x, world.objects.y, world.objects.z];
    let snap = MetaSnapshot::capture(&world.odms, &all_objects).expect("snapshot");
    let world_off = directoryless_twin(&data);

    let mut rows = Vec::new();
    let (mut total_1d, mut total_joint) = (0u64, 0u64);
    let mut bit_identical = true;
    for spec in &multi_object_catalog() {
        let q = multi_object_query(&world, spec);
        let q_off = multi_object_query(&world_off, spec);
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
        for strategy in ALL_STRATEGIES {
            let on = engine(&world, strategy, &scale).run(&q).expect("query (directory on)");
            let off =
                engine(&world_off, strategy, &scale).run(&q_off).expect("query (directory off)");
            if !outcomes_identical(&on, &off) {
                eprintln!("{} E>{}: outcomes diverge", strategy.label(), spec.energy_gt);
                bit_identical = false;
            }
            nhits = on.nhits;
        }

        let label = format!("E>{} x({},{})", spec.energy_gt, spec.x_lo, spec.x_hi);
        println!("{label:<22} hits {nhits:>7}  admitted 1-D {admitted_1d:>4} -> joint {admitted_joint:>4}");
        total_1d += admitted_1d;
        total_joint += admitted_joint;
        rows.push(Json::obj([
            ("query", Json::from(label)),
            ("nhits", nhits.into()),
            ("admitted_1d", admitted_1d.into()),
            ("admitted_joint", admitted_joint.into()),
        ]));
    }

    let ratio = total_1d as f64 / total_joint.max(1) as f64;
    println!(
        "total admitted: 1-D {total_1d} -> hierarchical+joint {total_joint} ({ratio:.2}x fewer)"
    );
    gates.check("outcomes diverge with the directory on vs off", bit_identical);
    gates.check(
        format!("admitted regions dropped only {ratio:.2}x; the gate requires >=2x"),
        total_1d >= 2 * total_joint.max(1),
    );

    let mut doc = Json::obj([("particles", Json::from(scale.particles))]);
    doc.set("servers", SERVERS)
        .set("region_bytes", BEST_REGION.0)
        .set("workload", "fig4 conjunctive 3-D windows (Energy,x,y,z), 6 queries")
        .set(
            "joint_pairs",
            ["(Energy,x)", "(x,y)", "(x,z)"].into_iter().map(Json::from).collect::<Json>(),
        )
        .set("joint_bytes", joint_bytes)
        .set("queries", Json::Arr(rows))
        .set(
            "total",
            Json::obj([
                ("admitted_1d", Json::from(total_1d)),
                ("admitted_joint", total_joint.into()),
                ("reduction", Json::fixed(ratio, 2)),
            ]),
        )
        .set("bit_identical", bit_identical);
    gates.finish(&doc)
}
