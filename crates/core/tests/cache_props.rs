//! The caches behind `serve` keep only what cannot go stale.
//!
//! The plan cache reuses a plan while its snapshot is current, and the
//! servers' region caches hold verified copies of region data. Two checks
//! hold that rule:
//!
//! 1. **Property.** Appends, deferred maintenance, corruption, region
//!    migration and joint-pair registration interleave with `serve`
//!    calls. Every served outcome must equal a cold `run` on a twin world
//!    given the same mutations, in the same order.
//! 2. **Regression.** A region corrupted in the store after the servers
//!    cached it: the query answers from the servers' clean copy.

use pdc_odms::{ImportOptions, Odms};
use pdc_query::{
    Arrival, EngineConfig, PdcQuery, QueryEngine, QueryOutcome, ServiceConfig, ServiceReport,
    Strategy, TenantSpec,
};
use pdc_storage::{SimDuration, StorageTier};
use pdc_types::{ObjectId, QueryOp, RegionId, TypedVec};
use proptest::prelude::*;
use std::sync::Arc;

const N: usize = 12_000;

struct World {
    odms: Arc<Odms>,
    energy: ObjectId,
    x: ObjectId,
}

fn energy_at(i: usize) -> f32 {
    if (3000..3400).contains(&(i % 8000)) {
        2.0 + ((i * 31) % 160) as f32 / 100.0
    } else {
        ((i as f32 * 0.37).sin() + 1.0) * 0.9
    }
}

fn x_at(i: usize) -> f32 {
    ((i as f32 * 0.011).cos() + 1.0) * 166.0
}

/// Two aligned objects of 1 024-element regions (a partial tail), with
/// bitmap indexes and sorted replicas, so every strategy has its lane.
fn build_world() -> World {
    let odms = Arc::new(Odms::new(8));
    let c = odms.create_container("vpic");
    let opts = ImportOptions {
        region_bytes: 4096,
        build_index: true,
        build_sorted: true,
        ..Default::default()
    };
    let import = |name: &str, f: fn(usize) -> f32| {
        let data = TypedVec::Float((0..N).map(f).collect());
        odms.import_array(c, name, data, &opts).unwrap().object
    };
    let (energy, x) = (import("energy", energy_at), import("x", x_at));
    World { odms, energy, x }
}

fn engine(world: &World, strategy: Strategy) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(&world.odms),
        EngineConfig { strategy, num_servers: 4, ..Default::default() },
    )
}

/// Serve `queries` as one client's closed series (every arrival at t = 0).
fn serve_closed(eng: &QueryEngine, queries: &[PdcQuery]) -> ServiceReport {
    let cfg = ServiceConfig::new(vec![TenantSpec::new("client", 1, SimDuration::MAX, 0)]);
    let arrivals: Vec<Arrival> = queries
        .iter()
        .map(|q| Arrival { at: SimDuration::ZERO, tenant: "client".into(), query: q.clone() })
        .collect();
    eng.serve(&cfg, &arrivals).unwrap()
}

fn assert_same(served: &QueryOutcome, cold: &QueryOutcome, ctx: &str) {
    assert_eq!(served.selection, cold.selection, "{ctx}: selection");
    assert_eq!(served.nhits, cold.nhits, "{ctx}: nhits");
    assert_eq!(served.elapsed, cold.elapsed, "{ctx}: elapsed");
    assert_eq!(served.breakdown, cold.breakdown, "{ctx}: breakdown");
    assert_eq!(served.integrity, cold.integrity, "{ctx}: integrity counters");
}

/// One step of the interleaving, applied identically to both worlds.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Serve a closed series of `len` queries drawn from `seed`.
    Serve { seed: u64, len: usize },
    /// Append `len` elements to both objects (they stay aligned).
    Append { seed: u64, len: usize },
    Maintain,
    /// Corrupt a full (never again appended) region of one object.
    Corrupt { energy: bool, pick: u32, seed: u64 },
    Migrate { energy: bool, pick: u32, burst: bool },
    RegisterJoint,
}

fn step(rng: &mut TestRng) -> Step {
    let pick = rng.next_u64() as u32;
    let energy = rng.below(2) == 0;
    match rng.below(9) {
        0..=2 => Step::Serve { seed: rng.next_u64(), len: 1 + rng.below(3) },
        3 => Step::Append { seed: rng.next_u64(), len: 200 + rng.below(1_500) },
        4 => Step::Maintain,
        5 | 6 => Step::Corrupt { energy, pick, seed: rng.next_u64() },
        7 => Step::Migrate { energy, pick, burst: rng.below(2) == 0 },
        _ => Step::RegisterJoint,
    }
}

/// A deterministic query mix over `world`'s objects: ranges, repeats,
/// a conjunction and a disjunction.
fn queries(world: &World, seed: u64, len: usize) -> Vec<PdcQuery> {
    let mut rng = TestRng::new(seed);
    (0..len)
        .map(|_| {
            let lo = rng.below(36) as f32 / 10.0;
            let w = (1 + rng.below(8)) as f32 / 20.0;
            let e = PdcQuery::range_open(world.energy, lo, lo + w);
            match rng.below(4) {
                0 | 1 => e,
                2 => e.and(PdcQuery::range_open(world.x, 50.0f32, 200.0f32)),
                _ => PdcQuery::create(world.energy, QueryOp::Lt, 0.05f32)
                    .or(PdcQuery::create(world.energy, QueryOp::Gt, 3.0f32)),
            }
        })
        .collect()
}

/// Apply a mutation to `world`; the result's `Ok`-ness must agree
/// between the twins, so it is returned for comparison.
fn mutate(world: &World, s: Step) -> bool {
    let obj = |energy: bool| if energy { world.energy } else { world.x };
    // The tail region may still grow, and an append refuses a corrupt
    // tail, so corruption and migration pick a full region.
    let full_region = |energy: bool, pick: u32| {
        let regions = world.odms.meta().get(obj(energy)).unwrap().num_regions();
        RegionId::new(obj(energy), pick % (regions - 1))
    };
    match s {
        Step::Serve { .. } => unreachable!("serve is not a mutation"),
        Step::Append { seed, len } => {
            let delta = |base: f32| {
                let mut rng = TestRng::new(seed);
                let v = (0..len).map(|_| base + rng.below(400) as f32 / 100.0).collect();
                TypedVec::Float(v)
            };
            world.odms.append_array(world.energy, &delta(0.0)).is_ok()
                && world.odms.append_array(world.x, &delta(100.0)).is_ok()
        }
        Step::Maintain => world.odms.run_deferred_maintenance().is_ok(),
        Step::Corrupt { energy, pick, seed } => {
            world.odms.store().corrupt(full_region(energy, pick), seed).is_ok()
        }
        Step::Migrate { energy, pick, burst } => {
            let tier = if burst { StorageTier::BurstBuffer } else { StorageTier::Dram };
            world.odms.migrate_region(full_region(energy, pick), tier).is_ok()
        }
        Step::RegisterJoint => world.odms.register_joint_pair(world.energy, world.x).is_ok(),
    }
}

const STRATEGIES: [Strategy; 5] = [
    Strategy::FullScan,
    Strategy::Histogram,
    Strategy::HistogramIndex,
    Strategy::SortedHistogram,
    Strategy::Adaptive,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn served_outcomes_equal_cold_runs_under_interleaved_mutations(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let strategy = STRATEGIES[rng.below(STRATEGIES.len())];
        let (served_world, cold_world) = (build_world(), build_world());
        let (served, cold) = (engine(&served_world, strategy), engine(&cold_world, strategy));
        // Open with a serve so the caches are warm before the first
        // mutation, then interleave.
        let steps: Vec<Step> = std::iter::once(Step::Serve { seed, len: 3 })
            .chain((0..10).map(|_| step(&mut rng)))
            .collect();
        for (k, &s) in steps.iter().enumerate() {
            let Step::Serve { seed, len } = s else {
                prop_assert_eq!(mutate(&served_world, s), mutate(&cold_world, s), "step {k}: {s:?}");
                continue;
            };
            let qs = queries(&served_world, seed, len);
            let report = serve_closed(&served, &qs);
            prop_assert_eq!(report.served.len(), qs.len());
            for sq in &report.served {
                let oracle = cold.run(&qs[sq.arrival_index]).unwrap();
                let ctx = format!("{strategy}, step {k}, query {} of {steps:?}", sq.arrival_index);
                assert_same(&sq.outcome, &oracle, &ctx);
            }
        }
    }
}

/// A region corrupted after the servers cached it: `serve` must return
/// the 64 hits `run` and a brute-force count return. (An unverified read
/// of the damaged store copy would drop element 578.)
#[test]
fn corrupt_store_copy_after_caching_is_not_served() {
    let values: Vec<f32> = (0..64_000).map(|i| ((i * 7919) % 1000) as f32 / 100.0).collect();
    let odms = Arc::new(Odms::new(8));
    let c = odms.create_container("poison");
    let opts = ImportOptions { region_bytes: 16 * 1024, ..Default::default() };
    let e = odms.import_array(c, "e", TypedVec::Float(values.clone()), &opts).unwrap().object;
    let eng = QueryEngine::new(
        Arc::clone(&odms),
        EngineConfig { strategy: Strategy::Histogram, num_servers: 4, ..Default::default() },
    );

    serve_closed(&eng, &[PdcQuery::range_open(e, 0.0f32, 10.0f32)]);
    // Flips element 578 from 1.82 to 0.0071 in the store copy only.
    assert!(odms.store().corrupt(RegionId::new(e, 0), 12345).unwrap());

    let q = PdcQuery::range_open(e, 1.819f32, 1.821f32);
    let expect = values.iter().filter(|&&v| v > 1.819 && v < 1.821).count() as u64;
    assert_eq!(expect, 64);
    let report = serve_closed(&eng, std::slice::from_ref(&q));
    assert_eq!(report.served[0].outcome.nhits, expect, "damaged store copy served");
    assert_eq!(eng.run(&q).unwrap().nhits, expect);
}
