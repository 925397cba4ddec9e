//! Property-based fault-tolerance testing: random fault plans never
//! change what a query returns — only its simulated cost — and the whole
//! failure timeline is deterministic in the fault seed.

use pdc_suite::odms::{ImportOptions, Odms};
use pdc_suite::query::{EngineConfig, PdcQuery, QueryEngine, Strategy};
use pdc_suite::server::FaultPlan;
use pdc_suite::types::{ObjectId, TypedVec};
use proptest::prelude::*;
use std::sync::Arc;

const N: usize = 3_000;

fn build_world(seed: u32) -> (Arc<Odms>, ObjectId, Vec<f32>) {
    let s = seed as f32;
    let data: Vec<f32> =
        (0..N).map(|i| ((i as f32 * 0.003 + s).sin() + 1.0) * 5.0).collect();
    let odms = Arc::new(Odms::new(4));
    let c = odms.create_container("fault-prop");
    let opts = ImportOptions {
        region_bytes: 2048,
        build_index: true,
        build_sorted: true,
        ..Default::default()
    };
    let obj = odms.import_array(c, "v", TypedVec::Float(data.clone()), &opts).unwrap().object;
    (odms, obj, data)
}

fn engine(
    odms: &Arc<Odms>,
    strategy: Strategy,
    servers: u32,
    replicas: u32,
    plan: Option<FaultPlan>,
) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(odms),
        EngineConfig {
            strategy,
            num_servers: servers,
            replicas,
            fault_plan: plan,
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Any seeded fault plan (crashes, slowdowns, transient errors —
    /// always leaving at least one server alive) yields results
    /// bit-identical to the fault-free run, under every strategy at every
    /// replica count. Faults may only move the simulated timeline.
    #[test]
    fn random_faults_never_change_results(
        world_seed in 0u32..4,
        fault_seed in any::<u64>(),
        servers in 2u32..6,
        replicas in 1u32..4,
        lo in 0.0f32..5.0,
        width in 0.1f32..5.0,
    ) {
        let (odms, obj, data) = build_world(world_seed);
        let hi = lo + width;
        let q = PdcQuery::range_open(obj, lo, hi);
        let expect = data.iter().filter(|&&v| v > lo && v < hi).count() as u64;
        let plan = FaultPlan::seeded(fault_seed, servers);
        for strategy in Strategy::ALL {
            let healthy = engine(&odms, strategy, servers, replicas, None).run(&q).unwrap();
            prop_assert_eq!(healthy.nhits, expect);
            let faulty = engine(&odms, strategy, servers, replicas, Some(plan.clone()))
                .run(&q)
                .unwrap();
            prop_assert_eq!(faulty.nhits, healthy.nhits, "{} k={} seed {}", strategy, replicas, fault_seed);
            prop_assert_eq!(
                &faulty.selection, &healthy.selection,
                "{} seed {}: selection diverged", strategy, fault_seed
            );
            // Faults never change what was computed, only when: the I/O
            // and scan work may grow (failed-over slots re-read regions)
            // but the answer-bearing outputs are identical.
        }
    }

    /// Killing a random subset of servers (always leaving one) also
    /// preserves results exactly, at every replica count.
    #[test]
    fn random_kills_never_change_results(
        world_seed in 0u32..4,
        kill_seed in any::<u64>(),
        servers in 2u32..6,
        replicas in 1u32..4,
        kill_frac in 0.0f64..1.0,
    ) {
        let (odms, obj, _) = build_world(world_seed);
        let kills = ((servers - 1) as f64 * kill_frac) as u32;
        let q = PdcQuery::range_open(obj, 2.0f32, 6.0f32);
        let plan = FaultPlan::kill_count(kills, servers, kill_seed);
        for strategy in Strategy::ALL {
            let healthy = engine(&odms, strategy, servers, replicas, None).run(&q).unwrap();
            let faulty = engine(&odms, strategy, servers, replicas, Some(plan.clone()))
                .run(&q)
                .unwrap();
            prop_assert_eq!(&faulty.selection, &healthy.selection,
                "{} k={}: {} of {} killed", strategy, replicas, kills, servers);
        }
    }

    /// The failure timeline is deterministic: two engines configured with
    /// the same fault seed report identical simulated costs, identical
    /// failed-server sets, and identical retry counts.
    #[test]
    fn same_fault_seed_same_costs(
        world_seed in 0u32..4,
        fault_seed in any::<u64>(),
        servers in 2u32..6,
        replicas in 1u32..4,
    ) {
        let (odms, obj, _) = build_world(world_seed);
        let q = PdcQuery::range_open(obj, 1.0f32, 7.0f32);
        let plan = FaultPlan::seeded(fault_seed, servers);
        for strategy in Strategy::ALL {
            let a = engine(&odms, strategy, servers, replicas, Some(plan.clone())).run(&q).unwrap();
            let b = engine(&odms, strategy, servers, replicas, Some(plan.clone())).run(&q).unwrap();
            prop_assert_eq!(a.elapsed, b.elapsed, "{} seed {}", strategy, fault_seed);
            prop_assert_eq!(a.breakdown, b.breakdown, "{} seed {}", strategy, fault_seed);
            prop_assert_eq!(&a.per_server, &b.per_server, "{} seed {}", strategy, fault_seed);
            prop_assert_eq!(&a.failed_servers, &b.failed_servers);
            prop_assert_eq!(a.retry_rounds, b.retry_rounds);
        }
    }
}
