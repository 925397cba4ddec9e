//! Property-based equivalence testing for the adaptive strategy
//! (`PDC-A`): per-(region, predicate) operator selection may change the
//! *cost* of a query, never its *answer*. Adaptive selections must be
//! bit-identical to every fixed strategy on clean worlds, under seeded
//! server faults, and with up to 20% of data regions corrupted — and the
//! `EXPLAIN` report must be internally consistent with the result.

use pdc_suite::odms::{ImportOptions, Odms};
use pdc_suite::query::{
    EngineConfig, ExplainPhase, PdcQuery, QueryEngine, Strategy,
};
use pdc_suite::server::{CorruptionSpec, FaultPlan};
use pdc_suite::types::{ObjectId, TypedVec};
use proptest::prelude::*;
use std::sync::Arc;

const N: usize = 3_000;

/// Two variables so compound queries exercise the filter lane's
/// point-check operators as well as the primary lane: `v` carries an
/// index and a sorted replica (all access paths available), `w` carries
/// histograms and an index but no sorted replica.
fn build_world(seed: u32) -> (Arc<Odms>, ObjectId, ObjectId, Vec<f32>, Vec<f32>) {
    let s = seed as f32;
    let v: Vec<f32> =
        (0..N).map(|i| ((i as f32 * 0.003 + s).sin() + 1.0) * 5.0).collect();
    let w: Vec<f32> =
        (0..N).map(|i| ((i as f32 * 0.017 + s).cos() + 1.0) * 5.0).collect();
    let odms = Arc::new(Odms::new(4));
    let c = odms.create_container("adaptive-prop");
    let full = ImportOptions {
        region_bytes: 2048,
        build_index: true,
        build_sorted: true,
        ..Default::default()
    };
    let bare = ImportOptions { region_bytes: 2048, build_index: true, ..Default::default() };
    let ov = odms.import_array(c, "v", TypedVec::Float(v.clone()), &full).unwrap().object;
    let ow = odms.import_array(c, "w", TypedVec::Float(w.clone()), &bare).unwrap().object;
    (odms, ov, ow, v, w)
}

fn engine(
    odms: &Arc<Odms>,
    strategy: Strategy,
    servers: u32,
    plan: Option<FaultPlan>,
) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(odms),
        EngineConfig { strategy, num_servers: servers, fault_plan: plan, ..Default::default() },
    )
}

const FIXED_STRATEGIES: [Strategy; 4] = [
    Strategy::FullScan,
    Strategy::Histogram,
    Strategy::HistogramIndex,
    Strategy::SortedHistogram,
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// The core contract: on a clean world, adaptive selections are
    /// bit-identical to every fixed strategy, for both single-interval
    /// and compound (primary + filter lane) queries.
    #[test]
    fn adaptive_matches_every_fixed_strategy(
        world_seed in 0u32..4,
        servers in 2u32..6,
        lo in 0.0f32..5.0,
        width in 0.05f32..5.0,
        w_lo in 0.0f32..8.0,
    ) {
        let (odms, ov, ow, v, w) = build_world(world_seed);
        let hi = lo + width;

        let single = PdcQuery::range_open(ov, lo, hi);
        let expect = v.iter().filter(|&&x| x > lo && x < hi).count() as u64;
        let adaptive = engine(&odms, Strategy::Adaptive, servers, None).run(&single).unwrap();
        prop_assert_eq!(adaptive.nhits, expect, "adaptive vs. reference count");
        for strategy in FIXED_STRATEGIES {
            let fixed = engine(&odms, strategy, servers, None).run(&single).unwrap();
            prop_assert_eq!(&adaptive.selection, &fixed.selection,
                "single interval: PDC-A vs. {}", strategy);
        }

        let compound = PdcQuery::range_open(ov, lo, hi)
            .and(PdcQuery::range_open(ow, w_lo, w_lo + 2.0));
        let expect = v
            .iter()
            .zip(&w)
            .filter(|&(&a, &b)| a > lo && a < hi && b > w_lo && b < w_lo + 2.0)
            .count() as u64;
        let adaptive = engine(&odms, Strategy::Adaptive, servers, None).run(&compound).unwrap();
        prop_assert_eq!(adaptive.nhits, expect, "adaptive vs. reference compound count");
        for strategy in FIXED_STRATEGIES {
            let fixed = engine(&odms, strategy, servers, None).run(&compound).unwrap();
            prop_assert_eq!(&adaptive.selection, &fixed.selection,
                "compound: PDC-A vs. {}", strategy);
        }
    }

    /// Adaptive operator choices are pure functions of metadata and the
    /// cost model, so they survive the fault path: under seeded crashes,
    /// slowdowns, transient errors and corruption, retried/reassigned
    /// regions pick the same operators and the selection never changes.
    #[test]
    fn adaptive_survives_faults_and_corruption(
        world_seed in 0u32..4,
        seed in any::<u64>(),
        servers in 2u32..6,
        data_frac in 0.0f64..0.2,
        aux_frac in 0.0f64..0.5,
    ) {
        let (odms, ov, ow, _, _) = build_world(world_seed);
        let q = PdcQuery::range_open(ov, 2.0f32, 6.0f32)
            .and(PdcQuery::range_open(ow, 1.0f32, 9.0f32));
        let clean = engine(&odms, Strategy::Adaptive, servers, None).run(&q).unwrap();

        let corrupt_only = FaultPlan::new()
            .with_corruption(CorruptionSpec::new(data_frac, aux_frac, seed));
        let corrupted = engine(&odms, Strategy::Adaptive, servers, Some(corrupt_only))
            .run(&q)
            .unwrap_or_else(|e| panic!("corruption seed {seed}: {e}"));
        prop_assert_eq!(&corrupted.selection, &clean.selection,
            "corruption seed {}", seed);

        let stressed_plan = FaultPlan::seeded(seed, servers)
            .with_corruption(CorruptionSpec::new(0.1, 0.3, seed));
        let stressed = engine(&odms, Strategy::Adaptive, servers, Some(stressed_plan))
            .run(&q)
            .unwrap_or_else(|e| panic!("fault seed {seed}: {e}"));
        prop_assert_eq!(&stressed.selection, &clean.selection, "fault seed {}", seed);
    }

    /// Determinism: two adaptive engines over the same world agree on
    /// simulated costs down to the breakdown, not just on results.
    #[test]
    fn adaptive_is_deterministic(
        world_seed in 0u32..4,
        servers in 2u32..6,
        lo in 0.0f32..8.0,
    ) {
        let (odms, ov, _, _, _) = build_world(world_seed);
        let q = PdcQuery::range_open(ov, lo, lo + 1.5);
        let a = engine(&odms, Strategy::Adaptive, servers, None).run(&q).unwrap();
        let b = engine(&odms, Strategy::Adaptive, servers, None).run(&q).unwrap();
        prop_assert_eq!(&a.selection, &b.selection);
        prop_assert_eq!(a.elapsed, b.elapsed);
        prop_assert_eq!(a.breakdown, b.breakdown);
        prop_assert_eq!(&a.per_server, &b.per_server);
    }

    /// The EXPLAIN report is consistent with the answer it narrates:
    /// explain never perturbs the outcome, pruned rows carry no actual
    /// counts, histogram estimates bound the actual hits, and on a
    /// single-constraint query the primary-lane actuals sum to `nhits`.
    #[test]
    fn explain_is_consistent_with_results(
        world_seed in 0u32..4,
        servers in 2u32..6,
        lo in 0.0f32..5.0,
        width in 0.05f32..5.0,
        strategy_idx in 0usize..5,
    ) {
        let strategy = [
            Strategy::FullScan,
            Strategy::Histogram,
            Strategy::HistogramIndex,
            Strategy::SortedHistogram,
            Strategy::Adaptive,
        ][strategy_idx];
        let (odms, ov, _, _, _) = build_world(world_seed);
        let q = PdcQuery::range_open(ov, lo, lo + width);
        // Fresh engines for each run: server caches warmed by a first
        // run would change the second run's simulated time, which is a
        // cache effect, not an explain effect.
        let plain = engine(&odms, strategy, servers, None).run(&q).unwrap();
        let (explained, plan) = engine(&odms, strategy, servers, None).explain(&q).unwrap();
        prop_assert_eq!(&explained.selection, &plain.selection,
            "{}: explain changed the answer", strategy);
        prop_assert_eq!(explained.elapsed, plain.elapsed,
            "{}: explain changed simulated time", strategy);

        prop_assert_eq!(plan.strategy, strategy);
        prop_assert_eq!(plan.constraints.len(), 1);
        prop_assert_eq!(plan.constraints[0].0, ov);
        prop_assert!(!plan.regions.is_empty(), "{}: no region rows", strategy);
        let mut actual_total = 0u64;
        for row in &plan.regions {
            prop_assert_eq!(row.phase, ExplainPhase::Primary);
            prop_assert_eq!(row.pruned, row.actual_hits.is_none(),
                "{}: pruned iff no actual hits", strategy);
            if let (Some(est), Some(actual)) = (&row.est, row.actual_hits) {
                prop_assert!(est.lower <= actual && actual <= est.upper,
                    "{}: region {} actual {} outside estimate {}..{}",
                    strategy, row.region, actual, est.lower, est.upper);
            }
            actual_total += row.actual_hits.unwrap_or(0);
        }
        prop_assert_eq!(actual_total, plain.nhits,
            "{}: primary-lane actuals must sum to nhits", strategy);
    }
}

/// Deterministic spot check that adaptivity is visible in the plan: a
/// wide interval scans while an empty interval prunes everything, and
/// both agree with the full-scan ground truth.
#[test]
fn adaptive_picks_visible_in_explain() {
    let (odms, ov, _, v, _) = build_world(1);
    let eng = engine(&odms, Strategy::Adaptive, 4, None);

    let wide = PdcQuery::range_open(ov, 0.5f32, 9.5f32);
    let (out, plan) = eng.explain(&wide).unwrap();
    let expect = v.iter().filter(|&&x| x > 0.5 && x < 9.5).count() as u64;
    assert_eq!(out.nhits, expect);
    assert_eq!(plan.strategy, Strategy::Adaptive);
    assert!(plan.regions.iter().any(|r| !r.pruned), "wide interval must touch data");

    let empty = PdcQuery::range_open(ov, 100.0f32, 200.0f32);
    let (out, plan) = eng.explain(&empty).unwrap();
    assert_eq!(out.nhits, 0);
    assert!(
        plan.sorted_primary || plan.regions.iter().all(|r| r.pruned),
        "an impossible interval must prune every region or resolve via the sorted replica"
    );
}
