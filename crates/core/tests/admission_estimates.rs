//! Pins the admission controller's cost estimates. `serve` admits, defers
//! and rejects tenants on `estimate_plan_cost`, so these numbers steer
//! fairness; the table below holds `ServedQuery::est_cost` (nanoseconds)
//! for every strategy on a world with a bitmap index and a sorted replica
//! and on one without either, for a narrow, a wide, a conjunctive and
//! an all-matching query, and again after an append has left the sorted replica stale.
//!
//! A change that moves an estimate on purpose re-records the table: the
//! failure message prints the new one in the table's own syntax.

use pdc_odms::{ImportOptions, Odms};
use pdc_query::{Arrival, EngineConfig, PdcQuery, QueryEngine, ServiceConfig, Strategy, TenantSpec};
use pdc_storage::SimDuration;
use pdc_types::{ObjectId, PdcError, QueryOp, TypedVec};
use std::sync::Arc;

const N: usize = 24_000;

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

fn build_world(aux: bool) -> World {
    let odms = Arc::new(Odms::new(8));
    let c = odms.create_container("vpic");
    let energy: Vec<f32> = (0..N).map(energy_at).collect();
    let x: Vec<f32> = (0..N).map(x_at).collect();
    let opts = ImportOptions {
        region_bytes: 8 << 10,
        build_index: aux,
        build_sorted: aux,
        ..Default::default()
    };
    let energy = odms.import_array(c, "energy", TypedVec::Float(energy), &opts).unwrap().object;
    let x = odms.import_array(c, "x", TypedVec::Float(x), &opts).unwrap().object;
    World { odms, energy, x }
}

fn queries(w: &World) -> Vec<PdcQuery> {
    let narrow = PdcQuery::create(w.energy, QueryOp::Gt, 2.1f32)
        .and(PdcQuery::create(w.energy, QueryOp::Lt, 2.2f32));
    let wide = PdcQuery::create(w.energy, QueryOp::Gt, 0.2f32)
        .and(PdcQuery::create(w.energy, QueryOp::Lt, 1.5f32));
    let conj = PdcQuery::create(w.energy, QueryOp::Gt, 2.0f32)
        .and(PdcQuery::create(w.x, QueryOp::Gt, 100.0f32))
        .and(PdcQuery::create(w.x, QueryOp::Lt, 200.0f32));
    // Every region lies inside this one, so its histogram bounds agree
    // and a probe needs no candidate check: the probe estimate wins.
    let all = PdcQuery::create(w.energy, QueryOp::Gt, -1.0f32);
    vec![narrow, wide, conj, all]
}

/// One tenant with room for everything, every query arriving at t = 0:
/// the estimates of the served queries, in arrival order. `None` when
/// the strategy cannot run on the world (PDC-HI without an index).
fn estimates(w: &World, strategy: Strategy) -> Option<Vec<u64>> {
    let eng = QueryEngine::new(
        Arc::clone(&w.odms),
        EngineConfig { strategy, num_servers: 4, ..Default::default() },
    );
    let cfg =
        ServiceConfig::new(vec![TenantSpec::new("t", 1, SimDuration::from_secs_f64(1e6), 16)]);
    let arrivals: Vec<Arrival> = queries(w)
        .into_iter()
        .map(|query| Arrival { at: SimDuration::ZERO, tenant: "t".into(), query })
        .collect();
    let report = match eng.serve(&cfg, &arrivals) {
        Err(PdcError::MissingPrerequisite(_)) => return None,
        r => r.unwrap(),
    };
    assert!(report.rejected.is_empty());
    let mut served: Vec<_> = report.served.iter().map(|s| (s.arrival_index, s.est_cost)).collect();
    served.sort_unstable();
    assert_eq!(served.len(), arrivals.len());
    Some(served.into_iter().map(|(_, est)| est.as_nanos()).collect())
}

fn record() -> Vec<(String, Option<Vec<u64>>)> {
    let mut got = Vec::new();
    for aux in [true, false] {
        let w = build_world(aux);
        let world = if aux { "aux" } else { "bare" };
        for phase in ["sealed", "appended"] {
            if phase == "appended" {
                // No deferred maintenance afterwards: the sorted
                // replicas and the tail regions' indexes stay stale.
                let e: Vec<f32> = (N..N + 3000).map(energy_at).collect();
                let x: Vec<f32> = (N..N + 3000).map(x_at).collect();
                w.odms.append_array(w.energy, &TypedVec::Float(e)).unwrap();
                w.odms.append_array(w.x, &TypedVec::Float(x)).unwrap();
            }
            for s in Strategy::ALL {
                got.push((format!("{world} {phase} {s}"), estimates(&w, s)));
            }
        }
    }
    got
}

/// Recorded from the code before the strategy decisions became one
/// policy table; columns are the queries in `queries` order.
#[rustfmt::skip]
const EXPECTED: &[(&str, Option<[u64; 4]>)] = &[
    ("aux sealed PDC-F", Some([9663996, 9663996, 19327992, 9663996])),
    ("aux sealed PDC-H", Some([2416383, 9663996, 12080379, 9663996])),
    ("aux sealed PDC-HI", Some([4813200, 19251609, 24064753, 9611378])),
    ("aux sealed PDC-SH", Some([809823, 5685843, 3248762, 9746400])),
    ("aux sealed PDC-A", Some([809823, 5685843, 3248762, 9611378])),
    ("aux appended PDC-F", Some([11271995, 11271995, 22543990, 11271995])),
    ("aux appended PDC-H", Some([2416383, 11271995, 13688378, 11271995])),
    ("aux appended PDC-HI", Some([4813200, 22458055, 27271198, 11212800])),
    ("aux appended PDC-SH", Some([2416383, 11271995, 13688378, 11271995])),
    ("aux appended PDC-A", Some([2416383, 11271995, 13688378, 11212800])),
    ("bare sealed PDC-F", Some([9663996, 9663996, 19327992, 9663996])),
    ("bare sealed PDC-H", Some([2416383, 9663996, 12080379, 9663996])),
    ("bare sealed PDC-HI", None),
    ("bare sealed PDC-SH", Some([2416383, 9663996, 12080379, 9663996])),
    ("bare sealed PDC-A", Some([2416383, 9663996, 12080379, 9663996])),
    ("bare appended PDC-F", Some([11271995, 11271995, 22543990, 11271995])),
    ("bare appended PDC-H", Some([2416383, 11271995, 13688378, 11271995])),
    ("bare appended PDC-HI", None),
    ("bare appended PDC-SH", Some([2416383, 11271995, 13688378, 11271995])),
    ("bare appended PDC-A", Some([2416383, 11271995, 13688378, 11271995])),
];

#[test]
fn admission_estimates_are_pinned() {
    let got = record();
    let expected: Vec<(String, Option<Vec<u64>>)> =
        EXPECTED.iter().map(|(k, v)| (k.to_string(), v.map(|v| v.to_vec()))).collect();
    if got != expected {
        let table: String = got
            .iter()
            .map(|(k, v)| format!("    (\"{k}\", {v:?}),\n"))
            .collect();
        panic!("admission estimates moved; the recorded table is now:\n{table}");
    }
}
