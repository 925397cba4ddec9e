//! Pins what a point check charges. A conjunction checks its later
//! constraints only at the locations the first one selected (paper
//! §III-C): the checker groups the candidate runs by region, drops the
//! regions the histogram prunes, and scans only the candidate lanes of the
//! rest. The world below puts candidate runs across region boundaries, one
//! run across three regions, runs of one to a few hundred elements, and
//! candidates in regions the filter's prune drops. Every strategy must
//! return the brute-force selection, a closed series through `serve` must
//! reproduce the sequential outcomes (its opportunistic reuse of cached
//! full-region scans included), and `work.elements_scanned` must equal
//! the table below.
//!
//! A change that moves a charge on purpose re-records the table: the
//! failure message prints the new one in the table's own syntax.

use pdc_odms::{ImportOptions, Odms};
use pdc_query::{
    Arrival, EngineConfig, PdcQuery, QueryEngine, ServiceConfig, ServiceReport, Strategy,
    TenantSpec,
};
use pdc_storage::SimDuration;
use pdc_types::{ObjectId, QueryOp, Selection, TypedVec};
use std::sync::Arc;

/// Elements per region (4 KiB regions of `f32`).
const REGION: usize = 1024;
const N: usize = 16 * REGION;

/// Whether element `i` is a candidate (energy above the primary's bound).
fn hot(i: usize) -> bool {
    match i {
        1000..1050 => true,                           // crosses the region 0 / 1 boundary
        3000..5100 => true,                           // spans regions 2, 3 and 4
        6144..7168 => i.is_multiple_of(3),            // one-element runs
        7168..8192 => i % 9 < 4,                      // four-element runs
        8192..10200 => i.is_multiple_of(2),           // regions the filter prunes
        10200..10300 => true,                         // from a pruned region into a kept one
        12300..12600 => true,                         // one long run ...
        12600..13000 => i % 70 < 63 || i.is_multiple_of(130), // ... then 63-element runs and strays
        16300.. => true,                              // up to the object's end
        _ => false,
    }
}

fn energy_at(i: usize) -> f32 {
    if hot(i) {
        3.0
    } else {
        ((i as f32 * 0.37).sin() + 1.0) * 0.9
    }
}

/// Regions 8 and 9 lie wholly above the filter's bound, so its prune
/// drops them; elsewhere every fifth element fails the filter.
fn x_at(i: usize) -> f32 {
    match i {
        8192..10240 => 900.0,
        _ if i.is_multiple_of(5) => 500.0,
        _ => (i % 7) as f32 * 30.0,
    }
}

struct World {
    odms: Arc<Odms>,
    energy: ObjectId,
    x: ObjectId,
}

fn build_world() -> World {
    let odms = Arc::new(Odms::new(8));
    let c = odms.create_container("point_check");
    let opts = ImportOptions {
        region_bytes: (REGION * 4) as u64,
        build_index: true,
        build_sorted: true,
        ..Default::default()
    };
    let energy = TypedVec::Float((0..N).map(energy_at).collect());
    let x = TypedVec::Float((0..N).map(x_at).collect());
    let energy = odms.import_array(c, "energy", energy, &opts).unwrap().object;
    let x = odms.import_array(c, "x", x, &opts).unwrap().object;
    World { odms, energy, x }
}

fn engine(w: &World, strategy: Strategy, servers: u32) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(&w.odms),
        EngineConfig { strategy, num_servers: servers, ..Default::default() },
    )
}

/// The filter alone, then the conjunction that point-checks it: in a
/// closed series, the first leaves full-region scans of `x < 300` in the
/// server caches for the second's point check to reuse.
fn series(w: &World) -> Vec<PdcQuery> {
    let filter = PdcQuery::create(w.x, QueryOp::Lt, 300.0f32);
    let conj = PdcQuery::create(w.energy, QueryOp::Gt, 2.0f32).and(filter.clone());
    vec![filter, conj]
}

/// `queries` as one client's closed series: one tenant, every arrival
/// at t = 0, served in submission order.
fn serve_closed(eng: &QueryEngine, queries: &[PdcQuery]) -> ServiceReport {
    let cfg = ServiceConfig::new(vec![TenantSpec::new("client", 1, SimDuration::MAX, 0)]);
    let arrivals: Vec<Arrival> = queries
        .iter()
        .map(|q| Arrival { at: SimDuration::ZERO, tenant: "client".into(), query: q.clone() })
        .collect();
    eng.serve(&cfg, &arrivals).unwrap()
}

fn record(w: &World) -> Vec<(String, [u64; 2])> {
    let expect = Selection::from_sorted_coords(
        (0..N).filter(|&i| energy_at(i) > 2.0 && x_at(i) < 300.0).map(|i| i as u64),
    );
    let mut got = Vec::new();
    for servers in [1, 3] {
        for strategy in Strategy::ALL {
            let tag = format!("{strategy} {servers}");
            let qs = series(w);
            let eng = engine(w, strategy, servers);
            let seq: Vec<_> = qs.iter().map(|q| eng.run(q).unwrap()).collect();
            assert_eq!(seq[1].selection, expect, "{tag}: conjunction vs brute force");
            let batch = serve_closed(&engine(w, strategy, servers), &qs);
            assert_eq!(batch.served.len(), seq.len(), "{tag}");
            for (i, (a, b)) in seq.iter().zip(&batch.served).enumerate() {
                let b = &b.outcome;
                assert_eq!(a.selection, b.selection, "{tag}: batch query {i} selection");
                assert_eq!(a.work, b.work, "{tag}: batch query {i} work counters");
                assert_eq!(a.breakdown, b.breakdown, "{tag}: batch query {i} breakdown");
            }
            got.push((tag, [seq[0].work.elements_scanned, seq[1].work.elements_scanned]));
        }
    }
    got
}

/// Recorded from the code that copied each region's clipped candidate
/// runs before checking them run by run; columns are the queries in
/// `series` order.
#[rustfmt::skip]
const EXPECTED: &[(&str, [u64; 2])] = &[
    ("PDC-F 1", [16384, 21183]),
    ("PDC-H 1", [14336, 16043]),
    ("PDC-HI 1", [0, 3755]),
    ("PDC-SH 1", [11468, 8554]),
    ("PDC-A 1", [11468, 8554]),
    ("PDC-F 3", [16384, 21183]),
    ("PDC-H 3", [14336, 16043]),
    ("PDC-HI 3", [0, 3755]),
    ("PDC-SH 3", [11468, 8554]),
    ("PDC-A 3", [11468, 8554]),
];

#[test]
fn point_check_charges_are_pinned() {
    let got = record(&build_world());
    let expected: Vec<(String, [u64; 2])> =
        EXPECTED.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    if got != expected {
        let table: String = got.iter().map(|(k, v)| format!("    (\"{k}\", {v:?}),\n")).collect();
        panic!("point-check charges moved; the recorded table is now:\n{table}");
    }
}
