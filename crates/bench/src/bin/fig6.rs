//! Fig. 6: scaling the number of PDC servers (32–512) for one
//! multi-object query with ~0.011 % selectivity, under the three
//! optimized strategies.
//!
//! More servers ⇒ fewer regions per server ⇒ faster evaluation, with the
//! broadcast and result-return terms growing slowly — "the query
//! evaluation performance with all three optimizations improves with more
//! servers".

use pdc_bench::*;
use pdc_query::{PdcQuery, QueryEngine, Strategy};
use pdc_types::QueryOp;
use std::sync::Arc;

fn main() {
    let scale = Scale::from_env();
    // Region size chosen so even 512 servers all hold regions.
    let region_bytes = (scale.particles as u64 * 4 / 1024).max(4 << 10);
    println!(
        "# Fig. 6 — server scaling, {} particles, region {} ({} regions)\n",
        scale.particles,
        fmt_bytes(region_bytes),
        scale.particles as u64 * 4 / region_bytes
    );
    let data = generate_vpic(&scale);
    let world = import_vpic(&data, region_bytes, true);

    // A multi-object query tuned near the paper's 0.011 % selectivity.
    let query = PdcQuery::create(world.objects.energy, QueryOp::Gt, 1.7f32)
        .and(PdcQuery::range_open(world.objects.x, 100.0f32, 180.0f32))
        .and(PdcQuery::range_open(world.objects.y, -95.0f32, 0.0f32))
        .and(PdcQuery::range_open(world.objects.z, 0.0f32, 66.0f32));

    let strategies =
        [Strategy::Histogram, Strategy::HistogramIndex, Strategy::SortedHistogram];
    let mut table = Table::new(&["servers", "PDC-H", "PDC-HI", "PDC-SH", "nhits"]);
    let mut last: Option<Vec<f64>> = None;
    let mut improved = 0u32;
    let cost = scale.cost(); // physics fixed; only the server count sweeps
    for servers in [32u32, 64, 128, 256, 512] {
        let mut cells = vec![servers.to_string()];
        let mut times = Vec::new();
        let mut nhits = 0;
        for &s in &strategies {
            let eng = QueryEngine::new(Arc::clone(&world.odms), engine_config(s, servers, cost));
            // Warm-up, then report (the paper's best-of-5).
            eng.run(&query).expect("warm-up");
            let out = eng.run(&query).expect("query");
            nhits = out.nhits;
            times.push(out.elapsed.as_secs_f64());
            cells.push(fmt_dur(out.elapsed));
        }
        cells.push(nhits.to_string());
        table.row(cells);
        if let Some(prev) = &last {
            if times.iter().zip(prev).filter(|(t, p)| *t < *p).count() >= 2 {
                improved += 1;
            }
        }
        last = Some(times);
    }
    table.print();
    println!(
        "\nshape: evaluation improves with more servers on {improved}/4 doublings \
         (paper: all three optimizations improve with more servers)"
    );
}
