//! The paper's evaluation on the simulated clock, as one document.
//!
//! [`run`] reproduces every table of §VI — Figs. 3–6, the §V query
//! catalog (E5), the index overheads (E6), the design ablations (E7) and
//! fault injection (E8) — and records each claim the paper makes as a
//! number beside the paper's band ([`claim`]). [`render`] turns that one
//! document into the `results/*.md` pages:
//!
//! ```text
//! {"scale": {..}, "claims": [{"id", "measured", "paper_lo", "paper_hi", "in_band"}, ..],
//!  "results": {"<page>": [<block>, ..], ..}}
//! ```
//!
//! A block is a markdown paragraph (a string) or a table
//! (`{"columns": [..], "rows": [[..], ..]}`); a page ends with the claims
//! whose id starts with `<page>.`. A claim outside its band is recorded,
//! not failed: [`Gates`] fails a run only where strategies, baselines or
//! fault runs disagree on a result.
//!
//! The VPIC data is generated once, and each distinct `(region size,
//! indexed columns)` world is imported once and shared by the sections
//! that read it: each section builds its own engines, whose caches are
//! their own, so a shared world gives the numbers a fresh one would. Only
//! ablation 7, which stages its object to another tier, imports its own.

use crate::{
    engine, engine_config, fmt_bytes, fmt_dur, fmt_sel, generate_vpic, import_vpic,
    multi_object_query, speedup, Gates, Json, Scale, VpicWorld, ALL_STRATEGIES, BEST_REGION,
    REGION_SWEEP,
};
use pdc_baseline::{BlockIndex, Hdf5Baseline};
use pdc_bitmap::{BinnedBitmapIndex, BinningConfig, ValueDomain};
use pdc_histogram::{Histogram, HistogramConfig};
use pdc_odms::{ImportOptions, Odms};
use pdc_query::{EngineConfig, PdcQuery, QueryEngine, Strategy};
use pdc_server::FaultPlan;
use pdc_storage::{CostModel, SimDuration, StorageTier};
use pdc_types::{Interval, ObjectId, QueryOp, TypedVec};
use pdc_workloads::{
    boss_flux_catalog, multi_object_catalog, single_object_catalog, BossConfig, BossData,
    SingleObjectQuerySpec, VpicData,
};
use std::sync::Arc;

/// One claim: `measured`, shown to `decimals` places, beside the paper's
/// band `[lo, hi]` (an infinite `hi` means "at least `lo`" and is stored
/// as `null`). The band test reads the shown value, so a value on the
/// band's edge is in band, and a non-finite one — shown as `null` — is
/// not.
pub fn claim(id: impl Into<String>, measured: f64, decimals: usize, lo: f64, hi: f64) -> Json {
    let shown = Json::fixed(measured, decimals);
    let in_band =
        matches!(&shown, Json::Num(n) if n.parse::<f64>().is_ok_and(|m| lo <= m && m <= hi));
    let bound = |b: f64| Json::Num(if b.is_finite() { b.to_string() } else { "null".into() });
    Json::obj([
        ("id", Json::from(id.into())),
        ("measured", shown),
        ("paper_lo", bound(lo)),
        ("paper_hi", bound(hi)),
        ("in_band", Json::Bool(in_band)),
    ])
}

/// A results page under construction: paragraphs and tables, in order.
#[derive(Default)]
struct Page(Vec<Json>);

impl Page {
    fn text(&mut self, text: impl Into<String>) -> &mut Page {
        self.0.push(Json::Str(text.into()));
        self
    }

    /// A table; `columns` are the headers, separated by `|`.
    fn table(&mut self, columns: &str, rows: Vec<Vec<Json>>) -> &mut Page {
        self.0.push(Json::obj([
            ("columns", columns.split('|').map(|c| Json::from(c.trim())).collect()),
            ("rows", rows.into_iter().map(Json::Arr).collect()),
        ]));
        self
    }
}

/// A table row: each cell through `Json::from`.
macro_rules! row {
    ($($cell:expr),* $(,)?) => { vec![$(Json::from($cell)),*] };
}

/// A page section: a heading, one table and a note under it.
fn section(heading: &str, columns: &str, rows: Vec<Vec<Json>>, note: &str) -> Page {
    let mut page = Page::default();
    page.text(heading).table(columns, rows).text(note);
    page
}

/// `(nhits, query time, get time)` of `q` on each engine, `get_data`
/// fetching `energy`.
fn run_and_get(engines: &[QueryEngine], q: &PdcQuery, energy: ObjectId) -> Vec<Outcome> {
    let run = |eng: &QueryEngine| {
        let out = eng.run(q).expect("query");
        (out.nhits, out.elapsed, eng.get_data(&out, energy).expect("get_data").elapsed)
    };
    engines.iter().map(run).collect()
}

type Outcome = (u64, SimDuration, SimDuration);

/// A simulated duration as a table cell: seconds, to 0.1 ms.
fn secs(d: SimDuration) -> Json {
    Json::Num(fmt_dur(d))
}

/// A single-object query's label: `2.1<E<2.2`.
fn window(spec: &SingleObjectQuerySpec) -> Json {
    Json::from(format!("{}<E<{}", spec.lo, spec.hi))
}

fn interval(spec: &SingleObjectQuerySpec) -> Interval {
    Interval::open(spec.lo as f64, spec.hi as f64)
}

/// A region size as claim ids spell it: `16KiB`.
fn kib(region_bytes: u64) -> String {
    format!("{}KiB", region_bytes >> 10)
}

/// The seven VPIC columns of a world, in `VpicData::variables` order.
fn columns(world: &VpicWorld) -> [ObjectId; 7] {
    let o = world.objects;
    [o.energy, o.x, o.y, o.z, o.ux, o.uy, o.uz]
}

/// One sweep point: our region size and the paper's.
type Sweep = (u64, &'static str);

/// What every section reads, and what they record.
struct Paper<'a> {
    scale: &'a Scale,
    data: VpicData,
    gates: &'a mut Gates,
    claims: Vec<Json>,
}

/// Run the whole evaluation at `scale`. A result that strategies,
/// baselines or fault runs disagree on fails `gates` by name; every
/// section still lands in the document.
pub fn run(scale: &Scale, gates: &mut Gates) -> Json {
    let mut p = Paper { scale, data: generate_vpic(scale), gates, claims: Vec::new() };
    let (mut fig3, mut fig4, mut sizes, mut variables, mut pruning) =
        (Page::default(), Page::default(), Vec::new(), Vec::new(), Vec::new());
    fig3.text(format!(
        "# Fig. 3 — single-object (Energy) queries, {} particles, {} servers",
        scale.particles, scale.servers
    ));
    // Ablations 1–7 and E8, in page order.
    let mut ablations: [Page; 8] = Default::default();
    for sweep in REGION_SWEEP {
        let best = sweep == BEST_REGION;
        let world = import_vpic(&p.data, sweep.0, false);
        p.fig3_region(&mut fig3, &world, sweep);
        pruning.push(pruning_row(&world, sweep));
        if best {
            ablations[3] = p.caching(&world);
            ablations[5] = p.block_index(&world);
            ablations[6] = p.staging(&world);
        }
        drop(world);
        let world = import_vpic(&p.data, sweep.0, true);
        sizes.push(p.size_row(&world, sweep));
        if best {
            fig4 = p.fig4(&world);
            variables = p.variable_rows(&world);
            ablations[4] = p.ordering(&world);
            ablations[7] = p.faults(&world);
        }
    }
    ablations[0] = p.bin_count();
    ablations[1] = section(
        "## 2. Region pruning effectiveness vs. region size",
        "region size | paper | regions | avg pruned | avg survivors",
        pruning,
        "smaller regions prune a larger fraction but leave more surviving regions in\n\
         absolute terms to manage — the paper's region-size trade-off.",
    );
    ablations[2] = p.bitmap_precision();
    let mut e7 = Page::default();
    e7.text(format!("# E7 — design-choice ablations ({} particles)", scale.particles));
    e7.0.extend(ablations.into_iter().flat_map(|page| page.0));

    let pages = [
        ("catalog", p.catalog()),
        ("overheads", overheads(scale, sizes, variables)),
        ("fig3", fig3),
        ("fig4", fig4),
        ("fig5", p.fig5()),
        ("fig6", p.fig6()),
        ("ablations", e7),
    ];
    let mut claims = p.claims;
    claims.sort_by_key(|c| pages.iter().position(|(name, _)| filed_under(c, name)));
    let mut scale_doc = Json::obj([("particles", Json::from(scale.particles))]);
    scale_doc.set("servers", scale.servers).set("boss_objects", scale.boss_objects);
    scale_doc.set("seed", scale.seed);
    let mut doc = Json::obj([("scale", scale_doc)]);
    doc.set("claims", Json::Arr(claims))
        .set("results", Json::obj(pages.map(|(name, page)| (name, Json::Arr(page.0)))));
    doc
}

impl Paper<'_> {
    fn claim(&mut self, id: impl Into<String>, measured: f64, decimals: usize, lo: f64, hi: f64) {
        self.claims.push(claim(id, measured, decimals, lo, hi));
    }

    /// Fig. 3 at one region size: the 15-query catalog, run sequentially
    /// under each optimized strategy (one warm-up pass, then the reported
    /// one: the paper reports the best of ≥ 5 runs), beside the full
    /// scans amortized as "total read time / queries + full scan time".
    fn fig3_region(&mut self, page: &mut Page, world: &VpicWorld, (region_bytes, paper): Sweep) {
        let scale = self.scale;
        let catalog = single_object_catalog();
        let n = catalog.len() as u64;
        let energy = world.objects.energy;
        let queries: Vec<_> =
            catalog.iter().map(|s| PdcQuery::range_open(energy, s.lo, s.hi)).collect();
        // HDF5-F reads the whole object once and scans it per query.
        let h5 = Hdf5Baseline::new(scale.cost(), scale.servers)
            .full_scan_conjunction(&[(&self.data.energy, Interval::open(2.1, 2.2))]);
        let h5_amortized = h5.read_elapsed / n + h5.scan_elapsed;
        // PDC-F: the first query pays the aggregated read, later ones hit the cache.
        let f = engine(world, Strategy::FullScan, scale);
        let f_total: SimDuration = queries.iter().map(|q| f.run(q).expect("PDC-F").elapsed).sum();
        let f_amortized = f_total / n;

        let engines = [Strategy::Histogram, Strategy::HistogramIndex, Strategy::SortedHistogram]
            .map(|s| engine(world, s, scale));
        for q in &queries {
            run_and_get(&engines, q, energy);
        }
        let (mut rows, mut hi_gets, mut sh_max) = (Vec::new(), Vec::new(), 0f64);
        let mut sums = [SimDuration::ZERO; 3];
        for (spec, q) in catalog.iter().zip(&queries) {
            let outs = run_and_get(&engines, q, energy);
            let mut cells = row![window(spec), fmt_sel(spec.paper_selectivity), outs[0].0];
            for (sum, &(_, elapsed, get)) in sums.iter_mut().zip(&outs) {
                cells.extend([secs(elapsed), secs(get)]);
                *sum += elapsed;
            }
            hi_gets.push(outs[1].2);
            sh_max = sh_max.max(speedup(f_amortized, outs[2].1));
            rows.push(cells);
        }
        page.text(format!("## Region size {} (paper: {paper})", fmt_bytes(region_bytes)))
            .text(format!(
                "HDF5-F amortized query time: {}  (read {} / 15 + scan {})\n\
                 PDC-F  amortized query time: {}",
                fmt_dur(h5_amortized),
                fmt_dur(h5.read_elapsed),
                fmt_dur(h5.scan_elapsed),
                fmt_dur(f_amortized),
            ))
            .table(
                "query | selectivity | nhits | PDC-H query | PDC-H get | PDC-HI query | \
                 PDC-HI get | PDC-SH query | PDC-SH get",
                rows,
            );
        let id = |name: &str| format!("fig3.{}.{name}", kib(region_bytes));
        let mean = |i: usize| speedup(f_amortized, sums[i] / n);
        // Rows run from the most to the least selective window: a rise is a
        // `get` that costs more than the one above it.
        let rises = hi_gets.windows(2).filter(|w| w[1] > w[0]).count();
        self.claim(id("f_over_hdf5f"), speedup(h5_amortized, f_amortized), 2, 1.0, 2.0);
        self.claim(id("h_over_f"), mean(0), 1, 2.0, 3.0);
        self.claim(id("hi_over_f"), mean(1), 1, 4.0, 14.0);
        // The paper's per-query SH speedups run from > 4× at 1.3 % to
        // ~1000× at 0.0004 %, so their mean lies between.
        self.claim(id("sh_over_f_mean"), mean(2), 1, 4.0, 1000.0);
        self.claim(id("sh_over_f_max"), sh_max, 0, 1.0, 1000.0);
        self.claim(id("hi_get_rises"), rises as f64, 0, 0.0, 0.0);
    }

    /// Fig. 4: the six conjunctive (energy, x, y, z) queries at the best
    /// region size under the four fixed strategies (the paper has no
    /// PDC-A), beside HDF5-F amortized over the six queries.
    fn fig4(&mut self, world: &VpicWorld) -> Page {
        let (scale, data) = (self.scale, &self.data);
        let (region, paper) = (fmt_bytes(BEST_REGION.0), BEST_REGION.1);
        let catalog = multi_object_catalog();
        let baseline = Hdf5Baseline::new(scale.cost(), scale.servers);
        let engines: Vec<_> =
            ALL_STRATEGIES[..4].iter().map(|&s| engine(world, s, scale)).collect();
        let run =
            |spec| run_and_get(&engines, &multi_object_query(world, spec), world.objects.energy);
        for spec in &catalog {
            run(spec);
        }
        let (mut rows, mut sh_like_h) = (Vec::new(), 0);
        for (qi, spec) in catalog.iter().enumerate() {
            let h5 = baseline.full_scan_conjunction(&[
                (&data.energy, Interval::from_op(QueryOp::Gt, spec.energy_gt as f64)),
                (&data.x, Interval::open(spec.x_lo as f64, spec.x_hi as f64)),
                (&data.y, Interval::open(spec.y_lo as f64, spec.y_hi as f64)),
                (&data.z, Interval::open(spec.z_lo as f64, spec.z_hi as f64)),
            ]);
            let h5_amortized = h5.read_elapsed / catalog.len() as u64 + h5.scan_elapsed;
            let outs = run(spec);
            let (q, nhits) = (qi + 1, outs[0].0);
            let agree = outs.iter().all(|o| o.0 == nhits);
            self.gates.check(format!("fig4 Q{q}: strategies disagree"), agree);
            self.gates
                .check(format!("fig4 Q{q}: the HDF5-F baseline disagrees"), h5.nhits == nhits);
            let sel = fmt_sel(nhits as f64 / scale.particles as f64);
            let mut cells = row![format!("Q{q} E>{}", spec.energy_gt), nhits, sel];
            cells.extend([secs(h5_amortized), secs(outs[0].1)]);
            cells.extend(outs[1..].iter().flat_map(|o| [secs(o.1), secs(o.2)]));
            rows.push(cells);
            if outs[3].1.as_secs_f64() > 0.7 * outs[1].1.as_secs_f64() {
                sh_like_h += 1;
            }
        }
        // Queries where PDC-SH takes over 70 % of PDC-H's time: the paper
        // sees it on "the last queries", where the planner evaluates `x`
        // first and the energy sort stops helping — some, not all six.
        self.claim("fig4.sh_like_h_queries", sh_like_h as f64, 0, 1.0, 5.0);
        let mut page = Page::default();
        page.text(format!(
            "# Fig. 4 — multi-object (energy,x,y,z) queries, {} particles, {} servers, region \
             {region} (paper {paper})",
            scale.particles, scale.servers
        ))
        .table(
            "query | nhits | selectivity | HDF5-F | PDC-F query | PDC-H query | PDC-H get | \
             PDC-HI query | PDC-HI get | PDC-SH query | PDC-SH get",
            rows,
        );
        page
    }

    /// Fig. 5: metadata + data queries on the BOSS-like catalog (§VI-C):
    /// a metadata condition that selects 1000 objects, and a `flux`
    /// condition swept over 11–65 % selectivity.
    fn fig5(&mut self) -> Page {
        let scale = self.scale;
        let odms = Arc::new(Odms::new(64));
        let cfg = BossConfig {
            objects: scale.boss_objects,
            matching_objects: 1_000.min(scale.boss_objects / 2),
            values_per_object: 512,
            seed: scale.seed,
        };
        let opts = ImportOptions { build_index: true, ..Default::default() };
        let boss = BossData::generate_and_import(&odms, &cfg, &opts).expect("import BOSS");
        let (objects, matching) = (boss.objects.len(), boss.matching.len());
        // The BOSS data scale factor: 25 million objects in the paper.
        let factor = 25e6 / objects as f64;
        let cost = CostModel::scaled(factor, factor * scale.servers as f64 / 64.0, 1.0);
        let baseline = Hdf5Baseline::new(cost, scale.servers);
        let engines = [Strategy::Histogram, Strategy::HistogramIndex]
            .map(|s| QueryEngine::new(Arc::clone(&odms), engine_config(s, scale.servers, cost)));
        // The matching objects' flux arrays, for the baseline's traversal.
        let flux = |o| match &*odms.read_region(o, 0).expect("flux") {
            TypedVec::Float(v) => Some(v.clone()),
            _ => None,
        };
        let matching_flux: Vec<Vec<f32>> = boss.matching.iter().filter_map(|&o| flux(o)).collect();
        let all_float = matching_flux.len() == matching;
        self.gates.check("fig5: a matching object's flux is not a float array", all_float);
        let query = |iv: &Interval| {
            let conds = BossData::target_conds();
            engines.each_ref().map(|eng| eng.metadata_data_query(&conds, iv).expect("flux query"))
        };
        let sweep = boss_flux_catalog().into_iter().map(|spec| {
            let bound = BossData::flux_bound_for_selectivity(spec.selectivity);
            (spec.selectivity, bound, Interval::open(0.0, bound))
        });
        let sweep: Vec<_> = sweep.collect();
        for (_, _, iv) in &sweep {
            query(iv);
        }
        let (mut rows, mut h5_over_h, mut h_times) = (Vec::new(), f64::INFINITY, Vec::new());
        for (selectivity, bound, iv) in &sweep {
            let h5 = baseline.boss_traversal(objects as u64, &matching_flux, iv);
            let [h, hi] = query(iv);
            let pct = format!("{:.0}%", selectivity * 100.0);
            let gates = &mut *self.gates;
            gates.check(format!("fig5 {pct}: the HDF5 baseline disagrees"), h.nhits == h5.nhits);
            gates.check(format!("fig5 {pct}: strategies disagree"), h.nhits == hi.nhits);
            let found = h.objects_matched;
            let name = format!("fig5 {pct}: the metadata condition matched {found} objects");
            gates.check(name, found == matching as u64);
            let achieved = h.nhits as f64 / (matching as f64 * cfg.values_per_object as f64);
            h5_over_h = h5_over_h.min(speedup(h5.total(), h.elapsed));
            h_times.push(h.elapsed.as_secs_f64());
            let cells = row![format!("0 < flux < {bound:.2}"), fmt_sel(*selectivity)];
            let times = [h5.total(), h.elapsed, hi.elapsed].map(secs);
            rows.push([cells, row![fmt_sel(achieved), h.nhits], times.into()].concat());
        }
        // "Multi-fold" over HDF5 at every selectivity, and flat across
        // 11–65 %: the slowest PDC-H query within 10 % of the fastest.
        let spread = h_times.iter().fold(0f64, |a, &t| a.max(t))
            / h_times.iter().fold(f64::INFINITY, |a, &t| a.min(t));
        self.claim("fig5.hdf5_over_pdc_h", h5_over_h, 1, 2.0, f64::INFINITY);
        self.claim("fig5.pdc_h_max_over_min", spread, 2, 1.0, 1.1);
        let mut page = Page::default();
        page.text(format!(
            "# Fig. 5 — metadata + data queries on the BOSS catalog, {} objects, {} servers",
            scale.boss_objects, scale.servers
        ))
        .text(format!(
            "catalog: {objects} objects, {matching} designated (RA, Dec) matches, {} flux values",
            boss.total_values
        ))
        .table(
            "flux condition | target sel | achieved sel | nhits | HDF5 traversal | PDC-H | PDC-HI",
            rows,
        )
        .text(format!(
            "PDC metadata resolution is instant (inverted index); HDF5 must open all {objects} \
             files — the paper's multi-fold speedup. PDC times vary little with selectivity \
             because each object is one region, read wholly."
        ));
        page
    }

    /// Fig. 6: one multi-object query near the paper's 0.011 %
    /// selectivity on 32–512 servers, under the three optimized strategies.
    fn fig6(&mut self) -> Page {
        let scale = self.scale;
        // Region size chosen so even 512 servers all hold regions.
        let region_bytes = (scale.particles as u64 * 4 / 1024).max(4 << 10);
        let (region, regions) =
            (fmt_bytes(region_bytes), scale.particles as u64 * 4 / region_bytes);
        let world = import_vpic(&self.data, region_bytes, true);
        let o = world.objects;
        let query = PdcQuery::create(o.energy, QueryOp::Gt, 1.7f32)
            .and(PdcQuery::range_open(o.x, 100.0f32, 180.0f32))
            .and(PdcQuery::range_open(o.y, -95.0f32, 0.0f32))
            .and(PdcQuery::range_open(o.z, 0.0f32, 66.0f32));
        let strategies = [Strategy::Histogram, Strategy::HistogramIndex, Strategy::SortedHistogram];
        let cost = scale.cost(); // physics fixed; only the server count sweeps
        let (mut rows, mut times) = (Vec::new(), Vec::new());
        for servers in [32u32, 64, 128, 256, 512] {
            let outs = strategies.map(|s| {
                let eng =
                    QueryEngine::new(Arc::clone(&world.odms), engine_config(s, servers, cost));
                eng.run(&query).expect("warm-up");
                eng.run(&query).expect("query")
            });
            let agree = outs.iter().all(|out| out.nhits == outs[0].nhits);
            self.gates.check(format!("fig6 at {servers} servers: strategies disagree"), agree);
            let [h, hi, sh] = outs.each_ref().map(|out| secs(out.elapsed));
            rows.push(row![servers, h, hi, sh, outs[2].nhits]);
            times.push(outs.map(|out| out.elapsed));
        }
        // The paper: "all three optimizations improve with more servers" —
        // on each of the four doublings. `improved_doublings` counts those
        // that improve at least two of the three.
        let steps: Vec<[bool; 3]> =
            times.windows(2).map(|w| [0, 1, 2].map(|i| w[1][i] < w[0][i])).collect();
        let count = |keep: &dyn Fn(&[bool; 3]) -> bool| steps.iter().filter(|s| keep(s)).count();
        let majority = count(&|s| s.iter().filter(|&&b| b).count() >= 2);
        self.claim("fig6.improved_doublings", majority as f64, 0, 4.0, 4.0);
        for (i, name) in ["pdc_h", "pdc_hi", "pdc_sh"].into_iter().enumerate() {
            let id = format!("fig6.{name}_improved_doublings");
            self.claim(id, count(&|s| s[i]) as f64, 0, 4.0, 4.0);
        }
        let mut page = Page::default();
        page.text(format!(
            "# Fig. 6 — server scaling, {} particles, region {region} ({regions} regions)",
            scale.particles
        ))
        .table("servers | PDC-H | PDC-HI | PDC-SH | nhits", rows);
        page
    }

    /// E5: the §V query catalog — the paper's selectivities beside the
    /// ones the calibrated synthetic datasets achieve.
    fn catalog(&self) -> Page {
        let (scale, data) = (self.scale, &self.data);
        let n = data.len() as f64;
        let specs = single_object_catalog();
        let single = specs.iter().map(|spec| {
            let achieved = VpicData::exact_selectivity(&data.energy, &interval(spec));
            let ratio = Json::fixed(achieved / spec.paper_selectivity, 2);
            let paper = fmt_sel(spec.paper_selectivity);
            row![window(spec), paper, fmt_sel(achieved), (achieved * n) as u64, ratio]
        });
        let multi = multi_object_catalog().into_iter().enumerate().map(|(i, s)| {
            let hits = (0..data.len())
                .filter(|&k| {
                    data.energy[k] > s.energy_gt
                        && (s.x_lo < data.x[k] && data.x[k] < s.x_hi)
                        && (s.y_lo < data.y[k] && data.y[k] < s.y_hi)
                        && (s.z_lo < data.z[k] && data.z[k] < s.z_hi)
                })
                .count();
            let paper = match s.paper_selectivity {
                p if p.is_nan() => "(unstated)".to_string(),
                p => fmt_sel(p),
            };
            let query = format!("Q{}: E>{} ∧ {}<x<{}", i + 1, s.energy_gt, s.x_lo, s.x_hi);
            let query = format!("{query} ∧ {}<y<{} ∧ {}<z<{}", s.y_lo, s.y_hi, s.z_lo, s.z_hi);
            row![query, paper, fmt_sel(hits as f64 / n), hits]
        });
        let boss = boss_flux_catalog().into_iter().map(|spec| {
            let bound = BossData::flux_bound_for_selectivity(spec.selectivity);
            row![fmt_sel(spec.selectivity), format!("0 < flux < {bound:.3}")]
        });
        let mut page = Page::default();
        page.text("# E5 — query catalog: paper targets vs. achieved selectivities")
            .text(format!("{} particles, seed {:#x}", scale.particles, scale.seed))
            .text("## Single-object queries (Fig. 3's 15 windows)")
            .table("query | paper | achieved | nhits | ratio", single.collect())
            .text("## Multi-object queries (Fig. 4's 6 conjunctions)")
            .table("query | paper | achieved | nhits", multi.collect())
            .text("## BOSS flux sweep (Fig. 5's data conditions)")
            .table("target selectivity | flux bound", boss.collect());
        page
    }

    /// E6 row: a world with every variable indexed, at one region size.
    fn size_row(&mut self, world: &VpicWorld, (region_bytes, paper): Sweep) -> Vec<Json> {
        let meta = world.odms.meta();
        let hist_bytes: u64 =
            columns(world).iter().map(|&o| meta.histogram_metadata_bytes(o)).sum();
        let index_pct = 100.0 * world.index_bytes as f64 / world.data_bytes as f64;
        let sorted_pct = 100.0 * world.sorted_bytes as f64 / (self.scale.particles * 4) as f64;
        // "The Fastbit index file takes 500-600 GB (15 % to 17 % of the
        // total data size) of storage space with different region sizes."
        self.claim(format!("overheads.{}.index_pct", kib(region_bytes)), index_pct, 1, 15.0, 17.0);
        let bytes = [region_bytes, world.data_bytes, world.index_bytes];
        let [region, data, index] = bytes.map(fmt_bytes);
        let sorted = [fmt_bytes(world.sorted_bytes), format!("{sorted_pct:.1}%")];
        let cells = row![region, paper, data, index, format!("{index_pct:.1}%")];
        [cells, sorted.map(Json::from).into(), row![fmt_bytes(hist_bytes)]].concat()
    }

    /// E6 at the best region size: each variable's index against its data.
    fn variable_rows(&mut self, world: &VpicWorld) -> Vec<Vec<Json>> {
        let var_bytes = self.scale.particles as f64 * 4.0;
        let meta = world.odms.meta();
        let totals =
            columns(world).map(|o| meta.index_sizes(o).expect("index sizes").iter().sum::<u64>());
        let pct = |total: u64| 100.0 * total as f64 / var_bytes;
        // The paper's 15–17 % is the queried object's index.
        self.claim("overheads.energy_index_pct", pct(totals[0]), 1, 15.0, 17.0);
        let names = ["Energy", "x", "y", "z", "Ux", "Uy", "Uz"].into_iter().zip(totals);
        names
            .map(|(name, total)| row![name, fmt_bytes(total), format!("{:.1}%", pct(total))])
            .collect()
    }

    /// Ablation 1: histogram bin count — the mean (upper − lower)
    /// selectivity-bound width over the catalog against the metadata size.
    fn bin_count(&self) -> Page {
        let values: Vec<f64> = self.data.energy.iter().map(|&v| v as f64).collect();
        let catalog = single_object_catalog();
        let rows = [16usize, 32, 64, 128, 256].map(|nbins| {
            let cfg = HistogramConfig { nbins_lower_bound: nbins, ..Default::default() };
            let h = Histogram::build(&values, &cfg).expect("histogram");
            let bounds = catalog.iter().map(|s| h.selectivity_bounds(&interval(s)));
            let width: f64 = bounds.map(|(lo, hi)| hi - lo).sum();
            let avg = Json::fixed(width / catalog.len() as f64, 5);
            row![nbins, h.num_bins(), avg, h.size_bytes()]
        });
        section(
            "## 1. Histogram bin count (paper uses 50-100)",
            "bins requested | bins built | avg bound width | bytes",
            rows.into(),
            "more bins tighten the estimate at linear metadata cost; ~64 bins already\n\
             bounds the catalog's windows well — consistent with the paper's 50-100.",
        )
    }

    /// Ablation 3: bitmap precision — index size against how many catalog
    /// queries need a raw-data candidate check.
    fn bitmap_precision(&self) -> Page {
        let values: Vec<f64> = self.data.energy.iter().map(|&v| v as f64).collect();
        let catalog = single_object_catalog();
        let rows = [1u32, 2, 3].map(|precision| {
            let cfg = BinningConfig { precision, ..Default::default() };
            let mut bytes = 0u64;
            let mut checked = vec![false; catalog.len()];
            for chunk in values.chunks((BEST_REGION.0 / 4) as usize) {
                let idx = BinnedBitmapIndex::build_with_domain(chunk, &cfg, ValueDomain::F32)
                    .expect("index");
                bytes += idx.size_bytes_serialized();
                for (hit, s) in checked.iter_mut().zip(&catalog) {
                    *hit |= idx.query(&interval(s)).needs_candidate_check();
                }
            }
            let pct = 100.0 * bytes as f64 / (values.len() * 4) as f64;
            let checks = checked.iter().filter(|&&c| c).count();
            row![precision, fmt_bytes(bytes), format!("{pct:.1}%"), format!("{checks}/15")]
        });
        section(
            "## 3. Bitmap index precision (paper uses precision = 2)",
            "precision | index bytes | % of data | queries needing checks",
            rows.into(),
            "precision 1 is small but its decade-wide bins force raw-data candidate checks\n\
             on the paper's 0.1-wide windows. At precision 2, a window whose `f32` upper\n\
             constant rounds below its decimal (`2.3f32` is 2.29999995) still checks\n\
             candidates: that value tops its bin, so the exclusive bound leaves the bin\n\
             partial (ROADMAP item 12). Precision 3 pays far more space; the paper's\n\
             default is precision 2.",
        )
    }

    /// A PDC-H engine over `world` with one configuration field changed.
    fn pdc_h(&self, world: &VpicWorld, tweak: impl FnOnce(&mut EngineConfig)) -> QueryEngine {
        let mut config = engine_config(Strategy::Histogram, self.scale.servers, self.scale.cost());
        tweak(&mut config);
        QueryEngine::new(Arc::clone(&world.odms), config)
    }

    /// Ablation 4: the server-side region cache on and off across the
    /// sequential Fig. 3 series.
    fn caching(&self, world: &VpicWorld) -> Page {
        let rows = [("64GB-scaled (on)", 1u64 << 30), ("off", 0)].map(|(label, cache_bytes)| {
            let eng = self.pdc_h(world, |c| c.cache_bytes_per_server = cache_bytes);
            let (total, pfs) = fig3_series(world, &eng);
            row![label, secs(total), fmt_bytes(pfs)]
        });
        section(
            "## 4. Region caching across a sequential query series",
            "cache | series total (PDC-H) | PFS bytes read",
            rows.into(),
            "the paper's observed speedup across the sequential series comes from exactly\n\
             this cache: without it every query re-reads its surviving regions.",
        )
    }

    /// Ablation 5: the §III-D2 selectivity-based evaluation order on and
    /// off for the Fig. 4 queries, written least selective (`x`) first as
    /// in the paper's C example.
    fn ordering(&mut self, world: &VpicWorld) -> Page {
        let o = world.objects;
        let rows = [("on (paper)", true), ("off (user order)", false)].map(|(label, ordering)| {
            let eng = self.pdc_h(world, |c| c.order_by_selectivity = ordering);
            let (mut total, mut scanned) = (SimDuration::ZERO, 0u64);
            for s in multi_object_catalog() {
                let q = PdcQuery::range_open(o.x, s.x_lo, s.x_hi)
                    .and(PdcQuery::range_open(o.y, s.y_lo, s.y_hi))
                    .and(PdcQuery::range_open(o.z, s.z_lo, s.z_hi))
                    .and(PdcQuery::create(o.energy, QueryOp::Gt, s.energy_gt));
                eng.run(&q).expect("warm-up");
                let out = eng.run(&q).expect("query");
                total += out.elapsed;
                scanned += out.work.elements_scanned;
            }
            (total, row![label, secs(total), scanned])
        });
        // "The execution order has a significant impact": ordering should
        // not make the series slower.
        let gain = speedup(rows[1].0, rows[0].0);
        self.claim("ablations.ordering_speedup", gain, 2, 1.0, f64::INFINITY);
        section(
            "## 5. Selectivity-based evaluation ordering (the §III-D2 planner)",
            "ordering | Fig. 4 series total (PDC-H) | elements scanned",
            rows.into_iter().map(|(_, row)| row).collect(),
            "evaluating the most selective constraint first shrinks the candidate set the\n\
             later point-checks must touch — \"the execution order has a significant impact\".",
        )
    }

    /// Ablation 6: a min/max block index (related work \[26\]) against the
    /// paper's histogram pruning, at the same partition granularity.
    fn block_index(&self, world: &VpicWorld) -> Page {
        let idx = BlockIndex::build(&self.data.energy, (BEST_REGION.0 / 4) as usize);
        let hists = world.odms.meta().region_histograms(world.objects.energy).expect("hists");
        let cost = self.scale.cost();
        let specs = single_object_catalog();
        let rows = specs.iter().step_by(3).map(|s| {
            let report = idx.query(&self.data.energy, &interval(s), &cost, self.scale.servers);
            let surviving = hists.iter().filter(|h| h.estimate_hits(&interval(s)).upper > 0);
            row![window(s), report.blocks_read, surviving.count(), report.blocks_total]
        });
        section(
            "## 6. Block index (related work ref.26) vs. histogram pruning",
            "query | blocks read (min/max) | regions read (histogram) | total",
            rows.collect(),
            "histogram pruning reads no more (usually fewer) partitions than min/max block\n\
             pruning: occupied-bin tests reject range-straddling partitions min/max cannot.",
        )
    }

    /// Ablation 7: the Fig. 3 series, caches off, from the PFS and again
    /// after staging the object into the node-local burst buffer (§II).
    fn staging(&self, world: &VpicWorld) -> Page {
        let staged = import_vpic(&self.data, BEST_REGION.0, false);
        staged.odms.stage_object(staged.objects.energy, StorageTier::BurstBuffer).expect("staging");
        let rows =
            [("PFS (cold)", world), ("staged to burst buffer", &staged)].map(|(label, w)| {
                let (total, _) = fig3_series(w, &self.pdc_h(w, |c| c.cache_bytes_per_server = 0));
                row![label, secs(total)]
            });
        section(
            "## 7. Burst-buffer staging (deep memory hierarchy, §II)",
            "placement | Fig. 3 series total (PDC-H, cold caches)",
            rows.into(),
            "staging moves the object one tier up the hierarchy; reads then avoid the\n\
             shared PFS entirely — PDC's transparent data-movement value proposition.",
        )
    }

    /// E8: one single-object query per strategy with 0, 1, N/2 and N − 1
    /// of the N servers killed; the hits must equal the fault-free run's.
    fn faults(&mut self, world: &VpicWorld) -> Page {
        let (n, seed, cost) = (self.scale.servers, self.scale.seed, self.scale.cost());
        let spec = &single_object_catalog()[6];
        let q = PdcQuery::range_open(world.objects.energy, spec.lo, spec.hi);
        let mut rows = Vec::new();
        for &strategy in &ALL_STRATEGIES[..4] {
            let mut healthy = None;
            for kills in [0u32, 1, n / 2, n - 1] {
                let plan = (kills > 0).then(|| FaultPlan::kill_count(kills, n, seed));
                let config = EngineConfig { fault_plan: plan, ..engine_config(strategy, n, cost) };
                let eng = QueryEngine::new(Arc::clone(&world.odms), config);
                let out = eng.run(&q).expect("query must survive while one server lives");
                let (hits, elapsed) = *healthy.get_or_insert((out.nhits, out.elapsed));
                let name =
                    format!("E8 {strategy} with {kills}/{n} killed: faults changed the result");
                self.gates.check(name, out.nhits == hits);
                let slowdown = format!("{:.2}x", speedup(out.elapsed, elapsed));
                let cells = row![strategy.label(), format!("{kills}/{n}"), out.nhits];
                let times = row![secs(out.elapsed), secs(out.breakdown.failover), slowdown];
                rows.push([cells, times, row![out.retry_rounds]].concat());
            }
        }
        section(
            &format!(
                "# E8 — fault injection ({n} servers)\n\nquery: {}<Energy<{}",
                spec.lo, spec.hi
            ),
            "strategy | killed | hits | elapsed | failover | slowdown vs healthy | rounds",
            rows,
            "killed servers are detected from their error responses; each of their region\n\
             slots fails over to the next live server of its preference list (its replicas,\n\
             then every other server in rendezvous order), so every row returns the fault-free\n\
             hit count. The degradation curve is the price: retry round-trips plus the\n\
             survivors' larger share.",
        )
    }
}

/// The Fig. 3 series on `world` with `eng`: total time and PFS bytes.
fn fig3_series(world: &VpicWorld, eng: &QueryEngine) -> (SimDuration, u64) {
    single_object_catalog().iter().fold((SimDuration::ZERO, 0), |(total, pfs), s| {
        let out = eng.run(&PdcQuery::range_open(world.objects.energy, s.lo, s.hi)).expect("query");
        (total + out.elapsed, pfs + out.io.pfs_bytes_read)
    })
}

/// Ablation 2 row: the share of regions the histogram eliminates per
/// catalog query, at one region size.
fn pruning_row(world: &VpicWorld, (region_bytes, paper): Sweep) -> Vec<Json> {
    let hists = world.odms.meta().region_histograms(world.objects.energy).expect("histograms");
    let catalog = single_object_catalog();
    let pruned: usize = catalog
        .iter()
        .map(|s| hists.iter().filter(|h| h.estimate_hits(&interval(s)).upper == 0).count())
        .sum();
    let avg_pruned = pruned as f64 / catalog.len() as f64;
    let pct = 100.0 * pruned as f64 / (hists.len() * catalog.len()) as f64;
    let survivors = Json::fixed(hists.len() as f64 - avg_pruned, 1);
    let pruned = format!("{avg_pruned:.1} ({pct:.0}%)");
    row![fmt_bytes(region_bytes), paper, hists.len(), pruned, survivors]
}

/// E6: the index and sorted-copy sizes across the sweep, then each
/// variable's index at the best region size.
fn overheads(scale: &Scale, sizes: Vec<Vec<Json>>, variables: Vec<Vec<Json>>) -> Page {
    let mut page = Page::default();
    page.text("# E6 — acceleration-structure storage overheads")
        .text(format!("{} particles per variable, 7 variables", scale.particles))
        .text("## Index + sorted sizes across region sizes (all 7 variables indexed)")
        .table(
            "region size | paper | data | index | index % | sorted (energy) | sorted % | \
             histogram metadata",
            sizes,
        )
        .text(
            "paper: index = 15-17% of total data size; sorted copy = a full copy of the object \
             (ours also stores the original-coordinate permutation, hence >100% of the energy \
             object).",
        )
        .text("## Per-variable index compressibility (at the best region size)")
        .table("variable | index bytes | % of variable data", variables)
        .text(
            "smooth, cell-ordered variables (positions) compress far better than thermal \
             (momentum) variables — the mix determines the aggregate index fraction.",
        );
    page
}

/// Render every page of a [`run`] document as `(file name, markdown)`:
/// its paragraphs and tables in order, then the claims filed under it.
pub fn render(doc: &Json) -> Vec<(String, String)> {
    let claims = items(doc.get("claims"));
    let Some(Json::Obj(pages)) = doc.get("results") else { return Vec::new() };
    let page = |(name, blocks): &(String, Json)| {
        let block = |block: &Json| match block {
            Json::Str(text) => text.clone(),
            table => {
                let rows: Vec<_> = items(table.get("rows")).iter().map(cells).collect();
                markdown_table(&table.get("columns").map(cells).unwrap_or_default(), &rows)
            }
        };
        let mut parts: Vec<String> = items(Some(blocks)).iter().map(block).collect();
        let rows: Vec<_> = claims.iter().filter(|c| filed_under(c, name)).map(claim_row).collect();
        if !rows.is_empty() {
            let header = ["claim", "measured", "paper", "in band"].map(String::from);
            parts.extend(["## Claims".to_string(), markdown_table(&header, &rows)]);
        }
        (format!("{name}.md"), parts.join("\n\n") + "\n")
    };
    pages.iter().map(page).collect()
}

/// Whether `claim` belongs on `page`: its id starts with `<page>.`.
fn filed_under(claim: &Json, page: &str) -> bool {
    let Some(Json::Str(id)) = claim.get("id") else { return false };
    id.strip_prefix(page).is_some_and(|rest| rest.starts_with('.'))
}

/// The members of an array (none for anything else).
fn items(value: Option<&Json>) -> &[Json] {
    match value {
        Some(Json::Arr(items)) => items,
        _ => &[],
    }
}

/// An array's members as table cells: numbers and strings as written.
fn cells(row: &Json) -> Vec<String> {
    items(Some(row)).iter().map(cell).collect()
}

fn cell(value: &Json) -> String {
    match value {
        Json::Num(s) | Json::Str(s) => s.clone(),
        Json::Bool(b) => (if *b { "yes" } else { "no" }).to_string(),
        other => other.render().trim_end().to_string(),
    }
}

/// A claim record as a row: id, measured value, band, verdict.
fn claim_row(claim: &Json) -> Vec<String> {
    let [id, measured, lo, hi, in_band] = ["id", "measured", "paper_lo", "paper_hi", "in_band"]
        .map(|k| claim.get(k).map(cell).unwrap_or_default());
    let band = if hi == "null" {
        format!(">= {lo}")
    } else if lo == hi {
        lo
    } else {
        format!("{lo}-{hi}")
    };
    vec![id, measured, band, in_band]
}

/// A GitHub-flavoured markdown table, every column padded to its widest
/// cell (widths in bytes, padding in characters).
fn markdown_table(header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> =
            cells.iter().zip(&widths).map(|(c, &w)| format!("{c:w$}")).collect();
        format!("| {} |", padded.join(" | "))
    };
    let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    let lines = [line(header), line(&sep)].into_iter().chain(rows.iter().map(|r| line(r)));
    lines.collect::<Vec<_>>().join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell_row(cells: &[&str]) -> Vec<Json> {
        cells.iter().map(|&c| Json::from(c)).collect()
    }

    /// A table block renders to exactly what the figure bins' `Table`
    /// printer wrote (here Fig. 6 at the default scale), and a page is
    /// its blocks separated by blank lines.
    #[test]
    fn a_table_block_renders_as_the_bins_printed_it() {
        let mut page = Page::default();
        page.text("# Fig. 6");
        page.table(
            "servers | PDC-H | PDC-HI | PDC-SH | nhits",
            vec![
                vec![
                    Json::from(32u32),
                    secs(SimDuration::from_nanos(827_500_000)),
                    Json::fixed(0.4284, 4),
                    "0.0843".into(),
                    395u64.into(),
                ],
                cell_row(&["512", "0.0705", "0.0637", "0.0558", "395"]),
            ],
        );
        let doc = Json::obj([("results", Json::obj([("fig6", Json::Arr(page.0))]))]);
        let expected = "# Fig. 6\n\n\
            | servers | PDC-H  | PDC-HI | PDC-SH | nhits |\n\
            | ------- | ------ | ------ | ------ | ----- |\n\
            | 32      | 0.8275 | 0.4284 | 0.0843 | 395   |\n\
            | 512     | 0.0705 | 0.0637 | 0.0558 | 395   |\n";
        assert_eq!(render(&doc), vec![("fig6.md".to_string(), expected.to_string())]);
    }

    #[test]
    fn claims_on_the_band_edge_are_in_band_and_non_finite_ones_are_not() {
        let in_band = |c: &Json| c.get("in_band") == Some(&Json::Bool(true));
        for (measured, decimals, inside) in [
            (2.0, 1, true),
            (3.0, 1, true),
            (1.96, 1, true), // shown as 2.0
            (3.04, 1, true), // shown as 3.0
            (1.94, 1, false),
            (3.1, 1, false),
            (f64::NAN, 1, false),
            (f64::INFINITY, 0, false),
        ] {
            let c = claim("fig9.x", measured, decimals, 2.0, 3.0);
            assert_eq!(in_band(&c), inside, "{measured}");
        }
        let open = claim("fig9.open", f64::INFINITY, 1, 2.0, f64::INFINITY);
        assert!(!in_band(&open));
        assert_eq!(
            open.render(),
            "{\n  \"id\": \"fig9.open\",\n  \"measured\": null,\n  \"paper_lo\": 2,\n  \
             \"paper_hi\": null,\n  \"in_band\": false\n}\n"
        );
        assert!(in_band(&claim("fig9.open", 1e9, 0, 2.0, f64::INFINITY)));

        let doc = Json::obj([
            ("claims", Json::Arr(vec![open, claim("fig99.y", 2.5, 2, 2.0, 3.0)])),
            ("results", Json::obj([("fig9", Json::Arr(vec!["# Fig. 9".into()]))])),
        ]);
        let page = &render(&doc)[0].1;
        assert!(page.ends_with("| fig9.open | null     | >= 2  | no      |\n"), "{page}");
        assert!(!page.contains("fig99.y"), "a claim is filed under its own page only");
    }

    /// The whole evaluation at 64 Ki particles: every result agrees,
    /// every claim is recorded, and a second run renders byte for byte
    /// the same document and pages.
    #[test]
    fn small_paper_run_records_every_claim_and_is_deterministic() {
        let scale = Scale { particles: 64 << 10, servers: 8, boss_objects: 200, seed: 7 };
        let dir = crate::scratch_dir("paper");
        let run_once = || {
            let mut gates = Gates::at(dir.join("BENCH_paper.json"));
            let doc = run(&scale, &mut gates);
            assert!(gates.all_passed(), "{:?}", gates.verdict(&doc));
            doc
        };
        let (doc, again) = (run_once(), run_once());
        assert_eq!(doc.render(), again.render());
        let pages = render(&doc);
        assert_eq!(pages, render(&again));

        let mut expected = Vec::new();
        for (region_bytes, _) in REGION_SWEEP {
            let size = kib(region_bytes);
            for name in ["f_over_hdf5f", "h_over_f", "hi_over_f", "sh_over_f_mean", "sh_over_f_max"]
            {
                expected.push(format!("fig3.{size}.{name}"));
            }
            expected.push(format!("fig3.{size}.hi_get_rises"));
            expected.push(format!("overheads.{size}.index_pct"));
        }
        expected.extend(
            [
                "overheads.energy_index_pct",
                "fig4.sh_like_h_queries",
                "fig5.hdf5_over_pdc_h",
                "fig5.pdc_h_max_over_min",
                "fig6.improved_doublings",
                "fig6.pdc_h_improved_doublings",
                "fig6.pdc_hi_improved_doublings",
                "fig6.pdc_sh_improved_doublings",
                "ablations.ordering_speedup",
            ]
            .map(String::from),
        );
        let mut ids: Vec<&str> = items(doc.get("claims"))
            .iter()
            .filter_map(|c| match c.get("id") {
                Some(Json::Str(id)) => Some(id.as_str()),
                _ => None,
            })
            .collect();
        ids.sort();
        expected.sort();
        assert_eq!(ids, expected);
        let names: Vec<&str> = pages.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(
            names,
            [
                "catalog.md",
                "overheads.md",
                "fig3.md",
                "fig4.md",
                "fig5.md",
                "fig6.md",
                "ablations.md"
            ]
        );
        assert!(pages[2].1.contains("| fig3.16KiB.h_over_f "));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
