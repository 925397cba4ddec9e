//! `serve_ingest`: writes beside reads through the same layers.
//!
//! One **cycle** starts from a fresh world (`Energy` at its base extent,
//! index + sorted replica, one PDC-A engine, warmed) and runs a fixed
//! number of **windows**. A window is (a) a seeded three-tenant Poisson
//! arrival trace replayed by `QueryEngine::serve`, then (b)
//! `Odms::append_array` of one chunk plus `run_deferred_maintenance`
//! (epoch bump, tail-index and sorted-replica rebuild, cache
//! invalidation). Whole cycles repeat until the measuring time is used
//! up; every cycle sees the same inputs, so the simulated numbers do not
//! depend on how many cycles the host managed.
//!
//! The trace is **open-loop in simulated time**: arrival timestamps are
//! generated up front and `serve` replays them on the simulated clock, so
//! there is no generator to run late; on the wall clock the replay is one
//! closed call. Arrival rates, budgets and the horizon are fixed
//! constants — multiples of the warm solo elapsed `E` of the first pool
//! query as measured when the benchmark was frozen — so the inputs never
//! depend on the program under test.
//!
//! The arrival schedule (times, tenants, which pool query) is part of the
//! workload's definition: it is drawn once from [`TRACE_SEED`], not from
//! the run's seed. After every append the servers restart cold, and the
//! tail latency of that transient is chaotic in the arrival order — with
//! a per-seed schedule the p99 moved by ±25 % from seed to seed, with a
//! fixed one by under 1 %. The run's seed drives the generated data and
//! the jitter of the pool's query windows.

use crate::gen::{self, GenArrival, QuerySpec, TenantLoad, Var};
use crate::layers::{self, OutcomeAgg};
use crate::measure::{repeat_until, set_up_repeatedly};
use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};
use crate::oracle;
use crate::probes::{self, ReplayCtx};
use crate::stats;
use crate::trace::{OpTrace, Tracer, STANDALONE_OP};
use crate::world::{self, World, WorldSpec};
use crate::{Args, Report};
use pdc_query::{
    parse_query, Arrival, PdcQuery, QueryEngine, ServiceConfig, ServiceReport, Strategy, TenantSpec,
};
use pdc_storage::SimDuration;
use pdc_types::TypedVec;
use pdc_workloads::{VpicConfig, VpicData};
use std::time::Instant;

/// Logical servers.
const SERVERS: u32 = 8;
/// Region size.
const REGION_BYTES: u64 = 64 << 10;
/// Windows per cycle.
const WINDOWS: usize = 4;
/// Warm solo simulated elapsed of the first pool query at the full base
/// extent, in seconds, as measured when the benchmark was frozen. Rates,
/// budgets and the horizon below are stated in this unit.
const E_S: f64 = 1.5;
/// Trace horizon in units of `E`.
const HORIZON_E: f64 = 160.0;
/// Seed of the arrival schedule (see the module docs).
const TRACE_SEED: u64 = 0x7ACE;

/// Dataset sizes.
struct Sizes {
    base: usize,
    chunk: usize,
}

impl Sizes {
    fn of(smoke: bool) -> Sizes {
        if smoke {
            Sizes { base: 150_000, chunk: 12_500 }
        } else {
            Sizes { base: 1_000_000, chunk: 62_500 }
        }
    }

    fn total(&self) -> usize {
        self.base + WINDOWS * self.chunk
    }

    fn extents(&self) -> Vec<usize> {
        (0..=WINDOWS).map(|k| self.base + k * self.chunk).collect()
    }
}

/// Two well-behaved tenants at 0.12/E each and one flood at 8x that rate
/// with a 2 E admission budget; the flood's deferral queue is deep enough
/// that nothing is rejected. The offered load is about 0.55 of what the
/// engine completes per simulated second, so the backlog does not grow
/// over the horizon — the latency tail is the cold restart after each
/// append and the flood's deferrals, not an overloaded queue.
fn tenants() -> Vec<TenantLoad> {
    let well = 0.12 / E_S;
    vec![
        TenantLoad {
            name: "well-a",
            weight: 4,
            rate_hz: well,
            budget_s: 1000.0 * E_S,
            queue_cap: 64,
        },
        TenantLoad {
            name: "well-b",
            weight: 4,
            rate_hz: well,
            budget_s: 1000.0 * E_S,
            queue_cap: 64,
        },
        TenantLoad {
            name: "flood",
            weight: 1,
            rate_hz: 8.0 * well,
            budget_s: 2.0 * E_S,
            queue_cap: 100_000,
        },
    ]
}

fn service_config(tenants: &[TenantLoad]) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(
        tenants
            .iter()
            .map(|t| {
                TenantSpec::new(
                    t.name,
                    t.weight,
                    SimDuration::from_secs_f64(t.budget_s),
                    t.queue_cap,
                )
            })
            .collect(),
    );
    cfg.quantum = SimDuration::from_secs_f64(E_S);
    cfg
}

/// One set-up world: base extent imported, engine started and warmed.
struct Ready {
    world: World,
    engine: QueryEngine,
    pool: Vec<PdcQuery>,
}

impl Ready {
    fn set_up(data: &VpicData, sizes: &Sizes, specs: &[QuerySpec]) -> Ready {
        let world = World::build(
            &WorldSpec {
                vars: vec![Var::Energy],
                region_bytes: REGION_BYTES,
                index: true,
                sorted_energy: true,
                joint: None,
                spill: None,
            },
            data,
            sizes.base,
        );
        let engine = start_engine(&world, sizes);
        let pool: Vec<PdcQuery> = specs
            .iter()
            .map(|q| parse_query(&q.text, &world.odms).expect("generated query text parses"))
            .collect();
        for q in &pool {
            engine.run(q).expect("warm-up query succeeds");
        }
        Ready { world, engine, pool }
    }
}

fn start_engine(world: &World, sizes: &Sizes) -> QueryEngine {
    world.engine(Strategy::Adaptive, SERVERS, world::cost_model(sizes.total(), SERVERS))
}

/// What one window measured.
struct WindowSample {
    served: u64,
    serve_s: f64,
    appended: u64,
    write_s: f64,
    sim_elapsed_ms: Vec<f64>,
    sim_latency_ms: Vec<f64>,
}

/// One cycle's windows.
struct Cycle {
    windows: Vec<WindowSample>,
}

impl Cycle {
    fn serve_s(&self) -> f64 {
        self.windows.iter().map(|w| w.serve_s).sum()
    }
    fn write_s(&self) -> f64 {
        self.windows.iter().map(|w| w.write_s).sum()
    }
    fn served(&self) -> u64 {
        self.windows.iter().map(|w| w.served).sum()
    }
    fn appended(&self) -> u64 {
        self.windows.iter().map(|w| w.appended).sum()
    }
    fn sims(&self, f: impl Fn(&WindowSample) -> &Vec<f64>) -> Vec<f64> {
        self.windows.iter().flat_map(|w| f(w).iter().copied()).collect()
    }
}

/// Extra work a replay cycle does per window (traced run only).
struct ReplayState {
    ctx: ReplayCtx,
    agg: OutcomeAgg,
    twin: QueryEngine,
    twin_run_s: Vec<f64>,
    serve_s: f64,
    group: GroupTotals,
}

/// Shared-scan group and admission counters summed over windows.
#[derive(Default)]
struct GroupTotals {
    members: u64,
    late_joins: u64,
    prewarm_regions: u64,
    deferrals: u64,
    submitted: u64,
}

struct Serve {
    sizes: Sizes,
    seed: u64,
    data: VpicData,
    specs: Vec<QuerySpec>,
    /// `expected[q][k]`: exact hits of pool query `q` over extent `k`.
    expected: Vec<Vec<u64>>,
    tenants: Vec<TenantLoad>,
    arrivals: Vec<Vec<GenArrival>>,
    cfg: ServiceConfig,
    attempted: u64,
    failed: u64,
    op_seq: u64,
}

impl Serve {
    fn window_arrivals(&self, ready: &Ready, w: usize) -> Vec<Arrival> {
        self.arrivals[w]
            .iter()
            .map(|a| Arrival {
                at: SimDuration::from_secs_f64(a.at_s),
                tenant: self.tenants[a.tenant].name.to_string(),
                query: ready.pool[a.query].clone(),
            })
            .collect()
    }

    /// Check every served query against the oracle at the extent it
    /// planned over; refused arrivals count as failed operations.
    fn check(&mut self, w: usize, report: &ServiceReport) {
        let extents = self.sizes.extents();
        self.failed += report.rejected.len() as u64;
        for s in &report.served {
            let q = self.arrivals[w][s.arrival_index].query;
            let extent = extents.iter().position(|&e| e as u64 == s.outcome.planned_elements);
            let ok = extent.is_some_and(|k| s.outcome.nhits == self.expected[q][k])
                && s.outcome.selection.count() == s.outcome.nhits;
            if !ok {
                self.failed += 1;
                eprintln!(
                    "wrong answer: {} at extent {}",
                    self.specs[q].text, s.outcome.planned_elements
                );
            }
        }
    }

    /// One cycle over a freshly set-up world. Each window's root span is
    /// recorded in two halves sharing one operation id — the read half
    /// (`serve`) and the write half (append + maintenance) — so that the
    /// replay cycle can do its extra work between them, against the store
    /// extent the serve saw, without inflating either half.
    fn cycle(
        &mut self,
        ready: &Ready,
        mut tracer: Option<&mut Tracer>,
        mut replay: Option<&mut ReplayState>,
    ) -> Cycle {
        let mut windows = Vec::with_capacity(WINDOWS);
        let energy = ready.world.id(Var::Energy);
        for w in 0..WINDOWS {
            let arrivals = self.window_arrivals(ready, w);
            self.op_seq += 1;
            self.attempted += arrivals.len() as u64 + 2;
            let mut sample = WindowSample {
                served: 0,
                serve_s: 0.0,
                appended: 0,
                write_s: 0.0,
                sim_elapsed_ms: Vec::new(),
                sim_latency_ms: Vec::new(),
            };

            let mut spans = OpTrace::begin(tracer.as_deref_mut(), "bench.window", self.op_seq);
            let t = Instant::now();
            let (report, _) = spans.child("service.serve", || {
                (ready.engine.serve(&self.cfg, &arrivals), arrivals.len() as u64)
            });
            sample.serve_s = t.elapsed().as_secs_f64();
            spans.finish();
            match report {
                Ok(report) => {
                    self.check(w, &report);
                    sample.served = report.served.len() as u64;
                    for s in &report.served {
                        sample.sim_elapsed_ms.push(s.outcome.elapsed.as_secs_f64() * 1e3);
                        sample.sim_latency_ms.push(s.latency().as_secs_f64() * 1e3);
                    }
                    if let (Some(state), Some(t)) = (replay.as_deref_mut(), tracer.as_deref_mut()) {
                        self.replay_window(ready, state, t, w, &arrivals, &report, sample.serve_s);
                    }
                }
                Err(e) => {
                    self.failed += arrivals.len() as u64;
                    eprintln!("serve failed in window {w}: {e}");
                }
            }

            let lo = self.sizes.base + w * self.sizes.chunk;
            let delta = TypedVec::Float(self.data.energy[lo..lo + self.sizes.chunk].to_vec());
            let mut spans = OpTrace::begin(tracer.as_deref_mut(), "bench.window", self.op_seq);
            let t = Instant::now();
            let (appended, _) = spans.child("odms.append_array", || {
                (ready.world.odms.append_array(energy, &delta), delta.len() as u64)
            });
            let (maintained, _) = spans.child("odms.run_deferred_maintenance", || {
                (ready.world.odms.run_deferred_maintenance(), 0)
            });
            sample.write_s = t.elapsed().as_secs_f64();
            spans.finish();
            match (appended, maintained) {
                (Ok(a), Ok(_)) => sample.appended = a.appended_elems,
                (a, m) => {
                    self.failed += u64::from(a.is_err()) + u64::from(m.is_err());
                    eprintln!("ingest failed in window {w}: {:?} {:?}", a.err(), m.err());
                }
            }
            windows.push(sample);
        }
        Cycle { windows }
    }

    /// The replay cycle's extra per-window work, between the window's serve
    /// and its append: the same queries in dispatch order through `run` on
    /// a twin engine (for `service.batching_gain`), one standalone replay
    /// per distinct pool query, the shared-scan counters, and the
    /// histogram-merge probe on the chunk about to be appended.
    #[allow(clippy::too_many_arguments)]
    fn replay_window(
        &mut self,
        ready: &Ready,
        state: &mut ReplayState,
        t: &mut Tracer,
        w: usize,
        arrivals: &[Arrival],
        report: &ServiceReport,
        serve_s: f64,
    ) {
        state.serve_s += serve_s;
        state.group.deferrals += report.stats.deferrals;
        state.group.submitted += report.stats.submitted;
        if let Some(g) = report.group {
            state.group.members += g.members;
            state.group.late_joins += g.late_joins;
            state.group.prewarm_regions += g.prewarm_regions;
        }
        let mut order: Vec<&pdc_query::ServedQuery> = report.served.iter().collect();
        order.sort_by_key(|s| s.dispatched_at);
        for s in order {
            state.agg.add(&s.outcome);
            let t0 = Instant::now();
            let solo = state.twin.run(&arrivals[s.arrival_index].query);
            state.twin_run_s.push(t0.elapsed().as_secs_f64());
            if solo.map_or(true, |o| o.nhits != s.outcome.nhits) {
                self.failed += 1;
                eprintln!("twin run disagrees with the served outcome in window {w}");
            }
        }
        let extent = self.sizes.base + w * self.sizes.chunk;
        for (qi, q) in ready.pool.iter().enumerate() {
            let run = t.begin("engine.run", None, STANDALONE_OP, false);
            let solo = state.twin.run(q);
            t.end(run, 1, 0);
            let exact = self.expected[qi][w] as f64 / extent as f64;
            let replayed = solo
                .and_then(|_| probes::replay_query(t, &mut state.ctx, &state.twin, q, run, exact));
            if let Err(e) = replayed {
                self.failed += 1;
                eprintln!("replay failed: {}: {e}", self.specs[qi].text);
            }
        }
        let lo = self.sizes.base + w * self.sizes.chunk;
        let chunk = &self.data.energy[lo..lo + self.sizes.chunk];
        if let Err(e) =
            probes::histogram_merge_probe(t, &ready.world.odms, ready.world.id(Var::Energy), chunk)
        {
            eprintln!("histogram merge probe failed: {e}");
        }
    }

    /// Whole cycles until `seconds` of serve + ingest wall time are used
    /// (at least two; exactly `fixed` when given). Each cycle after the
    /// first sets a fresh world up first.
    fn cycles(
        &mut self,
        first: Ready,
        seconds: f64,
        fixed: Option<usize>,
        mut tracer: Option<&mut Tracer>,
    ) -> Vec<Cycle> {
        let mut ready = Some(first);
        repeat_until(seconds, fixed, || {
            let r =
                ready.take().unwrap_or_else(|| Ready::set_up(&self.data, &self.sizes, &self.specs));
            let c = self.cycle(&r, tracer.as_deref_mut(), None);
            let used_s = c.serve_s() + c.write_s();
            (c, used_s)
        })
    }

    /// Simulated numbers must repeat exactly from cycle to cycle.
    fn check_sim_repeats(&mut self, cycles: &[Cycle]) {
        let Some(first) = cycles.first() else { return };
        for c in &cycles[1..] {
            if c.sims(|w| &w.sim_latency_ms) != first.sims(|w| &w.sim_latency_ms)
                || c.sims(|w| &w.sim_elapsed_ms) != first.sims(|w| &w.sim_elapsed_ms)
            {
                self.failed += 1;
                eprintln!("simulated times drifted between cycles");
            }
        }
    }
}

/// Run `serve_ingest` as `args` asks.
pub fn run(args: &Args) -> Report {
    let sizes = Sizes::of(args.smoke);
    let specs = gen::serve_pool_queries(args.seed);
    let horizon_s = HORIZON_E * E_S;
    let tenants = tenants();
    let arrivals: Vec<Vec<GenArrival>> = (0..WINDOWS)
        .map(|w| gen::window_arrivals(TRACE_SEED, w as u64, &tenants, specs.len(), horizon_s))
        .collect();

    // Set-up: generate + import + index/sorted builds + engine start +
    // warm-up. The last world is the first cycle's.
    let ((data, first), setup_s) = set_up_repeatedly(|| {
        let data = VpicData::generate(&VpicConfig { particles: sizes.total(), seed: args.seed });
        let ready = Ready::set_up(&data, &sizes, &specs);
        (data, ready)
    });
    let stored = first.world.stored_bytes_per_user_byte();
    let solo_ms = first.engine.run(&first.pool[0]).map_or(0.0, |o| o.elapsed.as_secs_f64() * 1e3);
    let extents = sizes.extents();
    let expected: Vec<Vec<u64>> =
        specs.iter().map(|q| oracle::count_hits_at(q, &data, &extents)).collect();

    let mut serve = Serve {
        sizes,
        seed: args.seed,
        data,
        specs,
        expected,
        cfg: service_config(&tenants),
        tenants,
        arrivals,
        attempted: 0,
        failed: 0,
        op_seq: 0,
    };
    let fixed = args.smoke.then_some(2);
    let mut info: Vec<(String, f64)> = vec![
        ("base_elements".into(), serve.sizes.base as f64),
        ("append_elements_per_window".into(), serve.sizes.chunk as f64),
        ("windows_per_cycle".into(), WINDOWS as f64),
        ("arrivals_per_cycle".into(), serve.arrivals.iter().map(Vec::len).sum::<usize>() as f64),
        ("region_bytes".into(), REGION_BYTES as f64),
        ("servers".into(), f64::from(SERVERS)),
        ("region_cache_bytes_per_server".into(), world::REGION_CACHE_BYTES as f64),
        ("frozen_solo_elapsed_ms".into(), E_S * 1e3),
        ("measured_solo_elapsed_ms".into(), solo_ms),
        ("generator_lateness_ms".into(), 0.0),
    ];

    let (metrics, trace) = if args.trace {
        let (m, extra, t) = traced(&mut serve, first, args.seconds, fixed);
        info.extend(extra);
        (m, Some(t))
    } else {
        let cycles = serve.cycles(first, args.seconds, fixed, None);
        serve.check_sim_repeats(&cycles);
        info.push(("cycles".into(), cycles.len() as f64));
        let mut m = MetricSet::new(END_TO_END);
        let rates: Vec<f64> = cycles.iter().map(|c| c.served() as f64 / c.serve_s()).collect();
        // A cycle's first window is warm and the later ones follow an
        // append: take each window position's time over the cycles first
        // (the fast quartile, see `stats::fast_time`), then the median over
        // the positions.
        let per_query_ms: Vec<f64> = (0..WINDOWS)
            .map(|w| {
                let at_w: Vec<f64> = cycles
                    .iter()
                    .map(|c| &c.windows[w])
                    .filter(|w| w.served > 0)
                    .map(|w| w.serve_s * 1e3 / w.served as f64)
                    .collect();
                stats::fast_time(&at_w)
            })
            .collect();
        let ingest: Vec<f64> =
            cycles.iter().map(|c| c.appended() as f64 / 1e6 / c.write_s()).collect();
        let latencies = stats::sorted(&cycles[0].sims(|w| &w.sim_latency_ms));
        m.set("queries_per_s", stats::fast_rate(&rates));
        m.set("query_wall_p50_ms", stats::median(&per_query_ms));
        m.set("sim_query_mean_ms", stats::mean(&cycles[0].sims(|w| &w.sim_elapsed_ms)));
        m.set("sim_latency_p99_ms", stats::percentile_sorted(&latencies, 99.0));
        m.set("ingest_melems_per_s", stats::fast_rate(&ingest));
        m.set("disk_bytes_per_user_byte", stored);
        m.set("setup_s", stats::median(&setup_s));
        m.set("peak_rss_mb", world::peak_rss_mb());
        (m, None)
    };
    Report { metrics, attempted: serve.attempted, failed: serve.failed, info, trace }
}

/// The traced run: untraced cycles, traced cycles (their rate ratio is the
/// tracing overhead), then one replay cycle with the per-layer probes.
fn traced(
    serve: &mut Serve,
    first: Ready,
    seconds: f64,
    fixed: Option<usize>,
) -> (MetricSet, Vec<(String, f64)>, Tracer) {
    let untraced = serve.cycles(first, seconds * 0.45, fixed, None);
    serve.check_sim_repeats(&untraced);
    let mut tracer = Tracer::new();
    let ready = Ready::set_up(&serve.data, &serve.sizes, &serve.specs);
    let traced = serve.cycles(ready, seconds * 0.30, fixed, Some(&mut tracer));

    // The replay cycle, with a twin engine warmed exactly like the first.
    let ready = Ready::set_up(&serve.data, &serve.sizes, &serve.specs);
    let twin = start_engine(&ready.world, &serve.sizes);
    for q in &ready.pool {
        twin.run(q).expect("twin warm-up query succeeds");
    }
    let energy = ready.world.id(Var::Energy);
    let mut state = ReplayState {
        ctx: ReplayCtx::new(SERVERS),
        agg: OutcomeAgg::default(),
        twin,
        twin_run_s: Vec::new(),
        serve_s: 0.0,
        group: GroupTotals::default(),
    };
    let replay_from = serve.op_seq + 1;
    serve.cycle(&ready, Some(&mut tracer), Some(&mut state));
    serve.failed += state.ctx.counts.mismatches;
    let pool_intervals: Vec<_> = serve.specs.iter().map(|q| q.terms[0].interval).collect();
    let odms = &ready.world.odms;
    let probed =
        probes::storage_format_probes(&mut tracer, odms, energy, &world::out_dir(), false, true)
            .and_then(|()| probes::fused_scan_probe(&mut tracer, odms, energy, &pool_intervals));
    if let Err(e) = probed {
        serve.failed += 1;
        eprintln!("standalone probes failed: {e}");
    }
    let cli_ms = cli_serve_probe(serve);

    let mut m = MetricSet::new(PER_LAYER);
    layers::fill_spans(&mut m, &tracer, replay_from, "bench.window");
    layers::fill_counts(&mut m, &state.ctx.counts);
    layers::fill_world(&mut m, &ready.world);
    state.agg.fill(&mut m);
    layers::fill_run_tail(&mut m, &state.twin_run_s);
    let g = &state.group;
    let div = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    m.set("qcache.late_join_ratio", div(g.late_joins, g.members));
    m.set("qcache.prewarm_regions_per_member", div(g.prewarm_regions, g.members));
    m.set("service.deferral_ratio", div(g.deferrals, g.submitted));
    m.set("service.batching_gain", state.twin_run_s.iter().sum::<f64>() / state.serve_s);
    m.set("cli.serve_trace_wall_ms", cli_ms);
    let rate = |cs: &[Cycle]| {
        stats::fast_rate(&cs.iter().map(|c| c.served() as f64 / c.serve_s()).collect::<Vec<_>>())
    };
    m.set("bench.trace_overhead_ratio", rate(&traced) / rate(&untraced));
    let info = vec![
        ("cycles_untraced".to_string(), untraced.len() as f64),
        ("cycles_traced".to_string(), traced.len() as f64),
        ("replay_mismatches".to_string(), state.ctx.counts.mismatches as f64),
    ];
    (m, info, tracer)
}

/// Wall time of the user-visible `pdc serve` path, world build included:
/// window 0's trace written as a trace file and replayed in-process
/// through the CLI on a small world. Returns milliseconds (0 on failure,
/// which is also counted).
fn cli_serve_probe(serve: &mut Serve) -> f64 {
    use std::fmt::Write as _;
    let mut text = String::new();
    for t in &serve.tenants {
        let _ = writeln!(
            text,
            "tenant {} weight={} budget-ms={} cap={}",
            t.name,
            t.weight,
            t.budget_s * 1e3,
            t.queue_cap
        );
    }
    for a in &serve.arrivals[0] {
        let _ = writeln!(
            text,
            "{} {} {}",
            a.at_s * 1e3,
            serve.tenants[a.tenant].name,
            serve.specs[a.query].text
        );
    }
    let path = world::out_dir().join(format!("cli-trace-{}.txt", std::process::id()));
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("cli probe: cannot write {}: {e}", path.display());
        serve.failed += 1;
        return 0.0;
    }
    let argv = [
        "serve",
        "--trace-file",
        &path.to_string_lossy(),
        "--particles",
        "100000",
        "--servers",
        "8",
        "--seed",
        &serve.seed.to_string(),
    ]
    .map(String::from);
    let t = Instant::now();
    let result = pdc_cli::parse_args(argv).and_then(pdc_cli::run);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_file(&path);
    match result {
        Ok(_) => ms,
        Err(e) => {
            eprintln!("cli probe failed: {e}");
            serve.failed += 1;
            0.0
        }
    }
}
