//! The closed-loop driver shared by `scan_wide`, `selective_catalog` and
//! `spill_cold`: one client, zero think time, the next operation sent
//! only after the previous one completed.
//!
//! One **pass** runs every (query, engine) pair once. After set-up (which
//! ends with one untimed warm-up pass) whole passes repeat until the
//! measuring time is used up, so every run measures the same operation
//! list and the simulated numbers — which repeat exactly from pass to
//! pass — do not depend on how many passes the host managed.

use crate::gen::{QuerySpec, Var};
use crate::layers::{self, OutcomeAgg};
use crate::measure::{repeat_until, set_up_repeatedly};
use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};
use crate::oracle;
use crate::probes::{self, ReplayCtx};
use crate::stats;
use crate::trace::{OpTrace, SpanId, Tracer};
use crate::world::{self, SpillSpec, World, WorldSpec};
use crate::{Args, Report};
use pdc_query::{parse_query, PdcQuery, QueryEngine, QueryOutcome, Strategy};
use pdc_types::{Interval, PdcResult};
use pdc_workloads::{VpicConfig, VpicData};
use std::time::Instant;

/// What distinguishes one closed-loop workload from another.
pub struct ClosedSpec {
    /// Workload name.
    pub name: &'static str,
    /// Particles generated and imported.
    pub particles: usize,
    /// Variables imported.
    pub vars: &'static [Var],
    /// Region size in bytes.
    pub region_bytes: u64,
    /// Logical servers per engine.
    pub servers: u32,
    /// Build bitmap indexes for every variable and the sorted replica of
    /// `Energy`.
    pub aux: bool,
    /// Register a joint-bounds grid on this pair.
    pub joint: Option<(Var, Var)>,
    /// Out-of-core mode: `(memory budget, block cache)` as divisors of the
    /// raw user bytes.
    pub spill: Option<(u64, u64)>,
    /// One engine per strategy; a pass alternates them per query.
    pub strategies: &'static [Strategy],
    /// Operation = parse the text → `run` → `get_data(Energy)`; otherwise
    /// the operation is `run` on a query parsed at set-up.
    pub text_ops: bool,
    /// The seeded query list.
    pub queries: fn(u64) -> Vec<QuerySpec>,
}

/// A set-up world, ready to measure.
struct Ready {
    data: VpicData,
    world: World,
    engines: Vec<QueryEngine>,
    queries: Vec<QuerySpec>,
    parsed: Vec<PdcQuery>,
}

/// What one operation measured.
#[derive(Debug, Clone, Copy)]
struct OpSample {
    wall_s: f64,
    run_s: f64,
    sim_ms: f64,
    ok: bool,
}

/// One pass over the operation list.
struct Pass {
    ops: Vec<OpSample>,
}

impl Pass {
    fn wall_s(&self) -> f64 {
        self.ops.iter().map(|o| o.wall_s).sum()
    }

    fn rate(&self) -> f64 {
        self.ops.len() as f64 / self.wall_s()
    }
}

/// `queries_per_s` of a set of passes.
fn pass_rate(passes: &[Pass]) -> f64 {
    stats::fast_rate(&passes.iter().map(Pass::rate).collect::<Vec<_>>())
}

/// What the replay pass of a traced run accumulates.
struct Replay {
    ctx: ReplayCtx,
    agg: OutcomeAgg,
}

fn spill_spec(spec: &ClosedSpec) -> Option<SpillSpec> {
    spec.spill.map(|(budget_div, cache_div)| {
        let raw = (spec.particles * spec.vars.len() * 4) as u64;
        SpillSpec {
            dir: world::out_dir().join(format!("spill-{}-{}", spec.name, std::process::id())),
            memory_budget: raw / budget_div,
            block_cache_bytes: raw / cache_div,
        }
    })
}

impl Ready {
    /// Generate, import, build the auxiliary structures, start the
    /// engines, parse the query list and run the warm-up pass: everything
    /// `setup_s` covers.
    fn set_up(spec: &ClosedSpec, seed: u64) -> Ready {
        let data = VpicData::generate(&VpicConfig { particles: spec.particles, seed });
        let world = World::build(
            &WorldSpec {
                vars: spec.vars.to_vec(),
                region_bytes: spec.region_bytes,
                index: spec.aux,
                sorted_energy: spec.aux,
                joint: spec.joint,
                spill: spill_spec(spec),
            },
            &data,
            spec.particles,
        );
        let cost = world::cost_model(spec.particles, spec.servers);
        let engines: Vec<QueryEngine> =
            spec.strategies.iter().map(|&s| world.engine(s, spec.servers, cost)).collect();
        let queries = (spec.queries)(seed);
        let parsed: Vec<PdcQuery> = queries
            .iter()
            .map(|q| parse_query(&q.text, &world.odms).expect("generated query text parses"))
            .collect();
        let ready = Ready { data, world, engines, queries, parsed };
        for qi in 0..ready.queries.len() {
            for ei in 0..ready.engines.len() {
                ready.operation(spec, qi, ei, None, None).expect("warm-up operation succeeds");
            }
        }
        ready
    }

    /// Run one operation. With a tracer, record a root span and one child
    /// span per call into the program; returns the `engine.run` span.
    fn operation(
        &self,
        spec: &ClosedSpec,
        qi: usize,
        ei: usize,
        expected: Option<u64>,
        trace: Option<(&mut Tracer, u64)>,
    ) -> Result<(OpSample, QueryOutcome, Option<SpanId>), String> {
        let engine = &self.engines[ei];
        let (tracer, op) = match trace {
            Some((t, op)) => (Some(t), op),
            None => (None, 0),
        };
        let t0 = Instant::now();
        let mut spans = OpTrace::begin(tracer, "bench.op", op);
        let reparsed;
        let query = if spec.text_ops {
            let text = &self.queries[qi].text;
            reparsed = spans
                .child("parse.parse_query", || (parse_query(text, &self.world.odms), 0))
                .0
                .map_err(|e| e.to_string())?;
            &reparsed
        } else {
            &self.parsed[qi]
        };
        let t_run = Instant::now();
        let (outcome, run_span) = spans.child("engine.run", || (engine.run(query), 0));
        let run_s = t_run.elapsed().as_secs_f64();
        let outcome = outcome.map_err(|e| e.to_string())?;
        let fetched = if spec.text_ops {
            let energy = self.world.id(Var::Energy);
            let fetched = spans
                .child("engine.get_data", || {
                    let f = engine.get_data(&outcome, energy);
                    let n = f.as_ref().map_or(0, |f| f.data.len() as u64);
                    (f, n)
                })
                .0
                .map_err(|e| e.to_string())?;
            Some(fetched)
        } else {
            None
        };
        spans.finish();
        let wall_s = t0.elapsed().as_secs_f64();

        // The answer check, outside the timed interval.
        let mut ok = outcome.selection.count() == outcome.nhits;
        if let Some(expected) = expected {
            ok &= outcome.nhits == expected;
        }
        if let Some(fetched) = &fetched {
            ok &= fetched.data.len() as u64 == outcome.nhits;
            if let Some(iv) = energy_interval(&self.queries[qi]) {
                ok &= oracle::values_within(&fetched.data, &iv);
            }
        }
        let sample = OpSample { wall_s, run_s, sim_ms: outcome.elapsed.as_secs_f64() * 1e3, ok };
        Ok((sample, outcome, run_span))
    }
}

fn energy_interval(q: &QuerySpec) -> Option<Interval> {
    q.terms.iter().find(|t| t.var == Var::Energy).map(|t| t.interval)
}

/// A closed-loop workload after set-up.
pub struct Closed<'a> {
    spec: &'a ClosedSpec,
    ready: Ready,
    expected: Vec<u64>,
    setup_s: Vec<f64>,
    write_melems_per_s: Vec<f64>,
    op_seq: u64,
    failed: u64,
    attempted: u64,
}

impl<'a> Closed<'a> {
    /// Set the workload up repeatedly (see [`set_up_repeatedly`]), keep the
    /// last world, and brute-force the oracle over its raw arrays.
    pub fn set_up(spec: &'a ClosedSpec, seed: u64) -> Closed<'a> {
        let mut write_melems_per_s = Vec::new();
        let (ready, setup_s) = set_up_repeatedly(|| {
            let r = Ready::set_up(spec, seed);
            write_melems_per_s.push(r.world.written_elems as f64 / 1e6 / r.world.write_wall_s);
            r
        });
        let expected: Vec<u64> = ready
            .queries
            .iter()
            .map(|q| oracle::count_hits(q, &ready.data, spec.particles))
            .collect();
        Closed {
            spec,
            ready,
            expected,
            setup_s,
            write_melems_per_s,
            op_seq: 0,
            failed: 0,
            attempted: 0,
        }
    }

    fn ops_per_pass(&self) -> usize {
        self.ready.queries.len() * self.ready.engines.len()
    }

    /// One pass; failures (errors, oracle mismatches) are counted, never
    /// fatal. With `replay` (and a tracer), every operation is followed by
    /// the per-layer replay of its query under its `engine.run` span.
    fn pass(&mut self, mut tracer: Option<&mut Tracer>, mut replay: Option<&mut Replay>) -> Pass {
        let mut ops = Vec::with_capacity(self.ops_per_pass());
        for qi in 0..self.ready.queries.len() {
            for ei in 0..self.ready.engines.len() {
                self.op_seq += 1;
                self.attempted += 1;
                let text = &self.ready.queries[qi].text;
                let strategy = self.spec.strategies[ei];
                let trace = tracer.as_deref_mut().map(|t| (t, self.op_seq));
                let done = self.ready.operation(self.spec, qi, ei, Some(self.expected[qi]), trace);
                let (sample, outcome, run_span) = match done {
                    Ok(done) => done,
                    Err(e) => {
                        self.failed += 1;
                        eprintln!("operation failed: {text} on {strategy}: {e}");
                        continue;
                    }
                };
                if !sample.ok {
                    self.failed += 1;
                    eprintln!("wrong answer: {text} on {strategy}");
                }
                ops.push(sample);
                if let (Some(r), Some(t), Some(run)) =
                    (replay.as_deref_mut(), tracer.as_deref_mut(), run_span)
                {
                    r.agg.add(&outcome);
                    let exact = self.expected[qi] as f64 / self.spec.particles as f64;
                    let (engine, query) = (&self.ready.engines[ei], &self.ready.parsed[qi]);
                    if let Err(e) = probes::replay_query(t, &mut r.ctx, engine, query, run, exact) {
                        self.failed += 1;
                        eprintln!("replay failed: {text}: {e}");
                    }
                }
            }
        }
        Pass { ops }
    }

    /// Whole passes until `seconds` of operation wall time are used.
    fn passes(
        &mut self,
        seconds: f64,
        fixed: Option<usize>,
        mut tracer: Option<&mut Tracer>,
    ) -> Vec<Pass> {
        repeat_until(seconds, fixed, || {
            let p = self.pass(tracer.as_deref_mut(), None);
            let wall_s = p.wall_s();
            (p, wall_s)
        })
    }

    /// Simulated times must repeat exactly from pass to pass; an operation
    /// whose simulated time drifted is a failed operation.
    fn check_sim_repeats(&mut self, passes: &[Pass]) {
        let Some(first) = passes.first() else { return };
        for p in &passes[1..] {
            for (a, b) in first.ops.iter().zip(&p.ops) {
                if a.sim_ms != b.sim_ms {
                    self.failed += 1;
                    eprintln!(
                        "simulated time drifted between passes: {} vs {} ms",
                        a.sim_ms, b.sim_ms
                    );
                }
            }
        }
    }

    /// Run the workload as `args` asks and report.
    pub fn run(mut self, args: &Args) -> Report {
        let fixed = args.smoke.then_some(2);
        let (metrics, mut info, trace) = if args.trace {
            self.run_traced(args.seconds, fixed)
        } else {
            let passes = self.passes(args.seconds, fixed, None);
            self.check_sim_repeats(&passes);
            let info = vec![("passes".to_string(), passes.len() as f64)];
            (self.end_to_end(&passes), info, None)
        };
        info.push(("ops_per_pass".into(), self.ops_per_pass() as f64));
        info.push(("particles".into(), self.spec.particles as f64));
        info.push(("variables".into(), self.spec.vars.len() as f64));
        info.push(("region_bytes".into(), self.spec.region_bytes as f64));
        info.push(("servers".into(), self.spec.servers as f64));
        info.push(("user_bytes".into(), self.ready.world.user_bytes() as f64));
        info.push(("region_cache_bytes_per_server".into(), world::REGION_CACHE_BYTES as f64));
        if let Some(s) = spill_spec(self.spec) {
            info.push(("memory_budget_bytes".into(), s.memory_budget as f64));
            info.push(("block_cache_bytes".into(), s.block_cache_bytes as f64));
        }
        Report { metrics, attempted: self.attempted, failed: self.failed, info, trace }
    }

    fn end_to_end(&self, passes: &[Pass]) -> MetricSet {
        let mut m = MetricSet::new(END_TO_END);
        // The operation list mixes sub-millisecond and multi-millisecond
        // operations, and a median pooled over all samples can sit on the
        // gap between two clusters, where it jumps from run to run. Take
        // each distinct operation's time over the passes first (the fast
        // quartile, see `stats::fast_time`), then the median over the
        // operations.
        let walls_ms: Vec<f64> = (0..passes[0].ops.len())
            .map(|i| {
                let of_op: Vec<f64> =
                    passes.iter().filter_map(|p| p.ops.get(i)).map(|o| o.wall_s * 1e3).collect();
                stats::fast_time(&of_op)
            })
            .collect();
        let sims: Vec<f64> = passes[0].ops.iter().map(|o| o.sim_ms).collect();
        m.set("queries_per_s", pass_rate(passes));
        m.set("query_wall_p50_ms", stats::median(&walls_ms));
        m.set("sim_query_mean_ms", stats::mean(&sims));
        m.set("sim_latency_p99_ms", stats::percentile_sorted(&stats::sorted(&sims), 99.0));
        m.set("ingest_melems_per_s", stats::fast_rate(&self.write_melems_per_s));
        m.set("disk_bytes_per_user_byte", self.ready.world.stored_bytes_per_user_byte());
        m.set("setup_s", stats::median(&self.setup_s));
        m.set("peak_rss_mb", world::peak_rss_mb());
        m
    }

    /// Standalone probes taken once per traced run: the storage formats of
    /// the first imported variable, and the fused scan of every distinct
    /// interval the query list asks of each variable.
    fn one_off_probes(&self, t: &mut Tracer) -> PdcResult<()> {
        let world = &self.ready.world;
        probes::storage_format_probes(
            t,
            &world.odms,
            world.id(self.spec.vars[0]),
            &world::out_dir(),
            self.spec.spill.is_some(),
            self.spec.aux,
        )?;
        for &var in self.spec.vars {
            let mut intervals: Vec<Interval> = Vec::new();
            for term in self.ready.queries.iter().flat_map(|q| &q.terms) {
                if term.var == var && !intervals.contains(&term.interval) {
                    intervals.push(term.interval);
                }
            }
            probes::fused_scan_probe(t, &world.odms, world.id(var), &intervals)?;
        }
        Ok(())
    }

    /// The traced run: untraced passes, then traced passes (their rate
    /// ratio is the tracing overhead), then one replay pass in which every
    /// operation is followed by the per-layer replay of its query.
    fn run_traced(
        &mut self,
        seconds: f64,
        fixed: Option<usize>,
    ) -> (MetricSet, Vec<(String, f64)>, Option<Tracer>) {
        let spill_before = self.ready.world.odms.store().spill_stats();
        let untraced = self.passes(seconds * 0.45, fixed, None);
        let mut tracer = Tracer::new();
        let traced = self.passes(seconds * 0.30, fixed, Some(&mut tracer));
        self.check_sim_repeats(&untraced);
        let spill_after = self.ready.world.odms.store().spill_stats();

        let mut replay =
            Replay { ctx: ReplayCtx::new(self.spec.servers), agg: OutcomeAgg::default() };
        let replay_from = self.op_seq + 1;
        let replay_pass = self.pass(Some(&mut tracer), Some(&mut replay));
        let Replay { ctx, agg } = replay;
        self.failed += ctx.counts.mismatches;
        if let Err(e) = self.one_off_probes(&mut tracer) {
            self.failed += 1;
            eprintln!("standalone probes failed: {e}");
        }

        let mut m = MetricSet::new(PER_LAYER);
        layers::fill_spans(&mut m, &tracer, replay_from, "bench.op");
        layers::fill_counts(&mut m, &ctx.counts);
        layers::fill_world(&mut m, &self.ready.world);
        agg.fill(&mut m);
        let run_walls: Vec<f64> =
            untraced.iter().flat_map(|p| p.ops.iter().map(|o| o.run_s)).collect();
        layers::fill_run_tail(&mut m, &run_walls);
        if let (Some(b), Some(a), Some(s)) = (spill_before, spill_after, spill_spec(self.spec)) {
            layers::fill_spill(&mut m, &b, &a, s.memory_budget);
        }
        m.set("bench.trace_overhead_ratio", pass_rate(&traced) / pass_rate(&untraced));
        let info = vec![
            ("passes_untraced".to_string(), untraced.len() as f64),
            ("passes_traced".to_string(), traced.len() as f64),
            ("replayed_ops".to_string(), replay_pass.ops.len() as f64),
            ("replay_mismatches".to_string(), ctx.counts.mismatches as f64),
        ];
        (m, info, Some(tracer))
    }
}
