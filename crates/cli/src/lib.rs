//! # pdc-cli
//!
//! The `pdc` command-line tool: generate a calibrated VPIC dataset,
//! import it, and run textual queries against it under any evaluation
//! strategy — a hands-on way to explore the reproduced system.
//!
//! ```text
//! pdc query "Energy > 2.0 AND 100 < x < 200" --strategy HI --servers 16
//! pdc demo --particles 500000
//! pdc help
//! ```
//!
//! Every subcommand is configured by one [`Opts`] value, and the private
//! `FLAGS` table is the one place a flag is declared: its name, whether it
//! takes a value, the subcommands that accept it, and the setter that
//! stores it in `Opts`. [`parse_args`] reads the command line in one loop
//! over that table and validates the options before any dataset is
//! generated.

use pdc_odms::{ImportOptions, Odms};
use pdc_query::{
    parse_query, Arrival, EngineConfig, ExplainPlan, QueryEngine, ServiceConfig, ServiceReport,
    Strategy, TenantSpec,
};
use pdc_server::{CorruptionSpec, FaultPlan};
use pdc_storage::{CostModel, SimDuration};
use pdc_types::TypedVec;
use pdc_workloads::{VpicConfig, VpicData};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one textual query, or a concurrent batch of queries.
    Query {
        /// The query expression.
        expr: String,
        /// The options.
        opts: Opts,
    },
    /// Compare all five strategies on a few standard queries.
    Demo {
        /// The options.
        opts: Opts,
    },
    /// Stream appends into `Energy` between queries and verify every
    /// observed extent against a sealed-store rerun.
    Ingest {
        /// The query expression run between appends.
        expr: String,
        /// The options.
        opts: Opts,
    },
    /// Replay a timestamped open-loop arrival trace through the
    /// multi-tenant admission-controlled service loop.
    Serve {
        /// The options (`trace_file` is required).
        opts: Opts,
    },
    /// Print usage.
    Help,
}

/// Every option of every subcommand. Which subcommands accept a flag is
/// declared in `FLAGS`; the defaults are those of [`USAGE`].
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// Particles per variable.
    pub particles: usize,
    /// Logical PDC servers.
    pub servers: u32,
    /// Region size in bytes.
    pub region_bytes: u64,
    /// Evaluation strategy.
    pub strategy: Strategy,
    /// RNG seed.
    pub seed: u64,
    /// Seed for a randomized fault plan (`None` = no injected faults).
    pub fault_seed: Option<u64>,
    /// Kill exactly this many servers (crash on an early region access).
    pub kill_servers: u32,
    /// Fraction of stored data regions (and aux structures) to corrupt
    /// deterministically before queries run (`0.0` = no corruption).
    pub corrupt_regions: f64,
    /// Seed for corruption site selection (`None` = fault seed, then RNG
    /// seed).
    pub corrupt_seed: Option<u64>,
    /// Print the per-region operator table (chosen physical operators,
    /// prune verdicts, estimated vs actual selectivity).
    pub explain: bool,
    /// Replicas per assignment slot (1 = classic single-home layout).
    pub replicas: u32,
    /// Out-of-core memory budget in bytes: sealed cold regions spill to
    /// block-compressed files once resident bytes exceed it (`None` =
    /// fully resident).
    pub memory_budget: Option<u64>,
    /// Root directory for spilled block files (`None` = system temp).
    pub spill_dir: Option<String>,
    /// `query`: also fetch the named variable's values for the matches.
    pub get_data: Option<String>,
    /// `query`: admit the expression this many times as one client's
    /// closed series (`> 1` serves it and prints the service report).
    pub queries: u32,
    /// `query`: extra expressions (one per line) served in the same series.
    pub batch_file: Option<String>,
    /// `query`: variable pair (`"A,B"`) to register a joint-bounds grid
    /// for before querying.
    pub joint: Option<String>,
    /// `query`: admit a fresh server into the pool mid-series (elastic
    /// scale-out).
    pub join_server: bool,
    /// `query`: retire this server from the pool mid-series (elastic
    /// scale-in).
    pub leave_server: Option<u32>,
    /// `ingest`: number of streaming appends interleaved with the queries.
    pub append_batches: u32,
    /// `ingest`: fraction of the dataset held back and appended mid-series.
    pub append_fraction: f64,
    /// `serve`: path of the trace file (tenant declarations + arrivals).
    pub trace_file: Option<String>,
    /// `serve`: deficit-round-robin quantum in simulated milliseconds.
    pub quantum_ms: f64,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            particles: 500_000,
            servers: 16,
            region_bytes: 64 << 10,
            strategy: Strategy::Histogram,
            seed: 0x5EED_201C,
            fault_seed: None,
            kill_servers: 0,
            corrupt_regions: 0.0,
            corrupt_seed: None,
            explain: false,
            replicas: 1,
            memory_budget: None,
            spill_dir: None,
            get_data: None,
            queries: 1,
            batch_file: None,
            joint: None,
            join_server: false,
            leave_server: None,
            append_batches: 5,
            append_fraction: 0.1,
            trace_file: None,
            quantum_ms: 5.0,
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
pdc — the PDC-Query reproduction CLI

USAGE:
  pdc query \"<expr>\" [options] [--get-data <var>]
  pdc demo [options]
  pdc ingest [\"<expr>\"] [options]
  pdc serve --trace-file <P> [options]
  pdc help

The dataset is a calibrated synthetic VPIC plasma: variables Energy, x,
y, z, Ux, Uy, Uz. Example expressions:
  \"Energy > 2.0\"
  \"2.1 < Energy < 2.2\"
  \"Energy > 2.0 AND 100 < x < 200 AND -90 < y < 0 AND 0 < z < 66\"

OPTIONS:
  --particles <N>    particles per variable   (default 500000)
  --servers <N>      logical PDC servers      (default 16)
  --region-kb <N>    region size in KiB       (default 64)
  --strategy <S>     F | H | HI | SH | A      (default H; A = adaptive
                     per-region operator selection)
  --seed <N>         RNG seed
  --fault-seed <N>   inject a seeded deterministic fault plan (crashes,
                     slowdowns, transient errors); queries still succeed:
                     failed slots retry on the next live server
  --kill-servers <K> crash exactly K servers early in evaluation (K < servers)
  --corrupt-regions <F>
                     deterministically corrupt about fraction F (0..=1) of the
                     stored data regions and auxiliary structures; checksums
                     detect the damage and queries repair, rebuild, or fall
                     back — results stay exact
  --corrupt-seed <N> seed for corruption site selection (default: the fault
                     seed, then the RNG seed)
  --replicas <K>     replicate every assignment slot on K servers (default 1
                     = classic single-home layout); a killed server's slots
                     fail over to their replicas first, then to any other
                     live server, and redundancy is rebuilt in the
                     background after a crash
  --explain          print the per-region operator table: chosen physical
                     operator (scan / probe / sorted / rebuild), prune
                     verdicts, and estimated vs actual hits per region; in
                     batch mode, explains the lead query of the series; also
                     prints per-constraint directory statistics (bins probed,
                     regions killed by 1-D bounds vs joint bounds, admitted)
  --memory-budget <SIZE>
                     out-of-core mode: once resident bytes exceed SIZE
                     (suffixes K/M/G accepted), sealed cold regions spill to
                     block-compressed checksummed files and are read back
                     block-by-block through a budgeted block cache; results
                     and simulated costs are bit-identical to a fully
                     resident run (only host memory changes)
  --spill-dir <P>    root directory for spilled block files (default: the
                     system temp dir; each store spills into its own
                     per-process subdirectory)
  --joint <A,B>      (query only) register a cross-variable joint-bounds
                     grid on the pair before querying; conjunctions over
                     both variables then kill candidate regions whose joint
                     cells are provably empty (e.g. --joint Energy,x)
  --get-data <var>   fetch that variable's values for the matches (query only)
  --join-server      (query only) run the query, admit a fresh server with
                     live migration, and re-run — prints the membership
                     report and whether results changed
  --leave-server <S> (query only) run the query, retire server S (its slots
                     re-home with a verified copy), and re-run — prints the
                     membership report
  --queries <N>      (query only) serve the expression N times as one
                     client's closed series through the service loop;
                     prints a throughput report (results are
                     bit-identical to running each query alone)
  --batch-file <P>   (query only) file of extra expressions, one per line
                     ('#' comments and blank lines skipped), admitted in
                     the same batch
  --append-batches <N>
                     (ingest only) number of streaming appends interleaved
                     with the query series (default 5)
  --append-fraction <F>
                     (ingest only) fraction of the dataset held back from
                     the initial import and appended mid-series (default 0.1)
  --trace-file <P>   (serve only; required) timestamped open-loop arrival
                     trace. '#' comments and blank lines are skipped.
                     'tenant <name> weight=<W> budget-ms=<F> cap=<N>' lines
                     register tenants (weight = fair-share weight, budget-ms
                     = admission budget of in-flight estimated simulated
                     cost, cap = deferral-queue length before rejection).
                     Every other line is an arrival:
                     '<t_ms> <tenant> <expr>' — a query submitted at
                     simulated time t_ms milliseconds. Unknown tenants
                     auto-register with weight=1 budget-ms=1000 cap=64
  --quantum-ms <F>   (serve only) deficit-round-robin quantum in simulated
                     milliseconds (default 5)

The serve subcommand replays the trace through the multi-tenant service
loop: per-tenant FIFO queues, weighted-fair deficit-round-robin dispatch,
and cost-budget admission control (deferrals and rejections are typed,
never silent). It prints per-tenant p50/p95/p99 simulated latency and
throughput, then replays the dispatch order sequentially on a twin
world — the last gate line is
'service equivalence: PASS' only if every served outcome is bit-identical
to its solo run.

The ingest subcommand imports Energy at a reduced initial extent, runs
the query, appends the held-back elements in batches (re-running the
query after each), and verifies every observed extent against a fresh
store imported whole at that extent. Histograms are maintained
incrementally; bitmap-index and sorted-replica upkeep is deferred and
drained at the end. The last line is the gate: 'ingest gate: PASS' only
if every interleaved query was bit-identical to its sealed rerun.
";

/// Stores a flag's value in its [`Opts`] field.
type Setter = fn(&mut Opts, &str) -> Result<(), String>;

/// One command-line flag.
struct Flag {
    /// The flag as typed.
    name: &'static str,
    /// Whether the next argument is its value; a switch is set with `"true"`.
    takes_value: bool,
    /// The subcommands that accept it.
    subs: &'static [&'static str],
    set: Setter,
}

impl Flag {
    const fn value(name: &'static str, subs: &'static [&'static str], set: Setter) -> Flag {
        Flag { name, takes_value: true, subs, set }
    }

    const fn switch(name: &'static str, subs: &'static [&'static str], set: Setter) -> Flag {
        Flag { name, takes_value: false, subs, set }
    }
}

const ANY: &[&str] = &["query", "demo", "ingest", "serve"];

/// Every flag `pdc` accepts.
const FLAGS: &[Flag] = &[
    Flag::value("--particles", ANY, |o, v| parse(v).map(|n| o.particles = n)),
    Flag::value("--servers", ANY, |o, v| parse(v).map(|n| o.servers = n)),
    Flag::value("--region-kb", ANY, |o, v| {
        let bytes = parse::<u64>(v)?.checked_mul(1 << 10);
        bytes.map(|b| o.region_bytes = b).ok_or_else(|| format!("{v} overflows a byte count"))
    }),
    Flag::value("--strategy", ANY, |o, v| parse_strategy(v).map(|s| o.strategy = s)),
    Flag::value("--seed", ANY, |o, v| parse(v).map(|n| o.seed = n)),
    Flag::value("--fault-seed", ANY, |o, v| parse(v).map(|n| o.fault_seed = Some(n))),
    Flag::value("--kill-servers", ANY, |o, v| parse(v).map(|n| o.kill_servers = n)),
    Flag::value("--corrupt-regions", ANY, |o, v| parse(v).map(|f| o.corrupt_regions = f)),
    Flag::value("--corrupt-seed", ANY, |o, v| parse(v).map(|n| o.corrupt_seed = Some(n))),
    Flag::value("--replicas", ANY, |o, v| parse(v).map(|n| o.replicas = n)),
    Flag::switch("--explain", ANY, |o, v| parse(v).map(|b| o.explain = b)),
    Flag::value("--memory-budget", ANY, |o, v| parse_size(v).map(|b| o.memory_budget = Some(b))),
    Flag::value("--spill-dir", ANY, |o, v| parse(v).map(|p| o.spill_dir = Some(p))),
    Flag::value("--joint", &["query"], |o, v| parse(v).map(|p| o.joint = Some(p))),
    Flag::value("--get-data", &["query"], |o, v| parse(v).map(|s| o.get_data = Some(s))),
    Flag::switch("--join-server", &["query"], |o, v| parse(v).map(|b| o.join_server = b)),
    Flag::value("--leave-server", &["query"], |o, v| parse(v).map(|n| o.leave_server = Some(n))),
    Flag::value("--queries", &["query"], |o, v| parse(v).map(|n| o.queries = n)),
    Flag::value("--batch-file", &["query"], |o, v| parse(v).map(|p| o.batch_file = Some(p))),
    Flag::value("--append-batches", &["ingest"], |o, v| parse(v).map(|n| o.append_batches = n)),
    Flag::value("--append-fraction", &["ingest"], |o, v| parse(v).map(|f| o.append_fraction = f)),
    Flag::value("--trace-file", &["serve"], |o, v| parse(v).map(|p| o.trace_file = Some(p))),
    Flag::value("--quantum-ms", &["serve"], |o, v| parse(v).map(|f| o.quantum_ms = f)),
];

/// Parse `argv[1..]` into a command.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Command, String> {
    let mut args = args.into_iter().peekable();
    let Some(sub) = args.next() else { return Ok(Command::Help) };
    let expr = match sub.as_str() {
        "help" | "--help" | "-h" => return Ok(Command::Help),
        "query" => args.next().ok_or("query requires an expression")?,
        // Optional positional expression before the flags.
        "ingest" => args
            .next_if(|a| !a.starts_with("--"))
            .unwrap_or_else(|| "2.1 < Energy < 2.2".to_string()),
        "demo" | "serve" => String::new(),
        other => return Err(format!("unknown subcommand '{other}' (try 'pdc help')")),
    };
    let mut opts = Opts::default();
    while let Some(arg) = args.next() {
        let flag = FLAGS
            .iter()
            .find(|f| f.name == arg)
            .ok_or_else(|| format!("unknown option '{arg}'"))?;
        if !flag.subs.contains(&sub.as_str()) {
            return Err(format!("{arg} is only valid for 'pdc {}'", flag.subs.join("', 'pdc ")));
        }
        let value = if flag.takes_value {
            args.next().ok_or_else(|| format!("{arg} requires a value"))?
        } else {
            "true".to_string()
        };
        (flag.set)(&mut opts, &value).map_err(|e| format!("{arg}: {e}"))?;
    }
    let cmd = match sub.as_str() {
        "query" => Command::Query { expr, opts },
        "ingest" => Command::Ingest { expr, opts },
        "demo" => Command::Demo { opts },
        _ => Command::Serve { opts },
    };
    check(&cmd)?;
    Ok(cmd)
}

/// Parse one flag value; [`parse_args`] prefixes an error with the flag.
fn parse<T: FromStr>(v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e: T::Err| e.to_string())
}

/// Every validation of the options alone. [`parse_args`] runs it before
/// returning a command and [`run`] before building any world.
fn check(cmd: &Command) -> Result<(), String> {
    let opts = match cmd {
        Command::Help => return Ok(()),
        Command::Query { opts, .. }
        | Command::Demo { opts }
        | Command::Ingest { opts, .. }
        | Command::Serve { opts } => opts,
    };
    let at_least_one = [
        ("--particles", opts.particles as u64),
        ("--servers", opts.servers.into()),
        ("--region-kb", opts.region_bytes),
        ("--replicas", opts.replicas.into()),
        ("--queries", opts.queries.into()),
        ("--append-batches", opts.append_batches.into()),
    ];
    if let Some((flag, _)) = at_least_one.iter().find(|(_, v)| *v == 0) {
        return Err(format!("{flag} must be at least 1"));
    }
    if opts.memory_budget == Some(0) {
        return Err("--memory-budget must be positive".to_string());
    }
    if opts.kill_servers >= opts.servers {
        return Err(format!(
            "--kill-servers {} must leave at least one of {} servers alive",
            opts.kill_servers, opts.servers
        ));
    }
    if !(0.0..=1.0).contains(&opts.corrupt_regions) {
        return Err(format!("--corrupt-regions {} must be within [0, 1]", opts.corrupt_regions));
    }
    if !(opts.append_fraction > 0.0 && opts.append_fraction < 1.0) {
        return Err(format!("--append-fraction {} must be within (0, 1)", opts.append_fraction));
    }
    if !(opts.quantum_ms.is_finite() && opts.quantum_ms > 0.0) {
        return Err(format!("--quantum-ms {} must be positive", opts.quantum_ms));
    }
    match cmd {
        Command::Ingest { .. } => ingest_split(opts).map(drop),
        Command::Serve { .. } if opts.trace_file.is_none() => {
            Err("serve requires --trace-file <path>".to_string())
        }
        _ => Ok(()),
    }
}

/// Ingest's `(initial extent, appended elements)` split of the particles.
fn ingest_split(opts: &Opts) -> Result<(usize, usize), String> {
    let total = opts.particles;
    let append_total =
        ((total as f64 * opts.append_fraction).round() as usize).max(opts.append_batches as usize);
    if append_total >= total {
        return Err(format!(
            "--append-fraction {} leaves no initial extent for {total} particles",
            opts.append_fraction
        ));
    }
    Ok((total - append_total, append_total))
}

/// Parse a byte size with an optional K/M/G binary suffix ("64M").
fn parse_size(s: &str) -> Result<u64, String> {
    let t = s.trim();
    let (digits, mult) = match t.chars().last() {
        Some('k') | Some('K') => (&t[..t.len() - 1], 1u64 << 10),
        Some('m') | Some('M') => (&t[..t.len() - 1], 1u64 << 20),
        Some('g') | Some('G') => (&t[..t.len() - 1], 1u64 << 30),
        _ => (t, 1),
    };
    digits
        .parse::<u64>()
        .map_err(|e| format!("size '{s}': {e}"))?
        .checked_mul(mult)
        .ok_or_else(|| format!("size '{s}' overflows"))
}

/// Parse a strategy name (paper label or long form, case-insensitive).
fn parse_strategy(s: &str) -> Result<Strategy, String> {
    match s.to_ascii_uppercase().as_str() {
        "F" | "PDC-F" | "FULLSCAN" => Ok(Strategy::FullScan),
        "H" | "PDC-H" | "HISTOGRAM" => Ok(Strategy::Histogram),
        "HI" | "PDC-HI" | "INDEX" | "HISTOGRAMINDEX" => Ok(Strategy::HistogramIndex),
        "SH" | "PDC-SH" | "SORTED" | "SORTEDHISTOGRAM" => Ok(Strategy::SortedHistogram),
        "A" | "PDC-A" | "ADAPTIVE" => Ok(Strategy::Adaptive),
        other => Err(format!("unknown strategy '{other}' (use F, H, HI, SH, or A)")),
    }
}

/// The contents of the file a path flag names.
fn read_file(flag: &str, path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{flag} {path}: {e}"))
}

/// The calibrated VPIC dataset the options describe.
fn generate(opts: &Opts) -> VpicData {
    VpicData::generate(&VpicConfig { particles: opts.particles, seed: opts.seed })
}

/// An imported world and the spill directory it owns, removed when the
/// world is dropped — after a successful run and after an error alike.
struct World {
    odms: Arc<Odms>,
    spill_dir: Option<PathBuf>,
}

impl World {
    /// Import all seven variables of `data` (index everywhere, sorted
    /// replica on `Energy`), with `Energy` cut to its first
    /// `energy_extent` elements. With a memory budget, spill is configured
    /// once and before the import, so the import itself runs under the
    /// budget: regions demote as they seal instead of peaking at the full
    /// dataset size first. Each world spills into its own subdirectory:
    /// block-file names encode only (object, region), and distinct worlds
    /// in one process reuse the same ids.
    fn build(opts: &Opts, data: &VpicData, energy_extent: usize) -> Result<World, String> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let mut world = World { odms: Arc::new(Odms::new(64)), spill_dir: None };
        if let Some(budget) = opts.memory_budget {
            let root = opts.spill_dir.as_ref().map_or_else(std::env::temp_dir, PathBuf::from);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let dir =
                world.spill_dir.insert(root.join(format!("pdc_spill_{}_{n}", std::process::id())));
            world.odms.store().configure_spill(dir, budget, 32 << 20).map_err(|e| e.to_string())?;
        }
        let container = world.odms.create_container("cli");
        for (name, values) in data.variables() {
            let energy = name == "Energy";
            let import = ImportOptions {
                region_bytes: opts.region_bytes,
                build_index: true,
                build_sorted: energy,
                ..Default::default()
            };
            let values = if energy { &values[..energy_extent] } else { &values[..] };
            let values = TypedVec::Float(values.to_vec());
            world.odms.import_array(container, name, values, &import).map_err(|e| e.to_string())?;
        }
        Ok(world)
    }
}

impl Drop for World {
    fn drop(&mut self) {
        if let Some(dir) = &self.spill_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One-line out-of-core report, or `None` when spill is off.
fn format_spill_report(odms: &Odms, opts: &Opts) -> Option<String> {
    let stats = odms.store().spill_stats()?;
    let budget = opts.memory_budget.unwrap_or(0);
    Some(format!(
        "out-of-core: resident high-water {} B of {} B budget, {} region(s) spilled \
         ({} B as {} B on disk, {:.2}x), block cache {:.1}% hits, \
         {} demotion(s), {} fault-in(s)\n",
        stats.resident_high_water,
        budget,
        stats.spilled_regions,
        stats.spilled_raw_bytes,
        stats.spilled_comp_bytes,
        stats.compression_ratio(),
        stats.block_cache.hit_rate() * 100.0,
        stats.demotions,
        stats.fault_ins,
    ))
}

/// The fault plan implied by the options, if any. `--kill-servers` wins
/// over `--fault-seed` when both are given (the seed then only picks
/// which servers die); `--corrupt-regions` composes with either.
fn fault_plan(opts: &Opts) -> Option<FaultPlan> {
    let mut plan = if opts.kill_servers > 0 {
        let seed = opts.fault_seed.unwrap_or(opts.seed);
        Some(FaultPlan::kill_count(opts.kill_servers, opts.servers, seed))
    } else {
        opts.fault_seed.map(|seed| FaultPlan::seeded(seed, opts.servers))
    };
    if opts.corrupt_regions > 0.0 {
        let seed = opts.corrupt_seed.or(opts.fault_seed).unwrap_or(opts.seed);
        let spec = CorruptionSpec::new(opts.corrupt_regions, opts.corrupt_regions, seed);
        plan = Some(plan.unwrap_or_else(FaultPlan::new).with_corruption(spec));
    }
    plan
}

/// An engine per the options, with the scale-appropriate cost model.
fn build_engine(odms: &Arc<Odms>, opts: &Opts) -> QueryEngine {
    let f = 125e9 / opts.particles as f64;
    QueryEngine::new(
        Arc::clone(odms),
        EngineConfig {
            strategy: opts.strategy,
            num_servers: opts.servers,
            cache_bytes_per_server: 1 << 30,
            cost: CostModel::scaled(f, f * opts.servers as f64 / 64.0, 256.0),
            order_by_selectivity: true,
            fault_plan: fault_plan(opts),
            replicas: opts.replicas,
            ..Default::default()
        },
    )
}

/// Render an [`ExplainPlan`] as the per-region operator table: one row
/// per evaluated region with the chosen physical operator, the prune
/// verdict, and estimated vs actual hits.
fn format_explain(odms: &Odms, plan: &ExplainPlan) -> String {
    use std::fmt::Write as _;
    let name_of = |id: pdc_types::ObjectId| {
        odms.meta().get(id).map(|m| m.name.clone()).unwrap_or_else(|_| id.to_string())
    };
    let mut s = String::new();
    let _ = writeln!(
        s,
        "explain: strategy {}, sorted primary: {}",
        plan.strategy,
        if plan.sorted_primary { "yes" } else { "no" },
    );
    for (obj, iv, est) in &plan.constraints {
        let _ = match est {
            Some(e) => writeln!(
                s,
                "  constraint: {} {} (est. selectivity {:.4})",
                name_of(*obj),
                iv,
                e
            ),
            None => writeln!(s, "  constraint: {} {}", name_of(*obj), iv),
        };
    }
    if !plan.slot_routes.is_empty() {
        const MAX_ROUTES: usize = 48;
        let shown: Vec<String> = plan
            .slot_routes
            .iter()
            .enumerate()
            .take(MAX_ROUTES)
            .map(|(slot, srv)| format!("{slot}\u{2192}{srv}"))
            .collect();
        let tail = if plan.slot_routes.len() > MAX_ROUTES {
            format!(" ... ({} more)", plan.slot_routes.len() - MAX_ROUTES)
        } else {
            String::new()
        };
        let _ = writeln!(
            s,
            "  slot routes (slot\u{2192}chosen server): {}{}",
            shown.join(" "),
            tail
        );
    }
    for d in &plan.directory {
        let _ = writeln!(
            s,
            "  directory: {} — {} bin(s) probed, {} region(s): \
             {} killed 1-D, {} killed joint, {} admitted",
            name_of(d.object),
            d.bins_probed,
            d.regions_total,
            d.killed_1d,
            d.killed_joint,
            d.admitted,
        );
    }
    let _ = writeln!(
        s,
        "  {:<8} {:>6}  {:<7} {:<7} {:>6} {:>4}  {:>15} {:>8} {:>8}",
        "object", "region", "phase", "op", "pruned", "cold", "est(lo..hi)", "actual", "span"
    );
    const MAX_ROWS: usize = 64;
    for r in plan.regions.iter().take(MAX_ROWS) {
        let est = r.est.map_or_else(|| "-".to_string(), |e| format!("{}..{}", e.lower, e.upper));
        let actual = r.actual_hits.map_or_else(|| "-".to_string(), |h| h.to_string());
        let _ = writeln!(
            s,
            "  {:<8} {:>6}  {:<7} {:<7} {:>6} {:>4}  {:>15} {:>8} {:>8}",
            name_of(r.object),
            r.region,
            r.phase.label(),
            r.op.label(),
            if r.pruned { "yes" } else { "no" },
            if r.cold { "yes" } else { "no" },
            est,
            actual,
            r.span_len,
        );
    }
    if plan.regions.len() > MAX_ROWS {
        let _ = writeln!(s, "  ... ({} more rows)", plan.regions.len() - MAX_ROWS);
    }
    s
}

/// Execute a parsed command; returns the text to print.
pub fn run(cmd: Command) -> Result<String, String> {
    check(&cmd)?;
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Query { expr, opts } => run_query(&expr, &opts),
        Command::Ingest { expr, opts } => run_ingest(&expr, &opts),
        Command::Demo { opts } => run_demo(&opts),
        Command::Serve { opts } => run_serve(&opts),
    }
}

fn run_query(expr: &str, opts: &Opts) -> Result<String, String> {
    let mut out = String::new();
    let world = World::build(opts, &generate(opts), opts.particles)?;
    let odms = &world.odms;
    if let Some(spec) = &opts.joint {
        let (a, b) =
            spec.split_once(',').ok_or_else(|| format!("--joint {spec}: expected 'A,B'"))?;
        let a = odms.meta().lookup_name(a.trim()).map_err(|e| e.to_string())?.id;
        let b = odms.meta().lookup_name(b.trim()).map_err(|e| e.to_string())?.id;
        let bytes = odms.register_joint_pair(a, b).map_err(|e| e.to_string())?;
        out.push_str(&format!("joint bounds: registered ({spec}), {bytes} B\n"));
    }
    let engine = build_engine(odms, opts);
    let query = parse_query(expr, odms).map_err(|e| e.to_string())?;
    out.push_str(&format!("query: {query}\n"));
    if opts.replicas > 1 {
        out.push_str(&format!(
            "replication: k={} over {} member(s), {} slot(s)\n",
            opts.replicas,
            engine.placement_members().len(),
            engine.replica_sets().len(),
        ));
    }
    // Elastic membership smoke: bracket the change with runs of the same
    // query and report whether the bits moved (they must not).
    if opts.join_server || opts.leave_server.is_some() {
        let before = engine.run(&query).map_err(|e| e.to_string())?;
        let mut report = |sign: char, rep: pdc_query::MembershipReport| -> Result<(), String> {
            let after = engine.run(&query).map_err(|e| e.to_string())?;
            out.push_str(&format!(
                "membership: {sign}server {} — {} slot(s) re-homed, {} region(s) / {} B \
                 copied; results unchanged: {}\n",
                rep.server,
                rep.slots_changed,
                rep.regions_copied,
                rep.bytes_copied,
                if after.selection == before.selection { "yes" } else { "NO" },
            ));
            Ok(())
        };
        if opts.join_server {
            report('+', engine.join_server().map_err(|e| e.to_string())?)?;
        }
        if let Some(s) = opts.leave_server {
            report('-', engine.leave_server(s).map_err(|e| e.to_string())?)?;
        }
    }

    // Assemble the admitted series: the main expression repeated
    // `--queries` times, plus every expression from the batch file.
    let mut series = vec![query.clone(); opts.queries as usize];
    if let Some(path) = &opts.batch_file {
        let text = read_file("--batch-file", path)?;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            series.push(parse_query(line, odms).map_err(|e| format!("{line}: {e}"))?);
        }
    }

    let mut explain_plan = None;
    let outcome = if series.len() > 1 {
        // One client's closed series: one tenant with an unbounded
        // budget, every arrival at t = 0.
        let cfg = ServiceConfig::new(vec![TenantSpec::new("client", 1, SimDuration::MAX, 0)]);
        let arrivals: Vec<Arrival> = series
            .iter()
            .map(|q| Arrival { at: SimDuration::ZERO, tenant: "client".into(), query: q.clone() })
            .collect();
        let report = engine.serve(&cfg, &arrivals).map_err(|e| e.to_string())?;
        if opts.explain {
            // Explain the lead query of the series (operator choices are
            // pure functions of metadata/histograms/cost, so this is
            // exactly the pipeline every dispatch of it ran).
            let (_, plan) = engine.explain(&series[0]).map_err(|e| e.to_string())?;
            explain_plan = Some(plan);
        }
        out.push_str(&format_service_report(&report));
        report.served.into_iter().next().expect("a closed series serves every arrival").outcome
    } else if opts.explain {
        let (outcome, plan) = engine.explain(&query).map_err(|e| e.to_string())?;
        explain_plan = Some(plan);
        outcome
    } else {
        engine.run(&query).map_err(|e| e.to_string())?
    };
    out.push_str(&format!(
        "{}: {} hits ({} runs) in simulated {} — PFS {} B / {} requests, scanned {}\n",
        opts.strategy,
        outcome.nhits,
        outcome.selection.num_runs(),
        outcome.elapsed,
        outcome.io.pfs_bytes_read,
        outcome.io.pfs_read_requests,
        outcome.work.elements_scanned,
    ));
    if let Some(line) = format_spill_report(odms, opts) {
        out.push_str(&line);
    }
    if !outcome.failed_servers.is_empty() {
        out.push_str(&format!(
            "faults: servers {:?} failed; slots failed over to live replicas \
             in {} retry round(s), failover overhead {}\n",
            outcome.failed_servers, outcome.retry_rounds, outcome.breakdown.failover,
        ));
    }
    if outcome.rebuild_regions > 0 {
        out.push_str(&format!(
            "rebuild: redundancy restored in the background — {} region(s) / {} B \
             re-replicated\n",
            outcome.rebuild_regions, outcome.rebuild_bytes,
        ));
    }
    if outcome.integrity.any() {
        out.push_str(&format!(
            "integrity: {} checksum failure(s), {} region(s) repaired, \
             {} aux rebuild(s), {} fallback region(s), overhead {}\n",
            outcome.integrity.checksum_failures,
            outcome.integrity.repaired_regions,
            outcome.integrity.aux_rebuilds,
            outcome.integrity.fallback_regions,
            outcome.breakdown.integrity,
        ));
    }
    if let Some(plan) = &explain_plan {
        out.push_str(&format_explain(odms, plan));
    }
    if let Some(var) = &opts.get_data {
        let meta = odms.meta().lookup_name(var).map_err(|e| e.to_string())?;
        let data = engine.get_data(&outcome, meta.id).map_err(|e| e.to_string())?;
        let preview: Vec<String> =
            (0..data.data.len().min(8)).map(|i| format!("{}", data.data.get_value(i))).collect();
        out.push_str(&format!(
            "get_data({var}): {} values from {} servers in {} — first: [{}]\n",
            data.data.len(),
            data.servers_involved,
            data.elapsed,
            preview.join(", ")
        ));
    }
    Ok(out)
}

fn run_ingest(expr: &str, opts: &Opts) -> Result<String, String> {
    let (initial, append_total) = ingest_split(opts)?;
    let (total, append_batches) = (opts.particles, opts.append_batches as usize);
    let data = generate(opts);
    // Only the streamed-into world runs under the budget; the sealed rerun
    // worlds stay fully resident, so the ingest gate doubles as a
    // spill-on/off consistency check.
    let resident = Opts { memory_budget: None, ..opts.clone() };
    // Rerun against a store imported whole at the extent the plan saw:
    // hits must be bit-identical.
    let sealed_rerun = |extent: usize| -> Result<pdc_query::QueryOutcome, String> {
        let sealed = World::build(&resident, &data, extent)?;
        let query = parse_query(expr, &sealed.odms).map_err(|e| e.to_string())?;
        build_engine(&sealed.odms, opts).run(&query).map_err(|e| e.to_string())
    };
    // Every variable at full extent except Energy, which starts at the
    // reduced initial extent and grows by streaming appends between
    // queries.
    let world = World::build(opts, &data, initial)?;
    let odms = &world.odms;
    let engine = build_engine(odms, opts);
    let query = parse_query(expr, odms).map_err(|e| e.to_string())?;
    let energy = odms.meta().lookup_name("Energy").map_err(|e| e.to_string())?.id;

    let mut out = String::new();
    out.push_str(&format!(
        "ingest: query {query}; initial {initial} elements, {append_batches} appends \
         totalling {append_total} ({:.1}% of {total})\n",
        100.0 * append_total as f64 / total as f64,
    ));
    let chunk = append_total / append_batches;
    let mut consistent = 0u32;
    let mut checked = 0u32;
    for k in 0..=append_batches {
        let outcome = engine.run(&query).map_err(|e| e.to_string())?;
        let extent = outcome.planned_elements as usize;
        let sealed = sealed_rerun(extent)?;
        let ok = outcome.nhits == sealed.nhits && outcome.selection == sealed.selection;
        checked += 1;
        consistent += ok as u32;
        out.push_str(&format!(
            "  extent {extent}: {} hits — sealed rerun {} {}\n",
            outcome.nhits,
            sealed.nhits,
            if ok { "ok" } else { "MISMATCH" },
        ));
        if k < append_batches {
            let lo = initial + k * chunk;
            let hi = if k + 1 == append_batches { total } else { initial + (k + 1) * chunk };
            let report = odms
                .append_array(energy, &TypedVec::Float(data.energy[lo..hi].to_vec()))
                .map_err(|e| e.to_string())?;
            out.push_str(&format!(
                "  append {}: +{} elems (tail fill: {}, new regions: {}, sealed: {})\n",
                k + 1,
                report.appended_elems,
                report.filled_tail.map_or_else(|| "-".into(), |r| r.to_string()),
                report.new_regions.len(),
                report.sealed_regions.len(),
            ));
        }
    }
    let maint = odms.run_deferred_maintenance().map_err(|e| e.to_string())?;
    out.push_str(&format!(
        "maintenance: rebuilt {} index region(s), {} sorted replica(s), {} B written\n",
        maint.index_regions_rebuilt, maint.sorted_replicas_rebuilt, maint.bytes_written,
    ));
    // Post-maintenance rerun still matches the final extent.
    let final_out = engine.run(&query).map_err(|e| e.to_string())?;
    let sealed_final = sealed_rerun(final_out.planned_elements as usize)?;
    checked += 1;
    consistent += (final_out.selection == sealed_final.selection) as u32;
    if let Some(line) = format_spill_report(odms, opts) {
        out.push_str(&line);
    }
    out.push_str(&format!(
        "ingest gate: {} ({consistent}/{checked} extents sealed-consistent)\n",
        if consistent == checked { "PASS" } else { "FAIL" },
    ));
    Ok(out)
}

fn run_demo(opts: &Opts) -> Result<String, String> {
    let mut out = String::new();
    let world = World::build(opts, &generate(opts), opts.particles)?;
    let odms = &world.odms;
    out.push_str(&format!(
        "dataset: {} particles x 7 variables, {} regions of {} KiB, {} servers\n\n",
        opts.particles,
        odms.meta().lookup_name("Energy").map_err(|e| e.to_string())?.num_regions(),
        opts.region_bytes >> 10,
        opts.servers,
    ));
    if let Some(line) = format_spill_report(odms, opts) {
        out.push_str(&line);
        out.push('\n');
    }
    let queries = [
        "2.1 < Energy < 2.2",
        "3.5 < Energy < 3.6",
        "Energy > 2.0 AND 100 < x < 200 AND -90 < y < 0 AND 0 < z < 66",
    ];
    for expr in queries {
        out.push_str(&format!("query: {expr}\n"));
        let query = parse_query(expr, odms).map_err(|e| e.to_string())?;
        for strategy in Strategy::ALL {
            let engine = build_engine(odms, &Opts { strategy, ..opts.clone() });
            engine.run(&query).map_err(|e| e.to_string())?; // warm
            let outcome = engine.run(&query).map_err(|e| e.to_string())?;
            out.push_str(&format!(
                "  {:>7}: {:>8} hits, simulated {:>12}\n",
                strategy.label(),
                outcome.nhits,
                outcome.elapsed.to_string(),
            ));
        }
    }
    Ok(out)
}

/// The service report's outcome and per-tenant lines (`pdc serve`, and
/// `pdc query` over a series). Simulated time and
/// counts only, so identical flags print identical bytes.
fn format_service_report(report: &ServiceReport) -> String {
    let mut out = format!(
        "outcomes: {} completed, {} deferral(s), {} rejected (simulated span {})\n",
        report.stats.completed, report.stats.deferrals, report.stats.rejected, report.end_time,
    );
    for t in report.tenant_summaries() {
        out.push_str(&format!(
            "  tenant {:>10}: {:>3}/{} done ({} rejected, {} deferred), \
             p50 {} p95 {} p99 {}, {:.2} q/s simulated\n",
            t.name,
            t.completed,
            t.submitted,
            t.rejected,
            t.deferred,
            t.p50,
            t.p95,
            t.p99,
            t.throughput_qps,
        ));
    }
    out
}

fn run_serve(opts: &Opts) -> Result<String, String> {
    let trace_file = opts.trace_file.as_deref().expect("checked: serve has a trace file");
    let text = read_file("--trace-file", trace_file)?;
    let data = generate(opts);
    let world = World::build(opts, &data, opts.particles)?;
    let odms = &world.odms;

    // Trace grammar: '#' comments and blanks are skipped; 'tenant' lines
    // declare policies (a repeated name updates its policy in place);
    // everything else is an arrival of the form '<t_ms> <tenant> <expr>'.
    struct RawArrival {
        at_ms: f64,
        tenant: String,
        expr: String,
    }
    let mut raw: Vec<RawArrival> = Vec::new();
    let mut tenants: Vec<TenantSpec> = Vec::new();
    let mut declare = |t: TenantSpec| match tenants.iter_mut().find(|d| d.name == t.name) {
        Some(d) => *d = t,
        None => tenants.push(t),
    };
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let first = it.next().expect("non-empty trimmed line");
        if first == "tenant" {
            let name =
                it.next().ok_or_else(|| format!("trace line {lineno}: tenant requires a name"))?;
            let mut weight = 1u32;
            let mut budget_ms = 1000.0f64;
            let mut cap = 64usize;
            for kv in it {
                let (k, v) = kv.split_once('=').ok_or_else(|| {
                    format!("trace line {lineno}: expected key=value, got '{kv}'")
                })?;
                let bad = |e: &dyn std::fmt::Display| format!("trace line {lineno}: {k}: {e}");
                match k {
                    "weight" => weight = v.parse().map_err(|e| bad(&e))?,
                    "budget-ms" => budget_ms = v.parse().map_err(|e| bad(&e))?,
                    "cap" => cap = v.parse().map_err(|e| bad(&e))?,
                    other => {
                        return Err(format!(
                            "trace line {lineno}: unknown tenant attribute '{other}' \
                             (expected weight=, budget-ms=, cap=)"
                        ));
                    }
                }
            }
            if weight == 0 {
                return Err(format!("trace line {lineno}: weight must be at least 1"));
            }
            if !budget_ms.is_finite() || budget_ms <= 0.0 {
                return Err(format!("trace line {lineno}: budget-ms {budget_ms} must be positive"));
            }
            let budget = SimDuration::from_nanos((budget_ms * 1e6) as u64);
            declare(TenantSpec::new(name, weight, budget, cap));
        } else {
            let at_ms: f64 =
                first.parse().map_err(|e| format!("trace line {lineno}: arrival time: {e}"))?;
            if !at_ms.is_finite() || at_ms < 0.0 {
                return Err(format!(
                    "trace line {lineno}: arrival time {at_ms} must be non-negative"
                ));
            }
            let tenant = it
                .next()
                .ok_or_else(|| format!("trace line {lineno}: arrival requires a tenant name"))?
                .to_string();
            let expr = it.collect::<Vec<_>>().join(" ");
            if expr.is_empty() {
                return Err(format!("trace line {lineno}: arrival requires a query expression"));
            }
            raw.push(RawArrival { at_ms, tenant, expr });
        }
    }
    if raw.is_empty() {
        return Err(format!("--trace-file {trace_file}: no arrivals in trace"));
    }
    // Tenants referenced only by arrivals get the default policy.
    for a in &raw {
        if !tenants.iter().any(|t| t.name == a.tenant) {
            tenants.push(TenantSpec::new(&a.tenant, 1, SimDuration::from_millis(1_000), 64));
        }
    }

    let engine = build_engine(odms, opts);
    let arrivals = raw
        .iter()
        .map(|a| {
            Ok(Arrival {
                at: SimDuration::from_secs_f64(a.at_ms / 1e3),
                tenant: a.tenant.clone(),
                query: parse_query(&a.expr, odms).map_err(|e| format!("'{}': {e}", a.expr))?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut cfg = ServiceConfig::new(tenants);
    cfg.quantum = SimDuration::from_secs_f64(opts.quantum_ms / 1e3);
    let report = engine.serve(&cfg, &arrivals).map_err(|e| e.to_string())?;

    let mut out = String::new();
    out.push_str(&format!(
        "serve: {} arrival(s) from {} tenant(s), quantum {}\n",
        report.stats.submitted,
        cfg.tenants.len(),
        cfg.quantum,
    ));
    out.push_str(&format_service_report(&report));

    // Equivalence gate: replay the dispatch order sequentially on a twin
    // world; every served outcome must be bit-identical to its solo run
    // (scheduling decides *when*, never *what*).
    let twin = World::build(opts, &data, opts.particles)?;
    let twin_engine = build_engine(&twin.odms, opts);
    let mut identical = 0usize;
    for s in &report.served {
        let q = parse_query(&raw[s.arrival_index].expr, &twin.odms).map_err(|e| e.to_string())?;
        let solo = twin_engine.run(&q).map_err(|e| e.to_string())?;
        identical += (solo.selection == s.outcome.selection
            && solo.nhits == s.outcome.nhits
            && solo.elapsed == s.outcome.elapsed
            && solo.breakdown == s.outcome.breakdown) as usize;
    }
    out.push_str(&format!(
        "service equivalence: {} ({identical}/{} served outcome(s) bit-identical to solo replay)\n",
        if identical == report.served.len() { "PASS" } else { "FAIL" },
        report.served.len(),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|w| w.to_string()).collect()
    }

    /// Options for a small world of `particles` over `servers`.
    fn small(particles: usize, servers: u32) -> Opts {
        Opts { particles, servers, ..Opts::default() }
    }

    /// The hit count of a query report's result line.
    fn hits(s: &str) -> String {
        let line = s.lines().find(|l| l.contains(" hits (")).unwrap();
        line.split(':').nth(1).unwrap().trim().split(' ').next().unwrap().to_string()
    }

    #[test]
    fn spill_flags_parse() {
        let cmd =
            parse_args(argv("query Energy>2 --memory-budget 4M --spill-dir /tmp/pdc_cli_spill"))
                .unwrap();
        match cmd {
            Command::Query { opts, .. } => {
                assert_eq!(opts.memory_budget, Some(4 << 20));
                assert_eq!(opts.spill_dir.as_deref(), Some("/tmp/pdc_cli_spill"));
            }
            other => panic!("{other:?}"),
        }
        // Suffix forms and the plain-bytes form.
        assert_eq!(parse_size("512").unwrap(), 512);
        assert_eq!(parse_size("64K").unwrap(), 64 << 10);
        assert_eq!(parse_size("2g").unwrap(), 2 << 30);
        assert!(parse_size("nope").is_err());
        assert!(parse_args(argv("query E>1 --memory-budget 0")).is_err());
        assert_eq!(Opts::default().memory_budget, None);
    }

    #[test]
    fn budgeted_query_matches_unbounded_and_reports() {
        let query = |opts: Opts| {
            run(Command::Query { expr: "2.1 < Energy < 2.2".to_string(), opts }).unwrap()
        };
        let unbounded = query(small(60_000, 4));
        // 7 variables x 60k f32 = ~1.6 MiB of data; 256 KiB forces most
        // sealed regions (and their index blobs) out of core.
        let bounded = query(Opts { memory_budget: Some(256 << 10), ..small(60_000, 4) });
        assert_eq!(hits(&unbounded), hits(&bounded), "{unbounded}\n{bounded}");
        assert!(bounded.contains("out-of-core: resident high-water"), "{bounded}");
        assert!(bounded.contains("region(s) spilled"), "{bounded}");
        assert!(!unbounded.contains("out-of-core:"), "{unbounded}");
    }

    #[test]
    fn explain_marks_cold_regions() {
        let out = run(Command::Query {
            expr: "Energy > 2.0".to_string(),
            opts: Opts { explain: true, memory_budget: Some(128 << 10), ..small(40_000, 4) },
        })
        .unwrap();
        let header = out.lines().find(|l| l.contains("pruned")).expect("explain table header");
        assert!(header.contains("cold"), "{out}");
        let cold_rows = out
            .lines()
            .skip_while(|l| !l.contains("pruned"))
            .skip(1)
            .filter(|l| l.split_whitespace().nth(5) == Some("yes"))
            .count();
        assert!(cold_rows > 0, "a 128 KiB budget must leave some region cold:\n{out}");
    }

    #[test]
    fn ingest_gate_passes_under_memory_budget() {
        let out = run(Command::Ingest {
            expr: "2.1 < Energy < 2.2".to_string(),
            opts: Opts { memory_budget: Some(256 << 10), append_batches: 3, ..small(40_000, 4) },
        })
        .unwrap();
        // The sealed reruns are fully resident, so the gate is itself a
        // spill-on/off bit-identity check.
        assert!(out.contains("ingest gate: PASS (5/5"), "{out}");
        assert!(out.contains("out-of-core: resident high-water"), "{out}");
        assert!(!out.contains("MISMATCH"), "{out}");
    }

    #[test]
    fn spill_directories_are_removed() {
        let root = std::env::temp_dir().join(format!("pdc_cli_spill_root_{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/service_trace.txt");
        let budget = format!(
            "--particles 30000 --servers 4 --memory-budget 128K --spill-dir {}",
            root.display()
        );
        for cmd in [
            format!("query Energy>2 {budget}"),
            format!("ingest {budget} --append-batches 2"),
            format!("serve --trace-file {trace} {budget}"),
        ] {
            parse_args(argv(&cmd)).and_then(run).unwrap();
            let left: Vec<_> =
                std::fs::read_dir(&root).unwrap().map(|e| e.unwrap().path()).collect();
            assert!(left.is_empty(), "{cmd} left {left:?}");
        }
        // A failing run cleans up too.
        let bad = format!("query NoSuchVar>1 {budget}");
        assert!(parse_args(argv(&bad)).and_then(run).is_err());
        assert_eq!(std::fs::read_dir(&root).unwrap().count(), 0);
        // A spill root that cannot hold a directory is an error, not a panic.
        let file = root.join("not_a_dir");
        std::fs::write(&file, b"").unwrap();
        let bad = format!("query Energy>2 {budget} --spill-dir {}", file.display());
        assert!(parse_args(argv(&bad)).and_then(run).unwrap_err().contains("spill dir"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse_args(argv("")).unwrap(), Command::Help);
        assert_eq!(parse_args(argv("help")).unwrap(), Command::Help);
        assert_eq!(parse_args(argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn usage_lists_exactly_the_flag_table() {
        let in_usage: std::collections::BTreeSet<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--") && w.len() > 2)
            .collect();
        let in_table: std::collections::BTreeSet<&str> = FLAGS.iter().map(|f| f.name).collect();
        assert_eq!(in_usage, in_table);
        assert_eq!(in_table.len(), FLAGS.len(), "a flag is declared twice");
    }

    #[test]
    fn query_args_parse() {
        let cmd = parse_args(vec![
            "query".to_string(),
            "Energy > 2.0".to_string(),
            "--strategy".to_string(),
            "HI".to_string(),
            "--particles".to_string(),
            "1000".to_string(),
            "--get-data".to_string(),
            "x".to_string(),
        ])
        .unwrap();
        let expect = Opts {
            strategy: Strategy::HistogramIndex,
            particles: 1000,
            get_data: Some("x".to_string()),
            ..Opts::default()
        };
        assert_eq!(cmd, Command::Query { expr: "Energy > 2.0".to_string(), opts: expect });
    }

    #[test]
    fn joint_flag_parses() {
        let cmd = parse_args(argv("query Energy>2 --joint Energy,x")).unwrap();
        match cmd {
            Command::Query { opts, .. } => assert_eq!(opts.joint.as_deref(), Some("Energy,x")),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(argv("demo --joint Energy,x")).is_err());
    }

    #[test]
    fn joint_directory_query_matches_plain_run() {
        let expr = "Energy > 2.0 AND 100 < x < 200".to_string();
        let with = run(Command::Query {
            expr: expr.clone(),
            opts: Opts { explain: true, joint: Some("Energy,x".to_string()), ..small(50_000, 4) },
        })
        .unwrap();
        let without = run(Command::Query { expr, opts: small(50_000, 4) }).unwrap();
        assert!(with.contains("joint bounds: registered (Energy,x)"), "{with}");
        assert!(with.contains("directory: "), "{with}");
        assert!(with.contains(" admitted"), "{with}");
        assert_eq!(hits(&with), hits(&without), "with: {with}\nwithout: {without}");
    }

    #[test]
    fn demo_rejects_get_data() {
        let err = parse_args(argv("demo --get-data x")).unwrap_err();
        assert!(err.contains("--get-data is only valid for 'pdc query'"), "{err}");
    }

    #[test]
    fn strategy_aliases() {
        assert_eq!(parse_strategy("f").unwrap(), Strategy::FullScan);
        assert_eq!(parse_strategy("PDC-SH").unwrap(), Strategy::SortedHistogram);
        assert_eq!(parse_strategy("index").unwrap(), Strategy::HistogramIndex);
        assert_eq!(parse_strategy("a").unwrap(), Strategy::Adaptive);
        assert_eq!(parse_strategy("PDC-A").unwrap(), Strategy::Adaptive);
        assert_eq!(parse_strategy("adaptive").unwrap(), Strategy::Adaptive);
        assert!(parse_strategy("zzz").is_err());
    }

    #[test]
    fn explain_flag_parses() {
        let cmd = parse_args(argv("query Energy>2 --explain")).unwrap();
        match cmd {
            Command::Query { opts, .. } => assert!(opts.explain),
            other => panic!("{other:?}"),
        }
        assert!(!Opts::default().explain);
    }

    #[test]
    fn explain_prints_operator_table() {
        let out = run(Command::Query {
            expr: "2.1 < Energy < 2.2".to_string(),
            opts: Opts { strategy: Strategy::Adaptive, explain: true, ..small(50_000, 4) },
        })
        .unwrap();
        assert!(out.contains("explain: strategy PDC-A"), "{out}");
        assert!(out.contains("est(lo..hi)"), "{out}");
        assert!(out.contains("constraint: Energy"), "{out}");
        // The hits line is unchanged by --explain.
        assert!(out.contains(" hits ("), "{out}");
    }

    #[test]
    fn batch_explain_prints_lead_query_table() {
        let out = run(Command::Query {
            expr: "2.1 < Energy < 2.2".to_string(),
            opts: Opts { explain: true, queries: 4, ..small(50_000, 4) },
        })
        .unwrap();
        assert!(out.contains("outcomes: 4 completed"), "{out}");
        assert!(out.contains("explain: strategy PDC-H"), "{out}");
    }

    #[test]
    fn bad_args_error() {
        assert!(parse_args(argv("query")).is_err());
        assert!(parse_args(argv("frobnicate")).is_err());
        assert!(parse_args(argv("demo --particles notanumber")).is_err());
        assert!(parse_args(argv("demo --servers")).is_err());
        assert!(parse_args(argv("demo --frobnicate")).unwrap_err().contains("unknown option"));
    }

    #[test]
    fn fault_flags_parse() {
        let cmd = parse_args(argv("demo --servers 8 --fault-seed 42 --kill-servers 3")).unwrap();
        match cmd {
            Command::Demo { opts } => {
                assert_eq!(opts.fault_seed, Some(42));
                assert_eq!(opts.kill_servers, 3);
                let plan = fault_plan(&opts).unwrap();
                assert_eq!(plan, FaultPlan::kill_count(3, 8, 42));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn corrupt_flags_parse_and_validate() {
        let cmd = parse_args(argv("demo --corrupt-regions 0.25 --corrupt-seed 99")).unwrap();
        match cmd {
            Command::Demo { opts } => {
                assert_eq!(opts.corrupt_regions, 0.25);
                assert_eq!(opts.corrupt_seed, Some(99));
                let plan = fault_plan(&opts).unwrap();
                let spec = plan.corruption().unwrap();
                assert_eq!(spec.seed, 99);
                assert_eq!(spec.data_fraction, 0.25);
            }
            other => panic!("{other:?}"),
        }
        // Out-of-range fractions are rejected before the import runs.
        let err = parse_args(argv("demo --corrupt-regions 1.5")).unwrap_err();
        assert!(err.contains("--corrupt-regions 1.5 must be within [0, 1]"), "{err}");
        let opts = Opts { corrupt_regions: -0.1, ..small(1000, 2) };
        assert!(run(Command::Demo { opts }).is_err());
    }

    #[test]
    fn query_with_corruption_matches_clean_run() {
        let clean =
            run(Command::Query { expr: "2.1 < Energy < 2.2".to_string(), opts: small(50_000, 4) })
                .unwrap();
        let corrupt = run(Command::Query {
            expr: "2.1 < Energy < 2.2".to_string(),
            opts: Opts { corrupt_regions: 0.1, corrupt_seed: Some(7), ..small(50_000, 4) },
        })
        .unwrap();
        assert_eq!(hits(&clean), hits(&corrupt), "clean: {clean}\ncorrupt: {corrupt}");
        assert!(corrupt.contains("integrity:"), "{corrupt}");
        assert!(!clean.contains("integrity:"), "{clean}");
    }

    #[test]
    fn zero_particles_is_rejected() {
        let err = parse_args(argv("query Energy>2 --particles 0")).unwrap_err();
        assert!(err.contains("--particles must be at least 1"), "{err}");
        assert!(parse_args(argv("demo --particles 1")).is_ok());
    }

    #[test]
    fn zero_servers_is_rejected() {
        let err = parse_args(argv("query Energy>2 --servers 0")).unwrap_err();
        assert!(err.contains("--servers must be at least 1"), "{err}");
        assert!(parse_args(argv("demo --servers 1")).is_ok());
    }

    #[test]
    fn region_kb_is_range_checked() {
        let err = parse_args(argv("query Energy>2 --region-kb 18014398509481984")).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
        let err = parse_args(argv("demo --region-kb 0")).unwrap_err();
        assert!(err.contains("--region-kb must be at least 1"), "{err}");
        match parse_args(argv("demo --region-kb 4")).unwrap() {
            Command::Demo { opts } => assert_eq!(opts.region_bytes, 4096),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn kill_all_servers_is_rejected() {
        let err = parse_args(argv("demo --servers 4 --kill-servers 4")).unwrap_err();
        assert!(err.contains("--kill-servers 4 must leave at least one of 4 servers"), "{err}");
        let opts = Opts { kill_servers: 4, ..small(1000, 4) };
        assert!(run(Command::Demo { opts }).is_err());
    }

    #[test]
    fn query_with_faults_matches_healthy_run() {
        let healthy =
            run(Command::Query { expr: "2.1 < Energy < 2.2".to_string(), opts: small(50_000, 4) })
                .unwrap();
        let faulty = run(Command::Query {
            expr: "2.1 < Energy < 2.2".to_string(),
            opts: Opts { kill_servers: 2, ..small(50_000, 4) },
        })
        .unwrap();
        // Same hit count despite two dead servers; fault report present.
        assert_eq!(hits(&healthy), hits(&faulty), "healthy: {healthy}\nfaulty: {faulty}");
        assert!(faulty.contains("faults: servers"), "{faulty}");
        assert!(!healthy.contains("faults:"), "{healthy}");
    }

    #[test]
    fn end_to_end_query_command() {
        let cmd = parse_args(vec![
            "query".to_string(),
            "2.1 < Energy < 2.2".to_string(),
            "--particles".to_string(),
            "50000".to_string(),
            "--servers".to_string(),
            "4".to_string(),
            "--get-data".to_string(),
            "Energy".to_string(),
        ])
        .unwrap();
        let out = run(cmd).unwrap();
        assert!(out.contains("hits"), "{out}");
        assert!(out.contains("get_data(Energy)"), "{out}");
    }

    #[test]
    fn batch_flags_parse() {
        let cmd = parse_args(argv("query Energy>2 --queries 8 --batch-file qs.txt")).unwrap();
        match cmd {
            Command::Query { opts, .. } => {
                assert_eq!(opts.queries, 8);
                assert_eq!(opts.batch_file.as_deref(), Some("qs.txt"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(argv("query E>1 --queries 0")).is_err());
        assert!(parse_args(argv("demo --queries 4")).is_err());
        assert!(parse_args(argv("demo --batch-file qs.txt")).is_err());
    }

    #[test]
    fn batch_query_reports_throughput_and_matches_single_run() {
        let single =
            run(Command::Query { expr: "2.1 < Energy < 2.2".to_string(), opts: small(50_000, 4) })
                .unwrap();
        let batched = run(Command::Query {
            expr: "2.1 < Energy < 2.2".to_string(),
            opts: Opts { queries: 8, ..small(50_000, 4) },
        })
        .unwrap();
        assert!(batched.contains("outcomes: 8 completed, 0 deferral(s), 0 rejected"), "{batched}");
        assert!(batched.contains("tenant     client:   8/8 done"), "{batched}");
        assert!(batched.contains("q/s simulated"), "{batched}");
        // The per-query hits line is identical to the single run's.
        let line = |s: &str| s.lines().find(|l| l.contains(" hits (")).unwrap().to_string();
        assert_eq!(line(&single), line(&batched), "single: {single}\nbatched: {batched}");
        assert!(!single.contains("outcomes:"), "{single}");
    }

    #[test]
    fn batch_file_missing_is_an_error() {
        let out = run(Command::Query {
            expr: "Energy > 2.0".to_string(),
            opts: Opts {
                batch_file: Some("/nonexistent/queries.txt".to_string()),
                ..small(10_000, 2)
            },
        });
        assert!(out.is_err());
    }

    #[test]
    fn ingest_flags_parse() {
        let cmd = parse_args(argv("ingest --append-batches 3 --append-fraction 0.2")).unwrap();
        match cmd {
            Command::Ingest { expr, opts } => {
                assert_eq!(expr, "2.1 < Energy < 2.2");
                assert_eq!(opts.append_batches, 3);
                assert_eq!(opts.append_fraction, 0.2);
            }
            other => panic!("{other:?}"),
        }
        // A positional expression and interleaved common options survive.
        let cmd = parse_args(argv("ingest Energy>2 --particles 1000 --append-batches 2")).unwrap();
        match cmd {
            Command::Ingest { expr, opts } => {
                assert_eq!(expr, "Energy>2");
                assert_eq!(opts.particles, 1000);
                assert_eq!(opts.append_batches, 2);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(argv("ingest --append-batches 0")).is_err());
        assert!(parse_args(argv("ingest --append-fraction 1.5")).is_err());
        assert!(parse_args(argv("ingest --append-fraction 0")).is_err());
        // Rejected before any dataset is generated.
        let err = parse_args(argv("ingest --particles 5 --append-batches 5")).unwrap_err();
        assert!(err.contains("leaves no initial extent for 5 particles"), "{err}");
        let err = parse_args(argv("query E>1 --append-batches 2")).unwrap_err();
        assert!(err.contains("--append-batches is only valid for 'pdc ingest'"), "{err}");
    }

    #[test]
    fn ingest_gate_passes_end_to_end() {
        let out = run(Command::Ingest {
            expr: "2.1 < Energy < 2.2".to_string(),
            opts: Opts { append_batches: 3, ..small(40_000, 4) },
        })
        .unwrap();
        // 3 appends → 4 interleaved checks + the post-maintenance rerun.
        assert!(out.contains("ingest gate: PASS (5/5"), "{out}");
        assert!(out.contains("append 1: +"), "{out}");
        assert!(out.contains("maintenance: rebuilt"), "{out}");
        assert!(!out.contains("MISMATCH"), "{out}");
    }

    #[test]
    fn ingest_gate_passes_under_faults() {
        let out = run(Command::Ingest {
            expr: "Energy > 2.0".to_string(),
            opts: Opts {
                strategy: Strategy::Adaptive,
                fault_seed: Some(7),
                append_batches: 2,
                append_fraction: 0.15,
                ..small(30_000, 4)
            },
        })
        .unwrap();
        assert!(out.contains("ingest gate: PASS"), "{out}");
    }

    #[test]
    fn parse_errors_propagate() {
        let cmd = parse_args(vec![
            "query".to_string(),
            "NoSuchVar > 1".to_string(),
            "--particles".to_string(),
            "10000".to_string(),
        ])
        .unwrap();
        assert!(run(cmd).is_err());
    }

    #[test]
    fn replication_flags_parse() {
        let cmd =
            parse_args(argv("query Energy>2 --replicas 2 --join-server --leave-server 0")).unwrap();
        match cmd {
            Command::Query { opts, .. } => {
                assert_eq!(opts.replicas, 2);
                assert!(opts.join_server);
                assert_eq!(opts.leave_server, Some(0));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(Opts::default().replicas, 1);
        // --replicas is a common flag; membership ops are query-only.
        assert!(parse_args(argv("demo --replicas 3")).is_ok());
        assert!(parse_args(argv("query E>1 --replicas 0")).is_err());
        assert!(parse_args(argv("demo --join-server")).is_err());
        assert!(parse_args(argv("demo --leave-server 1")).is_err());
    }

    #[test]
    fn replication_query_survives_kill_with_failover() {
        // A query that touches every region, so the killed server's crash
        // probe actually fires mid-evaluation.
        let query =
            |opts: Opts| run(Command::Query { expr: "Energy > 0".to_string(), opts }).unwrap();
        let healthy = query(small(50_000, 4));
        let replicated =
            query(Opts { replicas: 2, kill_servers: 1, fault_seed: Some(3), ..small(50_000, 4) });
        assert_eq!(hits(&healthy), hits(&replicated), "{healthy}\n{replicated}");
        assert!(replicated.contains("replication: k=2"), "{replicated}");
        assert!(replicated.contains("failed over to live replicas"), "{replicated}");
        assert!(replicated.contains("rebuild: redundancy restored"), "{replicated}");
        assert!(!healthy.contains("replication:"), "{healthy}");
    }

    #[test]
    fn replication_membership_smoke_preserves_results() {
        let out = run(Command::Query {
            expr: "2.1 < Energy < 2.2".to_string(),
            opts: Opts {
                replicas: 2,
                join_server: true,
                leave_server: Some(0),
                ..small(50_000, 4)
            },
        })
        .unwrap();
        assert!(out.contains("membership: +server 4"), "{out}");
        assert!(out.contains("membership: -server 0"), "{out}");
        assert_eq!(out.matches("results unchanged: yes").count(), 2, "{out}");
        assert!(!out.contains("results unchanged: NO"), "{out}");
    }

    #[test]
    fn replication_membership_at_k1_preserves_results() {
        let out = run(Command::Query {
            expr: "Energy > 2.0".to_string(),
            opts: Opts { join_server: true, leave_server: Some(0), ..small(10_000, 2) },
        })
        .unwrap();
        assert!(!out.contains("replication:"), "k = 1 prints no replication line: {out}");
        assert_eq!(out.matches("results unchanged: yes").count(), 2, "{out}");
    }

    #[test]
    fn replication_explain_shows_chosen_replica_per_slot() {
        let out = run(Command::Query {
            expr: "2.1 < Energy < 2.2".to_string(),
            opts: Opts { replicas: 2, explain: true, ..small(50_000, 4) },
        })
        .unwrap();
        assert!(out.contains("slot routes (slot\u{2192}chosen server):"), "{out}");
        assert!(out.contains("0\u{2192}0"), "healthy anchors serve their own slots: {out}");
    }

    #[test]
    fn serve_flags_parse() {
        let cmd = parse_args(argv("serve --trace-file /tmp/t.trace --quantum-ms 2.5 --servers 8"))
            .unwrap();
        match cmd {
            Command::Serve { opts } => {
                assert_eq!(opts.trace_file.as_deref(), Some("/tmp/t.trace"));
                assert_eq!(opts.servers, 8);
                assert_eq!(opts.quantum_ms, 2.5);
            }
            other => panic!("{other:?}"),
        }
        // Defaults.
        match parse_args(argv("serve --trace-file t")).unwrap() {
            Command::Serve { opts } => assert_eq!(opts.quantum_ms, 5.0),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(argv("serve")).unwrap_err().contains("--trace-file"));
        assert!(parse_args(argv("serve --trace-file t --quantum-ms 0"))
            .unwrap_err()
            .contains("--quantum-ms"));
        let err = parse_args(argv("demo --trace-file t")).unwrap_err();
        assert!(err.contains("--trace-file is only valid for 'pdc serve'"), "{err}");
    }

    /// Write `body` to a per-test trace file and serve it on a small world.
    fn serve_trace(tag: &str, body: &str, opts: Opts) -> Result<String, String> {
        let path =
            std::env::temp_dir().join(format!("pdc_cli_serve_{tag}_{}.trace", std::process::id()));
        std::fs::write(&path, body).unwrap();
        let trace_file = Some(path.to_string_lossy().into_owned());
        let out = run(Command::Serve { opts: Opts { trace_file, ..opts } });
        std::fs::remove_file(&path).ok();
        out
    }

    #[test]
    fn serve_replays_trace_and_passes_equivalence_gate() {
        let out = serve_trace(
            "gate",
            "# two declared tenants plus one auto-registered on first arrival\n\
             tenant alice weight=2 budget-ms=50 cap=16\n\
             tenant bob weight=1 budget-ms=50 cap=16\n\
             0.0 alice 2.1 < Energy < 2.2\n\
             0.1 bob 2.1 < Energy < 2.2\n\
             0.2 carol 2.1 < Energy < 2.2\n\
             5.0 alice 3.5 < Energy < 3.6\n\
             9.0 bob Energy > 2.0 AND 100 < x < 200\n",
            small(30_000, 4),
        )
        .unwrap();
        assert!(out.contains("serve: 5 arrival(s) from 3 tenant(s)"), "{out}");
        assert!(out.contains("tenant      alice"), "{out}");
        assert!(out.contains("tenant      carol"), "auto-registered tenant: {out}");
        assert!(out.contains("service equivalence: PASS"), "{out}");
        // Byte-identical across runs: the output is simulated-time only.
        let body = "tenant alice weight=2 budget-ms=50 cap=16\n0.0 alice 2.1 < Energy < 2.2\n";
        let a = serve_trace("gate", body, small(20_000, 4)).unwrap();
        let b = serve_trace("gate", body, small(20_000, 4)).unwrap();
        assert_eq!(a, b);
        // Under corruption every dispatch repairs before it plans, and the
        // served outcomes still equal their solo runs.
        let opts = Opts { corrupt_regions: 0.1, ..small(20_000, 4) };
        let corrupt = serve_trace("gate", body, opts).unwrap();
        assert!(corrupt.contains("service equivalence: PASS"), "{corrupt}");
    }

    #[test]
    fn serve_rejects_malformed_traces() {
        let serve = |body: &str| serve_trace("bad", body, small(10_000, 2));
        assert!(serve("tenant a weight=x\n").unwrap_err().contains("weight"));
        let err = serve("tenant a weight=0\n0.0 a Energy > 2\n").unwrap_err();
        assert!(err.contains("trace line 1: weight must be at least 1"), "{err}");
        assert!(serve("tenant a speed=9\n").unwrap_err().contains("unknown tenant attribute"));
        assert!(serve("0.0 alice\n").unwrap_err().contains("query expression"));
        assert!(serve("-1 alice Energy > 2\n").unwrap_err().contains("non-negative"));
        assert!(serve("# only comments\n").unwrap_err().contains("no arrivals"));
    }

    #[test]
    fn serve_survives_extreme_times_and_quanta() {
        // An arrival near the top of the simulated clock's range.
        let late = "0.0 a 2.1 < Energy < 2.2\n18446744073709 a 2.1 < Energy < 2.2\n";
        let out = serve_trace("late", late, small(10_000, 2)).unwrap();
        assert!(out.contains("service equivalence: PASS"), "{out}");
        // A quantum whose weighted credit overflows 64-bit nanoseconds.
        let heavy = "tenant a weight=2\n0.0 a 2.1 < Energy < 2.2\n";
        let out =
            serve_trace("quantum", heavy, Opts { quantum_ms: 1e16, ..small(10_000, 2) }).unwrap();
        assert!(out.contains("service equivalence: PASS"), "{out}");
    }
}
