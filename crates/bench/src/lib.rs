//! # pdc-bench
//!
//! The reproduction harness: one binary for the paper's figures and one
//! per `ci.sh` gate, all over this library — the only place a bin gets a
//! world ([`build_world`]), a strategy table ([`ALL_STRATEGIES`]), a JSON
//! document ([`Json`]) or a gate verdict ([`Gates`]).
//!
//! | Gate binary | Writes | Gates on |
//! |---|---|---|
//! | `paper` | `BENCH_paper.json` + `results/*.md` beside it | Figs. 3–6, §V catalog, E6 overheads, E7 ablations, E8 faults ([`paper`]): strategies, baselines and fault runs agree; claims recorded against the paper's bands |
//! | `throughput` | `BENCH_throughput.json` | shared reads, cache hit ratios, simulated batch ≤ Σ sequential |
//! | `adaptive` | `BENCH_adaptive.json` | PDC-A ≤ best fixed strategy |
//! | `ingest` | `BENCH_ingest.json` | mid-ingest queries identical to sealed reruns |
//! | `pruning` | `BENCH_pruning.json` | ≥ 2× fewer admitted regions, directory on/off identity |
//! | `replication` | `BENCH_replication.json` | kill degradation ≤ 1.1× at k ≥ 2 |
//! | `blockstore` | `BENCH_blockstore.json` | compression ≥ 2×, high-water ≤ budget, identical to unbounded |
//! | `service` | `BENCH_service.json` | flood p99 ≤ 1.25× uniform, replay identity, late joins |
//!
//! Every number a gate bin records is a simulated-clock value, a count
//! or an identity, so each committed `BENCH_*.json` is a pure function of
//! the code and `ci.sh` compares it byte for byte. Host wall time is
//! measured only by the referee (`benchmark/`).
//!
//! The crate reads exactly four environment variables, all through
//! [`Scale`]: `PDC_PARTICLES` (default 4,000,000 for `paper`, a per-bin
//! default for the other gate bins), `PDC_SERVERS` (default 16; the other
//! gate bins pin their own), `PDC_BOSS_OBJECTS` (default 5000), `PDC_SEED`.
//! An unparsable or zero value is an error (exit 2), never a silent
//! default. The region-size sweep is scaled 1:256 against the paper
//! (16 KB–512 KB here ↔ 4 MB–128 MB on the 466 GB Cori objects),
//! spanning the same two-decade regions-per-object regime; see
//! EXPERIMENTS.md.

use pdc_odms::{ImportOptions, Odms};
use pdc_query::{EngineConfig, PdcQuery, QueryEngine, Strategy};
use pdc_storage::{CostModel, SimDuration};
use pdc_types::{ObjectId, QueryOp, TypedVec};
use pdc_workloads::vpic::VpicObjects;
use pdc_workloads::{MultiObjectQuerySpec, VpicConfig, VpicData};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

pub mod paper;

/// Every evaluation strategy ([`Strategy::ALL`]), fixed ones first and
/// `PDC-A` last.
pub const ALL_STRATEGIES: [Strategy; 5] = Strategy::ALL;

/// Scale configuration, read from the environment.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Particles per VPIC variable (elements per column).
    pub particles: usize,
    /// Logical PDC servers.
    pub servers: u32,
    /// BOSS catalog size.
    pub boss_objects: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Scale {
    /// The `paper` bin's scale: `PDC_*` environment variables over
    /// defaults sized for a laptop run. Exits 2 on a bad value.
    pub fn from_env() -> Scale {
        Self::env_or_exit(4_000_000)
    }

    /// A gate bin's scale: `PDC_PARTICLES` over the bin's own default
    /// element count, and the server count its thresholds were
    /// calibrated at. Exits 2 on a bad value of any `PDC_*` variable.
    pub fn for_gate(default_particles: usize, servers: u32) -> Scale {
        Scale { servers, ..Self::env_or_exit(default_particles) }
    }

    fn env_or_exit(default_particles: usize) -> Scale {
        Self::parse(|key| std::env::var(key).ok(), default_particles).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2)
        })
    }

    /// Resolve the four variables through `lookup`; unset means the
    /// default, anything unparsable — or a zero count — is an error.
    fn parse(
        lookup: impl Fn(&str) -> Option<String>,
        default_particles: usize,
    ) -> Result<Scale, String> {
        fn var<T: std::str::FromStr + PartialEq + From<u8>>(
            lookup: &impl Fn(&str) -> Option<String>,
            key: &str,
            default: T,
            zero_ok: bool,
        ) -> Result<T, String> {
            let Some(raw) = lookup(key) else { return Ok(default) };
            match raw.trim().parse::<T>() {
                Ok(v) if zero_ok || v != T::from(0) => Ok(v),
                Ok(_) => Err(format!("{key}={raw}: must be at least 1")),
                Err(_) => Err(format!("{key}={raw}: not an unsigned integer")),
            }
        }
        Ok(Scale {
            particles: var(&lookup, "PDC_PARTICLES", default_particles, false)?,
            servers: var(&lookup, "PDC_SERVERS", 16, false)?,
            boss_objects: var(&lookup, "PDC_BOSS_OBJECTS", 5_000, false)?,
            seed: var(&lookup, "PDC_SEED", 0x5EED_201C, true)?,
        })
    }

    /// Dataset scale factor vs. the paper's 125-billion-particle run.
    pub fn factor(&self) -> f64 {
        125e9 / self.particles as f64
    }

    /// The cost model rescaled to this dataset size (see
    /// [`CostModel::scaled`]): I/O shrinks by the data factor; CPU grows
    /// by the data factor corrected for the 64-server paper deployment
    /// vs. our server count, so per-server scan/read ratios match.
    pub fn cost(&self) -> CostModel {
        let f = self.factor();
        CostModel::scaled(f, f * self.servers as f64 / 64.0, REGION_SCALE)
    }
}

/// The region-size sweep: ours ↔ the paper's. The paper sweeps
/// 4 MB–128 MB on 466 GB objects (119k–3.6k regions per object); at our
/// default 16 MB objects the same two-decade regions-per-object regime is
/// 16 KB–512 KB (1024–32 regions).
pub const REGION_SWEEP: [(u64, &str); 6] = [
    (16 << 10, "4MB"),
    (32 << 10, "8MB"),
    (64 << 10, "16MB"),
    (128 << 10, "32MB"),
    (256 << 10, "64MB"),
    (512 << 10, "128MB"),
];

/// The sweep entry playing the paper's "best region size" (32 MB) role.
pub const BEST_REGION: (u64, &str) = (128 << 10, "32MB");

/// Ratio between the paper's region sizes and ours (4 MB : 16 KB).
const REGION_SCALE: f64 = 256.0;

/// Human-readable bytes.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2}GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2}MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

/// Selectivity as a percentage string like the paper's axes.
pub fn fmt_sel(s: f64) -> String {
    format!("{:.4}%", s * 100.0)
}

/// Which columns of a world get an acceleration structure.
#[derive(Debug, Clone, Copy)]
pub enum Columns {
    /// No column.
    None,
    /// The first column only (the paper indexes and sorts by the
    /// primary queried object).
    First,
    /// Every column.
    All,
}

impl Columns {
    fn covers(self, column: usize) -> bool {
        match self {
            Columns::None => false,
            Columns::First => column == 0,
            Columns::All => true,
        }
    }
}

/// How [`build_world`] imports its columns.
#[derive(Debug, Clone, Copy)]
pub struct WorldSpec<'a> {
    /// Region size in bytes.
    pub region_bytes: u64,
    /// Columns that get a per-region bitmap index.
    pub index: Columns,
    /// Columns that get a value-sorted replica.
    pub sorted: Columns,
    /// Spill directory and memory budget, configured *before* the import
    /// so ingest itself demotes as regions seal.
    pub spill: Option<(&'a Path, u64)>,
}

impl WorldSpec<'_> {
    /// A resident (never spilling) world.
    pub fn resident(region_bytes: u64, index: Columns, sorted: Columns) -> Self {
        WorldSpec { region_bytes, index, sorted, spill: None }
    }

    /// The figure harness's VPIC import: `Energy` indexed and sorted;
    /// `index_all` indexes the other six variables too (needed by
    /// multi-object `PDC-HI`).
    pub fn vpic(region_bytes: u64, index_all: bool) -> Self {
        let index = if index_all { Columns::All } else { Columns::First };
        Self::resident(region_bytes, index, Columns::First)
    }
}

/// Block-cache size of a spilling world.
const SPILL_BLOCK_CACHE_BYTES: u64 = 8 << 20;

/// An imported world; `objects` holds the column ids.
pub struct World<O = Vec<ObjectId>> {
    /// The system.
    pub odms: Arc<Odms>,
    /// Object ids of the imported columns.
    pub objects: O,
    /// Total imported data bytes.
    pub data_bytes: u64,
    /// Total serialized index bytes.
    pub index_bytes: u64,
    /// Sorted-replica bytes.
    pub sorted_bytes: u64,
}

/// A VPIC world: the seven variables by name.
pub type VpicWorld = World<VpicObjects>;

/// Import `columns` (`Float` arrays, in order) into a fresh system.
pub fn build_world(columns: &[(&str, &[f32])], spec: &WorldSpec) -> World {
    let odms = Arc::new(Odms::new(64));
    if let Some((dir, budget)) = spec.spill {
        odms.store()
            .configure_spill(dir, budget, SPILL_BLOCK_CACHE_BYTES)
            .expect("configure spill");
    }
    let container = odms.create_container("bench");
    let mut world = World {
        odms: Arc::clone(&odms),
        objects: Vec::with_capacity(columns.len()),
        data_bytes: 0,
        index_bytes: 0,
        sorted_bytes: 0,
    };
    for (i, (name, values)) in columns.iter().enumerate() {
        let opts = ImportOptions {
            region_bytes: spec.region_bytes,
            build_index: spec.index.covers(i),
            build_sorted: spec.sorted.covers(i),
            ..Default::default()
        };
        let report = odms
            .import_array(container, name, TypedVec::Float(values.to_vec()), &opts)
            .expect("import");
        world.data_bytes += report.data_bytes;
        world.index_bytes += report.index_bytes;
        world.sorted_bytes += report.sorted_bytes;
        world.objects.push(report.object);
    }
    world
}

/// Import the seven VPIC variables at the given region size (see
/// [`WorldSpec::vpic`]).
pub fn import_vpic(data: &VpicData, region_bytes: u64, index_all: bool) -> VpicWorld {
    let columns = data.variables().map(|(name, values)| (name, values.as_slice()));
    let w = build_world(&columns, &WorldSpec::vpic(region_bytes, index_all));
    let [energy, x, y, z, ux, uy, uz] = w.objects[..] else { unreachable!("seven variables") };
    World {
        odms: w.odms,
        objects: VpicObjects { energy, x, y, z, ux, uy, uz },
        data_bytes: w.data_bytes,
        index_bytes: w.index_bytes,
        sorted_bytes: w.sorted_bytes,
    }
}

/// One of Fig. 4's conjunctive 3-D window queries over a VPIC world.
pub fn multi_object_query(world: &VpicWorld, spec: &MultiObjectQuerySpec) -> PdcQuery {
    let o = &world.objects;
    PdcQuery::create(o.energy, QueryOp::Gt, spec.energy_gt)
        .and(PdcQuery::range_open(o.x, spec.x_lo, spec.x_hi))
        .and(PdcQuery::range_open(o.y, spec.y_lo, spec.y_hi))
        .and(PdcQuery::range_open(o.z, spec.z_lo, spec.z_hi))
}

/// Generate the VPIC dataset once for a harness run.
pub fn generate_vpic(scale: &Scale) -> VpicData {
    VpicData::generate(&VpicConfig { particles: scale.particles, seed: scale.seed })
}

/// The synthetic energy column of the gate bins (the shape the
/// equivalence tests use): a smooth bulk in [0, 1.8] plus clustered
/// tails in [2.0, 3.6), which recur in every region — so histograms
/// prune nothing for tail windows and scans dominate.
pub fn synthetic_energy(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            if (3000..3400).contains(&(i % 8000)) {
                2.0 + ((i * 31) % 160) as f32 / 100.0
            } else {
                ((i as f32 * 0.37).sin() + 1.0) * 0.9
            }
        })
        .collect()
}

/// A fresh, empty scratch directory under the system temp dir; the
/// caller removes it.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdc_bench_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The harness's engine configuration: 1 GiB of region cache per server
/// (the paper's 64 GB nodes hold every working set), everything else
/// default. Bins override single fields with struct-update syntax.
pub fn engine_config(strategy: Strategy, servers: u32, cost: CostModel) -> EngineConfig {
    EngineConfig {
        strategy,
        num_servers: servers,
        cache_bytes_per_server: 1 << 30,
        cost,
        ..Default::default()
    }
}

/// A fresh engine over a world, using the scale-appropriate cost model.
pub fn engine<O>(world: &World<O>, strategy: Strategy, scale: &Scale) -> QueryEngine {
    let config = engine_config(strategy, scale.servers, scale.cost());
    QueryEngine::new(Arc::clone(&world.odms), config)
}

/// A fresh engine on `EngineConfig`'s defaults — the unscaled Cori-like
/// cost model the synthetic-column gate bins were recorded under.
pub fn engine_unscaled<O>(world: &World<O>, strategy: Strategy, servers: u32) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(&world.odms),
        EngineConfig { strategy, num_servers: servers, ..Default::default() },
    )
}

/// Format a simulated duration in seconds with fixed precision (tables
/// align better than the adaptive `Display`).
pub fn fmt_dur(d: SimDuration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

/// A simulated duration in milliseconds.
pub fn sim_ms(d: SimDuration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Ratio `a/b` guarding zero.
pub fn speedup(baseline: SimDuration, other: SimDuration) -> f64 {
    let b = other.as_secs_f64();
    if b <= 0.0 {
        f64::INFINITY
    } else {
        baseline.as_secs_f64() / b
    }
}

/// An ordered JSON value: objects keep insertion order and floats carry
/// their own fixed precision, so a document is a pure function of the
/// values put into it.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A number, already rendered (see [`Json::fixed`]; integers convert
    /// with `From`).
    Num(String),
    /// A string (escaped on rendering).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// `value` with exactly `decimals` fractional digits. JSON has no
    /// NaN or infinity; a non-finite value renders as `null`.
    pub fn fixed(value: f64, decimals: usize) -> Json {
        Json::Num(if value.is_finite() { format!("{value:.decimals$}") } else { "null".into() })
    }

    /// A simulated duration in milliseconds, to the microsecond.
    pub fn ms(d: SimDuration) -> Json {
        Json::fixed(sim_ms(d), 3)
    }

    /// An object from `(key, value)` pairs, in the order given.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Append a field to an object; returns `self` for chaining.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        let Json::Obj(fields) = self else { panic!("Json::set on a non-object") };
        fields.push((key.to_string(), value.into()));
        self
    }

    /// The value under `key`, if `self` is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Render as an indented document ending in a newline. A container
    /// below the root whose members are all scalars stays on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (open, close, members): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => return out.push_str(n),
            Json::Str(s) => return write_json_str(out, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => {
                ('{', '}', fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect())
            }
        };
        out.push(open);
        let inline = depth > 0 && members.iter().all(|(_, v)| v.is_scalar());
        for (i, (key, value)) in members.iter().enumerate() {
            out.push_str(if i > 0 { "," } else { "" });
            if inline {
                out.push_str(if i > 0 { " " } else { "" });
            } else {
                let _ = write!(out, "\n{:w$}", "", w = 2 * (depth + 1));
            }
            if let Some(key) = key {
                write_json_str(out, key);
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        if !inline && !members.is_empty() {
            let _ = write!(out, "\n{:w$}", "", w = 2 * depth);
        }
        out.push(close);
    }
}

fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! json_from {
    ($($t:ty => $make:expr),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                $make(v)
            }
        }
    )*};
}
json_from!(bool => Json::Bool, String => Json::Str, &str => |s: &str| Json::Str(s.into()));
json_from!(u32 => num, u64 => num, usize => num);

fn num(n: impl ToString) -> Json {
    Json::Num(n.to_string())
}

impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }
}

/// `"PASS"` / `"FAIL"`, the spelling the recorded documents use for a
/// gate's own verdict.
pub fn pass_fail(ok: bool) -> Json {
    Json::from(if ok { "PASS" } else { "FAIL" })
}

/// A gate bin's named checks and the document they are recorded in.
/// [`Gates::finish`] writes the document first and judges afterwards, so
/// a failing run still leaves its complete evidence on disk.
pub struct Gates {
    out_path: PathBuf,
    failed: Vec<String>,
}

impl Gates {
    /// Gates for the bin `bench`: the document goes to `argv[1]`, or to
    /// `BENCH_<bench>.json` in the working directory.
    pub fn from_args(bench: &str) -> Gates {
        let path = std::env::args().nth(1).unwrap_or_else(|| format!("BENCH_{bench}.json"));
        Gates::at(path)
    }

    /// Gates whose document goes to `out_path`.
    pub fn at(out_path: impl Into<PathBuf>) -> Gates {
        Gates { out_path: out_path.into(), failed: Vec::new() }
    }

    /// Where [`Gates::verdict`] writes the document.
    pub fn path(&self) -> &Path {
        &self.out_path
    }

    /// Record the named check; returns `ok` so it can be recorded in the
    /// document too.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) -> bool {
        if !ok {
            self.failed.push(format!("FAIL: {}", name.into()));
        }
        ok
    }

    /// Whether every check so far held.
    pub fn all_passed(&self) -> bool {
        self.failed.is_empty()
    }

    /// Write `doc`, then return the verdict: `Err` lists every failed
    /// check (or the write error).
    pub fn verdict(&self, doc: &Json) -> Result<(), String> {
        std::fs::write(&self.out_path, doc.render())
            .map_err(|e| format!("cannot write {}: {e}", self.out_path.display()))?;
        if self.failed.is_empty() {
            Ok(())
        } else {
            Err(self.failed.join("\n"))
        }
    }

    /// [`Gates::verdict`] as a process exit code, failures on stderr.
    pub fn finish(self, doc: &Json) -> ExitCode {
        match self.verdict(doc) {
            Ok(()) => {
                println!("wrote {}", self.out_path.display());
                ExitCode::SUCCESS
            }
            Err(failures) => {
                eprintln!("{failures}");
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale_from(vars: &[(&str, &str)]) -> Result<Scale, String> {
        Scale::parse(
            |key| vars.iter().find(|(k, _)| *k == key).map(|(_, v)| v.to_string()),
            4_000_000,
        )
    }

    #[test]
    fn scale_defaults_when_unset() {
        let s = scale_from(&[]).unwrap();
        assert_eq!(
            (s.particles, s.servers, s.boss_objects, s.seed),
            (4_000_000, 16, 5_000, 0x5EED_201C)
        );
        assert_eq!(Scale::parse(|_| None, 1 << 20).unwrap().particles, 1 << 20);
    }

    fn assert_rejected(key: &str, bad: &[&str]) {
        for raw in bad {
            let err = scale_from(&[(key, raw)]).unwrap_err();
            assert!(err.starts_with(&format!("{key}={raw}: ")) && !err.contains('\n'), "{err}");
        }
    }

    #[test]
    fn particles_must_be_a_positive_integer() {
        assert_eq!(scale_from(&[("PDC_PARTICLES", "250000")]).unwrap().particles, 250_000);
        assert_rejected("PDC_PARTICLES", &["1e5", "0", "", "-3"]);
    }

    #[test]
    fn servers_must_be_a_positive_integer() {
        assert_eq!(scale_from(&[("PDC_SERVERS", "8")]).unwrap().servers, 8);
        assert_rejected("PDC_SERVERS", &["0", "eight", "4294967296"]);
    }

    #[test]
    fn boss_objects_must_be_a_positive_integer() {
        assert_eq!(scale_from(&[("PDC_BOSS_OBJECTS", "500")]).unwrap().boss_objects, 500);
        assert_rejected("PDC_BOSS_OBJECTS", &["0", "5k"]);
    }

    #[test]
    fn seed_must_be_an_integer_and_may_be_zero() {
        assert_eq!(scale_from(&[("PDC_SEED", "0")]).unwrap().seed, 0);
        assert_rejected("PDC_SEED", &["0x5EED", "-1"]);
    }

    #[test]
    fn sweep_labels_map_consistently() {
        for (bytes, label) in REGION_SWEEP {
            let paper_mb: u64 = label.trim_end_matches("MB").parse().unwrap();
            assert_eq!(bytes * 256, paper_mb << 20, "{label}");
        }
    }

    #[test]
    fn scale_factor_and_cost() {
        let s = Scale { particles: 4_000_000, servers: 16, boss_objects: 100, seed: 1 };
        assert!((s.factor() - 31250.0).abs() < 1.0);
        let c = s.cost();
        assert!(c.pfs.link_bandwidth < 1e6);
        assert!(c.cpu.scan_ns_per_element > 1000.0);
        // DRAM stays memory-speed at any scale.
        assert!(c.dram.bandwidth > 1e9);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.00MiB");
        assert_eq!(fmt_sel(0.013025), "1.3025%");
        assert_eq!(fmt_dur(SimDuration::from_millis(1500)), "1.5000");
    }

    #[test]
    fn speedup_guards_zero() {
        assert!(speedup(SimDuration::from_millis(10), SimDuration::ZERO).is_infinite());
        assert_eq!(speedup(SimDuration::from_millis(10), SimDuration::from_millis(5)), 2.0);
    }

    fn sample_doc() -> Json {
        let mut doc =
            Json::obj([("zeta", Json::from(1u32)), ("alpha", Json::from("a \"q\" \\ \n\t\u{1}"))]);
        doc.set("ratio", Json::fixed(2.0 / 3.0, 3))
            .set("whole", Json::fixed(120.0, 0))
            .set("nan", Json::fixed(f64::NAN, 2))
            .set("ok", true)
            .set(
                "row",
                Json::obj([
                    ("ms", Json::ms(SimDuration::from_millis(1500))),
                    ("n", Json::from(7u64)),
                ]),
            )
            .set("list", [1usize, 2, 3].into_iter().map(Json::from).collect::<Json>())
            .set(
                "nested",
                Json::obj([("rows", Json::Arr(vec![Json::obj([("k", Json::from(1u32))])]))]),
            )
            .set("empty", Json::Arr(Vec::new()));
        doc
    }

    #[test]
    fn json_keeps_key_order_escapes_and_fixes_precision() {
        let expected = r#"{
  "zeta": 1,
  "alpha": "a \"q\" \\ \n\t\u0001",
  "ratio": 0.667,
  "whole": 120,
  "nan": null,
  "ok": true,
  "row": {"ms": 1500.000, "n": 7},
  "list": [1, 2, 3],
  "nested": {
    "rows": [
      {"k": 1}
    ]
  },
  "empty": []
}
"#;
        assert_eq!(sample_doc().render(), expected);
    }

    #[test]
    fn failing_gate_still_writes_the_whole_document() {
        let dir = scratch_dir("gates");
        let path = dir.join("doc.json");
        let mut gates = Gates::at(&path);
        assert!(gates.check("holds", true));
        assert!(!gates.check("adaptive total exceeds best fixed", false));
        assert!(!gates.all_passed());
        let doc = sample_doc();
        let err = gates.verdict(&doc).unwrap_err();
        assert_eq!(err, "FAIL: adaptive total exceeds best fixed");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), doc.render());

        assert_eq!(Gates::at(&path).verdict(&doc), Ok(()));
        let unwritable = Gates::at(dir.join("missing").join("doc.json")).verdict(&doc);
        assert!(unwritable.unwrap_err().starts_with("cannot write"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One fixture for the world builder: the plain VPIC import answers
    /// exactly, and the same import under a spill budget reproduces the
    /// `blockstore` bin's invariant at 64 Ki elements.
    #[test]
    fn small_world_imports_and_queries() {
        let data = VpicData::generate(&VpicConfig { particles: 64 << 10, seed: 3 });
        let region_bytes = 32 << 10;
        let world = import_vpic(&data, region_bytes, false);
        assert!(world.data_bytes > 0);
        assert!(world.index_bytes > 0);
        assert!(world.sorted_bytes > 0);
        let scale = Scale { particles: data.len(), servers: 8, boss_objects: 10, seed: 3 };
        let q = |energy: ObjectId| PdcQuery::range_open(energy, 2.1f32, 2.2f32);
        let iv = pdc_types::Interval::open(2.1, 2.2);
        let exact = data.energy.iter().filter(|&&v| iv.contains(v as f64)).count() as u64;

        let dir = scratch_dir("small_world");
        let budget = world.data_bytes / 4;
        let columns = data.variables().map(|(name, values)| (name, values.as_slice()));
        let spec =
            WorldSpec { spill: Some((&dir, budget)), ..WorldSpec::vpic(region_bytes, false) };
        let bounded = build_world(&columns, &spec);
        assert_eq!(
            (bounded.data_bytes, bounded.index_bytes, bounded.sorted_bytes),
            (world.data_bytes, world.index_bytes, world.sorted_bytes)
        );
        for strategy in ALL_STRATEGIES {
            let a = engine(&world, strategy, &scale).run(&q(world.objects.energy)).unwrap();
            let b = engine(&bounded, strategy, &scale).run(&q(bounded.objects[0])).unwrap();
            assert_eq!(a.nhits, exact, "{strategy}");
            assert_eq!(a.selection, b.selection, "{strategy}");
            assert_eq!(a.elapsed, b.elapsed, "{strategy}");
        }
        let stats = bounded.odms.store().spill_stats().expect("spill configured");
        assert!(stats.demotions > 0);
        assert!(stats.resident_high_water <= budget, "{} > {budget}", stats.resident_high_water);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
