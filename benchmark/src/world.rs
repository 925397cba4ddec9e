//! World building: generate → import → (index, sorted replica, joint
//! grid, spill) → engines. Everything a workload's set-up phase pays for,
//! timed as `setup_s`, lives here.

use crate::gen::Var;
use crate::oracle::column;
use pdc_odms::{ImportOptions, ImportReport, Odms};
use pdc_query::{EngineConfig, QueryEngine, Strategy};
use pdc_storage::CostModel;
use pdc_types::{ObjectId, TypedVec};
use pdc_workloads::VpicData;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Region-cache budget of every logical server: larger than any workload's
/// data, so the resident workloads stay warm once touched.
pub const REGION_CACHE_BYTES: u64 = 1 << 30;

/// Out-of-core configuration of a world.
#[derive(Debug, Clone)]
pub struct SpillSpec {
    /// Directory the spill files go to (inside the checkout).
    pub dir: PathBuf,
    /// Resident-bytes budget of the object store.
    pub memory_budget: u64,
    /// Decoded-block cache budget.
    pub block_cache_bytes: u64,
}

/// What to import and which auxiliary structures to build.
#[derive(Debug, Clone)]
pub struct WorldSpec {
    /// Variables to import, in order.
    pub vars: Vec<Var>,
    /// Region size in bytes.
    pub region_bytes: u64,
    /// Build a bitmap index for every imported variable.
    pub index: bool,
    /// Build the value-sorted replica of `Energy`.
    pub sorted_energy: bool,
    /// Register a joint-bounds grid on this pair.
    pub joint: Option<(Var, Var)>,
    /// Configure out-of-core mode *before* the import.
    pub spill: Option<SpillSpec>,
}

/// An imported world.
pub struct World {
    /// The data management system.
    pub odms: Arc<Odms>,
    /// Imported variables and their object ids.
    pub ids: Vec<(Var, ObjectId)>,
    /// One import report per variable.
    pub reports: Vec<ImportReport>,
    /// Wall seconds spent inside the ODMS write calls (`import_array`,
    /// `register_joint_pair`).
    pub write_wall_s: f64,
    /// Elements written by those calls.
    pub written_elems: u64,
    spill: Option<SpillSpec>,
}

impl World {
    /// Import the first `extent` particles of `data` as `spec` describes.
    pub fn build(spec: &WorldSpec, data: &VpicData, extent: usize) -> World {
        let odms = Arc::new(Odms::new(64));
        if let Some(s) = &spec.spill {
            let _ = std::fs::remove_dir_all(&s.dir);
            odms.store()
                .configure_spill(&s.dir, s.memory_budget, s.block_cache_bytes)
                .expect("configure spill directory inside the checkout");
        }
        let container = odms.create_container("benchmark");
        let mut ids = Vec::new();
        let mut reports = Vec::new();
        let mut write_wall_s = 0.0;
        let mut written_elems = 0u64;
        for &var in &spec.vars {
            let opts = ImportOptions {
                region_bytes: spec.region_bytes,
                build_index: spec.index,
                build_sorted: spec.sorted_energy && var == Var::Energy,
                ..Default::default()
            };
            let values = TypedVec::Float(column(data, var)[..extent].to_vec());
            let t = Instant::now();
            let report = odms
                .import_array(container, var.name(), values, &opts)
                .expect("import generated array");
            write_wall_s += t.elapsed().as_secs_f64();
            written_elems += extent as u64;
            ids.push((var, report.object));
            reports.push(report);
        }
        let mut world =
            World { odms, ids, reports, write_wall_s, written_elems, spill: spec.spill.clone() };
        if let Some((a, b)) = spec.joint {
            let t = Instant::now();
            world
                .odms
                .register_joint_pair(world.id(a), world.id(b))
                .expect("register joint pair on imported variables");
            world.write_wall_s += t.elapsed().as_secs_f64();
        }
        world
    }

    /// The object id of an imported variable.
    pub fn id(&self, var: Var) -> ObjectId {
        self.ids.iter().find(|(v, _)| *v == var).map(|(_, id)| *id).expect("variable imported")
    }

    /// Raw user bytes imported.
    pub fn user_bytes(&self) -> u64 {
        self.reports.iter().map(|r| r.data_bytes).sum()
    }

    /// Bytes the store holds for this world per byte of user data:
    /// payload, bitmap indexes, sorted replica, histogram and directory
    /// metadata, with spilled regions counted at their compressed on-disk
    /// size.
    pub fn stored_bytes_per_user_byte(&self) -> f64 {
        let held: u64 = self
            .reports
            .iter()
            .map(|r| {
                r.data_bytes
                    + r.index_bytes
                    + r.sorted_bytes
                    + r.histogram_bytes
                    + r.directory_bytes
            })
            .sum();
        let (spilled_raw, spilled_comp) = self
            .odms
            .store()
            .spill_stats()
            .map_or((0, 0), |s| (s.spilled_raw_bytes, s.spilled_comp_bytes));
        (held.saturating_sub(spilled_raw) + spilled_comp) as f64 / self.user_bytes().max(1) as f64
    }

    /// A query engine over this world. Only the frozen subset of
    /// `EngineConfig` is named; everything else stays at its default.
    pub fn engine(&self, strategy: Strategy, servers: u32, cost: CostModel) -> QueryEngine {
        let base = EngineConfig {
            strategy,
            num_servers: servers,
            cache_bytes_per_server: REGION_CACHE_BYTES,
            cost,
            ..Default::default()
        };
        let cfg = match &self.spill {
            Some(s) => EngineConfig {
                memory_budget: Some(s.memory_budget),
                spill_dir: Some(s.dir.clone()),
                block_cache_bytes: s.block_cache_bytes,
                ..base
            },
            None => base,
        };
        QueryEngine::new(Arc::clone(&self.odms), cfg)
    }
}

impl Drop for World {
    fn drop(&mut self) {
        if let Some(s) = &self.spill {
            let _ = std::fs::remove_dir_all(&s.dir);
        }
    }
}

/// The paper-scale cost model for a dataset of `particles` on `servers`
/// logical servers, scaled the way the repository's figure harness scales
/// it: I/O shrinks by the data factor against the paper's 125-billion
/// particle run, CPU grows by it (corrected for the paper's 64 servers),
/// and region sizes map 1:256.
pub fn cost_model(particles: usize, servers: u32) -> CostModel {
    let factor = 125e9 / particles as f64;
    CostModel::scaled(factor, factor * servers as f64 / 64.0, 256.0)
}

/// The benchmark's scratch directory inside the checkout
/// (`benchmark/out`), created on demand.
pub fn out_dir() -> PathBuf {
    let dir = Path::new("benchmark").join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out inside the checkout");
    dir
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
