//! The query engine: broadcast, parallel evaluation, aggregation, and the
//! `PDCquery_get_*` result API of Fig. 1.

use crate::ast::PdcQuery;
use crate::exec::{eval_plan, EvalCtx};
use crate::plan::{ObjConstraint, PlanNode, QueryPlan};
use crate::qcache::SharedScanGroup;
use crate::service::ScheduleClock;
use crate::recover::run_slots;
use crate::snapshot::{usable_directory, MetaSnapshot};
use crate::state::ServerState;
use pdc_histogram::Histogram;
use pdc_odms::Odms;
use pdc_server::{FaultPlan, Placement, ServerPool};
use pdc_storage::{
    CostBreakdown, CostModel, IntegrityCounters, IoCounters, SimDuration, StoredPayload,
    WorkCounters,
};
use pdc_types::{
    Interval, ObjectId, PdcError, PdcResult, PdcType, RegionId, Run, Selection, ServerId, TypedVec,
};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// The evaluation strategy (paper §VI: `PDC-F`, `PDC-H`, `PDC-HI`,
/// `PDC-SH`). "Each can be activated by the user through the setting of an
/// environment variable before running the PDC servers. The histogram only
/// approach is selected by default."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// `PDC-F`: pre-load all data of the queried objects, scan everything.
    FullScan,
    /// `PDC-H`: histogram-based region elimination + scan (the default).
    Histogram,
    /// `PDC-HI`: histograms + per-region bitmap indexes.
    HistogramIndex,
    /// `PDC-SH`: histograms + the value-sorted replica of the primary
    /// object.
    SortedHistogram,
    /// `PDC-A`: per-(region, predicate) operator selection — the planner
    /// consults the region histogram's selectivity estimate and aux
    /// availability to pick the cheapest physical operator (scan, index
    /// probe, or sorted range) under the cost model. Results are
    /// bit-identical to the fixed strategies.
    Adaptive,
}

impl Strategy {
    /// Every evaluation strategy, fixed ones first and `PDC-A` last.
    pub const ALL: [Strategy; 5] = [
        Strategy::FullScan,
        Strategy::Histogram,
        Strategy::HistogramIndex,
        Strategy::SortedHistogram,
        Strategy::Adaptive,
    ];

    /// The paper's plot label.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::FullScan => "PDC-F",
            Strategy::Histogram => "PDC-H",
            Strategy::HistogramIndex => "PDC-HI",
            Strategy::SortedHistogram => "PDC-SH",
            Strategy::Adaptive => "PDC-A",
        }
    }

    /// The strategy's decisions as data: every strategy-dependent branch
    /// in the evaluator, the planner and the admission estimate reads
    /// this table, and nothing else names a variant.
    pub(crate) fn policy(self) -> Policy {
        use Use::{Always, IfCheaper, Never};
        let (prune, probe, sorted, preload) = match self {
            Strategy::FullScan => (false, Never, Never, true),
            Strategy::Histogram => (true, Never, Never, false),
            Strategy::HistogramIndex => (true, Always, Never, false),
            Strategy::SortedHistogram => (true, Never, Always, false),
            Strategy::Adaptive => (true, IfCheaper, IfCheaper, false),
        };
        Policy { prune, probe, sorted, preload }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// When an auxiliary structure answers in place of the region scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Use {
    Never,
    /// Whenever the structure exists.
    Always,
    /// When the cost model prefers it (`PDC-A`).
    IfCheaper,
}

impl Use {
    /// The modelled cost under this rule, given the method's cost
    /// (`None` when its structure is unavailable) and the scan path's.
    pub(crate) fn cost(self, method: Option<SimDuration>, otherwise: SimDuration) -> SimDuration {
        match (self, method) {
            (Use::Always, Some(m)) => m,
            (Use::IfCheaper, Some(m)) => m.min(otherwise),
            _ => otherwise,
        }
    }
}

/// One strategy's decisions (paper §VI: PDC-F, -H, -HI and -SH are four
/// configurations of one service; PDC-A picks among the same choices).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Policy {
    /// Histogram region elimination before any access.
    pub prune: bool,
    /// Per region: answer from the bitmap index.
    pub probe: Use,
    /// Per constraint: answer the primary from the sorted replica.
    pub sorted: Use,
    /// Pre-load every queried object before evaluation (PDC-F).
    pub preload: bool,
}

impl Policy {
    /// Whether the primary constraint is answered from the sorted
    /// replica. A replica that does not cover the snapshot's extent
    /// (stale after an append, pending deferred maintenance) is
    /// unavailable, and the constraint takes the per-region path. A pure
    /// function of metadata, histograms and the cost model, so every
    /// server slot and the client's `sorted_hint` agree.
    pub(crate) fn sorted_primary(
        self,
        snap: &MetaSnapshot,
        cost: &CostModel,
        n_servers: u32,
        c: &ObjConstraint,
    ) -> PdcResult<bool> {
        match self.sorted {
            Use::Never => Ok(false),
            Use::Always => Ok(snap.sorted_available(c.object)),
            Use::IfCheaper => {
                crate::ops::adaptive_sorted_choice(snap, cost, n_servers, c.object, &c.interval)
            }
        }
    }
}

/// Engine configuration. Failure handling is not configurable: a failed
/// slot is retried for at most three rounds after the first, a slow
/// server is always waited for, and k-way placement uses one fixed
/// layout seed, so the same membership gives the same replica sets on
/// every host.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Evaluation strategy.
    pub strategy: Strategy,
    /// Number of logical PDC servers.
    pub num_servers: u32,
    /// Per-server memory budget for the region cache (the paper uses
    /// 64 GB on 128 GB nodes).
    pub cache_bytes_per_server: u64,
    /// The storage/CPU/network cost model.
    pub cost: CostModel,
    /// Order multi-object evaluation by estimated selectivity (the
    /// paper's planner behaviour); disable only for ablation E7.
    pub order_by_selectivity: bool,
    /// Deterministic fault-injection schedule (`None` = healthy pool).
    pub fault_plan: Option<FaultPlan>,
    /// Replicas per assignment slot. `1` (the default) keeps the classic
    /// single-home layout and code path byte-for-byte; `k ≥ 2` activates
    /// the k-way [`Placement`] — each slot gets an ordered replica set,
    /// faults fail over within the set (charging the `failover` lane
    /// instead of `recovery`), and elastic membership
    /// ([`QueryEngine::join_server`] / [`QueryEngine::leave_server`])
    /// becomes available. Results are bit-identical at every setting.
    pub replicas: u32,
    /// Out-of-core mode: when `Some`, the object store demotes sealed
    /// least-recently-used regions to block-compressed spill files
    /// whenever its resident footprint exceeds this many bytes. Spilling
    /// is physically real but simulation-invisible — selections and
    /// simulated costs are bit-identical to an unbounded run. `None`
    /// (the default) keeps every payload resident.
    pub memory_budget: Option<u64>,
    /// Directory for spill files. Defaults to a per-process directory
    /// under the system temp dir when unset. Ignored without
    /// `memory_budget`.
    pub spill_dir: Option<std::path::PathBuf>,
    /// Byte budget of the shared decoded-block cache serving reads of
    /// spilled regions. Only meaningful with `memory_budget`.
    pub block_cache_bytes: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            strategy: Strategy::Histogram,
            num_servers: 4,
            cache_bytes_per_server: 256 << 20,
            cost: CostModel::cori_like(),
            order_by_selectivity: true,
            fault_plan: None,
            replicas: 1,
            memory_budget: None,
            spill_dir: None,
            block_cache_bytes: 32 << 20,
        }
    }
}

/// The result of one query evaluation (`PDCquery_get_nhits` +
/// `PDCquery_get_selection`).
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Number of matching elements.
    pub nhits: u64,
    /// Locations of all matching elements (global coordinates).
    pub selection: Selection,
    /// End-to-end simulated elapsed time (broadcast + slowest server +
    /// result return + client merge).
    pub elapsed: SimDuration,
    /// Per-server evaluation time.
    pub per_server: Vec<SimDuration>,
    /// Aggregated I/O counters for this query.
    pub io: IoCounters,
    /// Aggregated work counters for this query.
    pub work: WorkCounters,
    /// Decomposition of `elapsed`.
    pub breakdown: CostBreakdown,
    /// When the sorted strategy answered the primary constraint, the sort
    /// key object and its matching sorted span (lets `get_data` serve the
    /// values straight from the replica).
    pub sorted_hint: Option<(ObjectId, Run)>,
    /// Servers that failed (crash, panic, transient error) while serving this
    /// query; their regions were reassigned to the survivors.
    pub failed_servers: Vec<u32>,
    /// Retry rounds the query needed (0 on a fault-free run).
    pub retry_rounds: u32,
    /// Integrity events this query absorbed: checksum failures detected,
    /// regions repaired from the durable copy, auxiliary structures
    /// rebuilt, regions answered by the fallback scan path. All zero on a
    /// clean run.
    pub integrity: IntegrityCounters,
    /// The store epoch of the plan-time metadata snapshot this query
    /// evaluated against.
    pub planned_epoch: u64,
    /// The primary object's element count at plan time. Under streaming
    /// ingest this is the extent the query answered — a store sealed at
    /// this extent returns a bit-identical selection.
    pub planned_elements: u64,
    /// Regions the background redundancy rebuild copied to new replica
    /// servers after this query observed a crash (k-way placement only;
    /// 0 on a healthy or unreplicated run). Rebuild work is background —
    /// it is reported here but never charged to `elapsed`.
    pub rebuild_regions: u32,
    /// Bytes the background redundancy rebuild copied.
    pub rebuild_bytes: u64,
}

/// The result of a `PDCquery_get_data` call.
#[derive(Debug, Clone)]
pub struct GetDataOutcome {
    /// The matching elements' values, in ascending coordinate order.
    pub data: TypedVec,
    /// Simulated elapsed time.
    pub elapsed: SimDuration,
    /// Aggregated I/O counters.
    pub io: IoCounters,
    /// Bytes shipped server→client.
    pub bytes_transferred: u64,
    /// Number of servers that actually held and sent data.
    pub servers_involved: u32,
}

/// The result of a [`QueryEngine::run_batch`] call: every query's full
/// outcome (bit-identical to running it alone) plus the batch-level
/// schedule time and cache statistics.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-query outcomes, in submission order. Each is identical —
    /// selection, counters, breakdown, per-server times — to what
    /// [`QueryEngine::run`] returns for the same query on a fresh pool.
    pub outcomes: Vec<QueryOutcome>,
    /// Simulated end-to-end time of the batch under the admission
    /// scheduler: per-query client overheads (broadcast, merge,
    /// preflight) are serial, but server evaluation overlaps across
    /// queries, so the evaluation contribution is the per-server
    /// *makespan* `max_s Σ_q per_server[s]` instead of the sum of
    /// per-query critical paths. Always ≤ the sum of the individual
    /// `elapsed` values.
    pub batch_elapsed: SimDuration,
    /// Cache and shared-read statistics for the batch.
    pub stats: BatchStats,
}

/// Cache effectiveness counters for one [`QueryEngine::run_batch`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchStats {
    /// Number of queries in the batch.
    pub queries: u64,
    /// Plan-cache hits (canonical query tree already planned this epoch).
    pub plan_hits: u64,
    /// Plan-cache misses (plans built from scratch).
    pub plan_misses: u64,
    /// Artifact-cache hits across all servers (prune verdicts, region
    /// scans, index answers served without recomputation).
    pub artifact_hits: u64,
    /// Artifact-cache misses across all servers.
    pub artifact_misses: u64,
    /// Regions the shared-scan prewarm pass loaded and evaluated once
    /// (in a fused kernel pass) on behalf of the whole batch.
    pub prewarm_regions: u64,
    /// Data-region reads served from already-resident copies during
    /// evaluation (the shared reads the batch did not re-fetch).
    pub resident_reads: u64,
    /// Total data-region reads during evaluation (resident + fetched).
    pub region_touches: u64,
}

impl BatchStats {
    /// Artifact-cache hits / lookups; 0 when no lookups happened.
    pub fn artifact_hit_ratio(&self) -> f64 {
        let total = self.artifact_hits + self.artifact_misses;
        if total == 0 {
            0.0
        } else {
            self.artifact_hits as f64 / total as f64
        }
    }

    /// Plan-cache hits / lookups; 0 when no lookups happened.
    pub fn plan_hit_ratio(&self) -> f64 {
        let total = self.plan_hits + self.plan_misses;
        if total == 0 {
            0.0
        } else {
            self.plan_hits as f64 / total as f64
        }
    }
}

/// The client-side canonical-plan cache: normalized query tree (by
/// [`PdcQuery::canonical_key`]) → built, selectivity-ordered plan plus
/// the plan-time [`MetaSnapshot`] the evaluation pins. Entries are
/// validated against the store epoch at lookup, so any data mutation,
/// append, or aux rebuild (which can change the histograms behind the
/// selectivity ordering) invalidates both the plan and its snapshot.
struct PlanCache {
    map: HashMap<String, (u64, QueryPlan, Arc<MetaSnapshot>)>,
    hits: u64,
    misses: u64,
}

/// Whole-map reset threshold for the plan cache (plans are tiny; the
/// cap only guards unbounded ad-hoc query streams).
const PLAN_CACHE_CAP: usize = 512;

/// The parallel query service.
pub struct QueryEngine {
    odms: Arc<Odms>,
    pool: ServerPool<ServerState>,
    cfg: EngineConfig,
    plans: Mutex<PlanCache>,
    /// The k-way replica placement; `None` when `cfg.replicas <= 1`
    /// (classic single-home scheduling, untouched code path). Swapped
    /// wholesale on membership changes so in-flight queries keep their
    /// own consistent snapshot.
    placement: Mutex<Option<Arc<Placement>>>,
    /// Monotonic id source for [`SharedScanGroup`]s opened on this engine.
    scan_group_seq: std::sync::atomic::AtomicU64,
}

/// What an elastic membership change did ([`QueryEngine::join_server`] /
/// [`QueryEngine::leave_server`]): the live migration volume the
/// placement diff implied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MembershipReport {
    /// The server that joined or left.
    pub server: u32,
    /// Slots whose replica sets changed.
    pub slots_changed: u32,
    /// Regions copied to their new replica servers.
    pub regions_copied: u32,
    /// Bytes copied.
    pub bytes_copied: u64,
}

/// How many assignment slots each server is spread over under k-way
/// replication. Finer slots make a failover move `1/spread` of the dead
/// server's work to each distinct backup instead of a whole server's
/// share — that is what flattens the PR 1 degradation curve. `n_servers`
/// always divides `num_slots`, so region `r`'s anchor server stays
/// `r % n_servers` and a healthy replicated run does byte-identical
/// per-server work to the unreplicated layout.
fn slot_spread(replicas: u32, num_servers: u32) -> u32 {
    if replicas <= 1 {
        1
    } else {
        num_servers.saturating_sub(1).clamp(1, 24)
    }
}

/// Seed of the deterministic rendezvous placement layout: the same seed
/// gives the same replica sets on every host.
const PLACEMENT_SEED: u64 = 0x5EED;

/// The k-way placement a fresh pool starts from; `None` when
/// `cfg.replicas <= 1`.
fn fresh_placement(cfg: &EngineConfig) -> Option<Arc<Placement>> {
    (cfg.replicas > 1).then(|| {
        let spread = slot_spread(cfg.replicas, cfg.num_servers);
        Arc::new(Placement::new(
            cfg.num_servers * spread,
            cfg.num_servers,
            cfg.replicas,
            PLACEMENT_SEED,
        ))
    })
}

impl QueryEngine {
    /// Start a query service over an ODMS. When the fault plan carries a
    /// [`pdc_server::CorruptionSpec`], the data plane is damaged
    /// deterministically up front — queries then detect, repair, and
    /// charge the recovery work to the breakdown's `integrity` lane.
    pub fn new(odms: Arc<Odms>, cfg: EngineConfig) -> Self {
        // Out-of-core mode: enable spill on the store before anything
        // reads it (idempotent when the importer already configured it —
        // reconfiguring would reset the high-water mark).
        if let Some(budget) = cfg.memory_budget {
            if !odms.store().spill_enabled() {
                let dir = cfg.spill_dir.clone().unwrap_or_else(|| {
                    std::env::temp_dir().join(format!("pdc_spill_{}", std::process::id()))
                });
                odms.store()
                    .configure_spill(&dir, budget, cfg.block_cache_bytes)
                    .expect("configure out-of-core spill directory");
            }
        }
        let cache = cfg.cache_bytes_per_server;
        let plan = cfg.fault_plan.clone();
        let pool = ServerPool::new(cfg.num_servers, |id| {
            let mut st = ServerState::new(cache);
            if let Some(p) = &plan {
                st.fault = p.probe_for(id.raw());
            }
            st
        });
        let placement = fresh_placement(&cfg);
        let engine = Self {
            odms,
            pool,
            cfg,
            plans: Mutex::new(PlanCache { map: HashMap::new(), hits: 0, misses: 0 }),
            placement: Mutex::new(placement),
            scan_group_seq: std::sync::atomic::AtomicU64::new(0),
        };
        engine.apply_planned_corruption();
        engine
    }

    /// The current placement, if k-way replication is active.
    fn placement_snapshot(&self) -> Option<Arc<Placement>> {
        self.placement.lock().unwrap().clone()
    }

    /// The ordered replica set of every assignment slot, indexed by slot;
    /// `None` without replication. Introspection for tests, benches, and
    /// the CLI report.
    pub fn replica_sets(&self) -> Option<Vec<Vec<u32>>> {
        self.placement_snapshot().map(|p| p.replica_sets().to_vec())
    }

    /// The current placement membership (server ids), sorted; `None`
    /// without replication.
    pub fn placement_members(&self) -> Option<Vec<u32>> {
        self.placement_snapshot().map(|p| p.members().to_vec())
    }

    /// Admit a fresh server into the pool and the placement (elastic
    /// scale-out). The new replica copies over the regions of every slot
    /// it now serves (live migration through the checksum-verified
    /// mover); queries running before, during, and after return
    /// bit-identical results. Requires `replicas >= 2`.
    pub fn join_server(&self) -> PdcResult<MembershipReport> {
        let mut guard = self.placement.lock().unwrap();
        let Some(cur) = guard.as_ref() else {
            return Err(PdcError::MissingPrerequisite(
                "elastic membership requires replicas >= 2".into(),
            ));
        };
        let mut p = (**cur).clone();
        let cache = self.cfg.cache_bytes_per_server;
        let plan = self.cfg.fault_plan.clone();
        let id = self.pool.add_server(|id| {
            let mut st = ServerState::new(cache);
            if let Some(fp) = &plan {
                st.fault = fp.probe_for(id.raw());
            }
            st
        });
        let mplan = p.join(id.raw());
        let p = Arc::new(p);
        *guard = Some(Arc::clone(&p));
        drop(guard);
        let (regions_copied, bytes_copied) =
            self.copy_slot_regions(&p, &mplan.slots_gaining_replicas())?;
        Ok(MembershipReport {
            server: id.raw(),
            slots_changed: mplan.changes.len() as u32,
            regions_copied,
            bytes_copied,
        })
    }

    /// Retire `server` from the placement (elastic scale-in). Its slots'
    /// redundancy is restored by copying their regions to the replacement
    /// replicas the layout promotes; the server's pool state stays
    /// addressable (ids are stable) but no further work routes to it.
    /// Requires `replicas >= 2` and at least two members.
    pub fn leave_server(&self, server: u32) -> PdcResult<MembershipReport> {
        let mut guard = self.placement.lock().unwrap();
        let Some(cur) = guard.as_ref() else {
            return Err(PdcError::MissingPrerequisite(
                "elastic membership requires replicas >= 2".into(),
            ));
        };
        if !cur.is_member(server) {
            return Err(PdcError::InvalidQuery(format!(
                "server {server} is not a placement member"
            )));
        }
        if cur.members().len() <= 1 {
            return Err(PdcError::InvalidQuery(
                "the last placement member cannot leave".into(),
            ));
        }
        let mut p = (**cur).clone();
        let mplan = p.leave(server);
        let p = Arc::new(p);
        *guard = Some(Arc::clone(&p));
        drop(guard);
        let (regions_copied, bytes_copied) =
            self.copy_slot_regions(&p, &mplan.slots_gaining_replicas())?;
        Ok(MembershipReport {
            server,
            slots_changed: mplan.changes.len() as u32,
            regions_copied,
            bytes_copied,
        })
    }

    /// The data mover behind membership changes and failure rebuilds:
    /// copy every region of the given slots (across all registered
    /// objects) to their new replica homes via the checksum-verified
    /// read path. Returns `(regions, bytes)`.
    fn copy_slot_regions(&self, p: &Placement, slots: &[u32]) -> PdcResult<(u32, u64)> {
        if slots.is_empty() {
            return Ok((0, 0));
        }
        let slot_set: HashSet<u32> = slots.iter().copied().collect();
        let num_slots = p.num_slots();
        let mut ids: Vec<RegionId> = Vec::new();
        for meta in self.odms.meta().all_objects() {
            for r in 0..meta.num_regions() {
                if slot_set.contains(&(r % num_slots)) {
                    ids.push(RegionId::new(meta.id, r));
                }
            }
        }
        let report = self.odms.rebuild_regions(ids.iter().copied())?;
        // The copy materializes each slot's regions on its replica
        // servers: seed their caches so the next query reads the
        // replica-local copy instead of re-paying the shared-PFS read the
        // rebuild already made.
        let n = self.pool.num_servers();
        for rid in ids {
            let slot = rid.index % num_slots;
            let Ok((pdc_storage::StoredPayload::Typed(payload), _)) = self.odms.store().get(rid)
            else {
                continue;
            };
            for &q in p.replicas(slot) {
                if q < n {
                    self.pool.with_server(ServerId(q), |st| {
                        if !st.is_crashed() {
                            st.cache.put(rid, Arc::clone(&payload));
                        }
                    });
                }
            }
        }
        Ok((report.regions, report.bytes))
    }

    /// After a query observed crashed servers under k-way placement:
    /// evict them from the membership and restore each affected slot's
    /// redundancy by copying its regions to the replacement replicas.
    /// Background work — reported, never charged to query latency.
    /// Returns `(rebuild_regions, rebuild_bytes)`.
    fn rebuild_after_failures(&self, failed: &[u32]) -> (u32, u64) {
        let crashed: Vec<u32> = failed
            .iter()
            .copied()
            .filter(|&s| {
                (s < self.pool.num_servers())
                    && self.pool.with_server(ServerId(s), |st| st.is_crashed())
            })
            .collect();
        if crashed.is_empty() {
            return (0, 0);
        }
        let mut guard = self.placement.lock().unwrap();
        let Some(cur) = guard.as_ref() else { return (0, 0) };
        let mut p = (**cur).clone();
        let mut gained: Vec<u32> = Vec::new();
        let mut changed = false;
        for s in crashed {
            if p.is_member(s) && p.members().len() > 1 {
                gained.extend(p.leave(s).slots_gaining_replicas());
                changed = true;
            }
        }
        if !changed {
            return (0, 0);
        }
        let p = Arc::new(p);
        *guard = Some(Arc::clone(&p));
        drop(guard);
        gained.sort_unstable();
        gained.dedup();
        self.copy_slot_regions(&p, &gained).unwrap_or((0, 0))
    }

    /// Damage the store and aux structures per the fault plan's corruption
    /// spec (no-op without one). The spec only addresses objects already
    /// in the registry, so failure here is an internal invariant breach.
    fn apply_planned_corruption(&self) {
        if let Some(spec) = self.cfg.fault_plan.as_ref().and_then(|p| p.corruption()) {
            crate::integrity::apply_corruption(&self.odms, spec)
                .expect("corruption spec addresses only registered objects");
        }
    }

    /// Per-slot region counts for the plan's objects: slot `s` owns the
    /// regions with `r % num_slots == s`, so its weight is a closed
    /// form of each object's region count (at the plan-time snapshot).
    /// Used to balance reassignment and replica routing.
    fn slot_weights_for_objects(
        &self,
        snap: &MetaSnapshot,
        objects: &[ObjectId],
        num_slots: u32,
    ) -> PdcResult<Vec<u64>> {
        let n = u64::from(num_slots);
        let mut weights = vec![0u64; num_slots as usize];
        for &obj in objects {
            let regions = u64::from(snap.meta(obj)?.num_regions());
            for (s, w) in weights.iter_mut().enumerate() {
                *w += regions / n + u64::from((s as u64) < regions % n);
            }
        }
        Ok(weights)
    }

    /// The underlying data management system.
    pub fn odms(&self) -> &Arc<Odms> {
        &self.odms
    }

    /// The active strategy.
    pub fn strategy(&self) -> Strategy {
        self.cfg.strategy
    }

    /// The engine's cost model (crate-internal).
    pub(crate) fn config_cost(&self) -> CostModel {
        self.cfg.cost
    }

    /// Whether an active fault plan injects corruption (crate-internal;
    /// the service loop skips shared-scan prewarm under corruption for
    /// the same reason [`Self::run_batch`] does).
    pub(crate) fn corruption_active(&self) -> bool {
        self.cfg.fault_plan.as_ref().and_then(|p| p.corruption()).is_some()
    }

    /// Broadcast a handler across the pool (crate-internal).
    pub(crate) fn pool_broadcast<R: Send>(
        &self,
        f: impl Fn(pdc_types::ServerId, &mut ServerState) -> R + Sync,
    ) -> Vec<R> {
        self.pool.broadcast(f)
    }

    /// Number of logical servers.
    pub fn num_servers(&self) -> u32 {
        self.cfg.num_servers
    }

    /// `PDCquery_get_histogram`: the object's global histogram, generated
    /// automatically at import.
    pub fn get_histogram(&self, object: ObjectId) -> PdcResult<Arc<Histogram>> {
        self.odms.meta().global_histogram(object)
    }

    /// Reset all per-server state (caches, clocks, counters) — used
    /// between experiment configurations. Fault probes are reinstalled
    /// fresh, so crashed servers come back up with their schedule rearmed;
    /// a corruption spec is re-applied, re-damaging the same sites.
    pub fn reset_state(&self) {
        let bytes = self.cfg.cache_bytes_per_server;
        let plan = self.cfg.fault_plan.clone();
        self.pool.for_each_server(|id, st| {
            *st = ServerState::new(bytes);
            if let Some(p) = &plan {
                st.fault = p.probe_for(id.raw());
            }
        });
        {
            let mut pc = self.plans.lock().unwrap();
            pc.map.clear();
            pc.hits = 0;
            pc.misses = 0;
        }
        // Membership resets with the servers: crashed-and-evicted members
        // come back up, joins/leaves are forgotten (the pool may keep
        // extra states around — ids are stable — but no work routes to
        // non-members).
        *self.placement.lock().unwrap() = fresh_placement(&self.cfg);
        self.apply_planned_corruption();
    }

    /// Capture the plan-time metadata snapshot of every object `plan`
    /// touches.
    fn snapshot_for_plan(&self, plan: &QueryPlan) -> PdcResult<Arc<MetaSnapshot>> {
        let mut objects = Vec::new();
        plan.root.objects(&mut objects);
        objects.sort_unstable();
        objects.dedup();
        Ok(Arc::new(MetaSnapshot::capture(&self.odms, &objects)?))
    }

    /// Plan `query` through the canonical-plan cache: a hit replays the
    /// built, selectivity-ordered plan *and its plan-time metadata
    /// snapshot* for the same canonical tree at the same store epoch; a
    /// miss builds and admits both. Host-work only — planning carries no
    /// simulated charge either way.
    pub(crate) fn plan_cached(&self, query: &PdcQuery) -> PdcResult<(QueryPlan, Arc<MetaSnapshot>)> {
        let key = query.canonical_key();
        let epoch = self.odms.store().epoch();
        {
            let mut pc = self.plans.lock().unwrap();
            if let Some(hit) = pc
                .map
                .get(&key)
                .and_then(|(e, plan, snap)| {
                    (*e == epoch).then(|| (plan.clone(), Arc::clone(snap)))
                })
            {
                pc.hits += 1;
                return Ok(hit);
            }
        }
        let plan =
            QueryPlan::build_with_ordering(query, &self.odms, self.cfg.order_by_selectivity)?;
        let snap = self.snapshot_for_plan(&plan)?;
        let mut pc = self.plans.lock().unwrap();
        pc.misses += 1;
        if pc.map.len() >= PLAN_CACHE_CAP {
            pc.map.clear();
        }
        pc.map.insert(key, (epoch, plan.clone(), Arc::clone(&snap)));
        Ok((plan, snap))
    }

    /// `PDCquery_get_nhits`: evaluate and return the number of matches.
    pub fn get_nhits(&self, query: &PdcQuery) -> PdcResult<u64> {
        Ok(self.run(query)?.nhits)
    }

    /// `PDCquery_get_selection`: evaluate and return hit locations (plus
    /// the full outcome with timings).
    pub fn get_selection(&self, query: &PdcQuery) -> PdcResult<QueryOutcome> {
        self.run(query)
    }

    /// Evaluate a query end to end. Work is scheduled in assignment
    /// slots (slot `i` = the regions with `r % num_servers == i`): on a
    /// healthy pool each server evaluates its own slot; when servers
    /// fail, their slots are re-evaluated by the survivors, so the query
    /// result is identical as long as at least one server stays alive.
    pub fn run(&self, query: &PdcQuery) -> PdcResult<QueryOutcome> {
        self.run_impl(query, false, false).map(|(outcome, _, _)| outcome)
    }

    /// Evaluate a query and return its per-region execution explanation
    /// alongside the outcome: which physical operator each region was
    /// answered with, prune verdicts, and estimated vs actual
    /// selectivity. The outcome is bit-identical to [`Self::run`] on the
    /// same pool state — explain recording is host-side only.
    pub fn explain(&self, query: &PdcQuery) -> PdcResult<(QueryOutcome, crate::ops::ExplainPlan)> {
        let (outcome, _, plan) = self.run_impl(query, false, true)?;
        Ok((outcome, plan.expect("explain run always produces a plan")))
    }

    /// Shared implementation behind [`Self::run`] (cold, cache-free) and
    /// [`Self::run_batch`] (`use_cache = true`: plans come from the
    /// canonical-plan cache and servers may serve artifacts from their
    /// epoch-validated [`crate::qcache::QueryArtifactCache`]). Also
    /// returns the slot-evaluation time so the batch scheduler can
    /// separate it from the serial client overheads. Caching affects
    /// host wall-clock only: the returned outcome is bit-identical
    /// either way. With `explain` set, servers additionally record one
    /// [`crate::ops::RegionExplain`] row per evaluated region (host-side
    /// only — accounting is unaffected) and the merged
    /// [`crate::ops::ExplainPlan`] is returned.
    pub(crate) fn run_impl(
        &self,
        query: &PdcQuery,
        use_cache: bool,
        explain: bool,
    ) -> PdcResult<(QueryOutcome, SimDuration, Option<crate::ops::ExplainPlan>)> {
        // Verify-and-repair preflight, before planning: corrupt region
        // histograms must be rebuilt before selectivity ordering reads the
        // re-merged globals, and repairing shared data regions on the
        // single-threaded client keeps the repair charges deterministic
        // (point checks cross slot boundaries). Skipped entirely without
        // an active corruption spec.
        let (mut integrity, preflight_time) =
            if self.cfg.fault_plan.as_ref().and_then(|p| p.corruption()).is_some() {
                crate::integrity::preflight(&self.odms, &self.cfg.cost, self.cfg.num_servers)?
            } else {
                (IntegrityCounters::default(), SimDuration::ZERO)
            };
        let (plan, snap) = if use_cache {
            self.plan_cached(query)?
        } else {
            let plan =
                QueryPlan::build_with_ordering(query, &self.odms, self.cfg.order_by_selectivity)?;
            let snap = self.snapshot_for_plan(&plan)?;
            (plan, snap)
        };
        let n = self.cfg.num_servers;
        let cost = self.cfg.cost;
        // Snapshot the placement once per query: membership changes land
        // between queries, never mid-broadcast.
        let placement = self.placement_snapshot();
        let n_slots = placement.as_ref().map(|p| p.num_slots()).unwrap_or(n);
        let mut objects = Vec::new();
        plan.root.objects(&mut objects);
        objects.sort_unstable();
        objects.dedup();
        let weights = self.slot_weights_for_objects(&snap, &objects, n_slots)?;

        // PDC-F pre-loads all data of every queried object. Failures
        // during the pre-load recover the same way evaluation does; they
        // are carried into the outcome's fault report.
        let policy = self.cfg.strategy.policy();
        let preload = if policy.preload {
            Some(self.preload_objects(&snap, &objects, &weights, placement.as_deref())?)
        } else {
            None
        };

        // Client serializes the query tree and broadcasts it.
        let broadcast = cost.net.broadcast_cost(query.wire_size_bytes(), n);

        let odms = Arc::clone(&self.odms);
        let snap_eval = Arc::clone(&snap);
        let out = run_slots(
            &self.pool,
            &cost,
            placement.as_deref(),
            &weights,
            |r: &(
                Selection,
                IoCounters,
                WorkCounters,
                IntegrityCounters,
                SimDuration,
                Vec<crate::ops::RegionExplain>,
            )| { r.0.wire_size_bytes() },
            |slot, st| {
                if use_cache {
                    // Epoch check at slot start: any data mutation or aux
                    // rebuild since the artifacts were cached drops them.
                    st.qcache.validate(odms.store().epoch());
                }
                let ctx = EvalCtx {
                    odms: &odms,
                    snap: &snap_eval,
                    cost: &cost,
                    policy,
                    n_servers: n,
                    n_slots,
                    server: slot,
                    use_cache,
                };
                let io0 = st.io;
                let w0 = st.work;
                let i0 = st.integrity;
                let t0 = st.integrity_time;
                if explain {
                    st.explain = Some(Vec::new());
                }
                let res = eval_plan(&ctx, st, &plan);
                // Disarm before propagating errors so a failed/retried
                // slot attempt can't leak partial rows into a later one.
                let rows = st.explain.take().unwrap_or_default();
                let sel = res?;
                Ok((
                    sel,
                    st.io.since(&io0),
                    st.work.since(&w0),
                    st.integrity.since(&i0),
                    st.integrity_time.saturating_sub(t0),
                    rows,
                ))
            },
        )?;

        let mut io = IoCounters::default();
        let mut work = WorkCounters::default();
        let mut slot_integrity_time = SimDuration::ZERO;
        for (_, io_d, work_d, integ_d, integ_t, _) in &out.per_slot {
            io.merge(io_d);
            work.merge(work_d);
            integrity.merge(integ_d);
            slot_integrity_time += *integ_t;
        }
        // "Remove the duplicates with a merge sort" on the client: a
        // single O(n log k) k-way merge over all slot results (canonical
        // RLE output — bit-identical to the old pairwise union fold).
        let selection = Selection::union_many(out.per_slot.iter().map(|t| &t.0));
        // Client-side aggregation cost (background thread merging runs).
        let merge_cpu =
            SimDuration::from_secs_f64(selection.num_runs() as f64 * 20.0 / 1e9);

        let elapsed = broadcast + out.eval_time + merge_cpu + preflight_time;
        let breakdown = CostBreakdown {
            io: cost.pfs.read_cost(
                io.pfs_bytes_read,
                io.pfs_read_requests,
                n,
                pdc_storage::ReadPattern::Aggregated,
            ),
            cpu: cost.cpu.work_cost(&work),
            net: broadcast + merge_cpu,
            recovery: out.recovery,
            failover: out.failover,
            integrity: preflight_time + slot_integrity_time,
        };

        let sorted_hint = self.sorted_hint(&plan, &snap);
        let explain_plan = explain.then(|| {
            let mut regions: Vec<crate::ops::RegionExplain> =
                out.per_slot.iter().flat_map(|t| t.5.iter().cloned()).collect();
            regions.sort_by_key(|r| (r.object, r.region, r.phase));
            let constraints: Vec<(ObjectId, Interval, Option<f64>)> = plan
                .root
                .constraints()
                .map(|c| (c.object, c.interval, c.est_selectivity))
                .collect();
            // Per-constraint directory statistics (host-side replay of
            // the candidate resolution — never charges).
            let pairs: Vec<(ObjectId, Interval)> =
                constraints.iter().map(|c| (c.0, c.1)).collect();
            let directory = constraints
                .iter()
                .filter_map(|(obj, iv, _)| {
                    let joint = crate::ops::JointContext::build(&snap, *obj, &pairs);
                    crate::ops::directory_stats(&snap, *obj, iv, joint.as_deref())
                })
                .collect();
            crate::ops::ExplainPlan {
                strategy: self.cfg.strategy,
                constraints,
                sorted_primary: sorted_hint.is_some(),
                directory,
                regions,
                slot_routes: out.routes.clone(),
            }
        });
        let mut failed_servers = out.failed_servers;
        let mut retry_rounds = out.retry_rounds;
        if let Some(pre) = preload {
            for s in pre.failed_servers {
                if !failed_servers.contains(&s) {
                    failed_servers.push(s);
                }
            }
            failed_servers.sort_unstable();
            retry_rounds += pre.retry_rounds;
            // Integrity events absorbed during the pre-load count toward
            // the query's totals (its timing stays outside latency, like
            // the rest of the pre-load).
            for ic in &pre.per_slot {
                integrity.merge(ic);
            }
        }
        let planned_elements =
            snap.meta(plan.primary_object()).map(|m| m.num_elements()).unwrap_or(0);
        // Background redundancy repair: after a replicated run that saw
        // crashes, re-home the dead members' slots and copy the regions
        // the new replicas gained. Reported, not charged — the rebuild
        // overlaps subsequent work like the paper's async movement.
        let (rebuild_regions, rebuild_bytes) = if placement.is_some() && !failed_servers.is_empty()
        {
            self.rebuild_after_failures(&failed_servers)
        } else {
            (0, 0)
        };
        Ok((
            QueryOutcome {
                nhits: selection.count(),
                selection,
                elapsed,
                per_server: out.per_server,
                io,
                work,
                breakdown,
                sorted_hint,
                failed_servers,
                retry_rounds,
                integrity,
                planned_epoch: snap.epoch(),
                planned_elements,
                rebuild_regions,
                rebuild_bytes,
            },
            out.eval_time,
            explain_plan,
        ))
    }

    /// Evaluate a series of queries as one admitted batch.
    ///
    /// Per-query results are **bit-identical** to [`Self::run`] on the
    /// same pool state — selections, counters, cost breakdowns,
    /// per-server times, fault and integrity reports (property-tested in
    /// `tests/batch_equivalence.rs`). What changes is *host* work and
    /// the batch-level schedule:
    ///
    /// - plans are built once per canonical query tree (plan cache);
    /// - a prewarm pass computes, per server slot, the union of regions
    ///   the batch touches, and evaluates every pending predicate
    ///   against each resident typed slice in one fused kernel pass,
    ///   seeding the per-server artifact caches (shared-scan batching);
    /// - per-query evaluation then serves prune verdicts, scan
    ///   selections, and index answers from the caches while replaying
    ///   the exact simulated accounting of a cold run;
    /// - `batch_elapsed` charges the serial client overheads per query
    ///   but overlaps server evaluation across queries (per-server
    ///   makespan), modelling concurrent in-flight queries.
    ///
    /// With an active corruption spec the prewarm pass is skipped (each
    /// query's preflight must observe the damaged state exactly as a
    /// sequential run would); caches still warm across the batch.
    ///
    /// An empty slice is a typed [`PdcError::InvalidQuery`]: a batch is
    /// an admission decision, and admitting nothing is a caller bug that
    /// should never be smoothed over into a zero-time no-op outcome.
    pub fn run_batch(&self, queries: &[PdcQuery]) -> PdcResult<BatchOutcome> {
        if queries.is_empty() {
            return Err(PdcError::InvalidQuery(
                "run_batch requires at least one query (empty batch)".into(),
            ));
        }
        let corruption =
            self.cfg.fault_plan.as_ref().and_then(|p| p.corruption()).is_some();
        let (plan0, art0) = self.cache_counters();

        let prewarm_regions = if corruption {
            0
        } else {
            let mut plans = Vec::with_capacity(queries.len());
            for q in queries {
                plans.push(self.plan_cached(q)?.0);
            }
            // The closed-set batch is the degenerate continuous-batching
            // case: open a group, admit the whole series at once (one
            // fused pass per region), and never return to it.
            let mut group = self.open_scan_group();
            self.admit_to_scan_group(&mut group, &plans)
        };

        let mut outcomes = Vec::with_capacity(queries.len());
        let mut clock = ScheduleClock::new(self.cfg.num_servers);
        for q in queries {
            let (outcome, eval_time, _) = self.run_impl(q, true, false)?;
            clock.charge(outcome.elapsed, eval_time, &outcome.per_server);
            outcomes.push(outcome);
        }

        let (plan1, art1) = self.cache_counters();
        let mut stats = BatchStats {
            queries: queries.len() as u64,
            plan_hits: plan1.0 - plan0.0,
            plan_misses: plan1.1 - plan0.1,
            artifact_hits: art1.0 - art0.0,
            artifact_misses: art1.1 - art0.1,
            prewarm_regions,
            resident_reads: 0,
            region_touches: 0,
        };
        for o in &outcomes {
            stats.resident_reads += o.io.cache_hits;
            stats.region_touches += o.io.cache_hits + o.io.cache_misses;
        }
        Ok(BatchOutcome { outcomes, batch_elapsed: clock.batch_elapsed(), stats })
    }

    /// Snapshot (plan-cache, artifact-cache) hit/miss totals:
    /// `((plan_hits, plan_misses), (artifact_hits, artifact_misses))`.
    pub(crate) fn cache_counters(&self) -> ((u64, u64), (u64, u64)) {
        let pc = self.plans.lock().unwrap();
        let plan = (pc.hits, pc.misses);
        drop(pc);
        let per_server = self.pool.broadcast(|_, st| st.qcache.stats);
        let art = per_server
            .iter()
            .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
        (plan, art)
    }

    /// Open a fresh [`SharedScanGroup`] stamped at the current store
    /// epoch. The group is the client-side ledger of one continuous
    /// batching window: admit any number of plans into it over time with
    /// [`Self::admit_to_scan_group`]; each admission prewarms only the
    /// predicates (and, at region granularity, only the regions) the
    /// group has not already covered.
    pub fn open_scan_group(&self) -> SharedScanGroup {
        let id = self.scan_group_seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        SharedScanGroup::new(id, self.odms.store().epoch())
    }

    /// Admit `plans` into an open shared-scan group and prewarm their
    /// *new* predicates: intervals the group has already admitted are
    /// skipped outright, and for new intervals the per-region pass skips
    /// every region whose scan artifact is already cached (the
    /// `peek_scan` check inside `prewarm_intervals`) — late
    /// arrivals join the in-flight group at region granularity instead
    /// of forcing a recompute over the closed set. A store-epoch bump
    /// since the group opened reopens it (the artifacts it assumed
    /// cached are invalidated anyway). Returns the number of region
    /// passes this admission performed.
    ///
    /// Like the caches it feeds, admission is pure host work: no
    /// simulated clocks, counters, or fault probes are touched, so
    /// per-query accounting is unaffected by group membership.
    pub fn admit_to_scan_group(&self, group: &mut SharedScanGroup, plans: &[QueryPlan]) -> u64 {
        let epoch = self.odms.store().epoch();
        if group.epoch() != epoch {
            group.reopen(epoch);
        }
        let late = group.stats.admissions > 0;
        group.stats.admissions += 1;
        group.stats.members += plans.len() as u64;
        if late {
            group.stats.late_joins += plans.len() as u64;
        }

        // The admission's new predicates, grouped by object.
        let mut targets: Vec<(ObjectId, Vec<Interval>)> = Vec::new();
        for c in plans.iter().flat_map(|p| p.root.constraints()) {
            if c.interval.is_empty() || !group.try_admit(c.object, &c.interval) {
                continue;
            }
            match targets.iter_mut().find(|(o, _)| *o == c.object) {
                Some((_, ivs)) => ivs.push(c.interval),
                None => targets.push((c.object, vec![c.interval])),
            }
        }
        if targets.is_empty() {
            return 0;
        }
        let loaded = self.prewarm_intervals(&targets);
        group.stats.prewarm_regions += loaded;
        loaded
    }

    /// The shared-scan prewarm pass: for each server slot, walk the
    /// given `(object, intervals)` predicates, seed histogram prune
    /// verdicts, and evaluate all still-pending intervals of a region in
    /// **one fused kernel pass** over the typed slice, caching each
    /// per-interval selection. Pure host work — no simulated clocks,
    /// counters, or fault probes are touched, so per-query accounting is
    /// unaffected. Returns the number of region passes performed.
    fn prewarm_intervals(&self, targets: &[(ObjectId, Vec<Interval>)]) -> u64 {
        let odms = Arc::clone(&self.odms);
        let n = self.cfg.num_servers;
        let epoch = self.odms.store().epoch();
        let loaded: Vec<u64> = self.pool.broadcast(|id, st| {
            st.qcache.validate(epoch);
            let mut count = 0u64;
            for (obj, ivs) in targets {
                let Ok(meta) = odms.meta().get(*obj) else { continue };
                let hists = odms.meta().region_histograms(*obj).ok();
                // Directory candidate sets per interval: the prewarm pass
                // only loads/evaluates regions the directory admits.
                // Skipped regions are exactly the ones whose prune
                // verdict is `true` by construction (bounds disjoint), so
                // the per-query path prunes them with full accounting —
                // prewarming them would be pure waste. Without a usable
                // directory (the evaluator's own rule) every region is
                // considered.
                let cands: Option<Vec<Vec<u32>>> =
                    usable_directory(odms.meta().directory(*obj), &meta)
                        .map(|d| ivs.iter().map(|iv| d.probe(iv).candidates).collect());
                for r in 0..meta.num_regions() {
                    if r % n != id.raw() {
                        continue;
                    }
                    // Seed prune verdicts (exactly the verdict the
                    // evaluator computes) and collect the intervals that
                    // still need a scan of this region.
                    let span = meta.region_span(r);
                    let mut pending: Vec<Interval> = Vec::new();
                    for (k, iv) in ivs.iter().enumerate() {
                        if let Some(cs) = &cands {
                            if cs[k].binary_search(&r).is_err() {
                                continue;
                            }
                        }
                        let pruned = match hists.as_ref().and_then(|h| h.get(r as usize)) {
                            Some(h) => {
                                st.qcache.prune_or_compute(*obj, r, span.len, iv, 0, || {
                                    crate::ops::prune_verdict(h, iv)
                                })
                            }
                            None => false,
                        };
                        if !pruned && st.qcache.peek_scan(*obj, r, span.len, iv).is_none() {
                            pending.push(*iv);
                        }
                    }
                    if pending.is_empty() {
                        continue;
                    }
                    // Spilled region: the operator's block-fused scan,
                    // one decoded block (through the shared block cache)
                    // against every pending interval, never the whole
                    // region at once. Any unreadable block skips the
                    // region; the per-query path handles it with full
                    // accounting.
                    if let Some(cold) = odms.store().cold_region(RegionId::new(*obj, r)) {
                        if cold.len() < span.len {
                            continue;
                        }
                        let Ok(sels) =
                            crate::ops::scan_cold_whole(&cold, &pending, span.offset, span.len)
                        else {
                            continue;
                        };
                        for (iv, sel) in pending.iter().zip(sels) {
                            st.qcache.put_scan(*obj, r, span.len, iv, sel);
                        }
                        count += 1;
                        continue;
                    }
                    // Advisory read straight from the store: no server
                    // clocks, no fault probes, and no checksum re-derive
                    // (every artifact is epoch-keyed, and any mutation —
                    // including corrupt/repair — bumps the epoch, so an
                    // unverified read can never leak into results). Skip
                    // anything unreadable — the per-query path handles it
                    // with full accounting.
                    let Ok((StoredPayload::Typed(payload), _)) =
                        odms.store().get_unverified(RegionId::new(*obj, r))
                    else {
                        continue;
                    };
                    // A concurrent append can have grown the stored
                    // payload past the metadata span read above; evaluate
                    // (and key) exactly the span's extent so the seeded
                    // artifact matches what a query planned at this
                    // extent computes.
                    if (payload.len() as u64) < span.len {
                        continue;
                    }
                    let payload = if (payload.len() as u64) > span.len {
                        Arc::new(payload.slice(0, span.len as usize))
                    } else {
                        payload
                    };
                    let sels =
                        pdc_types::kernels::scan_intervals(&payload, &pending, span.offset);
                    for (iv, sel) in pending.iter().zip(sels) {
                        st.qcache.put_scan(*obj, r, span.len, iv, sel);
                    }
                    count += 1;
                }
            }
            count
        });
        loaded.iter().sum()
    }

    /// When the sorted replica answered the primary constraint
    /// (SortedHistogram always; Adaptive when the band won), report the
    /// sort object and the matching sorted span. Mirrors the servers'
    /// decision exactly — both are the same pure function of
    /// metadata/histograms/cost.
    fn sorted_hint(&self, plan: &QueryPlan, snap: &MetaSnapshot) -> Option<(ObjectId, Run)> {
        let PlanNode::Conj(cs) = &plan.root else { return None };
        let primary = cs.first()?;
        let policy = self.cfg.strategy.policy();
        let used = policy.sorted_primary(snap, &self.cfg.cost, self.cfg.num_servers, primary).ok()?;
        if !used {
            return None;
        }
        let replica = snap.sorted_replica(primary.object).ok()?;
        Some((primary.object, replica.matching_span(&primary.interval)))
    }

    /// PDC-F's pre-load: read every region of every queried object into
    /// the server caches ("pre-load all the data of queried objects").
    /// Slot-scheduled like evaluation, so a failed server's share is
    /// pre-loaded by whichever survivor will evaluate it. Timing outputs
    /// are discarded (the pre-load advances the server clocks directly,
    /// it is not part of query latency) but the fault report is returned
    /// for the outcome.
    fn preload_objects(
        &self,
        snap: &Arc<MetaSnapshot>,
        objects: &[ObjectId],
        weights: &[u64],
        placement: Option<&Placement>,
    ) -> PdcResult<crate::recover::SlotRunOutput<IntegrityCounters>> {
        let n = self.cfg.num_servers;
        let n_slots = weights.len() as u32;
        let cost = self.cfg.cost;
        let odms = Arc::clone(&self.odms);
        let snap = Arc::clone(snap);
        run_slots(
            &self.pool,
            &cost,
            placement,
            weights,
            |_: &IntegrityCounters| 0,
            |slot, st| {
                let i0 = st.integrity;
                for &obj in objects {
                    let meta = snap.meta(obj)?;
                    for r in 0..meta.num_regions() {
                        if r % n_slots != slot {
                            continue;
                        }
                        // Charges identically to a materializing read,
                        // but a spilled region stays cold (the pre-load
                        // seeds a cold cache slot instead of pinning the
                        // decoded payload).
                        st.read_data_source(
                            &odms,
                            &cost,
                            pdc_types::RegionId::new(obj, r),
                            n,
                            meta.region_span(r).len,
                            true,
                        )?;
                    }
                }
                Ok(st.integrity.since(&i0))
            },
        )
    }

    /// `PDCquery_get_data`: load the values of the matching elements of
    /// `object` into memory, in coordinate order.
    pub fn get_data(&self, outcome: &QueryOutcome, object: ObjectId) -> PdcResult<GetDataOutcome> {
        self.get_data_for_selection(&outcome.selection, object, outcome.sorted_hint.as_ref())
    }

    /// `PDCquery_get_data_batch`: retrieve the data in batches of at most
    /// `batch_elems` elements ("when the resulting data size is too large
    /// and cannot fit in memory at one time"). Returns the per-batch
    /// outcomes; concatenating the batch data reproduces `get_data`. A zero
    /// `batch_elems` is rejected with [`PdcError::InvalidQuery`].
    pub fn get_data_batch(
        &self,
        outcome: &QueryOutcome,
        object: ObjectId,
        batch_elems: u64,
    ) -> PdcResult<Vec<GetDataOutcome>> {
        if batch_elems == 0 {
            return Err(PdcError::InvalidQuery("batch size must be positive".into()));
        }
        let mut batches = Vec::new();
        let mut chunk: Vec<Run> = Vec::new();
        let mut chunk_len = 0u64;
        let flush =
            |chunk: &mut Vec<Run>, chunk_len: &mut u64, batches: &mut Vec<Selection>| {
                if !chunk.is_empty() {
                    batches.push(Selection::from_canonical_runs(std::mem::take(chunk)));
                    *chunk_len = 0;
                }
            };
        let mut parts: Vec<Selection> = Vec::new();
        for run in outcome.selection.runs() {
            let mut start = run.start;
            let mut remaining = run.len;
            while remaining > 0 {
                let take = remaining.min(batch_elems - chunk_len);
                chunk.push(Run::new(start, take));
                chunk_len += take;
                start += take;
                remaining -= take;
                if chunk_len == batch_elems {
                    flush(&mut chunk, &mut chunk_len, &mut parts);
                }
            }
        }
        flush(&mut chunk, &mut chunk_len, &mut parts);
        for sel in &parts {
            batches.push(self.get_data_for_selection(sel, object, outcome.sorted_hint.as_ref())?);
        }
        Ok(batches)
    }

    fn get_data_for_selection(
        &self,
        selection: &Selection,
        object: ObjectId,
        sorted_hint: Option<&(ObjectId, Run)>,
    ) -> PdcResult<GetDataOutcome> {
        let meta = self.odms.meta().get(object)?;
        let ty = meta.pdc_type;
        let n = self.cfg.num_servers;
        let cost = self.cfg.cost;
        let odms = Arc::clone(&self.odms);
        let elem_bytes = ty.size_bytes();

        let use_sorted = matches!(sorted_hint, Some((o, _)) if *o == object);
        let span_hint = sorted_hint.map(|(_, s)| *s);
        let snap = Arc::new(MetaSnapshot::capture(&self.odms, &[object])?);
        let placement = self.placement_snapshot();
        let n_slots = placement.as_ref().map(|p| p.num_slots()).unwrap_or(n);
        let weights = self.slot_weights_for_objects(&snap, &[object], n_slots)?;
        let elem = elem_bytes;

        let out = run_slots(
            &self.pool,
            &cost,
            placement.as_deref(),
            &weights,
            |r: &(Vec<(u64, f64)>, IoCounters)| r.0.len() as u64 * (8 + elem),
            |slot, st| {
                let io0 = st.io;
                let w0 = st.work;
                let mut pairs: Vec<(u64, f64)> = Vec::new();
                if use_sorted {
                    // Serve straight from the sorted replica: this slot
                    // walks its share of the matching sorted band; values
                    // are already resident from the evaluation.
                    let replica = odms.meta().sorted_replica(object)?;
                    let span = span_hint.unwrap();
                    let sorted_obj = ObjectId(object.raw() | 1 << 63);
                    for (i, sr) in replica.regions_of_span(&span).iter().enumerate() {
                        if i as u32 % n_slots != slot {
                            continue;
                        }
                        let region_start = *sr as u64 * replica.region_len();
                        let region_end =
                            (region_start + replica.region_len()).min(replica.len());
                        let bytes = (region_end - region_start) * (elem_bytes + 8);
                        st.touch_sorted_region(
                            &cost,
                            pdc_types::RegionId::new(sorted_obj, *sr),
                            bytes,
                            n,
                        )?;
                        let lo = span.start.max(region_start);
                        let hi = span.end().min(region_end);
                        for s in lo..hi {
                            let coord = replica.perm()[s as usize];
                            if selection.contains(coord) {
                                st.work.elements_gathered += 1;
                                pairs.push((coord, replica.keys()[s as usize]));
                            }
                        }
                    }
                } else {
                    // Coordinate path: this slot gathers from its
                    // round-robin share of the regions holding hits.
                    for r in 0..meta.num_regions() {
                        if r % n_slots != slot {
                            continue;
                        }
                        let span = meta.region_span(r);
                        let local = selection.restrict_to_span(span.offset, span.len);
                        if local.is_empty() {
                            continue;
                        }
                        let payload = st.read_data_region_uncached(
                            &odms,
                            &cost,
                            pdc_types::RegionId::new(object, r),
                            n,
                            span.len,
                        )?;
                        // Typed run-at-a-time gather: one slice walk per
                        // hit run instead of a per-element enum match.
                        #[allow(clippy::unnecessary_cast)] // Double arm casts f64->f64
                        {
                            pdc_types::with_slice!(&*payload, xs => {
                                for run in local.runs() {
                                    let s = (run.start - span.offset) as usize;
                                    let e = s + run.len as usize;
                                    st.work.elements_gathered += run.len;
                                    for (k, &v) in xs[s..e].iter().enumerate() {
                                        pairs.push((run.start + k as u64, v as f64));
                                    }
                                }
                            });
                        }
                    }
                }
                st.settle_cpu(&cost, &w0);
                Ok((pairs, st.io.since(&io0)))
            },
        )?;

        let mut all_pairs: Vec<(u64, f64)> = Vec::new();
        let mut io = IoCounters::default();
        let mut bytes_transferred = 0;
        let mut servers_involved = 0;
        for (pairs, io_d) in out.per_slot {
            let bytes = pairs.len() as u64 * (8 + elem_bytes);
            if !pairs.is_empty() {
                servers_involved += 1;
                bytes_transferred += bytes;
            }
            io.merge(&io_d);
            all_pairs.extend(pairs);
        }
        all_pairs.sort_unstable_by_key(|&(c, _)| c);
        let data = typed_from_f64(ty, all_pairs.iter().map(|&(_, v)| v));

        Ok(GetDataOutcome {
            data,
            elapsed: out.eval_time,
            io,
            bytes_transferred,
            servers_involved,
        })
    }
}

/// Rebuild a typed array from f64 values (exact for values that came from
/// the same type).
fn typed_from_f64(ty: PdcType, values: impl Iterator<Item = f64>) -> TypedVec {
    match ty {
        PdcType::Float => TypedVec::Float(values.map(|v| v as f32).collect()),
        PdcType::Double => TypedVec::Double(values.collect()),
        PdcType::Int32 => TypedVec::Int32(values.map(|v| v as i32).collect()),
        PdcType::UInt32 => TypedVec::UInt32(values.map(|v| v as u32).collect()),
        PdcType::Int64 => TypedVec::Int64(values.map(|v| v as i64).collect()),
        PdcType::UInt64 => TypedVec::UInt64(values.map(|v| v as u64).collect()),
    }
}
