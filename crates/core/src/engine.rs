//! The query engine: broadcast, parallel evaluation, aggregation, and the
//! `PDCquery_get_*` result API of Fig. 1.

use crate::ast::PdcQuery;
use crate::exec::{eval_plan, EvalCtx, SlotAnswer};
use crate::plan::{ObjConstraint, PlanNode, QueryPlan};
use crate::recover::run_slots;
use crate::snapshot::MetaSnapshot;
use crate::state::ServerState;
use pdc_histogram::Histogram;
use pdc_odms::Odms;
use pdc_server::{FaultPlan, Placement, ServerPool};
use pdc_sorted::SortedReplica;
use pdc_storage::{
    CostBreakdown, CostModel, IntegrityCounters, IoCounters, SimDuration, WorkCounters,
};
use pdc_types::selection::{PartialSelection, RankDirectory};
use pdc_types::{
    Interval, ObjectId, PdcError, PdcResult, PdcType, RegionId, Run, Selection, ServerId, TypedVec,
    Unpoison,
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
    /// function of metadata, histograms and the cost model, decided once
    /// per conjunction per query on the client by
    /// [`BandVerdicts::resolve`]; server slots, retries and failovers,
    /// the client merge and `sorted_hint` all read that one verdict.
    fn sorted_primary(
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

/// Bit-exact hashable image of an [`Interval`]: raw endpoint bits plus
/// presence/inclusivity flags. Two intervals map to the same key iff
/// they are structurally identical (NaN payloads included), so a verdict
/// is only ever read back for the exact predicate that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct IntervalKey {
    lo: (u64, u8),
    hi: (u64, u8),
}

impl IntervalKey {
    fn of(iv: &Interval) -> Self {
        let enc = |b: Option<pdc_types::interval::Bound>| match b {
            None => (0u64, 0u8),
            Some(b) => (b.value.to_bits(), if b.inclusive { 2 } else { 1 }),
        };
        IntervalKey { lo: enc(iv.lo), hi: enc(iv.hi) }
    }
}

/// The client's sorted-lane verdicts for one plan: the conjunction
/// primaries the value-sorted replica answers. [`Self::resolve`] walks the
/// plan as the evaluator does and asks [`Policy::sorted_primary`] once for
/// every conjunction evaluated without incoming candidates (the root, OR
/// children, the first child of an AND); the plan cache keeps the result
/// beside the plan and its snapshot, so a query asks once per plan-cache
/// entry.
#[derive(Debug, Default)]
pub(crate) struct BandVerdicts {
    /// `(object, interval)` of every band-answered primary. A verdict is a
    /// function of the pair (under one snapshot, cost model and pool
    /// size), so the pair names it wherever it recurs in the plan.
    band: Vec<(ObjectId, IntervalKey)>,
}

impl BandVerdicts {
    /// Resolve every conjunction primary of `plan` under `policy`.
    pub(crate) fn resolve(
        policy: Policy,
        snap: &MetaSnapshot,
        cost: &CostModel,
        n_servers: u32,
        plan: &QueryPlan,
    ) -> PdcResult<Self> {
        let mut out = BandVerdicts::default();
        if policy.sorted != Use::Never {
            let decide = |c: &ObjConstraint| policy.sorted_primary(snap, cost, n_servers, c);
            out.collect(&plan.root, false, &decide)?;
        }
        Ok(out)
    }

    /// Mirror `exec::eval_node`: a conjunction reached with candidates
    /// point-checks every constraint and has no primary.
    fn collect(
        &mut self,
        node: &PlanNode,
        candidates: bool,
        decide: &dyn Fn(&ObjConstraint) -> PdcResult<bool>,
    ) -> PdcResult<()> {
        match node {
            PlanNode::Conj(cs) => {
                if let Some(c) = cs.first().filter(|_| !candidates) {
                    if decide(c)? {
                        self.band.push((c.object, IntervalKey::of(&c.interval)));
                    }
                }
            }
            PlanNode::Or(children) => {
                for child in children {
                    self.collect(child, candidates, decide)?;
                }
            }
            PlanNode::And(children) => {
                for (i, child) in children.iter().enumerate() {
                    self.collect(child, candidates || i > 0, decide)?;
                }
            }
        }
        Ok(())
    }

    /// Whether the sorted replica answers `c` as a conjunction's primary.
    pub(crate) fn answers(&self, c: &ObjConstraint) -> bool {
        let key = IntervalKey::of(&c.interval);
        self.band.iter().any(|&(o, k)| o == c.object && k == key)
    }

    /// When the band answers the root conjunction's primary
    /// (SortedHistogram always; Adaptive when the band wins), the sort
    /// object, the matching sorted span and the snapshot's replica. Then
    /// every slot result is a slice of one band, interleaved with the
    /// others element by element.
    pub(crate) fn sorted_hint(
        &self,
        plan: &QueryPlan,
        snap: &MetaSnapshot,
    ) -> PdcResult<Option<SortedHint>> {
        let PlanNode::Conj(cs) = &plan.root else { return Ok(None) };
        let Some(primary) = cs.first().filter(|c| self.answers(c)) else { return Ok(None) };
        let (version, replica) = snap.sorted_replica(primary.object)?;
        let span = replica.matching_span(&primary.interval);
        Ok(Some(SortedHint { object: primary.object, span, version, replica, positions: None }))
    }
}

/// A plan with its plan-time metadata snapshot and its sorted-lane
/// verdicts: what the plan cache keeps, and everything an evaluation of
/// the query reads from planning.
#[derive(Clone)]
pub(crate) struct Planned {
    pub plan: QueryPlan,
    pub snap: Arc<MetaSnapshot>,
    pub band: Arc<BandVerdicts>,
}

/// Engine configuration. Failure handling is not configurable: a failed
/// slot fails over along its preference list for at most three retry
/// rounds that find no new crash, a slow server is always waited for,
/// and the placement uses one fixed layout seed, so the same membership
/// gives the same replica sets on every host.
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
    /// Replicas per assignment slot of the [`Placement`]. `1` (the
    /// default) is the classic single-home layout, bit for bit; `k ≥ 2`
    /// gives each slot an ordered set of `k` servers. At every `k` a
    /// fault fails the slot over along its preference list (charging the
    /// `failover` lane), a crash evicts the dead member and re-homes its
    /// slots, and elastic membership ([`QueryEngine::join_server`] /
    /// [`QueryEngine::leave_server`]) is available. Results are
    /// bit-identical at every setting.
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
    /// When the sorted strategy answered the primary constraint, the
    /// replica band it read (lets `get_data` serve the values straight
    /// from the replica).
    pub sorted_hint: Option<SortedHint>,
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

/// The sorted-replica band that answered a query's primary constraint:
/// the sort key object, the matching span in sorted coordinates, and the
/// replica that span indexes — the one pinned in the query's plan-time
/// snapshot, so `get_data` reads the band the query evaluated even after
/// deferred maintenance has rebuilt the live replica.
#[derive(Clone)]
pub struct SortedHint {
    /// The sort key object.
    pub object: ObjectId,
    /// The matching span in sorted coordinates of `replica`.
    pub span: Run,
    /// The version that published `replica`.
    pub(crate) version: u64,
    /// The replica the query planned against.
    pub(crate) replica: Arc<SortedReplica>,
    /// The selected elements' positions in `span`, ascending, when the
    /// query narrowed the band; `None` when it selects the whole span.
    pub(crate) positions: Option<Arc<[usize]>>,
}

impl std::fmt::Debug for SortedHint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SortedHint")
            .field("object", &self.object)
            .field("span", &self.span)
            .field("replica_len", &self.replica.len())
            .finish()
    }
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

/// The client-side canonical-plan cache: normalized query tree (by
/// [`PdcQuery::canonical_key`]) → built, selectivity-ordered plan plus
/// the plan-time [`MetaSnapshot`] the evaluation pins. An entry is reused
/// only while its snapshot [`MetaSnapshot::is_current`]: an append or an
/// aux rebuild (which can change the histograms behind the selectivity
/// ordering) publishes new metadata and so retires both the plan and its
/// snapshot. Data mutations that publish no metadata leave it valid.
struct PlanCache {
    map: HashMap<String, Planned>,
    hits: u64,
    misses: u64,
}

/// Whole-map reset threshold for the plan cache (plans are tiny; the
/// cap only guards unbounded ad-hoc query streams).
const PLAN_CACHE_CAP: usize = 512;

/// The parallel query service.
pub struct QueryEngine {
    odms: Arc<Odms>,
    pub(crate) pool: ServerPool<ServerState>,
    cfg: EngineConfig,
    plans: Mutex<PlanCache>,
    /// The k-way slot placement (`k = 1`: the classic single-home
    /// layout). Swapped wholesale on membership changes so in-flight
    /// queries keep their own consistent snapshot.
    placement: Mutex<Arc<Placement>>,
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

/// How many assignment slots each server is spread over. `k = 1` keeps
/// one slot per server (the classic single-home layout); under k-way
/// replication finer slots make a failover move `1/spread` of the dead
/// server's work to each distinct backup instead of a whole server's
/// share — that is what flattens the `k = 1` degradation curve.
/// `n_servers` always divides `num_slots`, so region `r`'s anchor server
/// stays `r % n_servers` and a healthy run does byte-identical
/// per-server work at every `k`.
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

/// The k-way placement a fresh pool starts from (at `k = 1`, one slot
/// per server on its own anchor).
fn fresh_placement(cfg: &EngineConfig) -> Arc<Placement> {
    let spread = slot_spread(cfg.replicas, cfg.num_servers);
    Arc::new(Placement::new(
        cfg.num_servers * spread,
        cfg.num_servers,
        cfg.replicas,
        PLACEMENT_SEED,
    ))
}

/// A fresh server state: an empty cache of the configured size and, under
/// a fault plan, the server's fault probe armed from the start.
fn server_state(cfg: &EngineConfig, id: ServerId) -> ServerState {
    let mut st = ServerState::new(cfg.cache_bytes_per_server);
    if let Some(plan) = &cfg.fault_plan {
        st.fault = plan.probe_for(id.raw());
    }
    st
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
        let pool = ServerPool::new(cfg.num_servers, |id| server_state(&cfg, id));
        let placement = fresh_placement(&cfg);
        let engine = Self {
            odms,
            pool,
            cfg,
            plans: Mutex::new(PlanCache { map: HashMap::new(), hits: 0, misses: 0 }),
            placement: Mutex::new(placement),
        };
        engine.apply_planned_corruption();
        engine
    }

    /// The current placement.
    pub(crate) fn placement_snapshot(&self) -> Arc<Placement> {
        Arc::clone(&self.placement.lock().unpoisoned())
    }

    /// The ordered replica set of every assignment slot, indexed by slot.
    /// Introspection for tests, benches, and the CLI report.
    pub fn replica_sets(&self) -> Vec<Vec<u32>> {
        self.placement_snapshot().replica_sets().to_vec()
    }

    /// The current placement membership (server ids), sorted.
    pub fn placement_members(&self) -> Vec<u32> {
        self.placement_snapshot().members().to_vec()
    }

    /// Admit a fresh server into the pool and the placement (elastic
    /// scale-out). The new replica copies over the regions of every slot
    /// it now serves (live migration through the checksum-verified
    /// mover); queries running before, during, and after return
    /// bit-identical results.
    pub fn join_server(&self) -> PdcResult<MembershipReport> {
        let mut guard = self.placement.lock().unpoisoned();
        let mut p = (**guard).clone();
        let id = self.pool.add_server(|id| server_state(&self.cfg, id));
        let mplan = p.join(id.raw());
        let p = Arc::new(p);
        *guard = Arc::clone(&p);
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
    /// The last member cannot leave.
    pub fn leave_server(&self, server: u32) -> PdcResult<MembershipReport> {
        let mut guard = self.placement.lock().unpoisoned();
        if !guard.is_member(server) {
            return Err(PdcError::InvalidQuery(format!(
                "server {server} is not a placement member"
            )));
        }
        let mut p = (**guard).clone();
        let mplan = p.leave(server)?;
        let p = Arc::new(p);
        *guard = Arc::clone(&p);
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
        // The copy lands each slot's regions on its replica servers: seed
        // their caches by the read path's one rule (a hot slot for a
        // resident region, a cold slot of the same footprint for a spilled
        // one) so the next query reads the replica-local copy instead of
        // re-paying the shared-PFS read the rebuild already made.
        let n = self.pool.num_servers();
        for rid in ids {
            let slot = rid.index % num_slots;
            let Ok(view) = crate::state::open_view(&self.odms, rid) else {
                continue;
            };
            for &q in p.replicas(slot) {
                if q < n {
                    self.pool.with_server(ServerId(q), |st| {
                        if !st.is_crashed() {
                            st.cache.put_slot(rid, view.cache_slot());
                        }
                    });
                }
            }
        }
        Ok((report.regions, report.bytes))
    }

    /// After a query observed crashed servers: evict them from the
    /// membership (never the last member) and restore each affected slot's
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
        let mut guard = self.placement.lock().unpoisoned();
        let mut p = (**guard).clone();
        let mut gained: Vec<u32> = Vec::new();
        for s in crashed {
            if let Ok(plan) = p.leave(s) {
                gained.extend(plan.slots_gaining_replicas());
            }
        }
        if p.members() == guard.members() {
            return (0, 0);
        }
        let p = Arc::new(p);
        *guard = Arc::clone(&p);
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

    /// The verify-and-repair preflight every dispatch starts with, before
    /// planning: corrupt region histograms must be rebuilt before
    /// selectivity ordering reads the re-merged globals (and before they
    /// prune), and repairing shared data regions on the single-threaded
    /// client keeps the repair charges deterministic (point checks cross
    /// slot boundaries). Skipped entirely without an active corruption
    /// spec.
    pub(crate) fn preflight(&self) -> PdcResult<(IntegrityCounters, SimDuration)> {
        if self.cfg.fault_plan.as_ref().and_then(|p| p.corruption()).is_some() {
            crate::integrity::preflight(&self.odms, &self.cfg.cost, self.cfg.num_servers)
        } else {
            Ok((IntegrityCounters::default(), SimDuration::ZERO))
        }
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
        self.pool.for_each_server(|id, st| *st = server_state(&self.cfg, id));
        {
            let mut pc = self.plans.lock().unpoisoned();
            pc.map.clear();
            pc.hits = 0;
            pc.misses = 0;
        }
        // Membership resets with the servers: crashed-and-evicted members
        // come back up, joins/leaves are forgotten (the pool may keep
        // extra states around — ids are stable — but no work routes to
        // non-members).
        *self.placement.lock().unpoisoned() = fresh_placement(&self.cfg);
        self.apply_planned_corruption();
    }

    /// Plan `query` through the canonical-plan cache, the one way every
    /// dispatch plans: a hit replays the built, selectivity-ordered plan,
    /// *its plan-time metadata snapshot* and its sorted-lane verdicts for
    /// the same canonical tree while that snapshot is current; a miss
    /// builds and admits all three. Host work only — planning carries no
    /// simulated charge either way.
    ///
    /// On a miss the snapshot is pinned before planning, so the planner
    /// reads metadata at least as new as the pinned views: a mutation
    /// landing in between leaves the snapshot stale (`is_current` fails)
    /// rather than caching a plan under views it did not read.
    pub(crate) fn plan_cached(&self, query: &PdcQuery) -> PdcResult<Planned> {
        let key = query.canonical_key();
        {
            let mut pc = self.plans.lock().unpoisoned();
            if let Some(hit) =
                pc.map.get(&key).filter(|p| p.snap.is_current(&self.odms)).cloned()
            {
                pc.hits += 1;
                return Ok(hit);
            }
        }
        let snap = Arc::new(MetaSnapshot::capture(&self.odms, &query.objects())?);
        let plan =
            QueryPlan::build_with_ordering(query, &self.odms, self.cfg.order_by_selectivity)?;
        let band = BandVerdicts::resolve(
            self.cfg.strategy.policy(),
            &snap,
            &self.cfg.cost,
            self.cfg.num_servers,
            &plan,
        )?;
        let planned = Planned { plan, snap, band: Arc::new(band) };
        let mut pc = self.plans.lock().unpoisoned();
        pc.misses += 1;
        if pc.map.len() >= PLAN_CACHE_CAP {
            pc.map.clear();
        }
        pc.map.insert(key, planned.clone());
        Ok(planned)
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
        self.run_impl(query, false).map(|(outcome, _, _)| outcome)
    }

    /// Evaluate a query and return its per-region execution explanation
    /// alongside the outcome: which physical operator each region was
    /// answered with, prune verdicts, and estimated vs actual
    /// selectivity. The outcome is bit-identical to [`Self::run`] on the
    /// same pool state — explain recording is host-side only.
    pub fn explain(&self, query: &PdcQuery) -> PdcResult<(QueryOutcome, crate::ops::ExplainPlan)> {
        let (outcome, _, plan) = self.run_impl(query, true)?;
        Ok((outcome, plan.expect("explain run always produces a plan")))
    }

    /// The one dispatch behind [`Self::run`], [`Self::explain`] and
    /// [`Self::serve`]: preflight, plan through the plan cache, evaluate.
    /// Also returns the slot-evaluation time so the service timeline can
    /// separate it from the serial client overheads. With `explain` set,
    /// servers additionally record one [`crate::ops::RegionExplain`] row
    /// per evaluated region (host-side only — accounting is unaffected)
    /// and the merged [`crate::ops::ExplainPlan`] is returned.
    pub(crate) fn run_impl(
        &self,
        query: &PdcQuery,
        explain: bool,
    ) -> PdcResult<(QueryOutcome, SimDuration, Option<crate::ops::ExplainPlan>)> {
        let (mut integrity, preflight_time) = self.preflight()?;
        let Planned { plan, snap, band } = self.plan_cached(query)?;
        let mut sorted_hint = band.sorted_hint(&plan, &snap)?;
        let n = self.cfg.num_servers;
        let cost = self.cfg.cost;
        // Snapshot the placement once per query: membership changes land
        // between queries, never mid-broadcast.
        let placement = self.placement_snapshot();
        let n_slots = placement.num_slots();
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
            Some(self.preload_objects(&snap, &objects, &weights, &placement)?)
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
            &placement,
            &weights,
            |r: &(
                SlotAnswer,
                IoCounters,
                WorkCounters,
                IntegrityCounters,
                SimDuration,
                Vec<crate::ops::RegionExplain>,
            )| { r.0 .0.wire_size_bytes() },
            |slot, st| {
                let ctx = EvalCtx {
                    odms: &odms,
                    snap: &snap_eval,
                    cost: &cost,
                    policy,
                    band: &band,
                    n_servers: n,
                    n_slots,
                    server: slot,
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
                let answer = res?;
                Ok((
                    answer,
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
        // "Remove the duplicates with a merge sort" on the client. The
        // per-region lanes' slot results interleave region by region, and
        // one k-way heap merge moves a region's runs per heap operation.
        // A band's slot results interleave element by element, so when the
        // band answered the root primary they are ORed into one bitset,
        // the slots' words as they arrived, and decoded once. Both return
        // the same canonical RLE. Only a band-answered root ships words.
        let parts = out.per_slot.iter().map(|t| &t.0 .0);
        let selection = if sorted_hint.is_some() {
            Selection::union_partials(parts)
        } else {
            Selection::union_many(parts.filter_map(PartialSelection::as_runs))
        };
        // The slots of a narrowed root band name their survivors' band
        // positions; sorted, they let `get_data` visit only those.
        if let Some(hint) = sorted_hint.as_mut() {
            let positions: Option<Vec<&[usize]>> =
                out.per_slot.iter().map(|t| t.0 .1.as_deref()).collect();
            hint.positions = positions.map(|ps| {
                let mut ps = ps.concat();
                ps.sort_unstable();
                ps.into()
            });
        }
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
            failover: out.failover,
            integrity: preflight_time + slot_integrity_time,
        };

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
        // Background redundancy repair: after a run that saw crashes,
        // re-home the dead members' slots and copy the regions the new
        // replicas gained. Reported, not charged — the rebuild overlaps
        // subsequent work like the paper's async movement.
        let (rebuild_regions, rebuild_bytes) = if !failed_servers.is_empty() {
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
                planned_elements,
                rebuild_regions,
                rebuild_bytes,
            },
            out.eval_time,
            explain_plan,
        ))
    }

    /// Plan-cache hit/miss totals: `(plan_hits, plan_misses)`.
    pub(crate) fn plan_counters(&self) -> (u64, u64) {
        let pc = self.plans.lock().unpoisoned();
        (pc.hits, pc.misses)
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
        placement: &Placement,
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
                        // Read and cache only: nothing is scanned.
                        let rid = RegionId::new(obj, r);
                        let len = meta.region_span(r).len;
                        st.read_region(&odms, &cost, rid, n, len, true, |_, _| Ok(()))?;
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

    /// The gather behind `get_data` and every `get_data_batch` batch. No
    /// path builds `(coordinate, value)` pairs or sorts:
    ///
    /// * **coordinate path** — each slot copies the hit runs of its
    ///   regions (found with one binary search per region) typed, run at
    ///   a time, into one buffer; the client concatenates the regions in
    ///   region order, which is coordinate order;
    /// * **sorted path** (the query's primary constraint was answered by
    ///   the sorted replica of `object`) — each slot walks its share of
    ///   the pinned band and emits `(rank, key)` for the elements in the
    ///   selection, ranks coming from a [`RankDirectory`] over it; the
    ///   client scatters the keys into place by rank.
    ///
    /// The simulated charges are those of the pair-and-sort gather this
    /// replaced, call for call (pinned in `tests/get_data_equivalence.rs`).
    fn get_data_for_selection(
        &self,
        selection: &Selection,
        object: ObjectId,
        sorted_hint: Option<&SortedHint>,
    ) -> PdcResult<GetDataOutcome> {
        let meta = self.odms.meta().get(object)?;
        let ty = meta.pdc_type;
        let n = self.cfg.num_servers;
        let cost = self.cfg.cost;
        let odms = Arc::clone(&self.odms);
        let elem = ty.size_bytes();

        let sorted = sorted_hint.filter(|h| h.object == object).map(|h| {
            let probes = h.positions.as_ref().map_or(h.span.len, |p| p.len() as u64);
            (h, RankDirectory::new(selection, probes))
        });
        let snap = Arc::new(MetaSnapshot::capture(&self.odms, &[object])?);
        let placement = self.placement_snapshot();
        let n_slots = placement.num_slots();
        let weights = self.slot_weights_for_objects(&snap, &[object], n_slots)?;

        let out = run_slots(
            &self.pool,
            &cost,
            &placement,
            &weights,
            |r: &(Gathered, IoCounters)| r.0.len() * (8 + elem),
            |slot, st| {
                let io0 = st.io;
                let w0 = st.work;
                let gathered = match &sorted {
                    Some((hint, ranks)) => {
                        // Serve straight from the sorted replica: this slot
                        // visits the selected positions of its band share;
                        // values are already resident from the evaluation.
                        let (replica, span) = (&hint.replica, hint.span);
                        let (perm, keys) = (replica.perm(), replica.keys());
                        let at = |p: usize| Some((ranks.rank(perm[p])?, keys[p]));
                        let mut ranked: Vec<(u64, f64)> = Vec::new();
                        for (i, sr) in replica.regions_of_span(&span).iter().enumerate() {
                            if i as u32 % n_slots != slot {
                                continue;
                            }
                            let region = replica.region_span(*sr);
                            let bytes = region.len * (elem + 8);
                            st.touch_sorted_region(&cost, (object, hint.version, *sr), bytes, n)?;
                            let lo = span.start.max(region.start) as usize;
                            let hi = span.end().min(region.end()) as usize;
                            let before = ranked.len();
                            match &hint.positions {
                                None => ranked.extend((lo..hi).filter_map(at)),
                                Some(ps) => {
                                    let from = ps.partition_point(|&p| p < lo);
                                    let ps = ps[from..].iter().take_while(|&&p| p < hi);
                                    ranked.extend(ps.filter_map(|&p| at(p)));
                                }
                            }
                            st.work.elements_gathered += (ranked.len() - before) as u64;
                        }
                        Gathered::Ranked(ranked)
                    }
                    None => {
                        // Coordinate path: this slot gathers from its
                        // round-robin share of the regions holding hits.
                        // Each region's hit runs are one slice of the
                        // selection's, found with two binary searches; the
                        // first and last may cross the region's ends and
                        // are clipped by the gather.
                        let mut values = TypedVec::empty(ty);
                        let mut regions = Vec::new();
                        let runs = selection.runs();
                        for r in (slot..meta.num_regions()).step_by(n_slots as usize) {
                            let span = meta.region_span(r);
                            let first = runs.partition_point(|x| x.end() <= span.offset);
                            let n_hits = runs[first..].partition_point(|x| x.start < span.end());
                            if n_hits == 0 {
                                continue;
                            }
                            let hits = &runs[first..first + n_hits];
                            let rid = RegionId::new(object, r);
                            let before = values.len();
                            st.read_region(&odms, &cost, rid, n, span.len, false, |_, view| {
                                values.truncate(before);
                                let extent = view.len().min(span.len);
                                let offset = span.offset;
                                crate::ops::gather_runs(view, offset, extent, hits, &mut values)
                            })?;
                            let len = values.len() - before;
                            st.work.elements_gathered += len as u64;
                            regions.push((r, len));
                        }
                        Gathered::Regions(values, regions)
                    }
                };
                st.settle_cpu(&cost, &w0);
                Ok((gathered, st.io.since(&io0)))
            },
        )?;

        let mut io = IoCounters::default();
        let mut bytes_transferred = 0;
        let mut servers_involved = 0;
        for (gathered, io_d) in &out.per_slot {
            let count = gathered.len();
            if count > 0 {
                servers_involved += 1;
                bytes_transferred += count * (8 + elem);
            }
            io.merge(io_d);
        }
        let total = selection.count() as usize;
        let data = match sorted {
            Some(_) => scatter_by_rank(ty, total, &out.per_slot),
            None => concat_regions(ty, total, meta.num_regions(), &out.per_slot)?,
        };

        Ok(GetDataOutcome {
            data,
            elapsed: out.eval_time,
            io,
            bytes_transferred,
            servers_involved,
        })
    }
}

/// One slot's share of a `get_data` gather.
enum Gathered {
    /// Coordinate path: the hit values of the slot's regions back to back,
    /// in ascending region order, with each region's index and hit count.
    Regions(TypedVec, Vec<(u32, usize)>),
    /// Sorted path: `(rank, key)` for each band element in the selection.
    Ranked(Vec<(u64, f64)>),
}

impl Gathered {
    /// Values gathered (each ships with its 8-byte coordinate).
    fn len(&self) -> u64 {
        match self {
            Gathered::Regions(values, _) => values.len() as u64,
            Gathered::Ranked(ranked) => ranked.len() as u64,
        }
    }
}

/// The coordinate path's result: the slots' region pieces in region
/// order. Slot `s` holds the regions `r ≡ s (mod slots)` in ascending
/// order, so walking the slots round robin, one region index at a time,
/// visits every piece in region — that is, coordinate — order.
fn concat_regions(
    ty: PdcType,
    total: usize,
    num_regions: u32,
    per_slot: &[(Gathered, IoCounters)],
) -> PdcResult<TypedVec> {
    // Per slot: its values, its pieces still to copy, and their offset.
    let mut slots: Vec<_> = per_slot
        .iter()
        .map(|(g, _)| match g {
            Gathered::Regions(values, pieces) => (values, pieces.iter().peekable(), 0),
            Gathered::Ranked(_) => unreachable!("a coordinate gather returns region pieces"),
        })
        .collect();
    let n_slots = slots.len() as u32;
    let mut data = TypedVec::with_capacity(ty, total);
    for r in 0..num_regions {
        let (values, pieces, offset) = &mut slots[(r % n_slots) as usize];
        if let Some(&(_, len)) = pieces.next_if(|p| p.0 == r) {
            data.extend_from_range(values, *offset..*offset + len)?;
            *offset += len;
        }
    }
    Ok(data)
}

/// The sorted path's result: every slot's keys written straight to their
/// ranks. The selection lies inside the band (it answers a conjunction
/// whose primary constraint the band matches), so every rank is filled
/// exactly once.
fn scatter_by_rank(ty: PdcType, total: usize, per_slot: &[(Gathered, IoCounters)]) -> TypedVec {
    let ranked = || {
        per_slot.iter().flat_map(|(g, _)| match g {
            Gathered::Ranked(ranked) => ranked.iter().copied(),
            Gathered::Regions(..) => unreachable!("a sorted gather returns ranked keys"),
        })
    };
    debug_assert_eq!(ranked().count(), total, "every hit is gathered once");
    // Keys are the values widened to f64, so narrowing restores them.
    #[allow(clippy::unnecessary_cast)] // the Double arm casts f64->f64
    macro_rules! scatter {
        ($variant:ident, $t:ty) => {{
            let mut out = vec![<$t>::default(); total];
            for (rank, key) in ranked() {
                out[rank as usize] = key as $t;
            }
            TypedVec::$variant(out)
        }};
    }
    match ty {
        PdcType::Float => scatter!(Float, f32),
        PdcType::Double => scatter!(Double, f64),
        PdcType::Int32 => scatter!(Int32, i32),
        PdcType::UInt32 => scatter!(UInt32, u32),
        PdcType::Int64 => scatter!(Int64, i64),
        PdcType::UInt64 => scatter!(UInt64, u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_odms::ImportOptions;
    use pdc_storage::CacheSlot;

    #[test]
    fn interval_key_is_bit_exact() {
        let iv = Interval::open;
        assert_eq!(IntervalKey::of(&iv(1.0, 2.0)), IntervalKey::of(&iv(1.0, 2.0)));
        assert_ne!(IntervalKey::of(&iv(1.0, 2.0)), IntervalKey::of(&iv(1.0, 2.5)));
        assert_ne!(
            IntervalKey::of(&Interval::open(1.0, 2.0)),
            IntervalKey::of(&Interval::closed(1.0, 2.0)),
            "inclusivity must distinguish keys"
        );
        assert_ne!(
            IntervalKey::of(&Interval::from_op(pdc_types::QueryOp::Gt, 0.0)),
            IntervalKey::of(&Interval::from_op(pdc_types::QueryOp::Lt, 0.0)),
            "lo-only vs hi-only bounds must distinguish keys"
        );
    }

    #[test]
    fn a_rebuild_under_a_budget_pins_no_spilled_region_in_a_hot_slot() {
        let odms = Arc::new(Odms::new(4));
        let c = odms.create_container("seed");
        let data = TypedVec::Float((0..40_000).map(|i| (i as f32 * 0.37).sin()).collect());
        let opts = ImportOptions { region_bytes: 8192, ..Default::default() };
        let obj = odms.import_array(c, "v", data, &opts).unwrap().object;
        let dir = std::env::temp_dir().join(format!("pdc_engine_seed_{}", std::process::id()));
        let engine = QueryEngine::new(
            Arc::clone(&odms),
            EngineConfig {
                num_servers: 4,
                replicas: 2,
                memory_budget: Some(64 * 1024),
                spill_dir: Some(dir.clone()),
                ..Default::default()
            },
        );
        assert!(engine.leave_server(0).unwrap().regions_copied > 0);
        let n = odms.meta().get(obj).unwrap().num_regions();
        let (mut hot, mut cold) = (0, 0);
        engine.pool.for_each_server(|id, st| {
            for rid in (0..n).map(|r| RegionId::new(obj, r)) {
                let spilled = odms.store().is_spilled(rid);
                match st.cache.get(rid) {
                    Some(CacheSlot::Hot(_)) => {
                        assert!(!spilled, "server {id}: spilled {rid} pinned in a hot slot");
                        hot += 1;
                    }
                    Some(CacheSlot::Cold { bytes, elems }) => {
                        assert!(spilled, "server {id}: resident {rid} in a cold slot");
                        assert_eq!((bytes, elems), (8192, 2048));
                        cold += 1;
                    }
                    None => {}
                }
            }
        });
        assert!(hot > 0 && cold > 0, "both kinds of region were seeded: {hot} hot, {cold} cold");
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
