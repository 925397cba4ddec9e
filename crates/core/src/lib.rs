//! # pdc-query
//!
//! **The paper's core contribution**: a parallel query service for
//! object-centric data management systems.
//!
//! * [`ast`] — the user-facing query construction API mirroring the C API
//!   of Fig. 1: [`PdcQuery::create`] (`PDCquery_create`),
//!   [`PdcQuery::and`] / [`PdcQuery::or`], [`PdcQuery::set_region`].
//!   Queries serialize for the client→server broadcast.
//! * [`plan`] — normalization of the query tree into per-object value
//!   intervals plus the **selectivity-ordered** evaluation plan driven by
//!   global histograms (§III-D2).
//! * [`exec`] — the per-server plan evaluator: region assignment,
//!   candidate chaining, and strategy dispatch for `PDC-F`, `PDC-H`,
//!   `PDC-HI`, `PDC-SH`, and the per-region adaptive `PDC-A`.
//! * [`ops`] — the physical operators the evaluator drives (prune,
//!   exact scan, index probe, sorted range and verify-rebuild, each
//!   returning what it computes), the per-region planner that reads the
//!   strategy's policy table, the admission estimate, and the
//!   [`ops::ExplainPlan`] report.
//! * [`snapshot`] — epoch-consistent metadata snapshots: every plan pins
//!   the metadata/histograms/replica views of its objects at plan time,
//!   so queries in flight during a streaming append answer exactly the
//!   extent they planned against.
//! * [`state`] — per-logical-server state: region cache, index cache,
//!   resident sorted regions, simulated clock and counters.
//! * [`engine`] — the [`QueryEngine`]: broadcast, load-balanced region
//!   assignment, result aggregation, `get_nhits` / `get_selection` /
//!   `get_data` / `get_data_batch` / `get_histogram`.
//! * [`multi`] — combined metadata + data queries over many small objects
//!   (the H5BOSS scenario of §VI-C).
//! * [`qcache`] — per-server, epoch-invalidated caches of query
//!   artifacts (prune verdicts, region-scan selections, index answers)
//!   powering [`QueryEngine::run_batch`]'s shared-scan batching. Hits
//!   skip host recomputation only; simulated costs replay exactly.
//! * [`integrity`] — data-plane integrity: deterministic corruption
//!   injection and the client-side verify-and-repair preflight sweep;
//!   repair work is charged to the breakdown's dedicated `integrity`
//!   lane.
//! * [`service`] — the multi-tenant, admission-controlled **service
//!   loop** ([`QueryEngine::serve`]): per-tenant FIFO queues with
//!   deficit-round-robin weighted-fair dispatch, cost-budget admission
//!   control (typed defer/reject outcomes), and continuous batching
//!   that folds dispatched queries into an open shared-scan group —
//!   scheduling affects *when*, never *what*: per-query results and
//!   simulated charges stay bit-identical to solo execution.

pub mod ast;
pub mod engine;
pub mod exec;
pub mod integrity;
pub mod multi;
pub mod ops;
pub mod parse;
pub mod plan;
pub mod qcache;
pub(crate) mod recover;
pub mod service;
pub mod snapshot;
pub mod state;

pub use ast::PdcQuery;
pub use parse::parse_query;
pub use engine::{
    BatchOutcome, BatchStats, EngineConfig, GetDataOutcome, MembershipReport, QueryEngine,
    QueryOutcome, Strategy,
};
pub use ops::{
    directory_stats, estimate_plan_cost, DirectoryStats, ExplainPhase, ExplainPlan,
    JointContext, OpKind, RegionExplain,
};
pub use qcache::{CacheStats, GroupStats, QueryArtifactCache, SharedScanGroup};
pub use service::{
    percentile, poisson_times, splitmix64, Arrival, RejectedQuery, ScheduleClock,
    ServedQuery, ServiceConfig, ServiceReport, ServiceStats, TenantSpec, TenantSummary,
    TraceEvent,
};
pub use integrity::{apply_corruption, preflight, CorruptionReport};
pub use multi::MetaDataQueryOutcome;
pub use plan::QueryPlan;
pub use snapshot::MetaSnapshot;
pub use state::ServerState;
