//! The multi-tenant, admission-controlled **service loop**, the
//! engine's one multi-query path. It replays an arrival schedule in
//! simulated time: an open-loop trace of timestamped arrivals from many
//! tenants, or one client's closed series (one tenant with an unbounded
//! budget, every arrival at t = 0).
//!
//! Two mechanisms, layered over the unchanged execution core:
//!
//! * **Per-tenant FIFO queues with weighted-fair dispatch.** Each
//!   registered tenant owns a ready queue; the single simulated client
//!   thread picks the next query by *deficit round-robin* over the
//!   tenants' estimated simulated costs (the PDC-A estimator surface,
//!   [`crate::ops::estimate_plan_cost`]). A tenant's long-term share of
//!   dispatched cost is proportional to its configured weight,
//!   independent of how aggressively it submits.
//! * **Admission control.** At arrival, a query's estimated cost is
//!   charged against its tenant's *in-flight budget*: while the tenant's
//!   admitted-but-incomplete estimated cost would exceed the budget, the
//!   arrival is **deferred** (FIFO, re-admitted as completions release
//!   budget) or — past the deferral-queue capacity — **rejected**. Both
//!   are typed outcomes ([`TraceEvent::Defer`] / [`RejectedQuery`]),
//!   never silent drops. A tenant with zero in-flight work always admits
//!   its head query, so an oversized estimate cannot livelock a tenant.
//!
//! Every dispatch is the dispatch [`QueryEngine::run`] makes (the plan
//! cache, then evaluation), so **the invariant scheduling must
//! preserve** holds by construction: every admitted query's `Selection`
//! and per-query simulated `CostBreakdown` are bit-identical to running
//! the same dispatch sequence through [`QueryEngine::run`] — scheduling
//! affects *when* (queueing, the service timeline), never *what*
//! (per-query results and charges). Property-tested in
//! `tests/service_equivalence.rs`.
//!
//! Time is fully simulated: the loop advances a virtual clock over
//! arrival and completion events, modelling one serial client thread
//! feeding `num_servers` parallel servers. A dispatch holds the client
//! for the query's overhead (its `elapsed` minus its server evaluation);
//! each server then runs its share once the client is done and its own
//! earlier work has drained. A closed series therefore ends no earlier
//! than both its summed client overhead and its busiest server's summed
//! work, and no later than the sum of its solo `elapsed` times.

use crate::ast::PdcQuery;
use crate::engine::{Planned, QueryEngine, QueryOutcome};
use crate::ops::estimate_plan_cost;
use pdc_storage::SimDuration;
use pdc_types::{PdcError, PdcResult};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

pub use pdc_types::splitmix64;

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// One tenant's scheduling contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Unique tenant name.
    pub name: String,
    /// Deficit-round-robin weight (≥ 1): long-term dispatched-cost share
    /// is proportional to weight.
    pub weight: u32,
    /// Admission budget: the maximum summed *estimated* simulated cost
    /// the tenant may have admitted-but-incomplete at once.
    pub cost_budget: SimDuration,
    /// Deferral-queue capacity; arrivals past it are rejected.
    pub queue_cap: usize,
}

impl TenantSpec {
    /// A tenant with the given name and scheduling parameters.
    pub fn new(name: &str, weight: u32, cost_budget: SimDuration, queue_cap: usize) -> Self {
        Self { name: name.to_string(), weight: weight.max(1), cost_budget, queue_cap }
    }
}

/// Service-loop configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// The registered tenants (dispatch order of the DRR rotation).
    pub tenants: Vec<TenantSpec>,
    /// DRR quantum: estimated cost credited to a tenant per rotation
    /// visit, scaled by its weight.
    pub quantum: SimDuration,
}

impl ServiceConfig {
    /// A config over `tenants` with a 5 ms quantum.
    pub fn new(tenants: Vec<TenantSpec>) -> Self {
        Self { tenants, quantum: SimDuration::from_millis(5) }
    }
}

/// One open-loop arrival: a query submitted by `tenant` at simulated
/// time `at`.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Simulated submission time.
    pub at: SimDuration,
    /// Submitting tenant's name (must be in [`ServiceConfig::tenants`]).
    pub tenant: String,
    /// The query.
    pub query: PdcQuery,
}

// ---------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------

/// One scheduler-trace event. The trace is deterministic given the
/// arrival schedule and engine configuration (asserted in
/// `tests/service_equivalence.rs`), nondecreasing in `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A query arrived.
    Arrive { at: SimDuration, tenant: u32, seq: u64 },
    /// It was admitted (charged against the tenant budget);
    /// `deferred` marks a re-admission from the deferral queue.
    Admit { at: SimDuration, tenant: u32, seq: u64, deferred: bool },
    /// Budget exceeded: parked in the deferral queue.
    Defer { at: SimDuration, tenant: u32, seq: u64, est: SimDuration },
    /// Budget exceeded and the deferral queue is full: rejected.
    Reject { at: SimDuration, tenant: u32, seq: u64, est: SimDuration },
    /// The client began executing the query.
    Dispatch { at: SimDuration, tenant: u32, seq: u64 },
    /// The last server lane finished the query.
    Complete { at: SimDuration, tenant: u32, seq: u64 },
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn at(&self) -> SimDuration {
        match *self {
            TraceEvent::Arrive { at, .. }
            | TraceEvent::Admit { at, .. }
            | TraceEvent::Defer { at, .. }
            | TraceEvent::Reject { at, .. }
            | TraceEvent::Dispatch { at, .. }
            | TraceEvent::Complete { at, .. } => at,
        }
    }
}

/// One completed query with its full service timeline. `outcome` is
/// bit-identical to the solo [`QueryEngine::run`] result at the same
/// dispatch position (the invariant the property suite pins).
#[derive(Debug, Clone)]
pub struct ServedQuery {
    /// Tenant index into [`ServiceConfig::tenants`].
    pub tenant: u32,
    /// Global arrival sequence number (index into the submitted set).
    pub seq: u64,
    /// Index into the `arrivals` slice passed to [`QueryEngine::serve`]
    /// (for dispatch-order replay).
    pub arrival_index: usize,
    /// Simulated submission time.
    pub arrival: SimDuration,
    /// When admission control accepted it.
    pub admitted_at: SimDuration,
    /// Whether it sat in the deferral queue first.
    pub was_deferred: bool,
    /// When the client began executing it.
    pub dispatched_at: SimDuration,
    /// When its last server lane finished.
    pub completed_at: SimDuration,
    /// The admission-control cost estimate.
    pub est_cost: SimDuration,
    /// The query's execution outcome (results + simulated charges).
    pub outcome: QueryOutcome,
}

impl ServedQuery {
    /// End-to-end simulated latency: completion − arrival.
    pub fn latency(&self) -> SimDuration {
        self.completed_at.saturating_sub(self.arrival)
    }
}

/// One rejected query — a typed outcome, not a silent drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejectedQuery {
    /// Tenant index into [`ServiceConfig::tenants`].
    pub tenant: u32,
    /// Global arrival sequence number.
    pub seq: u64,
    /// Simulated submission time.
    pub arrival: SimDuration,
    /// The estimate that exceeded the remaining budget.
    pub est_cost: SimDuration,
}

/// Aggregate service-loop counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Arrivals observed.
    pub submitted: u64,
    /// Admissions (direct + deferred re-admissions).
    pub admitted: u64,
    /// Arrivals parked in a deferral queue at least once.
    pub deferrals: u64,
    /// Arrivals rejected (deferral queue full).
    pub rejected: u64,
    /// Queries dispatched to execution.
    pub dispatched: u64,
    /// Queries completed.
    pub completed: u64,
    /// Plan-cache hits over the call (arrival estimates and dispatches
    /// both look the plan up).
    pub plan_hits: u64,
    /// Plan-cache misses over the call (plans built from scratch).
    pub plan_misses: u64,
}

/// Membership counters of a shared-scan group. `serve` opens no such
/// group (every dispatch evaluates as [`QueryEngine::run`] does), so
/// [`ServiceReport::group`] is always `None`; the type stays for callers
/// that read the field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Plans admitted into the group.
    pub members: u64,
    /// Members admitted after the group's first admission.
    pub late_joins: u64,
    /// Region passes performed on the group's behalf.
    pub prewarm_regions: u64,
}

/// Per-tenant latency/throughput summary.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// Tenant name.
    pub name: String,
    /// Arrivals submitted by this tenant.
    pub submitted: u64,
    /// Queries completed.
    pub completed: u64,
    /// Queries rejected.
    pub rejected: u64,
    /// Completed queries that were deferred before admission.
    pub deferred: u64,
    /// Median simulated latency.
    pub p50: SimDuration,
    /// 95th-percentile simulated latency.
    pub p95: SimDuration,
    /// 99th-percentile simulated latency.
    pub p99: SimDuration,
    /// Mean simulated latency.
    pub mean: SimDuration,
    /// Completed queries per simulated second (over the service span).
    pub throughput_qps: f64,
}

/// Everything one [`QueryEngine::serve`] call produced.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Completed queries in **dispatch order** (the order a sequential
    /// replay must use to reproduce warm-cache accounting).
    pub served: Vec<ServedQuery>,
    /// Rejected queries, in arrival order.
    pub rejected: Vec<RejectedQuery>,
    /// The full scheduler trace, nondecreasing in time.
    pub trace: Vec<TraceEvent>,
    /// Aggregate counters.
    pub stats: ServiceStats,
    /// Shared-scan group counters: always `None` (see [`GroupStats`]).
    pub group: Option<GroupStats>,
    /// Echo of the tenant specs (for summaries).
    pub tenants: Vec<TenantSpec>,
    /// Simulated completion time of the last query.
    pub end_time: SimDuration,
}

impl ServiceReport {
    /// Per-tenant latency percentiles and throughput, in tenant order.
    pub fn tenant_summaries(&self) -> Vec<TenantSummary> {
        let span = self.end_time.as_secs_f64();
        self.tenants
            .iter()
            .enumerate()
            .map(|(ti, spec)| {
                let mut lat: Vec<SimDuration> = self
                    .served
                    .iter()
                    .filter(|s| s.tenant as usize == ti)
                    .map(|s| s.latency())
                    .collect();
                lat.sort_unstable();
                let completed = lat.len() as u64;
                let rejected =
                    self.rejected.iter().filter(|r| r.tenant as usize == ti).count() as u64;
                let deferred = self
                    .served
                    .iter()
                    .filter(|s| s.tenant as usize == ti && s.was_deferred)
                    .count() as u64;
                let total: SimDuration =
                    lat.iter().fold(SimDuration::ZERO, |acc, &l| acc + l);
                TenantSummary {
                    name: spec.name.clone(),
                    submitted: completed + rejected,
                    completed,
                    rejected,
                    deferred,
                    p50: percentile(&lat, 50.0),
                    p95: percentile(&lat, 95.0),
                    p99: percentile(&lat, 99.0),
                    mean: if completed == 0 { SimDuration::ZERO } else { total / completed },
                    throughput_qps: if span > 0.0 { completed as f64 / span } else { 0.0 },
                }
            })
            .collect()
    }

    /// Summary for one tenant by name.
    pub fn tenant_summary(&self, name: &str) -> Option<TenantSummary> {
        self.tenant_summaries().into_iter().find(|t| t.name == name)
    }
}

/// Nearest-rank percentile of an ascending-sorted latency slice.
pub fn percentile(sorted: &[SimDuration], p: f64) -> SimDuration {
    if sorted.is_empty() {
        return SimDuration::ZERO;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

// ---------------------------------------------------------------------
// Deterministic open-loop arrival generation
// ---------------------------------------------------------------------

/// Open-loop Poisson arrival times: exponential inter-arrivals at
/// `rate_hz` (simulated arrivals per simulated second) until `horizon`.
/// Deterministic given `seed`.
pub fn poisson_times(seed: u64, rate_hz: f64, horizon: SimDuration) -> Vec<SimDuration> {
    let mut out = Vec::new();
    if rate_hz <= 0.0 {
        return out;
    }
    let mut s = seed;
    let mut t = 0.0f64;
    let end = horizon.as_secs_f64();
    loop {
        // u ∈ (0, 1]: never ln(0).
        let u = ((splitmix64(&mut s) >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        t += -u.ln() / rate_hz;
        if t > end {
            return out;
        }
        out.push(SimDuration::from_secs_f64(t));
    }
}

// ---------------------------------------------------------------------
// The service loop
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Queued {
    seq: u64,
    arrival_index: usize,
    arrival: SimDuration,
    admitted_at: SimDuration,
    deferred: bool,
    est: SimDuration,
}

#[derive(Debug)]
struct TenantState {
    spec: TenantSpec,
    ready: VecDeque<Queued>,
    deferred: VecDeque<Queued>,
    /// Estimated cost admitted but not yet completed.
    in_flight_cost: SimDuration,
    /// Queries admitted but not yet completed.
    in_flight: u64,
    /// DRR deficit counter.
    deficit: SimDuration,
    /// Mid-visit marker: keep serving this tenant while its deficit
    /// covers its head (classic DRR serves a whole visit per quantum).
    in_service: bool,
}

impl TenantState {
    fn new(spec: TenantSpec) -> Self {
        Self {
            spec,
            ready: VecDeque::new(),
            deferred: VecDeque::new(),
            in_flight_cost: SimDuration::ZERO,
            in_flight: 0,
            deficit: SimDuration::ZERO,
            in_service: false,
        }
    }

    /// The admission-control decision rule: a tenant with zero in-flight
    /// work always admits (no oversize livelock); otherwise the new
    /// estimate must fit under the budget alongside the in-flight cost.
    fn admits(&self, est: SimDuration) -> bool {
        self.in_flight == 0 || self.in_flight_cost + est <= self.spec.cost_budget
    }
}

/// Deficit-round-robin pick: returns the tenant whose head query to
/// dispatch next, having already debited its deficit. A full rotation
/// that dispatches nothing fast-forwards every backlogged tenant by the
/// same whole number of quanta (O(1) convergence, identical fairness to
/// stepping one quantum at a time).
fn drr_pick(ts: &mut [TenantState], ptr: &mut usize, quantum: SimDuration) -> Option<usize> {
    let n = ts.len();
    if ts.iter().all(|t| t.ready.is_empty()) {
        return None;
    }
    // Continue the in-progress visit while the deficit covers the head.
    {
        let t = &mut ts[*ptr];
        if t.in_service {
            match t.ready.front() {
                Some(head) if t.deficit >= head.est => {
                    let est = head.est;
                    t.deficit = t.deficit.saturating_sub(est);
                    return Some(*ptr);
                }
                _ => {
                    t.in_service = false;
                    if t.ready.is_empty() {
                        // An idle tenant carries no credit into its next
                        // backlogged period (standard DRR).
                        t.deficit = SimDuration::ZERO;
                    }
                    *ptr = (*ptr + 1) % n;
                }
            }
        }
    }
    loop {
        for _ in 0..n {
            let i = *ptr;
            let t = &mut ts[i];
            if t.ready.is_empty() {
                t.deficit = SimDuration::ZERO;
                *ptr = (i + 1) % n;
                continue;
            }
            t.deficit += quantum * t.spec.weight as u64;
            let head_est = t.ready.front().expect("non-empty").est;
            if t.deficit >= head_est {
                t.deficit = t.deficit.saturating_sub(head_est);
                t.in_service = true;
                return Some(i);
            }
            *ptr = (i + 1) % n;
        }
        // Whole rotation dispatched nothing: every backlogged head costs
        // more than its deficit. Credit all backlogged tenants the
        // minimal whole number of extra quanta that lets one dispatch.
        let mut k_min = u64::MAX;
        for t in ts.iter() {
            let Some(head) = t.ready.front() else { continue };
            let qw = (quantum * t.spec.weight as u64).as_nanos();
            let need = head.est.saturating_sub(t.deficit).as_nanos();
            if qw > 0 {
                k_min = k_min.min(need.div_ceil(qw));
            }
        }
        if k_min == u64::MAX || k_min == 0 {
            k_min = 1;
        }
        for t in ts.iter_mut() {
            if !t.ready.is_empty() {
                t.deficit += (quantum * t.spec.weight as u64) * k_min;
            }
        }
    }
}

impl QueryEngine {
    /// Run the admission-controlled, weighted-fair service loop over an open-loop arrival schedule, entirely in
    /// simulated time. See the module docs for the scheduling model; see
    /// `tests/service_equivalence.rs` for the bit-identity property the
    /// loop preserves.
    ///
    /// Arrivals may be passed in any order; they are processed in
    /// nondecreasing `at` order (ties keep slice order). Unknown tenant
    /// names and empty tenant sets are typed
    /// [`PdcError::InvalidQuery`] errors.
    pub fn serve(&self, cfg: &ServiceConfig, arrivals: &[Arrival]) -> PdcResult<ServiceReport> {
        if cfg.tenants.is_empty() {
            return Err(PdcError::InvalidQuery(
                "serve requires at least one configured tenant".into(),
            ));
        }
        let quantum = cfg.quantum.max(SimDuration::from_nanos(1));
        let mut ts: Vec<TenantState> =
            cfg.tenants.iter().cloned().map(TenantState::new).collect();
        let index: HashMap<&str, usize> = cfg
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| (t.name.as_str(), i))
            .collect();
        if index.len() != cfg.tenants.len() {
            return Err(PdcError::InvalidQuery("duplicate tenant name in service config".into()));
        }
        let tenant_of: Vec<usize> = arrivals
            .iter()
            .map(|a| {
                index.get(a.tenant.as_str()).copied().ok_or_else(|| {
                    PdcError::InvalidQuery(format!("unknown tenant '{}'", a.tenant))
                })
            })
            .collect::<PdcResult<_>>()?;
        // Time order, stable in slice order for ties.
        let mut order: Vec<usize> = (0..arrivals.len()).collect();
        order.sort_by_key(|&i| arrivals[i].at);

        let plan0 = self.plan_counters();

        let mut trace: Vec<TraceEvent> = Vec::new();
        let mut served: Vec<ServedQuery> = Vec::new();
        let mut rejected: Vec<RejectedQuery> = Vec::new();
        let mut stats = ServiceStats::default();

        let mut now = SimDuration::ZERO;
        let mut client_free = SimDuration::ZERO;
        let mut server_busy = vec![SimDuration::ZERO; self.num_servers() as usize];
        // (completion, seq, tenant, est): min-heap, deterministic ties.
        let mut heap: BinaryHeap<Reverse<(SimDuration, u64, u32, SimDuration)>> =
            BinaryHeap::new();
        let mut next_arr = 0usize;
        let mut ptr = 0usize;

        loop {
            // 1. Completions due — before arrivals, so budget released at
            //    time t is visible to an arrival at t.
            while let Some(&Reverse((ct, seq, ti, est))) = heap.peek() {
                if ct > now {
                    break;
                }
                heap.pop();
                let t = &mut ts[ti as usize];
                t.in_flight -= 1;
                t.in_flight_cost = t.in_flight_cost.saturating_sub(est);
                trace.push(TraceEvent::Complete { at: ct, tenant: ti, seq });
                stats.completed += 1;
                // Freed budget re-admits this tenant's deferred arrivals
                // in FIFO order.
                while let Some(head) = t.deferred.front() {
                    if !t.admits(head.est) {
                        break;
                    }
                    let mut q = t.deferred.pop_front().expect("non-empty");
                    q.admitted_at = ct;
                    t.in_flight += 1;
                    t.in_flight_cost += q.est;
                    stats.admitted += 1;
                    trace.push(TraceEvent::Admit { at: ct, tenant: ti, seq: q.seq, deferred: true });
                    t.ready.push_back(q);
                }
            }
            // 2. Arrivals due.
            while next_arr < order.len() {
                let i = order[next_arr];
                let a = &arrivals[i];
                if a.at > now {
                    break;
                }
                next_arr += 1;
                let seq = i as u64;
                let ti = tenant_of[i];
                trace.push(TraceEvent::Arrive { at: a.at, tenant: ti as u32, seq });
                stats.submitted += 1;
                // Estimate through the plan cache (host work only; the
                // dispatch-time plan is then a guaranteed hit).
                let Planned { plan, snap, .. } = self.plan_cached(&a.query)?;
                let est = estimate_plan_cost(
                    &snap,
                    &self.config_cost(),
                    self.strategy(),
                    self.num_servers(),
                    &plan,
                )?;
                let t = &mut ts[ti];
                let q = Queued {
                    seq,
                    arrival_index: i,
                    arrival: a.at,
                    admitted_at: a.at,
                    deferred: false,
                    est,
                };
                if t.admits(est) {
                    t.in_flight += 1;
                    t.in_flight_cost += est;
                    stats.admitted += 1;
                    trace.push(TraceEvent::Admit {
                        at: a.at,
                        tenant: ti as u32,
                        seq,
                        deferred: false,
                    });
                    t.ready.push_back(q);
                } else if t.deferred.len() < t.spec.queue_cap {
                    stats.deferrals += 1;
                    trace.push(TraceEvent::Defer { at: a.at, tenant: ti as u32, seq, est });
                    let mut q = q;
                    q.deferred = true;
                    t.deferred.push_back(q);
                } else {
                    stats.rejected += 1;
                    trace.push(TraceEvent::Reject { at: a.at, tenant: ti as u32, seq, est });
                    rejected.push(RejectedQuery {
                        tenant: ti as u32,
                        seq,
                        arrival: a.at,
                        est_cost: est,
                    });
                }
            }
            // 3. Dispatch while the client thread is free.
            if client_free <= now {
                if let Some(ti) = drr_pick(&mut ts, &mut ptr, quantum) {
                    let q = ts[ti].ready.pop_front().expect("picked tenant has a head");
                    let a = &arrivals[q.arrival_index];
                    let (outcome, eval_time, _) = self.run_impl(&a.query, false)?;
                    // The service timeline: serial client overhead, then
                    // the per-server charges queue behind each server's
                    // busy lane.
                    let overhead = outcome.elapsed.saturating_sub(eval_time);
                    let dispatched_at = now;
                    client_free = now + overhead;
                    if outcome.per_server.len() > server_busy.len() {
                        server_busy.resize(outcome.per_server.len(), SimDuration::ZERO);
                    }
                    let mut completion = client_free;
                    for (s, dt) in outcome.per_server.iter().enumerate() {
                        let f = server_busy[s].max(client_free) + *dt;
                        server_busy[s] = f;
                        completion = completion.max(f);
                    }
                    heap.push(Reverse((completion, q.seq, ti as u32, q.est)));
                    stats.dispatched += 1;
                    trace.push(TraceEvent::Dispatch { at: dispatched_at, tenant: ti as u32, seq: q.seq });
                    served.push(ServedQuery {
                        tenant: ti as u32,
                        seq: q.seq,
                        arrival_index: q.arrival_index,
                        arrival: q.arrival,
                        admitted_at: q.admitted_at,
                        was_deferred: q.deferred,
                        dispatched_at,
                        completed_at: completion,
                        est_cost: q.est,
                        outcome,
                    });
                    continue;
                }
            }
            // 4. Advance the clock to the next event; done when no
            //    events remain.
            let mut next: Option<SimDuration> = None;
            if let Some(&Reverse((ct, ..))) = heap.peek() {
                next = Some(ct);
            }
            if next_arr < order.len() {
                let t = arrivals[order[next_arr]].at;
                next = Some(next.map_or(t, |n| n.min(t)));
            }
            if client_free > now && ts.iter().any(|t| !t.ready.is_empty()) {
                next = Some(next.map_or(client_free, |n| n.min(client_free)));
            }
            match next {
                Some(t) => now = t,
                None => break,
            }
        }

        let end_time = served
            .iter()
            .map(|s| s.completed_at)
            .max()
            .unwrap_or(SimDuration::ZERO);
        let plan1 = self.plan_counters();
        (stats.plan_hits, stats.plan_misses) = (plan1.0 - plan0.0, plan1.1 - plan0.1);
        Ok(ServiceReport {
            served,
            rejected,
            trace,
            stats,
            group: None,
            tenants: cfg.tenants.clone(),
            end_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_odms::Odms;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn closed_series_ends_between_its_lane_totals_and_its_solo_sum() {
        // A closed series is one tenant's trace with every arrival at
        // t = 0. The client lane and each server lane are serial, so the
        // series ends no earlier than the summed client overhead or the
        // busiest server's summed work; a dispatch never waits on more
        // than all earlier work, so it ends no later than the solo runs
        // back to back.
        use crate::engine::{EngineConfig, Strategy};
        use pdc_odms::ImportOptions;
        use pdc_types::{QueryOp, TypedVec};
        use std::sync::Arc;

        let odms = Arc::new(Odms::new(8));
        let c = odms.create_container("series");
        let opts = ImportOptions {
            region_bytes: 8192,
            build_index: true,
            build_sorted: true,
            ..Default::default()
        };
        let data = (0..40_000).map(|i| ((i as f32 * 0.37).sin() + 1.0) * 1.5).collect();
        let e = odms.import_array(c, "energy", TypedVec::Float(data), &opts).unwrap().object;
        let series = [
            PdcQuery::range_open(e, 2.1f32, 2.2f32),
            PdcQuery::range_open(e, 2.1f32, 2.2f32),
            PdcQuery::create(e, QueryOp::Gt, 2.5f32),
            PdcQuery::range_open(e, 0.5f32, 1.5f32),
        ];
        let cfg = ServiceConfig::new(vec![TenantSpec::new("client", 1, SimDuration::MAX, 0)]);
        let arrivals: Vec<Arrival> = series
            .iter()
            .map(|q| Arrival { at: SimDuration::ZERO, tenant: "client".into(), query: q.clone() })
            .collect();
        for strategy in Strategy::ALL {
            let engine = || {
                let cfg = EngineConfig { strategy, num_servers: 4, ..Default::default() };
                QueryEngine::new(Arc::clone(&odms), cfg)
            };
            let end = engine().serve(&cfg, &arrivals).unwrap().end_time;
            let solo = engine();
            let (mut overhead, mut sum) = (SimDuration::ZERO, SimDuration::ZERO);
            let mut per_server = vec![SimDuration::ZERO; 4];
            for q in &series {
                let (o, eval_time, _) = solo.run_impl(q, false).unwrap();
                overhead += o.elapsed.saturating_sub(eval_time);
                sum += o.elapsed;
                for (s, t) in o.per_server.iter().enumerate() {
                    per_server[s] += *t;
                }
            }
            let busiest = per_server.into_iter().max().unwrap();
            assert!(busiest > SimDuration::ZERO, "{strategy}: the servers did work");
            assert!(
                overhead.max(busiest) <= end && end <= sum,
                "{strategy}: end {end} outside [max({overhead}, {busiest}), {sum}]"
            );
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let lat: Vec<SimDuration> = (1..=100).map(us).collect();
        assert_eq!(percentile(&lat, 50.0), us(50));
        assert_eq!(percentile(&lat, 95.0), us(95));
        assert_eq!(percentile(&lat, 99.0), us(99));
        assert_eq!(percentile(&lat, 100.0), us(100));
        assert_eq!(percentile(&lat[..1], 99.0), us(1));
        assert_eq!(percentile(&[], 50.0), SimDuration::ZERO);
    }

    #[test]
    fn poisson_times_deterministic_and_rate_scaled() {
        let horizon = SimDuration::from_secs_f64(10.0);
        let a = poisson_times(42, 100.0, horizon);
        let b = poisson_times(42, 100.0, horizon);
        assert_eq!(a, b, "same seed must reproduce the schedule");
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "times must be sorted");
        assert!(*a.last().unwrap() <= horizon);
        let c = poisson_times(43, 100.0, horizon);
        assert_ne!(a, c, "different seeds must differ");
        // ~100 Hz over 10 s ≈ 1000 arrivals; allow wide slack.
        assert!(a.len() > 700 && a.len() < 1300, "got {}", a.len());
        let d = poisson_times(42, 10.0, horizon);
        assert!(d.len() < a.len() / 5, "rate must scale arrival counts");
        assert!(poisson_times(1, 0.0, horizon).is_empty());
    }

    #[test]
    fn drr_shares_track_weights() {
        // Two backlogged tenants, weight 1 vs 3, equal per-query cost:
        // dispatch counts over a long horizon track the weights.
        let specs = [
            TenantSpec::new("light", 1, SimDuration::MAX, 16),
            TenantSpec::new("heavy", 3, SimDuration::MAX, 16),
        ];
        let mut ts: Vec<TenantState> =
            specs.iter().cloned().map(TenantState::new).collect();
        let est = us(10);
        for t in ts.iter_mut() {
            for seq in 0..400u64 {
                t.ready.push_back(Queued {
                    seq,
                    arrival_index: 0,
                    arrival: SimDuration::ZERO,
                    admitted_at: SimDuration::ZERO,
                    deferred: false,
                    est,
                });
            }
        }
        let mut ptr = 0usize;
        let mut counts = [0u64; 2];
        for _ in 0..400 {
            let i = drr_pick(&mut ts, &mut ptr, us(5)).expect("backlogged");
            ts[i].ready.pop_front();
            counts[i] += 1;
        }
        assert_eq!(counts[0] + counts[1], 400);
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!(
            (2.5..=3.5).contains(&ratio),
            "weight-3 tenant should get ~3x the dispatches, got {counts:?}"
        );
    }

    #[test]
    fn drr_oversize_head_fast_forwards_without_starvation() {
        // A head costing many quanta still dispatches (fast-forward), and
        // the cheap tenant is not starved while credit accrues.
        let specs = [
            TenantSpec::new("big", 1, SimDuration::MAX, 16),
            TenantSpec::new("small", 1, SimDuration::MAX, 16),
        ];
        let mut ts: Vec<TenantState> =
            specs.iter().cloned().map(TenantState::new).collect();
        let mk = |est| Queued {
            seq: 0,
            arrival_index: 0,
            arrival: SimDuration::ZERO,
            admitted_at: SimDuration::ZERO,
            deferred: false,
            est,
        };
        ts[0].ready.push_back(mk(us(1000)));
        ts[1].ready.push_back(mk(us(1)));
        ts[1].ready.push_back(mk(us(1)));
        let mut ptr = 0usize;
        let mut got = Vec::new();
        for _ in 0..3 {
            let i = drr_pick(&mut ts, &mut ptr, us(1)).expect("backlogged");
            ts[i].ready.pop_front();
            got.push(i);
        }
        // The small tenant's cheap queries go first (their heads fit a
        // quantum); the big head eventually dispatches via fast-forward.
        assert_eq!(got.iter().filter(|&&i| i == 0).count(), 1);
        assert_eq!(got.iter().filter(|&&i| i == 1).count(), 2);
        assert!(ts.iter().all(|t| t.ready.is_empty()));
    }

    #[test]
    fn admission_rule_oversize_admits_only_when_idle() {
        let spec = TenantSpec::new("t", 1, us(100), 4);
        let mut t = TenantState::new(spec);
        assert!(t.admits(us(1_000_000)), "idle tenant admits any estimate");
        t.in_flight = 1;
        t.in_flight_cost = us(60);
        assert!(t.admits(us(40)), "fits the budget");
        assert!(!t.admits(us(41)), "exceeds the budget");
    }
}
