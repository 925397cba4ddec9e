//! Fault-tolerant slot scheduling: every slot fails over along one
//! preference list.
//!
//! Query work is partitioned into **assignment slots**: slot `i` owns the
//! regions where `region % num_slots == i` (and position `i` of every
//! sorted band). A slot's partial result is a pure function of the plan
//! and the slot id — *which physical server evaluates it does not matter*
//! (every server reads the same shared storage) — and the client-side
//! union is commutative. So when a server fails, its slots are simply
//! re-evaluated elsewhere and the final result is bit-identical to a
//! fault-free run.
//!
//! The [`Placement`] gives each slot an ordered replica set of `k`
//! servers (at `k = 1` on the initial membership, slot `s` lives on
//! server `s` — the classic single-home layout) and, behind it, a
//! **preference list**: the replica set, then every other member in
//! rendezvous order. [`run_slots`] drives the loop deterministically:
//!
//! * **Round 0** — every slot goes to its least-loaded live replica
//!   (anchor-affine on a healthy pool: ties break by replica rank, so
//!   rank 0 — the classic owner — wins and per-server work is
//!   bit-identical at every `k`).
//! * A server **fails** a round if its handler returns an error (injected
//!   crash / transient fault) or panics (caught by
//!   [`ServerPool::try_broadcast`]). An *erroring* server is detected the
//!   moment its error response arrives — at its own simulated elapsed
//!   time. A *panicking* server never responds and is detected once every
//!   responsive server of the round has reported.
//! * A slow server is never abandoned: its results are accepted whenever
//!   they arrive, so slowness inflates time, not results.
//! * **Retry rounds** send each unfinished slot to the first live member
//!   of its preference list that it has not tried yet. No other slot
//!   moves. A crashed server is only found when a slot reaches it, so a
//!   round that finds one does not spend the retry budget: such rounds
//!   remove a server each and cannot outnumber the pool. The other rounds
//!   — lost to transient errors — are capped at [`MAX_RETRIES`].
//!
//! One error rule holds at every `k`: a slot with no live member left
//! fails the query with [`PdcError::ServerFailed`]; spending the retry
//! budget fails it with [`PdcError::RetriesExhausted`]. So a query
//! succeeds, bit-identically, whenever one member lives and transient
//! errors leave it a working round within the budget.
//!
//! All timing is simulated: round time is the maximum per-server
//! contribution (evaluation × slowdown + result transfer, or the
//! detection time for failed servers), rounds are sequential, and
//! everything beyond the fault-free critical path is surfaced as the
//! `failover` component of the cost breakdown.

use crate::state::ServerState;
use pdc_server::{Placement, ServerPool};
use pdc_storage::{CostModel, SimDuration};
use pdc_types::{PdcError, PdcResult, ServerId};

/// Retry rounds [`run_slots`] allows after the initial round, not counting
/// rounds that discover a crash.
pub(crate) const MAX_RETRIES: u32 = 3;

/// Everything one [`run_slots`] call produced.
pub(crate) struct SlotRunOutput<R> {
    /// Per-slot results, indexed by slot id (all present on success).
    pub per_slot: Vec<R>,
    /// Per-server accumulated contribution across rounds (round-0 value
    /// equals the classic per-server elapsed on a healthy run).
    pub per_server: Vec<SimDuration>,
    /// Total evaluation wall time: sum over rounds of the round maximum.
    pub eval_time: SimDuration,
    /// The slice of `eval_time` attributable to failure handling
    /// (detection waits + retry rounds); zero on a fault-free run.
    pub failover: SimDuration,
    /// Servers that failed during this run.
    pub failed_servers: Vec<u32>,
    /// Retry rounds used (0 on a fault-free run).
    pub retry_rounds: u32,
    /// The server that produced each slot's accepted result, indexed by
    /// slot (the chosen replica, for `--explain`).
    pub routes: Vec<u32>,
}

/// One server's batch outcome for a round: per-slot results plus the
/// simulated time the batch took on that server.
struct BatchOut<R> {
    slots: Vec<(u32, PdcResult<R>)>,
    elapsed: SimDuration,
    slowdown: f64,
}

/// Evaluate one result per slot across the pool, failing slots over
/// along their preference lists (see the module docs). `eval` runs a
/// single slot against a server's state; `ret_bytes` sizes the
/// server→client transfer of a slot's result; `slot_weights` holds one
/// weight per slot of `placement`.
pub(crate) fn run_slots<R, F, B>(
    pool: &ServerPool<ServerState>,
    cost: &CostModel,
    placement: &Placement,
    slot_weights: &[u64],
    ret_bytes: B,
    eval: F,
) -> PdcResult<SlotRunOutput<R>>
where
    R: Send,
    F: Fn(u32, &mut ServerState) -> PdcResult<R> + Sync,
    B: Fn(&R) -> u64 + Sync,
{
    let n = pool.num_servers() as usize;
    let num_slots = slot_weights.len();

    let mut alive: Vec<bool> = Vec::with_capacity(n);
    pool.for_each_server(|_, st| alive.push(!st.is_crashed()));

    let mut batches: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut pending: Vec<u32> = Vec::new();
    let mut tried = Tried::new(num_slots, n);
    route_replicated(
        &mut batches,
        &mut tried,
        0..num_slots as u32,
        placement,
        &alive,
        slot_weights,
    )?;

    let mut per_slot: Vec<Option<R>> = (0..num_slots).map(|_| None).collect();
    let mut per_server = vec![SimDuration::ZERO; n];
    let mut eval_time = SimDuration::ZERO;
    let mut failover = SimDuration::ZERO;
    let mut routes = vec![0u32; num_slots];
    let mut failed_servers: Vec<u32> = Vec::new();
    let mut retry_rounds = 0u32;
    let mut budget_spent = 0u32;

    loop {
        let results: Vec<Result<BatchOut<R>, pdc_server::ServerPanic>> =
            pool.try_broadcast(|id, st| {
                let my_slots = &batches[id.raw() as usize];
                let mut out = BatchOut {
                    slots: Vec::with_capacity(my_slots.len()),
                    elapsed: SimDuration::ZERO,
                    slowdown: st.fault_slowdown(),
                };
                if my_slots.is_empty() {
                    return out;
                }
                let t0 = st.clock.now();
                let mut aborted: Option<PdcError> = None;
                for &slot in my_slots {
                    match &aborted {
                        // After a failure the server is unreachable for
                        // the rest of the round: remaining slots inherit
                        // the error.
                        Some(e) => out.slots.push((slot, Err(e.clone()))),
                        None => {
                            let r = eval(slot, st);
                            if let Err(e) = &r {
                                aborted = Some(e.clone());
                            }
                            out.slots.push((slot, r));
                        }
                    }
                }
                out.elapsed = st.elapsed_since(t0);
                out
            });

        // Classify this round's servers.
        struct RoundEntry<R> {
            server: u32,
            contribution: SimDuration,
            successes: Vec<(u32, R)>,
            failed_slots: Vec<u32>,
            died: bool,
            panicked: bool,
        }
        let mut entries: Vec<RoundEntry<R>> = Vec::new();
        for (i, res) in results.into_iter().enumerate() {
            if batches[i].is_empty() {
                continue;
            }
            match res {
                Ok(out) => {
                    let adjusted = out.elapsed * out.slowdown;
                    let mut successes = Vec::new();
                    let mut failed_slots = Vec::new();
                    let mut transfer = SimDuration::ZERO;
                    for (slot, r) in out.slots {
                        match r {
                            Ok(v) => {
                                transfer += cost.net.transfer_cost(ret_bytes(&v));
                                successes.push((slot, v));
                            }
                            // Only server failures are retryable; a
                            // query-level error (missing region, corrupt
                            // index, type mismatch, ...) would fail
                            // identically on any server and propagates
                            // immediately.
                            Err(PdcError::ServerFailed { .. }) => failed_slots.push(slot),
                            Err(e) => return Err(e),
                        }
                    }
                    let errored = !failed_slots.is_empty();
                    let died = errored && pool.with_server(ServerId(i as u32), |st| st.is_crashed());
                    if errored {
                        // The error response arrives at the server's own
                        // elapsed time — detection is immediate. Partial
                        // results from a failing server are discarded (the
                        // whole batch is retried elsewhere).
                        for (slot, _) in successes.drain(..) {
                            failed_slots.push(slot);
                        }
                        failed_slots.sort_unstable();
                        entries.push(RoundEntry {
                            server: i as u32,
                            contribution: adjusted,
                            successes,
                            failed_slots,
                            died,
                            panicked: false,
                        });
                    } else {
                        entries.push(RoundEntry {
                            server: i as u32,
                            contribution: adjusted + transfer,
                            successes,
                            failed_slots,
                            died: false,
                            panicked: false,
                        });
                    }
                }
                Err(_panic) => {
                    // Panic = crash: mark the server dead for the rest of
                    // the engine's life (until an explicit state reset).
                    pool.with_server(ServerId(i as u32), |st| st.mark_failed());
                    entries.push(RoundEntry {
                        server: i as u32,
                        contribution: SimDuration::ZERO, // patched below
                        successes: Vec::new(),
                        failed_slots: batches[i].clone(),
                        died: true,
                        panicked: true,
                    });
                }
            }
        }

        // A panicked server never responds: the client notices it once
        // every responsive server of the round has reported.
        if entries.iter().any(|e| e.panicked) {
            let detect = entries
                .iter()
                .filter(|e| !e.panicked)
                .map(|e| e.contribution)
                .max()
                .unwrap_or(SimDuration::ZERO);
            for e in entries.iter_mut().filter(|e| e.panicked) {
                e.contribution = detect;
            }
        }

        let mut round_max = SimDuration::ZERO;
        let mut healthy_max = SimDuration::ZERO;
        let mut found_crash = false;
        for e in entries {
            if !e.failed_slots.is_empty() {
                if e.died {
                    alive[e.server as usize] = false;
                    found_crash = true;
                }
                // A transiently-erroring server stays a failover
                // candidate — its next access may succeed; only crashes
                // remove it.
                if !failed_servers.contains(&e.server) {
                    failed_servers.push(e.server);
                }
                pending.extend(&e.failed_slots);
            } else {
                healthy_max = healthy_max.max(e.contribution);
            }
            for (slot, v) in e.successes {
                per_slot[slot as usize] = Some(v);
                routes[slot as usize] = e.server;
            }
            per_server[e.server as usize] += e.contribution;
            round_max = round_max.max(e.contribution);
        }
        eval_time += round_max;
        if retry_rounds == 0 {
            // Round 0: only the slice beyond the healthy critical path is
            // fault-handling time.
            failover += round_max.saturating_sub(healthy_max);
        } else {
            failover += round_max;
        }

        if pending.is_empty() {
            break;
        }
        retry_rounds += 1;
        // A round that found a crash removed a server for good, so there
        // are at most pool-size such rounds; the budget bounds the rounds
        // lost to transient errors alone.
        if !found_crash {
            budget_spent += 1;
            if budget_spent > MAX_RETRIES {
                return Err(PdcError::RetriesExhausted { attempts: retry_rounds });
            }
        }
        pending.sort_unstable();
        pending.dedup();
        batches.iter_mut().for_each(Vec::clear);
        route_replicated(
            &mut batches,
            &mut tried,
            pending.iter().copied(),
            placement,
            &alive,
            slot_weights,
        )?;
        pending.clear();
    }

    let per_slot: Vec<R> = per_slot
        .into_iter()
        .map(|r| r.expect("every slot resolved before loop exit"))
        .collect();
    failed_servers.sort_unstable();
    Ok(SlotRunOutput {
        per_slot,
        per_server,
        eval_time,
        failover,
        failed_servers,
        retry_rounds,
        routes,
    })
}

/// Route each slot to the best member of its preference list — untried
/// first, then **rank** (position in the list), then projected load, then
/// server id — followed by a deterministic rebalance pass that moves a
/// slot to a less-loaded live replica only when that strictly narrows the
/// load spread. Rank-before-load keeps routing *anchor-affine*: the
/// replica that owned (and cached) a slot's regions keeps it whenever it
/// is live, so a failover touches exactly the dead server's slots instead
/// of cascading healthy slots onto cache-cold replicas. The rebalance pass
/// then bounds the round makespan when a membership change leaves anchors
/// uneven. The list past the replica set is built only for a slot with
/// no live untried replica. Fails with `ServerFailed` when a slot has no
/// live member at all.
fn route_replicated(
    batches: &mut [Vec<u32>],
    tried: &mut Tried,
    slots: impl Iterator<Item = u32>,
    p: &Placement,
    alive: &[bool],
    weights: &[u64],
) -> PdcResult<()> {
    let mut load = vec![0u64; batches.len()];
    let mut placed: Vec<(u32, u32)> = Vec::new();
    for slot in slots {
        let best = |list: &[u32], load: &[u64]| {
            list.iter()
                .enumerate()
                .filter(|&(_, &q)| alive[q as usize])
                .min_by_key(|&(rank, &q)| (tried.has(slot, q), rank, load[q as usize], q))
                .map(|(_, &q)| q)
        };
        let mut pick = best(p.replicas(slot), &load);
        if pick.is_none_or(|q| tried.has(slot, q)) {
            pick = best(&p.preference(slot), &load);
        }
        let Some(q) = pick else {
            return Err(PdcError::ServerFailed {
                server: p.replicas(slot)[0],
                reason: format!("no live member left to evaluate slot {slot}"),
            });
        };
        load[q as usize] += weights[slot as usize].max(1);
        placed.push((slot, q));
    }
    // Local search: shed work from overloaded servers onto live, untried
    // replicas while each move strictly lowers the sum of
    // squared loads (so it terminates and the makespan never grows). On a
    // balanced layout no move qualifies and the affine routing survives
    // untouched.
    let mut improved = true;
    while improved {
        improved = false;
        for entry in placed.iter_mut() {
            let (slot, cur) = *entry;
            let w = weights[slot as usize].max(1);
            let alt = p
                .replicas(slot)
                .iter()
                .copied()
                .filter(|&q| q != cur && alive[q as usize] && !tried.has(slot, q))
                .min_by_key(|&q| (load[q as usize], q));
            if let Some(alt) = alt {
                if load[alt as usize] + w < load[cur as usize] {
                    load[cur as usize] -= w;
                    load[alt as usize] += w;
                    entry.1 = alt;
                    improved = true;
                }
            }
        }
    }
    for (slot, q) in placed {
        batches[q as usize].push(slot);
        tried.insert(slot, q);
    }
    for b in batches.iter_mut() {
        b.sort_unstable();
    }
    Ok(())
}

/// The servers each slot has been handed this run: one bit per
/// `(slot, server)` pair, in one allocation.
struct Tried {
    servers: usize,
    bits: Vec<u64>,
}

impl Tried {
    fn new(slots: usize, servers: usize) -> Self {
        Self { servers, bits: vec![0; (slots * servers).div_ceil(64)] }
    }

    fn has(&self, slot: u32, server: u32) -> bool {
        let i = slot as usize * self.servers + server as usize;
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    fn insert(&mut self, slot: u32, server: u32) {
        let i = slot as usize * self.servers + server as usize;
        self.bits[i / 64] |= 1 << (i % 64);
    }
}
