//! Fault-tolerant slot scheduling: retry and region reassignment.
//!
//! Query work is partitioned into **assignment slots**: slot `i` owns the
//! regions where `region % num_servers == i` (and position `i` of every
//! sorted band). A slot's partial result is a pure function of the plan
//! and the slot id — *which physical server evaluates it does not matter*
//! — and the client-side union is commutative. So when a server fails,
//! its slots are simply re-evaluated by the survivors and the final
//! result is bit-identical to a fault-free run.
//!
//! [`run_slots`] drives that loop deterministically:
//!
//! * **Round 0** — every live server evaluates its own slot (plus, when
//!   servers died in an earlier query, a balanced share of orphaned
//!   slots).
//! * A server **fails** a round if its handler returns an error (injected
//!   crash / transient fault) or panics (caught by
//!   [`ServerPool::try_broadcast`]). An *erroring* server is detected the
//!   moment its error response arrives — at its own simulated elapsed
//!   time. A *panicking* server never responds and is detected once every
//!   responsive server of the round has reported.
//! * A slow server is never abandoned: its results are accepted whenever
//!   they arrive, so slowness inflates time, not results.
//! * **Retry rounds** reassign unfinished slots across the live servers
//!   with [`pdc_server::assign::balanced_by_weight`], up to
//!   [`MAX_RETRIES`] rounds; beyond that the query fails with
//!   [`PdcError::RetriesExhausted`].
//!
//! All timing is simulated: round time is the maximum per-server
//! contribution (evaluation × slowdown + result transfer, or the
//! detection time for failed servers), rounds are sequential, and
//! everything beyond the fault-free critical path is surfaced as the
//! `recovery` component of the cost breakdown.
//!
//! ## Replica-aware routing (k-way placement)
//!
//! With a [`Placement`] the slot→server map generalizes: each slot has an
//! ordered replica set and is dispatched to its **least-loaded live
//! replica** (anchor-affine on a healthy pool: ties break by replica
//! rank, so rank 0 — the classic owner — wins and per-server work is
//! bit-identical to the unreplicated layout). On a fault the slot fails
//! over to the next live replica of *its own set* — no global region
//! reassignment — and the added time is charged to the much cheaper
//! `failover` lane instead of `recovery`. A slot whose replicas are all
//! dead fails the query with [`PdcError::RetriesExhausted`] immediately:
//! under replication that is the only unrecoverable shape.

use crate::state::ServerState;
use pdc_server::{assign, Placement, ServerPool};
use pdc_storage::{CostModel, SimDuration};
use pdc_types::{PdcError, PdcResult, ServerId};

/// Retry rounds [`run_slots`] allows after the initial round.
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
    /// (detection waits + retry rounds); zero on a fault-free run and under
    /// an active placement (which charges `failover` instead).
    pub recovery: SimDuration,
    /// The slice of `eval_time` spent failing slots over to replicas
    /// (placement mode only); zero on a fault-free run.
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

/// Evaluate one result per slot across the pool, reassigning failed
/// servers' slots to survivors. `eval` runs a single slot against a
/// server's state; `ret_bytes` sizes the server→client transfer of a
/// slot's result. With `placement` set, slots route to their replica
/// sets (see the module docs); without it, slot `s` belongs to server
/// `s` and `slot_weights.len()` must equal the pool size.
pub(crate) fn run_slots<R, F, B>(
    pool: &ServerPool<ServerState>,
    cost: &CostModel,
    placement: Option<&Placement>,
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
    // Servers that have already been handed each slot this run (so a
    // failover prefers a replica that has not been tried yet).
    let mut tried: Vec<Vec<u32>> = vec![Vec::new(); num_slots];

    if !alive.iter().any(|&a| a) {
        return Err(PdcError::ServerFailed {
            server: 0,
            reason: "no live servers in the pool".into(),
        });
    }
    match placement {
        None => {
            debug_assert_eq!(num_slots, n);
            // Round 0: live servers take their own slot; slots of
            // already-dead servers are distributed over the survivors.
            for s in 0..n as u32 {
                if alive[s as usize] {
                    batches[s as usize].push(s);
                } else {
                    pending.push(s);
                }
            }
            if !pending.is_empty() {
                distribute(&mut batches, &pending, &alive, slot_weights);
                pending.clear();
            }
        }
        Some(p) => {
            // Round 0: every slot to its least-loaded live replica
            // (anchor-affine when the pool is healthy).
            if route_replicated(
                &mut batches,
                &mut tried,
                0..num_slots as u32,
                p,
                &alive,
                slot_weights,
            )
            .is_err()
            {
                // Some slot's entire replica set is dead: no retry can
                // recover it.
                return Err(PdcError::RetriesExhausted { attempts: 0 });
            }
        }
    }

    let mut per_slot: Vec<Option<R>> = (0..num_slots).map(|_| None).collect();
    let mut per_server = vec![SimDuration::ZERO; n];
    let mut eval_time = SimDuration::ZERO;
    let mut recovery = SimDuration::ZERO;
    let mut failover = SimDuration::ZERO;
    let mut routes = vec![0u32; num_slots];
    let mut failed_servers: Vec<u32> = Vec::new();
    let mut retry_rounds = 0u32;

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
        for e in entries {
            if !e.failed_slots.is_empty() {
                if e.died {
                    alive[e.server as usize] = false;
                }
                // A transiently-erroring server stays a reassignment
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
        // Fault-handling time beyond the healthy critical path: with a
        // placement it is replica failover; without, reassign-and-rescan
        // recovery.
        let lane = if placement.is_some() { &mut failover } else { &mut recovery };
        if retry_rounds == 0 {
            // Round 0: only the slice beyond the healthy critical path is
            // fault-handling time.
            *lane += round_max.saturating_sub(healthy_max);
        } else {
            *lane += round_max;
        }

        if pending.is_empty() {
            break;
        }
        retry_rounds += 1;
        if retry_rounds > MAX_RETRIES {
            return Err(PdcError::RetriesExhausted { attempts: retry_rounds });
        }
        pending.sort_unstable();
        pending.dedup();
        batches.iter_mut().for_each(Vec::clear);
        match placement {
            None => {
                if !alive.iter().any(|&a| a) {
                    let server = *pending.first().unwrap_or(&0);
                    return Err(PdcError::ServerFailed {
                        server,
                        reason: format!(
                            "no surviving servers to reassign {} region slot(s)",
                            pending.len()
                        ),
                    });
                }
                distribute(&mut batches, &pending, &alive, slot_weights);
            }
            Some(p) => {
                // Each unfinished slot fails over to the next live
                // replica of its own set — no global reassignment. Only
                // a slot with zero live replicas is unrecoverable.
                if route_replicated(
                    &mut batches,
                    &mut tried,
                    pending.iter().copied(),
                    p,
                    &alive,
                    slot_weights,
                )
                .is_err()
                {
                    return Err(PdcError::RetriesExhausted { attempts: retry_rounds });
                }
            }
        }
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
        recovery,
        failover,
        failed_servers,
        retry_rounds,
        routes,
    })
}

/// Route each slot to the best replica of its set — untried first, then
/// **replica rank**, then projected load, then server
/// id — followed by a deterministic rebalance pass that moves a slot to a
/// less-loaded live replica only when that strictly narrows the load
/// spread. Rank-before-load keeps routing *anchor-affine*: the replica
/// that owned (and cached) a slot's regions keeps it whenever it is live,
/// so a failover touches exactly the dead server's slots instead of
/// cascading healthy slots onto cache-cold replicas. The rebalance pass
/// then bounds the round makespan when a membership change leaves anchors
/// uneven. Returns `Err(slot)` when a slot has no live replica at all.
fn route_replicated(
    batches: &mut [Vec<u32>],
    tried: &mut [Vec<u32>],
    slots: impl Iterator<Item = u32>,
    p: &Placement,
    alive: &[bool],
    weights: &[u64],
) -> Result<(), u32> {
    let mut load = vec![0u64; batches.len()];
    let mut placed: Vec<(u32, u32)> = Vec::new();
    for slot in slots {
        let pick = p
            .replicas(slot)
            .iter()
            .enumerate()
            .filter(|&(_, &q)| alive[q as usize])
            .min_by_key(|&(rank, &q)| {
                (tried[slot as usize].contains(&q), rank, load[q as usize], q)
            })
            .map(|(_, &q)| q);
        let Some(q) = pick else { return Err(slot) };
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
                .filter(|&q| {
                    q != cur && alive[q as usize] && !tried[slot as usize].contains(&q)
                })
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
        if !tried[slot as usize].contains(&q) {
            tried[slot as usize].push(q);
        }
    }
    for b in batches.iter_mut() {
        b.sort_unstable();
    }
    Ok(())
}

/// Deterministically spread `slots` across the live servers, balancing by
/// slot weight (greedy LPT via [`assign::balanced_by_weight`]).
fn distribute(batches: &mut [Vec<u32>], slots: &[u32], live: &[bool], weights: &[u64]) {
    let live_ids: Vec<u32> =
        (0..live.len() as u32).filter(|&s| live[s as usize]).collect();
    debug_assert!(!live_ids.is_empty());
    let slot_w: Vec<u64> = slots.iter().map(|&s| weights[s as usize].max(1)).collect();
    let groups = assign::balanced_by_weight(&slot_w, live_ids.len() as u32);
    for (k, group) in groups.iter().enumerate() {
        for &item in group {
            batches[live_ids[k] as usize].push(slots[item as usize]);
        }
    }
    for b in batches.iter_mut() {
        b.sort_unstable();
    }
}
