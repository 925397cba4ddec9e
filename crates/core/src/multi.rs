//! Combined metadata + data queries over many small objects
//! (the H5BOSS scenario, paper §VI-C).
//!
//! "Scientists are often interested in the data values of a small number
//! of objects that are associated with specific metadata, such as the
//! number of values that are within a range of objects that have a common
//! metadata key-value pair."
//!
//! The flow: the metadata service instantly resolves the tag conditions
//! (e.g. `RADEG = 153.17 AND DECDEG = 23.06`) to a set of objects; the
//! selected objects are distributed across the assignment slots; each
//! slot's server evaluates the value condition on its objects with the
//! configured strategy ("due to the small size of the BOSS objects, each
//! object has one region only").

use crate::engine::QueryEngine;
use crate::exec::EvalCtx;
use crate::ops::{self, ExplainPhase, RegionTask};
use crate::recover::run_slots;
use crate::snapshot::MetaSnapshot;
use crate::state::ServerState;
use pdc_odms::MetaValue;
use pdc_storage::{IoCounters, SimDuration};
use pdc_types::{Interval, ObjectId, PdcResult};

/// Outcome of a metadata + data query.
#[derive(Debug, Clone)]
pub struct MetaDataQueryOutcome {
    /// Objects selected by the metadata conditions.
    pub objects_matched: u64,
    /// Total number of data values matching the interval across all
    /// selected objects.
    pub nhits: u64,
    /// Per-object hit counts (object id, hits), for callers that need
    /// them.
    pub per_object_hits: Vec<(ObjectId, u64)>,
    /// Simulated elapsed time: metadata resolution + integrity preflight
    /// + slot evaluation (the slowest server, plus any failover rounds).
    pub elapsed: SimDuration,
    /// Time spent in the metadata lookup alone.
    pub metadata_elapsed: SimDuration,
    /// Aggregated I/O.
    pub io: IoCounters,
}

impl QueryEngine {
    /// `PDCquery_tag`: resolve metadata key/value conditions to the
    /// matching object ids, with the simulated lookup time (an in-memory
    /// inverted-index intersection on the owner server).
    pub fn query_tag(
        &self,
        conds: &[(&str, MetaValue)],
    ) -> (Vec<ObjectId>, SimDuration) {
        let objects = self.odms().meta().query_tags(conds);
        let elapsed = self.config_cost().net.transfer_cost(64)
            + SimDuration::from_nanos(200 * (objects.len() as u64 + 1));
        (objects, elapsed)
    }

    /// Evaluate `interval` on the values of every object matching all the
    /// metadata `conds`, returning total hits (the H5BOSS query shape).
    ///
    /// Dispatch is `run`'s: the integrity preflight, then one result per
    /// assignment slot with failover. Slot `s` holds the matched objects
    /// with `i % n_slots == s`, and a slot's result ships as `hits × 16`
    /// bytes (one `(object, hits)` pair each).
    pub fn metadata_data_query(
        &self,
        conds: &[(&str, MetaValue)],
        interval: &Interval,
    ) -> PdcResult<MetaDataQueryOutcome> {
        let cost = self.config_cost();
        let n = self.num_servers();

        // Metadata resolution: an in-memory inverted-index lookup on the
        // owner server — "it can locate the 1000 objects instantly".
        let (objects, metadata_elapsed) = self.query_tag(conds);
        let (_, preflight_time) = self.preflight()?;

        let odms = self.odms();
        let policy = self.strategy().policy();
        // Pin the matched objects' metadata before dispatch: every
        // server evaluates the same snapshot, and an append landing
        // mid-query cannot tear the extent between servers.
        let snap = MetaSnapshot::capture(odms, &objects)?;
        let placement = self.placement_snapshot();
        let n_slots = placement.num_slots();
        let slot_of = |i: usize| i as u32 % n_slots;
        let mut weights = vec![0u64; n_slots as usize];
        for (i, &obj) in objects.iter().enumerate() {
            weights[slot_of(i) as usize] += u64::from(snap.meta(obj)?.num_regions());
        }

        type SlotHits = (Vec<(ObjectId, u64)>, IoCounters);
        let out = run_slots(
            &self.pool,
            &cost,
            &placement,
            &weights,
            |r: &SlotHits| r.0.len() as u64 * 16,
            |slot, st: &mut ServerState| {
                let ctx = EvalCtx {
                    odms,
                    snap: &snap,
                    cost: &cost,
                    policy,
                    n_servers: n,
                    n_slots,
                    server: slot,
                };
                let io0 = st.io;
                let mut hits: Vec<(ObjectId, u64)> = Vec::new();
                for (i, &obj) in objects.iter().enumerate() {
                    if slot_of(i) != slot {
                        continue;
                    }
                    let meta = snap.meta(obj)?;
                    // Small objects spread whole objects across slots, but
                    // each object's regions run through the same operator
                    // pipeline as plan evaluation.
                    let planner = ops::RegionPlanner::for_filter(&ctx, obj, None)?;
                    let mut obj_hits = 0u64;
                    for r in 0..meta.num_regions() {
                        let task = RegionTask {
                            object: obj,
                            region: r,
                            span: meta.region_span(r),
                            interval: *interval,
                        };
                        if let Some(sel) =
                            ops::execute_region(&ctx, st, &planner, &task, ExplainPhase::Filter)?
                        {
                            obj_hits += sel.count();
                        }
                    }
                    hits.push((obj, obj_hits));
                }
                Ok((hits, st.io.since(&io0)))
            },
        )?;

        let mut per_object_hits: Vec<(ObjectId, u64)> = Vec::new();
        let mut io = IoCounters::default();
        for (hits, io_d) in out.per_slot {
            io.merge(&io_d);
            per_object_hits.extend(hits);
        }
        per_object_hits.sort_unstable_by_key(|&(o, _)| o);
        let nhits = per_object_hits.iter().map(|&(_, h)| h).sum();

        Ok(MetaDataQueryOutcome {
            objects_matched: objects.len() as u64,
            nhits,
            per_object_hits,
            elapsed: metadata_elapsed + preflight_time + out.eval_time,
            metadata_elapsed,
            io,
        })
    }
}
