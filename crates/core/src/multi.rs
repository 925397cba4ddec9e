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
//! selected objects are distributed across the servers; each server
//! evaluates the value condition on its objects with the configured
//! strategy ("due to the small size of the BOSS objects, each object has
//! one region only").

use crate::engine::{BandVerdicts, QueryEngine};
use crate::exec::EvalCtx;
use crate::ops::{self, ExplainPhase, RegionTask};
use crate::snapshot::MetaSnapshot;
use crate::state::ServerState;
use pdc_odms::MetaValue;
use pdc_storage::{IoCounters, SimDuration};
use pdc_types::{Interval, ObjectId, PdcResult};
use std::sync::Arc;

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
    /// Simulated elapsed time: metadata resolution + slowest server.
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

        let odms = Arc::clone(self.odms());
        let policy = self.strategy().policy();
        let iv = *interval;
        // Pin the matched objects' metadata before the broadcast: every
        // server evaluates the same snapshot, and an append landing
        // mid-query cannot tear the extent between servers.
        let snap = Arc::new(MetaSnapshot::capture(&odms, &objects)?);
        let objects_arc: Arc<Vec<ObjectId>> = Arc::new(objects);
        let objects_for_eval = Arc::clone(&objects_arc);

        type ObjectHitsResult = PdcResult<(Vec<(ObjectId, u64)>, SimDuration, IoCounters)>;
        let results: Vec<ObjectHitsResult> = self
            .pool_broadcast(move |id, st: &mut ServerState| {
                // Prune verdicts, scan selections, and index answers are
                // served from the epoch-validated artifact cache across
                // repeated metadata+data queries; all simulated charges
                // replay unconditionally, so accounting is identical
                // either way.
                st.qcache.validate(odms.store().epoch());
                let t0 = st.clock.now();
                let io0 = st.io;
                let ctx = EvalCtx {
                    odms: &odms,
                    snap: &snap,
                    cost: &cost,
                    policy,
                    // Each object's regions run through the per-region
                    // filter lane; no conjunction has a primary here.
                    band: &BandVerdicts::default(),
                    n_servers: n,
                    n_slots: n,
                    server: id.raw(),
                    use_cache: true,
                };
                let mut hits: Vec<(ObjectId, u64)> = Vec::new();
                for (i, &obj) in objects_for_eval.iter().enumerate() {
                    if i as u32 % n != id.raw() {
                        continue;
                    }
                    let meta = snap.meta(obj)?;
                    // Small objects round-robin whole objects across
                    // servers, but each object's regions run through the
                    // same operator pipeline as plan evaluation.
                    let planner = ops::RegionPlanner::for_filter(&ctx, obj, None)?;
                    let mut obj_hits = 0u64;
                    for r in 0..meta.num_regions() {
                        let task = RegionTask {
                            object: obj,
                            region: r,
                            span: meta.region_span(r),
                            interval: iv,
                        };
                        if let Some(sel) = ops::execute_region(
                            &ctx,
                            st,
                            &planner,
                            &task,
                            ExplainPhase::Filter,
                            None,
                        )? {
                            obj_hits += sel.count();
                        }
                    }
                    hits.push((obj, obj_hits));
                }
                Ok((hits, st.elapsed_since(t0), st.io.since(&io0)))
            });

        let mut per_object_hits: Vec<(ObjectId, u64)> = Vec::new();
        let mut io = IoCounters::default();
        let mut slowest = SimDuration::ZERO;
        for r in results {
            let (hits, elapsed, io_d) = r?;
            let bytes = hits.len() as u64 * 16;
            let total = elapsed + cost.net.transfer_cost(bytes);
            if total > slowest {
                slowest = total;
            }
            io.merge(&io_d);
            per_object_hits.extend(hits);
        }
        per_object_hits.sort_unstable_by_key(|&(o, _)| o);
        let nhits = per_object_hits.iter().map(|&(_, h)| h).sum();

        Ok(MetaDataQueryOutcome {
            objects_matched: objects_arc.len() as u64,
            nhits,
            per_object_hits,
            elapsed: metadata_elapsed + slowest,
            metadata_elapsed,
            io,
        })
    }
}
