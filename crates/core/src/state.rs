//! Per-logical-server state: caches, clock, counters.

use crate::qcache::QueryArtifactCache;
use pdc_bitmap::BinnedBitmapIndex;
use pdc_odms::Odms;
use pdc_server::FaultProbe;
use pdc_storage::{
    CacheSlot, ColdRegion, CostModel, IntegrityCounters, IoCounters, ReadPattern, RegionCache,
    SimClock, SimDuration, StorageTier, StoredPayload, WorkCounters,
};
use pdc_types::{ObjectId, PdcResult, RegionId, TypedVec};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A readable view of one data region: either the whole decoded payload
/// pinned in memory, or a block-granular handle onto a spilled region's
/// compressed file. Operators that can stream (interval scans) consume
/// `Cold` block by block through the budgeted block cache; everything
/// else materializes.
///
/// The simulated accounting is identical for both variants — which one a
/// read returns depends only on physical residency, which the cost model
/// deliberately cannot see.
#[derive(Debug, Clone)]
pub enum RegionData {
    /// Whole payload resident in memory.
    Mem(Arc<TypedVec>),
    /// Spilled region served block-wise from the out-of-core store.
    Cold(ColdRegion),
}

impl RegionData {
    /// Element count of the region's payload.
    pub fn len(&self) -> u64 {
        match self {
            RegionData::Mem(p) => p.len() as u64,
            RegionData::Cold(c) => c.len(),
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The persistent state of one logical PDC server.
///
/// State survives across queries — that persistence is what produces the
/// paper's caching effect over a sequentially evaluated query series
/// ("an increasing number of the regions' data are cached in the PDC
/// servers' memory and do not require storage access").
pub struct ServerState {
    /// This server's simulated timeline.
    pub clock: SimClock,
    /// Data-region cache (the per-server memory budget of §V).
    pub cache: RegionCache,
    /// Deserialized bitmap indexes, keyed by index-object region.
    pub index_cache: HashMap<RegionId, Arc<BinnedBitmapIndex>>,
    /// Bytes held by `index_cache`.
    pub index_cache_bytes: u64,
    /// Budget for `index_cache`.
    pub index_cache_budget: u64,
    /// Sorted-replica regions already resident in this server's memory.
    pub sorted_resident: HashSet<RegionId>,
    /// Objects whose region metadata this server has already fetched
    /// ("the metadata is cached in all servers after the metadata
    /// distribution").
    pub metadata_loaded: HashSet<ObjectId>,
    /// Epoch-validated cache of query artifacts (prune verdicts, scan
    /// selections, index answers) for batched query series. Only
    /// consulted when the engine evaluates with caching enabled; skips
    /// host recomputation while the simulated accounting replays
    /// identically.
    pub qcache: QueryArtifactCache,
    /// Storage counters.
    pub io: IoCounters,
    /// Evaluation-work counters.
    pub work: WorkCounters,
    /// Integrity counters: checksum failures detected, regions repaired,
    /// aux structures rebuilt, regions answered by fallback scan.
    pub integrity: IntegrityCounters,
    /// Simulated time spent on integrity work (repair re-reads, aux
    /// rebuilds). Advances the clock too, but is tracked separately so
    /// the cost breakdown's `integrity` lane stays disjoint from I/O and
    /// CPU.
    pub integrity_time: SimDuration,
    /// Installed fault probe (deterministic fault injection); `None` for
    /// a healthy server.
    pub fault: Option<FaultProbe>,
    /// Set when the server failed outside the probe's schedule (e.g. a
    /// handler panic caught by the pool): dead until state reset.
    pub failed: bool,
    /// When armed (`Some`), the operator executor records one
    /// [`crate::ops::RegionExplain`] row per region it evaluates; `None`
    /// (the default) keeps evaluation free of explain overhead.
    pub explain: Option<Vec<crate::ops::RegionExplain>>,
}

impl ServerState {
    /// Fresh state with the given data-cache budget.
    pub fn new(cache_bytes: u64) -> Self {
        Self {
            clock: SimClock::new(),
            cache: RegionCache::new(cache_bytes),
            index_cache: HashMap::new(),
            index_cache_bytes: 0,
            index_cache_budget: cache_bytes / 4,
            sorted_resident: HashSet::new(),
            metadata_loaded: HashSet::new(),
            qcache: QueryArtifactCache::new(cache_bytes / 4),
            io: IoCounters::default(),
            work: WorkCounters::default(),
            integrity: IntegrityCounters::default(),
            integrity_time: SimDuration::ZERO,
            fault: None,
            failed: false,
            explain: None,
        }
    }

    /// Consult the fault probe before a region access; an injected crash
    /// or transient error surfaces as [`pdc_types::PdcError::ServerFailed`]
    /// through the normal result plumbing.
    fn fault_check(&mut self) -> PdcResult<()> {
        match &mut self.fault {
            Some(probe) => probe.on_access(),
            None => Ok(()),
        }
    }

    /// Whether this server is dead (crash fault fired, or marked failed
    /// after a panic). Dead servers stay dead until their state is reset.
    pub fn is_crashed(&self) -> bool {
        self.failed || self.fault.as_ref().is_some_and(|p| p.is_crashed())
    }

    /// Mark the server permanently failed (used for caught panics).
    pub fn mark_failed(&mut self) {
        self.failed = true;
    }

    /// This server's evaluation-time multiplier (1.0 when healthy).
    pub fn fault_slowdown(&self) -> f64 {
        self.fault.as_ref().map_or(1.0, |p| p.slowdown())
    }

    /// Charge the metadata-distribution cost for an object's assigned
    /// regions, once per server lifetime.
    pub fn charge_metadata_distribution(
        &mut self,
        cost: &CostModel,
        object: ObjectId,
        assigned_regions: u64,
    ) {
        if self.metadata_loaded.insert(object) {
            self.clock.advance(cost.metadata_region_cost * assigned_regions);
        }
    }

    /// Read a data region, charging simulated time: DRAM bandwidth on a
    /// cache hit, a PFS aggregated read on a miss (then cache it).
    ///
    /// `min_elems` is the element count the caller's plan-time snapshot
    /// expects the region to hold (its span length; 0 when unknown): a
    /// resident copy cached before a streaming append grew the region is
    /// shorter than that, and serving it would silently drop the tail —
    /// such a copy is treated as a miss and refetched from the store.
    pub fn read_data_region(
        &mut self,
        odms: &Odms,
        cost: &CostModel,
        rid: RegionId,
        concurrency: u32,
        min_elems: u64,
    ) -> PdcResult<Arc<TypedVec>> {
        match self.cache_lookup(cost, rid, min_elems)? {
            Some(CacheSlot::Hot(p)) => Ok(p),
            // The hit was charged identically to a hot one; the caller
            // needs the whole payload, so decode it transiently
            // (host-side — the store copy stays spilled and no further
            // simulated time accrues).
            Some(CacheSlot::Cold { .. }) => Self::materialize_whole(odms, rid),
            None => {
                let payload = self.read_from_tier(odms, cost, rid, concurrency)?;
                self.cache_payload(odms, rid, &payload);
                Ok(payload)
            }
        }
    }

    /// The prologue every data-region read shares: consult the fault
    /// probe, then look the region up in the cache. A resident copy
    /// holding at least `min_elems` elements is a hit, charged at DRAM
    /// bandwidth and returned; anything else is counted as a miss and
    /// left to the caller's tier read.
    fn cache_lookup(
        &mut self,
        cost: &CostModel,
        rid: RegionId,
        min_elems: u64,
    ) -> PdcResult<Option<CacheSlot>> {
        self.fault_check()?;
        if let Some(slot) = self.cache.get(rid) {
            if slot.elems() >= min_elems {
                let bytes = slot.size_bytes();
                self.io.cache_bytes_read += bytes;
                self.io.cache_hits += 1;
                self.clock.advance(cost.dram.read_cost(bytes));
                return Ok(Some(slot));
            }
        }
        self.io.cache_misses += 1;
        Ok(None)
    }

    /// Insert a just-read payload into the region cache: a hot slot when
    /// the store copy is resident, a cold slot of the same byte footprint
    /// when it is spilled — so admission and eviction decisions are
    /// bit-identical either way while a spilled region's decoded bytes
    /// are not pinned.
    fn cache_payload(&mut self, odms: &Odms, rid: RegionId, payload: &Arc<TypedVec>) {
        if odms.store().is_spilled(rid) {
            self.cache.put_cold(rid, payload.size_bytes(), payload.len() as u64);
        } else {
            self.cache.put(rid, Arc::clone(payload));
        }
    }

    /// Decode a region's full payload host-side with no simulated
    /// charges (the caller already charged the access).
    fn materialize_whole(odms: &Odms, rid: RegionId) -> PdcResult<Arc<TypedVec>> {
        let (payload, _) = odms.store().get(rid)?;
        match payload {
            StoredPayload::Typed(v) => Ok(v),
            StoredPayload::Raw(_) => Err(pdc_types::PdcError::Storage(format!(
                "region {rid} holds raw bytes, not typed data"
            ))),
        }
    }

    /// Read a data region as a [`RegionData`] source, charging exactly
    /// what [`Self::read_data_region`] charges: DRAM on a cache hit, the
    /// tier-appropriate read on a miss. The difference is purely
    /// physical — a clean spilled region comes back as a block-granular
    /// [`RegionData::Cold`] handle instead of a materialized payload, so
    /// streaming consumers (interval scans, prewarm) decode one block at
    /// a time through the budgeted block cache and never pin the whole
    /// region.
    ///
    /// A quarantined spilled region takes the materializing path so its
    /// corruption is detected and repaired with the same integrity-lane
    /// charges as a resident one.
    pub fn read_data_source(
        &mut self,
        odms: &Odms,
        cost: &CostModel,
        rid: RegionId,
        concurrency: u32,
        min_elems: u64,
        cache_on_miss: bool,
    ) -> PdcResult<RegionData> {
        match self.cache_lookup(cost, rid, min_elems)? {
            Some(CacheSlot::Hot(p)) => return Ok(RegionData::Mem(p)),
            Some(CacheSlot::Cold { .. }) => {
                if let Some(cold) = odms.store().cold_region(rid) {
                    return Ok(RegionData::Cold(cold));
                }
                // Slot outlived the spill (the region was rewritten
                // resident): serve the store copy. The hit is already
                // charged, as it would be for a stale hot slot.
                return Self::materialize_whole(odms, rid).map(RegionData::Mem);
            }
            None => {}
        }
        if !odms.store().is_quarantined(rid) {
            if let Some(cold) = odms.store().cold_region(rid) {
                if cold.len() >= min_elems {
                    // Clean spilled typed region: charge the identical
                    // tier read the materializing path would charge
                    // (regions are the unit of simulated I/O; compression
                    // is physical only), then hand back the streaming
                    // handle.
                    let bytes = cold.size_bytes();
                    let tier = odms.store().tier_of(rid)?;
                    self.charge_tier_read(cost, tier, bytes, concurrency);
                    if cache_on_miss {
                        self.cache.put_cold(rid, bytes, cold.len());
                    }
                    return Ok(RegionData::Cold(cold));
                }
            }
        }
        let payload = self.read_from_tier(odms, cost, rid, concurrency)?;
        if cache_on_miss {
            self.cache_payload(odms, rid, &payload);
        }
        Ok(RegionData::Mem(payload))
    }

    /// Fetch a region's payload from wherever it resides in the storage
    /// hierarchy, charging the tier-appropriate cost: DRAM-resident
    /// regions at memory speed, burst-buffer regions at node-local flash
    /// speed (no cross-server contention), PFS regions through the shared
    /// Lustre model.
    fn read_from_tier(
        &mut self,
        odms: &Odms,
        cost: &CostModel,
        rid: RegionId,
        concurrency: u32,
    ) -> PdcResult<Arc<TypedVec>> {
        let (payload, tier) = match odms.store().get(rid) {
            Ok(pt) => pt,
            Err(pdc_types::PdcError::CorruptRegion { .. }) => {
                // Checksum mismatch: restore the region from its pristine
                // durable copy (one extra modeled read, charged to the
                // integrity lane — not the query's I/O counters) and
                // retry. When no pristine copy verifies, the corruption
                // is unrecoverable and the typed error propagates.
                self.integrity.checksum_failures += 1;
                let bytes = odms.store().repair(rid)?;
                self.integrity.repaired_regions += 1;
                let t = cost.pfs.read_cost(bytes, 1, concurrency, ReadPattern::Aggregated);
                self.clock.advance(t);
                self.integrity_time += t;
                odms.store().get(rid)?
            }
            Err(e) => return Err(e),
        };
        let payload = match payload {
            StoredPayload::Typed(v) => v,
            StoredPayload::Raw(_) => {
                return Err(pdc_types::PdcError::Storage(format!(
                    "region {rid} holds raw bytes, not typed data"
                )))
            }
        };
        self.charge_tier_read(cost, tier, payload.size_bytes(), concurrency);
        Ok(payload)
    }

    /// Charge the tier-appropriate simulated read for `bytes` fetched
    /// from `tier`, then consume the fault probe's injected transient
    /// corrupt read when armed (the checksum catches it on arrival; one
    /// re-read, charged to the integrity lane, satisfies the request).
    /// Shared by the materializing and block-streaming miss paths so
    /// their simulated accounting is bit-identical.
    fn charge_tier_read(
        &mut self,
        cost: &CostModel,
        tier: StorageTier,
        bytes: u64,
        concurrency: u32,
    ) {
        match tier {
            StorageTier::Dram => {
                self.clock.advance(cost.dram.read_cost(bytes));
            }
            StorageTier::BurstBuffer => {
                self.io.pfs_read_requests += 1;
                self.clock.advance(cost.bb.read_cost(bytes, 1));
            }
            StorageTier::Pfs => {
                self.io.pfs_bytes_read += bytes;
                self.io.pfs_read_requests += 1;
                self.clock.advance(cost.pfs.read_cost(
                    bytes,
                    1,
                    concurrency,
                    ReadPattern::Aggregated,
                ));
            }
        }
        if self.fault.as_mut().is_some_and(|p| p.take_corrupt_read()) {
            self.integrity.checksum_failures += 1;
            let t = cost.pfs.read_cost(bytes, 1, concurrency, ReadPattern::Aggregated);
            self.clock.advance(t);
            self.integrity_time += t;
        }
    }

    /// Like [`Self::read_data_region`], but without inserting into the
    /// cache on a miss: PDC caches regions during *query evaluation*, not
    /// during data retrieval — which is why `PDC-HI` pays storage reads
    /// on every `get data` (paper §VI-A) while `PDC-H` serves them from
    /// the regions its evaluation already cached.
    pub fn read_data_region_uncached(
        &mut self,
        odms: &Odms,
        cost: &CostModel,
        rid: RegionId,
        concurrency: u32,
        min_elems: u64,
    ) -> PdcResult<Arc<TypedVec>> {
        match self.cache_lookup(cost, rid, min_elems)? {
            Some(CacheSlot::Hot(p)) => Ok(p),
            Some(CacheSlot::Cold { .. }) => Self::materialize_whole(odms, rid),
            None => self.read_from_tier(odms, cost, rid, concurrency),
        }
    }

    /// Read and reconstruct a region's bitmap index, charging the PFS for
    /// the serialized bytes on first touch and DRAM afterwards.
    pub fn read_index_region(
        &mut self,
        odms: &Odms,
        cost: &CostModel,
        data_object: ObjectId,
        region: u32,
        concurrency: u32,
    ) -> PdcResult<Arc<BinnedBitmapIndex>> {
        self.fault_check()?;
        let meta = odms.meta().get(data_object)?;
        let idx_obj = meta.index_object.ok_or_else(|| {
            pdc_types::PdcError::MissingPrerequisite(format!("bitmap index of {data_object}"))
        })?;
        let rid = RegionId::new(idx_obj, region);
        if let Some(idx) = self.index_cache.get(&rid) {
            let bytes = idx.size_bytes_serialized();
            self.io.cache_bytes_read += bytes;
            self.io.cache_hits += 1;
            self.clock.advance(cost.dram.read_cost(bytes));
            return Ok(Arc::clone(idx));
        }
        self.io.cache_misses += 1;
        let raw = odms.store().get_raw(rid)?;
        let bytes = raw.len() as u64;
        self.io.pfs_bytes_read += bytes;
        self.io.pfs_read_requests += 1;
        self.clock.advance(cost.pfs.read_cost(bytes, 1, concurrency, ReadPattern::Aggregated));
        let idx = Arc::new(BinnedBitmapIndex::from_bytes(&raw)?);
        // Bounded index cache with whole-map reset when full (indexes are
        // uniform in size; LRU adds little here).
        if self.index_cache_bytes + bytes > self.index_cache_budget {
            self.index_cache.clear();
            self.index_cache_bytes = 0;
        }
        self.index_cache_bytes += bytes;
        self.index_cache.insert(rid, Arc::clone(&idx));
        Ok(idx)
    }

    /// Charge the I/O for touching a sorted-replica region: PFS on first
    /// touch, DRAM afterwards. (`bytes` = keys + permutation for the
    /// region; the in-memory replica is the data that would have been
    /// read.)
    pub fn touch_sorted_region(
        &mut self,
        cost: &CostModel,
        sorted_rid: RegionId,
        bytes: u64,
        concurrency: u32,
    ) -> PdcResult<()> {
        self.fault_check()?;
        if self.sorted_resident.contains(&sorted_rid) {
            self.io.cache_bytes_read += bytes;
            self.io.cache_hits += 1;
            self.clock.advance(cost.dram.read_cost(bytes));
        } else {
            self.io.cache_misses += 1;
            self.io.pfs_bytes_read += bytes;
            self.io.pfs_read_requests += 1;
            self.clock
                .advance(cost.pfs.read_cost(bytes, 1, concurrency, ReadPattern::Aggregated));
            self.sorted_resident.insert(sorted_rid);
        }
        Ok(())
    }

    /// Charge CPU time for work done since `before` (callers snapshot the
    /// counters, do the work, then settle).
    pub fn settle_cpu(&mut self, cost: &CostModel, before: &WorkCounters) {
        self.clock.advance(cost.cpu.work_cost(&self.work.since(before)));
    }

    /// Elapsed simulated time since `mark`.
    pub fn elapsed_since(&self, mark: SimDuration) -> SimDuration {
        self.clock.now().saturating_sub(mark)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_odms::ImportOptions;
    use pdc_types::ContainerId;

    fn setup() -> (Odms, ObjectId) {
        let odms = Odms::new(4);
        let c: ContainerId = odms.create_container("t");
        let data = TypedVec::Float((0..4096).map(|i| i as f32).collect());
        let opts =
            ImportOptions { region_bytes: 4096, build_index: true, ..Default::default() };
        let obj = odms.import_array(c, "v", data, &opts).unwrap().object;
        (odms, obj)
    }

    #[test]
    fn data_read_miss_then_hit() {
        let (odms, obj) = setup();
        let cost = CostModel::cori_like();
        let mut st = ServerState::new(1 << 20);
        let rid = RegionId::new(obj, 0);

        let t0 = st.clock.now();
        st.read_data_region(&odms, &cost, rid, 4, 0).unwrap();
        let miss_time = st.elapsed_since(t0);
        assert_eq!(st.io.cache_misses, 1);
        assert_eq!(st.io.pfs_read_requests, 1);

        let t1 = st.clock.now();
        st.read_data_region(&odms, &cost, rid, 4, 0).unwrap();
        let hit_time = st.elapsed_since(t1);
        assert_eq!(st.io.cache_hits, 1);
        assert!(miss_time > hit_time * 5, "miss {miss_time} vs hit {hit_time}");
    }

    #[test]
    fn index_read_reconstructs_and_caches() {
        let (odms, obj) = setup();
        let cost = CostModel::cori_like();
        let mut st = ServerState::new(1 << 20);

        let idx = st.read_index_region(&odms, &cost, obj, 0, 4).unwrap();
        assert!(idx.num_elements() > 0);
        assert_eq!(st.io.pfs_read_requests, 1);
        let again = st.read_index_region(&odms, &cost, obj, 0, 4).unwrap();
        assert_eq!(idx.num_elements(), again.num_elements());
        assert_eq!(st.io.pfs_read_requests, 1, "second read must be cached");
        assert!(st.index_cache_bytes > 0);
    }

    #[test]
    fn sorted_touch_charges_once() {
        let cost = CostModel::cori_like();
        let mut st = ServerState::new(1 << 20);
        let rid = RegionId::new(ObjectId(42), 0);
        st.touch_sorted_region(&cost, rid, 1 << 20, 4).unwrap();
        assert_eq!(st.io.pfs_read_requests, 1);
        st.touch_sorted_region(&cost, rid, 1 << 20, 4).unwrap();
        assert_eq!(st.io.pfs_read_requests, 1);
        assert_eq!(st.io.cache_hits, 1);
    }

    #[test]
    fn settle_cpu_charges_only_delta() {
        let cost = CostModel::cori_like();
        let mut st = ServerState::new(1 << 20);
        st.work.elements_scanned = 1_000_000;
        let before = st.work;
        st.work.elements_scanned += 2_000_000;
        let t0 = st.clock.now();
        st.settle_cpu(&cost, &before);
        let charged = st.elapsed_since(t0);
        // 2M elements at 1 ns = 2 ms
        assert!((charged.as_millis_f64() - 2.0).abs() < 0.01, "{charged}");
    }
}
