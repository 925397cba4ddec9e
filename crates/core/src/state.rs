//! Per-logical-server state: caches, clock, counters.

use pdc_bitmap::BinnedBitmapIndex;
use pdc_odms::Odms;
use pdc_server::FaultProbe;
use pdc_storage::{
    BlockView, CacheSlot, CostModel, IntegrityCounters, IoCounters, ReadPattern, RegionCache,
    SimClock, SimDuration, StorageTier, StoredPayload, WorkCounters,
};
use pdc_types::{ObjectId, PdcError, PdcResult, RegionId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

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
    /// Sorted-replica regions already resident in this server's memory,
    /// as `(object, replica version, sorted region)`: a republished
    /// replica is a new version, so its regions are read cold.
    pub sorted_resident: HashSet<(ObjectId, u64, u32)>,
    /// Objects whose region metadata this server has already fetched
    /// ("the metadata is cached in all servers after the metadata
    /// distribution").
    pub metadata_loaded: HashSet<ObjectId>,
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

    /// The one charged read of a data region: hand `scan` the region's
    /// [`BlockView`] and return what it computes.
    ///
    /// Charges DRAM bandwidth on a cache hit and the tier-appropriate read
    /// on a miss, the same for a resident and a spilled region (regions
    /// are the unit of simulated I/O; compression is physical only). A
    /// miss then seeds the cache with the view's slot ([`BlockView::cache_slot`],
    /// the one seeding rule) when `cache_on_miss` is set — PDC caches regions
    /// during *query evaluation*, not during data retrieval, which is why
    /// `PDC-HI` pays storage reads on every `get data` (paper §VI-A) while
    /// `PDC-H` serves them from the regions its evaluation already cached.
    ///
    /// `min_elems` is the element count the caller's plan-time snapshot
    /// expects the region to hold (its span length): a resident copy
    /// cached before a streaming append grew the region is shorter than
    /// that, and serving it would silently drop the tail — such a copy is
    /// treated as a miss and refetched from the store.
    ///
    /// A miss verifies the whole region, as the store's checksum does for
    /// a resident payload: a spilled region has every block's frame
    /// checked. **One failure path:** a payload or block that fails its
    /// check makes the store quarantine the region; it is repaired from
    /// its pristine durable copy — on a miss charging one extra modelled
    /// read to the integrity lane, plus `checksum_failures` and
    /// `repaired_regions`; a hit was served from server memory in the
    /// model, so its repair is host-side only — and `scan` runs again from
    /// the work counters it started with. When no pristine copy verifies,
    /// the typed error propagates.
    #[allow(clippy::too_many_arguments)]
    pub fn read_region<T>(
        &mut self,
        odms: &Odms,
        cost: &CostModel,
        rid: RegionId,
        concurrency: u32,
        min_elems: u64,
        cache_on_miss: bool,
        mut scan: impl FnMut(&mut Self, &BlockView) -> PdcResult<T>,
    ) -> PdcResult<T> {
        let slot = self.cache_lookup(cost, rid, min_elems)?;
        let missed = slot.is_none();
        if missed {
            let bytes = odms.store().payload_size(rid).ok_or(PdcError::NoSuchRegion(rid))?;
            self.charge_tier_read(cost, odms.store().tier_of(rid)?, bytes, concurrency);
        }
        let work = self.work;
        let mut attempt = |st: &mut Self| {
            let view = match &slot {
                Some(CacheSlot::Hot(p)) => BlockView::from(Arc::clone(p)),
                _ => open_view(odms, rid)?,
            };
            if missed {
                view.check()?;
                if cache_on_miss {
                    st.cache.put_slot(rid, view.cache_slot());
                }
            }
            scan(st, &view)
        };
        match attempt(self) {
            Err(_) if confirm_corrupt(odms, rid) => {
                let bytes = odms.store().repair(rid)?;
                if missed {
                    self.integrity.checksum_failures += 1;
                    self.integrity.repaired_regions += 1;
                    let t = cost.pfs.read_cost(bytes, 1, concurrency, ReadPattern::Aggregated);
                    self.clock.advance(t);
                    self.integrity_time += t;
                }
                self.work = work;
                attempt(self)
            }
            res => res,
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

    /// Charge the tier-appropriate simulated read for `bytes` fetched
    /// from `tier` — DRAM-resident regions at memory speed, burst-buffer
    /// regions at node-local flash speed (no cross-server contention),
    /// PFS regions through the shared Lustre model — then consume the
    /// fault probe's injected transient corrupt read when armed (the
    /// checksum catches it on arrival; one re-read, charged to the
    /// integrity lane, satisfies the request).
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

    /// Charge the I/O for touching a sorted-replica region, keyed as in
    /// `sorted_resident`: PFS on first touch, DRAM afterwards. (`bytes` =
    /// keys + permutation for the region; the in-memory replica is the
    /// data that would have been read.)
    pub fn touch_sorted_region(
        &mut self,
        cost: &CostModel,
        sorted_region: (ObjectId, u64, u32),
        bytes: u64,
        concurrency: u32,
    ) -> PdcResult<()> {
        self.fault_check()?;
        if self.sorted_resident.contains(&sorted_region) {
            self.io.cache_bytes_read += bytes;
            self.io.cache_hits += 1;
            self.clock.advance(cost.dram.read_cost(bytes));
        } else {
            self.io.cache_misses += 1;
            self.io.pfs_bytes_read += bytes;
            self.io.pfs_read_requests += 1;
            self.clock
                .advance(cost.pfs.read_cost(bytes, 1, concurrency, ReadPattern::Aggregated));
            self.sorted_resident.insert(sorted_region);
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

/// Open `rid`'s block view, uncharged. The store decides residency: a
/// spilled typed region is its cold handle; anything else is the store
/// copy as one decoded block, checksum-verified.
pub(crate) fn open_view(odms: &Odms, rid: RegionId) -> PdcResult<BlockView> {
    if let Some(cold) = odms.store().cold_region(rid) {
        return Ok(cold.into());
    }
    match odms.store().get(rid)?.0 {
        StoredPayload::Typed(v) => Ok(v.into()),
        StoredPayload::Raw(_) => {
            Err(PdcError::Storage(format!("region {rid} holds raw bytes, not typed data")))
        }
    }
}

/// Whether a failed read met a corrupt region: the store's verified read
/// quarantines it and says so.
fn confirm_corrupt(odms: &Odms, rid: RegionId) -> bool {
    matches!(odms.store().verify(rid), Err(PdcError::CorruptRegion { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_odms::ImportOptions;
    use pdc_types::{ContainerId, TypedVec};

    fn setup() -> (Odms, ObjectId) {
        let odms = Odms::new(4);
        let c: ContainerId = odms.create_container("t");
        let data = TypedVec::Float((0..4096).map(|i| i as f32).collect());
        let opts =
            ImportOptions { region_bytes: 4096, build_index: true, ..Default::default() };
        let obj = odms.import_array(c, "v", data, &opts).unwrap().object;
        (odms, obj)
    }

    /// A read whose scan only reports the view's shape.
    fn read(st: &mut ServerState, odms: &Odms, rid: RegionId, cache_on_miss: bool) -> (u64, u32) {
        let cost = CostModel::cori_like();
        st.read_region(odms, &cost, rid, 4, 0, cache_on_miss, |_, v| Ok((v.len(), v.n_blocks())))
            .unwrap()
    }

    #[test]
    fn data_read_miss_then_hit() {
        let (odms, obj) = setup();
        let mut st = ServerState::new(1 << 20);
        let rid = RegionId::new(obj, 0);

        let t0 = st.clock.now();
        assert_eq!(read(&mut st, &odms, rid, true), (1024, 1), "one decoded block");
        let miss_time = st.elapsed_since(t0);
        assert_eq!(st.io.cache_misses, 1);
        assert_eq!(st.io.pfs_read_requests, 1);

        let t1 = st.clock.now();
        read(&mut st, &odms, rid, true);
        let hit_time = st.elapsed_since(t1);
        assert_eq!(st.io.cache_hits, 1);
        assert!(miss_time > hit_time * 5, "miss {miss_time} vs hit {hit_time}");
    }

    #[test]
    fn cold_slot_hit_reads_the_spilled_view_at_dram_cost() {
        let (odms, obj) = setup();
        let dir = std::env::temp_dir().join(format!("pdc_state_cold_{}", std::process::id()));
        odms.store().configure_spill(&dir, 0, 1 << 20).unwrap();
        let rid = RegionId::new(obj, 0);
        assert!(odms.store().is_spilled(rid));
        let mut st = ServerState::new(1 << 20);
        read(&mut st, &odms, rid, true);
        assert!(matches!(st.cache.get(rid), Some(CacheSlot::Cold { bytes: 4096, elems: 1024 })));

        let cost = CostModel::cori_like();
        let t0 = st.clock.now();
        let (len, blocks) = read(&mut st, &odms, rid, true);
        assert_eq!((len, blocks), (1024, 1));
        assert_eq!(st.elapsed_since(t0), cost.dram.read_cost(4096), "a hit is charged at DRAM");
        assert_eq!((st.io.cache_hits, st.io.pfs_read_requests), (1, 1));
        let stats = odms.store().spill_stats().unwrap();
        assert_eq!(stats.fault_ins, 0, "no whole-region fault-in on a miss or a hit");
        assert!(odms.store().is_spilled(rid), "the region stays spilled");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_grown_resident_payload_is_scanned_to_the_snapshot_span() {
        let odms = Odms::new(4);
        let c = odms.create_container("t");
        let opts = ImportOptions { region_bytes: 4096, ..Default::default() };
        let data = TypedVec::Float((0..1500).map(|i| i as f32).collect());
        let obj = odms.import_array(c, "v", data, &opts).unwrap().object;
        // Region 1 is the open tail: 476 elements at plan time, then an
        // append lands in the store before the scan reads it.
        let rid = RegionId::new(obj, 1);
        let span = odms.meta().get(obj).unwrap().region_span(1);
        assert_eq!(span.len, 476);
        odms.store().append_typed(rid, &TypedVec::Float(vec![0.5; 100])).unwrap();

        let cost = CostModel::cori_like();
        let mut st = ServerState::new(1 << 20);
        let every = pdc_types::Interval::open(-1.0, 1e9);
        let (len, sel) = st
            .read_region(&odms, &cost, rid, 4, span.len, true, |_, v| {
                Ok((v.len(), crate::ops::scan_whole(v, &every, span.offset, span.len)?))
            })
            .unwrap();
        assert_eq!(len, 576, "the view holds the grown payload");
        assert_eq!(sel.count(), 476, "only the snapshot's extent is scanned");
        assert_eq!(sel.runs().last().unwrap().end(), span.end());
    }

    #[test]
    fn a_read_without_cache_on_miss_leaves_the_cache_untouched() {
        let (odms, obj) = setup();
        let mut st = ServerState::new(1 << 20);
        let rid = RegionId::new(obj, 2);
        read(&mut st, &odms, rid, false);
        read(&mut st, &odms, rid, false);
        assert!(st.cache.is_empty());
        assert_eq!((st.io.cache_misses, st.io.cache_hits, st.io.pfs_read_requests), (2, 0, 2));
        read(&mut st, &odms, rid, true);
        assert_eq!(st.cache.len(), 1);
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
        let key = (ObjectId(42), 7, 0);
        st.touch_sorted_region(&cost, key, 1 << 20, 4).unwrap();
        assert_eq!(st.io.pfs_read_requests, 1);
        st.touch_sorted_region(&cost, key, 1 << 20, 4).unwrap();
        assert_eq!(st.io.pfs_read_requests, 1);
        assert_eq!(st.io.cache_hits, 1);
        // A republished replica is a new version: read cold again.
        st.touch_sorted_region(&cost, (ObjectId(42), 8, 0), 1 << 20, 4).unwrap();
        assert_eq!(st.io.pfs_read_requests, 2);
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
