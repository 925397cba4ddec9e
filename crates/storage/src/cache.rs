//! The per-server region cache.
//!
//! "We set a memory limit of 64 GB to be used by each PDC server" and "an
//! increasing number of the regions' data are cached in the PDC servers'
//! memory and do not require storage access" — the cache is what produces
//! the paper's observed speedup over a sequentially evaluated query
//! series. LRU with a byte budget.

use pdc_types::{RegionId, TypedVec};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// What the cache holds for a region.
///
/// A `Hot` slot pins the decoded payload. A `Cold` slot records that the
/// region is "cached" for capacity and hit/miss purposes while its bytes
/// actually live in the out-of-core block store — the slot charges the
/// same byte footprint as the payload would, so every admission,
/// eviction, and hit/miss decision is **bit-identical** between spill-on
/// and spill-off runs (decisions depend only on region id, size, and
/// recency, never on physical residency).
#[derive(Debug, Clone)]
pub enum CacheSlot {
    /// Decoded payload held in memory.
    Hot(Arc<TypedVec>),
    /// Spilled region: logical footprint only, bytes served block-wise.
    Cold {
        /// Uncompressed payload bytes the slot charges against capacity.
        bytes: u64,
        /// Element count of the payload at insert time.
        elems: u64,
    },
}

impl CacheSlot {
    /// Bytes this slot charges against the cache budget.
    pub fn size_bytes(&self) -> u64 {
        match self {
            CacheSlot::Hot(p) => p.size_bytes(),
            CacheSlot::Cold { bytes, .. } => *bytes,
        }
    }

    /// Element count of the cached payload.
    pub fn elems(&self) -> u64 {
        match self {
            CacheSlot::Hot(p) => p.len() as u64,
            CacheSlot::Cold { elems, .. } => *elems,
        }
    }
}

/// An LRU region cache with a byte budget.
///
/// Recency is tracked with a `BTreeMap` keyed by a monotonically
/// increasing use tick (ticks are unique, so it is a total order);
/// eviction pops the smallest tick in O(log n) instead of scanning every
/// entry for the minimum.
#[derive(Debug)]
pub struct RegionCache {
    capacity_bytes: u64,
    used_bytes: u64,
    entries: HashMap<RegionId, (CacheSlot, u64)>, // slot, last-use tick
    recency: BTreeMap<u64, RegionId>,             // last-use tick -> region
    tick: u64,
}

impl RegionCache {
    /// A cache with the given byte budget.
    pub fn new(capacity_bytes: u64) -> Self {
        Self {
            capacity_bytes,
            used_bytes: 0,
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
        }
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Number of cached regions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a region, refreshing its recency on hit.
    pub fn get(&mut self, id: RegionId) -> Option<CacheSlot> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(&id) {
            Some((slot, last)) => {
                self.recency.remove(last);
                self.recency.insert(tick, id);
                *last = tick;
                Some(slot.clone())
            }
            None => None,
        }
    }

    /// Peek without recency update or hit/miss accounting.
    pub fn contains(&self, id: RegionId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Insert a hot (decoded, pinned) region.
    pub fn put(&mut self, id: RegionId, payload: Arc<TypedVec>) {
        self.put_slot(id, CacheSlot::Hot(payload));
    }

    /// Insert a slot, evicting least-recently-used entries as needed.
    /// Slots larger than the whole budget are not cached.
    pub fn put_slot(&mut self, id: RegionId, slot: CacheSlot) {
        let size = slot.size_bytes();
        if size > self.capacity_bytes {
            return;
        }
        if let Some((old, last)) = self.entries.remove(&id) {
            self.recency.remove(&last);
            self.used_bytes -= old.size_bytes();
        }
        while self.used_bytes + size > self.capacity_bytes {
            let Some((_, victim)) = self.recency.pop_first() else {
                break;
            };
            let (evicted, _) = self.entries.remove(&victim).unwrap();
            self.used_bytes -= evicted.size_bytes();
        }
        self.tick += 1;
        self.entries.insert(id, (slot, self.tick));
        self.recency.insert(self.tick, id);
        self.used_bytes += size;
    }

    /// Drop everything (used between experiments).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.recency.clear();
        self.used_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_types::ObjectId;

    fn rid(i: u32) -> RegionId {
        RegionId::new(ObjectId(1), i)
    }

    fn payload(elems: usize) -> Arc<TypedVec> {
        Arc::new(TypedVec::Float(vec![0.0; elems]))
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = RegionCache::new(1000);
        assert!(c.get(rid(0)).is_none());
        c.put(rid(0), payload(10)); // 40 bytes
        assert!(c.get(rid(0)).is_some());
        assert_eq!(c.used_bytes(), 40);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = RegionCache::new(120); // three 40-byte payloads
        c.put(rid(0), payload(10));
        c.put(rid(1), payload(10));
        c.put(rid(2), payload(10));
        // touch 0 so 1 becomes the LRU
        assert!(c.get(rid(0)).is_some());
        c.put(rid(3), payload(10)); // evicts 1
        assert!(c.contains(rid(0)));
        assert!(!c.contains(rid(1)));
        assert!(c.contains(rid(2)));
        assert!(c.contains(rid(3)));
        assert!(c.used_bytes() <= 120);
    }

    #[test]
    fn oversized_payload_not_cached() {
        let mut c = RegionCache::new(100);
        c.put(rid(0), payload(1000)); // 4000 bytes > 100
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn reinsert_replaces_without_leak() {
        let mut c = RegionCache::new(1000);
        c.put(rid(0), payload(10));
        c.put(rid(0), payload(20)); // 80 bytes now
        assert_eq!(c.used_bytes(), 80);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_frees_enough_for_large_entries() {
        let mut c = RegionCache::new(200);
        c.put(rid(0), payload(10)); // 40
        c.put(rid(1), payload(10)); // 40
        c.put(rid(2), payload(40)); // 160: must evict both
        assert!(c.contains(rid(2)));
        assert!(c.used_bytes() <= 200);
    }

    #[test]
    fn interleaved_ops_match_naive_lru_model() {
        // Model: a Vec ordered least- to most-recently used. The BTreeMap
        // recency index must evict exactly what the naive model evicts.
        let mut c = RegionCache::new(400); // ten 40-byte payloads
        let mut model: Vec<u32> = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = (state >> 33) as u32 % 16;
            if state & 1 == 0 && model.contains(&r) {
                assert!(c.get(rid(r)).is_some(), "model says {r} is cached");
                model.retain(|&x| x != r);
                model.push(r);
            } else {
                c.put(rid(r), payload(10));
                model.retain(|&x| x != r);
                model.push(r);
                if model.len() > 10 {
                    model.remove(0);
                }
            }
            assert_eq!(c.len(), model.len());
            for &x in &model {
                assert!(c.contains(rid(x)));
            }
        }
    }

    #[test]
    fn cold_slots_charge_like_hot_and_interchange_in_lru() {
        // A cold slot must be indistinguishable from a hot one for every
        // capacity/eviction decision: same byte charge, same LRU order.
        let mut hot = RegionCache::new(120);
        let mut cold = RegionCache::new(120);
        for i in 0..3 {
            hot.put(rid(i), payload(10)); // 40 bytes each
            cold.put_slot(rid(i), CacheSlot::Cold { bytes: 40, elems: 10 });
        }
        assert_eq!(hot.used_bytes(), cold.used_bytes());
        assert!(matches!(cold.get(rid(0)), Some(CacheSlot::Cold { bytes: 40, elems: 10 })));
        assert!(hot.get(rid(0)).is_some());
        hot.put(rid(3), payload(10)); // evicts 1 in both
        cold.put_slot(rid(3), CacheSlot::Cold { bytes: 40, elems: 10 });
        for i in 0..4 {
            assert_eq!(hot.contains(rid(i)), cold.contains(rid(i)), "slot {i}");
        }
        assert!(!cold.contains(rid(1)));
        // Slot accessors.
        assert_eq!(CacheSlot::Hot(payload(10)).size_bytes(), 40);
        assert_eq!(CacheSlot::Hot(payload(10)).elems(), 10);
        assert_eq!(CacheSlot::Cold { bytes: 7, elems: 3 }.size_bytes(), 7);
        assert_eq!(CacheSlot::Cold { bytes: 7, elems: 3 }.elems(), 3);
    }

    #[test]
    fn clear_resets_bytes() {
        let mut c = RegionCache::new(1000);
        c.put(rid(0), payload(10));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
    }
}
