//! Byte-budgeted cache of decoded blocks.
//!
//! Generalizes the per-server `RegionCache` LRU (`pdc-storage`) to
//! *admission + eviction* under a byte budget: a block larger than the
//! whole budget is never admitted, and inserting evicts
//! least-recently-used blocks until the new block fits. Keys are opaque
//! `(u64, u32, u32)` triples so the cache does not depend on `RegionId`
//! (the storage crate supplies `(object id, region index, block#)` —
//! collision-free, never hashed down).

use pdc_types::value::TypedVec;
use pdc_types::Unpoison;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Cache key: an opaque region token (object id + region index) plus a
/// block number.
pub type BlockKey = (u64, u32, u32);

/// Cumulative cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Lookups that found the block.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Blocks evicted to make room.
    pub evictions: u64,
    /// Inserts rejected because the block exceeds the whole budget.
    pub rejected: u64,
}

impl BlockCacheStats {
    /// Hit rate in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Inner {
    capacity_bytes: u64,
    used_bytes: u64,
    entries: HashMap<BlockKey, (Arc<TypedVec>, u64)>,
    recency: BTreeMap<u64, BlockKey>,
    tick: u64,
    stats: BlockCacheStats,
}

/// Thread-safe budgeted LRU of decoded blocks.
pub struct BlockCache {
    inner: Mutex<Inner>,
}

impl BlockCache {
    /// A cache holding at most `capacity_bytes` of decoded block bytes.
    pub fn new(capacity_bytes: u64) -> Self {
        BlockCache {
            inner: Mutex::new(Inner {
                capacity_bytes,
                used_bytes: 0,
                entries: HashMap::new(),
                recency: BTreeMap::new(),
                tick: 0,
                stats: BlockCacheStats::default(),
            }),
        }
    }

    /// Look up a decoded block, refreshing its recency.
    pub fn get(&self, key: BlockKey) -> Option<Arc<TypedVec>> {
        let mut g = self.inner.lock().unpoisoned();
        g.tick += 1;
        let tick = g.tick;
        match g.entries.get_mut(&key) {
            Some((block, last)) => {
                let old = *last;
                *last = tick;
                let block = Arc::clone(block);
                g.recency.remove(&old);
                g.recency.insert(tick, key);
                g.stats.hits += 1;
                Some(block)
            }
            None => {
                g.stats.misses += 1;
                None
            }
        }
    }

    /// Insert a decoded block, evicting LRU entries until it fits.
    ///
    /// Admission control: a block larger than the entire budget is not
    /// admitted at all (it would only flush every other block). Evicted
    /// blocks are freed after the lock is released, so freeing a block
    /// never holds up another thread's lookup.
    pub fn put(&self, key: BlockKey, block: Arc<TypedVec>) {
        let size = block.size_bytes();
        let mut evicted = Vec::new();
        let mut g = self.inner.lock().unpoisoned();
        if size > g.capacity_bytes {
            g.stats.rejected += 1;
            return;
        }
        if let Some((old, last)) = g.entries.remove(&key) {
            g.used_bytes -= old.size_bytes();
            g.recency.remove(&last);
            evicted.push(old);
        }
        while g.used_bytes + size > g.capacity_bytes {
            let Some((_, victim)) = g.recency.pop_first() else { break };
            if let Some((old, _)) = g.entries.remove(&victim) {
                g.used_bytes -= old.size_bytes();
                g.stats.evictions += 1;
                evicted.push(old);
            }
        }
        g.tick += 1;
        let tick = g.tick;
        g.used_bytes += size;
        g.entries.insert(key, (block, tick));
        g.recency.insert(tick, key);
        drop(g);
        drop(evicted);
    }

    /// Drop every block belonging to region `(object token, index)`
    /// (called when a region is rewritten, repaired, or removed).
    pub fn invalidate_region(&self, region: (u64, u32)) {
        let mut g = self.inner.lock().unpoisoned();
        let victims: Vec<BlockKey> = g
            .entries
            .keys()
            .filter(|(o, r, _)| (*o, *r) == region)
            .copied()
            .collect();
        for key in victims {
            if let Some((old, last)) = g.entries.remove(&key) {
                g.used_bytes -= old.size_bytes();
                g.recency.remove(&last);
            }
        }
    }

    /// Bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.inner.lock().unpoisoned().used_bytes
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> BlockCacheStats {
        self.inner.lock().unpoisoned().stats
    }
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.lock().unpoisoned();
        f.debug_struct("BlockCache")
            .field("capacity_bytes", &g.capacity_bytes)
            .field("used_bytes", &g.used_bytes)
            .field("entries", &g.entries.len())
            .field("stats", &g.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(n: usize) -> Arc<TypedVec> {
        Arc::new(TypedVec::Double(vec![0.5; n]))
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        let c = BlockCache::new(3 * 80); // three 10-elem double blocks
        c.put((1, 0, 0), block(10));
        c.put((1, 1, 0), block(10));
        c.put((1, 2, 0), block(10));
        assert!(c.get((1, 0, 0)).is_some()); // refresh 0
        c.put((1, 3, 0), block(10)); // evicts (1,1), the LRU
        assert!(c.get((1, 1, 0)).is_none());
        assert!(c.get((1, 0, 0)).is_some());
        assert!(c.get((1, 3, 0)).is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 3);
    }

    #[test]
    fn oversized_blocks_are_rejected() {
        let c = BlockCache::new(100);
        c.put((7, 0, 0), block(1000));
        assert!(c.get((7, 0, 0)).is_none());
        assert_eq!(c.stats().rejected, 1);
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn budget_is_respected() {
        let c = BlockCache::new(1000);
        for i in 0..50 {
            c.put((1, i, 0), block(12)); // 96 bytes each
            assert!(c.used_bytes() <= 1000, "over budget at insert {i}");
        }
        assert!(c.stats().evictions > 0);
    }

    #[test]
    fn reinsert_same_key_replaces() {
        let c = BlockCache::new(1000);
        c.put((1, 0, 0), block(10));
        c.put((1, 0, 0), block(12));
        assert_eq!(c.used_bytes(), 96);
        assert_eq!(c.get((1, 0, 0)).unwrap().len(), 12);
    }

    #[test]
    fn invalidate_region_drops_all_its_blocks() {
        let c = BlockCache::new(10_000);
        c.put((1, 0, 0), block(10));
        c.put((1, 0, 1), block(10));
        c.put((2, 0, 0), block(10));
        c.invalidate_region((1, 0));
        assert!(c.get((1, 0, 0)).is_none());
        assert!(c.get((1, 0, 1)).is_none());
        assert!(c.get((2, 0, 0)).is_some());
        assert_eq!(c.used_bytes(), 80);
    }

    #[test]
    fn hit_rate_reports() {
        let c = BlockCache::new(1000);
        c.put((1, 0, 0), block(4));
        c.get((1, 0, 0));
        c.get((1, 9, 0));
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(BlockCacheStats::default().hit_rate(), 0.0);
    }
}
