//! Per-server cache of query-evaluation artifacts for served query
//! series: full-region scan selections and bitmap-index answers, keyed by
//! `(object, region, span length, interval)`.
//!
//! The cache trades **host CPU** only. A hit lets the server skip
//! recomputing a pure artifact (a kernel scan, an index probe) while the
//! simulated accounting — reads, counters, clock charges — is replayed
//! exactly as on a miss, so served results and cost breakdowns stay
//! bit-identical to a cache-free sequential run (property-tested in
//! `tests/service_equivalence.rs` and `tests/cache_props.rs`).
//!
//! **The key rule.** An entry is a pure function of inputs that cannot
//! change under its key, so nothing ever invalidates it. Both artifact
//! kinds are functions of one region's data at one span length, and that
//! data never changes: regions are append-only (a grown region has a new
//! span length, hence a new key), and repair, migrate and index rebuild
//! restore the same bytes. Every read that produces an artifact is
//! checksum-verified, so a corrupted copy never becomes one. Prune
//! verdicts read region histograms and joint grids, which rebuilds and
//! appends replace, so they are recomputed on every query instead.
//!
//! The cache is **budgeted**: entries are charged by their run-list wire
//! size and the whole cache resets when the budget would overflow (the
//! same whole-map policy the index cache uses — entries are cheap to
//! refill from the next prewarm pass).

use pdc_types::{Interval, ObjectId, Selection};
use std::collections::{HashMap, HashSet};

/// Bit-exact hashable image of an [`Interval`]: raw endpoint bits plus
/// presence/inclusivity flags. Two intervals map to the same key iff
/// they are structurally identical (NaN payloads included), so a cached
/// artifact is only ever served for the exact predicate that built it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntervalKey {
    lo: (u64, u8),
    hi: (u64, u8),
}

impl IntervalKey {
    /// Encode an interval.
    pub fn of(iv: &Interval) -> Self {
        let enc = |b: Option<pdc_types::interval::Bound>| match b {
            None => (0u64, 0u8),
            Some(b) => (b.value.to_bits(), if b.inclusive { 2 } else { 1 }),
        };
        IntervalKey { lo: enc(iv.lo), hi: enc(iv.hi) }
    }
}

/// Artifacts key on the region's span length in addition to `(object,
/// region, interval)`: a streaming append grows a region's extent, and a
/// scan selection or index answer computed for the shorter extent must
/// never be served for the longer one (or vice versa). The span length
/// distinguishes exactly the artifacts the append changed (the grown
/// tail region and the appended regions).
type Key = (ObjectId, u32, u64, IntervalKey);

/// Membership statistics of one shared-scan group (`SharedScanGroup`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Plans admitted into the group (over all admission calls).
    pub members: u64,
    /// Members admitted *after* the group's first admission (they join
    /// a group whose earlier members' artifacts are already cached).
    pub late_joins: u64,
    /// Admission calls the group absorbed.
    pub admissions: u64,
    /// Distinct `(object, interval)` predicates the group accumulated.
    pub admitted_intervals: u64,
    /// Region passes the prewarm broadcast performed on the group's
    /// behalf (summed over admissions; late admissions only pay for
    /// regions whose pending intervals are not already cached).
    pub prewarm_regions: u64,
}

/// An **open** shared-scan group: the client-side membership ledger of
/// one continuous-batching window. Each
/// `QueryEngine::admit_to_scan_group` call folds one dispatched plan's
/// *new* predicates into the set and prewarms only the regions those
/// predicates still need (already-cached `(region, interval)` artifacts
/// are skipped via [`QueryArtifactCache::peek_scan`], so admission is
/// incremental at region granularity).
///
/// Purely host-side, like the caches it feeds: group membership changes
/// wall-clock sharing only, never a query's selection or simulated
/// cost breakdown.
#[derive(Debug)]
pub(crate) struct SharedScanGroup {
    id: u64,
    seen: HashSet<(ObjectId, IntervalKey)>,
    /// Membership counters.
    pub stats: GroupStats,
}

impl SharedScanGroup {
    /// An empty group.
    pub fn new(id: u64) -> Self {
        Self { id, seen: HashSet::new(), stats: GroupStats::default() }
    }

    /// The group's id (unique per engine).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Admit one `(object, interval)` predicate; `true` when it is new
    /// to the group (and therefore needs a prewarm pass).
    pub fn try_admit(&mut self, object: ObjectId, interval: &Interval) -> bool {
        let new = self.seen.insert((object, IntervalKey::of(interval)));
        if new {
            self.stats.admitted_intervals += 1;
        }
        new
    }
}

/// Replay record for a region answered from its bitmap index: enough to
/// reproduce the simulated accounting of [`crate::exec`]'s indexed path
/// (conditional data read + candidate-count scan charge) without
/// re-probing the index.
#[derive(Debug, Clone)]
pub struct IndexedEntry {
    /// Whether boundary bins forced a candidate check (a data read).
    pub needs_data_read: bool,
    /// `candidates.count()` of the index answer (the scan charge).
    pub candidates_count: u64,
    /// The region's final selection, already in global coordinates.
    pub selection: Selection,
}

/// Hit/miss counters, summed into [`crate::ServiceStats`]' artifact
/// counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Artifact lookups served from the cache.
    pub hits: u64,
    /// Artifact lookups that had to compute.
    pub misses: u64,
}

/// The per-server artifact cache (one per [`crate::state::ServerState`]).
pub struct QueryArtifactCache {
    budget_bytes: u64,
    bytes: u64,
    scans: HashMap<Key, Selection>,
    indexed: HashMap<Key, IndexedEntry>,
    /// Lookup statistics (survive budget resets).
    pub stats: CacheStats,
}

/// Approximate footprint of a map entry beyond its selection payload.
const ENTRY_OVERHEAD: u64 = 48;

impl QueryArtifactCache {
    /// Empty cache with the given byte budget.
    pub fn new(budget_bytes: u64) -> Self {
        Self {
            budget_bytes,
            bytes: 0,
            scans: HashMap::new(),
            indexed: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Drop all entries (budget and stats handling preserved).
    pub fn clear(&mut self) {
        self.scans.clear();
        self.indexed.clear();
        self.bytes = 0;
    }

    /// Number of resident entries across all artifact kinds.
    pub fn len(&self) -> usize {
        self.scans.len() + self.indexed.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn charge(&mut self, add: u64) {
        if self.bytes + add > self.budget_bytes {
            self.clear();
        }
        self.bytes += add;
    }

    /// The cached full-region scan selection, if present.
    pub fn get_scan(
        &mut self,
        object: ObjectId,
        region: u32,
        span_len: u64,
        interval: &Interval,
    ) -> Option<Selection> {
        let key = (object, region, span_len, IntervalKey::of(interval));
        match self.scans.get(&key) {
            Some(sel) => {
                self.stats.hits += 1;
                Some(sel.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Cache a full-region scan selection (global coordinates).
    pub fn put_scan(
        &mut self,
        object: ObjectId,
        region: u32,
        span_len: u64,
        interval: &Interval,
        sel: Selection,
    ) {
        self.charge(ENTRY_OVERHEAD + sel.wire_size_bytes());
        self.scans.insert((object, region, span_len, IntervalKey::of(interval)), sel);
    }

    /// Peek a full-region scan selection without touching the hit/miss
    /// stats (used by opportunistic consumers like `point_check`, where
    /// a miss is the expected common case, and by the prewarm pass).
    pub fn peek_scan(
        &self,
        object: ObjectId,
        region: u32,
        span_len: u64,
        interval: &Interval,
    ) -> Option<&Selection> {
        self.scans.get(&(object, region, span_len, IntervalKey::of(interval)))
    }

    /// The cached index-answer replay record, if present.
    pub fn get_indexed(
        &mut self,
        object: ObjectId,
        region: u32,
        span_len: u64,
        interval: &Interval,
    ) -> Option<IndexedEntry> {
        let key = (object, region, span_len, IntervalKey::of(interval));
        match self.indexed.get(&key) {
            Some(e) => {
                self.stats.hits += 1;
                Some(e.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Cache an index-answer replay record.
    pub fn put_indexed(
        &mut self,
        object: ObjectId,
        region: u32,
        span_len: u64,
        interval: &Interval,
        entry: IndexedEntry,
    ) {
        self.charge(ENTRY_OVERHEAD + entry.selection.wire_size_bytes());
        self.indexed.insert((object, region, span_len, IntervalKey::of(interval)), entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::open(lo, hi)
    }

    #[test]
    fn interval_key_is_bit_exact() {
        assert_eq!(IntervalKey::of(&iv(1.0, 2.0)), IntervalKey::of(&iv(1.0, 2.0)));
        assert_ne!(IntervalKey::of(&iv(1.0, 2.0)), IntervalKey::of(&iv(1.0, 2.5)));
        assert_ne!(
            IntervalKey::of(&Interval::open(1.0, 2.0)),
            IntervalKey::of(&Interval::closed(1.0, 2.0)),
            "inclusivity must distinguish keys"
        );
        assert_ne!(
            IntervalKey::of(&Interval::from_op(pdc_types::QueryOp::Gt, 0.0)),
            IntervalKey::of(&Interval::from_op(pdc_types::QueryOp::Lt, 0.0)),
            "lo-only vs hi-only bounds must distinguish keys"
        );
    }

    #[test]
    fn budget_overflow_resets_whole_cache() {
        let mut c = QueryArtifactCache::new(200);
        let obj = ObjectId(9);
        c.put_scan(obj, 0, 10, &iv(0.0, 1.0), Selection::from_span(0, 5));
        assert_eq!(c.len(), 1);
        // A large entry blows the budget: the cache resets, then admits it.
        let big: Vec<pdc_types::Run> =
            (0..50).map(|i| pdc_types::Run::new(i * 10, 2)).collect();
        c.put_scan(obj, 1, 10, &iv(2.0, 3.0), Selection::from_canonical_runs(big));
        assert_eq!(c.len(), 1, "old entries evicted wholesale");
        assert!(c.peek_scan(obj, 1, 10, &iv(2.0, 3.0)).is_some());
        assert!(c.peek_scan(obj, 0, 10, &iv(0.0, 1.0)).is_none());
    }
}
