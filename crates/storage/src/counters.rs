//! Counters collected during real query execution.
//!
//! Every strategy's simulated elapsed time is a pure function of these
//! counters plus the [`crate::cost::CostModel`]; keeping them explicit
//! makes every experiment auditable (EXPERIMENTS.md prints them).

use crate::sim::SimDuration;

/// Storage I/O counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounters {
    /// Bytes read from the parallel file system.
    pub pfs_bytes_read: u64,
    /// Distinct PFS read requests issued.
    pub pfs_read_requests: u64,
    /// Bytes served from the in-memory region cache.
    pub cache_bytes_read: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Bytes written (imports, index builds, sorted replicas).
    pub bytes_written: u64,
    /// Distinct write requests.
    pub write_requests: u64,
}

impl IoCounters {
    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: &IoCounters) {
        self.pfs_bytes_read += other.pfs_bytes_read;
        self.pfs_read_requests += other.pfs_read_requests;
        self.cache_bytes_read += other.cache_bytes_read;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.bytes_written += other.bytes_written;
        self.write_requests += other.write_requests;
    }

    /// The counts accumulated since the snapshot `before`.
    pub fn since(&self, before: &IoCounters) -> Self {
        Self {
            pfs_bytes_read: self.pfs_bytes_read - before.pfs_bytes_read,
            pfs_read_requests: self.pfs_read_requests - before.pfs_read_requests,
            cache_bytes_read: self.cache_bytes_read - before.cache_bytes_read,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            bytes_written: self.bytes_written - before.bytes_written,
            write_requests: self.write_requests - before.write_requests,
        }
    }
}

/// CPU work counters (evaluation effort).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Elements compared during scans and candidate checks.
    pub elements_scanned: u64,
    /// Compressed bitmap words processed.
    pub bitmap_words: u64,
    /// Binary-search probes on sorted replicas.
    pub sorted_probes: u64,
    /// Histogram bins inspected (pruning + estimation).
    pub histogram_bins: u64,
    /// Elements gathered for `get_data`.
    pub elements_gathered: u64,
}

impl WorkCounters {
    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: &WorkCounters) {
        self.elements_scanned += other.elements_scanned;
        self.bitmap_words += other.bitmap_words;
        self.sorted_probes += other.sorted_probes;
        self.histogram_bins += other.histogram_bins;
        self.elements_gathered += other.elements_gathered;
    }

    /// The counts accumulated since the snapshot `before`.
    pub fn since(&self, before: &WorkCounters) -> Self {
        Self {
            elements_scanned: self.elements_scanned - before.elements_scanned,
            bitmap_words: self.bitmap_words - before.bitmap_words,
            sorted_probes: self.sorted_probes - before.sorted_probes,
            histogram_bins: self.histogram_bins - before.histogram_bins,
            elements_gathered: self.elements_gathered - before.elements_gathered,
        }
    }
}

/// Network counters (client↔server messages).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Messages sent.
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
}

impl NetCounters {
    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: &NetCounters) {
        self.messages += other.messages;
        self.bytes += other.bytes;
    }
}

/// Data-plane integrity event counters: checksum failures observed,
/// repairs from the durable copy, auxiliary-structure rebuilds, and
/// regions answered by the full-scan fallback after their index failed
/// validation. Deterministic for a fixed seed, like every other counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityCounters {
    /// Payload checksum mismatches detected at read time.
    pub checksum_failures: u64,
    /// Regions restored from their pristine durable copy.
    pub repaired_regions: u64,
    /// Auxiliary structures (bitmap index, histogram, sorted replica)
    /// rebuilt from data after failing validation.
    pub aux_rebuilds: u64,
    /// Regions answered via the full-scan fallback path because their
    /// bitmap index could not be trusted.
    pub fallback_regions: u64,
}

impl IntegrityCounters {
    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: &IntegrityCounters) {
        self.checksum_failures += other.checksum_failures;
        self.repaired_regions += other.repaired_regions;
        self.aux_rebuilds += other.aux_rebuilds;
        self.fallback_regions += other.fallback_regions;
    }

    /// The counts accumulated since the snapshot `before`.
    pub fn since(&self, before: &IntegrityCounters) -> Self {
        Self {
            checksum_failures: self.checksum_failures - before.checksum_failures,
            repaired_regions: self.repaired_regions - before.repaired_regions,
            aux_rebuilds: self.aux_rebuilds - before.aux_rebuilds,
            fallback_regions: self.fallback_regions - before.fallback_regions,
        }
    }

    /// Whether any integrity event fired.
    pub fn any(&self) -> bool {
        self.checksum_failures != 0
            || self.repaired_regions != 0
            || self.aux_rebuilds != 0
            || self.fallback_regions != 0
    }
}

/// A decomposed simulated cost: where did the time go?
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostBreakdown {
    /// Time spent in storage I/O.
    pub io: SimDuration,
    /// Time spent in CPU evaluation.
    pub cpu: SimDuration,
    /// Time spent in network transfer.
    pub net: SimDuration,
    /// Time spent failing slots over along their preference lists after
    /// server failures (detection waits plus the retry rounds' re-evaluation
    /// on the next live member); zero on a fault-free run.
    pub failover: SimDuration,
    /// Time spent on data-plane integrity: verifying checksums that
    /// failed, re-reading durable copies, and rebuilding auxiliary
    /// structures; zero on a corruption-free run.
    pub integrity: SimDuration,
}

impl CostBreakdown {
    /// Total of all components.
    pub fn total(&self) -> SimDuration {
        self.io + self.cpu + self.net + self.failover + self.integrity
    }

    /// Merge another breakdown into this one.
    pub fn merge(&mut self, other: &CostBreakdown) {
        self.io += other.io;
        self.cpu += other.cpu;
        self.net += other.net;
        self.failover += other.failover;
        self.integrity += other.integrity;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_merge_adds_fields() {
        let mut a = IoCounters { pfs_bytes_read: 100, pfs_read_requests: 2, ..Default::default() };
        let b = IoCounters {
            pfs_bytes_read: 50,
            pfs_read_requests: 1,
            cache_hits: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.pfs_bytes_read, 150);
        assert_eq!(a.pfs_read_requests, 3);
        assert_eq!(a.cache_hits, 3);
    }

    #[test]
    fn work_and_net_merge() {
        let mut w = WorkCounters { elements_scanned: 10, ..Default::default() };
        w.merge(&WorkCounters { elements_scanned: 5, bitmap_words: 7, ..Default::default() });
        assert_eq!(w.elements_scanned, 15);
        assert_eq!(w.bitmap_words, 7);

        let mut n = NetCounters { messages: 1, bytes: 100 };
        n.merge(&NetCounters { messages: 2, bytes: 50 });
        assert_eq!(n.messages, 3);
        assert_eq!(n.bytes, 150);
    }

    #[test]
    fn integrity_merge_and_any() {
        let mut a = IntegrityCounters { checksum_failures: 1, ..Default::default() };
        assert!(a.any());
        a.merge(&IntegrityCounters { repaired_regions: 2, fallback_regions: 3, ..Default::default() });
        assert_eq!(a.checksum_failures, 1);
        assert_eq!(a.repaired_regions, 2);
        assert_eq!(a.fallback_regions, 3);
        assert!(!IntegrityCounters::default().any());
    }

    #[test]
    fn breakdown_total() {
        let b = CostBreakdown {
            io: SimDuration::from_millis(5),
            cpu: SimDuration::from_millis(2),
            net: SimDuration::from_millis(1),
            failover: SimDuration::from_millis(7),
            integrity: SimDuration::from_millis(0),
        };
        assert_eq!(b.total().as_millis_f64(), 15.0);
        let mut c = CostBreakdown::default();
        c.merge(&b);
        c.merge(&b);
        assert_eq!(c.total().as_millis_f64(), 30.0);
        assert_eq!(c.failover.as_millis_f64(), 14.0);
    }
}
