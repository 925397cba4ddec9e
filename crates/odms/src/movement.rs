//! Data movement across the storage hierarchy.
//!
//! PDC provides "asynchronous data movement across a hierarchy of memory
//! and storage layers" (§II): regions can be staged from the parallel
//! file system into the burst buffer (or DRAM) ahead of a query campaign
//! and demoted again when space is needed. The mover reports exactly what
//! moved so the harness can charge the simulated staging cost.
//!
//! The mover doubles as the data plane for k-way replication: when a
//! membership change (or a failure rebuild) hands a slot's regions to a
//! new replica server, [`Odms::rebuild_regions`] performs the
//! checksum-verified copy reads and reports the volume.

use crate::system::Odms;
use pdc_types::{ObjectId, PdcResult, RegionId};
use pdc_storage::StorageTier;

/// What a staging operation did. A staging pass *visits* every addressed
/// region (verifying and re-homing it), but only regions that were not
/// already on the target tier *move* bytes — the two counts answer
/// different questions ("what did you cover?" vs "what did it cost?") and
/// are reported separately.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MoveReport {
    /// Regions the pass addressed (already-resident ones included).
    pub regions_visited: u32,
    /// Regions that actually changed tier (bytes were moved for exactly
    /// these).
    pub regions_moved: u32,
    /// Payload bytes migrated (0 for an already-staged object).
    pub bytes: u64,
}

/// What a replication rebuild copied to new replica servers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebuildReport {
    /// Regions copied.
    pub regions: u32,
    /// Payload bytes copied.
    pub bytes: u64,
}

impl RebuildReport {
    /// Fold another report into this one.
    pub fn merge(&mut self, other: &RebuildReport) {
        self.regions += other.regions;
        self.bytes += other.bytes;
    }
}

impl Odms {
    /// Stage every region of `object` onto `tier` (e.g. pre-load an
    /// object into the burst buffer before a query campaign). Regions
    /// already on the target tier are visited but move no bytes.
    pub fn stage_object(&self, object: ObjectId, tier: StorageTier) -> PdcResult<MoveReport> {
        let mut report = MoveReport::default();
        for r in 0..self.meta().get(object)?.num_regions() {
            let rid = RegionId::new(object, r);
            let (_, current) = self.store().get(rid)?;
            let bytes = self.store().migrate(rid, tier)?;
            report.regions_visited += 1;
            if current != tier {
                report.regions_moved += 1;
                report.bytes += bytes;
            }
        }
        Ok(report)
    }

    /// Copy `regions` to their new replica servers: each region is read
    /// through the checksum-verified path (a rebuild must never replicate
    /// silent corruption) and its payload size accounted. Tier state is
    /// untouched — replica copies live on the receiving server, not in
    /// the shared hierarchy — so later query costs are unaffected.
    pub fn rebuild_regions<I>(&self, regions: I) -> PdcResult<RebuildReport>
    where
        I: IntoIterator<Item = RegionId>,
    {
        let mut report = RebuildReport::default();
        for rid in regions {
            let (payload, _) = self.store().get(rid)?;
            report.regions += 1;
            report.bytes += payload.size_bytes();
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::ImportOptions;
    use pdc_types::TypedVec;

    fn world() -> (Odms, ObjectId) {
        let odms = Odms::new(4);
        let c = odms.create_container("mv");
        let data: Vec<f32> = (0..10_000).map(|i| (i % 100) as f32).collect();
        let opts = ImportOptions { region_bytes: 4096, ..Default::default() };
        let obj = odms.import_array(c, "v", TypedVec::Float(data), &opts).unwrap().object;
        (odms, obj)
    }

    #[test]
    fn stage_object_moves_every_region_once() {
        let (odms, obj) = world();
        let report = odms.stage_object(obj, StorageTier::BurstBuffer).unwrap();
        assert_eq!(report.regions_visited, 10);
        assert_eq!(report.regions_moved, 10);
        assert_eq!(report.bytes, 40_000);
        // Idempotent: the second staging visits everything but moves
        // nothing — the distinction the two counters exist to pin.
        let again = odms.stage_object(obj, StorageTier::BurstBuffer).unwrap();
        assert_eq!(again.regions_visited, 10);
        assert_eq!(again.regions_moved, 0);
        assert_eq!(again.bytes, 0);
        for r in 0..10 {
            let tier = odms.store().tier_of(RegionId::new(obj, r)).unwrap();
            assert_eq!(tier, StorageTier::BurstBuffer, "region {r}");
        }
    }

    #[test]
    fn partially_staged_object_distinguishes_visited_from_moved() {
        let (odms, obj) = world();
        // Pre-stage regions 0..5; a full staging pass then visits all 10
        // but moves only the other 5.
        for r in 0..5 {
            odms.store().migrate(RegionId::new(obj, r), StorageTier::BurstBuffer).unwrap();
        }
        let report = odms.stage_object(obj, StorageTier::BurstBuffer).unwrap();
        assert_eq!(report.regions_visited, 10);
        assert_eq!(report.regions_moved, 5);
        // Regions 5..9 are 4096 B; the tail region holds the last
        // 784 floats (3136 B): 4 * 4096 + 3136.
        assert_eq!(report.bytes, 19_520);
    }

    #[test]
    fn migrate_single_region() {
        let (odms, obj) = world();
        let moved = odms.store().migrate(RegionId::new(obj, 3), StorageTier::Dram).unwrap();
        assert_eq!(moved, 4096);
        assert_eq!(odms.store().get(RegionId::new(obj, 3)).unwrap().1, StorageTier::Dram);
        assert_eq!(odms.store().get(RegionId::new(obj, 4)).unwrap().1, StorageTier::Pfs);
    }

    #[test]
    fn replication_rebuild_regions_counts_verified_copies() {
        let (odms, obj) = world();
        let ids: Vec<RegionId> = (0..10).map(|r| RegionId::new(obj, r)).collect();
        let report = odms.rebuild_regions(ids).unwrap();
        assert_eq!(report.regions, 10);
        assert_eq!(report.bytes, 40_000);
        // Tier state untouched: the copy is replica-side, not a migration.
        assert_eq!(odms.store().get(RegionId::new(obj, 0)).unwrap().1, StorageTier::Pfs);
        // A missing region is a typed error, not a silent skip.
        assert!(odms.rebuild_regions([RegionId::new(obj, 99)]).is_err());
    }

    #[test]
    fn missing_object_errors() {
        let (odms, _) = world();
        assert!(odms.stage_object(ObjectId(999), StorageTier::Dram).is_err());
    }
}
