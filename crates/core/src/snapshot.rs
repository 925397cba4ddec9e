//! Pinned metadata snapshots for in-flight queries.
//!
//! Streaming ingest ([`pdc_odms::Odms::append_array`]) can grow an
//! object while a query is being evaluated. Servers therefore never read
//! object metadata, region histograms, index sizes or the sorted replica
//! from the live registry during evaluation: the client captures a
//! [`MetaSnapshot`] of every object a plan touches at plan time, and the
//! whole evaluation — region enumeration, prune estimates, adaptive
//! operator choices, the sorted-band decision — is a pure function of
//! that snapshot. An append that lands mid-query changes what the *next*
//! plan sees; the in-flight query answers exactly the extent it planned
//! against, bit-identical to a store sealed at the same extent
//! (property-tested in `tests/ingest_consistency.rs`).
//!
//! **One version per object.** The snapshot pins each object's current
//! [`ObjectVersion`], which the metadata service publishes whole, so the
//! metadata, histograms, directory and index sizes a query reads always
//! describe the same regions. Two rules remain, and both are about real
//! states, not read order:
//!
//! * **Directory.** [`MetaSnapshot::directory`] refuses a directory that
//!   indexes fewer regions than the metadata — a damaged or deliberately
//!   stripped one — and evaluation walks every region instead.
//! * **Sorted staleness.** A replica sorts exactly the elements that
//!   existed when it was built. After an append it still answers the old
//!   extent correctly, but the version's metadata already describes the
//!   grown object; [`MetaSnapshot::sorted_available`] therefore requires
//!   the replica to cover the snapshot's element count exactly,
//!   degrading `SortedHistogram`/`Adaptive` to the per-region path until
//!   deferred maintenance rebuilds the replica.
//!
//! **Currency.** The engine's plan cache reuses a plan and its snapshot
//! only while [`MetaSnapshot::is_current`] holds: every pinned version is
//! still its object's current one, by `Arc::ptr_eq`, and the joint grids
//! over its objects are the ones it pinned. Every metadata mutation
//! publishes a new `Arc`, and the snapshot keeps the pinned ones alive,
//! so an address cannot be reused while the check depends on it.

use pdc_directory::{JointGrid, RegionDirectory};
use pdc_histogram::Histogram;
use pdc_odms::{ObjectMeta, ObjectVersion, Odms};
use pdc_sorted::SortedReplica;
use pdc_types::{ObjectId, PdcError, PdcResult};
use std::collections::HashMap;
use std::sync::Arc;

/// The pinned metadata of every object one query plan touches, captured
/// at plan time. Cheap to clone views out of (everything is `Arc`d);
/// cached alongside the plan in the engine's plan cache so a served
/// series replays the identical snapshot for the identical canonical query.
pub struct MetaSnapshot {
    versions: HashMap<ObjectId, Arc<ObjectVersion>>,
    joints: Vec<Arc<JointGrid>>,
}

impl MetaSnapshot {
    /// Pin the current versions of `objects`.
    pub fn capture(odms: &Odms, objects: &[ObjectId]) -> PdcResult<MetaSnapshot> {
        let mut versions = HashMap::with_capacity(objects.len());
        for &obj in objects {
            versions.insert(obj, odms.meta().version(obj)?);
        }
        let joints = Self::joint_grids_of(odms, &versions);
        Ok(MetaSnapshot { versions, joints })
    }

    /// The registered joint grids both of whose objects `versions`
    /// covers, in pair order. Grids carry their own per-region coverage
    /// rule (`rect_upper` declines when the pinned extent outruns the
    /// grid), so no staleness gate is needed here.
    fn joint_grids_of(
        odms: &Odms,
        versions: &HashMap<ObjectId, Arc<ObjectVersion>>,
    ) -> Vec<Arc<JointGrid>> {
        odms.meta()
            .all_joint_pairs()
            .into_iter()
            .filter(|(a, b)| versions.contains_key(a) && versions.contains_key(b))
            .filter_map(|(a, b)| odms.meta().joint_grid(a, b))
            .collect()
    }

    /// Whether every pinned version is still its object's current one,
    /// and no joint grid over its objects was registered since: a plan
    /// built against the snapshot is then exactly what planning afresh
    /// would build.
    pub fn is_current(&self, odms: &Odms) -> bool {
        self.versions
            .iter()
            .all(|(&obj, v)| odms.meta().version(obj).is_ok_and(|now| Arc::ptr_eq(v, &now)))
            && {
                let joints = Self::joint_grids_of(odms, &self.versions);
                joints.len() == self.joints.len()
                    && joints.iter().zip(&self.joints).all(|(a, b)| Arc::ptr_eq(a, b))
            }
    }

    /// The pinned version of `object`.
    pub fn version(&self, object: ObjectId) -> PdcResult<&ObjectVersion> {
        self.versions.get(&object).map(|v| &**v).ok_or(PdcError::NoSuchObject(object))
    }

    /// The pinned metadata of `object`.
    pub fn meta(&self, object: ObjectId) -> PdcResult<Arc<ObjectMeta>> {
        Ok(Arc::clone(&self.version(object)?.meta))
    }

    /// The pinned per-region histograms of `object` (errors when the
    /// object carries none).
    pub fn region_histograms(&self, object: ObjectId) -> PdcResult<Arc<Vec<Histogram>>> {
        self.version(object)?.region_hists.clone().ok_or_else(|| {
            PdcError::MissingPrerequisite(format!("region histograms of {object}"))
        })
    }

    /// The pinned per-region histograms, or `None` when absent (the
    /// advisory lanes' lookup).
    pub fn region_histograms_opt(&self, object: ObjectId) -> Option<Arc<Vec<Histogram>>> {
        self.version(object).ok()?.region_hists.clone()
    }

    /// The pinned sorted replica of `object`, with the number of the
    /// version that published it — the key of its regions' residency on
    /// the servers.
    pub fn sorted_replica(&self, object: ObjectId) -> PdcResult<(u64, Arc<SortedReplica>)> {
        let v = self.version(object)?;
        v.sorted.clone().filter(|_| v.meta.has_sorted_replica).ok_or_else(|| {
            PdcError::MissingPrerequisite(format!("sorted replica of {object}"))
        })
    }

    /// The pinned region directory of `object`, when it may stand in for
    /// the region-metadata walk: it must index at least the regions the
    /// pinned metadata describes. A published directory always does; a
    /// damaged or deliberately stripped one yields `None`, which sends
    /// the evaluator down the full region walk. (The integrity preflight
    /// reads the raw directory instead: a short one fails its
    /// `self_check` and is rebuilt.)
    pub fn directory(&self, object: ObjectId) -> Option<Arc<RegionDirectory>> {
        let v = self.version(object).ok()?;
        v.directory.clone().filter(|d| d.num_regions() >= v.meta.num_regions())
    }

    /// The pinned joint-bounds grids both of whose objects this snapshot
    /// covers.
    pub fn joint_grids(&self) -> &[Arc<JointGrid>] {
        &self.joints
    }

    /// Whether the sorted replica can answer for this snapshot: present
    /// *and* covering exactly the snapshot's element count. An appended
    /// object's replica is stale until deferred maintenance rebuilds it.
    pub fn sorted_available(&self, object: ObjectId) -> bool {
        self.version(object).is_ok_and(|v| {
            v.meta.has_sorted_replica
                && v.sorted.as_ref().is_some_and(|(_, r)| r.len() == v.meta.num_elements())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_odms::ImportOptions;
    use pdc_storage::StorageTier;
    use pdc_types::{RegionId, TypedVec};

    #[test]
    fn is_current_until_metadata_is_republished() {
        let odms = Odms::new(4);
        let c = odms.create_container("t");
        let opts = ImportOptions {
            region_bytes: 4096,
            build_index: true,
            build_sorted: true,
            ..Default::default()
        };
        let data = |k: usize| TypedVec::Float((0..8192).map(|i| ((i * k) % 97) as f32).collect());
        let a = odms.import_array(c, "a", data(7), &opts).unwrap().object;
        let b = odms.import_array(c, "b", data(13), &opts).unwrap().object;
        let current = || MetaSnapshot::capture(&odms, &[a, b]).unwrap();

        // Data moves and damage publish no metadata.
        let snap = current();
        odms.store().migrate(RegionId::new(a, 0), StorageTier::BurstBuffer).unwrap();
        odms.store().corrupt(RegionId::new(a, 1), 3).unwrap();
        assert!(snap.is_current(&odms));

        // Each metadata publication retires the snapshot.
        let snap = current();
        odms.store().repair(RegionId::new(a, 1)).unwrap();
        odms.rebuild_region_histogram(a, 0).unwrap();
        assert!(!snap.is_current(&odms), "a rebuilt region histogram");
        // Evaluation reads the recorded index sizes, so a rebuilt index
        // region retires the snapshot too.
        let snap = current();
        odms.rebuild_index_region(a, 0).unwrap();
        assert!(!snap.is_current(&odms), "a rebuilt index region");
        let snap = current();
        odms.register_joint_pair(a, b).unwrap();
        assert!(!snap.is_current(&odms), "a joint pair registered since capture");
        let snap = current();
        odms.append_array(b, &data(5)).unwrap();
        assert!(!snap.is_current(&odms), "an append");
        let snap = current();
        odms.run_deferred_maintenance().unwrap();
        assert!(!snap.is_current(&odms), "a republished sorted replica");
        assert!(current().is_current(&odms));
    }
}
