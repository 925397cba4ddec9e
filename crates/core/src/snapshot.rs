//! Epoch-consistent metadata snapshots for in-flight queries.
//!
//! Streaming ingest ([`pdc_odms::Odms::append_array`]) can grow an
//! object while a query is being evaluated. Servers therefore never read
//! object metadata, region histograms, or the sorted replica from the
//! live registry during evaluation: the client captures a
//! [`MetaSnapshot`] of every object a plan touches at plan time, and the
//! whole evaluation — region enumeration, prune estimates, adaptive
//! operator choices, the sorted-band decision — is a pure function of
//! that snapshot. An append that lands mid-query changes what the *next*
//! plan sees; the in-flight query answers exactly the extent it planned
//! against, bit-identical to a store sealed at the same epoch
//! (property-tested in `tests/ingest_consistency.rs`).
//!
//! Two ingest-specific staleness rules live here:
//!
//! * **Capture order.** `append_array` publishes grown histograms
//!   *before* it registers the grown metadata, so the snapshot reads the
//!   metadata first: the histogram list read afterwards always covers at
//!   least the metadata's regions (a concurrently-landing append can
//!   only make it longer, and a longer list is harmless — evaluation
//!   iterates the metadata's region count).
//! * **Sorted staleness.** A replica sorts exactly the elements that
//!   existed when it was built. After an append it still answers the old
//!   extent correctly, but the snapshot's metadata may already describe
//!   the grown object; [`MetaSnapshot::sorted_available`] therefore
//!   requires the replica to cover the snapshot's element count exactly,
//!   degrading `SortedHistogram`/`Adaptive` to the per-region path until
//!   deferred maintenance rebuilds the replica.

use pdc_directory::{JointGrid, RegionDirectory};
use pdc_histogram::Histogram;
use pdc_odms::{ObjectMeta, Odms};
use pdc_sorted::SortedReplica;
use pdc_types::{ObjectId, PdcError, PdcResult};
use std::collections::HashMap;
use std::sync::Arc;

/// The one rule for when a region directory may stand in for the
/// region-metadata walk: it must index at least the regions `meta`
/// describes. `append_array` publishes the grown directory before the
/// grown metadata, so a maintained directory always passes; one that was
/// never built, or that lags the metadata, yields `None` and both
/// consumers — evaluation and the shared-scan prewarm — fall back to
/// visiting every region. (The integrity preflight reads the raw
/// directory instead: a lagging one fails its `self_check` and is
/// rebuilt.)
pub(crate) fn usable_directory(
    dir: Option<Arc<RegionDirectory>>,
    meta: &ObjectMeta,
) -> Option<Arc<RegionDirectory>> {
    dir.filter(|d| d.num_regions() >= meta.num_regions())
}

/// One object's pinned metadata view.
struct ObjectView {
    meta: Arc<ObjectMeta>,
    hists: Option<Arc<Vec<Histogram>>>,
    sorted: Option<Arc<SortedReplica>>,
    directory: Option<Arc<RegionDirectory>>,
}

/// The pinned metadata of every object one query plan touches, captured
/// at plan time. Cheap to clone views out of (everything is `Arc`d);
/// cached alongside the plan in the engine's plan cache so a batch
/// replays the identical snapshot for the identical canonical query.
pub struct MetaSnapshot {
    epoch: u64,
    views: HashMap<ObjectId, ObjectView>,
    joints: Vec<Arc<JointGrid>>,
}

impl MetaSnapshot {
    /// Pin the metadata views of `objects` at the current store epoch.
    pub fn capture(odms: &Odms, objects: &[ObjectId]) -> PdcResult<MetaSnapshot> {
        let epoch = odms.store().epoch();
        let mut views = HashMap::with_capacity(objects.len());
        for &obj in objects {
            // Metadata first (see module docs: the registration order of
            // `append_array` makes meta-then-histograms the safe order).
            // The directory is read after the histograms; `append_array`
            // publishes it *before* them, so the pinned directory is
            // never older than the pinned histograms — at worst newer,
            // i.e. wider bounds, whose candidate sets are supersets and
            // therefore still sound.
            let meta = odms.meta().get(obj)?;
            let hists = odms.meta().region_histograms(obj).ok();
            let sorted = if meta.has_sorted_replica {
                odms.meta().sorted_replica(obj).ok()
            } else {
                None
            };
            let directory = odms.meta().directory(obj);
            views.insert(obj, ObjectView { meta, hists, sorted, directory });
        }
        // Joint grids whose both sides the plan touches. Grids carry
        // their own per-region coverage rule (`rect_upper` declines when
        // the pinned extent outruns the grid), so no staleness gate is
        // needed here.
        let mut joints = Vec::new();
        for (a, b) in odms.meta().all_joint_pairs() {
            if views.contains_key(&a) && views.contains_key(&b) {
                if let Some(g) = odms.meta().joint_grid(a, b) {
                    joints.push(g);
                }
            }
        }
        Ok(MetaSnapshot { epoch, views, joints })
    }

    /// The store epoch observed when the snapshot was captured.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn view(&self, object: ObjectId) -> PdcResult<&ObjectView> {
        self.views.get(&object).ok_or(PdcError::NoSuchObject(object))
    }

    /// The pinned metadata of `object`.
    pub fn meta(&self, object: ObjectId) -> PdcResult<Arc<ObjectMeta>> {
        Ok(Arc::clone(&self.view(object)?.meta))
    }

    /// The pinned per-region histograms of `object` (errors when the
    /// object carries none).
    pub fn region_histograms(&self, object: ObjectId) -> PdcResult<Arc<Vec<Histogram>>> {
        self.view(object)?.hists.clone().ok_or_else(|| {
            PdcError::MissingPrerequisite(format!("region histograms of {object}"))
        })
    }

    /// The pinned per-region histograms, or `None` when absent (the
    /// advisory lanes' lookup).
    pub fn region_histograms_opt(&self, object: ObjectId) -> Option<Arc<Vec<Histogram>>> {
        self.views.get(&object).and_then(|v| v.hists.clone())
    }

    /// The pinned sorted replica of `object`.
    pub fn sorted_replica(&self, object: ObjectId) -> PdcResult<Arc<SortedReplica>> {
        self.view(object)?.sorted.clone().ok_or_else(|| {
            PdcError::MissingPrerequisite(format!("sorted replica of {object}"))
        })
    }

    /// The pinned region directory of `object`, when it can answer for
    /// this snapshot (see `usable_directory`). `None` sends the
    /// evaluator down the full region walk.
    pub fn directory(&self, object: ObjectId) -> Option<Arc<RegionDirectory>> {
        let v = self.views.get(&object)?;
        usable_directory(v.directory.clone(), &v.meta)
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
        self.views.get(&object).is_some_and(|v| {
            v.meta.has_sorted_replica
                && v.sorted.as_ref().is_some_and(|r| r.len() == v.meta.num_elements())
        })
    }
}
