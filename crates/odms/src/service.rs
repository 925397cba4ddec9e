//! The metadata service.
//!
//! In PDC, "a metadata object is managed by only one server to guarantee
//! consistency"; metadata is small, pre-loaded, and served from memory.
//! This service holds the object registry — one [`ObjectVersion`] per
//! object, published whole under one lock, so a reader never sees half an
//! update — the attribute (tag) inverted index used by `PDCquery_tag`-style
//! metadata queries, and the joint-bounds grids of registered pairs.

use crate::meta::{MetaValue, ObjectMeta};
use pdc_directory::{JointGrid, RegionDirectory};
use pdc_histogram::{merge_all, Histogram};
use pdc_sorted::SortedReplica;
use pdc_types::{ContainerId, ObjectId, PdcError, PdcResult, RegionId, ServerId, Unpoison};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One published state of an object: its metadata and every structure
/// derived from its data, each an `Arc`, so publishing a version copies
/// pointers and pinning one pins all of it.
#[derive(Debug, Clone)]
pub struct ObjectVersion {
    /// This publication's number, from the service's counter.
    pub version: u64,
    /// The object's metadata.
    pub meta: Arc<ObjectMeta>,
    /// Per-region local histograms.
    pub region_hists: Option<Arc<Vec<Histogram>>>,
    /// The merged **global histogram**.
    pub global_hist: Option<Arc<Histogram>>,
    /// Serialized bitmap-index bytes per region (0: rebuild pending).
    pub index_sizes: Option<Arc<Vec<u64>>>,
    /// Hierarchical region directory (bin tree over region value bounds).
    pub directory: Option<Arc<RegionDirectory>>,
    /// The sorted replica, with the number of the version that published
    /// it. Publications that leave the replica alone carry the pair
    /// unchanged, so the number names the replica's contents.
    pub sorted: Option<(u64, Arc<SortedReplica>)>,
}

impl ObjectVersion {
    /// Record the per-region local histograms and merge them into the
    /// global histogram.
    pub fn set_region_histograms(&mut self, hists: Vec<Histogram>) {
        self.global_hist = merge_all(hists.iter()).map(Arc::new);
        self.region_hists = Some(Arc::new(hists));
    }

    /// Record `replica` as published by this version.
    pub fn set_sorted_replica(&mut self, replica: SortedReplica) {
        self.sorted = Some((self.version, Arc::new(replica)));
    }
}

/// In-memory metadata service.
#[derive(Debug, Default)]
pub struct MetadataService {
    next_id: AtomicU64,
    /// The counter behind [`ObjectVersion::version`].
    next_version: AtomicU64,
    /// Every object's current version.
    objects: RwLock<HashMap<ObjectId, Arc<ObjectVersion>>>,
    by_name: RwLock<HashMap<String, ObjectId>>,
    containers: RwLock<HashMap<ContainerId, String>>,
    /// Inverted attribute index: key -> value -> object ids.
    attr_index: RwLock<HashMap<String, HashMap<MetaValue, Vec<ObjectId>>>>,
    /// Joint-bounds grids of registered variable pairs, keyed by the
    /// pair in registration order.
    joint_grids: RwLock<HashMap<(ObjectId, ObjectId), Arc<JointGrid>>>,
}

impl MetadataService {
    /// A fresh service.
    pub fn new() -> Self {
        Self { next_id: AtomicU64::new(1), ..Default::default() }
    }

    /// Allocate a new unique id.
    pub fn alloc_id(&self) -> ObjectId {
        ObjectId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Create a container.
    pub fn create_container(&self, name: &str) -> ContainerId {
        let id = ContainerId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.containers.write().unpoisoned().insert(id, name.to_string());
        id
    }

    /// Container name lookup.
    pub fn container_name(&self, id: ContainerId) -> Option<String> {
        self.containers.read().unpoisoned().get(&id).cloned()
    }

    /// Register an object and index its attributes. `build` fills in the
    /// rest of its first version, so the object becomes visible whole;
    /// registering an id again replaces its version whole.
    pub fn register_object(
        &self,
        meta: ObjectMeta,
        build: impl FnOnce(&mut ObjectVersion),
    ) -> Arc<ObjectMeta> {
        let meta = Arc::new(meta);
        self.by_name.write().unpoisoned().insert(meta.name.clone(), meta.id);
        {
            let mut idx = self.attr_index.write().unpoisoned();
            for (k, v) in &meta.attrs {
                let list = idx.entry(k.clone()).or_default().entry(v.clone()).or_default();
                // Re-registering an id must not leave duplicate postings.
                if !list.contains(&meta.id) {
                    list.push(meta.id);
                }
            }
        }
        let mut objects = self.objects.write().unpoisoned();
        let mut first = ObjectVersion {
            version: self.next_version.fetch_add(1, Ordering::Relaxed),
            meta: Arc::clone(&meta),
            region_hists: None,
            global_hist: None,
            index_sizes: None,
            directory: None,
            sorted: None,
        };
        build(&mut first);
        objects.insert(meta.id, Arc::new(first));
        meta
    }

    /// Publish `id`'s next version: `edit` changes a copy of the current
    /// one (its number already advanced), and the copy replaces it under
    /// the registry's write lock, so `edit` must not call back into the
    /// service. Nothing is published when `edit` fails.
    pub fn update(
        &self,
        id: ObjectId,
        edit: impl FnOnce(&mut ObjectVersion) -> PdcResult<()>,
    ) -> PdcResult<()> {
        let mut objects = self.objects.write().unpoisoned();
        let current = objects.get(&id).ok_or(PdcError::NoSuchObject(id))?;
        let mut next = ObjectVersion {
            version: self.next_version.fetch_add(1, Ordering::Relaxed),
            ..(**current).clone()
        };
        edit(&mut next)?;
        objects.insert(id, Arc::new(next));
        Ok(())
    }

    /// The current version of an object.
    pub fn version(&self, id: ObjectId) -> PdcResult<Arc<ObjectVersion>> {
        self.objects.read().unpoisoned().get(&id).cloned().ok_or(PdcError::NoSuchObject(id))
    }

    /// One part of an object's current version, or `MissingPrerequisite`
    /// naming `what`.
    fn part<T>(
        &self,
        id: ObjectId,
        what: &str,
        pick: impl FnOnce(&ObjectVersion) -> Option<Arc<T>>,
    ) -> PdcResult<Arc<T>> {
        self.version(id)
            .ok()
            .and_then(|v| pick(&v))
            .ok_or_else(|| PdcError::MissingPrerequisite(format!("{what} of {id}")))
    }

    /// Fetch an object's metadata.
    pub fn get(&self, id: ObjectId) -> PdcResult<Arc<ObjectMeta>> {
        Ok(Arc::clone(&self.version(id)?.meta))
    }

    /// Look an object up by name.
    pub fn lookup_name(&self, name: &str) -> PdcResult<Arc<ObjectMeta>> {
        let id = self.by_name.read().unpoisoned().get(name).copied();
        self.get(id.ok_or_else(|| PdcError::NotFound(format!("object '{name}'")))?)
    }

    /// Number of registered objects.
    pub fn num_objects(&self) -> usize {
        self.objects.read().unpoisoned().len()
    }

    /// Every object's current version, ordered by id.
    pub fn versions(&self) -> Vec<Arc<ObjectVersion>> {
        let mut out: Vec<_> = self.objects.read().unpoisoned().values().cloned().collect();
        out.sort_by_key(|v| v.meta.id);
        out
    }

    /// All object metadata records (cloned), ordered by id.
    pub fn all_objects(&self) -> Vec<ObjectMeta> {
        self.versions().iter().map(|v| (*v.meta).clone()).collect()
    }

    /// All containers as `(raw id, name)`, ordered by id.
    pub fn all_containers(&self) -> Vec<(u64, String)> {
        let containers = self.containers.read().unpoisoned();
        let mut out: Vec<(u64, String)> =
            containers.iter().map(|(id, n)| (id.raw(), n.clone())).collect();
        out.sort_unstable();
        out
    }

    /// The next-id watermark (for persistence).
    pub fn next_id_watermark(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// Raise the id allocator to at least `watermark` (restore path).
    pub fn bump_next_id(&self, watermark: u64) {
        self.next_id.fetch_max(watermark, Ordering::Relaxed);
    }

    /// Re-register a container under its original id (restore path).
    pub fn restore_container(&self, id: ContainerId, name: &str) {
        self.containers.write().unpoisoned().insert(id, name.to_string());
    }

    /// The owner server of a metadata object: consistent hashing over
    /// `num_servers` ("a metadata object is managed by only one server").
    pub fn owner(&self, id: ObjectId, num_servers: u32) -> ServerId {
        // Fibonacci hashing spreads sequential ids evenly.
        let h = id.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ServerId((h >> 32) as u32 % num_servers.max(1))
    }

    /// Metadata (tag) query: objects whose attributes match **all** the
    /// given key/value conditions. This is the `PDCquery_tag` path used by
    /// the H5BOSS experiment ("RADEG=153.17 AND DECDEG=23.06").
    pub fn query_tags(&self, conds: &[(&str, MetaValue)]) -> Vec<ObjectId> {
        if conds.is_empty() {
            return Vec::new();
        }
        let idx = self.attr_index.read().unpoisoned();
        let lists = conds.iter().map(|(k, v)| idx.get(*k).and_then(|m| m.get(v)));
        let Some(mut lists) = lists.collect::<Option<Vec<&Vec<ObjectId>>>>() else {
            return Vec::new();
        };
        // Start from the rarest condition to keep the intersection cheap.
        lists.sort_by_key(|l| l.len());
        let mut result: Vec<ObjectId> = lists[0].clone();
        for list in &lists[1..] {
            let set: std::collections::HashSet<ObjectId> = list.iter().copied().collect();
            result.retain(|id| set.contains(id));
        }
        result.sort_unstable();
        result
    }

    /// The local histograms of an object's regions.
    pub fn region_histograms(&self, id: ObjectId) -> PdcResult<Arc<Vec<Histogram>>> {
        self.part(id, "histograms", |v| v.region_hists.clone())
    }

    /// The merged global histogram of an object (`PDCquery_get_histogram`):
    /// "automatically generated by the PDC system at no additional cost".
    pub fn global_histogram(&self, id: ObjectId) -> PdcResult<Arc<Histogram>> {
        self.part(id, "global histogram", |v| v.global_hist.clone())
    }

    /// Replace one region's local histogram and re-merge the object's
    /// global histogram — the integrity path after a region histogram
    /// fails [`Histogram::self_check`] and is rebuilt from data.
    pub fn replace_region_histogram(
        &self,
        id: ObjectId,
        region: u32,
        hist: Histogram,
    ) -> PdcResult<()> {
        self.update(id, |v| {
            let mut hists = v.region_hists.as_deref().cloned().unwrap_or_default();
            let slot = hists.get_mut(region as usize);
            *slot.ok_or(PdcError::NoSuchRegion(RegionId::new(id, region)))? = hist;
            v.set_region_histograms(hists);
            Ok(())
        })
    }

    /// Publish a sorted replica for a registered object.
    pub fn set_sorted_replica(&self, id: ObjectId, replica: SortedReplica) {
        let _ = self.update(id, |v| {
            v.set_sorted_replica(replica);
            Ok(())
        });
    }

    /// The sorted replica of an object, if built.
    pub fn sorted_replica(&self, id: ObjectId) -> PdcResult<Arc<SortedReplica>> {
        self.part(id, "sorted replica", |v| v.sorted.as_ref().map(|(_, r)| Arc::clone(r)))
    }

    /// Serialized per-region index sizes (used for I/O accounting and the
    /// E6 overhead experiment).
    pub fn index_sizes(&self, id: ObjectId) -> PdcResult<Arc<Vec<u64>>> {
        self.part(id, "index", |v| v.index_sizes.clone())
    }

    /// Publish (or replace) a registered object's region directory.
    pub fn set_directory(&self, id: ObjectId, directory: RegionDirectory) {
        let _ = self.update(id, |v| {
            v.directory = Some(Arc::new(directory));
            Ok(())
        });
    }

    /// The hierarchical region directory of an object, if built. Absence
    /// is not an error: the directory is advisory and every consumer
    /// falls back to the full region-metadata walk.
    pub fn directory(&self, id: ObjectId) -> Option<Arc<RegionDirectory>> {
        self.version(id).ok()?.directory.clone()
    }

    /// Record (or replace) the joint-bounds grid of a variable pair.
    pub fn set_joint_grid(&self, grid: JointGrid) {
        self.joint_grids.write().unpoisoned().insert(grid.pair(), Arc::new(grid));
    }

    /// The joint-bounds grid registered for exactly `(a, b)` (in
    /// registration order), if any.
    pub fn joint_grid(&self, a: ObjectId, b: ObjectId) -> Option<Arc<JointGrid>> {
        self.joint_grids.read().unpoisoned().get(&(a, b)).cloned()
    }

    /// Every joint-bounds grid that involves `id` (either side).
    pub fn joint_grids_for(&self, id: ObjectId) -> Vec<Arc<JointGrid>> {
        let grids = self.joint_grids.read().unpoisoned();
        let mine = grids.iter().filter(|((a, b), _)| *a == id || *b == id);
        let mut out: Vec<Arc<JointGrid>> = mine.map(|(_, g)| Arc::clone(g)).collect();
        out.sort_by_key(|g| g.pair());
        out
    }

    /// All registered pairs, ordered — the integrity sweep's worklist.
    pub fn all_joint_pairs(&self) -> Vec<(ObjectId, ObjectId)> {
        let mut out: Vec<(ObjectId, ObjectId)> =
            self.joint_grids.read().unpoisoned().keys().copied().collect();
        out.sort_unstable();
        out
    }

    /// Total in-memory metadata footprint of the histograms (bytes) — the
    /// metadata-overhead side of the region-size trade-off.
    pub fn histogram_metadata_bytes(&self, id: ObjectId) -> u64 {
        self.version(id).map_or(0, |v| {
            let local = v.region_hists.iter().flat_map(|hs| hs.iter());
            local.chain(v.global_hist.as_deref()).map(Histogram::size_bytes).sum()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_histogram::HistogramConfig;
    use pdc_types::{PdcType, Shape};
    use std::collections::BTreeMap;

    fn svc_with_objects(n: usize) -> (MetadataService, Vec<ObjectId>) {
        let svc = MetadataService::new();
        let c = svc.create_container("cont");
        let mut ids = Vec::new();
        for i in 0..n {
            let id = svc.alloc_id();
            let mut attrs = BTreeMap::new();
            attrs.insert("plate".to_string(), MetaValue::from((i % 10) as i64));
            attrs.insert("ra".to_string(), MetaValue::from((i % 4) as f64 * 10.0));
            let meta = ObjectMeta {
                id,
                container: c,
                name: format!("obj{i}"),
                pdc_type: PdcType::Float,
                shape: Shape::one_d(100),
                region_elems: 50,
                attrs,
                index_object: None,
                has_sorted_replica: false,
            };
            svc.register_object(meta, |_| {});
            ids.push(id);
        }
        (svc, ids)
    }

    #[test]
    fn register_and_lookup() {
        let (svc, ids) = svc_with_objects(5);
        assert_eq!(svc.num_objects(), 5);
        let m = svc.get(ids[2]).unwrap();
        assert_eq!(m.name, "obj2");
        assert_eq!(svc.lookup_name("obj4").unwrap().id, ids[4]);
        assert!(svc.lookup_name("missing").is_err());
        assert!(svc.get(ObjectId(999)).is_err());
    }

    #[test]
    fn container_name_roundtrip() {
        let svc = MetadataService::new();
        let c = svc.create_container("vpic-run-7");
        assert_eq!(svc.container_name(c).unwrap(), "vpic-run-7");
    }

    #[test]
    fn tag_query_intersects_conditions() {
        let (svc, _ids) = svc_with_objects(40);
        // plate = 3 matches i = 3, 13, 23, 33 -> 4 objects
        let hits = svc.query_tags(&[("plate", MetaValue::from(3i64))]);
        assert_eq!(hits.len(), 4);
        // plate = 3 AND ra = 30.0 matches i%10==3 && i%4==3 -> i=3,23
        let hits = svc.query_tags(&[
            ("plate", MetaValue::from(3i64)),
            ("ra", MetaValue::from(30.0)),
        ]);
        assert_eq!(hits.len(), 2);
        // no such value
        assert!(svc.query_tags(&[("plate", MetaValue::from(99i64))]).is_empty());
        // no such key
        assert!(svc.query_tags(&[("nope", MetaValue::from(1i64))]).is_empty());
        // empty conditions
        assert!(svc.query_tags(&[]).is_empty());
    }

    #[test]
    fn owner_assignment_is_stable_and_spread() {
        let (svc, ids) = svc_with_objects(1000);
        let mut counts = [0u32; 8];
        for &id in &ids {
            let s = svc.owner(id, 8);
            assert_eq!(s, svc.owner(id, 8), "stable");
            counts[s.raw() as usize] += 1;
        }
        // roughly balanced: no server owns more than 2.5x the fair share
        for (i, &c) in counts.iter().enumerate() {
            assert!(c < 1000 / 8 * 5 / 2, "server {i} owns {c}");
            assert!(c > 0, "server {i} owns nothing");
        }
    }

    #[test]
    fn histograms_global_merge_and_lookup() {
        let (svc, ids) = svc_with_objects(1);
        let id = ids[0];
        let cfg = HistogramConfig::default();
        let h1 = Histogram::build(&[1.0, 2.0, 3.0], &cfg).unwrap();
        let h2 = Histogram::build(&[10.0, 20.0], &cfg).unwrap();
        svc.update(id, |v| {
            v.set_region_histograms(vec![h1, h2]);
            Ok(())
        })
        .unwrap();
        let g = svc.global_histogram(id).unwrap();
        assert_eq!(g.total(), 5);
        assert_eq!(svc.region_histograms(id).unwrap().len(), 2);
        assert!(svc.histogram_metadata_bytes(id) > 0);
        assert!(svc.global_histogram(ObjectId(777)).is_err());
    }

    #[test]
    fn sorted_replica_registry() {
        let (svc, ids) = svc_with_objects(1);
        assert!(svc.sorted_replica(ids[0]).is_err());
        svc.set_sorted_replica(ids[0], SortedReplica::build(&[3.0, 1.0, 2.0], 2));
        let r = svc.sorted_replica(ids[0]).unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn index_sizes_registry() {
        let (svc, ids) = svc_with_objects(1);
        assert!(svc.index_sizes(ids[0]).is_err());
        svc.update(ids[0], |v| {
            v.index_sizes = Some(Arc::new(vec![100, 200]));
            Ok(())
        })
        .unwrap();
        assert_eq!(*svc.index_sizes(ids[0]).unwrap(), vec![100, 200]);
    }
}
