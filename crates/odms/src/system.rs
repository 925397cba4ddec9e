//! The [`Odms`] facade: the assembled PDC substrate.
//!
//! Importing an array object performs PDC's ingest pipeline:
//!
//! 1. partition the array into regions of the configured size (§III-B);
//! 2. write each region's payload to the parallel-file-system tier;
//! 3. build each region's **local histogram** automatically ("a 'local'
//!    histogram is automatically generated for each data region when data
//!    is either produced within PDC or imported from an outside dataset")
//!    and fold them into the object's global histogram;
//! 4. optionally build the per-region **bitmap index** (serialized next to
//!    the data, like FastBit index files);
//! 5. optionally build the value-**sorted replica** ("we provide users the
//!    option to specify hints on how data should be organized").

use crate::meta::{MetaValue, ObjectMeta};
use crate::service::MetadataService;
use pdc_bitmap::{BinnedBitmapIndex, BinningConfig};
use pdc_bitmap::index::ValueDomain;
use pdc_directory::{JointGrid, RegionDirectory};
use pdc_histogram::{Histogram, HistogramConfig};
use pdc_sorted::SortedReplica;
use pdc_storage::{ObjectStore, StorageTier, StoredPayload};
use pdc_types::{ContainerId, ObjectId, PdcResult, RegionId, TypedVec, Unpoison};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, RwLock};

/// Options controlling an import. Histograms and bitmap indexes are
/// always built with the default [`HistogramConfig`] / [`BinningConfig`]
/// (the paper's fixed parameters), the same configuration appends and
/// integrity rebuilds use, so a rebuilt artifact equals the imported one.
#[derive(Debug, Clone)]
pub struct ImportOptions {
    /// Region size in bytes (the paper sweeps 4 MB – 128 MB).
    pub region_bytes: u64,
    /// Build a per-region bitmap index?
    pub build_index: bool,
    /// Build a value-sorted replica?
    pub build_sorted: bool,
    /// User attributes to attach.
    pub attrs: BTreeMap<String, MetaValue>,
}

impl Default for ImportOptions {
    fn default() -> Self {
        Self {
            region_bytes: 1 << 20,
            build_index: false,
            build_sorted: false,
            attrs: BTreeMap::new(),
        }
    }
}

/// The bitmap-index value domain of an element type.
fn value_domain(ty: pdc_types::PdcType) -> ValueDomain {
    match ty {
        pdc_types::PdcType::Float => ValueDomain::F32,
        pdc_types::PdcType::Double => ValueDomain::F64,
        _ => ValueDomain::Integer,
    }
}

/// What an import produced (sizes feed the E6 overhead experiment).
#[derive(Debug, Clone, Default)]
pub struct ImportReport {
    /// The new object's id.
    pub object: ObjectId,
    /// Number of regions created.
    pub regions: u32,
    /// Data bytes written.
    pub data_bytes: u64,
    /// Serialized index bytes written (0 when no index).
    pub index_bytes: u64,
    /// Sorted-replica bytes (0 when none).
    pub sorted_bytes: u64,
    /// Histogram metadata bytes.
    pub histogram_bytes: u64,
    /// Region-directory metadata bytes.
    pub directory_bytes: u64,
}

/// What one streaming append did (the ingest-side counterpart of
/// [`ImportReport`]).
#[derive(Debug, Clone, Default)]
pub struct AppendReport {
    /// The object appended to.
    pub object: ObjectId,
    /// Elements appended in this call.
    pub appended_elems: u64,
    /// The object's total element count after the append.
    pub total_elems: u64,
    /// Data bytes written (tail fill plus new regions).
    pub data_bytes: u64,
    /// The previously partial tail region that received a fill, if any.
    pub filled_tail: Option<u32>,
    /// Indices of freshly created regions.
    pub new_regions: Vec<u32>,
    /// Regions sealed by this append (they reached `region_elems`).
    pub sealed_regions: Vec<u32>,
    /// Index regions whose bitmap rebuild was deferred.
    pub pending_index_regions: Vec<u32>,
    /// Whether the sorted replica went stale (deferred rebuild queued).
    pub sorted_stale: bool,
}

/// What one deferred-maintenance pass rebuilt.
#[derive(Debug, Clone, Default)]
pub struct MaintenanceReport {
    /// Bitmap-index regions rebuilt.
    pub index_regions_rebuilt: u32,
    /// Sorted replicas brought to their object's current extent.
    pub sorted_replicas_rebuilt: u32,
    /// Appended elements merged into existing sorted replicas (0 for a
    /// replica that had to be rebuilt from scratch).
    pub sorted_elems_merged: u64,
    /// Total bytes written by the rebuilds.
    pub bytes_written: u64,
}

/// Auxiliary structures an append left stale, awaiting deferred rebuild.
#[derive(Debug, Default, Clone)]
struct PendingAux {
    index_regions: BTreeSet<u32>,
    sorted_stale: bool,
}

/// The assembled object-centric data management system.
#[derive(Debug)]
pub struct Odms {
    store: Arc<ObjectStore>,
    meta: Arc<MetadataService>,
    /// Deferred aux-maintenance queue: per object, the index regions and
    /// sorted replicas left stale by streaming appends. Drained by
    /// [`Odms::run_deferred_maintenance`]; queries stay correct in the
    /// meantime because probes fall back to verified scans for missing or
    /// wrong-extent index regions and the planner treats a stale sorted
    /// replica as unavailable.
    pending: RwLock<BTreeMap<ObjectId, PendingAux>>,
}

impl Odms {
    /// A new system with `num_osts` simulated storage targets.
    pub fn new(num_osts: u32) -> Self {
        Self {
            store: Arc::new(ObjectStore::new(num_osts)),
            meta: Arc::new(MetadataService::new()),
            pending: RwLock::new(BTreeMap::new()),
        }
    }

    /// The object store.
    pub fn store(&self) -> &Arc<ObjectStore> {
        &self.store
    }

    /// The metadata service.
    pub fn meta(&self) -> &Arc<MetadataService> {
        &self.meta
    }

    /// Create a container.
    pub fn create_container(&self, name: &str) -> ContainerId {
        self.meta.create_container(name)
    }

    /// Import a 1-D array as a new object (the PDC ingest pipeline).
    pub fn import_array(
        &self,
        container: ContainerId,
        name: &str,
        data: TypedVec,
        opts: &ImportOptions,
    ) -> PdcResult<ImportReport> {
        let n = data.len() as u64;
        self.import_array_nd(container, name, data, pdc_types::Shape::one_d(n), opts)
    }

    /// Import an N-dimensional array (row-major element order) as a new
    /// object. Regions partition the linearized element space — PDC's
    /// regions are storage units, not tiles — while the shape drives
    /// spatial constraints (`PDCquery_set_region`) and dimension checks
    /// for multi-object queries.
    pub fn import_array_nd(
        &self,
        container: ContainerId,
        name: &str,
        data: TypedVec,
        shape: pdc_types::Shape,
        opts: &ImportOptions,
    ) -> PdcResult<ImportReport> {
        if shape.num_elements() != data.len() as u64 {
            return Err(pdc_types::PdcError::InvalidQuery(format!(
                "shape {:?} does not match {} elements",
                shape.0,
                data.len()
            )));
        }
        let id = self.meta.alloc_id();
        let elem_bytes = data.pdc_type().size_bytes();
        let region_elems = (opts.region_bytes / elem_bytes).max(1);

        let index_object = opts.build_index.then(|| self.meta.alloc_id());
        let meta = ObjectMeta {
            id,
            container,
            name: name.to_string(),
            pdc_type: data.pdc_type(),
            shape,
            region_elems,
            attrs: opts.attrs.clone(),
            index_object,
            has_sorted_replica: opts.build_sorted,
        };
        let regions = meta.regions();
        let mut report = ImportReport {
            object: id,
            regions: regions.len() as u32,
            ..Default::default()
        };

        // Sorted replica is built from the whole array before it is carved
        // into regions (one global sort, as the paper's reorganization).
        // Only this build widens the whole array; the copy is gone before
        // the region loop starts.
        let replica = opts.build_sorted.then(|| {
            let replica = SortedReplica::build(&data.to_f64_vec(), region_elems);
            report.sorted_bytes = replica.size_bytes(elem_bytes);
            replica
        });

        let mut hists = Vec::with_capacity(regions.len());
        let mut index_sizes = Vec::new();
        // One region's values widened to `f64`, reused across regions: the
        // only array-sized memory an import allocates is the payloads it
        // stores.
        let mut region_f64: Vec<f64> = Vec::new();
        let hist_cfg = HistogramConfig::default();
        let binning = BinningConfig::default();
        let domain = value_domain(data.pdc_type());
        for (i, span) in regions.iter().enumerate() {
            let rid = RegionId::new(id, i as u32);
            let payload = data.slice(span.offset as usize, span.len as usize);
            report.data_bytes += payload.size_bytes();
            region_f64.clear();
            payload.append_f64_to(&mut region_f64);
            let slice_f64 = &region_f64[..];

            // Automatic local histogram (Algorithm 1), per region.
            let hist = Histogram::build(slice_f64, &hist_cfg)
                .expect("non-empty region must yield a histogram");
            hists.push(hist);

            // Optional per-region bitmap index, serialized like an index
            // file and stored alongside the data.
            if let Some(idx_obj) = index_object {
                let index = BinnedBitmapIndex::build_with_domain(slice_f64, &binning, domain)
                    .expect("non-empty region must yield an index");
                let bytes = index.to_bytes();
                index_sizes.push(bytes.len() as u64);
                report.index_bytes += bytes.len() as u64;
                let idx_rid = RegionId::new(idx_obj, i as u32);
                self.store.put(idx_rid, StoredPayload::Raw(bytes), StorageTier::Pfs);
                // Index regions are immutable blobs — replaced whole on
                // rebuild, dropped on append — so they are sealed (and
                // thereby demotable) from birth.
                self.store.seal(idx_rid)?;
            }

            self.store.put(rid, StoredPayload::Typed(Arc::new(payload)), StorageTier::Pfs);
            // Every region at its full configured extent is sealed against
            // appends; only a partial tail stays open for streaming ingest.
            if span.len == region_elems {
                self.store.seal(rid)?;
            }
        }
        // Region directory: hierarchical bins over the per-region value
        // bounds the local histograms just observed — built at import
        // time like the histograms themselves. The registration publishes
        // the object whole.
        let dir = RegionDirectory::from_bounds(
            &hists.iter().map(|h| (h.min(), h.max())).collect::<Vec<_>>(),
        );
        report.directory_bytes = dir.size_bytes();
        self.meta.register_object(meta, |v| {
            v.set_region_histograms(hists);
            v.index_sizes = index_object.map(|_| Arc::new(index_sizes));
            v.directory = Some(Arc::new(dir));
            if let Some(replica) = replica {
                v.set_sorted_replica(replica);
            }
        });
        report.histogram_bytes = self.meta.histogram_metadata_bytes(id);
        Ok(report)
    }

    /// Append elements to the end of a 1-D object (streaming ingest).
    ///
    /// The delta splits into a **tail fill** (extending the last partial
    /// region's payload in place — the prefix is never rewritten) and zero
    /// or more **whole new regions**. Each appended slice gets a fresh
    /// Algorithm 1 delta histogram; the tail region's local histogram
    /// becomes `old ⊕ delta` and the global histogram absorbs every delta
    /// — incremental merges only, never a from-scratch rebuild. Regions
    /// that reach their full `region_elems` extent are sealed.
    ///
    /// Auxiliary structures are maintained *deferred*: the (now stale)
    /// tail bitmap-index region is dropped, appended regions get no index
    /// yet, and the sorted replica is left at its pre-append extent. All
    /// three are queued for [`Odms::run_deferred_maintenance`]; until it
    /// runs, query correctness rests on probe→scan fallback and on the
    /// planner treating a wrong-extent sorted replica as unavailable.
    ///
    /// Payloads and joint grids land first; then the grown object is one
    /// publication ([`MetadataService::update`]), the point at which new
    /// plans see the appended elements.
    pub fn append_array(&self, object: ObjectId, delta: &TypedVec) -> PdcResult<AppendReport> {
        let meta = self.meta.get(object)?;
        if meta.shape.0.len() != 1 {
            return Err(pdc_types::PdcError::InvalidQuery(format!(
                "append requires a 1-D object; {object} has shape {:?}",
                meta.shape.0
            )));
        }
        if delta.pdc_type() != meta.pdc_type {
            return Err(pdc_types::PdcError::TypeMismatch {
                expected: meta.pdc_type,
                got: delta.pdc_type(),
            });
        }
        let old_n = meta.num_elements();
        let re = meta.region_elems;
        let added = delta.len() as u64;
        let mut report = AppendReport {
            object,
            appended_elems: added,
            total_elems: old_n + added,
            ..Default::default()
        };
        if added == 0 {
            return Ok(report);
        }
        let delta_f64 = delta.to_f64_vec();
        let hist_cfg = HistogramConfig::default();

        // 1. Payloads: tail fill first, then whole new regions.
        let mut consumed = 0u64;
        let mut tail_delta_hist: Option<Histogram> = None;
        if old_n % re != 0 {
            let tail_idx = meta.num_regions() - 1;
            let fill = (re - old_n % re).min(added);
            let rid = RegionId::new(object, tail_idx);
            let slice = delta.slice(0, fill as usize);
            report.data_bytes += slice.size_bytes();
            self.store.append_typed(rid, &slice)?;
            tail_delta_hist = Some(
                Histogram::build(&delta_f64[..fill as usize], &hist_cfg)
                    .expect("non-empty fill must yield a histogram"),
            );
            if (old_n + fill) % re == 0 {
                self.store.seal(rid)?;
                report.sealed_regions.push(tail_idx);
            }
            report.filled_tail = Some(tail_idx);
            consumed = fill;
        }
        let mut new_hists = Vec::new();
        while consumed < added {
            let take = re.min(added - consumed);
            let region_idx = ((old_n + consumed) / re) as u32;
            let rid = RegionId::new(object, region_idx);
            let slice = delta.slice(consumed as usize, take as usize);
            report.data_bytes += slice.size_bytes();
            new_hists.push(
                Histogram::build(&delta_f64[consumed as usize..(consumed + take) as usize], &hist_cfg)
                    .expect("non-empty region must yield a histogram"),
            );
            self.store.put(rid, StoredPayload::Typed(Arc::new(slice)), StorageTier::Pfs);
            if take == re {
                self.store.seal(rid)?;
                report.sealed_regions.push(region_idx);
            }
            report.new_regions.push(region_idx);
            consumed += take;
        }

        // 2. Aux structures the append left stale. The stored tail index
        // covers the pre-append extent; drop it so probes fall back to
        // verified scans until rebuilt.
        let total = old_n + added;
        if let Some(idx_obj) = meta.index_object {
            if let Some(tail_idx) = report.filled_tail {
                self.store.remove(RegionId::new(idx_obj, tail_idx));
                report.pending_index_regions.push(tail_idx);
            }
            report.pending_index_regions.extend(report.new_regions.iter().copied());
        }
        report.sorted_stale = meta.has_sorted_replica;

        // 3. Registered joint grids involving this object extend to the
        // new common coordinate extent `min(extent(a), extent(b))` — the
        // appended payloads are already stored, so the pair values are
        // readable even though the grown object is not yet published.
        for grid in self.meta.joint_grids_for(object) {
            let (a, b) = grid.pair();
            let extent = |o: ObjectId| -> PdcResult<u64> {
                Ok(if o == object { total } else { self.meta.get(o)?.num_elements() })
            };
            let target = extent(a)?.min(extent(b)?);
            if target > grid.covered() {
                let av = self.read_f64_range(a, grid.covered(), target)?;
                let bv = self.read_f64_range(b, grid.covered(), target)?;
                let mut g = (*grid).clone();
                g.extend(&av, &bv);
                self.meta.set_joint_grid(g);
            }
        }

        // 4. Publish the grown object. The tail's local histogram becomes
        // `old ⊕ delta` and every delta folds into the global histogram in
        // region order — exactly the fold `merge_all` would perform. The
        // directory is maintained the same way: the filled tail's bounds
        // widen to its merged histogram's and each appended region enters
        // as a fresh entry. Index sizes gain a pending (0) slot for every
        // region whose index the append left stale.
        let tail = report.filled_tail.zip(tail_delta_hist);
        self.meta.update(object, |v| {
            let missing = || {
                pdc_types::PdcError::MissingPrerequisite(format!("histograms of {object}"))
            };
            let mut hists = v.region_hists.as_deref().ok_or_else(missing)?.clone();
            let mut global = v.global_hist.as_deref().ok_or_else(missing)?.clone();
            let mut dir = v.directory.as_deref().cloned();
            let mut sizes = v.index_sizes.as_deref().cloned();
            if let Some((t, delta)) = &tail {
                let merged = hists[*t as usize].merged(delta);
                global.merge_in_place(delta);
                dir.iter_mut().for_each(|d| d.update_region(*t, merged.min(), merged.max()));
                sizes.iter_mut().for_each(|s| s[*t as usize] = 0);
                hists[*t as usize] = merged;
            }
            for h in &new_hists {
                global.merge_in_place(h);
                dir.iter_mut().for_each(|d| d.push_region(h.min(), h.max()));
            }
            hists.extend(new_hists);
            sizes.iter_mut().for_each(|s| s.resize(total.div_ceil(re) as usize, 0));
            let shape = pdc_types::Shape::one_d(total);
            v.meta = Arc::new(ObjectMeta { shape, ..(*v.meta).clone() });
            v.region_hists = Some(Arc::new(hists));
            v.global_hist = Some(Arc::new(global));
            v.directory = dir.map(Arc::new);
            v.index_sizes = sizes.map(Arc::new);
            Ok(())
        })?;
        self.queue_pending(
            object,
            PendingAux {
                index_regions: report.pending_index_regions.iter().copied().collect(),
                sorted_stale: report.sorted_stale,
            },
        );
        Ok(report)
    }

    /// Add stale aux structures of `object` to the deferred-maintenance
    /// queue.
    fn queue_pending(&self, object: ObjectId, aux: PendingAux) {
        let mut pend = self.pending.write().unpoisoned();
        let entry = pend.entry(object).or_default();
        entry.index_regions.extend(aux.index_regions);
        entry.sorted_stale |= aux.sorted_stale;
    }

    /// Drain the deferred-maintenance queue: rebuild every stale bitmap
    /// index region, and merge the appended elements into every stale
    /// sorted replica (`refresh_sorted_replica`). Idempotent with
    /// the lazy probe-time rebuilds — a region already rebuilt on first
    /// touch is simply rebuilt to the same bytes.
    ///
    /// Every queued item is attempted; the ones that fail go back on the
    /// queue and the first error is returned, so one unreadable region
    /// never makes the rest of the queue vanish.
    pub fn run_deferred_maintenance(&self) -> PdcResult<MaintenanceReport> {
        let drained = std::mem::take(&mut *self.pending.write().unpoisoned());
        let mut report = MaintenanceReport::default();
        let mut first_err = None;
        for (object, aux) in drained {
            let mut failed = PendingAux::default();
            for region in aux.index_regions {
                match self.rebuild_index_region(object, region) {
                    Ok(bytes) => {
                        report.bytes_written += bytes;
                        report.index_regions_rebuilt += 1;
                    }
                    Err(e) => {
                        failed.index_regions.insert(region);
                        first_err.get_or_insert(e);
                    }
                }
            }
            if aux.sorted_stale {
                match self.refresh_sorted_replica(object) {
                    Ok((bytes, merged)) => {
                        report.bytes_written += bytes;
                        report.sorted_replicas_rebuilt += 1;
                        report.sorted_elems_merged += merged;
                    }
                    Err(e) => {
                        failed.sorted_stale = true;
                        first_err.get_or_insert(e);
                    }
                }
            }
            if !failed.index_regions.is_empty() || failed.sorted_stale {
                self.queue_pending(object, failed);
            }
        }
        first_err.map_or(Ok(report), Err)
    }

    /// The deferred-maintenance queue as `(object, stale index regions,
    /// sorted replica stale)`, ordered by object id.
    pub fn pending_maintenance(&self) -> Vec<(ObjectId, Vec<u32>, bool)> {
        self.pending
            .read().unpoisoned()
            .iter()
            .map(|(id, aux)| (*id, aux.index_regions.iter().copied().collect(), aux.sorted_stale))
            .collect()
    }

    /// Read one region's typed payload (time-free; callers charge their
    /// own clocks via the cost model).
    pub fn read_region(&self, object: ObjectId, region: u32) -> PdcResult<Arc<TypedVec>> {
        self.store.get_typed(RegionId::new(object, region))
    }

    /// Read one region's serialized bitmap index.
    pub fn read_index_region(&self, data_object: ObjectId, region: u32) -> PdcResult<bytes::Bytes> {
        let meta = self.meta.get(data_object)?;
        let idx_obj = meta.index_object.ok_or_else(|| {
            pdc_types::PdcError::MissingPrerequisite(format!("index of {data_object}"))
        })?;
        self.store.get_raw(RegionId::new(idx_obj, region))
    }

    /// Rebuild one region's bitmap index from its (verified) data payload
    /// and store it back, replacing a copy that failed checksum or decode
    /// validation. Import uses the same default binning, so the rebuilt
    /// index is byte-identical to the imported one. Returns the serialized
    /// size of the rebuilt index (for cost charging).
    pub fn rebuild_index_region(&self, data_object: ObjectId, region: u32) -> PdcResult<u64> {
        let meta = self.meta.get(data_object)?;
        let idx_obj = meta.index_object.ok_or_else(|| {
            pdc_types::PdcError::MissingPrerequisite(format!("index of {data_object}"))
        })?;
        let payload = self.store.get_typed(RegionId::new(data_object, region))?;
        let values = payload.to_f64_vec();
        let domain = value_domain(meta.pdc_type);
        let index = BinnedBitmapIndex::build_with_domain(&values, &BinningConfig::default(), domain)
            .ok_or_else(|| {
                pdc_types::PdcError::Codec(format!(
                    "cannot rebuild index for empty region {region} of {data_object}"
                ))
            })?;
        let bytes = index.to_bytes();
        let size = bytes.len() as u64;
        let idx_rid = RegionId::new(idx_obj, region);
        self.store.put(idx_rid, StoredPayload::Raw(bytes), StorageTier::Pfs);
        // `put` unseals its target; restore the immutable-blob seal so
        // the rebuilt index stays demotable under a memory budget.
        self.store.seal(idx_rid)?;
        // Record the rebuilt size (a pending slot holds 0).
        self.meta.update(data_object, |v| {
            let mut sizes = v.index_sizes.as_deref().cloned().unwrap_or_default();
            let slot = sizes.get_mut(region as usize);
            *slot.ok_or(pdc_types::PdcError::NoSuchRegion(idx_rid))? = size;
            v.index_sizes = Some(Arc::new(sizes));
            Ok(())
        })?;
        Ok(size)
    }

    /// Rebuild one region's local histogram from its data payload and
    /// re-register it (re-merging the object's global histogram),
    /// replacing a copy that failed [`Histogram::self_check`]. Import uses
    /// the same default histogram configuration, so the rebuilt histogram
    /// equals the imported one. Returns the rebuilt histogram's metadata
    /// footprint in bytes.
    pub fn rebuild_region_histogram(&self, object: ObjectId, region: u32) -> PdcResult<u64> {
        let payload = self.store.get_typed(RegionId::new(object, region))?;
        let values = payload.to_f64_vec();
        let hist = Histogram::build(&values, &HistogramConfig::default()).ok_or_else(|| {
            pdc_types::PdcError::Codec(format!(
                "cannot rebuild histogram for empty region {region} of {object}"
            ))
        })?;
        let size = hist.size_bytes();
        self.meta.replace_region_histogram(object, region, hist)?;
        Ok(size)
    }

    /// Rebuild an object's sorted replica from its stored regions,
    /// replacing a copy that failed [`SortedReplica::self_check`]. Returns
    /// the replica's storage footprint in bytes (for cost charging).
    pub fn rebuild_sorted_replica(&self, object: ObjectId) -> PdcResult<u64> {
        let meta = self.meta.get(object)?;
        if !meta.has_sorted_replica {
            return Err(pdc_types::PdcError::MissingPrerequisite(format!(
                "sorted replica of {object}"
            )));
        }
        Ok(self.publish_sorted_replica(&meta, self.sort_stored(&meta)?))
    }

    /// A sorted replica of `meta`'s extent, built from its stored regions.
    pub(crate) fn sort_stored(&self, meta: &ObjectMeta) -> PdcResult<SortedReplica> {
        let mut values = Vec::with_capacity(meta.num_elements() as usize);
        for r in 0..meta.num_regions() {
            self.read_region(meta.id, r)?.append_f64_to(&mut values);
        }
        Ok(SortedReplica::build(&values, meta.region_elems))
    }

    /// Bring a stale sorted replica to its object's current extent. A
    /// published replica that is a valid replica of the object's first
    /// `len()` elements — passes `self_check(len())`, partitioned at the
    /// object's `region_elems`, no longer than the object — is extended:
    /// only coordinates `[len(), num_elements)` are read, sorted and
    /// merged in. Any other base (missing, corrupt, foreign region
    /// length, longer than the object) is rebuilt from the stored regions,
    /// so maintenance still heals a damaged replica. Returns the published
    /// replica's footprint in bytes and the number of elements merged (0
    /// after a from-scratch rebuild).
    fn refresh_sorted_replica(&self, object: ObjectId) -> PdcResult<(u64, u64)> {
        let meta = self.meta.get(object)?;
        let n = meta.num_elements();
        let base = match self.meta.sorted_replica(object) {
            Ok(b) if b.region_len() == meta.region_elems
                && b.len() <= n
                && b.self_check(b.len()) =>
            {
                b
            }
            _ => return Ok((self.rebuild_sorted_replica(object)?, 0)),
        };
        let delta = self.read_f64_range(object, base.len(), n)?;
        Ok((self.publish_sorted_replica(&meta, base.extended(&delta)), delta.len() as u64))
    }

    /// Publish `replica` as `meta`'s sorted replica; returns its storage
    /// footprint in bytes.
    fn publish_sorted_replica(&self, meta: &ObjectMeta, replica: SortedReplica) -> u64 {
        let size = replica.size_bytes(meta.pdc_type.size_bytes());
        self.meta.set_sorted_replica(meta.id, replica);
        size
    }

    /// Read the f64-widened values at linear coordinates `[lo, hi)` of an
    /// object, spanning region payloads as needed.
    fn read_f64_range(&self, object: ObjectId, lo: u64, hi: u64) -> PdcResult<Vec<f64>> {
        let meta = self.meta.get(object)?;
        let re = meta.region_elems;
        let mut out = Vec::with_capacity((hi - lo) as usize);
        let mut at = lo;
        while at < hi {
            let r = (at / re) as u32;
            let payload = self.read_region(object, r)?;
            let vals = payload.to_f64_vec();
            let base = r as u64 * re;
            let start = (at - base) as usize;
            let end = ((hi - base).min(vals.len() as u64)) as usize;
            if end <= start {
                return Err(pdc_types::PdcError::InvalidQuery(format!(
                    "coordinate range [{lo}, {hi}) exceeds stored extent of {object}"
                )));
            }
            out.extend_from_slice(&vals[start..end]);
            at = base + end as u64;
        }
        Ok(out)
    }

    /// Register cross-variable joint bounds for the object pair `(a, b)`:
    /// build the per-region 2-D grid from the pair's stored payloads over
    /// their common coordinate extent and publish it to the metadata
    /// service. Requires aligned region grids (identical elements per
    /// region). Re-registering rebuilds from scratch. Returns the grid's
    /// metadata footprint in bytes.
    pub fn register_joint_pair(&self, a: ObjectId, b: ObjectId) -> PdcResult<u64> {
        if a == b {
            return Err(pdc_types::PdcError::InvalidQuery(format!(
                "joint pair requires two distinct objects, got ({a}, {a})"
            )));
        }
        let ma = self.meta.get(a)?;
        let mb = self.meta.get(b)?;
        if ma.region_elems != mb.region_elems {
            return Err(pdc_types::PdcError::InvalidQuery(format!(
                "joint pair requires aligned region grids: {} has {} elems/region, {} has {}",
                a, ma.region_elems, b, mb.region_elems
            )));
        }
        let target = ma.num_elements().min(mb.num_elements());
        let mut grid = JointGrid::new(a, b, ma.region_elems);
        // Stream region-sized chunks so the build never widens a region's
        // cell geometry from a partial extent unnecessarily.
        let mut at = 0u64;
        while at < target {
            let hi = (at + ma.region_elems).min(target);
            let av = self.read_f64_range(a, at, hi)?;
            let bv = self.read_f64_range(b, at, hi)?;
            grid.extend(&av, &bv);
            at = hi;
        }
        let size = grid.size_bytes();
        self.meta.set_joint_grid(grid);
        Ok(size)
    }

    /// Rebuild an object's region directory from its region histograms,
    /// replacing a copy that failed [`RegionDirectory::self_check`].
    /// Returns the directory's metadata footprint in bytes.
    pub fn rebuild_directory(&self, object: ObjectId) -> PdcResult<u64> {
        let hists = self.meta.region_histograms(object)?;
        let bounds: Vec<(f64, f64)> = hists.iter().map(|h| (h.min(), h.max())).collect();
        let dir = RegionDirectory::from_bounds(&bounds);
        let size = dir.size_bytes();
        self.meta.set_directory(object, dir);
        Ok(size)
    }

    /// Rebuild a registered joint grid from the pair's stored payloads,
    /// replacing a copy that failed [`JointGrid::self_check`]. Returns the
    /// grid's metadata footprint in bytes.
    pub fn rebuild_joint_grid(&self, a: ObjectId, b: ObjectId) -> PdcResult<u64> {
        if self.meta.joint_grid(a, b).is_none() {
            return Err(pdc_types::PdcError::MissingPrerequisite(format!(
                "joint grid of ({a}, {b})"
            )));
        }
        self.register_joint_pair(a, b)
    }

    /// Remove one region from the system: the data payload plus the
    /// auxiliary structures derived from it (the serialized bitmap-index
    /// region). Quarantine marks are purged along with the payloads, so a
    /// corrupt region that is removed rather than repaired leaves no
    /// stale integrity state behind. Returns whether the data region
    /// existed.
    pub fn remove_region(&self, object: ObjectId, region: u32) -> PdcResult<bool> {
        let meta = self.meta.get(object)?;
        let removed = self.store.remove(RegionId::new(object, region));
        if let Some(idx_obj) = meta.index_object {
            self.store.remove(RegionId::new(idx_obj, region));
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vpic_like(n: usize) -> TypedVec {
        TypedVec::Float((0..n).map(|i| ((i * 13) % 997) as f32 / 100.0).collect())
    }

    fn system_with_import(n: usize, opts: &ImportOptions) -> (Odms, ImportReport) {
        let odms = Odms::new(8);
        let c = odms.create_container("test");
        let report = odms.import_array(c, "energy", vpic_like(n), opts).unwrap();
        (odms, report)
    }

    /// The replica a one-shot import of the concatenated `parts` builds.
    fn one_shot_replica(parts: &[TypedVec], region_elems: u64) -> SortedReplica {
        let mut values = Vec::new();
        for p in parts {
            p.append_f64_to(&mut values);
        }
        SortedReplica::build(&values, region_elems)
    }

    #[test]
    fn import_partitions_and_stores_regions() {
        let opts = ImportOptions { region_bytes: 4096, ..Default::default() }; // 1024 f32
        let (odms, report) = system_with_import(5000, &opts);
        assert_eq!(report.regions, 5);
        assert_eq!(report.data_bytes, 20_000);
        let meta = odms.meta().get(report.object).unwrap();
        assert_eq!(meta.region_elems, 1024);
        // all regions retrievable, with correct sizes
        for r in 0..report.regions {
            let payload = odms.read_region(report.object, r).unwrap();
            let expect = meta.region_span(r).len;
            assert_eq!(payload.len() as u64, expect);
        }
    }

    #[test]
    fn import_builds_histograms_automatically() {
        let opts = ImportOptions { region_bytes: 4096, ..Default::default() };
        let (odms, report) = system_with_import(5000, &opts);
        let hists = odms.meta().region_histograms(report.object).unwrap();
        assert_eq!(hists.len(), 5);
        let global = odms.meta().global_histogram(report.object).unwrap();
        assert_eq!(global.total(), 5000);
        assert!(report.histogram_bytes > 0);
    }

    #[test]
    fn import_with_index_builds_readable_index_regions() {
        let opts =
            ImportOptions { region_bytes: 4096, build_index: true, ..Default::default() };
        let (odms, report) = system_with_import(5000, &opts);
        assert!(report.index_bytes > 0);
        let sizes = odms.meta().index_sizes(report.object).unwrap();
        assert_eq!(sizes.len(), 5);
        // read an index region back and deserialize it
        let bytes = odms.read_index_region(report.object, 2).unwrap();
        assert_eq!(bytes.len() as u64, sizes[2]);
        let idx = BinnedBitmapIndex::from_bytes(&bytes).unwrap();
        let meta = odms.meta().get(report.object).unwrap();
        assert_eq!(idx.num_elements(), meta.region_span(2).len);
    }

    #[test]
    fn import_without_index_refuses_index_reads() {
        let opts = ImportOptions { region_bytes: 4096, ..Default::default() };
        let (odms, report) = system_with_import(1000, &opts);
        assert!(odms.read_index_region(report.object, 0).is_err());
    }

    #[test]
    fn import_with_sorted_replica() {
        let opts =
            ImportOptions { region_bytes: 4096, build_sorted: true, ..Default::default() };
        let (odms, report) = system_with_import(5000, &opts);
        assert!(report.sorted_bytes > 0);
        let replica = odms.meta().sorted_replica(report.object).unwrap();
        assert_eq!(replica.len(), 5000);
        assert!(replica.keys().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn import_with_sorted_replica_tolerates_nan() {
        let mut data: Vec<f32> = (0..5000).map(|i| ((i * 13) % 997) as f32 / 100.0).collect();
        for i in [0, 1, 77, 2500, 4998, 4999] {
            data[i] = f32::NAN;
        }
        let opts =
            ImportOptions { region_bytes: 4096, build_sorted: true, ..Default::default() };
        let odms = Odms::new(8);
        let c = odms.create_container("test");
        let report = odms.import_array(c, "energy", TypedVec::Float(data), &opts).unwrap();
        let replica = odms.meta().sorted_replica(report.object).unwrap();
        assert!(replica.self_check(5000));
        assert_eq!(replica.perm()[4994..], [0, 1, 77, 2500, 4998, 4999]);
    }

    #[test]
    fn name_lookup_after_import() {
        let opts = ImportOptions::default();
        let (odms, report) = system_with_import(100, &opts);
        assert_eq!(odms.meta().lookup_name("energy").unwrap().id, report.object);
    }

    #[test]
    fn region_payloads_reassemble_original() {
        let opts = ImportOptions { region_bytes: 1024, ..Default::default() };
        let data = vpic_like(3000);
        let odms = Odms::new(4);
        let c = odms.create_container("t");
        let report = odms.import_array(c, "x", data.clone(), &opts).unwrap();
        let meta = odms.meta().get(report.object).unwrap();
        let mut reassembled = TypedVec::empty(data.pdc_type());
        for r in 0..meta.num_regions() {
            let payload = odms.read_region(report.object, r).unwrap();
            reassembled.extend_from_range(&payload, 0..payload.len()).unwrap();
        }
        assert_eq!(reassembled, data);
    }

    #[test]
    fn rebuild_index_region_replaces_corrupt_copy() {
        let opts =
            ImportOptions { region_bytes: 4096, build_index: true, ..Default::default() };
        let (odms, report) = system_with_import(5000, &opts);
        let meta = odms.meta().get(report.object).unwrap();
        let idx_obj = meta.index_object.unwrap();
        let irid = RegionId::new(idx_obj, 1);
        assert!(odms.store().corrupt(irid, 42).unwrap());
        assert!(odms.read_index_region(report.object, 1).is_err());
        let size = odms.rebuild_index_region(report.object, 1).unwrap();
        assert!(size > 0);
        assert_eq!(odms.meta().index_sizes(report.object).unwrap()[1], size);
        let bytes = odms.read_index_region(report.object, 1).unwrap();
        let idx = BinnedBitmapIndex::from_bytes(&bytes).unwrap();
        assert_eq!(idx.num_elements(), meta.region_span(1).len);
        assert!(!odms.store().is_quarantined(irid));
    }

    #[test]
    fn rebuild_region_histogram_restores_valid_state() {
        let opts = ImportOptions { region_bytes: 4096, ..Default::default() };
        let (odms, report) = system_with_import(5000, &opts);
        let meta = odms.meta().get(report.object).unwrap();
        let hists = odms.meta().region_histograms(report.object).unwrap();
        let bad = hists[2].corrupted_copy(7);
        assert!(!bad.self_check(meta.region_span(2).len));
        odms.meta().replace_region_histogram(report.object, 2, bad).unwrap();
        odms.rebuild_region_histogram(report.object, 2).unwrap();
        let hists = odms.meta().region_histograms(report.object).unwrap();
        assert!(hists[2].self_check(meta.region_span(2).len));
        // global histogram re-merged to the true total
        assert_eq!(odms.meta().global_histogram(report.object).unwrap().total(), 5000);
    }

    /// Import, append and rebuild share one histogram / binning / directory
    /// configuration, so rebuilding an intact artifact reproduces the
    /// import-time one exactly — not merely a valid one.
    #[test]
    fn aux_rebuilds_reproduce_the_import_exactly() {
        let opts = ImportOptions { region_bytes: 4096, build_index: true, ..Default::default() };
        let ints = TypedVec::Int32((0..3000).map(|i| (i * 37) % 1001 - 500).collect());
        for data in [vpic_like(5000), ints] {
            let odms = Odms::new(8);
            let c = odms.create_container("test");
            let obj = odms.import_array(c, "v", data, &opts).unwrap().object;
            let regions = odms.meta().get(obj).unwrap().num_regions();
            let hists = odms.meta().region_histograms(obj).unwrap();
            let global = odms.meta().global_histogram(obj).unwrap();
            let dir = odms.meta().directory(obj).unwrap();
            for r in 0..regions {
                let index = odms.read_index_region(obj, r).unwrap();
                odms.rebuild_region_histogram(obj, r).unwrap();
                odms.rebuild_index_region(obj, r).unwrap();
                let rebuilt = odms.meta().region_histograms(obj).unwrap();
                assert_eq!(rebuilt[r as usize], hists[r as usize], "histogram of region {r}");
                assert_eq!(odms.read_index_region(obj, r).unwrap(), index, "index of region {r}");
            }
            assert_eq!(*odms.meta().global_histogram(obj).unwrap(), *global);
            odms.rebuild_directory(obj).unwrap();
            assert_eq!(*odms.meta().directory(obj).unwrap(), *dir);
        }
    }

    #[test]
    fn rebuild_sorted_replica_from_stored_regions() {
        let opts =
            ImportOptions { region_bytes: 4096, build_sorted: true, ..Default::default() };
        let (odms, report) = system_with_import(5000, &opts);
        let good = odms.meta().sorted_replica(report.object).unwrap();
        odms.meta().set_sorted_replica(report.object, good.corrupted_copy(3));
        assert!(!odms.meta().sorted_replica(report.object).unwrap().self_check(5000));
        let size = odms.rebuild_sorted_replica(report.object).unwrap();
        assert!(size > 0);
        let rebuilt = odms.meta().sorted_replica(report.object).unwrap();
        assert!(rebuilt.self_check(5000));
        assert_eq!(*rebuilt, *good);
    }

    #[test]
    fn remove_region_purges_aux_and_quarantine() {
        let opts =
            ImportOptions { region_bytes: 4096, build_index: true, ..Default::default() };
        let (odms, report) = system_with_import(5000, &opts);
        let meta = odms.meta().get(report.object).unwrap();
        let idx_obj = meta.index_object.unwrap();
        let rid = RegionId::new(report.object, 3);
        assert!(odms.store().corrupt(rid, 11).unwrap());
        let _ = odms.store().get(rid); // quarantines
        assert!(odms.store().is_quarantined(rid));
        assert!(odms.remove_region(report.object, 3).unwrap());
        assert!(!odms.store().is_quarantined(rid));
        assert!(odms.store().get(rid).is_err());
        assert!(odms.store().get_raw(RegionId::new(idx_obj, 3)).is_err());
        // removing again reports absence
        assert!(!odms.remove_region(report.object, 3).unwrap());
    }

    #[test]
    fn import_seals_full_regions_leaves_tail_open() {
        let opts = ImportOptions { region_bytes: 4096, ..Default::default() }; // 1024 f32
        let (odms, report) = system_with_import(5000, &opts); // 4 full + 1 partial
        for r in 0..4 {
            assert!(odms.store().is_sealed(RegionId::new(report.object, r)), "region {r}");
        }
        assert!(!odms.store().is_sealed(RegionId::new(report.object, 4)), "tail must stay open");
    }

    #[test]
    fn append_fills_tail_and_creates_regions() {
        let opts = ImportOptions { region_bytes: 4096, ..Default::default() }; // 1024 f32
        let (odms, report) = system_with_import(2500, &opts); // regions: 1024,1024,452
        let delta = vpic_like(2000); // fill 572, then 1024, then 404
        let ar = odms.append_array(report.object, &delta).unwrap();
        assert_eq!(ar.appended_elems, 2000);
        assert_eq!(ar.total_elems, 4500);
        assert_eq!(ar.filled_tail, Some(2));
        assert_eq!(ar.new_regions, vec![3, 4]);
        assert_eq!(ar.sealed_regions, vec![2, 3]);
        let meta = odms.meta().get(report.object).unwrap();
        assert_eq!(meta.num_elements(), 4500);
        assert_eq!(meta.num_regions(), 5);
        // payloads reassemble the concatenation
        let mut reassembled = TypedVec::empty(meta.pdc_type);
        for r in 0..meta.num_regions() {
            let payload = odms.read_region(report.object, r).unwrap();
            reassembled.extend_from_range(&payload, 0..payload.len()).unwrap();
        }
        let mut expect = vpic_like(2500);
        expect.extend_from_range(&delta, 0..2000).unwrap();
        assert_eq!(reassembled, expect);
        // histograms: one per region, global totals the full extent and
        // matches a from-scratch merge bit-for-bit
        let hists = odms.meta().region_histograms(report.object).unwrap();
        assert_eq!(hists.len(), 5);
        let global = odms.meta().global_histogram(report.object).unwrap();
        assert_eq!(global.total(), 4500);
        assert_eq!(*global, pdc_histogram::merge_all(hists.iter()).unwrap());
    }

    #[test]
    fn append_defers_index_and_sorted_maintenance() {
        let opts = ImportOptions {
            region_bytes: 4096,
            build_index: true,
            build_sorted: true,
            ..Default::default()
        };
        let (odms, report) = system_with_import(2500, &opts);
        let meta = odms.meta().get(report.object).unwrap();
        let idx_obj = meta.index_object.unwrap();
        let ar = odms.append_array(report.object, &vpic_like(2000)).unwrap();
        assert_eq!(ar.pending_index_regions, vec![2, 3, 4]);
        assert!(ar.sorted_stale);
        // stale tail index dropped, new regions have none yet
        assert!(!odms.store().contains(RegionId::new(idx_obj, 2)));
        assert!(!odms.store().contains(RegionId::new(idx_obj, 3)));
        // sorted replica still at the pre-append extent
        assert_eq!(odms.meta().sorted_replica(report.object).unwrap().len(), 2500);
        assert_eq!(
            odms.pending_maintenance(),
            vec![(report.object, vec![2, 3, 4], true)]
        );
        // index-size slots cover the new region count
        assert_eq!(odms.meta().index_sizes(report.object).unwrap().len(), 5);

        let mr = odms.run_deferred_maintenance().unwrap();
        assert_eq!(mr.index_regions_rebuilt, 3);
        assert_eq!(mr.sorted_replicas_rebuilt, 1);
        assert_eq!(mr.sorted_elems_merged, 2000, "only the appended elements are merged");
        assert!(mr.bytes_written > 0);
        assert!(odms.pending_maintenance().is_empty());
        // every region's index is readable and covers its current extent
        let meta = odms.meta().get(report.object).unwrap();
        for r in 0..meta.num_regions() {
            let bytes = odms.read_index_region(report.object, r).unwrap();
            let idx = BinnedBitmapIndex::from_bytes(&bytes).unwrap();
            assert_eq!(idx.num_elements(), meta.region_span(r).len, "region {r}");
        }
        let replica = odms.meta().sorted_replica(report.object).unwrap();
        assert!(replica.self_check(4500));
        assert_eq!(*replica, one_shot_replica(&[vpic_like(2500), vpic_like(2000)], 1024));
    }

    #[test]
    fn maintenance_rebuilds_an_unusable_sorted_base_from_scratch() {
        let opts =
            ImportOptions { region_bytes: 4096, build_sorted: true, ..Default::default() };
        let expect = one_shot_replica(&[vpic_like(2500), vpic_like(700)], 1024);
        let good = SortedReplica::build(&vpic_like(2500).to_f64_vec(), 1024);
        let unusable = [
            ("corrupt", good.corrupted_copy(5)),
            ("foreign region length", SortedReplica::build(&vpic_like(2500).to_f64_vec(), 512)),
            ("longer than the object", SortedReplica::build(&vpic_like(4000).to_f64_vec(), 1024)),
        ];
        for (what, base) in unusable {
            let (odms, report) = system_with_import(2500, &opts);
            odms.append_array(report.object, &vpic_like(700)).unwrap();
            odms.meta().set_sorted_replica(report.object, base);
            let mr = odms.run_deferred_maintenance().unwrap();
            assert_eq!((mr.sorted_replicas_rebuilt, mr.sorted_elems_merged), (1, 0), "{what}");
            assert_eq!(*odms.meta().sorted_replica(report.object).unwrap(), expect, "{what}");
        }
    }

    #[test]
    fn failed_maintenance_stays_queued() {
        let opts = ImportOptions {
            region_bytes: 4096,
            build_index: true,
            build_sorted: true,
            ..Default::default()
        };
        let odms = Odms::new(8);
        let c = odms.create_container("test");
        let a = odms.import_array(c, "a", vpic_like(2500), &opts).unwrap().object;
        let b = odms.import_array(c, "b", vpic_like(2500), &opts).unwrap().object;
        odms.append_array(a, &vpic_like(2000)).unwrap();
        odms.append_array(b, &vpic_like(2000)).unwrap();
        // Lose one appended data region of `a`: its index cannot be
        // rebuilt and the replica's delta cannot be read.
        let lost = RegionId::new(a, 3);
        let payload = odms.read_region(a, 3).unwrap();
        assert!(odms.store().remove(lost));
        assert!(odms.run_deferred_maintenance().is_err());
        assert_eq!(
            odms.pending_maintenance(),
            vec![(a, vec![3], true)],
            "what failed stays queued; everything else — including all of `b` — was done"
        );
        assert_eq!(odms.meta().sorted_replica(b).unwrap().len(), 4500);
        // Once the region is back, the next pass finishes the job.
        odms.store().put(lost, StoredPayload::Typed(payload), StorageTier::Pfs);
        let mr = odms.run_deferred_maintenance().unwrap();
        assert_eq!((mr.index_regions_rebuilt, mr.sorted_elems_merged), (1, 2000));
        assert!(odms.pending_maintenance().is_empty());
        assert!(odms.meta().sorted_replica(a).unwrap().self_check(4500));
    }

    #[test]
    fn append_rejects_bad_input() {
        let opts = ImportOptions { region_bytes: 4096, ..Default::default() };
        let (odms, report) = system_with_import(1000, &opts);
        odms.append_array(report.object, &vpic_like(10)).unwrap();
        // empty delta is a no-op
        let before = odms.meta().get(report.object).unwrap();
        let ar = odms.append_array(report.object, &TypedVec::empty(pdc_types::PdcType::Float)).unwrap();
        assert_eq!(ar.appended_elems, 0);
        assert!(Arc::ptr_eq(&before, &odms.meta().get(report.object).unwrap()));
        // type mismatch
        let ints: TypedVec = vec![1i32; 4].into();
        assert!(matches!(
            odms.append_array(report.object, &ints),
            Err(pdc_types::PdcError::TypeMismatch { .. })
        ));
        // N-d objects refuse appends
        let c = odms.create_container("nd");
        let nd = odms
            .import_array_nd(
                c,
                "grid",
                vpic_like(64),
                pdc_types::Shape(vec![8, 8]),
                &ImportOptions::default(),
            )
            .unwrap();
        assert!(matches!(
            odms.append_array(nd.object, &vpic_like(8)),
            Err(pdc_types::PdcError::InvalidQuery(_))
        ));
        // missing object
        assert!(odms.append_array(ObjectId(4040), &vpic_like(1)).is_err());
    }

    #[test]
    fn import_builds_directory_and_append_maintains_it() {
        let opts = ImportOptions { region_bytes: 4096, ..Default::default() }; // 1024 f32
        let (odms, report) = system_with_import(2500, &opts);
        assert!(report.directory_bytes > 0);
        let dir = odms.meta().directory(report.object).unwrap();
        assert!(dir.self_check(3));
        odms.append_array(report.object, &vpic_like(2000)).unwrap();
        let meta = odms.meta().get(report.object).unwrap();
        let dir = odms.meta().directory(report.object).unwrap();
        assert!(dir.self_check(meta.num_regions()));
        // Incrementally maintained bounds match the merged histograms.
        let hists = odms.meta().region_histograms(report.object).unwrap();
        for (r, h) in hists.iter().enumerate() {
            assert_eq!(dir.region_bounds(r as u32), Some((h.min(), h.max())), "region {r}");
        }
        // A from-scratch rebuild reproduces the incremental state exactly.
        assert!(odms.rebuild_directory(report.object).unwrap() > 0);
        assert_eq!(*odms.meta().directory(report.object).unwrap(), *dir);
    }

    #[test]
    fn joint_pair_registration_and_append_extension() {
        let opts = ImportOptions { region_bytes: 4096, ..Default::default() }; // 1024 f32
        let odms = Odms::new(4);
        let c = odms.create_container("t");
        let ra = odms.import_array(c, "a", vpic_like(2500), &opts).unwrap();
        let rb = odms.import_array(c, "b", vpic_like(2500), &opts).unwrap();
        assert!(odms.register_joint_pair(ra.object, rb.object).unwrap() > 0);
        let g = odms.meta().joint_grid(ra.object, rb.object).unwrap();
        assert_eq!(g.covered(), 2500);
        assert!(g.self_check());
        // Appending to `a` alone cannot extend past `b`'s extent.
        odms.append_array(ra.object, &vpic_like(700)).unwrap();
        assert_eq!(odms.meta().joint_grid(ra.object, rb.object).unwrap().covered(), 2500);
        // Appending to `b` extends the grid to the common extent.
        odms.append_array(rb.object, &vpic_like(1000)).unwrap();
        let g = odms.meta().joint_grid(ra.object, rb.object).unwrap();
        assert_eq!(g.covered(), 3200);
        assert!(g.self_check());
        // Misaligned region grids and self-pairs are refused.
        let bad_opts = ImportOptions { region_bytes: 1024, ..Default::default() };
        let rc = odms.import_array(c, "c", vpic_like(100), &bad_opts).unwrap();
        assert!(odms.register_joint_pair(ra.object, rc.object).is_err());
        assert!(odms.register_joint_pair(ra.object, ra.object).is_err());
        // Rebuild requires prior registration, then restores a valid grid.
        assert!(odms.rebuild_joint_grid(ra.object, rc.object).is_err());
        assert!(odms.rebuild_joint_grid(ra.object, rb.object).unwrap() > 0);
        assert!(odms.meta().joint_grid(ra.object, rb.object).unwrap().self_check());
    }

    #[test]
    fn reregistration_keeps_tag_queries_duplicate_free() {
        let odms = Odms::new(4);
        let c = odms.create_container("boss");
        let mut attrs = BTreeMap::new();
        attrs.insert("plate".to_string(), MetaValue::from(3i64));
        let opts = ImportOptions { attrs, ..Default::default() };
        let report = odms.import_array(c, "fiber", vpic_like(100), &opts).unwrap();
        odms.append_array(report.object, &vpic_like(50)).unwrap();
        odms.append_array(report.object, &vpic_like(50)).unwrap();
        let hits = odms.meta().query_tags(&[("plate", MetaValue::from(3i64))]);
        assert_eq!(hits, vec![report.object], "re-registration must not duplicate postings");
    }

    #[test]
    fn attrs_are_tag_queryable() {
        let odms = Odms::new(4);
        let c = odms.create_container("boss");
        let mut attrs = BTreeMap::new();
        attrs.insert("RADEG".to_string(), MetaValue::from(153.17));
        let opts = ImportOptions { attrs, ..Default::default() };
        let report = odms.import_array(c, "fiber-1", vpic_like(64), &opts).unwrap();
        let hits = odms.meta().query_tags(&[("RADEG", MetaValue::from(153.17))]);
        assert_eq!(hits, vec![report.object]);
    }
}
