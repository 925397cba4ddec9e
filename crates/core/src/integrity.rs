//! Data-plane integrity: deterministic corruption injection and the
//! client-side preflight sweep that repairs it.
//!
//! Two halves:
//!
//! * [`apply_corruption`] — damage the store and the auxiliary structures
//!   according to a [`CorruptionSpec`]: flip a bit in each victim data /
//!   index region (keeping the pristine copy as the durable authority for
//!   [`pdc_storage::ObjectStore::repair`]), and swap in invalid copies of
//!   victim region histograms and sorted replicas. Fully deterministic per
//!   seed, so two engines built from the same spec damage the same sites.
//! * [`preflight`] — the client-side verification sweep the engine runs
//!   before building a query plan when a corruption spec is active:
//!   checksum-verify every data region (repairing from the pristine copy),
//!   self-check every region histogram and sorted replica (rebuilding from
//!   the repaired data). Runs single-threaded on the client so the repair
//!   work is charged deterministically — `point_check` reads regions across
//!   slot boundaries, so leaving shared-region repair to the server threads
//!   would let thread scheduling decide which slot pays, breaking
//!   [`pdc_storage::CostBreakdown`] determinism. Bitmap-index regions are
//!   *not* swept here: each is read only by its owning slot, so the lazy
//!   fallback-and-rebuild path in `exec` handles them deterministically.
//!
//! All repair/rebuild time lands on the dedicated `integrity` lane of the
//! cost breakdown (and the server clocks), never on the query's I/O or CPU
//! counters — the breakdown's lanes stay disjoint.

use pdc_odms::Odms;
use pdc_server::CorruptionSpec;
use pdc_storage::{CostModel, IntegrityCounters, ReadPattern, SimDuration, WorkCounters};
use pdc_types::{mix64, PdcError, PdcResult, RegionId};
use std::sync::Arc;

/// Salts separating the victim draws of the three auxiliary structures
/// (so damaging an object's index says nothing about its histograms).
const INDEX_SALT: u64 = 0x1D05_EED5_0000_0001;
const HIST_SALT: u64 = 0x4157_0610_0000_0002;
const SORT_SALT: u64 = 0x50F7_ED00_0000_0003;
const DIR_SALT: u64 = 0xD1EC_7012_0000_0004;
const JOINT_SALT: u64 = 0x1013_7B0D_0000_0005;

/// What [`apply_corruption`] actually damaged. Deterministic per
/// `(spec, registry)` pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorruptionReport {
    /// Data regions with a flipped bit.
    pub data_regions: u64,
    /// Bitmap-index regions with a flipped bit.
    pub index_regions: u64,
    /// Region histograms replaced with invalid copies.
    pub histograms: u64,
    /// Sorted replicas replaced with invalid copies.
    pub sorted_objects: u64,
    /// Region directories replaced with invalid copies.
    pub directories: u64,
    /// Joint-bounds grids replaced with invalid copies.
    pub joint_grids: u64,
}

impl CorruptionReport {
    /// Total number of damaged sites.
    pub fn total(&self) -> u64 {
        self.data_regions
            + self.index_regions
            + self.histograms
            + self.sorted_objects
            + self.directories
            + self.joint_grids
    }
}

/// Deterministic uniform draw in `[0, 1)`.
fn unit(z: u64) -> f64 {
    (mix64(z) >> 11) as f64 / (1u64 << 53) as f64
}

/// Damage the store and auxiliary structures per `spec`. Safe to call
/// repeatedly (a region's pristine copy is stashed only on its first
/// corruption, so re-applying after a repair re-damages the same sites).
pub fn apply_corruption(odms: &Odms, spec: &CorruptionSpec) -> PdcResult<CorruptionReport> {
    let mut report = CorruptionReport::default();
    for meta in odms.meta().all_objects() {
        let salt = meta.id.raw();
        let n_regions = meta.num_regions() as usize;
        for r in spec.data_victims(n_regions, salt) {
            if odms.store().corrupt(RegionId::new(meta.id, r as u32), spec.seed ^ salt)? {
                report.data_regions += 1;
            }
        }
        if let Some(idx_obj) = meta.index_object {
            for r in spec.aux_victims(n_regions, salt ^ INDEX_SALT) {
                let rid = RegionId::new(idx_obj, r as u32);
                match odms.store().corrupt(rid, spec.seed ^ salt ^ INDEX_SALT) {
                    Ok(true) => report.index_regions += 1,
                    Ok(false) => {}
                    // A streaming append dropped this index region (or
                    // deferred building it): nothing to damage yet.
                    Err(PdcError::NoSuchRegion(_)) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        // Region histograms, the sorted replica and the directory are
        // parts of the object's version: their damage is one publication.
        // The replica and the directory are one structure per object each,
        // damaged on a deterministic coin at `aux_fraction`.
        let hist_victims = spec.aux_victims(n_regions, salt ^ HIST_SALT);
        let damage_sorted =
            meta.has_sorted_replica && unit(spec.seed ^ salt ^ SORT_SALT) < spec.aux_fraction;
        let damage_dir = unit(spec.seed ^ salt ^ DIR_SALT) < spec.aux_fraction;
        if hist_victims.is_empty() && !damage_sorted && !damage_dir {
            continue;
        }
        odms.meta().update(meta.id, |v| {
            if !hist_victims.is_empty() {
                let mut hists = v.region_hists.as_deref().cloned().ok_or_else(|| {
                    PdcError::MissingPrerequisite(format!("histograms of {}", meta.id))
                })?;
                for &r in &hist_victims {
                    let z = mix64(spec.seed ^ salt ^ HIST_SALT ^ r as u64);
                    hists[r] = hists[r].corrupted_copy(z);
                }
                v.set_region_histograms(hists);
                report.histograms += hist_victims.len() as u64;
            }
            if damage_sorted {
                let (_, replica) = v.sorted.clone().ok_or_else(|| {
                    PdcError::MissingPrerequisite(format!("sorted replica of {}", meta.id))
                })?;
                v.set_sorted_replica(replica.corrupted_copy(mix64(spec.seed ^ salt)));
                report.sorted_objects += 1;
            }
            if let Some(dir) = v.directory.as_ref().filter(|_| damage_dir) {
                let z = mix64(spec.seed ^ salt ^ DIR_SALT);
                v.directory = Some(Arc::new(dir.corrupted_copy(z)));
                report.directories += 1;
            }
            Ok(())
        })?;
    }
    // Joint-bounds grids are keyed by object *pair*; each gets its own
    // coin derived from both sides' ids.
    for (a, b) in odms.meta().all_joint_pairs() {
        let pair_salt = a.raw() ^ b.raw().rotate_left(32) ^ JOINT_SALT;
        if unit(spec.seed ^ pair_salt) < spec.aux_fraction {
            if let Some(grid) = odms.meta().joint_grid(a, b) {
                odms.meta().set_joint_grid(grid.corrupted_copy(mix64(spec.seed ^ pair_salt)));
                report.joint_grids += 1;
            }
        }
    }
    Ok(report)
}

/// Client-side verification sweep: checksum every data region (repairing
/// corrupt ones from the pristine durable copy), self-check every region
/// histogram and sorted replica (rebuilding invalid ones from the repaired
/// data). Returns the integrity counters and the simulated time the sweep
/// charges to the `integrity` cost lane.
pub fn preflight(
    odms: &Odms,
    cost: &CostModel,
    n_servers: u32,
) -> PdcResult<(IntegrityCounters, SimDuration)> {
    let mut counters = IntegrityCounters::default();
    let mut time = SimDuration::ZERO;
    for meta in odms.meta().all_objects() {
        let elem_bytes = meta.pdc_type.size_bytes();
        // 1. Data regions: verify the stored checksum; a mismatch is
        //    repaired by re-reading the pristine durable copy.
        for r in 0..meta.num_regions() {
            let rid = RegionId::new(meta.id, r);
            match odms.store().verify(rid) {
                Ok(()) => {}
                Err(PdcError::CorruptRegion { .. }) => {
                    counters.checksum_failures += 1;
                    let bytes = odms.store().repair(rid)?;
                    counters.repaired_regions += 1;
                    time += cost.pfs.read_cost(bytes, 1, n_servers, ReadPattern::Aggregated);
                }
                Err(e) => return Err(e),
            }
        }
        // 2. Region histograms: rebuilt by re-scanning the (now clean)
        //    region data.
        let hists = odms.meta().region_histograms(meta.id)?;
        for r in 0..meta.num_regions() {
            let span = meta.region_span(r);
            if !hists[r as usize].self_check(span.len) {
                odms.rebuild_region_histogram(meta.id, r)?;
                counters.aux_rebuilds += 1;
                let scan = WorkCounters { elements_scanned: span.len, ..Default::default() };
                time += cost.pfs.read_cost(
                    span.len * elem_bytes,
                    1,
                    n_servers,
                    ReadPattern::Aggregated,
                ) + cost.cpu.work_cost(&scan);
            }
        }
        // 3. The sorted replica: rebuilt by re-reading the whole object
        //    and re-sorting (n log n comparisons).
        if meta.has_sorted_replica {
            let replica = odms.meta().sorted_replica(meta.id)?;
            if !replica.self_check(meta.num_elements()) {
                odms.rebuild_sorted_replica(meta.id)?;
                counters.aux_rebuilds += 1;
                let log2n = (meta.num_elements().max(2) as f64).log2().ceil() as u64;
                let sort = WorkCounters {
                    elements_scanned: meta.num_elements() * log2n,
                    ..Default::default()
                };
                time += cost.pfs.read_cost(
                    meta.size_bytes(),
                    u64::from(meta.num_regions()),
                    n_servers,
                    ReadPattern::Aggregated,
                ) + cost.cpu.work_cost(&sort);
            }
        }
        // 4. The region directory: rebuilt from the (now clean) region
        //    histograms' bounds — metadata-only, so the charge is one
        //    bounds probe per region on the CPU lane.
        if let Some(dir) = odms.meta().directory(meta.id) {
            if !dir.self_check(meta.num_regions()) {
                odms.rebuild_directory(meta.id)?;
                counters.aux_rebuilds += 1;
                let probe = WorkCounters {
                    histogram_bins: u64::from(meta.num_regions()),
                    ..Default::default()
                };
                time += cost.cpu.work_cost(&probe);
            }
        }
    }
    // 5. Joint-bounds grids: rebuilt by re-reading both member objects
    //    and re-binning every (a, b) value pair.
    for (a, b) in odms.meta().all_joint_pairs() {
        let Some(grid) = odms.meta().joint_grid(a, b) else { continue };
        if grid.self_check() {
            continue;
        }
        odms.rebuild_joint_grid(a, b)?;
        counters.aux_rebuilds += 1;
        let (ma, mb) = (odms.meta().get(a)?, odms.meta().get(b)?);
        let target = ma.num_elements().min(mb.num_elements());
        let rebin = WorkCounters { elements_scanned: 2 * target, ..Default::default() };
        time += cost.pfs.read_cost(
            ma.size_bytes(),
            u64::from(ma.num_regions()),
            n_servers,
            ReadPattern::Aggregated,
        ) + cost.pfs.read_cost(
            mb.size_bytes(),
            u64::from(mb.num_regions()),
            n_servers,
            ReadPattern::Aggregated,
        ) + cost.cpu.work_cost(&rebin);
    }
    Ok((counters, time))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_odms::ImportOptions;
    use pdc_types::TypedVec;

    fn world(seed: u64) -> Odms {
        let odms = Odms::new(4);
        let c = odms.create_container("t");
        let data = TypedVec::Float(
            (0..6000).map(|i| ((i as f32) * 0.37 + seed as f32).sin() * 100.0).collect(),
        );
        let opts = ImportOptions {
            region_bytes: 2048,
            build_index: true,
            build_sorted: true,
            ..Default::default()
        };
        odms.import_array(c, "energy", data, &opts).unwrap();
        odms
    }

    fn spec() -> CorruptionSpec {
        CorruptionSpec::new(0.2, 0.5, 7)
    }

    #[test]
    fn apply_corruption_is_deterministic() {
        let (a, b) = (world(1), world(1));
        let ra = apply_corruption(&a, &spec()).unwrap();
        let rb = apply_corruption(&b, &spec()).unwrap();
        assert_eq!(ra, rb);
        assert!(ra.total() > 0, "fractions this large must damage something: {ra:?}");
        assert_eq!(a.store().quarantined(), b.store().quarantined());
    }

    #[test]
    fn preflight_repairs_everything_it_sweeps() {
        let odms = world(3);
        let report = apply_corruption(&odms, &spec()).unwrap();
        assert!(report.data_regions > 0);
        let cost = pdc_storage::CostModel::cori_like();
        let (counters, time) = preflight(&odms, &cost, 4).unwrap();
        assert_eq!(counters.repaired_regions, report.data_regions);
        assert_eq!(counters.checksum_failures, report.data_regions);
        assert_eq!(
            counters.aux_rebuilds,
            report.histograms + report.sorted_objects + report.directories + report.joint_grids
        );
        assert!(time > SimDuration::ZERO);
        // A second sweep finds nothing: the data plane is clean again.
        let (again, t2) = preflight(&odms, &cost, 4).unwrap();
        assert!(!again.any(), "{again:?}");
        assert_eq!(t2, SimDuration::ZERO);
    }

    #[test]
    fn preflight_on_healthy_world_is_free() {
        let odms = world(9);
        let cost = pdc_storage::CostModel::cori_like();
        let (counters, time) = preflight(&odms, &cost, 4).unwrap();
        assert!(!counters.any());
        assert_eq!(time, SimDuration::ZERO);
    }
}
