//! Hierarchical binning region directory (UCSC-style fixed-level bins).
//!
//! The classic genome-browser binning scheme stores each interval in the
//! *smallest* bin that fully contains it, across a small fixed hierarchy
//! of nested bin levels; a range query probes, per level, the contiguous
//! run of bin ids its range overlaps. We apply the same scheme to the
//! value domain: every region's observed `[min, max]` (from its
//! histogram) is one interval, keyed through an order-preserving
//! `f64 → u64` transform so bin ids are plain integer shifts. Bins are
//! kept sparse in a `BTreeMap`, so probing a level's bin-id run visits
//! only *populated* bins regardless of how wide the run is.
//!
//! The probe refines bin-level candidates with the exact per-region
//! bounds test ([`pdc_types::Interval::overlaps_range`]) — the same test
//! histogram region-elimination performs — so the candidate set equals
//! the exact set of regions whose 1-D bounds overlap the interval:
//! a superset of the truly matching regions, and every region *outside*
//! it is guaranteed a `Pruned` verdict (disjoint bounds ⇒ zero hit
//! estimate). That guarantee is what lets the evaluator skip non-candidate
//! regions while keeping Selections and simulated charges bit-identical.

use pdc_types::Interval;
use std::collections::BTreeMap;

// Bin-hierarchy shape: `LEVELS` nested levels above the finest, each
// coarsening the bin width by `2^LEVEL_BITS`; intervals too wide even for
// the coarsest level land in a single root bin (level `LEVELS`, id 0).
// Finest bins cover 2^46 key units (1/64 of one f64 binade); four levels
// of 16x fan-out reach 2^58 before falling back to the root bin. Small
// enough to discriminate clustered region bounds, coarse enough that a
// directory stays a handful of bins.

/// Number of non-root levels.
const LEVELS: u8 = 4;
/// log2 of the fan-out between adjacent levels.
const LEVEL_BITS: u32 = 4;
/// Right-shift applied to the 64-bit value key at the finest level.
const BASE_SHIFT: u32 = 46;

/// Order-preserving `f64 → u64` key: flips the sign bit for positives and
/// all bits for negatives, so `a <= b ⇔ key(a) <= key(b)` for all
/// non-NaN values (including infinities).
#[inline]
fn value_key(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b ^ (1 << 63)
    }
}

fn shift(level: u8) -> u32 {
    (BASE_SHIFT + u32::from(level) * LEVEL_BITS).min(63)
}

/// The smallest bin fully containing `[mn, mx]`.
fn place(mn: f64, mx: f64) -> (u8, u64) {
    let (klo, khi) = (value_key(mn), value_key(mx));
    for level in 0..LEVELS {
        let s = shift(level);
        if klo >> s == khi >> s {
            return (level, klo >> s);
        }
    }
    (LEVELS, 0)
}

/// Result of one directory probe.
#[derive(Debug, Clone, Default)]
pub struct DirectoryProbe {
    /// Regions whose `[min, max]` bounds overlap the probed interval,
    /// ascending. Exactly the 1-D min/max candidate set.
    pub candidates: Vec<u32>,
    /// Populated bins visited.
    pub bins_probed: u64,
    /// Region entries examined inside the visited bins (the metadata the
    /// probe actually touched; the full-walk equivalent is one entry per
    /// region of the object).
    pub regions_examined: u64,
}

/// The hierarchical region directory of one object: per-region value
/// bounds plus the sparse bin tree that indexes them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegionDirectory {
    /// `(level, bin id) → regions stored in that bin`, regions ascending.
    /// Level `LEVELS` is the root bin (id 0).
    bins: BTreeMap<(u8, u64), Vec<u32>>,
    /// Observed `[min, max]` per region, indexed by region number.
    bounds: Vec<(f64, f64)>,
}

impl RegionDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from per-region `[min, max]` bounds (region `r` = `bounds[r]`).
    pub fn from_bounds(bounds: &[(f64, f64)]) -> Self {
        let mut d = Self::new();
        for &(mn, mx) in bounds {
            d.push_region(mn, mx);
        }
        d
    }

    /// Number of regions indexed.
    pub fn num_regions(&self) -> u32 {
        self.bounds.len() as u32
    }

    /// Number of populated bins.
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// The observed bounds of `region`, if indexed.
    pub fn region_bounds(&self, region: u32) -> Option<(f64, f64)> {
        self.bounds.get(region as usize).copied()
    }

    /// Append the next region (number `self.num_regions()`) with observed
    /// bounds `[mn, mx]` — the ingest path for a freshly sealed or newly
    /// created tail region.
    pub fn push_region(&mut self, mn: f64, mx: f64) {
        let r = self.bounds.len() as u32;
        self.bounds.push((mn, mx));
        let slot = place(mn, mx);
        let v = self.bins.entry(slot).or_default();
        let at = v.partition_point(|&x| x < r);
        v.insert(at, r);
    }

    /// Update an existing region's bounds (a streaming append widened the
    /// tail region), re-homing it if its containing bin changed.
    pub fn update_region(&mut self, region: u32, mn: f64, mx: f64) {
        let Some(slot) = self.bounds.get_mut(region as usize) else {
            return;
        };
        let old = *slot;
        *slot = (mn, mx);
        let from = place(old.0, old.1);
        let to = place(mn, mx);
        if from == to {
            return;
        }
        if let Some(v) = self.bins.get_mut(&from) {
            if let Ok(at) = v.binary_search(&region) {
                v.remove(at);
            }
            if v.is_empty() {
                self.bins.remove(&from);
            }
        }
        let v = self.bins.entry(to).or_default();
        let at = v.partition_point(|&x| x < region);
        v.insert(at, region);
    }

    /// Resolve the candidate region set for `interval` by bin overlap:
    /// per level, visit the populated bins in the interval's bin-id run,
    /// then refine each stored region with the exact bounds-overlap test.
    pub fn probe(&self, interval: &Interval) -> DirectoryProbe {
        let mut out = DirectoryProbe::default();
        if interval.is_empty() {
            return out;
        }
        let klo = interval.lo.map_or(0, |b| value_key(b.value));
        let khi = interval.hi.map_or(u64::MAX, |b| value_key(b.value));
        for level in 0..=LEVELS {
            let (blo, bhi) = if level == LEVELS {
                (0, 0)
            } else {
                let s = shift(level);
                (klo >> s, khi >> s)
            };
            for (_, regions) in self.bins.range((level, blo)..=(level, bhi)) {
                out.bins_probed += 1;
                for &r in regions {
                    out.regions_examined += 1;
                    let (mn, mx) = self.bounds[r as usize];
                    if mn <= mx && interval.overlaps_range(mn, mx) {
                        out.candidates.push(r);
                    }
                }
            }
        }
        out.candidates.sort_unstable();
        out
    }

    /// In-memory metadata footprint in bytes.
    pub fn size_bytes(&self) -> u64 {
        let bin_bytes: u64 =
            self.bins.values().map(|v| 16 + 4 * v.len() as u64).sum();
        16 * self.bounds.len() as u64 + bin_bytes
    }

    /// Validate against the region count the metadata claims: every
    /// region indexed exactly once, in exactly the bin [`place`] assigns
    /// it, with non-NaN bounds. A directory failing this cannot
    /// be trusted for candidate resolution and must be rebuilt from the
    /// region histograms.
    pub fn self_check(&self, num_regions: u32) -> bool {
        if self.bounds.len() as u32 != num_regions {
            return false;
        }
        let mut seen = vec![false; self.bounds.len()];
        for (&slot, regions) in &self.bins {
            for &r in regions {
                let Some((mn, mx)) = self.region_bounds(r) else {
                    return false;
                };
                if mn.is_nan() || mx.is_nan() {
                    return false;
                }
                if seen[r as usize] || place(mn, mx) != slot {
                    return false;
                }
                seen[r as usize] = true;
            }
        }
        seen.iter().all(|&s| s)
    }

    /// A deterministically corrupted clone for integrity-injection tests:
    /// one region is re-homed to a bin [`place`] would never assign
    /// it, so [`Self::self_check`] is guaranteed to reject the result.
    pub fn corrupted_copy(&self, seed: u64) -> RegionDirectory {
        let mut bad = self.clone();
        if bad.bounds.is_empty() {
            bad.bounds.push((1.0, 0.0));
            return bad;
        }
        let victim = (seed % bad.bounds.len() as u64) as u32;
        let (mn, mx) = bad.bounds[victim as usize];
        let from = place(mn, mx);
        if let Some(v) = bad.bins.get_mut(&from) {
            if let Ok(at) = v.binary_search(&victim) {
                v.remove(at);
            }
            if v.is_empty() {
                bad.bins.remove(&from);
            }
        }
        // Root-level bin 1 is unreachable: place() only ever emits root
        // bin 0.
        bad.bins.entry((LEVELS, 1)).or_default().push(victim);
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds_of(data: &[Vec<f64>]) -> Vec<(f64, f64)> {
        data.iter()
            .map(|r| {
                let mn = r.iter().cloned().fold(f64::INFINITY, f64::min);
                let mx = r.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                (mn, mx)
            })
            .collect()
    }

    fn gen_regions(seed: u64, n_regions: usize, per: usize) -> Vec<Vec<f64>> {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n_regions)
            .map(|r| {
                let center = (r as f64) * 7.3 - 40.0 + next() * 3.0;
                (0..per).map(|_| center + next() * 10.0 - 5.0).collect()
            })
            .collect()
    }

    #[test]
    fn value_key_is_order_preserving() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -1.0,
            -1e-300,
            0.0,
            1e-300,
            1.0,
            2.5,
            1e300,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            assert!(value_key(w[0]) < value_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert_eq!(value_key(-0.0), value_key(0.0) - 1);
    }

    #[test]
    fn probe_equals_exact_bounds_overlap_set() {
        for seed in [1u64, 7, 42] {
            let regions = gen_regions(seed, 40, 64);
            let bounds = bounds_of(&regions);
            let d = RegionDirectory::from_bounds(&bounds);
            assert!(d.self_check(40));
            for iv in [
                Interval::open(-10.0, 10.0),
                Interval::closed(100.0, 300.0),
                Interval::from_op(pdc_types::QueryOp::Gt, 150.0),
                Interval::from_op(pdc_types::QueryOp::Lt, -30.0),
                Interval::open(33.3, 33.4),
                Interval::ALL,
                Interval::empty(),
            ] {
                let expect: Vec<u32> = bounds
                    .iter()
                    .enumerate()
                    .filter(|(_, &(mn, mx))| iv.overlaps_range(mn, mx))
                    .map(|(r, _)| r as u32)
                    .collect();
                let probe = d.probe(&iv);
                assert_eq!(probe.candidates, expect, "seed {seed} iv {iv}");
                // Superset of the truly matching regions.
                for (r, vals) in regions.iter().enumerate() {
                    if vals.iter().any(|&v| iv.contains(v)) {
                        assert!(
                            probe.candidates.contains(&(r as u32)),
                            "seed {seed} iv {iv}: missed region {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn probe_touches_fewer_entries_than_full_walk_on_narrow_ranges() {
        // Monotone region bounds (VPIC x-like): a narrow window should
        // examine far fewer region entries than the 80-region full walk.
        let bounds: Vec<(f64, f64)> =
            (0..80).map(|r| (r as f64 * 4.0, r as f64 * 4.0 + 3.9)).collect();
        let d = RegionDirectory::from_bounds(&bounds);
        let probe = d.probe(&Interval::open(100.0, 120.0));
        assert!(!probe.candidates.is_empty());
        assert!(
            probe.regions_examined < 80,
            "examined {} of 80",
            probe.regions_examined
        );
    }

    #[test]
    fn update_region_rehomes_bins() {
        let mut d = RegionDirectory::from_bounds(&[(0.0, 1.0), (5.0, 6.0)]);
        // Widen region 1 drastically: must move to a coarser bin and stay
        // consistent.
        d.update_region(1, 5.0, 4000.0);
        assert!(d.self_check(2));
        let probe = d.probe(&Interval::closed(3000.0, 3500.0));
        assert_eq!(probe.candidates, vec![1]);
        // Narrow update that keeps the same bin also stays consistent.
        d.update_region(0, 0.0, 1.1);
        assert!(d.self_check(2));
    }

    #[test]
    fn push_region_matches_from_bounds() {
        let bounds: Vec<(f64, f64)> =
            (0..20).map(|r| (r as f64, r as f64 + 0.5)).collect();
        let whole = RegionDirectory::from_bounds(&bounds);
        let mut incr = RegionDirectory::new();
        for &(mn, mx) in &bounds {
            incr.push_region(mn, mx);
        }
        assert_eq!(whole, incr);
    }

    #[test]
    fn empty_region_sentinel_is_never_a_candidate() {
        let mut d = RegionDirectory::new();
        d.push_region(f64::INFINITY, f64::NEG_INFINITY);
        d.push_region(0.0, 1.0);
        assert!(d.self_check(2));
        assert_eq!(d.probe(&Interval::ALL).candidates, vec![1]);
    }

    #[test]
    fn corrupted_copy_always_fails_self_check() {
        let bounds: Vec<(f64, f64)> =
            (0..17).map(|r| (r as f64 * 2.0, r as f64 * 2.0 + 1.0)).collect();
        let d = RegionDirectory::from_bounds(&bounds);
        for seed in 0..24u64 {
            let bad = d.corrupted_copy(seed);
            assert!(!bad.self_check(17), "seed {seed} escaped detection");
            assert_eq!(bad, d.corrupted_copy(seed));
        }
    }
}
