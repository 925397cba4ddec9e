//! Region geometry.
//!
//! PDC breaks large objects into fixed-size **regions** — the basic unit of
//! placement, caching and parallel evaluation (paper §III-B). Objects in
//! the paper's workloads are 1-D arrays, so a region is a contiguous
//! `[offset, offset+len)` span of elements; we also carry the N-dimensional
//! shape machinery needed for spatial query constraints
//! (`PDCquery_set_region`), where the user's selection "can be arbitrary
//! and does not need to match any of the existing PDC internal region
//! partitions".


/// The dimensions of an object, e.g. `[n]` for a 1-D array of `n` elements
/// or `[nx, ny]` for a 2-D mesh. Objects may only be combined in one query
/// when their shapes are identical.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(pub Vec<u64>);

impl Shape {
    /// A 1-D shape of `n` elements.
    pub fn one_d(n: u64) -> Self {
        Shape(vec![n])
    }

    /// Total number of elements.
    pub fn num_elements(&self) -> u64 {
        self.0.iter().product()
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.0.len()
    }

    /// Convert a linear coordinate into per-dimension indices (row-major).
    pub fn unravel(&self, mut linear: u64) -> Vec<u64> {
        let mut idx = vec![0u64; self.0.len()];
        for (slot, &dim) in idx.iter_mut().zip(self.0.iter()).rev() {
            *slot = linear % dim;
            linear /= dim;
        }
        idx
    }

    /// Convert per-dimension indices into a linear coordinate (row-major).
    pub fn ravel(&self, idx: &[u64]) -> u64 {
        debug_assert_eq!(idx.len(), self.0.len());
        let mut linear = 0u64;
        for (&dim, &i) in self.0.iter().zip(idx.iter()) {
            linear = linear * dim + i;
        }
        linear
    }
}

/// A contiguous 1-D span of elements within an object: one storage region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionSpec {
    /// First element (inclusive).
    pub offset: u64,
    /// Number of elements.
    pub len: u64,
}

impl RegionSpec {
    /// Region covering `[offset, offset+len)`.
    pub const fn new(offset: u64, len: u64) -> Self {
        Self { offset, len }
    }

    /// One-past-the-end element.
    #[inline]
    pub const fn end(&self) -> u64 {
        self.offset + self.len
    }

    /// Whether the region contains linear coordinate `c`.
    #[inline]
    pub const fn contains(&self, c: u64) -> bool {
        c >= self.offset && c < self.end()
    }

    /// Intersection with another span, if non-empty.
    pub fn intersect(&self, other: &RegionSpec) -> Option<RegionSpec> {
        let lo = self.offset.max(other.offset);
        let hi = self.end().min(other.end());
        (lo < hi).then(|| RegionSpec::new(lo, hi - lo))
    }

    /// Partition `total` elements into regions of at most `per_region`
    /// elements each (the last region may be shorter). This is PDC's
    /// data-decomposition step: `region size` in bytes divided by the
    /// element size gives `per_region`.
    pub fn partition(total: u64, per_region: u64) -> Vec<RegionSpec> {
        assert!(per_region > 0, "region size must be positive");
        let mut out = Vec::with_capacity(total.div_ceil(per_region) as usize);
        let mut off = 0;
        while off < total {
            let len = per_region.min(total - off);
            out.push(RegionSpec::new(off, len));
            off += len;
        }
        out
    }
}

/// An N-dimensional hyper-rectangle constraint: per-dimension
/// `[offset, offset+len)` spans. Used by `PDCquery_set_region` to restrict
/// a query spatially.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NdRegion {
    /// Per-dimension starting index.
    pub offsets: Vec<u64>,
    /// Per-dimension extent.
    pub lens: Vec<u64>,
}

impl NdRegion {
    /// A new hyper-rectangle; `offsets` and `lens` must have equal rank.
    pub fn new(offsets: Vec<u64>, lens: Vec<u64>) -> Self {
        assert_eq!(offsets.len(), lens.len(), "rank mismatch");
        Self { offsets, lens }
    }

    /// A 1-D span constraint.
    pub fn one_d(offset: u64, len: u64) -> Self {
        Self::new(vec![offset], vec![len])
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.offsets.len()
    }

    /// Number of elements selected.
    pub fn num_elements(&self) -> u64 {
        self.lens.iter().product()
    }

    /// Whether the multi-dimensional index `idx` falls inside.
    pub fn contains_index(&self, idx: &[u64]) -> bool {
        debug_assert_eq!(idx.len(), self.ndims());
        idx.iter()
            .zip(self.offsets.iter().zip(self.lens.iter()))
            .all(|(&i, (&off, &len))| i >= off && i < off + len)
    }

    /// Whether the linear coordinate `c` of an object with shape `shape`
    /// falls inside this hyper-rectangle.
    pub fn contains_linear(&self, shape: &Shape, c: u64) -> bool {
        self.contains_index(&shape.unravel(c))
    }

    /// For 1-D regions, the equivalent [`RegionSpec`].
    pub fn as_1d_span(&self) -> Option<RegionSpec> {
        (self.ndims() == 1).then(|| RegionSpec::new(self.offsets[0], self.lens[0]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_ravel_unravel_roundtrip() {
        let shape = Shape(vec![4, 5, 6]);
        assert_eq!(shape.num_elements(), 120);
        for linear in [0u64, 1, 59, 119] {
            let idx = shape.unravel(linear);
            assert_eq!(shape.ravel(&idx), linear);
        }
        assert_eq!(shape.unravel(0), vec![0, 0, 0]);
        assert_eq!(shape.unravel(119), vec![3, 4, 5]);
    }

    #[test]
    fn one_d_shape() {
        let s = Shape::one_d(100);
        assert_eq!(s.ndims(), 1);
        assert_eq!(s.num_elements(), 100);
        assert_eq!(s.unravel(42), vec![42]);
    }

    #[test]
    fn partition_covers_exactly_once() {
        let regions = RegionSpec::partition(100, 32);
        assert_eq!(regions.len(), 4);
        assert_eq!(regions[0], RegionSpec::new(0, 32));
        assert_eq!(regions[3], RegionSpec::new(96, 4));
        let total: u64 = regions.iter().map(|r| r.len).sum();
        assert_eq!(total, 100);
        // contiguous, non-overlapping
        for w in regions.windows(2) {
            assert_eq!(w[0].end(), w[1].offset);
        }
    }

    #[test]
    fn partition_exact_multiple() {
        let regions = RegionSpec::partition(64, 16);
        assert_eq!(regions.len(), 4);
        assert!(regions.iter().all(|r| r.len == 16));
    }

    #[test]
    fn partition_empty_object() {
        assert!(RegionSpec::partition(0, 16).is_empty());
    }

    #[test]
    #[should_panic(expected = "region size must be positive")]
    fn partition_zero_region_panics() {
        RegionSpec::partition(10, 0);
    }

    #[test]
    fn span_intersection() {
        let a = RegionSpec::new(0, 10);
        let b = RegionSpec::new(5, 10);
        assert_eq!(a.intersect(&b), Some(RegionSpec::new(5, 5)));
        let c = RegionSpec::new(20, 5);
        assert_eq!(a.intersect(&c), None);
        // touching spans do not intersect
        let d = RegionSpec::new(10, 5);
        assert_eq!(a.intersect(&d), None);
    }

    #[test]
    fn span_contains() {
        let r = RegionSpec::new(10, 5);
        assert!(!r.contains(9));
        assert!(r.contains(10));
        assert!(r.contains(14));
        assert!(!r.contains(15));
    }

    #[test]
    fn nd_region_membership() {
        let shape = Shape(vec![10, 10]);
        let region = NdRegion::new(vec![2, 3], vec![4, 4]);
        assert_eq!(region.num_elements(), 16);
        assert!(region.contains_index(&[2, 3]));
        assert!(region.contains_index(&[5, 6]));
        assert!(!region.contains_index(&[6, 3]));
        assert!(!region.contains_index(&[2, 7]));
        // linear coordinate of index [2,3] is 23
        assert!(region.contains_linear(&shape, 23));
        assert!(!region.contains_linear(&shape, 0));
    }

    #[test]
    fn nd_region_1d_conversion() {
        let r = NdRegion::one_d(5, 10);
        assert_eq!(r.as_1d_span(), Some(RegionSpec::new(5, 10)));
        let r2 = NdRegion::new(vec![0, 0], vec![2, 2]);
        assert_eq!(r2.as_1d_span(), None);
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn nd_region_rank_mismatch_panics() {
        NdRegion::new(vec![0], vec![1, 2]);
    }
}
