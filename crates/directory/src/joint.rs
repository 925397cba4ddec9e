//! Cross-variable joint bounds: per-region 2-D cell grids.
//!
//! Independent 1-D pruning admits every region whose *projection* onto
//! each constrained variable overlaps that variable's interval — even
//! when no single element satisfies the conjunction. A [`JointGrid`]
//! over a registered variable pair `(a, b)` summarizes each region with
//! a small fixed grid ([`JOINT_GRID_DIM`]²) of cells, each carrying its
//! element count and the exact bounding box of the `(a, b)` value pairs
//! that landed in it. A conjunctive query rectangle that overlaps no
//! cell bounding box proves the region empty for the *joint* predicate,
//! and summing the counts of overlapping cells gives a sound upper
//! bound on the region's joint hits (used to tighten the adaptive
//! planner's estimates).
//!
//! Soundness does not depend on the cell geometry: values outside a
//! region's initial grid extent are clamped to the edge cells and the
//! *cell bounding boxes* — not the nominal cell edges — drive every
//! overlap test. That is what makes incremental extension by streaming
//! appends trivially sound: new values widen the boxes they fall into,
//! never invalidating previous answers.
//!
//! Coverage is tracked per coordinate: a grid answers for a region only
//! when it has folded in at least as many of that region's elements as
//! the caller's plan-time snapshot expects ([`JointGrid::rect_upper`]
//! returns `None` otherwise, and the caller falls back to 1-D pruning
//! alone). Appends to either object of the pair extend the grid to
//! `min(extent(a), extent(b))` — never a rebuild.

use pdc_types::{Interval, ObjectId};

/// Cells per side of a region's joint grid.
pub const JOINT_GRID_DIM: usize = 8;

const CELLS: usize = JOINT_GRID_DIM * JOINT_GRID_DIM;

/// One populated cell: element count plus the exact bounding box of the
/// value pairs counted into it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct JointCell {
    count: u64,
    amin: f64,
    amax: f64,
    bmin: f64,
    bmax: f64,
}

/// One region's joint summary: fixed cell geometry (set when the region
/// first receives data) plus its sparse populated cells.
#[derive(Debug, Clone, PartialEq, Default)]
struct RegionJoint {
    /// Cell geometry: origin and cell width per axis. Zero widths mean
    /// degenerate (constant) data on that axis; everything clamps to
    /// cell 0.
    a0: f64,
    aw: f64,
    b0: f64,
    bw: f64,
    /// `(cell index, cell)` ascending by index; at most [`CELLS`].
    cells: Vec<(u8, JointCell)>,
    /// Elements of this region folded in so far.
    elems: u64,
    /// Of those, the pairs with a NaN member: they satisfy no rectangle,
    /// so they land in no cell.
    unplaced: u64,
}

impl RegionJoint {
    fn cell_index(&self, va: f64, vb: f64) -> u8 {
        let ci = if self.aw > 0.0 {
            (((va - self.a0) / self.aw) as usize).min(JOINT_GRID_DIM - 1)
        } else {
            0
        };
        let cj = if self.bw > 0.0 {
            (((vb - self.b0) / self.bw) as usize).min(JOINT_GRID_DIM - 1)
        } else {
            0
        };
        (ci * JOINT_GRID_DIM + cj) as u8
    }

    fn add(&mut self, va: f64, vb: f64) {
        self.elems += 1;
        if va.is_nan() || vb.is_nan() {
            self.unplaced += 1;
            return;
        }
        let idx = self.cell_index(va, vb);
        match self.cells.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(at) => {
                let c = &mut self.cells[at].1;
                c.count += 1;
                c.amin = c.amin.min(va);
                c.amax = c.amax.max(va);
                c.bmin = c.bmin.min(vb);
                c.bmax = c.bmax.max(vb);
            }
            Err(at) => {
                self.cells.insert(
                    at,
                    (idx, JointCell { count: 1, amin: va, amax: va, bmin: vb, bmax: vb }),
                );
            }
        }
    }
}

/// The joint-bounds grid of one registered variable pair `(a, b)` with
/// aligned region grids (identical elements-per-region).
#[derive(Debug, Clone, PartialEq)]
pub struct JointGrid {
    a: ObjectId,
    b: ObjectId,
    /// Elements per full region (both objects, by registration contract).
    region_elems: u64,
    regions: Vec<RegionJoint>,
    /// Total coordinates folded in: the grid covers `[0, covered)` of
    /// both objects' element spaces.
    covered: u64,
}

impl JointGrid {
    /// An empty grid for the pair, with `region_elems` elements per full
    /// region.
    pub fn new(a: ObjectId, b: ObjectId, region_elems: u64) -> Self {
        assert!(region_elems > 0, "region_elems must be positive");
        Self { a, b, region_elems, regions: Vec::new(), covered: 0 }
    }

    /// The registered pair, in registration order.
    pub fn pair(&self) -> (ObjectId, ObjectId) {
        (self.a, self.b)
    }

    /// Coordinates covered: the grid summarizes elements `[0, covered)`.
    pub fn covered(&self) -> u64 {
        self.covered
    }

    /// Regions with at least one element folded in.
    pub fn num_regions(&self) -> u32 {
        self.regions.len() as u32
    }

    /// Fold in the value pairs at coordinates
    /// `[covered, covered + av.len())`. `av`/`bv` must be equal-length
    /// slices of the two objects' values over exactly that coordinate
    /// range — the incremental extension path for both initial build and
    /// streaming appends.
    pub fn extend(&mut self, av: &[f64], bv: &[f64]) {
        assert_eq!(av.len(), bv.len(), "joint extension requires paired values");
        for (i, (&va, &vb)) in av.iter().zip(bv).enumerate() {
            let coord = self.covered + i as u64;
            let r = (coord / self.region_elems) as usize;
            if r == self.regions.len() {
                // New region: fix its cell geometry from the extent of
                // the chunk we have for it (clamping keeps later values
                // sound regardless).
                let hi = ((r as u64 + 1) * self.region_elems - self.covered) as usize;
                let chunk_a = &av[i..av.len().min(hi)];
                let chunk_b = &bv[i..bv.len().min(hi)];
                self.regions.push(fresh_region(chunk_a, chunk_b));
            }
            self.regions[r].add(va, vb);
        }
        self.covered += av.len() as u64;
    }

    /// Cells a rectangle test against `region` examines (the host/work
    /// charge a consumer should account for); 0 when the grid cannot
    /// answer for the region.
    pub fn cells_examined(&self, region: u32, span_len: u64) -> u64 {
        if self.answers_for(region, span_len) {
            self.regions[region as usize].cells.len() as u64
        } else {
            0
        }
    }

    fn answers_for(&self, region: u32, span_len: u64) -> bool {
        let r = u64::from(region);
        // The grid must have folded in at least the `span_len` elements
        // the caller's snapshot attributes to this region. (It may hold
        // more — an append landed after the snapshot — which only widens
        // boxes and raises counts: still a sound upper bound.)
        (r as usize) < self.regions.len()
            && self.covered >= r * self.region_elems + span_len
            && span_len <= self.region_elems
    }

    /// Upper bound on elements of `region` whose `(a, b)` pair lies in
    /// `iva × ivb`, or `None` when the grid does not (yet) cover the
    /// `span_len` elements the caller's snapshot attributes to the
    /// region. `Some(0)` proves the region empty for the conjunction.
    pub fn rect_upper(
        &self,
        region: u32,
        span_len: u64,
        iva: &Interval,
        ivb: &Interval,
    ) -> Option<u64> {
        if !self.answers_for(region, span_len) {
            return None;
        }
        let mut upper = 0u64;
        for &(_, c) in &self.regions[region as usize].cells {
            if iva.overlaps_range(c.amin, c.amax) && ivb.overlaps_range(c.bmin, c.bmax) {
                upper += c.count;
            }
        }
        Some(upper)
    }

    /// In-memory metadata footprint in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.regions
            .iter()
            .map(|r| 48 + 48 * r.cells.len() as u64)
            .sum::<u64>()
            + 40
    }

    /// Internal consistency: per-region cell counts sum to the region's
    /// element tally, region tallies sum to `covered`, cells are sorted,
    /// unique, in range, with ordered finite boxes. A grid failing this
    /// must be rebuilt from the pair's data.
    pub fn self_check(&self) -> bool {
        let mut sum = 0u64;
        for (r, rj) in self.regions.iter().enumerate() {
            let cell_sum: u64 = rj.cells.iter().map(|&(_, c)| c.count).sum();
            if cell_sum + rj.unplaced != rj.elems {
                return false;
            }
            let full = (r as u64 + 1) * self.region_elems <= self.covered;
            let expect = if full {
                self.region_elems
            } else {
                self.covered - r as u64 * self.region_elems
            };
            if rj.elems != expect {
                return false;
            }
            let mut prev: Option<u8> = None;
            for &(idx, c) in &rj.cells {
                if usize::from(idx) >= CELLS
                    || prev.is_some_and(|p| p >= idx)
                    || c.count == 0
                    || !(c.amin <= c.amax && c.bmin <= c.bmax)
                    || !(c.amin.is_finite() && c.amax.is_finite())
                    || !(c.bmin.is_finite() && c.bmax.is_finite())
                {
                    return false;
                }
                prev = Some(idx);
            }
            sum += rj.elems;
        }
        sum == self.covered
    }

    /// A deterministically corrupted clone for integrity-injection
    /// tests; always fails [`Self::self_check`].
    pub fn corrupted_copy(&self, seed: u64) -> JointGrid {
        let mut bad = self.clone();
        let victim = bad
            .regions
            .iter()
            .position(|r| !r.cells.is_empty())
            .map(|r| (r + seed as usize) % bad.regions.len());
        match victim {
            Some(mut r) => {
                while bad.regions[r].cells.is_empty() {
                    r = (r + 1) % bad.regions.len();
                }
                let n = bad.regions[r].cells.len();
                let c = &mut bad.regions[r].cells[seed as usize % n].1;
                c.count += 1 + seed % 5;
            }
            None => bad.covered += 1,
        }
        bad
    }
}

fn fresh_region(chunk_a: &[f64], chunk_b: &[f64]) -> RegionJoint {
    let (mut amn, mut amx) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut bmn, mut bmx) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in chunk_a {
        amn = amn.min(v);
        amx = amx.max(v);
    }
    for &v in chunk_b {
        bmn = bmn.min(v);
        bmx = bmx.max(v);
    }
    let width = |mn: f64, mx: f64| {
        if mx > mn && mn.is_finite() && mx.is_finite() {
            (mx - mn) / JOINT_GRID_DIM as f64
        } else {
            0.0
        }
    };
    RegionJoint {
        a0: if amn.is_finite() { amn } else { 0.0 },
        aw: width(amn, amx),
        b0: if bmn.is_finite() { bmn } else { 0.0 },
        bw: width(bmn, bmx),
        cells: Vec::new(),
        elems: 0,
        unplaced: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn correlated(n: usize) -> (Vec<f64>, Vec<f64>) {
        // b ramps 0..n; a is high only where b is in its last third —
        // the VPIC (Energy, x) shape in miniature.
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let a: Vec<f64> = (0..n)
            .map(|i| {
                if i * 3 >= n * 2 {
                    2.0 + ((i * 13) % 100) as f64 / 50.0
                } else {
                    ((i * 7) % 100) as f64 / 100.0
                }
            })
            .collect();
        (a, b)
    }

    fn exact_rect(a: &[f64], b: &[f64], lo: usize, hi: usize, iva: &Interval, ivb: &Interval) -> u64 {
        (lo..hi.min(a.len()))
            .filter(|&i| iva.contains(a[i]) && ivb.contains(b[i]))
            .count() as u64
    }

    #[test]
    fn rect_upper_is_a_sound_upper_bound() {
        let (a, b) = correlated(4000);
        let per = 500u64;
        let mut g = JointGrid::new(ObjectId(1), ObjectId(2), per);
        g.extend(&a, &b);
        assert!(g.self_check());
        assert_eq!(g.covered(), 4000);
        for iva in [Interval::open(2.0, 10.0), Interval::open(0.2, 0.4), Interval::ALL] {
            for ivb in [
                Interval::open(100.0, 900.0),
                Interval::open(3000.0, 3999.0),
                Interval::ALL,
            ] {
                for r in 0..8u32 {
                    let upper = g.rect_upper(r, per, &iva, &ivb).unwrap();
                    let exact = exact_rect(
                        &a,
                        &b,
                        (r as u64 * per) as usize,
                        ((r as u64 + 1) * per) as usize,
                        &iva,
                        &ivb,
                    );
                    assert!(upper >= exact, "region {r}: upper {upper} < exact {exact}");
                }
            }
        }
    }

    #[test]
    fn joint_kills_regions_1d_admits() {
        let (a, b) = correlated(4000);
        let per = 500u64;
        let mut g = JointGrid::new(ObjectId(1), ObjectId(2), per);
        g.extend(&a, &b);
        // Region 0: a in [0,1), b in [0,500). The rectangle a>2 AND
        // b in (0,400) is jointly empty even though... region 7 holds
        // a>2 (passes a's 1-D test elsewhere) — here check that a
        // region whose own values never combine is killed.
        let iva = Interval::from_op(pdc_types::QueryOp::Gt, 2.0);
        let ivb = Interval::open(0.0, 400.0);
        assert_eq!(g.rect_upper(0, per, &iva, &ivb), Some(0));
        // A region that genuinely holds matching pairs is not killed.
        let ivb_hot = Interval::open(3500.0, 3999.0);
        assert!(g.rect_upper(7, per, &iva, &ivb_hot).unwrap() > 0);
    }

    #[test]
    fn incremental_extension_matches_one_shot_and_needs_no_rebuild() {
        let (a, b) = correlated(3000);
        let per = 400u64;
        let mut whole = JointGrid::new(ObjectId(1), ObjectId(2), per);
        whole.extend(&a, &b);
        let mut incr = JointGrid::new(ObjectId(1), ObjectId(2), per);
        // Ragged chunks that split regions mid-way.
        let cuts = [0usize, 350, 401, 1199, 1200, 2750, 3000];
        for w in cuts.windows(2) {
            incr.extend(&a[w[0]..w[1]], &b[w[0]..w[1]]);
            assert!(incr.self_check(), "after chunk ending {}", w[1]);
        }
        assert_eq!(incr.covered(), whole.covered());
        // Same coverage and soundness; geometry may differ (chunks fix
        // geometry from partial extents), so compare answers not bits.
        let iva = Interval::from_op(pdc_types::QueryOp::Gt, 2.0);
        for r in 0..(3000 / per as usize) as u32 {
            for ivb in [Interval::open(0.0, 500.0), Interval::open(2100.0, 2900.0)] {
                let wu = whole.rect_upper(r, per, &iva, &ivb).unwrap();
                let iu = incr.rect_upper(r, per, &iva, &ivb).unwrap();
                let exact = exact_rect(
                    &a,
                    &b,
                    (r as u64 * per) as usize,
                    ((r as u64 + 1) * per) as usize,
                    &iva,
                    &ivb,
                );
                assert!(wu >= exact && iu >= exact, "region {r}: {wu}/{iu} vs {exact}");
            }
        }
    }

    #[test]
    fn partial_coverage_declines_to_answer() {
        let (a, b) = correlated(1000);
        let per = 400u64;
        let mut g = JointGrid::new(ObjectId(1), ObjectId(2), per);
        g.extend(&a[..500], &b[..500]);
        // Region 0 fully covered; region 1 only 100 of 400 elements.
        assert!(g.rect_upper(0, per, &Interval::ALL, &Interval::ALL).is_some());
        assert!(g.rect_upper(1, per, &Interval::ALL, &Interval::ALL).is_none());
        assert!(g.rect_upper(1, 100, &Interval::ALL, &Interval::ALL).is_some());
        assert!(g.rect_upper(2, per, &Interval::ALL, &Interval::ALL).is_none());
        g.extend(&a[500..], &b[500..]);
        assert_eq!(g.rect_upper(1, per, &Interval::ALL, &Interval::ALL), Some(400));
        assert!(g.self_check());
    }

    #[test]
    fn nan_pairs_land_in_no_cell() {
        let (mut a, mut b) = correlated(2000);
        // Region 0 (elements 0..500) holds only NaN in `a`; NaN is
        // scattered through both variables elsewhere.
        a[..500].fill(f64::NAN);
        for i in (500..2000).step_by(9) {
            if i % 2 == 0 {
                a[i] = f64::NAN
            } else {
                b[i] = f64::NAN
            }
        }
        let per = 500u64;
        let mut g = JointGrid::new(ObjectId(1), ObjectId(2), per);
        g.extend(&a, &b);
        assert!(g.self_check(), "NaN pairs must not break the grid's invariants");
        assert_eq!(g.rect_upper(0, per, &Interval::ALL, &Interval::ALL), Some(0));
        for r in 0..4u32 {
            let (lo, hi) = ((r as u64 * per) as usize, ((r as u64 + 1) * per) as usize);
            for iva in [Interval::open(2.0, 10.0), Interval::ALL] {
                let upper = g.rect_upper(r, per, &iva, &Interval::ALL).unwrap();
                let exact = exact_rect(&a, &b, lo, hi, &iva, &Interval::ALL);
                assert!(upper >= exact, "region {r}: upper {upper} < exact {exact}");
            }
        }
    }

    #[test]
    fn corrupted_copy_always_fails_self_check() {
        let (a, b) = correlated(1200);
        let mut g = JointGrid::new(ObjectId(3), ObjectId(4), 300);
        g.extend(&a, &b);
        for seed in 0..16u64 {
            let bad = g.corrupted_copy(seed);
            assert!(!bad.self_check(), "seed {seed} escaped detection");
            assert_eq!(bad, g.corrupted_copy(seed));
        }
        let empty = JointGrid::new(ObjectId(3), ObjectId(4), 300);
        assert!(!empty.corrupted_copy(0).self_check());
    }
}
