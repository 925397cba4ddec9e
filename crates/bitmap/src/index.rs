//! The binned bitmap index: one WAH bitmap per value bin.
//!
//! A range query over the index decomposes into:
//!
//! * **sure hits** — the OR of the bitmaps of bins fully covered by the
//!   query interval;
//! * **candidate bins** — bins only partially overlapped by the interval
//!   (possible only when a query constant does not fall on a bin
//!   boundary); their members must be checked against the raw data.
//!
//! With the paper's `precision = 2` binning, the evaluated queries align
//! with bin boundaries and the candidate set is empty — which is exactly
//! why the paper can answer `PDC-HI` queries "without the need to read the
//! region's data".

use crate::binning::{bin_of, precision_edges, BinningConfig};
use crate::wah::{WahBitVector, WahBuilder};

use pdc_types::{ByteReader, Bytes, Interval, PdcError, PdcResult, Selection};

/// The representable-value grid of the indexed data. Bin edges are round
/// decimals in `f64`, but the indexed values come from a coarser grid
/// (f32 data widened to f64, or integers): knowing the grid lets the
/// query classifier prove that no value can exist between a query bound
/// and a bin edge — which is what makes the paper's precision-aligned
/// queries (written as C `float` constants!) run without candidate
/// checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueDomain {
    /// Values are arbitrary doubles.
    F64,
    /// Values are f32 widened to f64.
    F32,
    /// Values are integers (any width ≤ 53 bits, exact in f64).
    Integer,
}

impl ValueDomain {
    /// The smallest domain value `>= x`.
    pub fn ceil_value(self, x: f64) -> f64 {
        match self {
            ValueDomain::F64 => x,
            ValueDomain::Integer => x.ceil(),
            ValueDomain::F32 => {
                let f = x as f32; // round-to-nearest
                if (f as f64) >= x {
                    f as f64
                } else {
                    next_f32_up(f) as f64
                }
            }
        }
    }

    /// The largest domain value `<= x`.
    pub fn floor_value(self, x: f64) -> f64 {
        match self {
            ValueDomain::F64 => x,
            ValueDomain::Integer => x.floor(),
            ValueDomain::F32 => {
                let f = x as f32;
                if (f as f64) <= x {
                    f as f64
                } else {
                    next_f32_down(f) as f64
                }
            }
        }
    }
}

/// The next f32 strictly above `x`.
fn next_f32_up(x: f32) -> f32 {
    if x == f32::INFINITY {
        return x;
    }
    let bits = x.to_bits();
    f32::from_bits(if x >= 0.0 {
        if x == 0.0 { 1 } else { bits + 1 }
    } else {
        bits - 1
    })
}

/// The next f32 strictly below `x`.
fn next_f32_down(x: f32) -> f32 {
    -next_f32_up(-x)
}

/// Largest bin count for which index construction streams 64-element hit
/// masks into per-bin WAH builders (the flush sweeps every bin once per
/// 64 elements, so it must stay bounded); finer binnings collect per-bin
/// positions instead. Both paths produce identical indexes.
const MASK_BINNING_MAX_BINS: usize = 256;

/// A binned, WAH-compressed bitmap index over one region's values.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedBitmapIndex {
    edges: Vec<f64>,
    bitmaps: Vec<WahBitVector>,
    domain: ValueDomain,
    /// `edge_hits[k]` — whether any indexed value equals `edges[k]`
    /// exactly. Lets an *exclusive* query bound sitting on a bin edge
    /// still classify the bin as a sure hit when no value can be affected
    /// (the common case for f32-derived data vs. decimal edges).
    edge_hits: Vec<bool>,
    nbits: u64,
}

/// The result of evaluating a range query against the index.
#[derive(Debug, Clone)]
pub struct IndexAnswer {
    /// Elements guaranteed to match (from fully-covered bins).
    pub sure: Selection,
    /// Elements that *may* match (from partially-overlapped boundary
    /// bins); must be verified against the raw values.
    pub candidates: Selection,
}

impl IndexAnswer {
    /// Whether resolving this answer requires reading the raw data.
    pub fn needs_candidate_check(&self) -> bool {
        !self.candidates.is_empty()
    }

    /// Upper bound on the number of hits without a candidate check.
    pub fn upper_bound(&self) -> u64 {
        self.sure.count() + self.candidates.count()
    }

    /// Resolve candidates against raw values: keep the candidates whose
    /// value matches the interval and merge them with the sure hits.
    /// `value_at(i)` must return the i-th raw value of the indexed region.
    pub fn resolve(&self, interval: &Interval, value_at: impl Fn(u64) -> f64) -> Selection {
        if self.candidates.is_empty() {
            return self.sure.clone();
        }
        let confirmed = self.candidates.filter_coords(|c| interval.contains(value_at(c)));
        self.sure.union(&confirmed)
    }
}

impl BinnedBitmapIndex {
    /// Build an index over `values` with precision binning, assuming the
    /// `F64` value domain.
    pub fn build(values: &[f64], cfg: &BinningConfig) -> Option<BinnedBitmapIndex> {
        Self::build_with_domain(values, cfg, ValueDomain::F64)
    }

    /// Build with precision binning and an explicit value domain.
    pub fn build_with_domain(
        values: &[f64],
        cfg: &BinningConfig,
        domain: ValueDomain,
    ) -> Option<BinnedBitmapIndex> {
        if values.is_empty() {
            return None;
        }
        // NaN fails both comparisons, so it never widens the range; an
        // all-NaN region gets the bins of a constant 0 and leaves them empty.
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in values {
            if v < min {
                min = v;
            }
            if v > max {
                max = v;
            }
        }
        if min > max {
            (min, max) = (0.0, 0.0);
        }
        let edges = precision_edges(min, max, cfg);
        Some(Self::build_with_edges(values, edges, domain))
    }

    /// Build with explicit, ascending bin edges. A NaN value satisfies no
    /// query interval, so it lands in no bin: it is neither a sure hit nor
    /// a candidate of any query.
    pub fn build_with_edges(
        values: &[f64],
        edges: Vec<f64>,
        domain: ValueDomain,
    ) -> BinnedBitmapIndex {
        assert!(edges.len() >= 2, "need at least one bin");
        let nbins = edges.len() - 1;
        let n = values.len() as u64;
        // Values are assigned to exactly one bin (equality-encoded bins).
        let mut edge_hits = vec![false; edges.len()];
        let bin_mins: Vec<f64> = edges.iter().map(|&e| domain.ceil_value(e)).collect();
        let bitmaps = if nbins <= MASK_BINNING_MAX_BINS {
            // Mask path: accumulate a current 64-bit block per bin and
            // flush blocks straight into per-bin WAH builders
            // ([`WahBuilder::append_mask_bits`]) — no per-element position
            // vectors, no per-bool append. Only worthwhile while the
            // per-flush sweep over all bins stays cheap, hence the bin
            // count gate.
            let mut builders: Vec<WahBuilder> = (0..nbins).map(|_| WahBuilder::new()).collect();
            let mut current = vec![0u64; nbins];
            for (i, &v) in values.iter().enumerate() {
                if !v.is_nan() {
                    let k = bin_of(&edges, v);
                    current[k] |= 1 << (i % 64);
                    if v == bin_mins[k] {
                        edge_hits[k] = true;
                    } else if v == edges[k + 1] {
                        // only possible for the clamped last bin
                        edge_hits[k + 1] = true;
                    }
                }
                if i % 64 == 63 {
                    for (b, cur) in builders.iter_mut().zip(current.iter_mut()) {
                        b.append_mask_bits(*cur, 64);
                        *cur = 0;
                    }
                }
            }
            let tail = (values.len() % 64) as u32;
            if tail > 0 {
                for (b, cur) in builders.iter_mut().zip(current.iter()) {
                    b.append_mask_bits(*cur, tail);
                }
            }
            builders.into_iter().map(WahBuilder::finish).collect()
        } else {
            // Position path for very fine binnings, where sweeping every
            // bin once per 64 elements would dominate.
            let mut positions: Vec<Vec<u64>> = vec![Vec::new(); nbins];
            for (i, &v) in values.iter().enumerate().filter(|(_, v)| !v.is_nan()) {
                let k = bin_of(&edges, v);
                positions[k].push(i as u64);
                if v == bin_mins[k] {
                    edge_hits[k] = true;
                } else if v == edges[k + 1] {
                    // only possible for the clamped last bin
                    edge_hits[k + 1] = true;
                }
            }
            positions
                .into_iter()
                .map(|pos| WahBitVector::from_selection(n, &Selection::from_sorted_coords(pos)))
                .collect()
        };
        BinnedBitmapIndex { edges, bitmaps, domain, edge_hits, nbits: n }
    }

    /// Number of indexed elements.
    pub fn num_elements(&self) -> u64 {
        self.nbits
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.bitmaps.len()
    }

    /// Bin edges.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// The bitmap of bin `k`.
    pub fn bitmap(&self, k: usize) -> &WahBitVector {
        &self.bitmaps[k]
    }

    /// Exact length of [`Self::to_bytes`] output.
    pub fn size_bytes_serialized(&self) -> u64 {
        8 + 1 + 4
            + 9 * self.edges.len() as u64
            + 4
            + self.bitmaps.iter().map(|b| 12 + 4 * b.num_words() as u64).sum::<u64>()
    }

    /// Total compressed size in bytes (edges + bitmaps + headers) — the
    /// quantity behind the paper's "index file takes 15–17 % of the total
    /// data size".
    pub fn size_bytes(&self) -> u64 {
        8 * self.edges.len() as u64
            + self.bitmaps.iter().map(|b| b.size_bytes()).sum::<u64>()
            + 16
    }

    /// Evaluate a range query. Bins fully covered by `interval`
    /// contribute sure hits; partially-overlapped bins become candidates.
    pub fn query(&self, interval: &Interval) -> IndexAnswer {
        let mut sure_bins: Vec<&WahBitVector> = Vec::new();
        let mut candidate_bins: Vec<&WahBitVector> = Vec::new();
        for k in 0..self.num_bins() {
            let lo = self.edges[k];
            let hi = self.edges[k + 1];
            // Bin k holds values in [lo, hi) on the value-domain grid;
            // the last bin additionally holds clamped values equal to the
            // final edge, if any.
            let bin_min = self.domain.ceil_value(lo);
            let raw_max = if k + 1 == self.num_bins() && self.edge_hits[k + 1] {
                hi
            } else {
                prev_double(hi)
            };
            let bin_max = self.domain.floor_value(raw_max).max(bin_min);
            if !interval.overlaps_range(bin_min, bin_max) {
                continue;
            }
            // Sure iff every domain value the bin can hold satisfies the
            // interval: the top must be inside, and the bottom must be
            // either strictly above the lower bound, or exactly on an
            // inclusive bound, or on an exclusive bound that no indexed
            // value actually sits on.
            let sure = interval.contains(bin_max)
                && match interval.lo {
                    None => true,
                    Some(b) => {
                        b.value < bin_min
                            || (b.value == bin_min && (b.inclusive || !self.edge_hits[k]))
                    }
                };
            if sure {
                sure_bins.push(&self.bitmaps[k]);
            } else {
                candidate_bins.push(&self.bitmaps[k]);
            }
        }
        let sure = WahBitVector::or_many(self.nbits, sure_bins).to_selection();
        let candidates = WahBitVector::or_many(self.nbits, candidate_bins).to_selection();
        IndexAnswer { sure, candidates }
    }

    /// Evaluate a conjunction of intervals over this region in one pass.
    ///
    /// An element surely matches the conjunction iff it surely matches
    /// every interval; it is a candidate iff it possibly matches every
    /// interval without surely matching all of them. Both sets are
    /// computed at the compressed-word level with
    /// [`WahBitVector::and_many`] (in-place, buffer-recycling), so an
    /// `n`-term chain costs `n - 1` word-stream passes and no per-AND
    /// bitvector allocations. `query_conj(&[iv])` is exactly
    /// [`Self::query`]`(iv)`.
    pub fn query_conj(&self, intervals: &[Interval]) -> IndexAnswer {
        if let [iv] = intervals {
            return self.query(iv);
        }
        let per: Vec<(WahBitVector, WahBitVector)> = intervals
            .iter()
            .map(|iv| {
                let a = self.query(iv);
                let sure = WahBitVector::from_selection(self.nbits, &a.sure);
                let possible =
                    sure.or(&WahBitVector::from_selection(self.nbits, &a.candidates));
                (sure, possible)
            })
            .collect();
        let sure = WahBitVector::and_many(self.nbits, per.iter().map(|(s, _)| s));
        let possible = WahBitVector::and_many(self.nbits, per.iter().map(|(_, p)| p));
        let candidates = possible.and(&sure.not());
        IndexAnswer { sure: sure.to_selection(), candidates: candidates.to_selection() }
    }

    /// Serialize to a byte buffer (the on-"disk" index file format; what
    /// the simulated storage layer charges I/O for).
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = Vec::with_capacity(self.size_bytes_serialized() as usize);
        buf.extend_from_slice(&self.nbits.to_le_bytes());
        buf.push(match self.domain {
            ValueDomain::F64 => 0,
            ValueDomain::F32 => 1,
            ValueDomain::Integer => 2,
        });
        buf.extend_from_slice(&(self.edges.len() as u32).to_le_bytes());
        for &e in &self.edges {
            buf.extend_from_slice(&e.to_le_bytes());
        }
        buf.extend(self.edge_hits.iter().map(|&h| h as u8));
        buf.extend_from_slice(&(self.bitmaps.len() as u32).to_le_bytes());
        for bm in &self.bitmaps {
            buf.extend_from_slice(&bm.nbits().to_le_bytes());
            let words = bm.words_raw();
            buf.extend_from_slice(&(words.len() as u32).to_le_bytes());
            for &w in words {
                buf.extend_from_slice(&w.to_le_bytes());
            }
        }
        buf.into()
    }

    /// Deserialize from [`Self::to_bytes`] output. Every bitmap must be
    /// as long as the index: a mismatched one would fail the first
    /// combination in [`Self::query`].
    pub fn from_bytes(buf: &[u8]) -> PdcResult<BinnedBitmapIndex> {
        let mut r = ByteReader::new(buf, |why| PdcError::Codec(format!("bitmap index: {why}")));
        let nbits = r.u64()?;
        let domain = match r.u8()? {
            0 => ValueDomain::F64,
            1 => ValueDomain::F32,
            2 => ValueDomain::Integer,
            other => return Err(r.error(format!("bad domain tag {other}"))),
        };
        let nedges = r.u32()? as usize;
        let edges = r.vec(nedges, f64::from_le_bytes)?;
        let edge_hits = r.bytes(nedges)?.iter().map(|&h| h != 0).collect();
        let nbins = r.u32()? as usize;
        if nedges != nbins + 1 {
            return Err(r.error("edge/bin count mismatch"));
        }
        let mut bitmaps = Vec::with_capacity(nbins);
        for k in 0..nbins {
            let bm_nbits = r.u64()?;
            if bm_nbits != nbits {
                return Err(r.error(format!("bin {k} holds {bm_nbits} bits, index {nbits}")));
            }
            let nwords = r.u32()? as usize;
            let words = r.vec(nwords, u32::from_le_bytes)?;
            let bitmap = WahBitVector::from_raw_parts(words, nbits)
                .ok_or_else(|| r.error(format!("bin {k}'s words do not cover {nbits} bits")))?;
            bitmaps.push(bitmap);
        }
        Ok(BinnedBitmapIndex { edges, bitmaps, domain, edge_hits, nbits })
    }
}

/// The largest f64 strictly less than `x`.
fn prev_double(x: f64) -> f64 {
    if x == f64::NEG_INFINITY {
        return x;
    }
    let bits = x.to_bits();
    let prev = if x > 0.0 {
        bits - 1
    } else if x == 0.0 {
        (-f64::MIN_POSITIVE).to_bits()
    } else {
        bits + 1
    };
    f64::from_bits(prev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_types::QueryOp;

    fn sample_values(n: usize) -> Vec<f64> {
        // f32-derived values (like VPIC data widened to f64): none of them
        // coincide exactly with decimal bin edges such as 2.1 (f32 2.1
        // widens to 2.0999999046…, not the f64 decimal 2.1).
        (0..n).map(|i| (((i * 37) % 1000) as f32 / 100.0) as f64).collect() // [0, 9.99]
    }

    fn exact(values: &[f64], iv: &Interval) -> Vec<u64> {
        values
            .iter()
            .enumerate()
            .filter(|(_, &v)| iv.contains(v))
            .map(|(i, _)| i as u64)
            .collect()
    }

    #[test]
    fn mask_and_position_build_paths_agree_with_naive_binning() {
        let values = sample_values(4003); // odd length: exercises tail flush
        // Edge sets on both sides of MASK_BINNING_MAX_BINS: coarse (mask
        // path) and fine (position path). Both must equal naive per-bin
        // membership bitmaps.
        for nbins in [5usize, MASK_BINNING_MAX_BINS, MASK_BINNING_MAX_BINS + 50] {
            let edges: Vec<f64> = (0..=nbins).map(|k| 10.0 * k as f64 / nbins as f64).collect();
            let idx = BinnedBitmapIndex::build_with_edges(&values, edges.clone(), ValueDomain::F32);
            assert_eq!(idx.num_bins(), nbins);
            for k in 0..nbins {
                let members: Vec<u64> = values
                    .iter()
                    .enumerate()
                    .filter(|(_, &v)| bin_of(&edges, v) == k)
                    .map(|(i, _)| i as u64)
                    .collect();
                let expect = WahBitVector::from_selection(
                    values.len() as u64,
                    &Selection::from_sorted_coords(members),
                );
                assert_eq!(*idx.bitmap(k), expect, "nbins {nbins} bin {k}");
            }
        }
    }

    #[test]
    fn aligned_query_needs_no_candidates() {
        let values = sample_values(5000);
        let idx = BinnedBitmapIndex::build(&values, &BinningConfig::default()).unwrap();
        // 2.1 < v < 2.2 — both constants on precision-2 boundaries.
        let iv = Interval::open(2.1, 2.2);
        let ans = idx.query(&iv);
        assert!(!ans.needs_candidate_check(), "aligned bounds must avoid candidate checks");
        // Half-open [2.1, 2.2) differs from open (2.1, 2.2) only at 2.1
        // itself; sure hits must match v in [2.1+, 2.2).
        let resolved = ans.resolve(&iv, |i| values[i as usize]);
        assert_eq!(resolved.iter_coords().collect::<Vec<_>>(), exact(&values, &iv));
    }

    #[test]
    fn unaligned_query_candidates_resolve_exactly() {
        let values = sample_values(5000);
        let idx = BinnedBitmapIndex::build(&values, &BinningConfig::default()).unwrap();
        let iv = Interval::open(2.137, 4.456); // not on boundaries
        let ans = idx.query(&iv);
        assert!(ans.needs_candidate_check());
        let resolved = ans.resolve(&iv, |i| values[i as usize]);
        assert_eq!(resolved.iter_coords().collect::<Vec<_>>(), exact(&values, &iv));
        // sure hits are a subset of the exact answer
        let exact_sel = Selection::from_sorted_coords(exact(&values, &iv));
        assert_eq!(ans.sure.intersect(&exact_sel), ans.sure);
    }

    #[test]
    fn one_sided_queries() {
        let values = sample_values(3000);
        let idx = BinnedBitmapIndex::build(&values, &BinningConfig::default()).unwrap();
        for iv in [
            Interval::from_op(QueryOp::Gt, 5.0),
            Interval::from_op(QueryOp::Lte, 1.3),
            Interval::from_op(QueryOp::Gte, 9.9),
        ] {
            let ans = idx.query(&iv);
            let resolved = ans.resolve(&iv, |i| values[i as usize]);
            assert_eq!(resolved.iter_coords().collect::<Vec<_>>(), exact(&values, &iv), "{iv}");
        }
    }

    #[test]
    fn query_conj_matches_single_and_intersection() {
        let values = sample_values(3000);
        let idx = BinnedBitmapIndex::build(&values, &BinningConfig::default()).unwrap();
        // Single-interval conjunction is literally `query`.
        let iv = Interval::open(2.1, 2.2);
        let a = idx.query(&iv);
        let c = idx.query_conj(std::slice::from_ref(&iv));
        assert_eq!(a.sure, c.sure);
        assert_eq!(a.candidates, c.candidates);
        // A multi-term chain resolves to the same exact coordinates as
        // the fused interval (resolving each term's membership).
        let chain = [
            Interval::from_op(QueryOp::Gt, 2.1),
            Interval::from_op(QueryOp::Lt, 6.4),
            Interval::from_op(QueryOp::Gte, 3.0),
        ];
        let fused = chain.iter().fold(Interval::ALL, |acc, i| acc.intersect(i));
        let ans = idx.query_conj(&chain);
        // Sure hits really satisfy every term; candidates are disjoint
        // from them and cover everything else that matches.
        for coord in ans.sure.iter_coords() {
            assert!(fused.contains(values[coord as usize]), "false sure hit at {coord}");
            assert!(!ans.candidates.contains(coord));
        }
        let resolved = ans.resolve(&fused, |i| values[i as usize]);
        assert_eq!(
            resolved.iter_coords().collect::<Vec<_>>(),
            exact(&values, &fused),
            "conjunction answer must resolve to the exact fused result"
        );
        // And it refines each individual term's answer: sure ⊆ term-sure∪cand.
        for term in &chain {
            let t = idx.query(term);
            for coord in ans.sure.iter_coords() {
                assert!(t.sure.contains(coord) || t.candidates.contains(coord));
            }
        }
    }

    #[test]
    fn equality_query() {
        let values = sample_values(3000);
        let idx = BinnedBitmapIndex::build(&values, &BinningConfig::default()).unwrap();
        let iv = Interval::from_op(QueryOp::Eq, 3.7);
        let ans = idx.query(&iv);
        let resolved = ans.resolve(&iv, |i| values[i as usize]);
        assert_eq!(resolved.iter_coords().collect::<Vec<_>>(), exact(&values, &iv));
    }

    #[test]
    fn empty_and_full_intervals() {
        let values = sample_values(1000);
        let idx = BinnedBitmapIndex::build(&values, &BinningConfig::default()).unwrap();
        let none = idx.query(&Interval::from_op(QueryOp::Gt, 100.0));
        assert_eq!(none.upper_bound(), 0);
        let all = idx.query(&Interval::ALL);
        assert_eq!(all.resolve(&Interval::ALL, |i| values[i as usize]).count(), 1000);
    }

    #[test]
    fn empty_input_yields_none() {
        assert!(BinnedBitmapIndex::build(&[], &BinningConfig::default()).is_none());
    }

    #[test]
    fn every_element_in_exactly_one_bin() {
        let values = sample_values(2000);
        let idx = BinnedBitmapIndex::build(&values, &BinningConfig::default()).unwrap();
        let mut total = 0u64;
        for k in 0..idx.num_bins() {
            total += idx.bitmap(k).count_ones();
        }
        assert_eq!(total, 2000);
    }

    #[test]
    fn nan_elements_land_in_no_bin() {
        let mut values = sample_values(3000);
        for i in (0..3000).step_by(7) {
            values[i] = f64::NAN;
        }
        let n_nan = (0..3000).step_by(7).count() as u64;
        // Both build paths (mask and position), plus an all-NaN region.
        let fine = BinningConfig { precision: 4, ..BinningConfig::default() };
        for cfg in [BinningConfig::default(), fine] {
            let idx = BinnedBitmapIndex::build(&values, &cfg).unwrap();
            let binned: u64 = (0..idx.num_bins()).map(|k| idx.bitmap(k).count_ones()).sum();
            assert_eq!(binned, 3000 - n_nan);
            for iv in [Interval::ALL, Interval::open(2.1, 2.2), Interval::open(2.137, 4.456)] {
                let ans = idx.query(&iv);
                let possible = ans.sure.union(&ans.candidates);
                assert!(possible.iter_coords().all(|c| !values[c as usize].is_nan()), "{iv}");
                let resolved = ans.resolve(&iv, |i| values[i as usize]);
                assert_eq!(resolved.iter_coords().collect::<Vec<_>>(), exact(&values, &iv), "{iv}");
            }
        }
        let idx = BinnedBitmapIndex::build(&[f64::NAN; 100], &BinningConfig::default()).unwrap();
        assert_eq!(idx.num_elements(), 100);
        assert_eq!(idx.query(&Interval::ALL).upper_bound(), 0);
    }

    #[test]
    fn serialization_roundtrip() {
        let values = sample_values(4000);
        let idx = BinnedBitmapIndex::build(&values, &BinningConfig::default()).unwrap();
        let bytes = idx.to_bytes();
        assert_eq!(bytes.len() as u64, idx.size_bytes_serialized());
        let back = BinnedBitmapIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back, idx);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(BinnedBitmapIndex::from_bytes(&[1, 2, 3]).is_err());
        let values = sample_values(100);
        let idx = BinnedBitmapIndex::build(&values, &BinningConfig::default()).unwrap();
        let bytes = idx.to_bytes();
        assert!(BinnedBitmapIndex::from_bytes(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn from_bytes_rejects_bitmap_length_disagreeing_with_index() {
        let values = sample_values(5000);
        let idx = BinnedBitmapIndex::build(&values, &BinningConfig::default()).unwrap();
        let mut bytes = idx.to_bytes().to_vec();
        // The first bitmap's `nbits` follows the 13-byte header, the edges
        // with their hit flags, and the 4-byte bin count.
        let at = 13 + 9 * idx.edges().len() + 4;
        assert_eq!(bytes[at..at + 8], 5000u64.to_le_bytes());
        bytes[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        // Decoded, such an index would panic in `query` when the bitmap is
        // combined with ones of the index's length.
        assert!(matches!(BinnedBitmapIndex::from_bytes(&bytes), Err(PdcError::Codec(_))));
    }

    #[test]
    fn from_bytes_rejects_a_word_stream_shorter_than_its_bits() {
        let values = sample_values(5000);
        let idx = BinnedBitmapIndex::build(&values, &BinningConfig::default()).unwrap();
        let mut bytes = idx.to_bytes().to_vec();
        // Empty the first bin: `nwords` 0 and its words dropped, `nbits`
        // left at 5 000. Decoded, `query` would lose every hit of the
        // other bins (0 sure hits and 0 candidates for -1 < v < 100).
        let at = 13 + 9 * idx.edges().len() + 4 + 8;
        let nwords = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        assert!(nwords > 0);
        bytes[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
        bytes.drain(at + 4..at + 4 + 4 * nwords);
        assert!(matches!(BinnedBitmapIndex::from_bytes(&bytes), Err(PdcError::Codec(_))));
    }

    #[test]
    fn prev_double_is_strictly_less() {
        for x in [1.0, 0.1, 1e300, -2.5, 1e-300] {
            let p = prev_double(x);
            assert!(p < x, "{p} !< {x}");
        }
        assert!(prev_double(0.0) < 0.0);
    }

    #[test]
    fn index_size_reported() {
        let values = sample_values(10_000);
        let idx = BinnedBitmapIndex::build(&values, &BinningConfig::default()).unwrap();
        assert!(idx.size_bytes() > 0);
        // sanity: a 100-bin index over 10k elements shouldn't dwarf the data
        assert!(idx.size_bytes() < 40 * values.len() as u64);
    }
}
