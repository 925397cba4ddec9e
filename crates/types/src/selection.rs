//! Query result selections.
//!
//! `PDCquery_get_selection` returns the coordinates of all matching
//! elements. Matches of range queries on scientific data are heavily
//! clustered (and fully contiguous on sorted replicas), so we store the
//! selection as sorted, non-overlapping, non-adjacent **runs** of linear
//! coordinates. Set operations (AND → intersection, OR → union) are linear
//! merges; the paper's "merge sort to remove duplicates" for OR corresponds
//! to [`Selection::union`].


/// A maximal contiguous run of selected coordinates `[start, start+len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Run {
    /// First selected coordinate.
    pub start: u64,
    /// Number of consecutive selected coordinates.
    pub len: u64,
}

impl Run {
    /// Run covering `[start, start+len)`.
    pub const fn new(start: u64, len: u64) -> Self {
        Self { start, len }
    }

    /// One past the last selected coordinate.
    #[inline]
    pub const fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// A set of selected element coordinates, run-length encoded.
///
/// Invariants (checked in debug builds, preserved by all constructors):
/// runs are sorted by `start`, non-empty, non-overlapping and
/// non-adjacent (adjacent runs are coalesced).
///
/// ```
/// use pdc_types::Selection;
/// let a = Selection::from_unsorted_coords(&[5, 3, 4, 10]);
/// let b = Selection::from_span(4, 3); // {4, 5, 6}
/// assert_eq!(a.union(&b).count(), 5); // {3, 4, 5, 6, 10}
/// assert_eq!(a.intersect(&b).iter_coords().collect::<Vec<_>>(), vec![4, 5]);
/// assert_eq!(a.num_runs(), 2); // {3,4,5} and {10}
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Selection {
    runs: Vec<Run>,
}

impl Selection {
    /// The empty selection.
    pub fn empty() -> Self {
        Selection { runs: Vec::new() }
    }

    /// Selection of every coordinate in `[0, n)`.
    pub fn all(n: u64) -> Self {
        if n == 0 {
            Selection::empty()
        } else {
            Selection { runs: vec![Run::new(0, n)] }
        }
    }

    /// Selection of a single contiguous span.
    pub fn from_span(start: u64, len: u64) -> Self {
        if len == 0 {
            Selection::empty()
        } else {
            Selection { runs: vec![Run::new(start, len)] }
        }
    }

    /// Build from an iterator of **strictly ascending** coordinates.
    ///
    /// Panics in debug builds if the input is not strictly ascending.
    pub fn from_sorted_coords<I: IntoIterator<Item = u64>>(coords: I) -> Self {
        let mut runs: Vec<Run> = Vec::new();
        for c in coords {
            match runs.last_mut() {
                Some(r) if c == r.end() => r.len += 1,
                Some(r) => {
                    debug_assert!(c > r.end(), "coordinates must be strictly ascending");
                    runs.push(Run::new(c, 1));
                }
                None => runs.push(Run::new(c, 1)),
            }
        }
        Selection { runs }
    }

    /// Build from arbitrary (possibly unsorted, possibly duplicated)
    /// coordinates, such as a sorted-replica slice of the permutation.
    ///
    /// Two paths, chosen by density; both return the same canonical runs:
    ///
    /// * **dense** — `coords` span fewer than [`DENSE_WORDS_PER_COORD`] ×
    ///   64 coordinates per element: scatter into a span-sized `u64` bitset,
    ///   then read runs off each word with `trailing_zeros` /
    ///   `trailing_ones`, coalescing across word boundaries. Linear in the
    ///   slice plus the span's word count.
    /// * **otherwise** (and every slice shorter than [`SORT_BELOW`]): copy,
    ///   sort and dedup.
    pub fn from_unsorted_coords(coords: &[u64]) -> Self {
        if coords.len() >= SORT_BELOW {
            let (lo, hi) = coords.iter().fold((u64::MAX, 0), |(lo, hi), &c| (lo.min(c), hi.max(c)));
            let dense_span = (coords.len() as u64).saturating_mul(DENSE_WORDS_PER_COORD * 64);
            if hi - lo < dense_span {
                return Selection { runs: runs_by_bitset(coords, lo, hi) };
            }
        }
        let mut sorted = coords.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        Self::from_sorted_coords(sorted)
    }

    /// Build from runs that are already sorted, disjoint and non-adjacent.
    ///
    /// Debug-asserts the invariants.
    pub fn from_canonical_runs(runs: Vec<Run>) -> Self {
        #[cfg(debug_assertions)]
        {
            for r in &runs {
                debug_assert!(r.len > 0, "empty run");
            }
            for w in runs.windows(2) {
                debug_assert!(w[0].end() < w[1].start, "runs must be disjoint, non-adjacent, sorted");
            }
        }
        Selection { runs }
    }

    /// Build from arbitrary runs (sorts, merges overlaps, coalesces).
    pub fn from_runs(mut runs: Vec<Run>) -> Self {
        runs.retain(|r| r.len > 0);
        runs.sort_unstable_by_key(|r| r.start);
        let mut out: Vec<Run> = Vec::with_capacity(runs.len());
        for r in &runs {
            append_runs(&mut out, std::slice::from_ref(r));
        }
        Selection { runs: out }
    }

    /// Number of selected coordinates (the paper's "number of hits").
    pub fn count(&self) -> u64 {
        self.runs.iter().map(|r| r.len).sum()
    }

    /// Whether nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The underlying canonical runs.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Number of runs (a measure of fragmentation — contiguity of results
    /// is what makes the sorted strategy fast).
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Iterate over all selected coordinates in ascending order.
    pub fn iter_coords(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs.iter().flat_map(|r| r.start..r.end())
    }

    /// Membership test (binary search over runs).
    pub fn contains(&self, c: u64) -> bool {
        match self.runs.binary_search_by_key(&c, |r| r.start) {
            Ok(_) => true,
            Err(0) => false,
            Err(i) => self.runs[i - 1].contains_coord(c),
        }
    }

    /// Set union — the paper's OR combination ("combine the results ...
    /// and remove the duplicates with a merge sort").
    pub fn union(&self, other: &Selection) -> Selection {
        let mut merged: Vec<Run> = Vec::with_capacity(self.runs.len() + other.runs.len());
        let (mut i, mut j) = (0, 0);
        while i < self.runs.len() || j < other.runs.len() {
            let take_left = match (self.runs.get(i), other.runs.get(j)) {
                (Some(a), Some(b)) => a.start <= b.start,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!(),
            };
            let r = if take_left {
                i += 1;
                self.runs[i - 1]
            } else {
                j += 1;
                other.runs[j - 1]
            };
            match merged.last_mut() {
                Some(last) if r.start <= last.end() => {
                    let end = last.end().max(r.end());
                    last.len = end - last.start;
                }
                _ => merged.push(r),
            }
        }
        Selection { runs: merged }
    }

    /// K-way set union: merge the runs of many selections in one
    /// heap-driven pass instead of k pairwise [`Selection::union`] merges,
    /// which degrade to O(k·n) when an accumulator re-walks its own runs on
    /// every fold step. The source with the smallest head copies its whole
    /// *stretch* — every run starting at or before the next source's head —
    /// before going back on the heap, so the cost is one heap operation per
    /// source switch, not per run: the engine's per-slot results interleave
    /// at region granularity, so one heap operation moves a region's runs.
    /// The result is canonical RLE, so it is bit-identical to any fold of
    /// `union`.
    pub fn union_many<'a, I: IntoIterator<Item = &'a Selection>>(sels: I) -> Selection {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let sources: Vec<&[Run]> =
            sels.into_iter().map(|s| s.runs()).filter(|r| !r.is_empty()).collect();
        match sources.len() {
            0 => return Selection::empty(),
            1 => return Selection { runs: sources[0].to_vec() },
            _ => {}
        }
        // Heap entries are (head run start, source, head run index); the
        // source index breaks ties deterministically.
        let mut heap: BinaryHeap<Reverse<(u64, usize, usize)>> = sources
            .iter()
            .enumerate()
            .map(|(k, runs)| Reverse((runs[0].start, k, 0)))
            .collect();
        let mut merged: Vec<Run> = Vec::with_capacity(sources.iter().map(|r| r.len()).sum());
        while let Some(Reverse((_, k, i))) = heap.pop() {
            let rest = &sources[k][i..];
            // The head is copied unconditionally and the stretch extends
            // while `start <=` the next head, so sources sharing a head
            // start always advance.
            let stretch = match heap.peek() {
                Some(&Reverse((next_head, _, _))) => {
                    1 + rest[1..].iter().take_while(|r| r.start <= next_head).count()
                }
                None => rest.len(),
            };
            append_runs(&mut merged, &rest[..stretch]);
            if let Some(next) = rest.get(stretch) {
                heap.push(Reverse((next.start, k, i + stretch)));
            }
        }
        Selection { runs: merged }
    }

    /// Set intersection — the paper's AND combination.
    pub fn intersect(&self, other: &Selection) -> Selection {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.runs.len() && j < other.runs.len() {
            let a = self.runs[i];
            let b = other.runs[j];
            let lo = a.start.max(b.start);
            let hi = a.end().min(b.end());
            if lo < hi {
                out.push(Run::new(lo, hi - lo));
            }
            if a.end() <= b.end() {
                i += 1;
            } else {
                j += 1;
            }
        }
        Selection { runs: out }
    }

    /// Restrict the selection to the span `[start, start+len)`.
    pub fn restrict_to_span(&self, start: u64, len: u64) -> Selection {
        if len == 0 {
            return Selection::empty();
        }
        let end = start + len;
        let mut out = Vec::new();
        for r in &self.runs {
            if r.end() <= start {
                continue;
            }
            if r.start >= end {
                break;
            }
            let lo = r.start.max(start);
            let hi = r.end().min(end);
            out.push(Run::new(lo, hi - lo));
        }
        Selection { runs: out }
    }

    /// Shift every coordinate by `delta` (used to translate region-local
    /// selections to object-global coordinates).
    pub fn shifted(&self, delta: u64) -> Selection {
        Selection {
            runs: self.runs.iter().map(|r| Run::new(r.start + delta, r.len)).collect(),
        }
    }

    /// Keep only coordinates satisfying `pred` (used for arbitrary spatial
    /// constraints from `PDCquery_set_region` on multi-dimensional shapes).
    pub fn filter_coords<F: FnMut(u64) -> bool>(&self, mut pred: F) -> Selection {
        Selection::from_sorted_coords(self.iter_coords().filter(|&c| pred(c)))
    }

    /// Serialized size estimate in bytes (for the simulated network:
    /// selections are shipped server → client).
    pub fn wire_size_bytes(&self) -> u64 {
        16 * self.runs.len() as u64 + 8
    }

    /// The selected locations as N-dimensional array coordinates under
    /// `shape` — the form `PDCquery_get_selection` reports for
    /// multi-dimensional objects ("the locations (array coordinates) of
    /// the matching elements").
    pub fn to_nd_coords(&self, shape: &crate::region::Shape) -> Vec<Vec<u64>> {
        self.iter_coords().map(|c| shape.unravel(c)).collect()
    }
}

impl Run {
    /// Whether the run contains coordinate `c`.
    #[inline]
    pub const fn contains_coord(&self, c: u64) -> bool {
        c >= self.start && c < self.end()
    }
}

/// Bitset words per coordinate up to which
/// [`Selection::from_unsorted_coords`] scatters into a span bitset instead
/// of sorting: `n` coordinates spanning fewer than
/// `DENSE_WORDS_PER_COORD × 64 × n` take the bitset path. The bitset pays
/// per word of span, the sort per coordinate; on the sorted-replica slices
/// of the `selective_catalog` benchmark the two cross at about 8 words per
/// coordinate, on uniformly scattered coordinates between 2 and 4
/// (DESIGN.md, "The sorted path").
pub const DENSE_WORDS_PER_COORD: u64 = 4;

/// Slices shorter than this always take the sort path of
/// [`Selection::from_unsorted_coords`]: below it, allocating, zeroing and
/// sweeping even a small bitset costs as much as sorting the slice.
pub const SORT_BELOW: usize = 32;

/// The canonical runs of `coords`, all within `[lo, hi]`, by scattering
/// them into a bitset over that span and decoding it word by word.
fn runs_by_bitset(coords: &[u64], lo: u64, hi: u64) -> Vec<Run> {
    let mut bits = vec![0u64; ((hi - lo) / 64 + 1) as usize];
    for &c in coords {
        let off = c - lo;
        bits[(off / 64) as usize] |= 1 << (off % 64);
    }
    let mut runs = Vec::new();
    for (w, &m) in bits.iter().enumerate() {
        mask_runs(m, lo + 64 * w as u64, &mut runs);
    }
    runs
}

/// Append `[start, start+len)` to `out`, coalescing with an adjacent tail.
#[inline]
fn push_run(out: &mut Vec<Run>, start: u64, len: u64) {
    if let Some(last) = out.last_mut() {
        if last.end() == start {
            last.len += len;
            return;
        }
    }
    out.push(Run::new(start, len));
}

/// Decode a 64-bit mask (bit `j` = coordinate `base + j`) into runs
/// appended to `out`, coalescing with a run ending at `base`.
#[inline]
pub(crate) fn mask_runs(mut m: u64, base: u64, out: &mut Vec<Run>) {
    while m != 0 {
        let lo = m.trailing_zeros() as u64;
        let ones = (m >> lo).trailing_ones() as u64;
        push_run(out, base + lo, ones);
        if lo + ones == 64 {
            break;
        }
        m &= !(((1u64 << ones) - 1) << lo);
    }
}

/// Append canonical `runs` to a canonical `out`, coalescing the runs that
/// overlap or touch `out`'s tail — the in-order assembly step that keeps
/// `out` canonical without a sort, so it can be finished with
/// [`Selection::from_canonical_runs`]. `runs` must not start before
/// `out`'s last run (debug-asserted).
pub fn append_runs(out: &mut Vec<Run>, runs: &[Run]) {
    let mut rest = runs;
    if let Some(last) = out.last_mut() {
        debug_assert!(rest.first().is_none_or(|r| r.start >= last.start), "runs out of order");
        while let Some(r) = rest.first().filter(|r| r.start <= last.end()) {
            last.len = last.end().max(r.end()) - last.start;
            rest = &rest[1..];
        }
    }
    out.extend_from_slice(rest);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(coords: &[u64]) -> Selection {
        Selection::from_unsorted_coords(coords)
    }

    #[test]
    fn from_sorted_coords_coalesces_runs() {
        let s = Selection::from_sorted_coords([1, 2, 3, 7, 8, 20]);
        assert_eq!(
            s.runs(),
            &[Run::new(1, 3), Run::new(7, 2), Run::new(20, 1)]
        );
        assert_eq!(s.count(), 6);
        assert_eq!(s.num_runs(), 3);
    }

    #[test]
    fn from_unsorted_dedups() {
        let s = Selection::from_unsorted_coords(&[5, 3, 5, 4, 10]);
        assert_eq!(s.runs(), &[Run::new(3, 3), Run::new(10, 1)]);
    }

    #[test]
    fn from_runs_normalizes_overlaps_and_adjacency() {
        let s = Selection::from_runs(vec![
            Run::new(10, 5),
            Run::new(0, 3),
            Run::new(12, 10),
            Run::new(3, 2), // adjacent to [0,3)
            Run::new(40, 0), // empty, dropped
        ]);
        assert_eq!(s.runs(), &[Run::new(0, 5), Run::new(10, 12)]);
    }

    #[test]
    fn count_and_membership() {
        let s = sel(&[0, 1, 2, 10, 11, 50]);
        assert_eq!(s.count(), 6);
        for c in [0, 2, 10, 11, 50] {
            assert!(s.contains(c), "{c}");
        }
        for c in [3, 9, 12, 49, 51] {
            assert!(!s.contains(c), "{c}");
        }
        assert!(!Selection::empty().contains(0));
    }

    #[test]
    fn union_equals_set_union() {
        let a = sel(&[1, 2, 3, 10]);
        let b = sel(&[3, 4, 5, 20]);
        let u = a.union(&b);
        let expect: Vec<u64> = vec![1, 2, 3, 4, 5, 10, 20];
        assert_eq!(u.iter_coords().collect::<Vec<_>>(), expect);
    }

    #[test]
    fn union_with_empty_is_identity() {
        let a = sel(&[4, 5, 9]);
        assert_eq!(a.union(&Selection::empty()), a);
        assert_eq!(Selection::empty().union(&a), a);
    }

    #[test]
    fn union_many_matches_pairwise_fold() {
        let inputs = [
            sel(&[1, 2, 3, 10]),
            sel(&[3, 4, 5, 20]),
            Selection::empty(),
            Selection::from_span(9, 3), // bridges 10 and introduces 9, 11
            sel(&[0, 21]),              // adjacent to 1 and 20
        ];
        let folded = inputs.iter().fold(Selection::empty(), |acc, s| acc.union(s));
        assert_eq!(Selection::union_many(inputs.iter()), folded);
        assert_eq!(Selection::union_many([].into_iter()), Selection::empty());
        let single = sel(&[7, 9]);
        assert_eq!(Selection::union_many([&single]), single);
    }

    #[test]
    fn union_many_pseudorandom_inputs_match_fold() {
        // Deterministic pseudo-random run soup across many sources.
        let mut state = 0x9E37_79B9u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let sources: Vec<Selection> = (0..13)
            .map(|_| {
                let coords: Vec<u64> = (0..200).map(|_| next() % 1500).collect();
                Selection::from_unsorted_coords(&coords)
            })
            .collect();
        let folded = sources.iter().fold(Selection::empty(), |acc, s| acc.union(s));
        assert_eq!(Selection::union_many(sources.iter()), folded);
    }

    #[test]
    fn append_runs_coalesces_only_at_the_tail() {
        let mut out = vec![Run::new(0, 5)];
        append_runs(&mut out, &[Run::new(5, 2), Run::new(9, 1)]); // touches the tail
        append_runs(&mut out, &[]);
        append_runs(&mut out, &[Run::new(9, 3), Run::new(20, 1)]); // overlaps it
        append_runs(&mut out, &[Run::new(30, 2)]);
        assert_eq!(out, vec![Run::new(0, 7), Run::new(9, 3), Run::new(20, 1), Run::new(30, 2)]);
        let mut empty = Vec::new();
        append_runs(&mut empty, &[Run::new(4, 1)]);
        assert_eq!(empty, vec![Run::new(4, 1)]);
    }

    #[test]
    fn intersect_equals_set_intersection() {
        let a = sel(&[1, 2, 3, 4, 10, 11]);
        let b = sel(&[3, 4, 5, 11, 12]);
        let i = a.intersect(&b);
        assert_eq!(i.iter_coords().collect::<Vec<_>>(), vec![3, 4, 11]);
    }

    #[test]
    fn intersect_disjoint_is_empty() {
        let a = Selection::from_span(0, 10);
        let b = Selection::from_span(10, 10);
        assert!(a.intersect(&b).is_empty());
    }

    #[test]
    fn all_and_span() {
        let all = Selection::all(100);
        assert_eq!(all.count(), 100);
        assert_eq!(all.num_runs(), 1);
        assert!(Selection::all(0).is_empty());
        assert!(Selection::from_span(5, 0).is_empty());
    }

    #[test]
    fn restrict_to_span_clips() {
        let s = sel(&[0, 1, 2, 8, 9, 10, 11, 30]);
        let r = s.restrict_to_span(2, 9); // [2, 11)
        assert_eq!(r.iter_coords().collect::<Vec<_>>(), vec![2, 8, 9, 10]);
        assert!(s.restrict_to_span(100, 5).is_empty());
        assert!(s.restrict_to_span(0, 0).is_empty());
    }

    #[test]
    fn shifted_translates() {
        let s = Selection::from_span(0, 3).shifted(100);
        assert_eq!(s.runs(), &[Run::new(100, 3)]);
    }

    #[test]
    fn filter_coords_applies_predicate() {
        let s = Selection::all(10);
        let even = s.filter_coords(|c| c % 2 == 0);
        assert_eq!(even.iter_coords().collect::<Vec<_>>(), vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn to_nd_coords_unravels_row_major() {
        let shape = crate::region::Shape(vec![3, 4]);
        let s = sel(&[0, 5, 11]);
        assert_eq!(
            s.to_nd_coords(&shape),
            vec![vec![0, 0], vec![1, 1], vec![2, 3]]
        );
    }

    #[test]
    fn wire_size_grows_with_fragmentation() {
        let contiguous = Selection::from_span(0, 1000);
        let fragmented = Selection::from_sorted_coords((0..1000).map(|i| i * 2));
        assert!(fragmented.wire_size_bytes() > contiguous.wire_size_bytes());
    }
}
