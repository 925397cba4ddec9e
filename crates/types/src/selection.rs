//! Query result selections.
//!
//! `PDCquery_get_selection` returns the coordinates of all matching
//! elements. Matches of range queries on scientific data are heavily
//! clustered (and fully contiguous on sorted replicas), so we store the
//! selection as sorted, non-overlapping, non-adjacent **runs** of linear
//! coordinates. Set operations (AND → intersection, OR → union) are linear
//! merges; the paper's "merge sort to remove duplicates" for OR corresponds
//! to [`Selection::union`].

use std::borrow::Cow;

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
/// use pdc_types::{Run, Selection};
/// let a = Selection::from_unsorted_coords(&[5, 3, 4, 10]);
/// let b = Selection::from_runs(vec![Run::new(4, 3)]); // {4, 5, 6}
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
    /// coordinates, such as a sorted-replica slice of the permutation: the
    /// one-slice case of [`Selection::from_unsorted_slices`].
    pub fn from_unsorted_coords(coords: &[u64]) -> Self {
        Self::from_unsorted_slices(&[coords])
    }

    /// Build from the union of several slices of arbitrary (possibly
    /// unsorted, possibly duplicated) coordinates, such as every
    /// sorted-replica slice one server reads for a band: the scatter of
    /// [`PartialSelection::scatter`] (to words, or sorted), decoded once
    /// into at most one run per coordinate reserved, without counting the
    /// runs first.
    pub fn from_unsorted_slices(slices: &[&[u64]]) -> Self {
        match scatter_words(slices) {
            Ok((base_word, words)) => {
                let n = slices.iter().map(|s| s.len()).sum();
                Selection { runs: decode_bits(&words, 64 * base_word, n) }
            }
            Err(sorted) => sorted,
        }
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
    /// source switch, not per run. Per-slot results of the per-region lanes
    /// interleave at region granularity, so there one heap operation moves a
    /// region's runs; sources that interleave run by run (a sorted band's
    /// slots) cost one heap operation per run, and
    /// [`Selection::union_partials`] merges those by words instead.
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

    /// Set union of servers' partial selections whose coordinates
    /// interleave element by element, such as the per-slot answers of a
    /// sorted band, which scatter over the whole object: OR every part into
    /// one bitset on the global 64-coordinate word grid over the parts'
    /// span — a scattered part word for word, a part of runs by filling
    /// them — then decode it once with [`mask_runs`], reserving the parts'
    /// summed run count. The cost is linear in the parts' words and runs
    /// plus the span's word count, independent of how often the parts
    /// alternate.
    ///
    /// A single part, or parts holding fewer runs than their span has
    /// [`DENSE_WORDS_PER_COORD`] × 64-coordinate stretches (the bitset
    /// would cost more than it saves), are decoded one by one and merged
    /// by [`Selection::union_many`]. Either way the result is the same
    /// canonical RLE.
    pub fn union_partials<'a, I: IntoIterator<Item = &'a PartialSelection>>(parts: I) -> Selection {
        let parts: Vec<&Part> =
            parts.into_iter().map(|p| &p.0).filter(|p| p.num_runs() > 0).collect();
        let lo = parts.iter().map(|p| p.bounds().0).min();
        let hi = parts.iter().map(|p| p.bounds().1).max();
        let (Some(lo), Some(hi)) = (lo, hi) else {
            return Selection::empty();
        };
        let total: usize = parts.iter().map(|p| p.num_runs()).sum();
        if parts.len() == 1 || !is_dense(lo, hi, total as u64) {
            let sels: Vec<Cow<'_, Selection>> = parts.iter().map(|p| p.decoded()).collect();
            return Selection::union_many(sels.iter().map(|s| &**s));
        }
        let base_word = lo / 64;
        let mut bits = vec![0u64; (hi / 64 - base_word + 1) as usize];
        for p in parts {
            match p {
                Part::Words { base_word: at, words, .. } => {
                    let at = (at - base_word) as usize;
                    for (acc, &m) in bits[at..at + words.len()].iter_mut().zip(words) {
                        *acc |= m;
                    }
                }
                Part::Runs(s) => {
                    for r in &s.runs {
                        fill_bits(&mut bits, r.start - 64 * base_word, r.end() - 64 * base_word);
                    }
                }
            }
        }
        Selection { runs: decode_bits(&bits, 64 * base_word, total) }
    }

    /// Set intersection — the paper's AND combination.
    pub fn intersect(&self, other: &Selection) -> Selection {
        self.intersect_runs(&other.runs)
    }

    /// Intersection with canonical `runs` (sorted, disjoint, non-adjacent)
    /// in one linear merge — [`Selection::intersect`] without owning the
    /// other side, e.g. a borrowed slice of another selection's runs.
    pub fn intersect_runs(&self, runs: &[Run]) -> Selection {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.runs.len() && j < runs.len() {
            let a = self.runs[i];
            let b = runs[j];
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
        Selection { runs: self.runs_in_span(start, len).collect() }
    }

    /// The runs clipped to the span `[start, start+len)`, in order. One
    /// binary search finds the first run ending inside the span, so the
    /// cost is O(log n + k) for k runs in the span.
    pub fn runs_in_span(&self, start: u64, len: u64) -> impl Iterator<Item = Run> + '_ {
        let end = start.saturating_add(len);
        let first = if len == 0 {
            self.runs.len()
        } else {
            self.runs.partition_point(|r| r.end() <= start)
        };
        self.runs[first..].iter().take_while(move |r| r.start < end).map(move |r| {
            let lo = r.start.max(start);
            Run::new(lo, r.end().min(end) - lo)
        })
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
        wire_size(self.runs.len())
    }
}

/// Serialized size of `runs` runs: 16 bytes each plus an 8-byte count.
fn wire_size(runs: usize) -> u64 {
    16 * runs as u64 + 8
}

impl Run {
    /// Whether the run contains coordinate `c`.
    #[inline]
    pub const fn contains_coord(&self, c: u64) -> bool {
        c >= self.start && c < self.end()
    }
}

/// Bitset words per coordinate up to which [`PartialSelection::scatter`]
/// scatters into a span bitset instead of sorting
/// ([`Selection::union_partials`] ORs parts into one instead of merging
/// them by heap, and [`RankDirectory`] builds one instead of searching
/// runs): `n` coordinates spanning fewer than
/// `DENSE_WORDS_PER_COORD × 64 × n` take the bitset path. The bitset pays
/// per word of span, the sort per coordinate; on the sorted-replica slices
/// of the `selective_catalog` benchmark the two cross at about 8 words per
/// coordinate, on uniformly scattered coordinates between 2 and 4
/// (DESIGN.md, "The sorted path").
pub const DENSE_WORDS_PER_COORD: u64 = 4;

/// The density rule of [`DENSE_WORDS_PER_COORD`]: whether `placed`
/// coordinates (or runs) spanning `[lo, hi]` take the bitset path.
fn is_dense(lo: u64, hi: u64, placed: u64) -> bool {
    hi - lo < placed.saturating_mul(DENSE_WORDS_PER_COORD * 64)
}

/// One server's share of a union, in the form it travels to the client,
/// where [`Selection::union_partials`] merges the shares: the bitset its
/// coordinates were scattered into when they were dense, its canonical
/// runs otherwise.
///
/// ```
/// use pdc_types::selection::PartialSelection;
/// use pdc_types::Selection;
/// let coords: Vec<u64> = (0..100).map(|i| (i * 37) % 200).collect();
/// let part = PartialSelection::scatter(&[&coords]);
/// assert!(part.as_runs().is_none()); // dense: shipped as words
/// assert_eq!(part.num_runs(), Selection::from_unsorted_coords(&coords).num_runs());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialSelection(Part);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Part {
    /// Bit `j` of `words[i]` is coordinate `64 × (base_word + i) + j`, on
    /// the global 64-coordinate word grid; the first and last words are
    /// non-zero, and `runs` is the number of canonical runs they decode to.
    Words { base_word: u64, words: Vec<u64>, runs: usize },
    Runs(Selection),
}

impl PartialSelection {
    /// The union of several slices of arbitrary (possibly unsorted,
    /// possibly duplicated) coordinates, such as every sorted-replica slice
    /// one server reads for a band. Two forms, chosen by density over all
    /// the slices together:
    ///
    /// * **dense** — the `n` coordinates span fewer than
    ///   [`DENSE_WORDS_PER_COORD`] × 64 × `n`: scatter every slice into
    ///   one `u64` bitset on the word grid over their span, and count its
    ///   canonical runs in one popcount pass (a run starts at each set bit
    ///   whose lower neighbour, across word ends too, is clear). Linear in
    ///   the coordinates plus the span's word count; nothing is decoded.
    /// * **otherwise** (and whenever `n` is below [`SORT_BELOW`]):
    ///   concatenate, sort and dedup into runs.
    pub fn scatter(slices: &[&[u64]]) -> Self {
        match scatter_words(slices) {
            Ok((base_word, words)) => {
                let mut carry = 0;
                let runs = words
                    .iter()
                    .map(|&m| {
                        let starts = m & !((m << 1) | carry);
                        carry = m >> 63;
                        starts.count_ones() as usize
                    })
                    .sum();
                PartialSelection(Part::Words { base_word, words, runs })
            }
            Err(sorted) => PartialSelection(Part::Runs(sorted)),
        }
    }

    /// Number of canonical runs the part decodes to.
    pub fn num_runs(&self) -> usize {
        self.0.num_runs()
    }

    /// [`Selection::wire_size_bytes`] of the decoded part, without
    /// decoding it.
    pub fn wire_size_bytes(&self) -> u64 {
        wire_size(self.num_runs())
    }

    /// The part's runs, unless it travels as words.
    pub fn as_runs(&self) -> Option<&Selection> {
        match &self.0 {
            Part::Runs(s) => Some(s),
            Part::Words { .. } => None,
        }
    }
}

/// The scatter of [`PartialSelection::scatter`]: dense coordinates as
/// `(base_word, words)` on the global word grid, any others sorted and
/// deduplicated into runs.
fn scatter_words(slices: &[&[u64]]) -> Result<(u64, Vec<u64>), Selection> {
    let n: usize = slices.iter().map(|s| s.len()).sum();
    if n >= SORT_BELOW {
        let (lo, hi) = slices.iter().fold((u64::MAX, 0), |acc, s| {
            s.iter().fold(acc, |(lo, hi), &c| (lo.min(c), hi.max(c)))
        });
        if is_dense(lo, hi, n as u64) {
            let base_word = lo / 64;
            let mut words = vec![0u64; (hi / 64 - base_word + 1) as usize];
            for slice in slices {
                for &c in *slice {
                    words[(c / 64 - base_word) as usize] |= 1 << (c % 64);
                }
            }
            return Ok((base_word, words));
        }
    }
    let mut sorted = slices.concat();
    sorted.sort_unstable();
    sorted.dedup();
    Err(Selection::from_sorted_coords(sorted))
}

impl From<Selection> for PartialSelection {
    fn from(sel: Selection) -> Self {
        PartialSelection(Part::Runs(sel))
    }
}

impl Part {
    fn num_runs(&self) -> usize {
        match self {
            Part::Words { runs, .. } => *runs,
            Part::Runs(s) => s.num_runs(),
        }
    }

    /// First and last selected coordinate of a non-empty part.
    fn bounds(&self) -> (u64, u64) {
        match self {
            Part::Words { base_word, words, .. } => {
                let last_word = base_word + (words.len() - 1) as u64;
                (
                    64 * base_word + u64::from(words[0].trailing_zeros()),
                    64 * last_word + 63 - u64::from(words[words.len() - 1].leading_zeros()),
                )
            }
            Part::Runs(s) => (s.runs[0].start, s.runs[s.runs.len() - 1].end() - 1),
        }
    }

    fn decoded(&self) -> Cow<'_, Selection> {
        match self {
            Part::Words { base_word, words, runs } => {
                Cow::Owned(Selection { runs: decode_bits(words, 64 * base_word, *runs) })
            }
            Part::Runs(s) => Cow::Borrowed(s),
        }
    }
}

/// The position of each selected coordinate in ascending order:
/// [`RankDirectory::rank`] maps `c` to its index in
/// [`Selection::iter_coords`], or `None` when `c` is not selected. It lets
/// values that arrive in any order (a sorted-replica band) be scattered
/// straight into coordinate order, without a sort.
///
/// Two layouts, chosen by the density rule of
/// [`PartialSelection::scatter`], where the coordinates to place are
/// the selected ones plus the `probes` the caller expects to look up (the
/// bitset pays per word of span, the binary search per probe):
///
/// * **dense** — the selection's span is narrower than
///   [`DENSE_WORDS_PER_COORD`] × 64 coordinates per coordinate placed: a
///   bitset over the span, each word paired with the number of selected
///   coordinates before it. A lookup is one word read and one popcount.
/// * **sparse** — the runs with the number of selected coordinates before
///   each; a lookup is a binary search over the runs.
///
/// The bitset costs a quarter byte per coordinate of the selection's span,
/// so `probes` should not exceed the lookups the caller will make.
///
/// ```
/// use pdc_types::selection::RankDirectory;
/// use pdc_types::Selection;
/// let s = Selection::from_unsorted_coords(&[3, 4, 5, 10]);
/// let ranks = RankDirectory::new(&s, 0);
/// assert_eq!(ranks.rank(10), Some(3));
/// assert_eq!(ranks.rank(6), None);
/// ```
#[derive(Debug, Clone)]
pub struct RankDirectory<'a>(Ranks<'a>);

#[derive(Debug, Clone)]
enum Ranks<'a> {
    /// Bit `j` of `bits[w]` is coordinate `lo + 64w + j`; `before[w]` =
    /// selected coordinates in `bits[..w]`. Kept apart so the membership
    /// test, which rejects most probes, touches only the bits.
    Dense { lo: u64, bits: Vec<u64>, before: Vec<u64> },
    /// `before[i]` = selected coordinates in `runs[..i]`.
    Sparse { runs: &'a [Run], before: Vec<u64> },
}

/// The running count of `counts` before each element.
fn prefix_counts(counts: impl Iterator<Item = u64>) -> Vec<u64> {
    counts
        .scan(0, |seen, n| {
            let before = *seen;
            *seen += n;
            Some(before)
        })
        .collect()
}

impl<'a> RankDirectory<'a> {
    /// The rank directory of `sel` for about `probes` lookups: linear in
    /// its runs, plus the span's word count on the dense path.
    pub fn new(sel: &'a Selection, probes: u64) -> Self {
        let runs = sel.runs();
        let (Some(first), Some(last)) = (runs.first(), runs.last()) else {
            return RankDirectory(Ranks::Sparse { runs, before: Vec::new() });
        };
        let (lo, hi) = (first.start, last.end() - 1);
        let placed = sel.count().saturating_add(probes);
        if !is_dense(lo, hi, placed) {
            let before = prefix_counts(runs.iter().map(|r| r.len));
            return RankDirectory(Ranks::Sparse { runs, before });
        }
        let mut bits = vec![0u64; ((hi - lo) / 64 + 1) as usize];
        for r in runs {
            fill_bits(&mut bits, r.start - lo, r.end() - lo);
        }
        let before = prefix_counts(bits.iter().map(|w| u64::from(w.count_ones())));
        RankDirectory(Ranks::Dense { lo, bits, before })
    }

    /// The index of `c` among the selected coordinates in ascending
    /// order, or `None` when `c` is not selected.
    #[inline]
    pub fn rank(&self, c: u64) -> Option<u64> {
        match &self.0 {
            Ranks::Dense { lo, bits, before } => {
                let off = c.checked_sub(*lo)?;
                let w = usize::try_from(off / 64).ok()?;
                let word = *bits.get(w)?;
                let bit = off % 64;
                if word >> bit & 1 == 0 {
                    return None;
                }
                Some(before[w] + u64::from((word & ((1u64 << bit) - 1)).count_ones()))
            }
            Ranks::Sparse { runs, before } => {
                let i = runs.partition_point(|r| r.start <= c).checked_sub(1)?;
                let r = runs[i];
                (c < r.end()).then(|| before[i] + (c - r.start))
            }
        }
    }
}

/// Fewer coordinates than this always take the sort path of
/// [`PartialSelection::scatter`]: below it, allocating, zeroing and
/// sweeping even a small bitset costs as much as sorting the slice.
pub const SORT_BELOW: usize = 32;

/// Set bits `[s, e)` of `bits` (`s < e`): a head mask, whole words, and
/// a tail mask.
fn fill_bits(bits: &mut [u64], s: u64, e: u64) {
    let (ws, we) = ((s / 64) as usize, ((e - 1) / 64) as usize);
    // Bits `s % 64 ..` of word `ws` through bit `(e - 1) % 64` of word
    // `we`.
    let head = u64::MAX << (s % 64);
    let tail = u64::MAX >> (63 - (e - 1) % 64);
    if ws == we {
        bits[ws] |= head & tail;
    } else {
        bits[ws] |= head;
        bits[ws + 1..we].fill(u64::MAX);
        bits[we] |= tail;
    }
}

/// The canonical runs of a bitset whose bit `j` of word `w` is coordinate
/// `lo + 64w + j`, decoded word by word into `capacity` reserved runs (the
/// exact count, or an upper bound on it).
fn decode_bits(bits: &[u64], lo: u64, capacity: usize) -> Vec<Run> {
    let mut runs = Vec::with_capacity(capacity);
    for (w, &m) in bits.iter().enumerate() {
        mask_runs(m, lo + 64 * w as u64, &mut runs);
    }
    runs
}

/// Decode a 64-bit mask (bit `j` = coordinate `base + j`) into runs
/// appended to `out`, coalescing with a run ending at `base`.
///
/// A run starts at each set bit whose lower neighbour is clear
/// (`m & !(m << 1)`) and ends at each set bit whose upper neighbour is
/// clear (`m & !(m >> 1)`); the two masks hold equally many bits, and the
/// k-th start pairs with the k-th end. Only the first run can touch
/// `out`'s tail, so the coalescing test runs once per mask, not per run.
#[inline]
pub fn mask_runs(m: u64, base: u64, out: &mut Vec<Run>) {
    let mut starts = m & !(m << 1);
    let mut ends = m & !(m >> 1);
    if starts & 1 != 0 {
        if let Some(last) = out.last_mut().filter(|last| last.end() == base) {
            last.len += u64::from(ends.trailing_zeros()) + 1;
            starts &= starts - 1;
            ends &= ends - 1;
        }
    }
    while starts != 0 {
        let s = u64::from(starts.trailing_zeros());
        let e = u64::from(ends.trailing_zeros());
        out.push(Run::new(base + s, e + 1 - s));
        starts &= starts - 1;
        ends &= ends - 1;
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
            Selection::from_runs(vec![Run::new(9, 3)]), // bridges 10 and introduces 9, 11
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
        let a = Selection::from_runs(vec![Run::new(0, 10)]);
        let b = Selection::from_runs(vec![Run::new(10, 10)]);
        assert!(a.intersect(&b).is_empty());
    }

    #[test]
    fn all_and_span() {
        let all = Selection::all(100);
        assert_eq!(all.count(), 100);
        assert_eq!(all.num_runs(), 1);
        assert!(Selection::all(0).is_empty());
        assert!(Selection::from_runs(vec![Run::new(5, 0)]).is_empty());
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
        let s = Selection::from_runs(vec![Run::new(0, 3)]).shifted(100);
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
            s.iter_coords().map(|c| shape.unravel(c)).collect::<Vec<_>>(),
            vec![vec![0, 0], vec![1, 1], vec![2, 3]]
        );
    }

    #[test]
    fn wire_size_grows_with_fragmentation() {
        let contiguous = Selection::from_runs(vec![Run::new(0, 1000)]);
        let fragmented = Selection::from_sorted_coords((0..1000).map(|i| i * 2));
        assert!(fragmented.wire_size_bytes() > contiguous.wire_size_bytes());
    }
}
