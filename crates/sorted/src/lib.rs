//! # pdc-sorted
//!
//! Data reorganization with sorting (paper §III-D3).
//!
//! "When there is prior knowledge on how the data would be queried, sorting
//! and reorganizing the data by value based on one or more objects speeds
//! up the query evaluation process. ... A query condition with high
//! selectivity on the energy object would result in data clustered only in
//! a few regions and thus lead to high efficiency."
//!
//! A [`SortedReplica`] is a full copy of one object's values ordered by
//! value, together with the permutation mapping each sorted slot back to
//! its original array coordinate. The replica is partitioned into regions
//! like any PDC object; each sorted region carries a `[min, max]` range so
//! a range query touches only the contiguous band of regions overlapping
//! the query interval — that contiguity is the whole point of the
//! reorganization. The replica costs a full copy of the object's storage
//! ("the sorted copy requires a full copy of the data"), which the
//! overhead experiment (E6) accounts for.

use pdc_types::{Interval, RegionSpec, Run, Selection};

/// A value-sorted copy of one object, with the original-coordinate
/// permutation and per-region value ranges.
#[derive(Debug, Clone, PartialEq)]
pub struct SortedReplica {
    /// Values in ascending order.
    keys: Vec<f64>,
    /// `perm[s]` = original coordinate of sorted slot `s`.
    perm: Vec<u64>,
    /// Elements per region of the sorted replica.
    region_len: u64,
    /// Per-region `[min, max]` of the sorted keys (redundant with `keys`
    /// but kept as region metadata, mirroring PDC's histogram-min/max).
    region_ranges: Vec<(f64, f64)>,
}

/// The answer to a range lookup on a sorted replica.
#[derive(Debug, Clone, PartialEq)]
pub struct SortedLookup {
    /// The contiguous matching span in *sorted* coordinates.
    pub sorted_span: Run,
    /// The matching elements translated back to original coordinates.
    pub selection: Selection,
}

/// Order-preserving **total** sort key of an `f64`: for every pair of
/// non-NaN values `a < b` ⇔ `total_key(a) < total_key(b)`, `-0.0` and
/// `+0.0` tie (as they do under `partial_cmp`), and every NaN maps to
/// `u64::MAX`, after `+∞`. Sorting `(total_key, coord)` pairs is what
/// makes the replica order — and therefore the delta merge — well
/// defined on any input.
fn total_key(v: f64) -> u64 {
    if v.is_nan() {
        return u64::MAX;
    }
    // `+ 0.0` folds `-0.0` onto `+0.0`; then the usual sign flip maps the
    // IEEE-754 bit pattern onto an unsigned integer in value order.
    let bits = (v + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// The value a sort key came from, or `None` for the two keys
/// [`total_key`] folds several bit patterns onto (`±0.0`, the NaNs), whose
/// value must be read back from the source instead.
fn key_value(key: u64) -> Option<f64> {
    const ZERO: u64 = 1 << 63;
    match key {
        ZERO | u64::MAX => None,
        _ if key > ZERO => Some(f64::from_bits(key & !ZERO)),
        _ => Some(f64::from_bits(!key)),
    }
}

impl SortedReplica {
    /// Build a sorted replica of `values`, partitioned into regions of
    /// `region_len` elements: the empty replica extended by `values`.
    pub fn build(values: &[f64], region_len: u64) -> SortedReplica {
        assert!(region_len > 0, "region length must be positive");
        let empty =
            SortedReplica { keys: Vec::new(), perm: Vec::new(), region_len, region_ranges: Vec::new() };
        empty.extended(values)
    }

    /// The replica of this replica's object grown by `delta` (appended at
    /// coordinates `len()..len() + delta.len()`): only the delta is
    /// sorted, then merged into the existing order in one linear pass.
    /// Equal values keep existing entries first — appended coordinates
    /// are always larger — so the result is bit-identical to
    /// [`Self::build`] over the concatenated values, provided `self`
    /// passes [`Self::self_check`].
    pub fn extended(&self, delta: &[f64]) -> SortedReplica {
        let base = self.len();
        // Sort by (value, coordinate): ties keep original coordinate
        // order so the permutation is deterministic.
        let mut pairs: Vec<(u64, u64)> =
            delta.iter().enumerate().map(|(i, &v)| (total_key(v), base + i as u64)).collect();
        pairs.sort_unstable();

        let n = self.keys.len() + delta.len();
        let mut keys = Vec::with_capacity(n);
        let mut perm = Vec::with_capacity(n);
        let mut old = 0;
        for &(key, coord) in &pairs {
            let run = self.keys[old..].iter().take_while(|&&k| total_key(k) <= key).count();
            keys.extend_from_slice(&self.keys[old..old + run]);
            perm.extend_from_slice(&self.perm[old..old + run]);
            old += run;
            keys.push(key_value(key).unwrap_or_else(|| delta[(coord - base) as usize]));
            perm.push(coord);
        }
        keys.extend_from_slice(&self.keys[old..]);
        perm.extend_from_slice(&self.perm[old..]);

        let region_ranges = RegionSpec::partition(n as u64, self.region_len)
            .into_iter()
            .map(|r| (keys[r.offset as usize], keys[(r.end() - 1) as usize]))
            .collect();
        SortedReplica { keys, perm, region_len: self.region_len, region_ranges }
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.keys.len() as u64
    }

    /// Whether the replica is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of regions in the sorted replica.
    pub fn num_regions(&self) -> u32 {
        self.region_ranges.len() as u32
    }

    /// Elements per region.
    pub fn region_len(&self) -> u64 {
        self.region_len
    }

    /// `[min, max]` of sorted region `r`.
    pub fn region_range(&self, r: u32) -> (f64, f64) {
        self.region_ranges[r as usize]
    }

    /// The sorted keys (ascending).
    pub fn keys(&self) -> &[f64] {
        &self.keys
    }

    /// The permutation: original coordinate of each sorted slot.
    pub fn perm(&self) -> &[u64] {
        &self.perm
    }

    /// Storage footprint of the replica in bytes, assuming `elem_bytes`
    /// per key: keys plus the permutation array (u64 each). "If the
    /// original data has to be kept, additional storage space is required
    /// to maintain the sorted replica."
    pub fn size_bytes(&self, elem_bytes: u64) -> u64 {
        self.keys.len() as u64 * (elem_bytes + 8)
    }

    /// The contiguous sorted-coordinate span matching `interval`.
    pub fn matching_span(&self, interval: &Interval) -> Run {
        let below = |k: f64| match interval.lo {
            Some(b) => k < b.value || (k == b.value && !b.inclusive),
            None => false,
        };
        let within = |k: f64| match interval.hi {
            Some(b) => k < b.value || (k == b.value && b.inclusive),
            None => true,
        };
        let start = self.keys.partition_point(|&k| below(k)) as u64;
        let end = self.keys.partition_point(|&k| below(k) || within(k)) as u64;
        Run::new(start, end.saturating_sub(start))
    }

    /// Evaluate a range query: binary-search the contiguous matching span
    /// and translate it back to original coordinates.
    pub fn lookup(&self, interval: &Interval) -> SortedLookup {
        let span = self.matching_span(interval);
        let coords: Vec<u64> = self.perm[span.start as usize..span.end() as usize].to_vec();
        SortedLookup { sorted_span: span, selection: Selection::from_unsorted_coords(coords) }
    }

    /// Indices of the sorted regions overlapping `interval` — always a
    /// contiguous band; these are the only regions a sorted-strategy query
    /// must read.
    pub fn regions_overlapping(&self, interval: &Interval) -> Vec<u32> {
        (0..self.num_regions())
            .filter(|&r| {
                let (lo, hi) = self.region_range(r);
                interval.overlaps_range(lo, hi)
            })
            .collect()
    }

    /// Validate the replica against the object it claims to mirror: the
    /// length must match, `perm` must be a permutation of the original
    /// coordinates (no duplicates, none out of range), and the keys must be
    /// ascending in the replica's total order (NaNs last). A replica
    /// failing this check could silently drop or duplicate hits and must
    /// be rebuilt.
    pub fn self_check(&self, expected_len: u64) -> bool {
        if self.len() != expected_len || self.perm.len() != self.keys.len() {
            return false;
        }
        if self.region_len == 0 {
            return false;
        }
        let n = self.keys.len();
        let mut seen = vec![false; n];
        for &p in &self.perm {
            let Some(slot) = seen.get_mut(p as usize) else { return false };
            if *slot {
                return false;
            }
            *slot = true;
        }
        self.keys.windows(2).all(|w| total_key(w[0]) <= total_key(w[1]))
    }

    /// A deterministically corrupted clone for integrity-injection tests:
    /// one permutation entry is overwritten with a duplicate of its
    /// neighbour, which [`Self::self_check`] is guaranteed to reject for
    /// any replica of at least two elements.
    pub fn corrupted_copy(&self, seed: u64) -> SortedReplica {
        let mut bad = self.clone();
        if bad.perm.len() >= 2 {
            let i = (seed as usize) % (bad.perm.len() - 1);
            bad.perm[i] = bad.perm[i + 1];
        }
        bad
    }

    /// The sorted-coordinate span covered by sorted region `r`.
    pub fn region_span(&self, r: u32) -> Run {
        let start = u64::from(r) * self.region_len;
        Run::new(start, (start + self.region_len).min(self.len()) - start)
    }

    /// The sorted regions containing the matching span (equivalent to
    /// [`Self::regions_overlapping`] but computed from the span).
    pub fn regions_of_span(&self, span: &Run) -> Vec<u32> {
        if span.len == 0 {
            return Vec::new();
        }
        let first = (span.start / self.region_len) as u32;
        let last = ((span.end() - 1) / self.region_len) as u32;
        (first..=last).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_types::QueryOp;

    fn sample(n: usize) -> Vec<f64> {
        (0..n).map(|i| (((i * 73) % 997) as f32 / 100.0) as f64).collect()
    }

    fn exact_coords(values: &[f64], iv: &Interval) -> Vec<u64> {
        values
            .iter()
            .enumerate()
            .filter(|(_, &v)| iv.contains(v))
            .map(|(i, _)| i as u64)
            .collect()
    }

    /// `build` as it was before the total sort key: a `partial_cmp`
    /// comparator over `(value, coordinate)` pairs. Kept as the oracle the
    /// key-sorted build must reproduce bit for bit on NaN-free input (on
    /// NaN input this comparator is not a total order and may panic).
    fn build_with_partial_cmp(values: &[f64], region_len: u64) -> SortedReplica {
        let mut pairs: Vec<(f64, u64)> =
            values.iter().enumerate().map(|(i, &v)| (v, i as u64)).collect();
        pairs.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
        });
        let keys: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let perm: Vec<u64> = pairs.iter().map(|p| p.1).collect();
        let region_ranges = RegionSpec::partition(keys.len() as u64, region_len)
            .into_iter()
            .map(|r| (keys[r.offset as usize], keys[(r.end() - 1) as usize]))
            .collect();
        SortedReplica { keys, perm, region_len, region_ranges }
    }

    #[test]
    fn total_key_orders_like_partial_cmp_and_round_trips() {
        let probes = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.5,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.5,
            f64::MAX,
            f64::INFINITY,
        ];
        for &a in &probes {
            for &b in &probes {
                assert_eq!(
                    total_key(a).cmp(&total_key(b)),
                    a.partial_cmp(&b).unwrap(),
                    "{a:e} vs {b:e}"
                );
            }
            assert!(total_key(a) < total_key(f64::NAN));
            match key_value(total_key(a)) {
                Some(v) => assert_eq!(v.to_bits(), a.to_bits()),
                None => assert_eq!(a, 0.0),
            }
        }
        assert_eq!(total_key(f64::NAN), total_key(-f64::NAN));
        assert_eq!(key_value(total_key(f64::NAN)), None);
    }

    #[test]
    fn build_is_bit_identical_to_the_partial_cmp_build() {
        let mut tricky = sample(6000);
        for (i, v) in tricky.iter_mut().enumerate() {
            match i % 11 {
                0 => *v = -*v,
                3 => *v = 0.0,
                7 => *v = -0.0,
                _ => {}
            }
        }
        tricky[17] = f64::INFINITY;
        tricky[4242] = f64::NEG_INFINITY;
        for (values, region_len) in [(sample(5000), 512), (tricky, 100), (Vec::new(), 8)] {
            let (new, old) =
                (SortedReplica::build(&values, region_len), build_with_partial_cmp(&values, region_len));
            assert_eq!(new, old);
            // `==` lets `-0.0` pass for `+0.0`; the bit patterns must agree too.
            let bits = |r: &SortedReplica| r.keys.iter().map(|k| k.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&new), bits(&old));
        }
    }

    #[test]
    fn nan_input_sorts_last_instead_of_panicking() {
        let mut values = sample(4000);
        let nan_at = [0usize, 1, 77, 1999, 2000, 3998, 3999];
        for &i in &nan_at {
            values[i] = f64::NAN;
        }
        values[500] = -f64::NAN;
        let r = SortedReplica::build(&values, 256);
        assert!(r.self_check(values.len() as u64));
        let finite = values.len() - nan_at.len() - 1;
        assert!(r.keys()[..finite].windows(2).all(|w| w[0] <= w[1]));
        assert!(r.keys()[finite..].iter().all(|k| k.is_nan()));
        let mut nan_coords: Vec<u64> = nan_at.iter().map(|&i| i as u64).collect();
        nan_coords.push(500);
        nan_coords.sort_unstable();
        assert_eq!(r.perm()[finite..], nan_coords[..]);
        // A bounded lookup binary-searches the finite prefix and never
        // reaches the NaN tail.
        let iv = Interval::open(2.0, 5.0);
        let got = r.lookup(&iv).selection.iter_coords().collect::<Vec<_>>();
        let finite_hits: Vec<u64> =
            exact_coords(&values, &iv).into_iter().filter(|&c| !values[c as usize].is_nan()).collect();
        assert_eq!(got, finite_hits);
    }

    #[test]
    fn self_check_rejects_keys_out_of_total_order() {
        let mut r = SortedReplica::build(&[1.0, 2.0, 3.0, 4.0], 2);
        assert!(r.self_check(4));
        r.keys[1] = f64::NAN;
        assert!(!r.self_check(4), "a NaN before finite keys would break the binary search");
    }

    #[test]
    fn keys_are_sorted() {
        let r = SortedReplica::build(&sample(5000), 512);
        assert!(r.keys().windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(r.len(), 5000);
    }

    #[test]
    fn perm_is_a_permutation() {
        let r = SortedReplica::build(&sample(3000), 512);
        let mut seen = vec![false; 3000];
        for &p in r.perm() {
            assert!(!seen[p as usize], "duplicate coord {p}");
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn perm_recovers_original_values() {
        let values = sample(2000);
        let r = SortedReplica::build(&values, 256);
        for s in 0..r.len() as usize {
            assert_eq!(r.keys()[s], values[r.perm()[s] as usize]);
        }
    }

    #[test]
    fn lookup_matches_naive_filter() {
        let values = sample(4000);
        let r = SortedReplica::build(&values, 512);
        for iv in [
            Interval::open(2.1, 2.2),
            Interval::closed(0.0, 1.0),
            Interval::from_op(QueryOp::Gt, 9.0),
            Interval::from_op(QueryOp::Lte, 0.5),
            Interval::from_op(QueryOp::Eq, 3.33),
            Interval::empty(),
        ] {
            let got = r.lookup(&iv).selection.iter_coords().collect::<Vec<_>>();
            assert_eq!(got, exact_coords(&values, &iv), "{iv}");
        }
    }

    #[test]
    fn matching_span_is_contiguous_and_correct_count() {
        let values = sample(4000);
        let r = SortedReplica::build(&values, 512);
        let iv = Interval::open(2.0, 5.0);
        let span = r.matching_span(&iv);
        assert_eq!(span.len, exact_coords(&values, &iv).len() as u64);
        // every key in the span matches; neighbours don't
        for s in span.start..span.end() {
            assert!(iv.contains(r.keys()[s as usize]));
        }
        if span.start > 0 {
            assert!(!iv.contains(r.keys()[span.start as usize - 1]));
        }
        if (span.end() as usize) < r.keys().len() {
            assert!(!iv.contains(r.keys()[span.end() as usize]));
        }
    }

    #[test]
    fn region_ranges_cover_and_order() {
        let r = SortedReplica::build(&sample(5000), 512);
        assert_eq!(r.num_regions(), 10);
        for i in 0..r.num_regions() {
            let (lo, hi) = r.region_range(i);
            assert!(lo <= hi);
            if i > 0 {
                assert!(r.region_range(i - 1).1 <= lo);
            }
        }
    }

    #[test]
    fn overlapping_regions_form_contiguous_band() {
        let values = sample(8000);
        let r = SortedReplica::build(&values, 512);
        let iv = Interval::open(3.0, 4.0);
        let regions = r.regions_overlapping(&iv);
        assert!(!regions.is_empty());
        for w in regions.windows(2) {
            assert_eq!(w[0] + 1, w[1], "band must be contiguous");
        }
        // spans agree with region arithmetic
        let span = r.matching_span(&iv);
        let from_span = r.regions_of_span(&span);
        for reg in &from_span {
            assert!(regions.contains(reg));
        }
    }

    #[test]
    fn high_selectivity_touches_few_regions() {
        let values = sample(100_000);
        let r = SortedReplica::build(&values, 1000); // 100 regions
        // ~0.1% selectivity window
        let iv = Interval::open(5.0, 5.01);
        let regions = r.regions_of_span(&r.matching_span(&iv));
        assert!(regions.len() <= 2, "highly selective query touched {} regions", regions.len());
    }

    #[test]
    fn empty_interval_and_span_regions() {
        let r = SortedReplica::build(&sample(1000), 100);
        let lookup = r.lookup(&Interval::empty());
        assert!(lookup.selection.is_empty());
        assert_eq!(lookup.sorted_span.len, 0);
        assert!(r.regions_of_span(&lookup.sorted_span).is_empty());
    }

    #[test]
    fn duplicate_values_all_found() {
        let values = vec![1.0, 2.0, 2.0, 2.0, 3.0, 2.0, 0.5];
        let r = SortedReplica::build(&values, 4);
        let iv = Interval::from_op(QueryOp::Eq, 2.0);
        let got = r.lookup(&iv).selection.iter_coords().collect::<Vec<_>>();
        assert_eq!(got, vec![1, 2, 3, 5]);
    }

    #[test]
    fn size_accounts_keys_plus_permutation() {
        let r = SortedReplica::build(&sample(1000), 100);
        assert_eq!(r.size_bytes(4), 1000 * 12);
        assert_eq!(r.size_bytes(8), 1000 * 16);
    }

    #[test]
    #[should_panic(expected = "region length must be positive")]
    fn zero_region_len_panics() {
        SortedReplica::build(&[1.0], 0);
    }

    #[test]
    fn self_check_accepts_freshly_built() {
        let values = sample(3000);
        let r = SortedReplica::build(&values, 512);
        assert!(r.self_check(values.len() as u64));
        assert!(!r.self_check(values.len() as u64 + 1));
    }

    #[test]
    fn corrupted_copy_always_fails_self_check() {
        let values = sample(2000);
        let r = SortedReplica::build(&values, 256);
        for seed in 0..32u64 {
            let bad = r.corrupted_copy(seed);
            assert!(!bad.self_check(values.len() as u64), "seed {seed} escaped detection");
            assert_eq!(bad, r.corrupted_copy(seed));
        }
    }
}
