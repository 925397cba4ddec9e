//! Property tests: sorted-replica lookups must agree with a naive filter
//! for arbitrary data and intervals, and the permutation must be exact.

use pdc_sorted::SortedReplica;
use pdc_types::{Interval, QueryOp};
use proptest::prelude::*;

fn values_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, 1..500)
}

/// Values drawn mostly from a handful of repeated points — both zeros,
/// both infinities, NaN — so ties between old and appended entries are
/// the common case, not the exception.
fn duplicate_heavy_strategy() -> impl Strategy<Value = Vec<f64>> {
    let repeated = || {
        prop::sample::select(vec![
            -0.0,
            0.0,
            1.0,
            -1.0,
            2.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ])
    };
    let point = prop_oneof![repeated(), repeated(), -3.0f64..3.0];
    prop::collection::vec(point, 0..400)
}

/// Bit-level equality of everything a replica exposes (`==` on `f64`
/// would let `-0.0` pass for `+0.0`).
fn assert_bit_identical(a: &SortedReplica, b: &SortedReplica) {
    let bits = |ks: &[f64]| ks.iter().map(|k| k.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a.keys()), bits(b.keys()));
    assert_eq!(a.perm(), b.perm());
    assert_eq!(a.region_len(), b.region_len());
    assert_eq!(a.num_regions(), b.num_regions());
    for r in 0..a.num_regions() {
        let ((alo, ahi), (blo, bhi)) = (a.region_range(r), b.region_range(r));
        assert_eq!((alo.to_bits(), ahi.to_bits()), (blo.to_bits(), bhi.to_bits()), "region {r}");
    }
}

/// Build `values[..cuts[0]]`, extend by each following piece, and require
/// the replica of a one-shot build at every intermediate extent.
fn check_extend_chain(values: &[f64], cuts: &[usize], region_len: u64) {
    let mut at = cuts.first().map_or(0, |&c| c.min(values.len()));
    let mut replica = SortedReplica::build(&values[..at], region_len);
    for &cut in cuts.iter().skip(1).chain(std::iter::once(&values.len())) {
        let next = cut.clamp(at, values.len());
        replica = replica.extended(&values[at..next]);
        at = next;
        assert_bit_identical(&replica, &SortedReplica::build(&values[..at], region_len));
        assert!(replica.self_check(at as u64));
    }
}

#[test]
fn extend_edge_splits_match_one_shot_build() {
    let values: Vec<f64> = (0..3000).map(|i| (((i * 73) % 997) as f32 / 100.0) as f64).collect();
    // Empty base, one-element base, region boundaries, delta larger than
    // the base, empty delta.
    for cut in [0, 1, 255, 256, 257, 1000, 2999, 3000] {
        check_extend_chain(&values, &[cut], 256);
    }
    check_extend_chain(&[], &[0], 8);
}

proptest! {
    #[test]
    fn extended_equals_build_of_concatenation(
        values in prop_oneof![values_strategy(), duplicate_heavy_strategy()],
        cuts in prop::collection::vec(0usize..500, 1..5),
        region_len in 1u64..70,
    ) {
        let mut cuts = cuts;
        cuts.sort_unstable();
        check_extend_chain(&values, &cuts, region_len);
    }

    #[test]
    fn lookup_equals_naive_filter(values in values_strategy(), lo in -120.0f64..120.0, w in 0.0f64..100.0) {
        let r = SortedReplica::build(&values, 64);
        let iv = Interval::open(lo, lo + w);
        let got: Vec<u64> = r.lookup(&iv).selection.iter_coords().collect();
        let expect: Vec<u64> = values
            .iter()
            .enumerate()
            .filter(|(_, &v)| iv.contains(v))
            .map(|(i, _)| i as u64)
            .collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn one_sided_lookup_equals_naive(
        values in values_strategy(),
        bound in -120.0f64..120.0,
        op in prop::sample::select(vec![QueryOp::Gt, QueryOp::Gte, QueryOp::Lt, QueryOp::Lte, QueryOp::Eq]),
    ) {
        let r = SortedReplica::build(&values, 32);
        let iv = Interval::from_op(op, bound);
        let got: Vec<u64> = r.lookup(&iv).selection.iter_coords().collect();
        let expect: Vec<u64> = values
            .iter()
            .enumerate()
            .filter(|(_, &v)| iv.contains(v))
            .map(|(i, _)| i as u64)
            .collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn permutation_is_bijective(values in values_strategy()) {
        let r = SortedReplica::build(&values, 64);
        let mut sorted_perm: Vec<u64> = r.perm().to_vec();
        sorted_perm.sort_unstable();
        let expect: Vec<u64> = (0..values.len() as u64).collect();
        prop_assert_eq!(sorted_perm, expect);
    }

    #[test]
    fn span_len_equals_hit_count(values in values_strategy(), lo in -120.0f64..120.0, w in 0.0f64..100.0) {
        let r = SortedReplica::build(&values, 64);
        let iv = Interval::closed(lo, lo + w);
        let span = r.matching_span(&iv);
        let exact = values.iter().filter(|&&v| iv.contains(v)).count() as u64;
        prop_assert_eq!(span.len, exact);
    }

    #[test]
    fn overlapping_regions_contain_all_hits(values in values_strategy(), lo in -120.0f64..120.0, w in 0.0f64..100.0) {
        let r = SortedReplica::build(&values, 16);
        let iv = Interval::closed(lo, lo + w);
        let overlapping = r.regions_overlapping(&iv);
        let span = r.matching_span(&iv);
        // every region containing part of the span must be in the
        // overlapping set (pruning must not discard hits)
        for reg in r.regions_of_span(&span) {
            prop_assert!(overlapping.contains(&reg), "region {} pruned but holds hits", reg);
        }
    }
}
