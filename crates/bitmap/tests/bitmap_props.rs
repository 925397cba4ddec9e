//! Property-based tests: WAH must agree with a naive `Vec<bool>` model,
//! and the binned index must answer range queries exactly (after candidate
//! resolution) for arbitrary data and arbitrary intervals.

use pdc_bitmap::wah::WahBuilder;
use pdc_bitmap::{BinnedBitmapIndex, BinningConfig, WahBitVector};
use pdc_types::{Interval, QueryOp, Selection};
use proptest::prelude::*;

fn bits_strategy() -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), 0..400)
}

/// Runs-heavy bit patterns (the WAH-favourable case with long fills).
fn runny_bits_strategy() -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec((any::<bool>(), 1usize..120), 0..12).prop_map(|segments| {
        let mut out = Vec::new();
        for (bit, n) in segments {
            out.extend(std::iter::repeat_n(bit, n));
        }
        out
    })
}

fn from_bools(bits: &[bool]) -> WahBitVector {
    let mut b = WahBuilder::new();
    for &bit in bits {
        b.append_bits(bit, 1);
    }
    b.finish()
}

fn naive_positions(bits: &[bool]) -> Vec<u64> {
    bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i as u64).collect()
}

proptest! {
    #[test]
    fn wah_roundtrip(bits in bits_strategy()) {
        let v = from_bools(&bits);
        prop_assert_eq!(v.nbits(), bits.len() as u64);
        prop_assert_eq!(v.to_selection().iter_coords().collect::<Vec<_>>(), naive_positions(&bits));
        prop_assert_eq!(v.count_ones(), naive_positions(&bits).len() as u64);
    }

    #[test]
    fn wah_roundtrip_runny(bits in runny_bits_strategy()) {
        let v = from_bools(&bits);
        prop_assert_eq!(v.to_selection().iter_coords().collect::<Vec<_>>(), naive_positions(&bits));
    }

    #[test]
    fn wah_ops_match_naive(a in runny_bits_strategy(), b in runny_bits_strategy()) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let va = from_bools(a);
        let vb = from_bools(b);
        let and: Vec<u64> = (0..n).filter(|&i| a[i] && b[i]).map(|i| i as u64).collect();
        let or: Vec<u64> = (0..n).filter(|&i| a[i] || b[i]).map(|i| i as u64).collect();
        prop_assert_eq!(va.and(&vb).to_selection().iter_coords().collect::<Vec<_>>(), and);
        prop_assert_eq!(va.or(&vb).to_selection().iter_coords().collect::<Vec<_>>(), or);
    }

    #[test]
    fn wah_not_is_complement(bits in runny_bits_strategy()) {
        let v = from_bools(&bits);
        let n = v.not();
        prop_assert_eq!(v.count_ones() + n.count_ones(), bits.len() as u64);
        prop_assert!(v.to_selection().intersect(&n.to_selection()).is_empty());
        prop_assert_eq!(n.not().to_selection(), v.to_selection());
    }

    #[test]
    fn wah_from_selection_inverse_of_to_selection(bits in runny_bits_strategy()) {
        let v = from_bools(&bits);
        let sel = v.to_selection();
        let v2 = WahBitVector::from_selection(bits.len() as u64, &sel);
        prop_assert_eq!(v2.to_selection(), sel);
        prop_assert_eq!(v2.count_ones(), v.count_ones());
    }

    #[test]
    fn index_range_query_is_exact(
        values in prop::collection::vec(-50.0f64..50.0, 1..300),
        lo in -60.0f64..60.0,
        w in 0.0f64..60.0,
        lo_inc in any::<bool>(),
        hi_inc in any::<bool>(),
    ) {
        let idx = BinnedBitmapIndex::build(&values, &BinningConfig::default()).unwrap();
        let iv = Interval {
            lo: Some(pdc_types::interval::Bound { value: lo, inclusive: lo_inc }),
            hi: Some(pdc_types::interval::Bound { value: lo + w, inclusive: hi_inc }),
        };
        let ans = idx.query(&iv);
        let resolved = ans.resolve(&iv, |i| values[i as usize]);
        let exact: Vec<u64> = values
            .iter()
            .enumerate()
            .filter(|(_, &v)| iv.contains(v))
            .map(|(i, _)| i as u64)
            .collect();
        prop_assert_eq!(resolved.iter_coords().collect::<Vec<_>>(), exact);
        // sure hits never include a non-match
        let exact_sel = Selection::from_sorted_coords(
            values.iter().enumerate().filter(|(_, &v)| iv.contains(v)).map(|(i, _)| i as u64),
        );
        prop_assert_eq!(ans.sure.intersect(&exact_sel), ans.sure.clone());
    }

    #[test]
    fn index_one_sided_query_is_exact(
        values in prop::collection::vec(-50.0f64..50.0, 1..300),
        bound in -60.0f64..60.0,
        op in prop::sample::select(vec![QueryOp::Gt, QueryOp::Gte, QueryOp::Lt, QueryOp::Lte, QueryOp::Eq]),
    ) {
        let idx = BinnedBitmapIndex::build(&values, &BinningConfig::default()).unwrap();
        let iv = Interval::from_op(op, bound);
        let resolved = idx.query(&iv).resolve(&iv, |i| values[i as usize]);
        let exact: Vec<u64> = values
            .iter()
            .enumerate()
            .filter(|(_, &v)| iv.contains(v))
            .map(|(i, _)| i as u64)
            .collect();
        prop_assert_eq!(resolved.iter_coords().collect::<Vec<_>>(), exact);
    }

    #[test]
    fn index_serialization_roundtrip(values in prop::collection::vec(-10.0f64..10.0, 1..200)) {
        let idx = BinnedBitmapIndex::build(&values, &BinningConfig::default()).unwrap();
        let bytes = idx.to_bytes();
        prop_assert_eq!(bytes.len() as u64, idx.size_bytes_serialized());
        let back = BinnedBitmapIndex::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, idx);
    }
}
