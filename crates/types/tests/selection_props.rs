//! Property-based tests for `Selection` and `Interval`: the run-length set
//! algebra must agree with a naive `BTreeSet` model, and interval algebra
//! must agree with direct predicate evaluation.

use pdc_types::{Interval, QueryOp, Run, Selection};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn coords_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..500, 0..120)
}

fn model(coords: &[u64]) -> BTreeSet<u64> {
    coords.iter().copied().collect()
}

/// The oracle for `union_many`: a left fold of pairwise `union`.
fn fold_union(sources: &[Selection]) -> Selection {
    sources.iter().fold(Selection::empty(), |acc, s| acc.union(s))
}

fn runs(pairs: &[(u64, u64)]) -> Selection {
    Selection::from_runs(pairs.iter().map(|&(s, l)| Run::new(s, l)).collect())
}

#[test]
fn union_many_equal_head_starts_advance() {
    // Several sources share head starts (and later starts too): each pop
    // must still copy at least its head, or the merge never advances.
    let sources = [
        runs(&[(0, 2), (10, 1), (20, 5)]),
        runs(&[(0, 3), (10, 4), (30, 1)]),
        runs(&[(0, 1), (20, 2), (30, 2)]),
    ];
    let got = Selection::union_many(&sources);
    assert_eq!(got, fold_union(&sources));
    assert_eq!(got, runs(&[(0, 3), (10, 4), (20, 5), (30, 2)]));
}

#[test]
fn union_many_long_run_swallows_other_sources_runs() {
    // Source 0's run [5, 100) covers several runs of source 1, including
    // one ending exactly at 100 and one starting there (adjacent).
    let sources = [
        runs(&[(5, 95), (200, 1)]),
        runs(&[(0, 2), (7, 3), (40, 10), (90, 10), (100, 5), (150, 1)]),
    ];
    let got = Selection::union_many(&sources);
    assert_eq!(got, fold_union(&sources));
    assert_eq!(got, runs(&[(0, 2), (5, 100), (150, 1), (200, 1)]));
}

#[test]
fn union_many_coalesces_adjacency_across_sources() {
    // Region-interleaved sources whose runs touch at every boundary merge
    // into one run.
    let sources = [
        runs(&[(0, 10), (20, 10), (40, 10)]),
        runs(&[(10, 10), (30, 10)]),
        runs(&[(50, 3)]),
    ];
    let got = Selection::union_many(&sources);
    assert_eq!(got, fold_union(&sources));
    assert_eq!(got, Selection::from_span(0, 53));
}

#[test]
fn union_many_skips_empty_sources() {
    let a = runs(&[(3, 2), (9, 1)]);
    let e = Selection::empty();
    assert_eq!(Selection::union_many([&e, &a, &e]), a);
    assert_eq!(Selection::union_many([&e, &e]), Selection::empty());
    let sources = [e.clone(), a.clone(), e.clone(), runs(&[(5, 4)]), e];
    assert_eq!(Selection::union_many(&sources), fold_union(&sources));
    assert_eq!(Selection::union_many(&sources), runs(&[(3, 7)]));
}

proptest! {
    #[test]
    fn selection_roundtrips_coords(coords in coords_strategy()) {
        let s = Selection::from_unsorted_coords(coords.clone());
        let m = model(&coords);
        prop_assert_eq!(s.iter_coords().collect::<Vec<_>>(), m.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(s.count(), m.len() as u64);
    }

    #[test]
    fn selection_runs_are_canonical(coords in coords_strategy()) {
        let s = Selection::from_unsorted_coords(coords);
        for r in s.runs() {
            prop_assert!(r.len > 0);
        }
        for w in s.runs().windows(2) {
            prop_assert!(w[0].end() < w[1].start, "runs must be sorted and non-adjacent");
        }
    }

    #[test]
    fn union_matches_set_model(a in coords_strategy(), b in coords_strategy()) {
        let sa = Selection::from_unsorted_coords(a.clone());
        let sb = Selection::from_unsorted_coords(b.clone());
        let expect: Vec<u64> = model(&a).union(&model(&b)).copied().collect();
        prop_assert_eq!(sa.union(&sb).iter_coords().collect::<Vec<_>>(), expect);
        // commutative
        prop_assert_eq!(sa.union(&sb), sb.union(&sa));
    }

    #[test]
    fn intersect_matches_set_model(a in coords_strategy(), b in coords_strategy()) {
        let sa = Selection::from_unsorted_coords(a.clone());
        let sb = Selection::from_unsorted_coords(b.clone());
        let expect: Vec<u64> = model(&a).intersection(&model(&b)).copied().collect();
        prop_assert_eq!(sa.intersect(&sb).iter_coords().collect::<Vec<_>>(), expect);
        prop_assert_eq!(sa.intersect(&sb), sb.intersect(&sa));
    }

    #[test]
    fn demorgan_style_counts(a in coords_strategy(), b in coords_strategy()) {
        // |A ∪ B| + |A ∩ B| == |A| + |B|
        let sa = Selection::from_unsorted_coords(a);
        let sb = Selection::from_unsorted_coords(b);
        prop_assert_eq!(
            sa.union(&sb).count() + sa.intersect(&sb).count(),
            sa.count() + sb.count()
        );
    }

    #[test]
    fn restrict_matches_filter(coords in coords_strategy(), start in 0u64..500, len in 0u64..200) {
        let s = Selection::from_unsorted_coords(coords.clone());
        let expect: Vec<u64> = model(&coords)
            .into_iter()
            .filter(|&c| c >= start && c < start + len)
            .collect();
        prop_assert_eq!(
            s.restrict_to_span(start, len).iter_coords().collect::<Vec<_>>(),
            expect
        );
    }

    #[test]
    fn contains_matches_model(coords in coords_strategy(), probe in 0u64..600) {
        let s = Selection::from_unsorted_coords(coords.clone());
        prop_assert_eq!(s.contains(probe), model(&coords).contains(&probe));
    }

    #[test]
    fn from_runs_equals_coord_expansion(runs in prop::collection::vec((0u64..300, 0u64..20), 0..30)) {
        let runs: Vec<Run> = runs.into_iter().map(|(s, l)| Run::new(s, l)).collect();
        let mut expect = BTreeSet::new();
        for r in &runs {
            for c in r.start..r.end() {
                expect.insert(c);
            }
        }
        let s = Selection::from_runs(runs);
        prop_assert_eq!(s.iter_coords().collect::<Vec<_>>(), expect.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn union_many_of_region_interleaved_sources_matches_fold(seed in 0u64..u64::MAX) {
        // The engine's shape: k slot selections, slot s owning every
        // region r with r % k == s, each region of random length holding
        // random runs (sometimes touching its span's ends, so runs of
        // neighbouring regions — different sources — can be adjacent).
        let mut rng = TestRng::new(seed);
        let k = 1 + rng.below(24);
        let n_regions = rng.below(120);
        let mut per_source: Vec<Vec<u64>> = vec![Vec::new(); k];
        let mut offset = 0u64;
        for r in 0..n_regions {
            let len = 1 + rng.below(200) as u64;
            let density = rng.below(4);
            let coords = &mut per_source[r % k];
            for c in offset..offset + len {
                let edge = c == offset || c + 1 == offset + len;
                if (edge && rng.below(2) == 0) || rng.below(4) < density {
                    coords.push(c);
                }
            }
            offset += len;
        }
        let sources: Vec<Selection> =
            per_source.into_iter().map(Selection::from_sorted_coords).collect();
        prop_assert_eq!(Selection::union_many(&sources), fold_union(&sources));
    }

    #[test]
    fn interval_intersect_is_conjunction(
        op1 in prop::sample::select(vec![QueryOp::Gt, QueryOp::Gte, QueryOp::Lt, QueryOp::Lte, QueryOp::Eq]),
        op2 in prop::sample::select(vec![QueryOp::Gt, QueryOp::Gte, QueryOp::Lt, QueryOp::Lte, QueryOp::Eq]),
        v1 in -100.0f64..100.0,
        v2 in -100.0f64..100.0,
        probe in -150.0f64..150.0,
    ) {
        let iv = Interval::from_op(op1, v1).intersect(&Interval::from_op(op2, v2));
        prop_assert_eq!(iv.contains(probe), op1.eval(probe, v1) && op2.eval(probe, v2));
    }

    #[test]
    fn interval_overlap_agrees_with_membership_sampling(
        lo in -50.0f64..50.0,
        width in 0.0f64..30.0,
        rmin in -60.0f64..60.0,
        rwidth in 0.0f64..30.0,
    ) {
        let iv = Interval::closed(lo, lo + width);
        let (rmin, rmax) = (rmin, rmin + rwidth);
        let overlap = iv.overlaps_range(rmin, rmax);
        // sample the range densely; if any sample matches, overlap must be true
        let any_match = (0..=100).any(|i| {
            let v = rmin + (rmax - rmin) * (i as f64) / 100.0;
            iv.contains(v)
        });
        if any_match {
            prop_assert!(overlap);
        }
        // and if ranges are fully disjoint, overlap must be false
        if rmax < lo || rmin > lo + width {
            prop_assert!(!overlap);
        }
    }
}
