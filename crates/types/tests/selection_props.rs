//! Property-based tests for `Selection` and `Interval`: the run-length set
//! algebra must agree with a naive `BTreeSet` model, and interval algebra
//! must agree with direct predicate evaluation.

use pdc_types::selection::{
    mask_runs, PartialSelection, RankDirectory, DENSE_WORDS_PER_COORD, SORT_BELOW,
};
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

/// The oracle for `mask_runs`: the decoder it replaced, which walks the
/// mask with `trailing_zeros` / `trailing_ones` and coalesces each run
/// with `out`'s tail.
fn mask_runs_by_trailing_ones(mut m: u64, base: u64, out: &mut Vec<Run>) {
    while m != 0 {
        let lo = m.trailing_zeros() as u64;
        let ones = (m >> lo).trailing_ones() as u64;
        match out.last_mut() {
            Some(last) if last.end() == base + lo => last.len += ones,
            _ => out.push(Run::new(base + lo, ones)),
        }
        if lo + ones == 64 {
            break;
        }
        m &= !(((1u64 << ones) - 1) << lo);
    }
}

/// `mask_runs` against the oracle on `m`, after an empty `out`, after a
/// run ending at `base` (bit 0 must coalesce with it) and after one ending
/// short of it.
fn check_mask_runs(m: u64, base: u64) {
    for prior in [None, Some(Run::new(base - 5, 5)), Some(Run::new(base - 9, 3))] {
        let (mut got, mut want) = (Vec::from_iter(prior), Vec::from_iter(prior));
        mask_runs(m, base, &mut got);
        mask_runs_by_trailing_ones(m, base, &mut want);
        assert_eq!(got, want, "mask {m:#x} after {prior:?}");
    }
}

#[test]
fn mask_runs_edge_masks_match_the_trailing_ones_decoder() {
    let alternating = 0x5555_5555_5555_5555u64;
    for m in [
        0,
        u64::MAX,
        1,
        1 << 63,
        (1 << 63) | 1,
        alternating,
        !alternating,
        u64::MAX >> 1,
        u64::MAX << 1,
        0xF000_0000_0000_000F,
        0x8000_0001_8000_0001,
    ] {
        check_mask_runs(m, 640);
    }
}

/// The oracle for `from_unsorted_coords` and `from_unsorted_slices`:
/// copy, sort, dedup.
fn sort_dedup(coords: &[u64]) -> Selection {
    let mut v = coords.to_vec();
    v.sort_unstable();
    v.dedup();
    Selection::from_sorted_coords(v)
}

/// The width (`max - min`) from which `n` coordinates take the sort path.
fn sparse_width(n: usize) -> u64 {
    n as u64 * DENSE_WORDS_PER_COORD * 64
}

/// `n` coordinates in `[base, base + width]`, both ends included, in a
/// scrambled order: runs of 1–150 consecutive coordinates (so many cross
/// 64-bit word boundaries), single points, and repeats of earlier ones.
fn scattered(rng: &mut TestRng, n: usize, base: u64, width: u64) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::with_capacity(n);
    if n >= 2 {
        out.extend([base, base + width]);
    }
    while out.len() < n {
        match rng.below(4) {
            0 if !out.is_empty() => out.push(out[rng.below(out.len())]),
            1 => {
                let start = base + rng.next_u64() % (width + 1);
                let last = (rng.below(150) as u64).min(base + width - start);
                out.extend((0..=last).map(|k| start + k).take(n - out.len()));
            }
            _ => out.push(base + rng.next_u64() % (width + 1)),
        }
    }
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i + 1));
    }
    out
}

#[test]
fn from_unsorted_coords_edge_shapes() {
    let hi = 1u64 << 40;
    // Empty, singletons, all equal, duplicate-heavy, runs across word
    // ends, one short of the tiny cutoff, at it, and the top of the range.
    let shapes: Vec<Vec<u64>> = vec![
        vec![],
        vec![7],
        vec![u64::MAX - 1],
        vec![hi; 100],
        (0..200).map(|i| hi + (i * 7) % 13).collect(),
        (60..70).chain(120..200).rev().collect(),
        (0..SORT_BELOW as u64 - 1).map(|i| i * 1000).collect(),
        (0..SORT_BELOW as u64).map(|i| hi + i * 64).collect(),
        (1..65).map(|i| u64::MAX - i * 3).collect(),
    ];
    for coords in &shapes {
        let got = Selection::from_unsorted_coords(coords);
        assert_eq!(got, sort_dedup(coords), "{coords:?}");
    }
}

#[test]
fn from_unsorted_coords_agrees_on_both_sides_of_the_density_constant() {
    let mut rng = TestRng::new(21);
    for n in [SORT_BELOW, 100, 4096] {
        let w = sparse_width(n);
        // `w - 1` is the widest dense slice, `w` the narrowest sparse one;
        // both below and above 2^32.
        for (base, width) in [(0, w - 1), (0, w), (5 << 32, w - 1), ((5 << 32) - 3, w)] {
            let coords = scattered(&mut rng, n, base, width);
            assert_eq!(coords.iter().max().unwrap() - coords.iter().min().unwrap(), width);
            assert_eq!(
                Selection::from_unsorted_coords(&coords),
                sort_dedup(&coords),
                "{n} over {width}"
            );
        }
    }
}

/// `coords` cut into `k` slices at random points (some may be empty).
fn cut<'a>(rng: &mut TestRng, coords: &'a [u64], k: usize) -> Vec<&'a [u64]> {
    let mut ends: Vec<usize> = (1..k).map(|_| rng.below(coords.len() + 1)).collect();
    ends.sort_unstable();
    ends.push(coords.len());
    let mut start = 0;
    ends.into_iter()
        .map(|end| {
            let slice = &coords[start..end];
            start = end;
            slice
        })
        .collect()
}

#[test]
fn from_unsorted_slices_agrees_on_both_sides_of_the_density_constant() {
    let mut rng = TestRng::new(22);
    for n in [SORT_BELOW, 100, 4096] {
        let w = sparse_width(n);
        for (base, width) in [(0, w - 1), (0, w), (5 << 32, w - 1), ((5 << 32) - 3, w)] {
            let coords = scattered(&mut rng, n, base, width);
            for k in [1, 2, 3, 7] {
                let slices = cut(&mut rng, &coords, k);
                assert_eq!(
                    Selection::from_unsorted_slices(&slices),
                    sort_dedup(&coords),
                    "{n} over {width} in {k} slices"
                );
            }
        }
    }
}

#[test]
fn from_unsorted_slices_decides_density_on_all_slices_together() {
    let mut rng = TestRng::new(23);
    // Eight slices of 64 coordinates over one width: each alone is sparse
    // (and would sort), all eight together are dense (one bitset).
    let (per, k) = (64, 8);
    let width = sparse_width(per * k) - 1;
    assert!(width >= sparse_width(per));
    let coords: Vec<u64> = (0..k)
        .flat_map(|_| scattered(&mut rng, per, 1000, width))
        .collect();
    let slices: Vec<&[u64]> = coords.chunks(per).collect();
    assert_eq!(Selection::from_unsorted_slices(&slices), sort_dedup(&coords));
    // Slices each shorter than the sort cutoff, together at or above it.
    let short: Vec<u64> = (0..SORT_BELOW as u64 * 2).map(|i| 77 + (i * 5) % 61).collect();
    let slices: Vec<&[u64]> = short.chunks(SORT_BELOW / 2 - 1).collect();
    assert_eq!(Selection::from_unsorted_slices(&slices), sort_dedup(&short));
    // No slices, empty slices, and empty slices around a dense one.
    assert_eq!(Selection::from_unsorted_slices(&[]), Selection::empty());
    assert_eq!(Selection::from_unsorted_slices(&[&[], &[]]), Selection::empty());
    let dense = scattered(&mut rng, 300, 1 << 40, 1000);
    assert_eq!(
        Selection::from_unsorted_slices(&[&[], &dense, &[]]),
        Selection::from_unsorted_coords(&dense)
    );
}

/// Scatter `slices` and hold the part to the parent's
/// `from_unsorted_slices` result, which is the sort + dedup oracle: its
/// popcount run count is the decoded selection's `num_runs`, its wire size
/// the oracle's, and it decodes to the oracle.
fn check_scatter(slices: &[&[u64]], ctx: &str) -> PartialSelection {
    let part = PartialSelection::scatter(slices);
    let oracle = sort_dedup(&slices.concat());
    let decoded = part.clone().into_selection();
    assert_eq!(part.num_runs(), decoded.num_runs(), "{ctx}: popcount run count");
    assert_eq!(part.wire_size_bytes(), oracle.wire_size_bytes(), "{ctx}: wire size");
    assert_eq!(decoded, oracle, "{ctx}: decoded");
    assert_eq!(Selection::from_unsorted_slices(slices), oracle, "{ctx}: from_unsorted_slices");
    part
}

/// `union_partials` against the pairwise fold of the decoded parts and
/// against sort + dedup of every coordinate the parts hold.
fn check_union_partials(parts: &[PartialSelection], ctx: &str) {
    let decoded: Vec<Selection> =
        parts.iter().cloned().map(PartialSelection::into_selection).collect();
    let coords: Vec<u64> = decoded.iter().flat_map(|s| s.iter_coords()).collect();
    let got = Selection::union_partials(parts);
    assert_eq!(got, fold_union(&decoded), "{ctx}: against the fold");
    assert_eq!(got, sort_dedup(&coords), "{ctx}: against sort + dedup");
}

fn run_parts(sources: &[Selection]) -> Vec<PartialSelection> {
    sources.iter().cloned().map(PartialSelection::from).collect()
}

#[test]
fn union_partials_edge_shapes() {
    let e = Selection::empty();
    check_union_partials(&[], "no sources");
    check_union_partials(&run_parts(&[e.clone(), e.clone()]), "empty sources");
    let a = runs(&[(3, 2), (9, 1), (70, 130)]);
    check_union_partials(&run_parts(&[e.clone(), a.clone(), e.clone()]), "one non-empty source");
    // Element-by-element round robin over three sources: every run is one
    // coordinate, adjacent to the next source's, and the union is a span
    // crossing several words.
    let rr: Vec<Selection> = (0..3u64)
        .map(|s| Selection::from_sorted_coords((0..400).filter(|c| c % 3 == s).map(|c| c + 61)))
        .collect();
    check_union_partials(&run_parts(&rr), "round robin");
    assert_eq!(Selection::union_partials(&run_parts(&rr)), Selection::from_span(61, 400));
    // Runs that end on, start on and straddle word boundaries, overlap
    // across sources, and one run that swallows another source's runs.
    let sources = [
        runs(&[(0, 64), (128, 1), (190, 3), (300, 200)]),
        runs(&[(64, 64), (129, 2), (193, 1), (320, 5), (499, 2)]),
        e,
        runs(&[(63, 2), (127, 2), (255, 1), (256, 1), (600, 1)]),
    ];
    check_union_partials(&run_parts(&sources), "word boundaries");
    // Sparse against the span: the inputs hold fewer than one run per
    // `DENSE_WORDS_PER_COORD` words of span, so the heap merge answers.
    let far = [runs(&[(0, 1), (1 << 40, 3)]), runs(&[(5, 2), ((1 << 40) + 3, 1)])];
    check_union_partials(&run_parts(&far), "sparse fallback");
}

#[test]
fn scattered_parts_merge_with_run_parts_at_word_edges() {
    let words = |coords: &[u64], ctx: &str| {
        let part = check_scatter(&[coords], ctx);
        assert!(part.as_runs().is_none(), "{ctx}: must take the word path");
        part
    };
    // One run ending at coordinate 63 (base word 0) and one starting at 64
    // (base word 1): the merge must coalesce them across the word end.
    let to_63: Vec<u64> = (32..64).rev().collect();
    let from_64: Vec<u64> = (64..96).rev().collect();
    let (a, b) = (words(&to_63, "to 63"), words(&from_64, "from 64"));
    check_union_partials(&[a.clone(), b.clone()], "63 | 64");
    assert_eq!(Selection::union_partials(&[b.clone(), a.clone()]), Selection::from_span(32, 64));
    // Above 2^32, at base words 2^26 + 3 and + 5, with a run part bridging
    // them and an empty part and an empty scatter beside them.
    let hi = 1u64 << 32;
    let low: Vec<u64> = (0..40).map(|i| hi + 192 + (i * 7) % 64).collect();
    let high: Vec<u64> = (0..40).map(|i| hi + 320 + (i * 5) % 64).collect();
    let bridge = PartialSelection::from(runs(&[(hi + 250, 80), (hi + 500, 1)]));
    let parts = [
        words(&low, "low"),
        PartialSelection::from(Selection::empty()),
        bridge.clone(),
        check_scatter(&[&[], &[]], "all-empty scatter"),
        words(&high, "high"),
    ];
    check_union_partials(&parts, "above 2^32");
    // At the top of the coordinate range: the last word is the grid's.
    let top: Vec<u64> = (0..40).map(|i| u64::MAX - 1 - (i * 3) % 100).collect();
    let below_top = PartialSelection::from(runs(&[(u64::MAX - 120, 10)]));
    check_union_partials(&[words(&top, "top"), below_top], "top of the range");
    // One part alone, words or runs.
    check_union_partials(std::slice::from_ref(&a), "one word part");
    check_union_partials(std::slice::from_ref(&bridge), "one run part");
    // Word parts far apart: too few runs for their span, so each part is
    // decoded on its own and the heap merges them.
    let far: Vec<u64> = from_64.iter().map(|c| c + (1 << 40)).collect();
    check_union_partials(&[a, words(&far, "far"), b], "sparse parts with words");
}

#[test]
fn scatter_forms_on_both_sides_of_the_density_constant() {
    let mut rng = TestRng::new(24);
    for n in [SORT_BELOW, 100, 4096] {
        let w = sparse_width(n);
        for (base, width) in [(0, w - 1), (0, w), (63, w - 1), (64, w), ((5 << 32) - 3, w - 1)] {
            let coords = scattered(&mut rng, n, base, width);
            let part = check_scatter(&cut(&mut rng, &coords, 3), &format!("{n} over {width}"));
            assert_eq!(part.as_runs().is_none(), width < w, "{n} over {width}: form");
        }
    }
    // Below the sort cutoff even a packed slice sorts.
    let packed: Vec<u64> = (0..SORT_BELOW as u64 - 1).collect();
    assert!(check_scatter(&[&packed], "below the cutoff").as_runs().is_some());
    // Runs-only merges on both sides of the constant: `k` single-coordinate
    // runs whose span is one short of, and exactly, `k` stretches.
    for k in [2u64, 40] {
        for width in [sparse_width(k as usize) - 1, sparse_width(k as usize)] {
            let sources: Vec<Selection> =
                (0..k).map(|i| runs(&[(i * width / (k - 1), 1)])).collect();
            check_union_partials(&run_parts(&sources), &format!("{k} runs over {width}"));
        }
    }
}

#[test]
fn restrict_to_span_edge_cases() {
    let s = runs(&[(10, 5), (20, 10), (40, 1)]);
    let clip = |start, len| s.restrict_to_span(start, len).runs().to_vec();
    // Empty spans, inside a run, between runs and past the end.
    for start in [0, 12, 17, 25, 100, u64::MAX] {
        assert!(clip(start, 0).is_empty(), "empty span at {start}");
    }
    // Past the end, and reaching the end of the coordinate range.
    assert!(clip(41, 100).is_empty());
    assert!(clip(u64::MAX - 3, 10).is_empty());
    assert_eq!(clip(40, u64::MAX), vec![Run::new(40, 1)]);
    // Starting mid-run, ending mid-run, and both inside one run.
    assert_eq!(clip(12, 10), vec![Run::new(12, 3), Run::new(20, 2)]);
    assert_eq!(clip(22, 3), vec![Run::new(22, 3)]);
    assert_eq!(clip(14, 27), vec![Run::new(14, 1), Run::new(20, 10), Run::new(40, 1)]);
    // Before the first run, and exactly one run.
    assert!(clip(0, 10).is_empty());
    assert_eq!(clip(20, 10), vec![Run::new(20, 10)]);
    assert!(Selection::empty().restrict_to_span(0, 10).is_empty());
}

/// The oracle for `RankDirectory::rank`: `c`'s index in `iter_coords()`.
fn rank_by_search(coords: &[u64], c: u64) -> Option<u64> {
    coords.binary_search(&c).ok().map(|i| i as u64)
}

/// Whether `RankDirectory::new(sel, probes)` takes the bitset path: the
/// span is narrower than `DENSE_WORDS_PER_COORD × 64` coordinates per
/// coordinate placed, selected or probed.
fn takes_bitset(sel: &Selection, probes: u64) -> bool {
    let (Some(first), Some(last)) = (sel.runs().first(), sel.runs().last()) else {
        return false;
    };
    let placed = sel.count().saturating_add(probes);
    last.end() - 1 - first.start < placed.saturating_mul(DENSE_WORDS_PER_COORD * 64)
}

/// Probe every selected coordinate, its neighbours, both ends of the span
/// and beyond, and `extra` random coordinates near the span. Returns
/// whether the directory took the bitset path.
fn check_ranks(sel: &Selection, probes: u64, rng: &mut TestRng, extra: usize) -> bool {
    let ranks = RankDirectory::new(sel, probes);
    let coords: Vec<u64> = sel.iter_coords().collect();
    let mut probe: Vec<u64> = vec![0, 1, u64::MAX];
    for &c in &coords {
        probe.extend([c.wrapping_sub(1), c, c.wrapping_add(1)]);
    }
    if let (Some(&lo), Some(&hi)) = (coords.first(), coords.last()) {
        let width = hi - lo + 1;
        probe.extend(
            (0..extra).map(|_| lo.wrapping_add(rng.next_u64() % (width + 128)).wrapping_sub(64)),
        );
    }
    for c in probe {
        assert_eq!(ranks.rank(c), rank_by_search(&coords, c), "coordinate {c} of {sel:?}");
    }
    takes_bitset(sel, probes)
}

#[test]
fn rank_directory_edge_shapes() {
    let mut rng = TestRng::new(5);
    let far = 1u64 << 40;
    // Empty; one coordinate; runs across word ends; the top of the range;
    // two ends far apart (sparse however many probes are promised, since
    // the span outruns any count); and the same span densely filled.
    let shapes = [
        Selection::empty(),
        runs(&[(7, 1)]),
        runs(&[(60, 10), (127, 2), (190, 200)]),
        runs(&[(u64::MAX - 130, 130)]),
        runs(&[(0, 100), (far, 3)]),
        runs(&[(3, 1), (far, 1)]),
        runs(&[(64, 1 << 14), (1 << 15, 1)]),
    ];
    for sel in &shapes {
        for probes in [0, 1 << 20] {
            check_ranks(sel, probes, &mut rng, 200);
        }
    }
    assert!(!takes_bitset(&shapes[4], 1 << 20), "ends 2^40 apart must stay sparse");
    assert!(takes_bitset(&shapes[6], 0));
}

#[test]
fn rank_directory_agrees_on_both_sides_of_the_density_constant() {
    let mut rng = TestRng::new(33);
    for n in [SORT_BELOW, 100, 4096] {
        let w = sparse_width(n);
        for (base, width, dense) in [(0, w / 2, true), (5 << 32, w * 3, false)] {
            let sel = Selection::from_unsorted_coords(&scattered(&mut rng, n, base, width));
            let count = sel.count() as usize;
            // The probes a caller promises count towards the bitset: a
            // sparse selection turns dense once enough are expected.
            assert_eq!(check_ranks(&sel, 0, &mut rng, 500), dense, "{n} over {width}");
            let promised = (width / (DENSE_WORDS_PER_COORD * 64) + 1) as usize;
            assert!(check_ranks(&sel, promised.saturating_sub(count) as u64, &mut rng, 500));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]
    #[test]
    fn rank_is_the_index_in_iter_coords(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let n = 1 + rng.below(2000);
        // Packed into a few words, around the constant, and far sparser.
        let width = match rng.below(3) {
            0 => rng.below(2 * n + 2) as u64,
            1 => sparse_width(n) - 1 + rng.below(3) as u64 - 1,
            _ => rng.next_u64() % (4 * sparse_width(n)),
        };
        let base = match rng.below(3) {
            0 => rng.next_u64() % 1000,
            1 => (1 << 32) + rng.next_u64() % (1 << 36),
            _ => u64::MAX - 1 - width - rng.below(64) as u64,
        };
        let sel = Selection::from_unsorted_coords(&scattered(&mut rng, n, base, width));
        let probes = match rng.below(3) {
            0 => 0,
            1 => rng.below(4 * n) as u64,
            _ => rng.next_u64(),
        };
        check_ranks(&sel, probes, &mut rng, 300);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]
    #[test]
    fn from_unsorted_coords_equals_sort_dedup(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let n = match rng.below(5) {
            0 => rng.below(SORT_BELOW + 2),
            _ => rng.below(3000),
        };
        // From runs packed into a few words, through either side of the
        // constant, to far sparser than it; near 0, above 2^32 and at the
        // top of the coordinate range.
        let width = match rng.below(4) {
            0 => rng.below(2 * n + 2) as u64,
            1 => sparse_width(n.max(1)) - 1 + rng.below(3) as u64 - 1,
            2 => rng.next_u64() % (4 * sparse_width(n.max(1))),
            _ => rng.next_u64() >> (2 + rng.below(40)),
        };
        let base = match rng.below(3) {
            0 => rng.next_u64() % 1000,
            1 => (1 << 32) + rng.next_u64() % (1 << 36),
            _ => u64::MAX - 1 - width - rng.below(64) as u64,
        };
        let coords = scattered(&mut rng, n, base, width);
        let got = Selection::from_unsorted_coords(&coords);
        prop_assert_eq!(got.clone(), sort_dedup(&coords));
        for w in got.runs().windows(2) {
            prop_assert!(w[0].end() < w[1].start, "runs must be canonical");
        }
    }
}

proptest! {
    #[test]
    fn mask_runs_matches_the_trailing_ones_decoder(
        m in any::<u64>(),
        sparse in any::<u64>(),
        base in 64u64..1_000_000,
    ) {
        // Random words, and sparser ones whose runs are short.
        check_mask_runs(m, base);
        check_mask_runs(m & sparse, base);
        check_mask_runs(m | (1 << 63), base);
    }
}

proptest! {
    #[test]
    fn selection_roundtrips_coords(coords in coords_strategy()) {
        let s = Selection::from_unsorted_coords(&coords);
        let m = model(&coords);
        prop_assert_eq!(s.iter_coords().collect::<Vec<_>>(), m.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(s.count(), m.len() as u64);
    }

    #[test]
    fn selection_runs_are_canonical(coords in coords_strategy()) {
        let s = Selection::from_unsorted_coords(&coords);
        for r in s.runs() {
            prop_assert!(r.len > 0);
        }
        for w in s.runs().windows(2) {
            prop_assert!(w[0].end() < w[1].start, "runs must be sorted and non-adjacent");
        }
    }

    #[test]
    fn union_matches_set_model(a in coords_strategy(), b in coords_strategy()) {
        let sa = Selection::from_unsorted_coords(&a);
        let sb = Selection::from_unsorted_coords(&b);
        let expect: Vec<u64> = model(&a).union(&model(&b)).copied().collect();
        prop_assert_eq!(sa.union(&sb).iter_coords().collect::<Vec<_>>(), expect);
        // commutative
        prop_assert_eq!(sa.union(&sb), sb.union(&sa));
    }

    #[test]
    fn intersect_matches_set_model(a in coords_strategy(), b in coords_strategy()) {
        let sa = Selection::from_unsorted_coords(&a);
        let sb = Selection::from_unsorted_coords(&b);
        let expect: Vec<u64> = model(&a).intersection(&model(&b)).copied().collect();
        prop_assert_eq!(sa.intersect(&sb).iter_coords().collect::<Vec<_>>(), expect);
        prop_assert_eq!(sa.intersect(&sb), sb.intersect(&sa));
    }

    #[test]
    fn demorgan_style_counts(a in coords_strategy(), b in coords_strategy()) {
        // |A ∪ B| + |A ∩ B| == |A| + |B|
        let sa = Selection::from_unsorted_coords(&a);
        let sb = Selection::from_unsorted_coords(&b);
        prop_assert_eq!(
            sa.union(&sb).count() + sa.intersect(&sb).count(),
            sa.count() + sb.count()
        );
    }

    #[test]
    fn restrict_matches_filter(coords in coords_strategy(), start in 0u64..500, len in 0u64..200) {
        let s = Selection::from_unsorted_coords(&coords);
        let expect: Vec<u64> = model(&coords)
            .into_iter()
            .filter(|&c| c >= start && c < start + len)
            .collect();
        prop_assert_eq!(
            s.restrict_to_span(start, len).iter_coords().collect::<Vec<_>>(),
            expect
        );
        prop_assert_eq!(s.runs_in_span(start, len).collect::<Vec<_>>(), s.restrict_to_span(start, len).runs());
    }

    #[test]
    fn contains_matches_model(coords in coords_strategy(), probe in 0u64..600) {
        let s = Selection::from_unsorted_coords(&coords);
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
    fn union_partials_of_element_interleaved_sources_matches_fold(seed in 0u64..u64::MAX) {
        // A sorted band's shape: every coordinate of a random set dealt to
        // a random one of k sources, so source results alternate element
        // by element; the set is dense or sparse against its span. Each
        // source ships its scatter of a shuffled copy cut into slices
        // (words where dense) or its runs.
        let mut rng = TestRng::new(seed);
        let k = 1 + rng.below(12);
        let span = 1 + rng.below(20_000) as u64;
        let base = rng.next_u64() % (1 << 40);
        let keep = 1 + rng.below(1024) as u64;
        let mut per_source: Vec<Vec<u64>> = vec![Vec::new(); k];
        for c in base..base + span {
            if rng.next_u64().is_multiple_of(keep) {
                per_source[rng.below(k)].push(c);
            }
        }
        let parts: Vec<PartialSelection> = per_source
            .into_iter()
            .map(|mut coords| {
                if rng.below(3) == 0 {
                    return Selection::from_sorted_coords(coords).into();
                }
                for i in (1..coords.len()).rev() {
                    coords.swap(i, rng.below(i + 1));
                }
                let pieces = 1 + rng.below(4);
                check_scatter(&cut(&mut rng, &coords, pieces), "source")
            })
            .collect();
        check_union_partials(&parts, &format!("seed {seed}"));
    }

    #[test]
    fn scatter_run_count_and_wire_size_match_the_decoded_runs(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let n = SORT_BELOW + rng.below(3000);
        // Packed into a few words, around the constant, and far sparser;
        // near 0, above 2^32 and at the top of the coordinate range.
        let width = match rng.below(3) {
            0 => rng.below(2 * n + 2) as u64,
            1 => sparse_width(n) - 1 + rng.below(3) as u64 - 1,
            _ => rng.next_u64() % (4 * sparse_width(n)),
        };
        let base = match rng.below(3) {
            0 => rng.next_u64() % 1000,
            1 => (1 << 32) + rng.next_u64() % (1 << 36),
            _ => u64::MAX - 1 - width - rng.below(64) as u64,
        };
        let coords = scattered(&mut rng, n, base, width);
        let pieces = 1 + rng.below(5);
        check_scatter(&cut(&mut rng, &coords, pieces), &format!("{n} over {width}"));
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
