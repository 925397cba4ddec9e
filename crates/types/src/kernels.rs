//! Monomorphized, branchless scan kernels.
//!
//! Every strategy of the paper bottoms out in one CPU hot loop: "test each
//! element of a region against an interval, emit the hit runs". The naive
//! loop calls [`TypedVec::get_f64`] per element — an enum match plus an
//! f64 widening — and tracks runs with a branchy `Option<Run>` state
//! machine. This module replaces it with type-specialized kernels:
//!
//! 1. **Interval lowering** ([`ScanElem::lower`]): the query interval's
//!    `f64` bounds are lowered *once per region* to inclusive thresholds
//!    in the element's native type, chosen so that the branchless
//!    per-element test is bit-for-bit equivalent to
//!    `interval.contains(x as f64)` — including IEEE semantics for a
//!    `NaN` element (it satisfies no interval), and including `i64`/`u64`
//!    values beyond 2^53 whose widening rounds.
//! 2. **Mask generation** ([`block_mask`]): 64 elements at a time are
//!    compared against the thresholds into one 0/1 byte per lane (a
//!    data-parallel map the compiler vectorises), and every 8 bytes are
//!    packed into a mask byte with one multiply, giving a `u64` hit mask.
//! 3. **Mask → runs** ([`scan_runs`]): masks convert to canonical
//!    [`Run`]s with `trailing_zeros`/`trailing_ones`, coalescing across
//!    block boundaries, so the output [`Selection`] is identical to the
//!    scalar reference.
//!
//! None of this changes simulated costs: callers charge
//! `elements_scanned` and `settle_cpu` exactly as before; the kernels only
//! change host wall-clock time. Parallelism lives one level up, across
//! servers and regions; a region scan is a single sequential pass.

use crate::interval::Interval;
use crate::selection::{mask_runs, Run, Selection};
use crate::value::TypedVec;

// ---------------------------------------------------------------------------
// float helpers
// ---------------------------------------------------------------------------

/// The next f64 strictly above `x` (`x` not NaN; +inf maps to itself).
fn next_f64_up(x: f64) -> f64 {
    if x == f64::INFINITY {
        return x;
    }
    let bits = x.to_bits();
    f64::from_bits(if x >= 0.0 {
        if x == 0.0 {
            1 // minimum positive subnormal (covers -0.0 too)
        } else {
            bits + 1
        }
    } else {
        bits - 1
    })
}

/// The next f64 strictly below `x` (`x` not NaN; -inf maps to itself).
fn next_f64_down(x: f64) -> f64 {
    -next_f64_up(-x)
}

/// The smallest f32 whose exact f64 value is `>= x` (`x` not NaN).
fn ceil_to_f32(x: f64) -> f32 {
    let f = x as f32; // round-to-nearest, saturating to ±inf
    if (f as f64) >= x {
        f
    } else {
        next_f32_up(f)
    }
}

/// The largest f32 whose exact f64 value is `<= x` (`x` not NaN).
fn floor_to_f32(x: f64) -> f32 {
    let f = x as f32;
    if (f as f64) <= x {
        f
    } else {
        next_f32_down(f)
    }
}

/// The next f32 strictly above `x` (`x` not NaN; +inf maps to itself).
fn next_f32_up(x: f32) -> f32 {
    if x == f32::INFINITY {
        return x;
    }
    let bits = x.to_bits();
    f32::from_bits(if x >= 0.0 {
        if x == 0.0 {
            1
        } else {
            bits + 1
        }
    } else {
        bits - 1
    })
}

/// The next f32 strictly below `x` (`x` not NaN; -inf maps to itself).
fn next_f32_down(x: f32) -> f32 {
    -next_f32_up(-x)
}

/// Lower an interval to inclusive f64 thresholds `(lo, hi)` such that
/// `v` satisfies `interval.contains(v)` iff `lo <= v && v <= hi` (a NaN
/// `v` fails both, as it fails `contains`). A side whose bound value is
/// NaN never rejects anything — mirroring `Interval::contains`, where NaN
/// fails both ordered comparisons — so it lowers to unbounded. An exclusive bound at
/// the non-representable end (`> +inf` / `< -inf`) admits no non-NaN
/// value at all and lowers to the canonical empty pair `(+inf, -inf)`.
fn lower_f64(interval: &Interval) -> (f64, f64) {
    let mut lo = f64::NEG_INFINITY;
    let mut hi = f64::INFINITY;
    let mut empty = false;
    if let Some(b) = interval.lo {
        if !b.value.is_nan() {
            if b.inclusive {
                lo = b.value;
            } else if b.value == f64::INFINITY {
                empty = true;
            } else {
                lo = next_f64_up(b.value);
            }
        }
    }
    if let Some(b) = interval.hi {
        if !b.value.is_nan() {
            if b.inclusive {
                hi = b.value;
            } else if b.value == f64::NEG_INFINITY {
                empty = true;
            } else {
                hi = next_f64_down(b.value);
            }
        }
    }
    if empty {
        (f64::INFINITY, f64::NEG_INFINITY)
    } else {
        (lo, hi)
    }
}

// ---------------------------------------------------------------------------
// integer helpers
// ---------------------------------------------------------------------------

/// Smallest `x` in `[min, max]` with `to_f64(x) >= lo`, or `None`.
/// `to_f64` must be monotone non-decreasing (integer→f64 widening is:
/// round-to-nearest of a monotone sequence never reorders).
fn int_lower_i128(min: i128, max: i128, to_f64: impl Fn(i128) -> f64, lo: f64) -> Option<i128> {
    if to_f64(max) < lo {
        return None;
    }
    if to_f64(min) >= lo {
        return Some(min);
    }
    let (mut a, mut b) = (min, max); // invariant: to_f64(a) < lo <= to_f64(b)
    while b - a > 1 {
        let m = a + (b - a) / 2;
        if to_f64(m) >= lo {
            b = m;
        } else {
            a = m;
        }
    }
    Some(b)
}

/// Largest `x` in `[min, max]` with `to_f64(x) <= hi`, or `None`.
fn int_upper_i128(min: i128, max: i128, to_f64: impl Fn(i128) -> f64, hi: f64) -> Option<i128> {
    if to_f64(min) > hi {
        return None;
    }
    if to_f64(max) <= hi {
        return Some(max);
    }
    let (mut a, mut b) = (min, max); // invariant: to_f64(a) <= hi < to_f64(b)
    while b - a > 1 {
        let m = a + (b - a) / 2;
        if to_f64(m) <= hi {
            a = m;
        } else {
            b = m;
        }
    }
    Some(a)
}

// ---------------------------------------------------------------------------
// the element trait
// ---------------------------------------------------------------------------

/// An element type the scan kernels are monomorphized over.
///
/// The contract tying the two methods together: for every element `x` and
/// every interval `iv`, with `(lo, hi) = T::lower(&iv)`,
///
/// ```text
/// x.accept(lo, hi) == iv.contains(x as f64)
/// ```
///
/// so kernel output is always bit-identical to the scalar reference.
pub trait ScanElem: Copy + PartialOrd {
    /// Lower `interval` to inclusive native-typed thresholds, once per
    /// region (cheap: a couple of float adjustments, or a ≤64-step binary
    /// search for the wide integer types).
    fn lower(interval: &Interval) -> (Self, Self);

    /// Branchless membership test against lowered thresholds.
    fn accept(self, lo: Self, hi: Self) -> bool;
}

impl ScanElem for f64 {
    fn lower(interval: &Interval) -> (f64, f64) {
        lower_f64(interval)
    }

    #[inline(always)]
    fn accept(self, lo: f64, hi: f64) -> bool {
        // NaN fails both comparisons and is therefore rejected, exactly
        // like `Interval::contains` (every ordered test on NaN is false).
        (self >= lo) & (self <= hi)
    }
}

impl ScanElem for f32 {
    fn lower(interval: &Interval) -> (f32, f32) {
        let (lo, hi) = lower_f64(interval);
        // f32→f64 widening is exact and monotone, so snapping the f64
        // thresholds to the f32 grid preserves the accepted set exactly.
        (ceil_to_f32(lo), floor_to_f32(hi))
    }

    #[inline(always)]
    fn accept(self, lo: f32, hi: f32) -> bool {
        (self >= lo) & (self <= hi)
    }
}

macro_rules! impl_scan_int {
    ($($t:ty),* $(,)?) => {$(
        impl ScanElem for $t {
            fn lower(interval: &Interval) -> ($t, $t) {
                let (lo, hi) = lower_f64(interval);
                let to_f64 = |v: i128| (v as $t) as f64;
                let lo_t = int_lower_i128(<$t>::MIN as i128, <$t>::MAX as i128, to_f64, lo);
                let hi_t = int_upper_i128(<$t>::MIN as i128, <$t>::MAX as i128, to_f64, hi);
                match (lo_t, hi_t) {
                    (Some(l), Some(h)) => (l as $t, h as $t),
                    // One side admits no value at all: the canonical
                    // empty pair (MAX > MIN, so `accept` is always false).
                    _ => (<$t>::MAX, <$t>::MIN),
                }
            }

            #[inline(always)]
            fn accept(self, lo: $t, hi: $t) -> bool {
                (self >= lo) & (self <= hi)
            }
        }
    )*};
}
impl_scan_int!(i32, u32, i64, u64);

// ---------------------------------------------------------------------------
// mask kernels
// ---------------------------------------------------------------------------

/// Compare up to 64 elements against lowered thresholds, producing a hit
/// mask (bit `j` set ⇔ `xs[j]` accepted).
///
/// The compare writes one 0/1 byte per lane (lanes past `xs.len()` stay
/// 0) — a data-parallel map the compiler vectorises — and each 8 bytes
/// then pack into one mask byte with a single multiply: the constant's
/// byte `k` is `2^(7-k)`, so byte `j` of the lanes lands on bit `j` of the
/// product's top byte, and 0/1 inputs keep every partial sum below 256,
/// so nothing carries between bytes.
#[inline]
pub fn block_mask<T: ScanElem>(xs: &[T], lo: T, hi: T) -> u64 {
    debug_assert!(xs.len() <= 64);
    let mut hits = [0u8; 64];
    for (h, &x) in hits.iter_mut().zip(xs) {
        *h = x.accept(lo, hi) as u8;
    }
    let mut m = 0u64;
    for (c, lanes) in hits.as_chunks::<8>().0.iter().enumerate() {
        let packed = u64::from_le_bytes(*lanes).wrapping_mul(0x0102_0408_1020_4080) >> 56;
        m |= packed << (c * 8);
    }
    m
}

/// Scan a typed slice against lowered thresholds, appending canonical
/// runs (sorted, disjoint, coalesced) at coordinates `base + index`.
pub fn scan_runs<T: ScanElem>(xs: &[T], lo: T, hi: T, base: u64, out: &mut Vec<Run>) {
    for (bi, chunk) in xs.chunks(64).enumerate() {
        let m = block_mask(chunk, lo, hi);
        if m != 0 {
            mask_runs(m, base + bi as u64 * 64, out);
        }
    }
}

/// Lower `interval` for `T` and scan `xs` into `out` (see [`scan_runs`]).
pub fn scan_into<T: ScanElem>(xs: &[T], interval: &Interval, base: u64, out: &mut Vec<Run>) {
    let (lo, hi) = T::lower(interval);
    scan_runs(xs, lo, hi, base, out);
}

/// Count the elements of `xs` matching `interval`.
pub fn count_slice<T: ScanElem>(xs: &[T], interval: &Interval) -> u64 {
    let (lo, hi) = T::lower(interval);
    xs.chunks(64).map(|c| block_mask(c, lo, hi).count_ones() as u64).sum()
}

// ---------------------------------------------------------------------------
// TypedVec entry points
// ---------------------------------------------------------------------------

/// Sequential kernel scan of a whole region: the selection of elements
/// matching `interval`, at coordinates `base + index`.
pub fn scan_interval(tv: &TypedVec, interval: &Interval, base: u64) -> Selection {
    let mut out = Vec::new();
    crate::with_slice!(tv, xs => scan_into(xs, interval, base, &mut out));
    Selection::from_canonical_runs(out)
}

/// Fused multi-interval scan: evaluate `k` intervals against one region
/// payload in a single pass over its 64-element blocks, so the data is
/// decoded and streamed through the cache hierarchy once instead of `k`
/// times (the batched query engine's shared-scan kernel). Every interval
/// is lowered once up front; each output selection is bit-identical to
/// [`scan_interval`] run alone, because per block the same
/// [`block_mask`] / `mask_runs` pipeline executes per interval.
pub fn scan_intervals(tv: &TypedVec, intervals: &[Interval], base: u64) -> Vec<Selection> {
    crate::with_slice!(tv, xs => scan_intervals_slice(xs, intervals, base))
}

fn scan_intervals_slice<T: ScanElem>(
    xs: &[T],
    intervals: &[Interval],
    base: u64,
) -> Vec<Selection> {
    let lowered: Vec<(T, T)> = intervals.iter().map(T::lower).collect();
    let mut outs: Vec<Vec<Run>> = vec![Vec::new(); intervals.len()];
    for (bi, chunk) in xs.chunks(64).enumerate() {
        let blk_base = base + bi as u64 * 64;
        for (k, &(lo, hi)) in lowered.iter().enumerate() {
            let m = block_mask(chunk, lo, hi);
            if m != 0 {
                mask_runs(m, blk_base, &mut outs[k]);
            }
        }
    }
    outs.into_iter().map(Selection::from_canonical_runs).collect()
}

/// The pre-kernel reference scan: per-element enum dispatch through
/// [`TypedVec::get_f64`] and a branchy run state machine. Kept as the
/// correctness oracle for the kernels (property-tested equal) and as the
/// baseline of the recorded kernel benchmarks.
pub fn scan_interval_scalar(tv: &TypedVec, interval: &Interval, base: u64) -> Selection {
    let mut runs: Vec<Run> = Vec::new();
    let mut open: Option<Run> = None;
    for i in 0..tv.len() {
        if interval.contains(tv.get_f64(i)) {
            match &mut open {
                Some(r) => r.len += 1,
                None => open = Some(Run::new(base + i as u64, 1)),
            }
        } else if let Some(r) = open.take() {
            runs.push(r);
        }
    }
    if let Some(r) = open {
        runs.push(r);
    }
    Selection::from_canonical_runs(runs)
}

/// Verify candidate positions against the raw values: the subset of
/// `candidates` (local coordinates into `tv`) whose value matches
/// `interval`. Equivalent to `IndexAnswer::resolve`'s per-coordinate
/// filter, but run-at-a-time through the mask kernels.
pub fn filter_selection(tv: &TypedVec, interval: &Interval, candidates: &Selection) -> Selection {
    let mut out = Vec::new();
    crate::with_slice!(tv, xs => {
        let (lo, hi) = ScanElem::lower(interval);
        for run in candidates.runs() {
            scan_runs(&xs[run.start as usize..run.end() as usize], lo, hi, run.start, &mut out);
        }
    });
    Selection::from_canonical_runs(out)
}

/// Scan the local index range `[start, end)` of `tv`, appending runs at
/// global coordinates `base + (index - start)` (the point-check inner
/// loop: `base` is the global coordinate of local index `start`).
pub fn scan_range(
    tv: &TypedVec,
    interval: &Interval,
    start: usize,
    end: usize,
    base: u64,
    out: &mut Vec<Run>,
) {
    crate::with_slice!(tv, xs => scan_into(&xs[start..end], interval, base, out));
}

/// Count the elements of `tv` matching `interval`.
pub fn count_matches(tv: &TypedVec, interval: &Interval) -> u64 {
    crate::with_slice!(tv, xs => count_slice(xs, interval))
}

/// Count the elements at `sel`'s (local) coordinates matching `interval`.
pub fn count_selection_matches(tv: &TypedVec, interval: &Interval, sel: &Selection) -> u64 {
    crate::with_slice!(tv, xs => {
        let (lo, hi) = ScanElem::lower(interval);
        sel.runs()
            .iter()
            .map(|r| {
                xs[r.start as usize..r.end() as usize]
                    .chunks(64)
                    .map(|c| block_mask(c, lo, hi).count_ones() as u64)
                    .sum::<u64>()
            })
            .sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Bound;
    use proptest::prelude::*;

    fn scalar_contains(tv: &TypedVec, iv: &Interval, i: usize) -> bool {
        iv.contains(tv.get_f64(i))
    }

    fn assert_kernel_matches_scalar(tv: &TypedVec, iv: &Interval, ctx: &str) {
        let kernel = scan_interval(tv, iv, 0);
        let scalar = scan_interval_scalar(tv, iv, 0);
        assert_eq!(kernel, scalar, "{ctx}: kernel vs scalar on {iv}");
        // And per-coordinate, to catch compensating errors in both paths.
        for i in 0..tv.len() {
            assert_eq!(
                kernel.contains(i as u64),
                scalar_contains(tv, iv, i),
                "{ctx}: element {i} ({}) vs {iv}",
                tv.get_value(i)
            );
        }
    }

    // -- lowering edge cases ------------------------------------------------

    #[test]
    fn f64_lowering_edges() {
        let tv = TypedVec::Double(vec![
            f64::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            1.0,
            2.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ]);
        let cases = [
            Interval::ALL,
            Interval::empty(),
            Interval::open(-1.0, 1.0),
            Interval::closed(-1.0, 1.0),
            Interval::closed(0.0, 0.0),
            Interval { lo: Some(Bound { value: f64::INFINITY, inclusive: false }), hi: None },
            Interval { lo: Some(Bound { value: f64::INFINITY, inclusive: true }), hi: None },
            Interval { lo: None, hi: Some(Bound { value: f64::NEG_INFINITY, inclusive: false }) },
            Interval { lo: None, hi: Some(Bound { value: f64::NEG_INFINITY, inclusive: true }) },
            Interval { lo: Some(Bound { value: f64::NAN, inclusive: false }), hi: None },
            Interval {
                lo: Some(Bound { value: f64::MAX, inclusive: false }),
                hi: Some(Bound { value: f64::NAN, inclusive: true }),
            },
        ];
        for iv in cases {
            assert_kernel_matches_scalar(&tv, &iv, "f64 edges");
        }
    }

    #[test]
    fn nan_elements_match_no_interval_like_scalar() {
        let tv = TypedVec::Float(vec![f32::NAN, 1.0, -f32::NAN]);
        let nan = Some(Bound { value: f64::NAN, inclusive: true });
        for iv in [
            Interval::empty(),
            Interval::open(5.0, 6.0),
            Interval::ALL,
            Interval { lo: nan, hi: None },
            Interval { lo: nan, hi: nan },
        ] {
            let sel = scan_interval(&tv, &iv, 0);
            assert!(!sel.contains(0) && !sel.contains(2), "NaN must not match {iv}");
            assert_eq!(sel.contains(1), iv.contains(1.0), "{iv}");
            assert_kernel_matches_scalar(&tv, &iv, "nan elements");
        }
        // An all-NaN column matches nothing, in every kernel entry point.
        let all_nan = TypedVec::Double(vec![f64::NAN; 130]);
        assert!(scan_interval(&all_nan, &Interval::ALL, 0).is_empty());
        assert_eq!(count_matches(&all_nan, &Interval::ALL), 0);
        let every = Selection::all(130);
        assert!(filter_selection(&all_nan, &Interval::ALL, &every).is_empty());
    }

    #[test]
    fn f32_threshold_snapping() {
        // 2.1f64 is not representable in f32; the f32 grid values around
        // it must classify exactly as the scalar does.
        let around: Vec<f32> = {
            let c = 2.1f32;
            vec![
                next_f32_down(next_f32_down(c)),
                next_f32_down(c),
                c,
                next_f32_up(c),
                next_f32_up(next_f32_up(c)),
            ]
        };
        let tv = TypedVec::Float(around);
        for iv in [
            Interval::open(2.1, 2.2),
            Interval::closed(2.1, 2.2),
            Interval::from_op(crate::QueryOp::Gt, 2.0999999046325684),
            Interval::from_op(crate::QueryOp::Lte, 2.1),
        ] {
            assert_kernel_matches_scalar(&tv, &iv, "f32 snapping");
        }
    }

    #[test]
    fn wide_integer_rounding_beyond_2p53() {
        // i64/u64 → f64 rounds above 2^53; thresholds must follow the
        // rounded values, exactly as the scalar `get_f64` comparison does.
        let vals: Vec<i64> = vec![
            i64::MIN,
            i64::MIN + 1,
            -(1 << 53) - 1,
            -(1 << 53),
            -1,
            0,
            1,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1, // widens to 2^53 (rounds down)
            i64::MAX - 512,
            i64::MAX,
        ];
        let tv = TypedVec::Int64(vals);
        for iv in [
            Interval::from_op(crate::QueryOp::Gt, (1u64 << 53) as f64),
            Interval::from_op(crate::QueryOp::Gte, (1u64 << 53) as f64),
            Interval::from_op(crate::QueryOp::Lt, i64::MAX as f64),
            Interval::from_op(crate::QueryOp::Gte, i64::MAX as f64),
            Interval::closed(-(2f64.powi(53)), 2f64.powi(53)),
            Interval::open(i64::MIN as f64, i64::MAX as f64),
        ] {
            assert_kernel_matches_scalar(&tv, &iv, "i64 rounding");
        }

        let uv = TypedVec::UInt64(vec![0, 1, (1 << 53) - 1, 1 << 53, u64::MAX - 1024, u64::MAX]);
        for iv in [
            Interval::from_op(crate::QueryOp::Gte, u64::MAX as f64),
            Interval::from_op(crate::QueryOp::Lt, u64::MAX as f64),
            Interval::from_op(crate::QueryOp::Gt, 1.9e19),
        ] {
            assert_kernel_matches_scalar(&uv, &iv, "u64 rounding");
        }
    }

    #[test]
    fn fractional_integer_bounds() {
        let tv = TypedVec::Int32(vec![-3, -1, 0, 1, 2, 3, 7, 8]);
        for iv in [
            Interval::open(0.5, 7.5),
            Interval::closed(-0.5, 2.0),
            Interval::open(7.0, 8.0), // no integer strictly between
            Interval::closed(7.5, 7.6), // empty on the integer grid
        ] {
            assert_kernel_matches_scalar(&tv, &iv, "int fractional");
        }
    }

    // -- mask mechanics -----------------------------------------------------

    #[test]
    fn mask_runs_decodes_all_patterns() {
        for (mask, expect) in [
            (0u64, vec![]),
            (1, vec![Run::new(10, 1)]),
            (u64::MAX, vec![Run::new(10, 64)]),
            (0b1011_0110, vec![Run::new(11, 2), Run::new(14, 2), Run::new(17, 1)]),
            (1 << 63, vec![Run::new(73, 1)]),
            ((1 << 63) | 1, vec![Run::new(10, 1), Run::new(73, 1)]),
        ] {
            let mut out = Vec::new();
            mask_runs(mask, 10, &mut out);
            assert_eq!(out, expect, "mask {mask:#x}");
        }
    }

    /// Every block mask of `xs` (64-lane blocks and the short tail) bit for
    /// bit against the scalar reference's `interval.contains`, including
    /// that no lane past a short block's end is set.
    fn assert_block_masks_match_reference<T: ScanElem>(xs: &[T], tv: &TypedVec, iv: &Interval) {
        let (lo, hi) = T::lower(iv);
        for (bi, chunk) in xs.chunks(64).enumerate() {
            let m = block_mask(chunk, lo, hi);
            for j in 0..64 {
                let bit = (m >> j) & 1 == 1;
                let i = bi * 64 + j;
                let expect = j < chunk.len() && scalar_contains(tv, iv, i);
                assert_eq!(bit, expect, "{iv}: lane {j} of a {}-lane block", chunk.len());
            }
        }
    }

    #[test]
    fn runs_coalesce_across_blocks() {
        // 200 consecutive hits spanning three mask blocks → one run.
        let tv = TypedVec::Double((0..300).map(|i| if (50..250).contains(&i) { 1.0 } else { 9.0 }).collect());
        let sel = scan_interval(&tv, &Interval::closed(0.0, 2.0), 1000);
        assert_eq!(sel.runs(), &[Run::new(1050, 200)]);
    }

    #[test]
    fn base_offsets_apply() {
        let tv = TypedVec::Int32(vec![5, 1, 5, 1, 1]);
        let sel = scan_interval(&tv, &Interval::closed(0.0, 2.0), 70);
        assert_eq!(sel.runs(), &[Run::new(71, 1), Run::new(73, 2)]);
    }

    #[test]
    fn fused_scan_equals_independent_scans() {
        let tv = TypedVec::Float((0..777).map(|i| ((i * 37) % 1000) as f32 / 100.0).collect());
        let intervals = [
            Interval::open(2.1, 2.2),
            Interval::closed(0.0, 9.99),
            Interval::empty(),
            Interval::from_op(crate::QueryOp::Gt, 8.0),
            Interval::ALL,
        ];
        let fused = scan_intervals(&tv, &intervals, 310);
        assert_eq!(fused.len(), intervals.len());
        for (k, iv) in intervals.iter().enumerate() {
            assert_eq!(fused[k], scan_interval(&tv, iv, 310), "interval {k} ({iv})");
        }
        assert!(scan_intervals(&tv, &[], 0).is_empty());
    }

    // -- candidate / count helpers -----------------------------------------

    #[test]
    fn filter_selection_matches_per_coordinate_filter() {
        let tv = TypedVec::Float((0..500).map(|i| ((i * 13) % 100) as f32 / 10.0).collect());
        let iv = Interval::open(2.0, 6.5);
        let candidates = Selection::from_sorted_coords((0..500u64).filter(|c| c % 3 != 1));
        let got = filter_selection(&tv, &iv, &candidates);
        let expect = candidates.filter_coords(|c| iv.contains(tv.get_f64(c as usize)));
        assert_eq!(got, expect);
        assert_eq!(
            count_selection_matches(&tv, &iv, &candidates),
            expect.count()
        );
    }

    #[test]
    fn count_matches_agrees_with_scan() {
        let tv = TypedVec::UInt32((0..333).map(|i| (i * 7) % 97).collect());
        let iv = Interval::closed(10.0, 60.0);
        assert_eq!(count_matches(&tv, &iv), scan_interval(&tv, &iv, 0).count());
    }

    #[test]
    fn scan_range_slices_correctly() {
        let tv = TypedVec::Double((0..200).map(|i| (i % 10) as f64).collect());
        let iv = Interval::closed(3.0, 5.0);
        let mut out = Vec::new();
        scan_range(&tv, &iv, 50, 120, 1050, &mut out);
        let full = scan_interval(&tv, &iv, 1000);
        let expect = full.restrict_to_span(1050, 70);
        assert_eq!(Selection::from_canonical_runs(out), expect);
    }

    // -- property tests -----------------------------------------------------

    /// Random interval with open/closed/half-open/unbounded sides and
    /// occasionally NaN-adjacent or grid-exact bound values.
    fn gen_interval(rng: &mut TestRng, span: f64) -> Interval {
        let bound = |rng: &mut TestRng| -> Option<Bound> {
            match rng.below(8) {
                0 => None,
                1 => Some(Bound { value: f64::NAN, inclusive: rng.below(2) == 0 }),
                2 => Some(Bound {
                    value: if rng.below(2) == 0 { f64::INFINITY } else { f64::NEG_INFINITY },
                    inclusive: rng.below(2) == 0,
                }),
                // grid-exact values: land on actual data values often
                3 | 4 => Some(Bound {
                    value: (rng.below(41) as f64 - 20.0) * span / 20.0,
                    inclusive: rng.below(2) == 0,
                }),
                _ => Some(Bound {
                    value: (rng.next_f64() * 2.0 - 1.0) * span,
                    inclusive: rng.below(2) == 0,
                }),
            }
        };
        Interval { lo: bound(rng), hi: bound(rng) }
    }

    fn gen_data(rng: &mut TestRng, ty_pick: usize, len: usize) -> TypedVec {
        // One float column in eight is all NaN.
        let nan_below = if rng.below(8) == 0 { 12 } else { 1 };
        match ty_pick % 6 {
            0 => TypedVec::Float(
                (0..len)
                    .map(|_| match rng.below(12) {
                        r if r < nan_below => f32::NAN,
                        1 => f32::INFINITY,
                        2 => f32::NEG_INFINITY,
                        3 => -0.0,
                        _ => (rng.next_f64() * 40.0 - 20.0) as f32,
                    })
                    .collect(),
            ),
            1 => TypedVec::Double(
                (0..len)
                    .map(|_| match rng.below(12) {
                        r if r < nan_below => f64::NAN,
                        1 => f64::INFINITY,
                        2 => f64::NEG_INFINITY,
                        3 => -0.0,
                        _ => rng.next_f64() * 40.0 - 20.0,
                    })
                    .collect(),
            ),
            2 => TypedVec::Int32(
                (0..len)
                    .map(|_| match rng.below(12) {
                        0 => i32::MIN,
                        1 => i32::MAX,
                        _ => rng.next_u64() as i32 % 40,
                    })
                    .collect(),
            ),
            3 => TypedVec::UInt32(
                (0..len)
                    .map(|_| if rng.below(12) == 0 { u32::MAX } else { rng.next_u64() as u32 % 40 })
                    .collect(),
            ),
            4 => TypedVec::Int64(
                (0..len)
                    .map(|_| {
                        if rng.below(5) == 0 {
                            rng.next_u64() as i64 // full range incl. beyond 2^53
                        } else {
                            rng.next_u64() as i64 % 40
                        }
                    })
                    .collect(),
            ),
            _ => TypedVec::UInt64(
                (0..len)
                    .map(|_| {
                        if rng.below(5) == 0 {
                            rng.next_u64()
                        } else {
                            rng.next_u64() % 40
                        }
                    })
                    .collect(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]
        #[test]
        fn kernel_equals_scalar_reference(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let ty = rng.below(6);
            let len = rng.below(300);
            let tv = gen_data(&mut rng, ty, len);
            let iv = gen_interval(&mut rng, 25.0);
            let base = rng.next_u64() % 1_000_000;
            prop_assert_eq!(
                scan_interval(&tv, &iv, base),
                scan_interval_scalar(&tv, &iv, base)
            );
            crate::with_slice!(&tv, xs => assert_block_masks_match_reference(xs, &tv, &iv));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 100, ..ProptestConfig::default() })]
        #[test]
        fn fused_scan_equals_per_interval(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let ty = rng.below(6);
            let len = rng.below(400);
            let tv = gen_data(&mut rng, ty, len);
            let k = 1 + rng.below(6);
            let ivs: Vec<Interval> = (0..k).map(|_| gen_interval(&mut rng, 25.0)).collect();
            let base = rng.next_u64() % 1_000_000;
            let fused = scan_intervals(&tv, &ivs, base);
            for (i, iv) in ivs.iter().enumerate() {
                prop_assert_eq!(&fused[i], &scan_interval(&tv, iv, base), "interval {}", i);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 100, ..ProptestConfig::default() })]
        #[test]
        fn filter_and_counts_equal_reference(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let ty = rng.below(6);
            let len = 1 + rng.below(400);
            let tv = gen_data(&mut rng, ty, len);
            let iv = gen_interval(&mut rng, 25.0);
            let cand = Selection::from_sorted_coords(
                (0..len as u64).filter(|_| rng.below(3) != 0),
            );
            let expect = cand.filter_coords(|c| iv.contains(tv.get_f64(c as usize)));
            prop_assert_eq!(filter_selection(&tv, &iv, &cand), expect.clone());
            prop_assert_eq!(count_selection_matches(&tv, &iv, &cand), expect.count());
            let all: u64 = (0..len).filter(|&i| iv.contains(tv.get_f64(i))).count() as u64;
            prop_assert_eq!(count_matches(&tv, &iv), all);
        }
    }
}
