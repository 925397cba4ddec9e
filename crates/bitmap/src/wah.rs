//! Word-Aligned Hybrid (WAH) compressed bitvectors.
//!
//! WAH stores a bitvector as a sequence of 32-bit words, each describing a
//! multiple of 31 logical bits:
//!
//! * **Literal word** — MSB = 0; the low 31 bits are one group of the
//!   bitmap verbatim (LSB = lowest bit position of the group).
//! * **Fill word** — MSB = 1; bit 30 is the fill value; the low 30 bits
//!   count how many consecutive 31-bit groups are all that value.
//!
//! WAH is the compression FastBit uses: logical operations run directly on
//! the compressed form (word-at-a-time, hence "word-aligned"), which is
//! what makes bitmap indexes competitive for scientific range queries.

use pdc_types::{Run, Selection};

const GROUP_BITS: u64 = 31;
const LITERAL_MASK: u32 = 0x7FFF_FFFF;
const FILL_FLAG: u32 = 0x8000_0000;
const FILL_BIT: u32 = 0x4000_0000;
const FILL_COUNT_MASK: u32 = 0x3FFF_FFFF;
const MAX_FILL_GROUPS: u64 = FILL_COUNT_MASK as u64;

/// A WAH-compressed bitvector of fixed logical length.
///
/// ```
/// use pdc_bitmap::WahBitVector;
/// use pdc_types::{Run, Selection};
/// let (a, b) = (Run::new(100, 500), Run::new(400, 500));
/// let a = WahBitVector::from_selection(1_000_000, &Selection::from_runs(vec![a]));
/// let b = WahBitVector::from_selection(1_000_000, &Selection::from_runs(vec![b]));
/// assert_eq!(a.and(&b).count_ones(), 200);
/// assert!(a.num_words() < 10); // a few words for a million bits
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WahBitVector {
    words: Vec<u32>,
    nbits: u64,
}

/// Incremental builder; append runs of identical bits in order.
#[derive(Debug, Default)]
pub struct WahBuilder {
    words: Vec<u32>,
    nbits: u64,
    partial: u32,
    partial_len: u32,
}

impl WahBuilder {
    /// A fresh, empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push_fill(&mut self, bit: bool, mut groups: u64) {
        while groups > 0 {
            let take = groups.min(MAX_FILL_GROUPS);
            // Coalesce with a preceding fill of the same polarity.
            if let Some(last) = self.words.last_mut() {
                if *last & FILL_FLAG != 0 && (*last & FILL_BIT != 0) == bit {
                    let have = (*last & FILL_COUNT_MASK) as u64;
                    let room = MAX_FILL_GROUPS - have;
                    let add = take.min(room);
                    *last += add as u32;
                    groups -= add;
                    if add == take {
                        continue;
                    }
                    // fell through with a full word; start a new one below
                    let rest = take - add;
                    self.words
                        .push(FILL_FLAG | if bit { FILL_BIT } else { 0 } | rest as u32);
                    groups -= rest;
                    continue;
                }
            }
            self.words.push(FILL_FLAG | if bit { FILL_BIT } else { 0 } | take as u32);
            groups -= take;
        }
    }

    fn push_group(&mut self, payload: u32) {
        debug_assert_eq!(payload & !LITERAL_MASK, 0);
        if payload == 0 {
            self.push_fill(false, 1);
        } else if payload == LITERAL_MASK {
            self.push_fill(true, 1);
        } else {
            self.words.push(payload);
        }
    }

    /// Append `n` copies of `bit`.
    pub fn append_bits(&mut self, bit: bool, mut n: u64) {
        self.nbits += n;
        // Top up the partial group first.
        if self.partial_len > 0 {
            let take = n.min(GROUP_BITS - self.partial_len as u64) as u32;
            if bit {
                self.partial |= ((1u32 << take) - 1).wrapping_shl(self.partial_len);
            }
            self.partial_len += take;
            n -= take as u64;
            if self.partial_len as u64 == GROUP_BITS {
                let p = self.partial;
                self.partial = 0;
                self.partial_len = 0;
                self.push_group(p);
            }
        }
        // Whole groups.
        let groups = n / GROUP_BITS;
        if groups > 0 {
            self.push_fill(bit, groups);
            n -= groups * GROUP_BITS;
        }
        // Remainder starts a new partial group.
        if n > 0 {
            debug_assert_eq!(self.partial_len, 0);
            if bit {
                self.partial = (1u32 << n) - 1;
            }
            self.partial_len = n as u32;
        }
    }

    /// Append the low `nbits` (≤ 64) bits of `mask` (bit `j` of `mask` is
    /// logical bit `j`), decomposed into same-value runs so fills still
    /// coalesce. This is how the scan kernels' 64-element hit masks feed
    /// index construction without a per-bit round trip.
    pub fn append_mask_bits(&mut self, mask: u64, nbits: u32) {
        debug_assert!(nbits <= 64);
        let mut pos = 0u32;
        while pos < nbits {
            let rest = mask >> pos;
            let (bit, run) = if rest & 1 == 0 {
                (false, rest.trailing_zeros().min(nbits - pos))
            } else {
                (true, rest.trailing_ones().min(nbits - pos))
            };
            self.append_bits(bit, run as u64);
            pos += run;
        }
    }

    /// Finish, padding any partial group with zeros (the logical length
    /// remembers where the real data ends).
    pub fn finish(mut self) -> WahBitVector {
        if self.partial_len > 0 {
            let p = self.partial;
            self.partial = 0;
            self.partial_len = 0;
            self.push_group(p);
        }
        WahBitVector { words: self.words, nbits: self.nbits }
    }
}

/// One decoded element of a WAH stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Chunk {
    /// One group with this 31-bit payload.
    Literal(u32),
    /// `groups` consecutive groups of all-`bit`.
    Fill { bit: bool, groups: u64 },
}

/// Cursor over a WAH word stream that can consume partial fills.
struct Cursor<'a> {
    words: std::slice::Iter<'a, u32>,
    current: Option<Chunk>,
}

impl<'a> Cursor<'a> {
    fn new(v: &'a WahBitVector) -> Self {
        let mut c = Cursor { words: v.words.iter(), current: None };
        c.refill();
        c
    }

    fn refill(&mut self) {
        self.current = self.words.next().map(|&w| {
            if w & FILL_FLAG != 0 {
                Chunk::Fill { bit: w & FILL_BIT != 0, groups: (w & FILL_COUNT_MASK) as u64 }
            } else {
                Chunk::Literal(w)
            }
        });
    }

    /// The pending chunk, if any.
    fn peek(&self) -> Option<Chunk> {
        self.current
    }

    /// Consume `n` groups (must not exceed the pending chunk's length).
    fn advance(&mut self, n: u64) {
        match self.current {
            Some(Chunk::Literal(_)) => {
                debug_assert_eq!(n, 1);
                self.refill();
            }
            Some(Chunk::Fill { bit, groups }) => {
                debug_assert!(n <= groups);
                if n == groups {
                    self.refill();
                } else {
                    self.current = Some(Chunk::Fill { bit, groups: groups - n });
                }
            }
            None => debug_assert_eq!(n, 0),
        }
    }
}

impl WahBitVector {
    /// An all-zero bitvector of `nbits` logical bits.
    pub fn zeros(nbits: u64) -> Self {
        let mut b = WahBuilder::new();
        b.append_bits(false, nbits);
        b.finish()
    }

    /// An all-one bitvector of `nbits` logical bits.
    pub fn ones(nbits: u64) -> Self {
        let mut b = WahBuilder::new();
        b.append_bits(true, nbits);
        b.finish()
    }

    /// Build from sorted, disjoint runs of set bits within `[0, nbits)`.
    pub fn from_selection(nbits: u64, sel: &Selection) -> Self {
        let mut b = WahBuilder::new();
        let mut pos = 0u64;
        for r in sel.runs() {
            debug_assert!(r.start >= pos && r.end() <= nbits);
            b.append_bits(false, r.start - pos);
            b.append_bits(true, r.len);
            pos = r.end();
        }
        b.append_bits(false, nbits - pos);
        b.finish()
    }

    /// Logical length in bits.
    pub fn nbits(&self) -> u64 {
        self.nbits
    }

    /// Raw compressed words (for serialization).
    pub fn words_raw(&self) -> &[u32] {
        &self.words
    }

    /// Reconstruct from raw words and logical length (inverse of
    /// [`Self::words_raw`]). `None` when the words cover a different
    /// number of 31-bit groups than `nbits` needs.
    pub fn from_raw_parts(words: Vec<u32>, nbits: u64) -> Option<Self> {
        let groups: u64 = words
            .iter()
            .map(|&w| if w & FILL_FLAG != 0 { u64::from(w & FILL_COUNT_MASK) } else { 1 })
            .sum();
        (groups == nbits.div_ceil(GROUP_BITS)).then_some(WahBitVector { words, nbits })
    }

    /// Number of 32-bit words in the compressed representation.
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Compressed size in bytes (words plus the length header).
    pub fn size_bytes(&self) -> u64 {
        4 * self.words.len() as u64 + 8
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        // Padding bits in the final group are zero by construction, so a
        // straight popcount is exact.
        self.words
            .iter()
            .map(|&w| {
                if w & FILL_FLAG != 0 {
                    if w & FILL_BIT != 0 {
                        GROUP_BITS * (w & FILL_COUNT_MASK) as u64
                    } else {
                        0
                    }
                } else {
                    w.count_ones() as u64
                }
            })
            .sum()
    }

    /// Convert to a run-length [`Selection`] of the set bit positions.
    pub fn to_selection(&self) -> Selection {
        let mut runs: Vec<Run> = Vec::new();
        let mut pos = 0u64;
        let push = |start: u64, len: u64, runs: &mut Vec<Run>| {
            if len == 0 {
                return;
            }
            if let Some(last) = runs.last_mut() {
                if last.end() == start {
                    last.len += len;
                    return;
                }
            }
            runs.push(Run::new(start, len));
        };
        for &w in &self.words {
            if w & FILL_FLAG != 0 {
                let groups = (w & FILL_COUNT_MASK) as u64;
                let span = groups * GROUP_BITS;
                if w & FILL_BIT != 0 {
                    push(pos, span.min(self.nbits.saturating_sub(pos)), &mut runs);
                }
                pos += span;
            } else {
                let mut payload = w;
                while payload != 0 {
                    let lo = payload.trailing_zeros() as u64;
                    // run of consecutive ones starting at lo
                    let shifted = payload >> lo;
                    let ones = shifted.trailing_ones() as u64;
                    let start = pos + lo;
                    let len = ones.min(self.nbits.saturating_sub(start));
                    push(start, len, &mut runs);
                    payload &= !(((1u32 << ones) - 1) << lo);
                }
                pos += GROUP_BITS;
            }
        }
        Selection::from_canonical_runs(runs)
    }

    /// Test a single bit (linear scan; intended for tests and spot checks).
    pub fn get(&self, pos: u64) -> bool {
        debug_assert!(pos < self.nbits);
        let target_group = pos / GROUP_BITS;
        let offset = pos % GROUP_BITS;
        let mut group = 0u64;
        for &w in &self.words {
            if w & FILL_FLAG != 0 {
                let groups = (w & FILL_COUNT_MASK) as u64;
                if target_group < group + groups {
                    return w & FILL_BIT != 0;
                }
                group += groups;
            } else {
                if target_group == group {
                    return w >> offset & 1 != 0;
                }
                group += 1;
            }
        }
        false
    }

    fn binary_op(&self, other: &WahBitVector, op: impl Fn(u32, u32) -> u32) -> WahBitVector {
        self.binary_op_reusing(other, op, Vec::new())
    }

    /// [`Self::binary_op`] writing into a recycled word buffer (cleared
    /// first), so chained operations reach a zero-allocation steady state.
    fn binary_op_reusing(
        &self,
        other: &WahBitVector,
        op: impl Fn(u32, u32) -> u32,
        mut scratch: Vec<u32>,
    ) -> WahBitVector {
        assert_eq!(self.nbits, other.nbits, "bitvector length mismatch");
        let mut a = Cursor::new(self);
        let mut bcur = Cursor::new(other);
        scratch.clear();
        let mut out = WahBuilder { words: scratch, ..WahBuilder::default() };
        let mut remaining_groups = self.nbits.div_ceil(GROUP_BITS);
        while remaining_groups > 0 {
            let (ca, cb) = match (a.peek(), bcur.peek()) {
                (Some(x), Some(y)) => (x, y),
                _ => break,
            };
            match (ca, cb) {
                (Chunk::Fill { bit: ba, groups: ga }, Chunk::Fill { bit: bb, groups: gb }) => {
                    let n = ga.min(gb).min(remaining_groups);
                    let pa = if ba { LITERAL_MASK } else { 0 };
                    let pb = if bb { LITERAL_MASK } else { 0 };
                    let res = op(pa, pb) & LITERAL_MASK;
                    let bits = n * GROUP_BITS;
                    if res == LITERAL_MASK {
                        out.append_bits(true, bits);
                    } else if res == 0 {
                        out.append_bits(false, bits);
                    } else {
                        for _ in 0..n {
                            out.push_group(res);
                            out.nbits += GROUP_BITS;
                        }
                    }
                    a.advance(n);
                    bcur.advance(n);
                    remaining_groups -= n;
                }
                _ => {
                    let pa = match ca {
                        Chunk::Literal(p) => p,
                        Chunk::Fill { bit, .. } => {
                            if bit {
                                LITERAL_MASK
                            } else {
                                0
                            }
                        }
                    };
                    let pb = match cb {
                        Chunk::Literal(p) => p,
                        Chunk::Fill { bit, .. } => {
                            if bit {
                                LITERAL_MASK
                            } else {
                                0
                            }
                        }
                    };
                    let res = op(pa, pb) & LITERAL_MASK;
                    out.push_group(res);
                    out.nbits += GROUP_BITS;
                    a.advance(1);
                    bcur.advance(1);
                    remaining_groups -= 1;
                }
            }
        }
        let mut v = out.finish();
        // The builder counted whole groups; restore the true logical length
        // and clear padding bits that a NOT-like op could have set.
        v.nbits = self.nbits;
        v.clear_padding();
        v
    }

    /// Clear any set bits beyond `nbits` in the final group so popcounts
    /// stay exact.
    fn clear_padding(&mut self) {
        let tail = self.nbits % GROUP_BITS;
        if tail == 0 {
            return;
        }
        // Only the final group can contain padding. Decode the last word;
        // if it is a one-fill or a literal with high bits set, rewrite it.
        let Some(&last) = self.words.last() else { return };
        let keep_mask = (1u32 << tail) - 1;
        if last & FILL_FLAG != 0 {
            if last & FILL_BIT == 0 {
                return; // zero fill: padding already clear
            }
            let groups = (last & FILL_COUNT_MASK) as u64;
            self.words.pop();
            if groups > 1 {
                self.words.push(FILL_FLAG | FILL_BIT | (groups - 1) as u32);
            }
            self.words.push(LITERAL_MASK & keep_mask);
        } else {
            let w = self.words.last_mut().unwrap();
            *w &= keep_mask;
        }
    }

    /// Bitwise AND.
    pub fn and(&self, other: &WahBitVector) -> WahBitVector {
        self.binary_op(other, |a, b| a & b)
    }

    /// Bitwise OR.
    pub fn or(&self, other: &WahBitVector) -> WahBitVector {
        self.binary_op(other, |a, b| a | b)
    }

    /// Bitwise NOT (within the logical length).
    pub fn not(&self) -> WahBitVector {
        let mut out = WahBuilder::new();
        for &w in &self.words {
            if w & FILL_FLAG != 0 {
                let groups = (w & FILL_COUNT_MASK) as u64;
                out.append_bits(w & FILL_BIT == 0, groups * GROUP_BITS);
            } else {
                out.push_group(!w & LITERAL_MASK);
                out.nbits += GROUP_BITS;
            }
        }
        let mut v = out.finish();
        v.nbits = self.nbits;
        v.clear_padding();
        v
    }

    /// OR together many bitvectors (the hot path of a range query: one OR
    /// per fully-covered bin). The accumulator's word buffer ping-pongs
    /// with a scratch buffer, so the whole fold allocates O(1) vectors.
    pub fn or_many<'a, I: IntoIterator<Item = &'a WahBitVector>>(
        nbits: u64,
        vs: I,
    ) -> WahBitVector {
        let mut acc = WahBitVector::zeros(nbits);
        let mut scratch = Vec::new();
        for v in vs {
            acc.or_assign(v, &mut scratch);
        }
        acc
    }

    /// In-place AND: `*self &= other`. The result is computed into
    /// `scratch` (cleared first) and swapped into `self`; `self`'s old
    /// word buffer becomes the next `scratch`, so a conjunction chain
    /// reuses two buffers instead of allocating per AND.
    pub fn and_assign(&mut self, other: &WahBitVector, scratch: &mut Vec<u32>) {
        let buf = std::mem::take(scratch);
        let res = self.binary_op_reusing(other, |a, b| a & b, buf);
        *scratch = std::mem::replace(&mut self.words, res.words);
        self.nbits = res.nbits;
    }

    /// In-place OR: `*self |= other`, with the same two-buffer recycling
    /// as [`Self::and_assign`].
    pub fn or_assign(&mut self, other: &WahBitVector, scratch: &mut Vec<u32>) {
        let buf = std::mem::take(scratch);
        let res = self.binary_op_reusing(other, |a, b| a | b, buf);
        *scratch = std::mem::replace(&mut self.words, res.words);
        self.nbits = res.nbits;
    }

    /// AND together many bitvectors (a conjunction chain over index bins),
    /// mirroring [`Self::or_many`]. The empty conjunction is all ones;
    /// the fold short-circuits once the accumulator is empty. Buffers are
    /// recycled via [`Self::and_assign`], so the chain allocates O(1)
    /// vectors regardless of length.
    pub fn and_many<'a, I: IntoIterator<Item = &'a WahBitVector>>(
        nbits: u64,
        vs: I,
    ) -> WahBitVector {
        let mut it = vs.into_iter();
        let Some(first) = it.next() else {
            return WahBitVector::ones(nbits);
        };
        assert_eq!(first.nbits, nbits, "bitvector length mismatch");
        let mut acc = first.clone();
        let mut scratch = Vec::new();
        for v in it {
            if acc.count_ones() == 0 {
                break;
            }
            acc.and_assign(v, &mut scratch);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_bools(bits: &[bool]) -> WahBitVector {
        let mut b = WahBuilder::new();
        for &bit in bits {
            b.append_bits(bit, 1);
        }
        b.finish()
    }

    fn span(start: u64, len: u64) -> Selection {
        Selection::from_runs(vec![Run::new(start, len)])
    }

    fn naive(bits: &[bool]) -> Vec<u64> {
        bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i as u64).collect()
    }

    #[test]
    fn roundtrip_small_patterns() {
        for pattern in [
            vec![],
            vec![true],
            vec![false],
            vec![true; 31],
            vec![false; 31],
            vec![true; 62],
            vec![true; 100],
            (0..200).map(|i| i % 3 == 0).collect::<Vec<_>>(),
            (0..1000).map(|i| i % 97 < 5).collect::<Vec<_>>(),
        ] {
            let v = from_bools(&pattern);
            assert_eq!(v.nbits(), pattern.len() as u64);
            assert_eq!(
                v.to_selection().iter_coords().collect::<Vec<_>>(),
                naive(&pattern),
                "pattern len {}",
                pattern.len()
            );
            assert_eq!(v.count_ones(), naive(&pattern).len() as u64);
        }
    }

    #[test]
    fn get_matches_bools() {
        let pattern: Vec<bool> = (0..500).map(|i| (i * 7) % 13 < 4).collect();
        let v = from_bools(&pattern);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(v.get(i as u64), b, "bit {i}");
        }
    }

    #[test]
    fn long_fills_compress() {
        let n = 1_000_000u64;
        let v = WahBitVector::zeros(n);
        assert!(v.num_words() <= 2, "zeros used {} words", v.num_words());
        let v = WahBitVector::ones(n);
        assert!(v.num_words() <= 2);
        assert_eq!(v.count_ones(), n);
    }

    #[test]
    fn fill_coalescing_across_appends() {
        let mut b = WahBuilder::new();
        for _ in 0..100 {
            b.append_bits(false, 31);
        }
        let v = b.finish();
        assert_eq!(v.num_words(), 1);
        assert_eq!(v.nbits(), 3100);
    }

    #[test]
    fn and_or_xor_match_naive() {
        let a_bits: Vec<bool> = (0..937).map(|i| (i * 11) % 17 < 6).collect();
        let b_bits: Vec<bool> = (0..937).map(|i| (i * 5) % 23 < 9).collect();
        let a = from_bools(&a_bits);
        let b = from_bools(&b_bits);

        let and_expect: Vec<u64> = (0..937).filter(|&i| a_bits[i] && b_bits[i]).map(|i| i as u64).collect();
        let or_expect: Vec<u64> = (0..937).filter(|&i| a_bits[i] || b_bits[i]).map(|i| i as u64).collect();

        assert_eq!(a.and(&b).to_selection().iter_coords().collect::<Vec<_>>(), and_expect);
        assert_eq!(a.or(&b).to_selection().iter_coords().collect::<Vec<_>>(), or_expect);
        assert_eq!(a.and(&b).nbits(), 937);
    }

    #[test]
    fn not_respects_logical_length() {
        let bits: Vec<bool> = (0..100).map(|i| i % 2 == 0).collect();
        let v = from_bools(&bits);
        let n = v.not();
        assert_eq!(n.nbits(), 100);
        assert_eq!(n.count_ones(), 50);
        let expect: Vec<u64> = (0..100u64).filter(|i| i % 2 == 1).collect();
        assert_eq!(n.to_selection().iter_coords().collect::<Vec<_>>(), expect);
        // double negation
        assert_eq!(n.not().to_selection(), v.to_selection());
    }

    #[test]
    fn not_of_zeros_is_all_ones_exactly() {
        let v = WahBitVector::zeros(45); // 31 + 14: padding in final group
        let n = v.not();
        assert_eq!(n.count_ones(), 45);
        assert_eq!(n.to_selection().count(), 45);
    }

    #[test]
    fn from_selection_roundtrip() {
        let sel = Selection::from_runs(vec![Run::new(0, 5), Run::new(40, 100), Run::new(500, 1)]);
        let v = WahBitVector::from_selection(1000, &sel);
        assert_eq!(v.to_selection(), sel);
        assert_eq!(v.count_ones(), 106);
    }

    /// Bit `j` of `blocks[k]` is logical bit `64k + j`; mask bits at or
    /// beyond `nbits` are ignored.
    fn from_mask_blocks(nbits: u64, blocks: &[u64]) -> WahBitVector {
        let mut b = WahBuilder::new();
        let mut remaining = nbits;
        for &m in blocks {
            let take = remaining.min(64) as u32;
            b.append_mask_bits(m, take);
            remaining -= take as u64;
        }
        b.finish()
    }

    #[test]
    fn mask_blocks_match_bools() {
        for n in [0usize, 1, 31, 63, 64, 65, 128, 200, 313] {
            let pattern: Vec<bool> = (0..n).map(|i| (i * 7) % 13 < 4 || i % 64 > 60).collect();
            let mut blocks = vec![0u64; n.div_ceil(64)];
            for (i, &b) in pattern.iter().enumerate() {
                if b {
                    blocks[i / 64] |= 1 << (i % 64);
                }
            }
            let v = from_mask_blocks(n as u64, &blocks);
            assert_eq!(v, from_bools(&pattern), "n = {n}");
        }
        // set bits beyond nbits are ignored
        let v = from_mask_blocks(10, &[u64::MAX]);
        assert_eq!(v.count_ones(), 10);
    }

    #[test]
    fn append_mask_bits_preserves_fill_compression() {
        let mut b = WahBuilder::new();
        for _ in 0..1000 {
            b.append_mask_bits(0, 64);
        }
        let v = b.finish();
        assert!(v.num_words() <= 3, "all-zero masks used {} words", v.num_words());
        assert_eq!(v.nbits(), 64_000);
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn or_many_unions() {
        let a = WahBitVector::from_selection(100, &span(0, 10));
        let b = WahBitVector::from_selection(100, &span(50, 10));
        let c = WahBitVector::from_selection(100, &span(5, 10));
        let u = WahBitVector::or_many(100, [&a, &b, &c]);
        assert_eq!(u.count_ones(), 25);
    }

    #[test]
    fn and_many_intersects_and_matches_pairwise() {
        let a = WahBitVector::from_selection(100, &span(0, 60));
        let b = WahBitVector::from_selection(100, &span(40, 60));
        let c = WahBitVector::from_selection(100, &span(50, 10));
        let m = WahBitVector::and_many(100, [&a, &b, &c]);
        assert_eq!(m.to_selection(), a.and(&b).and(&c).to_selection());
        assert_eq!(m.count_ones(), 10);
        // empty conjunction is the identity (all ones)
        assert_eq!(WahBitVector::and_many(100, []).count_ones(), 100);
        // disjoint inputs short-circuit to zero
        let d = WahBitVector::from_selection(100, &span(90, 5));
        assert_eq!(WahBitVector::and_many(100, [&a, &d, &b]).count_ones(), 0);
    }

    #[test]
    fn assign_ops_recycle_buffers_and_match_pure_ops() {
        let bits_a: Vec<bool> = (0..937).map(|i| (i * 11) % 17 < 6).collect();
        let bits_b: Vec<bool> = (0..937).map(|i| (i * 5) % 23 < 9).collect();
        let a = from_bools(&bits_a);
        let b = from_bools(&bits_b);
        let mut scratch = Vec::new();
        let mut x = a.clone();
        x.and_assign(&b, &mut scratch);
        assert_eq!(x, a.and(&b));
        assert!(!scratch.is_empty(), "old accumulator buffer should be recycled");
        let mut y = a.clone();
        y.or_assign(&b, &mut scratch);
        assert_eq!(y, a.or(&b));
        assert_eq!(y.nbits(), 937);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let a = WahBitVector::zeros(10);
        let b = WahBitVector::zeros(11);
        let _ = a.and(&b);
    }

    #[test]
    fn clustered_data_compresses_much_better_than_scattered() {
        let n = 310_000u64;
        let clustered = WahBitVector::from_selection(n, &span(1000, 30_000));
        let scattered = WahBitVector::from_selection(
            n,
            &Selection::from_sorted_coords((0..30_000u64).map(|i| i * 10)),
        );
        assert_eq!(clustered.count_ones(), scattered.count_ones());
        assert!(
            clustered.size_bytes() * 10 < scattered.size_bytes(),
            "clustered {} vs scattered {}",
            clustered.size_bytes(),
            scattered.size_bytes()
        );
    }
}
