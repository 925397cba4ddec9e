//! FNV-1a 64-bit checksums: the classic byte-serial hasher and a
//! word-parallel bulk variant.
//!
//! [`Fnv1a`] is the standard byte-at-a-time hash. It covers the small,
//! durable things whose on-disk format must not move: snapshot-journal
//! frames (`pdc-odms`), the block file's header + index checksum, and the
//! joint-context interval hashing in `pdc-query`. Its `xor`/`imul` chain
//! is serial — one multiply latency per byte, under 1 GB/s.
//!
//! [`BulkFnv`] is what the large payloads use — the block-frame checksum
//! (this crate) and the resident payload checksum (`pdc-storage`) — where
//! the byte loop used to cost more than scanning the data it guards. It
//! runs four independent FNV-1a lanes over little-endian `u64` words, so
//! the multiplies overlap and a stripe of 32 bytes costs about one
//! multiply latency:
//!
//! ```text
//! lanes = LANE_BASIS
//! for each whole 32-byte stripe (w0, w1, w2, w3 as little-endian u64):
//!     lanes[i] = (lanes[i] ^ w_i) * FNV_PRIME
//! h = seed
//! for lane in lanes:            h = (h ^ lane) * FNV_PRIME
//! for byte in the < 32-byte tail: h = (h ^ byte) * FNV_PRIME
//! h = (h ^ byte_length) * FNV_PRIME
//! ```
//!
//! **Detection guarantee.** `x -> (x ^ c) * FNV_PRIME` is a bijection of
//! the 64-bit state for every `c` (xor is an involution, the prime is
//! odd), and distinct `c` give distinct images of one `x`. A change
//! confined to one aligned word of a whole stripe therefore changes its
//! lane's value after that step; every later lane step and every fold
//! step is a bijection of the value it carries forward, and the other
//! lanes, the tail and the length are unchanged, so the result differs.
//! The same argument covers a change confined to one tail byte and a
//! change of the seed. In particular **every single-bit and single-byte
//! flip is detected by construction**, the guarantee byte-wise FNV-1a
//! gives. Like FNV-1a it is not a cryptographic hash.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher.
///
/// `Fnv1a::new().chain(a).chain(b).finish()` equals `fnv1a64` of the
/// concatenation `a ++ b`, so callers can stream element bytes without
/// materializing a contiguous buffer.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a {
    state: u64,
}

impl Fnv1a {
    /// A fresh hasher at the offset basis.
    #[inline]
    pub const fn new() -> Self {
        Fnv1a { state: FNV_OFFSET }
    }

    /// Absorb `bytes` into the running hash.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.state = h;
    }

    /// Builder-style [`Fnv1a::update`].
    #[inline]
    #[must_use]
    pub fn chain(mut self, bytes: &[u8]) -> Self {
        self.update(bytes);
        self
    }

    /// Absorb a `u64` as its 8 little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, w: u64) {
        self.update(&w.to_le_bytes());
    }

    /// The current hash value.
    #[inline]
    pub const fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl std::hash::Hasher for Fnv1a {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
}

/// One-shot FNV-1a 64 over a byte slice.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    Fnv1a::new().chain(bytes).finish()
}

/// Bytes per [`BulkFnv`] stripe: four little-endian `u64` words.
const STRIPE: usize = 32;

/// Starting values of the four lanes (distinct, so equal words in
/// different lanes never produce equal lane states).
const LANE_BASIS: [Lane; 4] = [
    Lane(FNV_OFFSET),
    Lane(FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15),
    Lane(FNV_OFFSET ^ 0x3c6e_f372_fe94_f82a),
    Lane(FNV_OFFSET ^ 0xdaa6_6d2c_7ddf_743f),
];

/// One lane's running value. The padding keeps the four lanes from being
/// adjacent in memory: over a plain `[u64; 4]` the compiler packs the
/// stripe loop into emulated 64-bit vector multiplies, three times slower
/// on baseline x86-64 than the four scalar multiplies it replaces.
#[derive(Debug, Clone, Copy)]
#[repr(align(16))]
struct Lane(u64);

/// A fixed-width element whose little-endian byte image [`BulkFnv`] can
/// absorb straight from a typed slice.
pub trait LeElem: Copy {
    /// `[u8; 4]` or `[u8; 8]`.
    type Bytes: AsRef<[u8]>;
    /// The element's little-endian bytes.
    fn le_bytes(self) -> Self::Bytes;
}

macro_rules! impl_le_elem {
    ($($t:ty),*) => {$(
        impl LeElem for $t {
            type Bytes = [u8; std::mem::size_of::<$t>()];
            #[inline]
            fn le_bytes(self) -> Self::Bytes {
                self.to_le_bytes()
            }
        }
    )*};
}
impl_le_elem!(f32, f64, i32, u32, i64, u64);

/// Word-parallel streaming checksum (definition and detection guarantee
/// in the module docs).
///
/// Streaming is split-independent: any sequence of [`BulkFnv::update`] and
/// [`BulkFnv::update_elems`] calls hashes the concatenated byte image, so a
/// typed payload hashed from its elements equals the hash of its
/// little-endian bytes.
#[derive(Debug, Clone)]
pub struct BulkFnv {
    seed: u64,
    lanes: [Lane; 4],
    /// Bytes past the last whole stripe.
    tail: [u8; STRIPE],
    tail_len: usize,
    len: u64,
}

/// Absorb the whole stripes of `bytes` and return the remainder. The four
/// multiplies of a stripe are independent, so a stripe costs about one
/// multiply latency.
#[inline]
fn absorb_stripes<'a>(lanes: &mut [Lane; 4], bytes: &'a [u8]) -> &'a [u8] {
    let word = |s: &[u8], i: usize| u64::from_le_bytes(s[8 * i..8 * i + 8].try_into().expect("8 bytes"));
    let [Lane(mut a), Lane(mut b), Lane(mut c), Lane(mut d)] = *lanes;
    let mut stripes = bytes.chunks_exact(STRIPE);
    for s in &mut stripes {
        a = (a ^ word(s, 0)).wrapping_mul(FNV_PRIME);
        b = (b ^ word(s, 1)).wrapping_mul(FNV_PRIME);
        c = (c ^ word(s, 2)).wrapping_mul(FNV_PRIME);
        d = (d ^ word(s, 3)).wrapping_mul(FNV_PRIME);
    }
    *lanes = [Lane(a), Lane(b), Lane(c), Lane(d)];
    stripes.remainder()
}

impl BulkFnv {
    /// A fresh hasher seeded with the FNV offset basis.
    pub const fn new() -> Self {
        Self::with_seed(FNV_OFFSET)
    }

    /// A fresh hasher whose fold starts from `seed` (the block frame
    /// seeds it with the classic FNV of its header fields).
    pub const fn with_seed(seed: u64) -> Self {
        BulkFnv { seed, lanes: LANE_BASIS, tail: [0; STRIPE], tail_len: 0, len: 0 }
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = (STRIPE - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < STRIPE {
                return;
            }
            absorb_stripes(&mut self.lanes, &self.tail);
            self.tail_len = 0;
        }
        let rest = absorb_stripes(&mut self.lanes, bytes);
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// Absorb the little-endian byte image of `xs` without materializing
    /// it: whole stripes (four 8-byte or eight 4-byte elements) go to the
    /// lanes directly.
    pub fn update_elems<T: LeElem>(&mut self, mut xs: &[T]) {
        let width = std::mem::size_of::<T::Bytes>();
        // Fill a partial stripe first so the bulk loop starts aligned.
        while self.tail_len > 0 && !xs.is_empty() {
            self.update(xs[0].le_bytes().as_ref());
            xs = &xs[1..];
        }
        let mut stripes = xs.chunks_exact(STRIPE / width);
        let mut lanes = self.lanes;
        for elems in &mut stripes {
            let mut stripe = [0u8; STRIPE];
            for (dst, x) in stripe.chunks_exact_mut(width).zip(elems) {
                dst.copy_from_slice(x.le_bytes().as_ref());
            }
            absorb_stripes(&mut lanes, &stripe);
            self.len += STRIPE as u64;
        }
        self.lanes = lanes;
        for x in stripes.remainder() {
            self.update(x.le_bytes().as_ref());
        }
    }

    /// Builder-style [`BulkFnv::update`].
    #[must_use]
    pub fn chain(mut self, bytes: &[u8]) -> Self {
        self.update(bytes);
        self
    }

    /// The checksum of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        let mut h = self.seed;
        for Lane(lane) in self.lanes {
            h = (h ^ lane).wrapping_mul(FNV_PRIME);
        }
        for &b in &self.tail[..self.tail_len] {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        (h ^ self.len).wrapping_mul(FNV_PRIME)
    }
}

impl Default for BulkFnv {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot [`BulkFnv`] over a byte slice.
pub fn bulk_fnv64(bytes: &[u8]) -> u64 {
    BulkFnv::new().chain(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let streamed = Fnv1a::new()
                .chain(&data[..split])
                .chain(&data[split..])
                .finish();
            assert_eq!(streamed, fnv1a64(data), "split at {split}");
        }
    }

    #[test]
    fn write_u64_equals_le_bytes() {
        let mut a = Fnv1a::new();
        a.write_u64(0xdead_beef_0bad_f00d);
        let b = fnv1a64(&0xdead_beef_0bad_f00du64.to_le_bytes());
        assert_eq!(a.finish(), b);
    }

    /// Deterministic filler with no short period.
    fn filler(len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
            .collect()
    }

    #[test]
    fn bulk_detects_every_single_bit_flip() {
        for len in (0..=100).chain([4095, 4096, 4097]) {
            let mut data = filler(len);
            let good = bulk_fnv64(&data);
            for bit in 0..len * 8 {
                data[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(bulk_fnv64(&data), good, "len {len}, bit {bit}");
                data[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn bulk_streaming_equals_one_shot_at_every_split() {
        let data = filler(200);
        for len in [0, 1, 31, 32, 33, 64, 100, 200] {
            let data = &data[..len];
            for split in 0..=len {
                let streamed = BulkFnv::new().chain(&data[..split]).chain(&data[split..]).finish();
                assert_eq!(streamed, bulk_fnv64(data), "len {len}, split {split}");
                // Three pieces, so a piece can start and end mid-stripe.
                let mid = split / 2;
                let three = BulkFnv::new()
                    .chain(&data[..mid])
                    .chain(&data[mid..split])
                    .chain(&data[split..])
                    .finish();
                assert_eq!(three, bulk_fnv64(data), "len {len}, splits {mid}/{split}");
            }
        }
    }

    /// `update_elems` over `xs` (whole, and split after `split` elements
    /// with `lead` raw bytes absorbed first) equals the byte-image hash.
    fn check_elems<T: LeElem>(xs: &[T]) {
        let image: Vec<u8> = xs.iter().flat_map(|x| x.le_bytes().as_ref().to_vec()).collect();
        let mut whole = BulkFnv::new();
        whole.update_elems(xs);
        assert_eq!(whole.finish(), bulk_fnv64(&image), "{} elements", xs.len());
        for split in [0, 1, xs.len() / 2, xs.len()] {
            let split = split.min(xs.len());
            for lead in [0usize, 3, 32] {
                let lead_bytes = filler(lead);
                let mut h = BulkFnv::new().chain(&lead_bytes);
                h.update_elems(&xs[..split]);
                h.update_elems(&xs[split..]);
                let expect = BulkFnv::new().chain(&lead_bytes).chain(&image).finish();
                assert_eq!(h.finish(), expect, "{} elements, split {split}, lead {lead}", xs.len());
            }
        }
    }

    #[test]
    fn bulk_typed_path_equals_byte_image_for_every_type() {
        for len in 0..=70u64 {
            let bits = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x7ff8_0000_dead_beef;
            check_elems(&(0..len).map(|i| f32::from_bits(bits(i) as u32)).collect::<Vec<_>>());
            check_elems(&(0..len).map(|i| f64::from_bits(bits(i))).collect::<Vec<_>>());
            check_elems(&(0..len).map(|i| bits(i) as i32).collect::<Vec<_>>());
            check_elems(&(0..len).map(|i| bits(i) as u32).collect::<Vec<_>>());
            check_elems(&(0..len).map(|i| bits(i) as i64).collect::<Vec<_>>());
            check_elems(&(0..len).map(bits).collect::<Vec<_>>());
        }
    }

    #[test]
    fn bulk_folds_the_length() {
        // The byte length is folded in last, so a buffer and its
        // zero-padded extension differ.
        for len in [0usize, 1, 31, 32, 33, 64] {
            let data = filler(len);
            for extra in [1usize, 8, 32, 64] {
                let mut padded = data.clone();
                padded.resize(len + extra, 0);
                assert_ne!(bulk_fnv64(&padded), bulk_fnv64(&data), "len {len} + {extra} zeros");
            }
        }
        assert_ne!(bulk_fnv64(&[]), bulk_fnv64(&[0]));
    }

    #[test]
    fn bulk_seed_changes_the_sum() {
        let data = filler(100);
        let a = BulkFnv::with_seed(1).chain(&data).finish();
        let b = BulkFnv::with_seed(2).chain(&data).finish();
        assert_ne!(a, b);
        assert_eq!(BulkFnv::with_seed(FNV_OFFSET).chain(&data).finish(), bulk_fnv64(&data));
    }

    #[test]
    fn bulk_pinned_vectors() {
        // Block-file format 2 stores these sums on disk: a change here is
        // a format change and needs a new `BLOCK_FORMAT`. The expected
        // values come from an independent transcription of the module-doc
        // definition, not from this implementation.
        assert_eq!(bulk_fnv64(b""), 0xe524_59c8_a5c8_d7cf);
        assert_eq!(
            bulk_fnv64(b"the quick brown fox jumps over the lazy dog"),
            0xbb92_6868_cc71_bb95
        );
        let ramp: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        assert_eq!(
            BulkFnv::with_seed(0x0123_4567_89ab_cdef).chain(&ramp).finish(),
            0x7222_5b96_fcd5_4f89
        );
    }
}
