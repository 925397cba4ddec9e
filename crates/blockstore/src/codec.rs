//! Per-block lightweight compression for typed arrays and raw index bytes.
//!
//! All codecs are hand-rolled (the workspace builds offline against
//! `compat/` shims) and operate on the little-endian *byte representation*
//! of elements, so decoding is bit-exact — NaN payloads, signed zeros and
//! ±inf round-trip unchanged.
//!
//! Encodings (the `u8` tag stored in each block frame):
//!
//! * `0` **Raw** — little-endian element bytes, no transform.
//! * `1` **Shuffle** — byte-plane transpose (all byte 0s, then all byte
//!   1s, …) followed by PackBits RLE. HPC float data has near-constant
//!   exponent bytes and trailing-zero mantissa bytes, which the transpose
//!   turns into long runs.
//! * `2` **ForPack** — frame-of-reference: subtract the block minimum,
//!   bit-pack the offsets at the minimal width. Integers only.
//! * `3` **DeltaForPack** — consecutive deltas, then frame-of-reference
//!   bit-packing of the deltas. Wins on monotone sequences (timestamps,
//!   sorted replicas). Integers only.
//! * `4` **RleBytes** — PackBits over the raw bytes; fallback for `Raw`
//!   index payloads (bitmap segments are dominated by literal-word runs).
//!
//! The encoder tries every applicable encoding and keeps the smallest;
//! `Raw` is always applicable, so encoded size never exceeds raw size
//! plus the frame header.

use pdc_types::error::{PdcError, PdcResult};
use pdc_types::value::{PdcType, TypedVec};
use std::cell::RefCell;

/// Encoding tag: little-endian element bytes.
const ENC_RAW: u8 = 0;
/// Encoding tag: byte-shuffle + PackBits.
const ENC_SHUFFLE: u8 = 1;
/// Encoding tag: frame-of-reference bit-packing.
const ENC_FOR_PACK: u8 = 2;
/// Encoding tag: delta + frame-of-reference bit-packing.
const ENC_DELTA_FOR_PACK: u8 = 3;
/// Encoding tag: PackBits over raw bytes.
const ENC_RLE_BYTES: u8 = 4;
/// Encoding tag: doubles that are exactly `f32`-representable stored as
/// byte-shuffled + PackBits `f32` bit patterns (width reduction).
const ENC_F64_AS_F32: u8 = 5;

fn corrupt(msg: impl Into<String>) -> PdcError {
    PdcError::Codec(msg.into())
}

// ---------------------------------------------------------------------------
// PackBits run-length coding
// ---------------------------------------------------------------------------

/// PackBits-encode `src`.
///
/// Control byte `c < 128`: the next `c + 1` bytes are literals.
/// Control byte `c > 128`: the next byte repeats `257 - c` times.
/// `c == 128` is never emitted. Worst-case expansion is 1/128.
pub fn packbits_encode(src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() / 4 + 8);
    let mut i = 0;
    let n = src.len();
    while i < n {
        // Measure the run starting at i.
        let b = src[i];
        let mut run = 1;
        while i + run < n && src[i + run] == b && run < 128 {
            run += 1;
        }
        if run >= 3 {
            out.push((257 - run) as u8);
            out.push(b);
            i += run;
            continue;
        }
        // Literal segment: scan forward until a run of >= 3 starts or we
        // hit the 128-literal packet limit.
        let lit_start = i;
        i += run;
        while i < n && (i - lit_start) < 128 {
            let b = src[i];
            let mut r = 1;
            while i + r < n && src[i + r] == b && r < 3 {
                r += 1;
            }
            if r >= 3 {
                break;
            }
            i += r;
        }
        let mut lit_len = i - lit_start;
        if lit_len > 128 {
            i -= lit_len - 128;
            lit_len = 128;
        }
        out.push((lit_len - 1) as u8);
        out.extend_from_slice(&src[lit_start..lit_start + lit_len]);
    }
    out
}

/// PackBits-decode `src` into exactly `expect` bytes.
pub fn packbits_decode(src: &[u8], expect: usize) -> PdcResult<Vec<u8>> {
    let mut out = Vec::new();
    packbits_decode_into(src, expect, &mut out)?;
    Ok(out)
}

/// The most bytes one PackBits packet moves: a literal copies at most 128
/// bytes, a run repeats one byte at most 128 times.
const WINDOW: usize = 128;

/// PackBits-decode `src` into `out`, which is `expect` bytes long on
/// success. `out`'s allocation is reused: only bytes beyond its current
/// length are zeroed, and every byte below `expect` is overwritten.
///
/// While a whole window of input follows the control byte and a whole
/// window of output remains, each packet copies (literal) or fills (run) a
/// fixed 128-byte window — a constant-size move the compiler emits as a few
/// vector stores — and advances by the packet's true length; the packets
/// that follow overwrite the window's excess, since the output is
/// contiguous. Such a packet can neither be truncated nor overrun
/// `expect`, so the fast loop checks only the reserved control byte. The
/// checked loop decodes the tail with the same checks, in the same order,
/// as a packet-at-a-time decoder, so a hostile stream gets the same error.
fn packbits_decode_into(src: &[u8], expect: usize, out: &mut Vec<u8>) -> PdcResult<()> {
    // A run packet turns two input bytes into at most 128 output bytes, so
    // after `i` input bytes at most `64 * i` bytes are out: a hostile
    // `expect` never sizes the buffer beyond what `src` can fill.
    out.resize(expect.min(src.len().saturating_mul(64)), 0);
    let buf = &mut out[..];
    let (mut i, mut o) = (0usize, 0usize);
    while i + WINDOW < src.len() && o + WINDOW <= buf.len() {
        let c = src[i];
        if c < 128 {
            buf[o..o + WINDOW].copy_from_slice(&src[i + 1..i + 1 + WINDOW]);
            i += c as usize + 2;
            o += c as usize + 1;
        } else if c > 128 {
            buf[o..o + WINDOW].fill(src[i + 1]);
            i += 2;
            o += 257 - c as usize;
        } else {
            return Err(corrupt("packbits: reserved control byte 128"));
        }
    }
    while i < src.len() {
        let c = src[i];
        i += 1;
        // Truncation is checked before overrun, as a decoder that appends
        // each packet and then compares its length would report it. The
        // bound on `o` above keeps every write below `buf.len()`.
        if c < 128 {
            let len = c as usize + 1;
            if i + len > src.len() {
                return Err(corrupt("packbits: truncated literal packet"));
            }
            if o + len > expect {
                return Err(overrun(expect));
            }
            buf[o..o + len].copy_from_slice(&src[i..i + len]);
            i += len;
            o += len;
        } else if c > 128 {
            if i >= src.len() {
                return Err(corrupt("packbits: truncated run packet"));
            }
            let count = 257 - c as usize;
            if o + count > expect {
                return Err(overrun(expect));
            }
            buf[o..o + count].fill(src[i]);
            i += 1;
            o += count;
        } else {
            return Err(corrupt("packbits: reserved control byte 128"));
        }
    }
    if o != expect {
        return Err(corrupt(format!("packbits: decoded {o} bytes, expected {expect}")));
    }
    Ok(())
}

fn overrun(expect: usize) -> PdcError {
    corrupt(format!("packbits: output overruns expected {expect} bytes"))
}

thread_local! {
    /// Each thread's PackBits output for [`decode_block`]: reused, so a
    /// block decode allocates only the decoded block itself.
    static PLANES: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// PackBits-decode `payload` (`expect` bytes of byte planes) into this
/// thread's plane buffer and hand the planes to `gather`.
fn with_planes<R>(payload: &[u8], expect: usize, gather: impl FnOnce(&[u8]) -> R) -> PdcResult<R> {
    PLANES.with_borrow_mut(|planes| {
        packbits_decode_into(payload, expect, planes)?;
        Ok(gather(planes))
    })
}

// ---------------------------------------------------------------------------
// Byte-plane shuffle
// ---------------------------------------------------------------------------

/// Transpose `src` (n elements of `width` bytes, little-endian) into
/// byte planes: all byte-0s, then all byte-1s, …
fn shuffle_bytes(src: &[u8], width: usize) -> Vec<u8> {
    debug_assert_eq!(src.len() % width, 0);
    let n = src.len() / width;
    let mut out = vec![0u8; src.len()];
    for plane in 0..width {
        for e in 0..n {
            out[plane * n + e] = src[e * width + plane];
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Bit-packing
// ---------------------------------------------------------------------------

/// Append `vals`, each truncated to `width` bits, LSB-first into `out`.
fn bitpack(vals: &[u64], width: u32, out: &mut Vec<u8>) {
    if width == 0 {
        return;
    }
    let mut acc: u64 = 0;
    let mut nbits: u32 = 0;
    for &v in vals {
        let v = if width == 64 { v } else { v & ((1u64 << width) - 1) };
        let mut rem = width;
        let mut cur = v;
        while rem > 0 {
            let take = (64 - nbits).min(rem);
            acc |= (cur & ones(take)) << nbits;
            nbits += take;
            cur = if take == 64 { 0 } else { cur >> take };
            rem -= take;
            if nbits == 64 {
                out.extend_from_slice(&acc.to_le_bytes());
                acc = 0;
                nbits = 0;
            }
        }
    }
    if nbits > 0 {
        let used = nbits.div_ceil(8) as usize;
        out.extend_from_slice(&acc.to_le_bytes()[..used]);
    }
}

#[inline]
fn ones(bits: u32) -> u64 {
    if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Read `count` values of `width` bits each, LSB-first, from `src`.
fn bitunpack(src: &[u8], width: u32, count: usize) -> PdcResult<Vec<u64>> {
    if width == 0 {
        return Ok(vec![0u64; count]);
    }
    let need_bits = (count as u64).saturating_mul(width as u64);
    let need_bytes = need_bits.div_ceil(8);
    if (src.len() as u64) < need_bytes {
        return Err(corrupt(format!(
            "bitpack: need {need_bytes} bytes for {count} x {width}-bit values, have {}",
            src.len()
        )));
    }
    let mut out = Vec::with_capacity(count);
    let mut bitpos: u64 = 0;
    for _ in 0..count {
        let mut v: u64 = 0;
        let mut got: u32 = 0;
        while got < width {
            let byte = src[(bitpos / 8) as usize] as u64;
            let off = (bitpos % 8) as u32;
            let avail = 8 - off;
            let take = avail.min(width - got);
            let bits = (byte >> off) & ones(take);
            v |= bits << got;
            got += take;
            bitpos += take as u64;
        }
        out.push(v);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Element <-> u64 bit mapping for frame-of-reference coding
// ---------------------------------------------------------------------------

/// Fixed-width element with an order-preserving (under wrapping
/// subtraction) mapping into the `u64` domain.
trait ForElem: Copy {
    fn to_bits64(self) -> u64;
    fn from_bits64(v: u64) -> Self;
}

impl ForElem for i32 {
    // Sign-extend so that for a >= b, to_bits64(a).wrapping_sub(to_bits64(b))
    // is the exact non-negative difference.
    fn to_bits64(self) -> u64 {
        self as i64 as u64
    }
    fn from_bits64(v: u64) -> Self {
        v as u32 as i32
    }
}
impl ForElem for u32 {
    fn to_bits64(self) -> u64 {
        self as u64
    }
    fn from_bits64(v: u64) -> Self {
        v as u32
    }
}
impl ForElem for i64 {
    fn to_bits64(self) -> u64 {
        self as u64
    }
    fn from_bits64(v: u64) -> Self {
        v as i64
    }
}
impl ForElem for u64 {
    fn to_bits64(self) -> u64 {
        self
    }
    fn from_bits64(v: u64) -> Self {
        v
    }
}

/// Frame-of-reference pack: `[min: 8B][width: 1B][packed offsets]`.
fn for_pack_bits(bits: &[u64]) -> Vec<u8> {
    let min = bits.iter().copied().min().unwrap_or(0);
    let offsets: Vec<u64> = bits.iter().map(|&b| b.wrapping_sub(min)).collect();
    let max_off = offsets.iter().copied().max().unwrap_or(0);
    let width = 64 - max_off.leading_zeros();
    let mut out = Vec::with_capacity(9 + (bits.len() * width as usize).div_ceil(8));
    out.extend_from_slice(&min.to_le_bytes());
    out.push(width as u8);
    bitpack(&offsets, width, &mut out);
    out
}

fn for_unpack_bits(src: &[u8], count: usize) -> PdcResult<Vec<u64>> {
    if src.len() < 9 {
        return Err(corrupt("for-pack: truncated header"));
    }
    let min = u64::from_le_bytes(src[..8].try_into().unwrap());
    let width = src[8] as u32;
    if width > 64 {
        return Err(corrupt(format!("for-pack: invalid bit width {width}")));
    }
    let offs = bitunpack(&src[9..], width, count)?;
    Ok(offs.into_iter().map(|o| min.wrapping_add(o)).collect())
}

/// Delta + frame-of-reference: `[first: 8B][for-packed deltas]`.
fn delta_for_pack_bits(bits: &[u64]) -> Vec<u8> {
    let first = bits.first().copied().unwrap_or(0);
    let deltas: Vec<u64> = bits
        .windows(2)
        .map(|w| w[1].wrapping_sub(w[0]))
        .collect();
    let mut out = Vec::with_capacity(8 + 9 + deltas.len());
    out.extend_from_slice(&first.to_le_bytes());
    out.extend_from_slice(&for_pack_bits(&deltas));
    out
}

fn delta_for_unpack_bits(src: &[u8], count: usize) -> PdcResult<Vec<u64>> {
    if count == 0 {
        return Ok(Vec::new());
    }
    if src.len() < 8 {
        return Err(corrupt("delta-for-pack: truncated header"));
    }
    let first = u64::from_le_bytes(src[..8].try_into().unwrap());
    let deltas = for_unpack_bits(&src[8..], count - 1)?;
    let mut out = Vec::with_capacity(count);
    let mut cur = first;
    out.push(cur);
    for d in deltas {
        cur = cur.wrapping_add(d);
        out.push(cur);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Little-endian element bytes
// ---------------------------------------------------------------------------

macro_rules! le_bytes_of {
    ($xs:expr, $w:expr) => {{
        let mut out = Vec::with_capacity($xs.len() * $w);
        for v in $xs {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }};
}

/// The little-endian byte image of `tv[start..start+len]`.
pub fn le_bytes(tv: &TypedVec, start: usize, len: usize) -> Vec<u8> {
    match tv {
        TypedVec::Float(xs) => le_bytes_of!(&xs[start..start + len], 4),
        TypedVec::Double(xs) => le_bytes_of!(&xs[start..start + len], 8),
        TypedVec::Int32(xs) => le_bytes_of!(&xs[start..start + len], 4),
        TypedVec::UInt32(xs) => le_bytes_of!(&xs[start..start + len], 4),
        TypedVec::Int64(xs) => le_bytes_of!(&xs[start..start + len], 8),
        TypedVec::UInt64(xs) => le_bytes_of!(&xs[start..start + len], 8),
    }
}

/// Split `bytes` into `W` byte planes of `n` bytes each.
fn planes<const W: usize>(bytes: &[u8], n: usize) -> [&[u8]; W] {
    std::array::from_fn(|i| &bytes[i * n..(i + 1) * n])
}

/// Element-major gather of four byte planes: element `e` is
/// `make([p0[e], p1[e], p2[e], p3[e]])`. Zipped slice iterators carry no
/// bounds checks and collect into an exactly-sized `Vec`, so the loop
/// vectorises.
fn gather4<T>(bytes: &[u8], n: usize, make: impl Fn([u8; 4]) -> T) -> Vec<T> {
    let [p0, p1, p2, p3] = planes::<4>(bytes, n);
    p0.iter()
        .zip(p1)
        .zip(p2)
        .zip(p3)
        .map(|(((&a, &b), &c), &d)| make([a, b, c, d]))
        .collect()
}

/// [`gather4`] for eight planes.
fn gather8<T>(bytes: &[u8], n: usize, make: impl Fn([u8; 8]) -> T) -> Vec<T> {
    let [p0, p1, p2, p3, p4, p5, p6, p7] = planes::<8>(bytes, n);
    let lo = p0.iter().zip(p1).zip(p2).zip(p3);
    let hi = p4.iter().zip(p5).zip(p6).zip(p7);
    lo.zip(hi)
        .map(|((((&a, &b), &c), &d), (((&e, &f), &g), &h))| make([a, b, c, d, e, f, g, h]))
        .collect()
}

/// Undo the byte-plane shuffle of `planes` (`elems` elements of `ty`)
/// straight into the typed output.
fn typed_from_planes(ty: PdcType, planes: &[u8], elems: usize) -> TypedVec {
    match ty {
        PdcType::Float => TypedVec::Float(gather4(planes, elems, f32::from_le_bytes)),
        PdcType::Double => TypedVec::Double(gather8(planes, elems, f64::from_le_bytes)),
        PdcType::Int32 => TypedVec::Int32(gather4(planes, elems, i32::from_le_bytes)),
        PdcType::UInt32 => TypedVec::UInt32(gather4(planes, elems, u32::from_le_bytes)),
        PdcType::Int64 => TypedVec::Int64(gather8(planes, elems, i64::from_le_bytes)),
        PdcType::UInt64 => TypedVec::UInt64(gather8(planes, elems, u64::from_le_bytes)),
    }
}

/// `bytes` (a whole number of elements) as little-endian elements.
fn typed_from_le(ty: PdcType, bytes: &[u8]) -> TypedVec {
    macro_rules! elems {
        ($t:ty) => {
            bytes
                .chunks_exact(std::mem::size_of::<$t>())
                .map(|c| <$t>::from_le_bytes(c.try_into().expect("exact chunk")))
                .collect()
        };
    }
    match ty {
        PdcType::Float => TypedVec::Float(elems!(f32)),
        PdcType::Double => TypedVec::Double(elems!(f64)),
        PdcType::Int32 => TypedVec::Int32(elems!(i32)),
        PdcType::UInt32 => TypedVec::UInt32(elems!(u32)),
        PdcType::Int64 => TypedVec::Int64(elems!(i64)),
        PdcType::UInt64 => TypedVec::UInt64(elems!(u64)),
    }
}

fn int_bits64(tv: &TypedVec, start: usize, len: usize) -> Option<Vec<u64>> {
    Some(match tv {
        TypedVec::Int32(xs) => xs[start..start + len].iter().map(|v| v.to_bits64()).collect(),
        TypedVec::UInt32(xs) => xs[start..start + len].iter().map(|v| v.to_bits64()).collect(),
        TypedVec::Int64(xs) => xs[start..start + len].iter().map(|v| v.to_bits64()).collect(),
        TypedVec::UInt64(xs) => xs[start..start + len].iter().map(|v| v.to_bits64()).collect(),
        TypedVec::Float(_) | TypedVec::Double(_) => return None,
    })
}

fn typed_from_bits64(ty: PdcType, bits: Vec<u64>) -> PdcResult<TypedVec> {
    Ok(match ty {
        PdcType::Int32 => TypedVec::Int32(bits.into_iter().map(i32::from_bits64).collect()),
        PdcType::UInt32 => TypedVec::UInt32(bits.into_iter().map(u32::from_bits64).collect()),
        PdcType::Int64 => TypedVec::Int64(bits.into_iter().map(i64::from_bits64).collect()),
        PdcType::UInt64 => TypedVec::UInt64(bits.into_iter().map(u64::from_bits64).collect()),
        PdcType::Float | PdcType::Double => {
            return Err(corrupt("decode: integer encoding tag on float payload"))
        }
    })
}

// ---------------------------------------------------------------------------
// Public block encode/decode
// ---------------------------------------------------------------------------

/// Encode `tv[start..start+len]` with the smallest applicable encoding.
///
/// Returns `(encoding_tag, payload)`. Floats try Raw vs Shuffle; integers
/// additionally try ForPack and DeltaForPack.
pub fn encode_block(tv: &TypedVec, start: usize, len: usize) -> (u8, Vec<u8>) {
    let raw = le_bytes(tv, start, len);
    let width = tv.pdc_type().size_bytes() as usize;
    let mut best = (ENC_RAW, raw.clone());
    let shuffled = packbits_encode(&shuffle_bytes(&raw, width));
    if shuffled.len() < best.1.len() {
        best = (ENC_SHUFFLE, shuffled);
    }
    if let Some(bits) = int_bits64(tv, start, len) {
        let fp = for_pack_bits(&bits);
        if fp.len() < best.1.len() {
            best = (ENC_FOR_PACK, fp);
        }
        let dfp = delta_for_pack_bits(&bits);
        if dfp.len() < best.1.len() {
            best = (ENC_DELTA_FOR_PACK, dfp);
        }
    }
    // Width reduction: doubles that came from f32 sources (the VPIC
    // generator emits f32; widening leaves the low 29 mantissa bits zero)
    // are stored as their exact f32 bit patterns when that is lossless
    // for every element of the block — checked bitwise, so NaN payloads
    // that a narrowing cast would disturb fall back to the codecs above.
    if let TypedVec::Double(xs) = tv {
        let xs = &xs[start..start + len];
        if xs
            .iter()
            .all(|&v| (v as f32 as f64).to_bits() == v.to_bits())
        {
            let narrow: Vec<u8> = xs
                .iter()
                .flat_map(|&v| (v as f32).to_le_bytes())
                .collect();
            let packed = packbits_encode(&shuffle_bytes(&narrow, 4));
            if packed.len() < best.1.len() {
                best = (ENC_F64_AS_F32, packed);
            }
        }
    }
    best
}

/// Decode one typed block of `elems` elements.
pub fn decode_block(ty: PdcType, encoding: u8, elems: usize, payload: &[u8]) -> PdcResult<TypedVec> {
    let width = ty.size_bytes() as usize;
    let raw_len = elems
        .checked_mul(width)
        .ok_or_else(|| corrupt("decode: element count overflows byte length"))?;
    match encoding {
        ENC_RAW => {
            if payload.len() != raw_len {
                return Err(corrupt(format!(
                    "decode: raw block has {} bytes, expected {raw_len}",
                    payload.len()
                )));
            }
            Ok(typed_from_le(ty, payload))
        }
        ENC_SHUFFLE => with_planes(payload, raw_len, |planes| typed_from_planes(ty, planes, elems)),
        ENC_FOR_PACK => typed_from_bits64(ty, for_unpack_bits(payload, elems)?),
        ENC_DELTA_FOR_PACK => typed_from_bits64(ty, delta_for_unpack_bits(payload, elems)?),
        ENC_F64_AS_F32 => {
            if ty != PdcType::Double {
                return Err(corrupt("decode: f64-as-f32 tag on non-double payload"));
            }
            // `elems * 4 <= raw_len`, which was overflow-checked above.
            with_planes(payload, elems * 4, |narrow| {
                TypedVec::Double(gather4(narrow, elems, |b| f32::from_le_bytes(b) as f64))
            })
        }
        other => Err(corrupt(format!("decode: unknown encoding tag {other}"))),
    }
}

/// Encode a raw-byte block (index payloads): Raw vs PackBits, smaller wins.
pub fn encode_raw_block(bytes: &[u8]) -> (u8, Vec<u8>) {
    let rle = packbits_encode(bytes);
    if rle.len() < bytes.len() {
        (ENC_RLE_BYTES, rle)
    } else {
        (ENC_RAW, bytes.to_vec())
    }
}

/// Decode a raw-byte block of `raw_len` bytes.
pub fn decode_raw_block(encoding: u8, raw_len: usize, payload: &[u8]) -> PdcResult<Vec<u8>> {
    match encoding {
        ENC_RAW => {
            if payload.len() != raw_len {
                return Err(corrupt(format!(
                    "decode: raw byte block has {} bytes, expected {raw_len}",
                    payload.len()
                )));
            }
            Ok(payload.to_vec())
        }
        ENC_RLE_BYTES => packbits_decode(payload, raw_len),
        other => Err(corrupt(format!(
            "decode: unknown raw-byte encoding tag {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Inverse of [`shuffle_bytes`], as a pass of its own.
    fn unshuffle_bytes(src: &[u8], width: usize) -> Vec<u8> {
        let n = src.len() / width;
        let mut out = vec![0u8; src.len()];
        for plane in 0..width {
            for e in 0..n {
                out[e * width + plane] = src[plane * n + e];
            }
        }
        out
    }

    /// Element-by-element decode of a little-endian byte image.
    fn typed_from_le_oracle(ty: PdcType, bytes: &[u8]) -> TypedVec {
        let mut out = TypedVec::with_capacity(ty, bytes.len() / ty.size_bytes() as usize);
        for chunk in bytes.chunks_exact(ty.size_bytes() as usize) {
            match &mut out {
                TypedVec::Float(xs) => xs.push(f32::from_le_bytes(chunk.try_into().unwrap())),
                TypedVec::Double(xs) => xs.push(f64::from_le_bytes(chunk.try_into().unwrap())),
                TypedVec::Int32(xs) => xs.push(i32::from_le_bytes(chunk.try_into().unwrap())),
                TypedVec::UInt32(xs) => xs.push(u32::from_le_bytes(chunk.try_into().unwrap())),
                TypedVec::Int64(xs) => xs.push(i64::from_le_bytes(chunk.try_into().unwrap())),
                TypedVec::UInt64(xs) => xs.push(u64::from_le_bytes(chunk.try_into().unwrap())),
            }
        }
        out
    }

    /// The three-pass decoder the read path used before the single-pass
    /// gather (PackBits -> unshuffle -> element pushes), kept as the
    /// reference `decode_block` is checked against.
    fn decode_block_oracle(
        ty: PdcType,
        encoding: u8,
        elems: usize,
        payload: &[u8],
    ) -> PdcResult<TypedVec> {
        let width = ty.size_bytes() as usize;
        let raw_len = elems
            .checked_mul(width)
            .ok_or_else(|| corrupt("decode: element count overflows byte length"))?;
        match encoding {
            ENC_RAW if payload.len() != raw_len => Err(corrupt("decode: raw block length")),
            ENC_RAW => Ok(typed_from_le_oracle(ty, payload)),
            ENC_SHUFFLE => {
                let shuffled = packbits_decode(payload, raw_len)?;
                Ok(typed_from_le_oracle(ty, &unshuffle_bytes(&shuffled, width)))
            }
            ENC_FOR_PACK => typed_from_bits64(ty, for_unpack_bits(payload, elems)?),
            ENC_DELTA_FOR_PACK => typed_from_bits64(ty, delta_for_unpack_bits(payload, elems)?),
            ENC_F64_AS_F32 if ty != PdcType::Double => Err(corrupt("decode: f64-as-f32 tag")),
            ENC_F64_AS_F32 => {
                let bytes = unshuffle_bytes(&packbits_decode(payload, elems * 4)?, 4);
                let mut xs = Vec::with_capacity(elems);
                for chunk in bytes.chunks_exact(4) {
                    xs.push(f32::from_le_bytes(chunk.try_into().unwrap()) as f64);
                }
                Ok(TypedVec::Double(xs))
            }
            other => Err(corrupt(format!("decode: unknown encoding tag {other}"))),
        }
    }

    /// Every encoding applicable to `tv`, forced (the public encoder only
    /// keeps the smallest).
    fn all_encodings(tv: &TypedVec) -> Vec<(u8, Vec<u8>)> {
        let raw = le_bytes(tv, 0, tv.len());
        let width = tv.pdc_type().size_bytes() as usize;
        let mut out =
            vec![(ENC_RAW, raw.clone()), (ENC_SHUFFLE, packbits_encode(&shuffle_bytes(&raw, width)))];
        if let Some(bits) = int_bits64(tv, 0, tv.len()) {
            out.push((ENC_FOR_PACK, for_pack_bits(&bits)));
            out.push((ENC_DELTA_FOR_PACK, delta_for_pack_bits(&bits)));
        }
        if let TypedVec::Double(xs) = tv {
            // Lossy for arbitrary doubles — irrelevant here: both decoders
            // must widen the same f32 bit patterns the same way.
            let narrow: Vec<u8> = xs.iter().flat_map(|&v| (v as f32).to_le_bytes()).collect();
            out.push((ENC_F64_AS_F32, packbits_encode(&shuffle_bytes(&narrow, 4))));
        }
        out
    }

    /// `decode_block` and the oracle agree bit-for-bit on `payload`, or
    /// both refuse it with the codec error class.
    fn assert_decoders_agree(ty: PdcType, enc: u8, elems: usize, payload: &[u8]) {
        match (decode_block(ty, enc, elems, payload), decode_block_oracle(ty, enc, elems, payload)) {
            (Ok(new), Ok(old)) => {
                assert_eq!(new.pdc_type(), old.pdc_type(), "encoding {enc}");
                assert_eq!(new.len(), elems, "encoding {enc}");
                assert_eq!(
                    le_bytes(&new, 0, new.len()),
                    le_bytes(&old, 0, old.len()),
                    "{ty:?} encoding {enc}, {elems} elements"
                );
            }
            (Err(PdcError::Codec(_)), Err(PdcError::Codec(_))) => {}
            (new, old) => panic!(
                "{ty:?} encoding {enc}, {elems} elements: decode_block {:?} vs oracle {:?}",
                new.map(|v| v.len()),
                old.map(|v| v.len())
            ),
        }
    }

    /// All six element types built from one pool of bit patterns.
    fn typed_variants(bits: &[u64]) -> [TypedVec; 6] {
        [
            TypedVec::Float(bits.iter().map(|&b| f32::from_bits(b as u32)).collect()),
            TypedVec::Double(bits.iter().map(|&b| f64::from_bits(b)).collect()),
            TypedVec::Int32(bits.iter().map(|&b| b as i32).collect()),
            TypedVec::UInt32(bits.iter().map(|&b| b as u32).collect()),
            TypedVec::Int64(bits.iter().map(|&b| b as i64).collect()),
            TypedVec::UInt64(bits.to_vec()),
        ]
    }

    fn check_against_oracle(bits: &[u64]) {
        for tv in typed_variants(bits) {
            let ty = tv.pdc_type();
            for (enc, payload) in all_encodings(&tv) {
                assert_decoders_agree(ty, enc, tv.len(), &payload);
                // Damage: one byte short, one byte long, the reserved
                // PackBits control byte up front, and a wrong element
                // count either way. Same verdict from both decoders.
                assert_decoders_agree(ty, enc, tv.len(), &payload[..payload.len().saturating_sub(1)]);
                assert_decoders_agree(ty, enc, tv.len(), &[&payload[..], &[0x7f]].concat());
                assert_decoders_agree(ty, enc, tv.len(), &[&[128u8][..], &payload[..]].concat());
                assert_decoders_agree(ty, enc, tv.len() + 1, &payload);
                assert_decoders_agree(ty, enc, tv.len().saturating_sub(1), &payload);
            }
        }
    }

    /// Bit patterns that reach NaN payloads, infinities, signed zeros and
    /// denormals in both float widths, next to arbitrary and run-heavy
    /// values.
    fn special_bits() -> impl Strategy<Value = u64> {
        prop_oneof![
            any::<u64>(),
            Just(0u64),
            Just(0x8000_0000_8000_0000u64),        // -0.0 as f64 and as f32
            Just(0x7ff8_0000_dead_beefu64),        // f64 NaN with payload
            Just(0x7ff0_0000_7fc0_1234u64),        // f64 inf; f32 NaN with payload
            Just(0x0000_0000_0000_0001u64),        // smallest denormal, both widths
            Just(0xfff0_0000_ff80_0000u64),        // -inf, both widths
            Just((1.5f32 as f64).to_bits()),       // exactly f32-representable
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn single_pass_decode_equals_three_pass_oracle(
            bits in prop::collection::vec(special_bits(), 0..400),
        ) {
            check_against_oracle(&bits);
        }
    }

    #[test]
    fn single_pass_decode_equals_oracle_at_every_short_length() {
        // Every length through three stripes of the widest gather, so
        // vector bodies and scalar remainders are both exercised.
        let pool: Vec<u64> = (0..200u64)
            .map(|i| match i % 5 {
                0 => 0x7ff8_0000_dead_beef ^ i,
                1 => (i as f32 as f64).to_bits(),
                2 => 0x8000_0000_8000_0000,
                3 => i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                _ => 1,
            })
            .collect();
        for len in 0..=pool.len() {
            check_against_oracle(&pool[..len]);
        }
    }

    fn roundtrip(tv: &TypedVec) {
        let (enc, payload) = encode_block(tv, 0, tv.len());
        let back = decode_block(tv.pdc_type(), enc, tv.len(), &payload).unwrap();
        // Compare byte images, not values: NaN != NaN under PartialEq but
        // the decode contract is bit-exactness.
        assert_eq!(back.pdc_type(), tv.pdc_type(), "encoding {enc}");
        assert_eq!(
            le_bytes(&back, 0, back.len()),
            le_bytes(tv, 0, tv.len()),
            "encoding {enc}"
        );
    }

    #[test]
    fn packbits_roundtrip_edge_cases() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![7],
            vec![0; 1000],
            vec![1, 2, 3, 4, 5],
            (0..=255).collect(),
            [vec![9; 200], (0..100).collect(), vec![0; 5]].concat(),
        ];
        for case in cases {
            let enc = packbits_encode(&case);
            let dec = packbits_decode(&enc, case.len()).unwrap();
            assert_eq!(dec, case);
        }
    }

    #[test]
    fn packbits_compresses_runs() {
        // Run packets cap at 128 repeats, so an all-zero buffer costs
        // exactly 2 bytes per 128 — a 64:1 floor.
        let zeros = vec![0u8; 65536];
        let enc = packbits_encode(&zeros);
        assert_eq!(enc.len(), 65536 / 128 * 2, "got {} bytes", enc.len());
    }

    #[test]
    fn typed_roundtrip_all_variants() {
        roundtrip(&TypedVec::Float(vec![1.5, -2.0, f32::NAN, f32::INFINITY, 0.0, -0.0]));
        roundtrip(&TypedVec::Double(vec![
            1.5,
            -2.0,
            f64::NAN,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -0.0,
        ]));
        roundtrip(&TypedVec::Int32(vec![i32::MIN, -1, 0, 1, i32::MAX]));
        roundtrip(&TypedVec::UInt32(vec![0, 1, u32::MAX]));
        roundtrip(&TypedVec::Int64(vec![i64::MIN, -1, 0, 1, i64::MAX]));
        roundtrip(&TypedVec::UInt64(vec![0, 1, u64::MAX]));
    }

    #[test]
    fn nan_bit_patterns_survive() {
        // Two distinct NaN bit patterns must round-trip bit-exactly.
        let a = f64::from_bits(0x7ff8_0000_0000_0001);
        let b = f64::from_bits(0x7ff8_dead_beef_0001);
        let tv = TypedVec::Double(vec![a, b, f64::NAN]);
        let (enc, payload) = encode_block(&tv, 0, 3);
        let back = decode_block(PdcType::Double, enc, 3, &payload).unwrap();
        if let TypedVec::Double(xs) = back {
            assert_eq!(xs[0].to_bits(), a.to_bits());
            assert_eq!(xs[1].to_bits(), b.to_bits());
            assert_eq!(xs[2].to_bits(), f64::NAN.to_bits());
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn monotone_ints_pick_delta_encoding() {
        let tv = TypedVec::UInt64((0..4096u64).map(|i| 1_000_000 + i * 3).collect());
        let (enc, payload) = encode_block(&tv, 0, 4096);
        assert_eq!(enc, ENC_DELTA_FOR_PACK);
        assert!(payload.len() * 8 < 4096 * 8, "payload {} bytes", payload.len());
        roundtrip(&tv);
    }

    #[test]
    fn narrow_range_ints_pick_for_pack() {
        let tv = TypedVec::Int32((0..4096).map(|i| 50_000 + (i * 37) % 256).collect());
        let (enc, payload) = encode_block(&tv, 0, 4096);
        assert_eq!(enc, ENC_FOR_PACK);
        assert!(payload.len() < 4096 * 2, "payload {} bytes", payload.len());
        roundtrip(&tv);
    }

    #[test]
    fn widened_floats_compress_2x() {
        // f32 data widened to f64 (the VPIC generator path): every element
        // is exactly f32-representable, so width reduction applies and the
        // block must beat 2x. Positive energy-like values keep the f32
        // sign/exponent plane run-heavy, as the VPIC energy variable does.
        let xs: Vec<f64> =
            (0..8192).map(|i| (0.05 + (i as f32 / 100.0).sin().abs()) as f64).collect();
        let tv = TypedVec::Double(xs);
        let (enc, payload) = encode_block(&tv, 0, 8192);
        assert_eq!(enc, ENC_F64_AS_F32);
        assert!(
            payload.len() * 2 <= 8192 * 8,
            "only {}x",
            (8192.0 * 8.0) / payload.len() as f64
        );
        roundtrip(&tv);
    }

    #[test]
    fn nan_payload_doubles_never_width_reduce() {
        // A quiet-NaN payload that a narrowing cast would destroy must
        // force the bitwise fallback path.
        let odd_nan = f64::from_bits(0x7ff0_0000_0000_0001);
        let mut xs: Vec<f64> = (0..512).map(|i| (i as f32) as f64).collect();
        xs[300] = odd_nan;
        let tv = TypedVec::Double(xs);
        let (enc, payload) = encode_block(&tv, 0, 512);
        assert_ne!(enc, ENC_F64_AS_F32);
        let back = decode_block(PdcType::Double, enc, 512, &payload).unwrap();
        if let TypedVec::Double(ys) = back {
            assert_eq!(ys[300].to_bits(), odd_nan.to_bits());
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn sub_range_encoding_matches_slice() {
        let tv = TypedVec::Double((0..100).map(|i| i as f64 * 0.5).collect());
        let (enc_a, pay_a) = encode_block(&tv, 10, 20);
        let sliced = tv.slice(10, 20);
        let (enc_b, pay_b) = encode_block(&sliced, 0, 20);
        assert_eq!((enc_a, pay_a), (enc_b, pay_b));
    }

    #[test]
    fn raw_block_roundtrip() {
        let bytes: Vec<u8> = [vec![0u8; 500], (0..50).collect(), vec![255; 300]].concat();
        let (enc, payload) = encode_raw_block(&bytes);
        assert_eq!(enc, ENC_RLE_BYTES);
        assert!(payload.len() < bytes.len());
        assert_eq!(decode_raw_block(enc, bytes.len(), &payload).unwrap(), bytes);

        let incompressible: Vec<u8> = (0..97u32).map(|i| (i * 131 % 251) as u8).collect();
        let (enc, payload) = encode_raw_block(&incompressible);
        assert_eq!(enc, ENC_RAW);
        assert_eq!(
            decode_raw_block(enc, incompressible.len(), &payload).unwrap(),
            incompressible
        );
    }

    #[test]
    fn hostile_payloads_yield_typed_errors() {
        // Truncated packbits literal.
        assert!(packbits_decode(&[10, 1, 2], 11).is_err());
        // Truncated run packet.
        assert!(packbits_decode(&[200], 10).is_err());
        // Reserved control byte.
        assert!(packbits_decode(&[128, 0], 1).is_err());
        // Output overrun.
        assert!(packbits_decode(&[200, 7], 3).is_err());
        // Bad bit width.
        assert!(for_unpack_bits(&[0, 0, 0, 0, 0, 0, 0, 0, 65], 4).is_err());
        // Unknown encoding tag.
        assert!(decode_block(PdcType::Double, 99, 4, &[0; 32]).is_err());
        // Wrong raw length.
        assert!(decode_block(PdcType::Double, ENC_RAW, 4, &[0; 31]).is_err());
        // Float payload with integer tag.
        assert!(decode_block(PdcType::Double, ENC_FOR_PACK, 1, &[0; 9]).is_err());
        // Empty for-pack header.
        assert!(for_unpack_bits(&[1, 2], 1).is_err());
    }

    /// The packet-at-a-time decoder the window fast path replaced (append
    /// each packet, then compare the length), kept as the reference
    /// `packbits_decode` is checked against, error messages included.
    fn packbits_decode_oracle(src: &[u8], expect: usize) -> PdcResult<Vec<u8>> {
        let mut out = Vec::with_capacity(expect);
        let mut i = 0;
        while i < src.len() {
            let c = src[i];
            i += 1;
            if c < 128 {
                let end = i + c as usize + 1;
                if end > src.len() {
                    return Err(corrupt("packbits: truncated literal packet"));
                }
                out.extend_from_slice(&src[i..end]);
                i = end;
            } else if c > 128 {
                if i >= src.len() {
                    return Err(corrupt("packbits: truncated run packet"));
                }
                out.extend(std::iter::repeat_n(src[i], 257 - c as usize));
                i += 1;
            } else {
                return Err(corrupt("packbits: reserved control byte 128"));
            }
            if out.len() > expect {
                return Err(corrupt(format!("packbits: output overruns expected {expect} bytes")));
            }
        }
        if out.len() != expect {
            return Err(corrupt(format!("packbits: decoded {} bytes, expected {expect}", out.len())));
        }
        Ok(out)
    }

    /// A literal packet carrying `bytes` (1..=128 of them).
    fn literal(bytes: &[u8]) -> Vec<u8> {
        assert!((1..=WINDOW).contains(&bytes.len()));
        [&[bytes.len() as u8 - 1][..], bytes].concat()
    }

    /// A run packet repeating `b` `count` (2..=128) times.
    fn run(b: u8, count: usize) -> Vec<u8> {
        assert!((2..=WINDOW).contains(&count));
        vec![(257 - count) as u8, b]
    }

    fn distinct(len: usize, salt: u8) -> Vec<u8> {
        (0..len).map(|k| (k as u8).wrapping_mul(31).wrapping_add(salt)).collect()
    }

    /// `packbits_decode`, and the fast path over a reused buffer holding
    /// stale bytes, agree with the oracle: the same bytes or the same error.
    fn assert_packbits_agree(src: &[u8], expect: usize) {
        let want = format!("{:?}", packbits_decode_oracle(src, expect));
        let ctx = format!("{} input bytes, expect {expect}", src.len());
        assert_eq!(format!("{:?}", packbits_decode(src, expect)), want, "{ctx}");
        for stale in [0, expect / 2, expect + 300] {
            let mut buf = vec![0xa5u8; stale];
            let got = packbits_decode_into(src, expect, &mut buf).map(|()| buf);
            assert_eq!(format!("{got:?}"), want, "{ctx}, {stale} stale bytes");
        }
    }

    /// The bytes the packets of `stream` decode to, counting a cut-short
    /// last packet as whole.
    fn decoded_len(stream: &[u8]) -> usize {
        let (mut i, mut n) = (0, 0);
        while i < stream.len() {
            let c = stream[i] as usize;
            (i, n) = if c < 128 { (i + c + 2, n + c + 1) } else { (i + 2, n + 257 - c) };
        }
        n
    }

    /// `stream` checked at `expect` one below, at and one above its
    /// decoded length, whole and cut one byte short.
    fn assert_stream_agrees(stream: &[u8]) {
        let len = decoded_len(stream);
        for expect in [len.saturating_sub(1), len, len + 1] {
            assert_packbits_agree(stream, expect);
            assert_packbits_agree(&stream[..stream.len() - 1], expect);
        }
    }

    #[test]
    fn packbits_window_edges_match_the_oracle() {
        // A filler of literal packets moves the last packet's start across
        // the point where a whole window of input no longer follows it, and
        // the decoded length across the point where a whole window of
        // output no longer remains.
        let lasts = [literal(&distinct(128, 3)), literal(&[9]), run(7, 128), run(7, 2)];
        for filler in 0..=262usize {
            let mut head = Vec::new();
            for (k, chunk) in distinct(filler, 11).chunks(WINDOW).enumerate() {
                head.extend(if k % 2 == 0 { literal(chunk) } else { run(chunk[0], chunk.len().max(2)) });
            }
            for last in &lasts {
                assert_stream_agrees(&[&head[..], last].concat());
            }
        }
        // One 128-byte literal: the packet ends exactly at the window limit
        // (129 input bytes), one byte short of it, and one byte past it.
        let lit = literal(&distinct(128, 5));
        for stream in [&lit[..128], &lit[..], &[&lit[..], &[4]].concat()[..]] {
            for expect in [0, 1, 127, 128, 129, 256] {
                assert_packbits_agree(stream, expect);
            }
        }
        // 128-byte literals and 128-byte runs back to back, at `expect`
        // below 128, exactly 128 and the full length.
        let mixed: Vec<u8> = (0..6u8)
            .flat_map(|k| if k % 2 == 0 { literal(&distinct(128, k)) } else { run(k, 128) })
            .collect();
        for expect in [5, 127, 128, 129, 6 * 128 - 1, 6 * 128, 6 * 128 + 1] {
            assert_packbits_agree(&mixed, expect);
        }
    }

    #[test]
    fn hostile_packbits_streams_fail_as_before() {
        let body: Vec<u8> = (0..4u8).flat_map(|k| literal(&distinct(128, k))).collect();
        let cases: Vec<(Vec<u8>, usize)> = vec![
            // The reserved control byte 128 deep inside the fast region.
            ([&literal(&[1, 2, 3])[..], &[128], &body[..]].concat(), 4 * 128 + 3),
            ([&body[..129], &[128], &body[129..]].concat(), 4 * 128),
            // A literal cut short, inside a long stream and alone.
            (body[..body.len() - 1].to_vec(), 4 * 128),
            (literal(&distinct(100, 1))[..60].to_vec(), 100),
            // A run packet with no byte to repeat.
            ([&body[..], &[200]].concat(), 4 * 128 + 57),
            // Output past `expect`, decided in the fast region's tail.
            ([&body[..], &run(1, 128)[..]].concat(), 4 * 128 + 127),
            (body.clone(), 4 * 128 - 1),
            // Output short of `expect`.
            (body.clone(), 4 * 128 + 1),
            (run(0, 128), 129),
        ];
        for (stream, expect) in cases {
            assert!(matches!(packbits_decode(&stream, expect), Err(PdcError::Codec(_))));
            assert_packbits_agree(&stream, expect);
        }
        // A hostile `expect` is never allocated: the buffer is bounded by
        // what the stream can decode to.
        let mut buf = Vec::new();
        let err = packbits_decode_into(&run(7, 128), 1 << 40, &mut buf).unwrap_err();
        assert_eq!(err.to_string(), corrupt(format!("packbits: decoded 128 bytes, expected {}", 1u64 << 40)).to_string());
        assert!(buf.capacity() < 1 << 20, "{} bytes reserved", buf.capacity());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn packbits_fast_path_equals_oracle_on_random_streams(
            packets in prop::collection::vec((any::<bool>(), 1usize..129, any::<u8>()), 0..12),
            cut in 0usize..3,
            slack in 0usize..3,
        ) {
            let stream: Vec<u8> = packets
                .iter()
                .flat_map(|&(lit, n, b)| if lit { literal(&distinct(n, b)) } else { run(b, n.max(2)) })
                .collect();
            let stream = &stream[..stream.len().saturating_sub(cut)];
            let full = decoded_len(stream);
            for expect in [full.saturating_sub(slack), full + slack] {
                assert_packbits_agree(stream, expect);
            }
        }
    }

    #[test]
    fn empty_blocks_roundtrip() {
        roundtrip(&TypedVec::Double(vec![]));
        roundtrip(&TypedVec::Int64(vec![]));
        let (enc, payload) = encode_raw_block(&[]);
        assert_eq!(decode_raw_block(enc, 0, &payload).unwrap(), Vec::<u8>::new());
    }
}
