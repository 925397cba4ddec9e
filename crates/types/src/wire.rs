//! What the workspace's binary formats share: the one bounds-checked
//! little-endian reader behind the bitmap index file, the metadata
//! snapshot frame and the spill block file; the one [`PdcType`] tag table
//! they store; and [`Bytes`], the shared buffer an encoded image travels
//! in.
//!
//! Writers need no helper: each format appends `v.to_le_bytes()` to a
//! `Vec<u8>`. A [`ByteReader`] checks the remaining length before every
//! read and reports a short or malformed input through the error variant
//! its format names, so hostile bytes yield a typed error, never a panic.

use crate::error::{PdcError, PdcResult};
use crate::value::PdcType;
use std::sync::Arc;

/// An immutable, cheaply cloneable byte buffer (an encoded index region,
/// a snapshot frame); it dereferences to `[u8]`.
pub type Bytes = Arc<[u8]>;

impl PdcType {
    /// The tag a binary format stores for this element type.
    pub const fn tag(self) -> u8 {
        match self {
            PdcType::Float => 0,
            PdcType::Double => 1,
            PdcType::Int32 => 2,
            PdcType::UInt32 => 3,
            PdcType::Int64 => 4,
            PdcType::UInt64 => 5,
        }
    }

    /// The element type a stored tag names, if any.
    pub const fn from_tag(tag: u8) -> Option<PdcType> {
        Some(match tag {
            0 => PdcType::Float,
            1 => PdcType::Double,
            2 => PdcType::Int32,
            3 => PdcType::UInt32,
            4 => PdcType::Int64,
            5 => PdcType::UInt64,
            _ => return None,
        })
    }
}

/// Sequential little-endian reads over a byte slice. Every read checks
/// the remaining length first and fails with the format's own error.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    err: fn(String) -> PdcError,
}

impl<'a> ByteReader<'a> {
    /// Read `buf`, reporting failures through `err` (for example
    /// `PdcError::SnapshotCorrupt`).
    pub fn new(buf: &'a [u8], err: fn(String) -> PdcError) -> Self {
        Self { buf, err }
    }

    /// This format's error for `why`.
    pub fn error(&self, why: impl Into<String>) -> PdcError {
        (self.err)(why.into())
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> PdcResult<&'a [u8]> {
        if n > self.buf.len() {
            let left = self.buf.len();
            return Err(self.error(format!("truncated: {n} bytes wanted, {left} left")));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> PdcResult<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.bytes(N)?);
        Ok(a)
    }

    /// One byte.
    pub fn u8(&mut self) -> PdcResult<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> PdcResult<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> PdcResult<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `f64`.
    pub fn f64(&mut self) -> PdcResult<f64> {
        self.array().map(f64::from_le_bytes)
    }

    /// An element type, stored as its [`PdcType::tag`].
    pub fn pdc_type(&mut self) -> PdcResult<PdcType> {
        let tag = self.u8()?;
        PdcType::from_tag(tag).ok_or_else(|| self.error(format!("unknown element type tag {tag}")))
    }

    /// `n` little-endian values of `N` bytes each, e.g.
    /// `r.vec(n, u64::from_le_bytes)`. The length is checked for all `n`
    /// before anything is allocated, so a mangled count cannot force an
    /// absurd reservation.
    pub fn vec<const N: usize, T>(
        &mut self,
        n: usize,
        decode: fn([u8; N]) -> T,
    ) -> PdcResult<Vec<T>> {
        let (words, _) = self.bytes(n.saturating_mul(N))?.as_chunks::<N>();
        Ok(words.iter().map(|&w| decode(w)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_little_endian_fields_in_order() {
        let mut buf = vec![7u8];
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        buf.extend_from_slice(&42u64.to_le_bytes());
        buf.extend_from_slice(&1.5f64.to_le_bytes());
        buf.push(PdcType::Int64.tag());
        for w in [3u32, 4, 5] {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        let mut r = ByteReader::new(&buf, PdcError::Codec);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.f64().unwrap(), 1.5);
        assert_eq!(r.pdc_type().unwrap(), PdcType::Int64);
        assert_eq!(r.vec(3, u32::from_le_bytes).unwrap(), vec![3, 4, 5]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn short_input_is_the_formats_error_and_consumes_nothing() {
        let mut r = ByteReader::new(&[1, 2, 3], PdcError::SnapshotCorrupt);
        assert!(matches!(r.u32(), Err(PdcError::SnapshotCorrupt(_))));
        assert!(matches!(r.vec(usize::MAX, u64::from_le_bytes), Err(PdcError::SnapshotCorrupt(_))));
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.bytes(3).unwrap(), &[1, 2, 3]);
        assert!(matches!(r.u8(), Err(PdcError::SnapshotCorrupt(_))));
    }

    #[test]
    fn every_type_tag_round_trips_and_unknown_tags_fail() {
        for tag in 0..=u8::MAX {
            match PdcType::from_tag(tag) {
                Some(ty) => assert_eq!(ty.tag(), tag),
                None => assert!(tag > 5, "tag {tag} names no type"),
            }
        }
        let mut r = ByteReader::new(&[9], PdcError::Codec);
        assert!(matches!(r.pdc_type(), Err(PdcError::Codec(why)) if why.contains("tag 9")));
    }
}
