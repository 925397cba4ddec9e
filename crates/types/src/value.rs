//! Dynamically typed scalar values and arrays.
//!
//! The paper's `PDCquery_create` takes a `pdc_type_t` tag plus a `void*`
//! value, and PDC objects store 1-D arrays of one of those element types.
//! [`PdcValue`] is the tagged scalar, [`TypedVec`] the tagged array. All
//! query evaluation compares values through `f64`, which is exact for
//! `f32`, `i32`, `u32` and for `i64`/`u64` magnitudes below 2^53 — the
//! ranges exercised by the paper's workloads.

use crate::error::{PdcError, PdcResult};
use std::fmt;

/// Element type tag, mirroring the paper's `pdc_type_t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PdcType {
    /// 32-bit IEEE float (`float`).
    Float,
    /// 64-bit IEEE float (`double`).
    Double,
    /// 32-bit signed integer (`int`).
    Int32,
    /// 32-bit unsigned integer (`unsigned int`).
    UInt32,
    /// 64-bit signed integer (`long long`).
    Int64,
    /// 64-bit unsigned integer (`unsigned long long`).
    UInt64,
}

impl PdcType {
    /// Size of one element in bytes.
    #[inline]
    pub const fn size_bytes(self) -> u64 {
        match self {
            PdcType::Float | PdcType::Int32 | PdcType::UInt32 => 4,
            PdcType::Double | PdcType::Int64 | PdcType::UInt64 => 8,
        }
    }

    /// Whether the type is a floating-point type.
    #[inline]
    pub const fn is_float(self) -> bool {
        matches!(self, PdcType::Float | PdcType::Double)
    }
}

/// A tagged scalar value, the Rust equivalent of the C API's
/// `(pdc_type_t, void*)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PdcValue {
    /// `float`
    Float(f32),
    /// `double`
    Double(f64),
    /// `int`
    Int32(i32),
    /// `unsigned int`
    UInt32(u32),
    /// `long long`
    Int64(i64),
    /// `unsigned long long`
    UInt64(u64),
}

impl PdcValue {
    /// The type tag of this value.
    #[inline]
    pub const fn pdc_type(self) -> PdcType {
        match self {
            PdcValue::Float(_) => PdcType::Float,
            PdcValue::Double(_) => PdcType::Double,
            PdcValue::Int32(_) => PdcType::Int32,
            PdcValue::UInt32(_) => PdcType::UInt32,
            PdcValue::Int64(_) => PdcType::Int64,
            PdcValue::UInt64(_) => PdcType::UInt64,
        }
    }

    /// The value widened to `f64` (the common comparison domain).
    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            PdcValue::Float(v) => v as f64,
            PdcValue::Double(v) => v,
            PdcValue::Int32(v) => v as f64,
            PdcValue::UInt32(v) => v as f64,
            PdcValue::Int64(v) => v as f64,
            PdcValue::UInt64(v) => v as f64,
        }
    }
}

impl fmt::Display for PdcValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdcValue::Float(v) => write!(f, "{v}"),
            PdcValue::Double(v) => write!(f, "{v}"),
            PdcValue::Int32(v) => write!(f, "{v}"),
            PdcValue::UInt32(v) => write!(f, "{v}"),
            PdcValue::Int64(v) => write!(f, "{v}"),
            PdcValue::UInt64(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! impl_from_scalar {
    ($($t:ty => $variant:ident),* $(,)?) => {
        $(impl From<$t> for PdcValue {
            fn from(v: $t) -> Self { PdcValue::$variant(v) }
        })*
    };
}
impl_from_scalar!(f32 => Float, f64 => Double, i32 => Int32, u32 => UInt32, i64 => Int64, u64 => UInt64);

/// A tagged, owned 1-D array of elements; the payload of a PDC region.
#[derive(Debug, Clone, PartialEq)]
pub enum TypedVec {
    /// Array of `float`.
    Float(Vec<f32>),
    /// Array of `double`.
    Double(Vec<f64>),
    /// Array of `int`.
    Int32(Vec<i32>),
    /// Array of `unsigned int`.
    UInt32(Vec<u32>),
    /// Array of `long long`.
    Int64(Vec<i64>),
    /// Array of `unsigned long long`.
    UInt64(Vec<u64>),
}

/// Dispatch a block over the concrete element slice of a [`TypedVec`].
///
/// `with_slice!(tv, xs => expr)` binds `xs` to `&[T]` for the concrete `T`.
#[macro_export]
macro_rules! with_slice {
    ($tv:expr, $xs:ident => $body:expr) => {
        match $tv {
            $crate::value::TypedVec::Float($xs) => $body,
            $crate::value::TypedVec::Double($xs) => $body,
            $crate::value::TypedVec::Int32($xs) => $body,
            $crate::value::TypedVec::UInt32($xs) => $body,
            $crate::value::TypedVec::Int64($xs) => $body,
            $crate::value::TypedVec::UInt64($xs) => $body,
        }
    };
}

impl TypedVec {
    /// An empty array of the given type.
    pub fn empty(ty: PdcType) -> Self {
        match ty {
            PdcType::Float => TypedVec::Float(Vec::new()),
            PdcType::Double => TypedVec::Double(Vec::new()),
            PdcType::Int32 => TypedVec::Int32(Vec::new()),
            PdcType::UInt32 => TypedVec::UInt32(Vec::new()),
            PdcType::Int64 => TypedVec::Int64(Vec::new()),
            PdcType::UInt64 => TypedVec::UInt64(Vec::new()),
        }
    }

    /// An empty array of the given type with reserved capacity.
    pub fn with_capacity(ty: PdcType, cap: usize) -> Self {
        match ty {
            PdcType::Float => TypedVec::Float(Vec::with_capacity(cap)),
            PdcType::Double => TypedVec::Double(Vec::with_capacity(cap)),
            PdcType::Int32 => TypedVec::Int32(Vec::with_capacity(cap)),
            PdcType::UInt32 => TypedVec::UInt32(Vec::with_capacity(cap)),
            PdcType::Int64 => TypedVec::Int64(Vec::with_capacity(cap)),
            PdcType::UInt64 => TypedVec::UInt64(Vec::with_capacity(cap)),
        }
    }

    /// The type tag of the elements.
    #[inline]
    pub fn pdc_type(&self) -> PdcType {
        match self {
            TypedVec::Float(_) => PdcType::Float,
            TypedVec::Double(_) => PdcType::Double,
            TypedVec::Int32(_) => PdcType::Int32,
            TypedVec::UInt32(_) => PdcType::UInt32,
            TypedVec::Int64(_) => PdcType::Int64,
            TypedVec::UInt64(_) => PdcType::UInt64,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        with_slice!(self, xs => xs.len())
    }

    /// Whether the array has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload size in bytes.
    #[inline]
    pub fn size_bytes(&self) -> u64 {
        self.len() as u64 * self.pdc_type().size_bytes()
    }

    /// Element `i` widened to `f64`. Panics if out of bounds.
    #[inline]
    pub fn get_f64(&self, i: usize) -> f64 {
        #[allow(clippy::unnecessary_cast)] // the Double arm casts f64->f64
        {
            with_slice!(self, xs => xs[i] as f64)
        }
    }

    /// Element `i` as a tagged scalar. Panics if out of bounds.
    #[inline]
    pub fn get_value(&self, i: usize) -> PdcValue {
        match self {
            TypedVec::Float(xs) => PdcValue::Float(xs[i]),
            TypedVec::Double(xs) => PdcValue::Double(xs[i]),
            TypedVec::Int32(xs) => PdcValue::Int32(xs[i]),
            TypedVec::UInt32(xs) => PdcValue::UInt32(xs[i]),
            TypedVec::Int64(xs) => PdcValue::Int64(xs[i]),
            TypedVec::UInt64(xs) => PdcValue::UInt64(xs[i]),
        }
    }

    /// Append element `i` of `src` (which must have the same type tag).
    pub fn push_from(&mut self, src: &TypedVec, i: usize) -> PdcResult<()> {
        match (self, src) {
            (TypedVec::Float(dst), TypedVec::Float(xs)) => dst.push(xs[i]),
            (TypedVec::Double(dst), TypedVec::Double(xs)) => dst.push(xs[i]),
            (TypedVec::Int32(dst), TypedVec::Int32(xs)) => dst.push(xs[i]),
            (TypedVec::UInt32(dst), TypedVec::UInt32(xs)) => dst.push(xs[i]),
            (TypedVec::Int64(dst), TypedVec::Int64(xs)) => dst.push(xs[i]),
            (TypedVec::UInt64(dst), TypedVec::UInt64(xs)) => dst.push(xs[i]),
            (dst, src) => {
                return Err(PdcError::TypeMismatch {
                    expected: dst.pdc_type(),
                    got: src.pdc_type(),
                })
            }
        }
        Ok(())
    }

    /// Append elements `range` of `src` (same type tag required).
    pub fn extend_from_range(
        &mut self,
        src: &TypedVec,
        range: std::ops::Range<usize>,
    ) -> PdcResult<()> {
        match (self, src) {
            (TypedVec::Float(dst), TypedVec::Float(xs)) => dst.extend_from_slice(&xs[range]),
            (TypedVec::Double(dst), TypedVec::Double(xs)) => dst.extend_from_slice(&xs[range]),
            (TypedVec::Int32(dst), TypedVec::Int32(xs)) => dst.extend_from_slice(&xs[range]),
            (TypedVec::UInt32(dst), TypedVec::UInt32(xs)) => dst.extend_from_slice(&xs[range]),
            (TypedVec::Int64(dst), TypedVec::Int64(xs)) => dst.extend_from_slice(&xs[range]),
            (TypedVec::UInt64(dst), TypedVec::UInt64(xs)) => dst.extend_from_slice(&xs[range]),
            (dst, src) => {
                return Err(PdcError::TypeMismatch {
                    expected: dst.pdc_type(),
                    got: src.pdc_type(),
                })
            }
        }
        Ok(())
    }

    /// Shorten to the first `len` elements (no-op when not longer).
    pub fn truncate(&mut self, len: usize) {
        match self {
            TypedVec::Float(xs) => xs.truncate(len),
            TypedVec::Double(xs) => xs.truncate(len),
            TypedVec::Int32(xs) => xs.truncate(len),
            TypedVec::UInt32(xs) => xs.truncate(len),
            TypedVec::Int64(xs) => xs.truncate(len),
            TypedVec::UInt64(xs) => xs.truncate(len),
        }
    }

    /// Sub-array `[start, start+len)` as a new owned array.
    pub fn slice(&self, start: usize, len: usize) -> TypedVec {
        match self {
            TypedVec::Float(xs) => TypedVec::Float(xs[start..start + len].to_vec()),
            TypedVec::Double(xs) => TypedVec::Double(xs[start..start + len].to_vec()),
            TypedVec::Int32(xs) => TypedVec::Int32(xs[start..start + len].to_vec()),
            TypedVec::UInt32(xs) => TypedVec::UInt32(xs[start..start + len].to_vec()),
            TypedVec::Int64(xs) => TypedVec::Int64(xs[start..start + len].to_vec()),
            TypedVec::UInt64(xs) => TypedVec::UInt64(xs[start..start + len].to_vec()),
        }
    }

    /// Iterator over all elements widened to `f64`.
    pub fn iter_f64(&self) -> Box<dyn Iterator<Item = f64> + '_> {
        match self {
            TypedVec::Float(xs) => Box::new(xs.iter().map(|&v| v as f64)),
            TypedVec::Double(xs) => Box::new(xs.iter().copied()),
            TypedVec::Int32(xs) => Box::new(xs.iter().map(|&v| v as f64)),
            TypedVec::UInt32(xs) => Box::new(xs.iter().map(|&v| v as f64)),
            TypedVec::Int64(xs) => Box::new(xs.iter().map(|&v| v as f64)),
            TypedVec::UInt64(xs) => Box::new(xs.iter().map(|&v| v as f64)),
        }
    }

    /// Append all elements, widened to `f64`, to `out`.
    ///
    /// One monomorphized loop per variant — unlike [`TypedVec::iter_f64`]
    /// there is no boxed-iterator virtual call per element, so ingest
    /// paths (sorted-replica build, histogram construction) should prefer
    /// this.
    pub fn append_f64_to(&self, out: &mut Vec<f64>) {
        out.reserve(self.len());
        #[allow(clippy::unnecessary_cast)] // the Double arm casts f64->f64
        {
            with_slice!(self, xs => out.extend(xs.iter().map(|&v| v as f64)));
        }
    }

    /// All elements widened to `f64` (typed-loop equivalent of
    /// `iter_f64().collect()`).
    pub fn to_f64_vec(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.append_f64_to(&mut out);
        out
    }

    /// Minimum and maximum of the array widened to `f64`, or `None` if empty.
    pub fn min_max_f64(&self) -> Option<(f64, f64)> {
        if self.is_empty() {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        #[allow(clippy::unnecessary_cast)] // the Double arm casts f64->f64
        {
            with_slice!(self, xs => {
                for &v in xs.iter() {
                    let v = v as f64;
                    if v < lo {
                        lo = v;
                    }
                    if v > hi {
                        hi = v;
                    }
                }
            });
        }
        Some((lo, hi))
    }
}

macro_rules! impl_from_vec {
    ($($t:ty => $variant:ident),* $(,)?) => {
        $(impl From<Vec<$t>> for TypedVec {
            fn from(v: Vec<$t>) -> Self { TypedVec::$variant(v) }
        })*
    };
}
impl_from_vec!(f32 => Float, f64 => Double, i32 => Int32, u32 => UInt32, i64 => Int64, u64 => UInt64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_sizes() {
        assert_eq!(PdcType::Float.size_bytes(), 4);
        assert_eq!(PdcType::Double.size_bytes(), 8);
        assert_eq!(PdcType::Int64.size_bytes(), 8);
        assert!(PdcType::Double.is_float());
        assert!(!PdcType::UInt32.is_float());
    }

    #[test]
    fn scalar_conversion_and_tag() {
        let v: PdcValue = 1.5f32.into();
        assert_eq!(v.pdc_type(), PdcType::Float);
        assert_eq!(v.as_f64(), 1.5);
        let v: PdcValue = (-7i64).into();
        assert_eq!(v.as_f64(), -7.0);
    }

    #[test]
    fn typed_vec_basics() {
        let tv: TypedVec = vec![1.0f32, 2.0, 3.0].into();
        assert_eq!(tv.len(), 3);
        assert_eq!(tv.size_bytes(), 12);
        assert_eq!(tv.get_f64(1), 2.0);
        assert_eq!(tv.get_value(2), PdcValue::Float(3.0));
        assert_eq!(tv.min_max_f64(), Some((1.0, 3.0)));
        assert!(!tv.is_empty());
        assert!(TypedVec::empty(PdcType::Int32).is_empty());
    }

    #[test]
    fn slice_and_extend() {
        let tv: TypedVec = vec![10i32, 20, 30, 40].into();
        let s = tv.slice(1, 2);
        assert_eq!(s, TypedVec::Int32(vec![20, 30]));

        let mut dst = TypedVec::empty(PdcType::Int32);
        dst.extend_from_range(&tv, 2..4).unwrap();
        assert_eq!(dst, TypedVec::Int32(vec![30, 40]));
        dst.push_from(&tv, 0).unwrap();
        assert_eq!(dst.len(), 3);
    }

    #[test]
    fn type_mismatch_is_reported() {
        let mut dst = TypedVec::empty(PdcType::Float);
        let src: TypedVec = vec![1i32].into();
        let err = dst.push_from(&src, 0).unwrap_err();
        assert!(matches!(err, PdcError::TypeMismatch { .. }));
        let err = dst.extend_from_range(&src, 0..1).unwrap_err();
        assert!(matches!(err, PdcError::TypeMismatch { .. }));
    }

    #[test]
    fn iter_f64_covers_all_variants() {
        let cases: Vec<TypedVec> = vec![
            vec![1.0f32, 2.0].into(),
            vec![1.0f64, 2.0].into(),
            vec![1i32, 2].into(),
            vec![1u32, 2].into(),
            vec![1i64, 2].into(),
            vec![1u64, 2].into(),
        ];
        for tv in cases {
            let collected: Vec<f64> = tv.iter_f64().collect();
            assert_eq!(collected, vec![1.0, 2.0], "variant {:?}", tv.pdc_type());
        }
    }

    #[test]
    fn to_f64_vec_matches_iter_f64() {
        let cases: Vec<TypedVec> = vec![
            vec![1.5f32, -2.0].into(),
            vec![1.5f64, -2.0].into(),
            vec![1i32, -2].into(),
            vec![1u32, 2].into(),
            vec![1i64, -2].into(),
            vec![1u64, 2].into(),
        ];
        for tv in cases {
            let expect: Vec<f64> = tv.iter_f64().collect();
            assert_eq!(tv.to_f64_vec(), expect, "variant {:?}", tv.pdc_type());
            let mut appended = vec![9.0];
            tv.append_f64_to(&mut appended);
            assert_eq!(appended[1..], expect[..], "variant {:?}", tv.pdc_type());
        }
    }

    #[test]
    fn min_max_handles_negative_values() {
        let tv: TypedVec = vec![-5.0f64, 3.0, -10.0, 2.0].into();
        assert_eq!(tv.min_max_f64(), Some((-10.0, 3.0)));
    }
}
