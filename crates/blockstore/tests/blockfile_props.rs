//! Property tests of the block-file roundtrip law: for every payload —
//! including NaN bit patterns, infinities, signed zeros, and denormals —
//! and every block size, `write` then `read` is the identity on the
//! byte image, and whole-file and per-block reads agree.

use pdc_blockstore::{write_raw, write_typed, BlockReader};
use pdc_types::TypedVec;
use proptest::prelude::*;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let thread = std::thread::current()
        .name()
        .unwrap_or("t")
        .replace(|c: char| !c.is_ascii_alphanumeric(), "_");
    let dir = std::env::temp_dir()
        .join(format!("pdc_blockprops_{tag}_{}_{thread}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Raw bit patterns, so the generator hits NaNs (quiet and signalling,
/// arbitrary payload bits), ±inf, ±0, and denormals with real
/// probability instead of never.
fn f32_bits() -> impl Strategy<Value = u32> {
    prop_oneof![
        any::<u32>(),
        Just(f32::NAN.to_bits()),
        Just(f32::INFINITY.to_bits()),
        Just(f32::NEG_INFINITY.to_bits()),
        Just(0x8000_0000u32), // -0.0
        Just(0x0000_0001u32), // smallest denormal
        Just(0x7fc0_1234u32), // NaN with payload bits
    ]
}

fn f64_bits() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        Just(f64::NAN.to_bits()),
        Just(f64::NEG_INFINITY.to_bits()),
        Just(0x8000_0000_0000_0000u64), // -0.0
        Just(0x7ff8_0000_dead_beefu64), // NaN with payload bits
    ]
}

/// Little-endian byte image of a typed payload.
fn byte_image(tv: &TypedVec) -> Vec<u8> {
    match tv {
        TypedVec::Float(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
        TypedVec::Double(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
        TypedVec::Int32(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
        TypedVec::UInt32(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
        TypedVec::Int64(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
        TypedVec::UInt64(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
    }
}

/// Bitwise equality: `PartialEq` on floats breaks down on NaN, so the
/// law is stated on byte images.
fn assert_bit_identical(a: &TypedVec, b: &TypedVec) {
    assert_eq!(a.pdc_type(), b.pdc_type());
    assert_eq!(byte_image(a), byte_image(b));
}

fn roundtrip_file(tag: &str, tv: &TypedVec, block_elems: u32) {
    let dir = tmp_dir(tag);
    let path = dir.join("roundtrip.pbf");
    let meta = write_typed(&path, tv, block_elems).unwrap();
    assert_eq!(meta.total, tv.len() as u64);

    let r = BlockReader::open(&path).unwrap();
    assert_bit_identical(&r.read_all_typed().unwrap(), tv);

    // Per-block reads must tile the file exactly and concatenate back to
    // the whole payload.
    let mut seen = 0u64;
    for b in 0..r.n_blocks() {
        let (start, elems) = r.block_span(b);
        assert_eq!(start, seen, "block {b} must start where block {} ended", b.wrapping_sub(1));
        let block = r.read_typed_block(b).unwrap();
        assert_eq!(block.len(), elems as usize);
        assert_bit_identical(&block, &tv.slice(start as usize, elems as usize));
        seen += elems as u64;
    }
    assert_eq!(seen, tv.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn float_files_roundtrip_bit_exact(
        bits in prop::collection::vec(f32_bits(), 0..2000),
        block_elems in 1u32..700,
    ) {
        let tv = TypedVec::Float(bits.into_iter().map(f32::from_bits).collect());
        roundtrip_file("f32", &tv, block_elems);
    }

    #[test]
    fn double_files_roundtrip_bit_exact(
        bits in prop::collection::vec(f64_bits(), 0..1200),
        block_elems in 1u32..500,
    ) {
        let tv = TypedVec::Double(bits.into_iter().map(f64::from_bits).collect());
        roundtrip_file("f64", &tv, block_elems);
    }

    #[test]
    fn integer_files_roundtrip_bit_exact(
        xs in prop::collection::vec(any::<u64>(), 0..1500),
        block_elems in 1u32..600,
    ) {
        // Exercise a narrow and a wide integer lane from one pool.
        let narrow = TypedVec::Int32(xs.iter().map(|&x| x as i32).collect());
        roundtrip_file("i32", &narrow, block_elems);
        let wide = TypedVec::UInt64(xs.clone());
        roundtrip_file("u64", &wide, block_elems);
    }

    #[test]
    fn raw_files_roundtrip_exact(
        bytes in prop::collection::vec(any::<u8>(), 0..4000),
        block_bytes in 1u32..900,
    ) {
        let dir = tmp_dir("raw");
        let path = dir.join("raw.pbf");
        write_raw(&path, &bytes, block_bytes).unwrap();
        let r = BlockReader::open(&path).unwrap();
        prop_assert_eq!(r.read_all_raw().unwrap(), bytes.clone());
        let mut cat = Vec::new();
        for b in 0..r.n_blocks() {
            cat.extend(r.read_raw_block(b).unwrap());
        }
        prop_assert_eq!(cat, bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
