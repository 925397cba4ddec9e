//! The index file's exact bytes, pinned: a fixed input must serialize to
//! the same image on every build, so a reader change that silently moves
//! the format (field order, widths, tags) fails here even where a
//! write-then-read round trip would still pass.

use pdc_bitmap::{BinnedBitmapIndex, BinningConfig, ValueDomain};

/// Byte-wise FNV-1a 64 of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn index_file_image_is_pinned() {
    let values: Vec<f64> = (0..3000).map(|i| (((i * 37) % 1000) as f32 / 100.0) as f64).collect();
    let idx =
        BinnedBitmapIndex::build_with_domain(&values, &BinningConfig::default(), ValueDomain::F32)
            .unwrap();
    let image = idx.to_bytes();
    assert_eq!((image.len(), fnv1a64(&image)), (14_222, 0x1b95_a4f3_70fb_1de5));
    assert_eq!(BinnedBitmapIndex::from_bytes(&image).unwrap(), idx);
}
