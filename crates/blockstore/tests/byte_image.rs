//! The block file's exact bytes, pinned: a fixed array must be written as
//! the same file on every build, so a change to the header, frame, index
//! or footer layout fails here even where a write-then-read round trip
//! would still pass.

use pdc_blockstore::blockfile::{write_typed, BlockReader};
use pdc_types::TypedVec;

/// Byte-wise FNV-1a 64 of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn block_file_image_is_pinned() {
    let path = std::env::temp_dir().join(format!("pdc_byte_image_{}.pbf", std::process::id()));
    // Three blocks, the last one short: smooth floats take the shuffled
    // codec, so header, frames, index and footer all appear.
    let tv = TypedVec::Float((0..2500).map(|i| ((i * 13) % 500) as f32 / 10.0).collect());
    let meta = write_typed(&path, &tv, 1024).unwrap();
    let image = std::fs::read(&path).unwrap();
    let back = BlockReader::open(&path).unwrap().read_all_typed().unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(meta.n_blocks, 3);
    assert_eq!(back, tv);
    assert_eq!((image.len(), fnv1a64(&image)), (8_253, 0xf86f_3d72_24fd_5d66));
}
