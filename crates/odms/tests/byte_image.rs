//! The metadata snapshot frame's exact bytes, pinned: a fixed two-object
//! system must serialize to the same frame on every build, so a codec
//! change that silently moves the format fails here even where a
//! write-then-read round trip would still pass.

use pdc_odms::{ImportOptions, MetaValue, MetadataSnapshot, Odms};
use pdc_types::TypedVec;
use std::collections::BTreeMap;

/// Byte-wise FNV-1a 64 of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn snapshot_frame_image_is_pinned() {
    let odms = Odms::new(2);
    let c = odms.create_container("pin");
    let mut attrs = BTreeMap::new();
    attrs.insert("plate".to_string(), MetaValue::from(3i64));
    attrs.insert("ra".to_string(), MetaValue::from(153.17));
    attrs.insert("tag".to_string(), MetaValue::from("boss"));
    let indexed =
        ImportOptions { region_bytes: 2048, build_index: true, build_sorted: true, attrs };
    let energy: Vec<f32> = (0..1500).map(|i| ((i * 13) % 500) as f32 / 10.0).collect();
    odms.import_array(c, "energy", TypedVec::Float(energy), &indexed).unwrap();
    let plain = ImportOptions { region_bytes: 4096, ..Default::default() };
    let ids: Vec<i64> = (0..700).map(|i| (i * 7919) % 1000 - 500).collect();
    odms.import_array(c, "id", TypedVec::Int64(ids), &plain).unwrap();

    let frame = odms.meta().snapshot().to_bytes();
    assert_eq!((frame.len(), fnv1a64(&frame)), (4_974, 0xd294_2e25_c6b5_0f89));
    assert_eq!(MetadataSnapshot::from_bytes(&frame).unwrap(), odms.meta().snapshot());
}
