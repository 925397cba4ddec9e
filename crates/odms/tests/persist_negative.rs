//! Negative paths of the metadata persistence layer: recovery from
//! empty, fully-corrupted, and partially-written journals must yield
//! typed errors — never a panic — and a failed `restore_into` must
//! leave the target system untouched.

use pdc_odms::{ImportOptions, MetadataSnapshot, Odms, SnapshotJournal};
use pdc_types::{PdcError, TypedVec};

fn snapshot_source() -> (Odms, pdc_types::ObjectId) {
    let odms = Odms::new(4);
    let c = odms.create_container("neg");
    let data: Vec<f32> = (0..10_000).map(|i| ((i * 13) % 500) as f32 / 10.0).collect();
    let opts = ImportOptions {
        region_bytes: 8192,
        build_index: true,
        build_sorted: true,
        ..Default::default()
    };
    let obj = odms.import_array(c, "v", TypedVec::Float(data), &opts).unwrap().object;
    (odms, obj)
}

/// No metadata, no containers, a fresh id watermark: the shape a system
/// has before any restore touched it.
fn assert_untouched(odms: &Odms) {
    assert_eq!(odms.meta().num_objects(), 0);
    assert!(odms.meta().all_containers().is_empty());
    assert_eq!(odms.meta().next_id_watermark(), Odms::new(1).meta().next_id_watermark());
}

#[test]
fn recover_from_empty_journal_is_typed_error() {
    let journal = SnapshotJournal::new(3);
    match journal.recover() {
        Err(PdcError::SnapshotCorrupt(why)) => {
            assert!(why.contains("empty"), "unhelpful error: {why}")
        }
        other => panic!("expected SnapshotCorrupt, got {other:?}"),
    }
}

#[test]
fn restore_into_from_empty_journal_is_a_no_op() {
    let journal = SnapshotJournal::new(3);
    let fresh = Odms::new(2);
    assert!(matches!(journal.restore_into(&fresh), Err(PdcError::SnapshotCorrupt(_))));
    assert_untouched(&fresh);
}

#[test]
fn journal_with_every_frame_corrupted_is_typed_error() {
    let (odms, _) = snapshot_source();
    let good = odms.meta().snapshot().to_bytes();
    let mut journal = SnapshotJournal::new(8);
    // A spread of damage across every retained frame: truncation inside
    // the header, truncation inside the payload, a flipped payload bit
    // (checksum catch), a flipped magic byte, an empty frame, and pure
    // garbage. recover() must walk past all of them and report a typed
    // error, not panic or return a half-decoded snapshot.
    journal.push_raw(bytes::Bytes::from(good[..7].to_vec()));
    journal.push_raw(bytes::Bytes::from(good[..good.len() - 3].to_vec()));
    let mut flipped = good.to_vec();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    journal.push_raw(bytes::Bytes::from(flipped));
    let mut bad_magic = good.to_vec();
    bad_magic[0] ^= 0xFF;
    journal.push_raw(bytes::Bytes::from(bad_magic));
    journal.push_raw(bytes::Bytes::new());
    journal.push_raw(bytes::Bytes::from_static(b"PDCS followed by nonsense"));
    assert_eq!(journal.len(), 6);
    assert!(matches!(journal.recover(), Err(PdcError::SnapshotCorrupt(_))));
}

#[test]
fn restore_into_on_partially_written_frame_is_a_no_op() {
    let (odms, _) = snapshot_source();
    let good = odms.meta().snapshot().to_bytes();
    // The only persisted frame is a torn write: the header survived but
    // the payload stops mid-object. The length field catches it before
    // any decoding starts, so nothing can leak into the target system.
    let mut journal = SnapshotJournal::new(2);
    journal.push_raw(bytes::Bytes::from(good[..good.len() / 3].to_vec()));
    let fresh = Odms::new(2);
    assert!(matches!(journal.restore_into(&fresh), Err(PdcError::SnapshotCorrupt(_))));
    assert_untouched(&fresh);
    // The store is untouched too: no payloads.
    assert_eq!(fresh.store().num_regions(), 0);
}

#[test]
fn recovery_skips_corrupt_frames_but_restores_the_newest_good_one() {
    let (odms, obj) = snapshot_source();
    let good = odms.meta().snapshot();
    let mut journal = SnapshotJournal::new(4);
    journal.append(&good);
    let frame = good.to_bytes();
    journal.push_raw(bytes::Bytes::from(frame[..frame.len() / 2].to_vec()));
    journal.push_raw(bytes::Bytes::from_static(b"torn"));
    let (snap, skipped) = journal.recover().unwrap();
    assert_eq!(skipped, 2);
    assert_eq!(snap.objects[0].id, obj);
}

#[test]
fn hostile_frames_never_panic_the_decoder() {
    // Adversarial length fields: a frame whose header promises a huge
    // payload, and one whose inner counts point past the buffer. Both
    // must fail closed with a typed error.
    let (odms, _) = snapshot_source();
    let good = odms.meta().snapshot().to_bytes().to_vec();
    // Claim a payload length far beyond what follows.
    let mut oversize = good.clone();
    oversize[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        MetadataSnapshot::from_bytes(&oversize),
        Err(PdcError::SnapshotCorrupt(_))
    ));
    // Keep the frame checksum-consistent but mangle an inner count: the
    // bounds-checked reader must catch it. (Recompute the checksum so
    // damage reaches the payload decoder.)
    let mut inner = good.clone();
    let payload_start = 24;
    inner[payload_start + 4..payload_start + 8].copy_from_slice(&u32::MAX.to_le_bytes());
    let sum = pdc_storage::fnv1a64(&inner[payload_start..]);
    inner[16..24].copy_from_slice(&sum.to_le_bytes());
    assert!(matches!(
        MetadataSnapshot::from_bytes(&inner),
        Err(PdcError::SnapshotCorrupt(_))
    ));
}
