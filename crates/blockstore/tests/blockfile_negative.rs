//! Negative paths of the block file format: truncations, bit flips,
//! hostile index/footer fields, and garbage files must all surface as
//! typed errors — never a panic, never silently wrong data. Mirrors the
//! metadata layer's `persist_negative.rs` discipline for the out-of-core
//! spill files.

use pdc_blockstore::{write_raw, write_typed, BlockReader, Fnv1a};
use pdc_types::{PdcError, TypedVec};
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let thread = std::thread::current()
        .name()
        .unwrap_or("t")
        .replace(|c: char| !c.is_ascii_alphanumeric(), "_");
    let dir = std::env::temp_dir().join(format!(
        "pdc_blockneg_{tag}_{}_{thread}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_typed() -> TypedVec {
    TypedVec::Float((0..3000).map(|i| ((i * 37) % 1000) as f32 / 8.0).collect())
}

/// Open + full decode; `Ok` only when every section validates.
fn try_read(path: &Path) -> Result<TypedVec, PdcError> {
    BlockReader::open(path)?.read_all_typed()
}

fn try_read_raw(path: &Path) -> Result<Vec<u8>, PdcError> {
    BlockReader::open(path)?.read_all_raw()
}

fn assert_typed_error(res: Result<(), PdcError>, what: &str) {
    match res {
        Err(PdcError::Codec(_)) | Err(PdcError::Storage(_)) => {}
        Err(other) => panic!("{what}: unexpected error kind {other:?}"),
        Ok(()) => panic!("{what}: damage went undetected"),
    }
}

#[test]
fn every_truncation_fails_typed() {
    let dir = tmp_dir("trunc");
    let good_path = dir.join("good.pbf");
    write_typed(&good_path, &sample_typed(), 256).unwrap();
    let good = std::fs::read(&good_path).unwrap();
    let cut_path = dir.join("cut.pbf");
    // Every prefix strictly shorter than the file is missing bytes of a
    // checksummed section (the footer magic sits at the very end), so no
    // truncation may decode. Walk a stride plus every section-boundary
    // neighborhood.
    let mut cuts: Vec<usize> = (0..good.len()).step_by(7).collect();
    for b in [0usize, 1, 23, 24, 25, good.len() - 25, good.len() - 24, good.len() - 1] {
        cuts.push(b);
    }
    for cut in cuts {
        std::fs::write(&cut_path, &good[..cut]).unwrap();
        assert_typed_error(try_read(&cut_path).map(|_| ()), &format!("truncation at {cut}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_bit_flip_is_detected() {
    let dir = tmp_dir("flip");
    let good_path = dir.join("good.pbf");
    write_typed(&good_path, &sample_typed(), 256).unwrap();
    let good = std::fs::read(&good_path).unwrap();
    let bad_path = dir.join("bad.pbf");
    // One flipped bit per byte position, rotating through the bit index
    // so all eight lanes get exercised across the file. Header, frame
    // fields, payloads, index entries, and the footer are each covered by
    // a checksum or a structural cross-check, so every flip must surface.
    for byte in 0..good.len() {
        let mut bad = good.clone();
        bad[byte] ^= 1u8 << (byte % 8);
        std::fs::write(&bad_path, &bad).unwrap();
        assert_typed_error(
            try_read(&bad_path).map(|_| ()),
            &format!("bit flip at byte {byte}"),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_bit_flip_fails_the_frame_check() {
    // The check a spilled region's read makes without decoding: open
    // (header, index, footer) plus every frame's lengths and checksum.
    let dir = tmp_dir("frames");
    let good_path = dir.join("good.pbf");
    write_typed(&good_path, &sample_typed(), 256).unwrap();
    BlockReader::open(&good_path).unwrap().verify_frames().unwrap();
    let good = std::fs::read(&good_path).unwrap();
    let bad_path = dir.join("bad.pbf");
    for byte in 0..good.len() {
        let mut bad = good.clone();
        bad[byte] ^= 1u8 << (byte % 8);
        std::fs::write(&bad_path, &bad).unwrap();
        assert_typed_error(
            BlockReader::open(&bad_path).and_then(|r| r.verify_frames()),
            &format!("bit flip at byte {byte}"),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn raw_file_bit_flips_are_detected() {
    let dir = tmp_dir("rawflip");
    let good_path = dir.join("good.pbf");
    let payload: Vec<u8> = (0..2048u32).map(|i| (i * 31 % 251) as u8).collect();
    write_raw(&good_path, &payload, 512).unwrap();
    assert_eq!(try_read_raw(&good_path).unwrap(), payload);
    let good = std::fs::read(&good_path).unwrap();
    let bad_path = dir.join("bad.pbf");
    for byte in (0..good.len()).step_by(3) {
        let mut bad = good.clone();
        bad[byte] ^= 1u8 << (byte % 8);
        std::fs::write(&bad_path, &bad).unwrap();
        assert_typed_error(
            try_read_raw(&bad_path).map(|_| ()),
            &format!("raw bit flip at byte {byte}"),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Patch the header and/or index, recomputing the header/index checksum
/// so the damage reaches the structural validators instead of being
/// caught by the checksum (which `every_bit_flip_is_detected` covers).
fn repack_with_valid_fnv(bytes: &mut [u8]) {
    let len = bytes.len();
    let index_off = u64::from_le_bytes(bytes[len - 24..len - 16].try_into().unwrap()) as usize;
    let fnv = Fnv1a::new()
        .chain(&bytes[..24])
        .chain(&bytes[index_off..len - 24])
        .finish();
    bytes[len - 12..len - 4].copy_from_slice(&fnv.to_le_bytes());
}

#[test]
fn hostile_index_and_footer_fields_fail_closed() {
    let dir = tmp_dir("hostile");
    let good_path = dir.join("good.pbf");
    write_typed(&good_path, &sample_typed(), 256).unwrap();
    let good = std::fs::read(&good_path).unwrap();
    let len = good.len();
    let bad_path = dir.join("bad.pbf");

    // Footer index_off pointing at the header, past EOF, and to u64::MAX.
    for off in [0u64, 24, len as u64, u64::MAX] {
        let mut bad = good.clone();
        bad[len - 24..len - 16].copy_from_slice(&off.to_le_bytes());
        std::fs::write(&bad_path, &bad).unwrap();
        assert_typed_error(
            try_read(&bad_path).map(|_| ()),
            &format!("hostile index_off {off}"),
        );
    }

    // Index entry 0 aliased to block 1's offset, checksum made
    // consistent: the offset-tiling walk must reject the aliasing.
    {
        let index_off =
            u64::from_le_bytes(good[len - 24..len - 16].try_into().unwrap()) as usize;
        let entry1_off = u64::from_le_bytes(
            good[index_off + 12..index_off + 20].try_into().unwrap(),
        );
        let mut bad = good.clone();
        bad[index_off..index_off + 8].copy_from_slice(&entry1_off.to_le_bytes());
        repack_with_valid_fnv(&mut bad);
        std::fs::write(&bad_path, &bad).unwrap();
        assert_typed_error(try_read(&bad_path).map(|_| ()), "aliased index entry");
    }

    // Header total inflated with a consistent checksum: the footer block
    // count (and the index walk) must disagree.
    {
        let mut bad = good.clone();
        bad[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        repack_with_valid_fnv(&mut bad);
        std::fs::write(&bad_path, &bad).unwrap();
        assert_typed_error(try_read(&bad_path).map(|_| ()), "inflated header total");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn header_tampering_with_valid_checksum_fails_closed() {
    let dir = tmp_dir("header");
    let good_path = dir.join("good.pbf");
    write_typed(&good_path, &sample_typed(), 256).unwrap();
    let good = std::fs::read(&good_path).unwrap();
    let bad_path = dir.join("bad.pbf");
    // (byte offset in header, hostile value, label)
    let cases: &[(usize, u8, &str)] = &[
        (4, 0xEE, "unsupported format version"),
        (8, 7, "unknown payload kind"),
        (9, 0xEE, "unknown element tag"),
        (20, 0, "zero block size"),
    ];
    for &(off, val, what) in cases {
        let mut bad = good.clone();
        bad[off] = val;
        if off == 20 {
            bad[20..24].copy_from_slice(&0u32.to_le_bytes());
        }
        repack_with_valid_fnv(&mut bad);
        std::fs::write(&bad_path, &bad).unwrap();
        assert_typed_error(try_read(&bad_path).map(|_| ()), what);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrite a freshly written file as the format-1 file the previous
/// writer produced: version field 1 and, ahead of every payload, the
/// byte-wise FNV-1a over frame fields + payload that format 1 stored.
/// Everything else (header, encodings, index, footer) is laid out the
/// same in both versions.
fn as_format_1(bytes: &mut [u8]) {
    let len = bytes.len();
    let index_off = u64::from_le_bytes(bytes[len - 24..len - 16].try_into().unwrap()) as usize;
    let n_blocks = u32::from_le_bytes(bytes[len - 16..len - 12].try_into().unwrap()) as usize;
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    for b in 0..n_blocks {
        let entry = index_off + 12 * b;
        let off = u64::from_le_bytes(bytes[entry..entry + 8].try_into().unwrap()) as usize;
        let comp_len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let sum = Fnv1a::new()
            .chain(&bytes[off..off + 9])
            .chain(&bytes[off + 17..off + 17 + comp_len])
            .finish();
        bytes[off + 9..off + 17].copy_from_slice(&sum.to_le_bytes());
    }
    repack_with_valid_fnv(bytes);
}

#[test]
fn format_1_file_is_refused_typed() {
    let dir = tmp_dir("format1");
    let path = dir.join("old.pbf");
    write_typed(&path, &sample_typed(), 256).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes[4..8], 2u32.to_le_bytes(), "the writer emits format 2");
    as_format_1(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    // A self-consistent format-1 file: every checksum it carries is
    // valid under format-1 rules, so only the version check can (and
    // must) refuse it — there is no format-1 read path to fall into.
    match BlockReader::open(&path) {
        Err(PdcError::Codec(msg)) => {
            assert!(msg.contains("unsupported format 1"), "unexpected message: {msg}")
        }
        other => panic!("format-1 file must be refused as unsupported, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_and_short_files_fail_typed() {
    let dir = tmp_dir("garbage");
    let p = dir.join("g.pbf");
    for bytes in [
        Vec::new(),
        vec![0u8; 10],
        vec![0xAB; 48],
        b"PDCB but then it all goes wrong, padding padding padding".to_vec(),
    ] {
        std::fs::write(&p, &bytes).unwrap();
        assert_typed_error(
            try_read(&p).map(|_| ()),
            &format!("{}-byte garbage file", bytes.len()),
        );
    }
    assert!(matches!(
        BlockReader::open(&dir.join("missing.pbf")),
        Err(PdcError::Storage(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verify_all_agrees_with_full_decode() {
    let dir = tmp_dir("verify");
    let p = dir.join("v.pbf");
    let tv = sample_typed();
    write_typed(&p, &tv, 256).unwrap();
    let r = BlockReader::open(&p).unwrap();
    assert_eq!(r.verify_all().unwrap(), tv.size_bytes());
    let good = std::fs::read(&p).unwrap();
    // Flip one payload bit: verify_all must report it just like read.
    let mut bad = good.clone();
    bad[100] ^= 0x40;
    std::fs::write(&p, &bad).unwrap();
    let r = BlockReader::open(&p).unwrap();
    assert!(r.verify_all().is_err());
    let _ = std::fs::remove_dir_all(&dir);
}
