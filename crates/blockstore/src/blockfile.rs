//! On-disk block-compressed region files.
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! +--------------------------------------------------------------+
//! | header (24 B): "PDCB" | format u32 | kind u8 | elem u8 |     |
//! |                reserved u16 | total u64 | block_elems u32    |
//! +--------------------------------------------------------------+
//! | block 0: comp_len u32 | elems u32 | enc u8 | sum u64 |       |
//! |          <comp_len compressed bytes>                         |
//! | block 1: ...                                                 |
//! +--------------------------------------------------------------+
//! | index: n_blocks x { file_off u64 | elems u32 }               |
//! +--------------------------------------------------------------+
//! | footer (24 B): index_off u64 | n_blocks u32 |                |
//! |                index_fnv u64 | "PDCE"                        |
//! +--------------------------------------------------------------+
//! ```
//!
//! The framing follows the snapshot format from `pdc-odms::persist`
//! (magic / format / length / FNV-1a checksum ahead of every payload);
//! the index is found through the fixed-size footer so a reader never
//! scans the file. Block boundaries are virtual offsets in *element*
//! space — block `i` covers elements `[i * block_elems, ...)` — so an
//! interval read can map straight to the overlapping blocks and seek to
//! their file offsets.
//!
//! Checksums leave no unprotected byte. Each block's `sum` (format 2) is
//! the word-parallel [`BulkFnv`] of the compressed payload, seeded with
//! the byte-wise FNV-1a of the frame header fields (comp_len, elems,
//! encoding); the index FNV is byte-wise FNV-1a over the file header plus
//! the index entries (small, so the serial hash costs nothing). Both
//! detect every single-bit flip by construction (see [`crate::fnv`]), so
//! any such flip anywhere in the file is detected (the footer fields
//! themselves are cross-checked against the header and the section
//! tiling).
//!
//! Every read is bounds-checked and checksum-verified; any structural
//! problem yields a typed [`PdcError`], never a panic. Files are only
//! ever read back by the process that wrote them (`pdc-storage` reaches
//! a spill file through the handle its own demotion created), so there
//! is one format: a reader that meets any other version refuses it.

use crate::codec;
use crate::fnv::{BulkFnv, Fnv1a};
use pdc_types::error::{PdcError, PdcResult};
use pdc_types::value::{PdcType, TypedVec};
use pdc_types::ByteReader;
use std::cell::RefCell;
use std::fs::File;
// Positional reads (`read_exact_at`): no shared file cursor, so a reader
// needs no lock. Unix-only; the crate root refuses other targets.
use std::os::unix::fs::FileExt;
use std::path::Path;

/// File magic for block files.
const BLOCK_MAGIC: [u8; 4] = *b"PDCB";
/// Footer magic.
const FOOTER_MAGIC: [u8; 4] = *b"PDCE";
/// Format version (2: block frames carry the word-parallel checksum).
const BLOCK_FORMAT: u32 = 2;
/// Header size in bytes.
const HEADER_LEN: u64 = 24;
/// Per-block frame header size in bytes.
const FRAME_LEN: u64 = 17;
/// Per-entry index size in bytes.
const INDEX_ENTRY_LEN: u64 = 12;
/// Footer size in bytes.
const FOOTER_LEN: u64 = 24;
/// Default elements per block (64 Ki — a multiple of the kernels' 64-wide
/// chunks, so per-block scans see the same chunk alignment as whole-region
/// scans).
pub const DEFAULT_BLOCK_ELEMS: u32 = 64 * 1024;

/// Payload kind stored in a block file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// A typed element array; `total`/`elems` count elements.
    Typed(PdcType),
    /// Raw index bytes; `total`/`elems` count bytes.
    Raw,
}

fn corrupt(msg: impl Into<String>) -> PdcError {
    PdcError::Codec(format!("blockfile: {}", msg.into()))
}

fn io_err(op: &str, e: std::io::Error) -> PdcError {
    PdcError::Storage(format!("blockfile {op}: {e}"))
}

/// Summary of a written or opened block file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockFileMeta {
    /// What the file stores.
    pub kind: PayloadKind,
    /// Total elements (typed) or bytes (raw).
    pub total: u64,
    /// Elements (typed) or bytes (raw) per block.
    pub block_elems: u32,
    /// Number of blocks.
    pub n_blocks: u32,
    /// Uncompressed payload bytes.
    pub raw_bytes: u64,
    /// Compressed payload bytes (block payloads only, excluding framing).
    pub comp_bytes: u64,
    /// Total file size in bytes.
    pub file_bytes: u64,
}

/// Block-frame checksum: the bulk checksum of the compressed payload,
/// seeded with the classic FNV of the frame header fields, so a flip in
/// the length/element-count/encoding bytes is caught even when the
/// damaged values still parse.
fn frame_sum(comp_len: u32, elems: u32, enc: u8, payload: &[u8]) -> u64 {
    let seed = Fnv1a::new()
        .chain(&comp_len.to_le_bytes())
        .chain(&elems.to_le_bytes())
        .chain(&[enc])
        .finish();
    BulkFnv::with_seed(seed).chain(payload).finish()
}

/// The blocks of a `total`-element payload cut every `block_elems` that
/// intersect element range `[lo, hi)` (virtual offsets: block `i` covers
/// `[i * block_elems, (i+1) * block_elems)`); empty for an empty or
/// past-the-end range.
pub fn blocks_overlapping(total: u64, block_elems: u32, lo: u64, hi: u64) -> std::ops::Range<u32> {
    let hi = hi.min(total);
    if lo >= hi {
        return 0..0;
    }
    (lo / block_elems as u64) as u32..hi.div_ceil(block_elems as u64) as u32
}

fn expected_blocks(total: u64, block_elems: u32) -> u64 {
    if total == 0 {
        0
    } else {
        total.div_ceil(block_elems as u64)
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_file(
    path: &Path,
    kind: PayloadKind,
    total: u64,
    block_elems: u32,
    raw_bytes: u64,
    mut encode_block: impl FnMut(u64, u32) -> (u8, Vec<u8>),
) -> PdcResult<BlockFileMeta> {
    if block_elems == 0 {
        return Err(corrupt("block_elems must be positive"));
    }
    let n_blocks = expected_blocks(total, block_elems);
    if n_blocks > u32::MAX as u64 {
        return Err(corrupt("too many blocks"));
    }
    let mut buf = Vec::with_capacity((raw_bytes / 2 + 256) as usize);
    buf.extend_from_slice(&BLOCK_MAGIC);
    buf.extend_from_slice(&BLOCK_FORMAT.to_le_bytes());
    match kind {
        PayloadKind::Typed(ty) => {
            buf.push(0u8);
            buf.push(ty.tag());
        }
        PayloadKind::Raw => {
            buf.push(1u8);
            buf.push(0u8);
        }
    }
    buf.extend_from_slice(&0u16.to_le_bytes());
    buf.extend_from_slice(&total.to_le_bytes());
    buf.extend_from_slice(&block_elems.to_le_bytes());
    debug_assert_eq!(buf.len() as u64, HEADER_LEN);

    let mut index: Vec<u8> = Vec::with_capacity((n_blocks * INDEX_ENTRY_LEN) as usize);
    let mut comp_bytes = 0u64;
    for b in 0..n_blocks {
        let start = b * block_elems as u64;
        let elems = (total - start).min(block_elems as u64) as u32;
        let (enc, payload) = encode_block(start, elems);
        index.extend_from_slice(&(buf.len() as u64).to_le_bytes());
        index.extend_from_slice(&elems.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&elems.to_le_bytes());
        buf.push(enc);
        buf.extend_from_slice(&frame_sum(payload.len() as u32, elems, enc, &payload).to_le_bytes());
        comp_bytes += payload.len() as u64;
        buf.extend_from_slice(&payload);
    }
    let index_off = buf.len() as u64;
    let index_fnv = Fnv1a::new().chain(&buf[..HEADER_LEN as usize]).chain(&index).finish();
    buf.extend_from_slice(&index);
    buf.extend_from_slice(&index_off.to_le_bytes());
    buf.extend_from_slice(&(n_blocks as u32).to_le_bytes());
    buf.extend_from_slice(&index_fnv.to_le_bytes());
    buf.extend_from_slice(&FOOTER_MAGIC);

    let file_bytes = buf.len() as u64;
    // Write-then-rename so a torn write never leaves a half-written file
    // under the final name.
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &buf).map_err(|e| io_err("write", e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err("rename", e))?;
    Ok(BlockFileMeta {
        kind,
        total,
        block_elems,
        n_blocks: n_blocks as u32,
        raw_bytes,
        comp_bytes,
        file_bytes,
    })
}

/// Write `tv` as a block-compressed file at `path`.
pub fn write_typed(path: &Path, tv: &TypedVec, block_elems: u32) -> PdcResult<BlockFileMeta> {
    write_file(
        path,
        PayloadKind::Typed(tv.pdc_type()),
        tv.len() as u64,
        block_elems,
        tv.size_bytes(),
        |start, elems| codec::encode_block(tv, start as usize, elems as usize),
    )
}

/// Write raw index bytes as a block-compressed file at `path`.
pub fn write_raw(path: &Path, bytes: &[u8], block_bytes: u32) -> PdcResult<BlockFileMeta> {
    write_file(
        path,
        PayloadKind::Raw,
        bytes.len() as u64,
        block_bytes,
        bytes.len() as u64,
        |start, n| codec::encode_raw_block(&bytes[start as usize..start as usize + n as usize]),
    )
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

thread_local! {
    /// Each thread's buffer for the frame of the block it is reading.
    static FRAME: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    file_off: u64,
    elems: u32,
}

/// Random-access reader over a block file.
///
/// Opening validates the header, footer and offset index (checksummed);
/// an individual block read is one positional read of frame + payload
/// (the extent is known from the verified index), a checksum
/// verification, and a decode — a region's interval reads touch only the
/// overlapping blocks, and concurrent readers share the file without a
/// lock.
pub struct BlockReader {
    file: File,
    meta: BlockFileMeta,
    index: Vec<IndexEntry>,
    index_off: u64,
}

impl BlockReader {
    /// Open and validate `path`.
    pub fn open(path: &Path) -> PdcResult<BlockReader> {
        let file = File::open(path).map_err(|e| io_err("open", e))?;
        let file_len = file.metadata().map_err(|e| io_err("stat", e))?.len();
        if file_len < HEADER_LEN + FOOTER_LEN {
            return Err(corrupt(format!("file too short ({file_len} bytes)")));
        }
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact_at(&mut header, 0).map_err(|e| io_err("read header", e))?;
        let mut h = ByteReader::new(&header, corrupt);
        if h.bytes(4)? != BLOCK_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let format = h.u32()?;
        if format != BLOCK_FORMAT {
            return Err(corrupt(format!("unsupported format {format}")));
        }
        let kind = match h.u8()? {
            0 => PayloadKind::Typed(h.pdc_type()?),
            1 => h.u8().map(|_| PayloadKind::Raw)?, // a raw file stores no element type
            other => return Err(corrupt(format!("unknown payload kind {other}"))),
        };
        h.bytes(2)?; // reserved
        let total = h.u64()?;
        let block_elems = h.u32()?;
        if block_elems == 0 {
            return Err(corrupt("zero block size"));
        }
        let n_blocks = expected_blocks(total, block_elems);

        let mut footer = [0u8; FOOTER_LEN as usize];
        file.read_exact_at(&mut footer, file_len - FOOTER_LEN)
            .map_err(|e| io_err("read footer", e))?;
        let mut f = ByteReader::new(&footer, corrupt);
        let (index_off, footer_blocks, index_fnv) = (f.u64()?, f.u32()?, f.u64()?);
        if f.bytes(4)? != FOOTER_MAGIC {
            return Err(corrupt("bad footer magic"));
        }
        if footer_blocks as u64 != n_blocks {
            return Err(corrupt(format!(
                "footer says {footer_blocks} blocks, header implies {n_blocks}"
            )));
        }
        let index_len = n_blocks.saturating_mul(INDEX_ENTRY_LEN);
        // The sections must tile the file exactly: header, blocks, index,
        // footer. A hostile index_off cannot point outside the block area.
        if index_off < HEADER_LEN
            || index_off.checked_add(index_len).map(|e| e + FOOTER_LEN) != Some(file_len)
        {
            return Err(corrupt(format!("hostile index offset {index_off}")));
        }
        let mut index_bytes = vec![0u8; index_len as usize];
        file.read_exact_at(&mut index_bytes, index_off).map_err(|e| io_err("read index", e))?;
        if Fnv1a::new().chain(&header).chain(&index_bytes).finish() != index_fnv {
            return Err(corrupt("header/index checksum mismatch"));
        }
        let mut index = Vec::with_capacity(n_blocks as usize);
        let mut expect_off = HEADER_LEN;
        let mut seen_elems = 0u64;
        let mut entries = ByteReader::new(&index_bytes, corrupt);
        for i in 0..n_blocks {
            let (file_off, elems) = (entries.u64()?, entries.u32()?);
            if file_off != expect_off {
                return Err(corrupt(format!(
                    "block {i}: offset {file_off} does not follow previous block (expect {expect_off})"
                )));
            }
            let want = (total - seen_elems).min(block_elems as u64) as u32;
            if elems != want {
                return Err(corrupt(format!(
                    "block {i}: {elems} elements, expected {want}"
                )));
            }
            // Frame length is derived from the next offset at read time;
            // here just ensure the frame header itself fits.
            if file_off + FRAME_LEN > index_off {
                return Err(corrupt(format!("block {i}: frame overruns index")));
            }
            let mut frame = [0u8; FRAME_LEN as usize];
            file.read_exact_at(&mut frame, file_off).map_err(|e| io_err("read frame", e))?;
            let comp_len = ByteReader::new(&frame, corrupt).u32()?;
            expect_off = file_off
                .checked_add(FRAME_LEN)
                .and_then(|o| o.checked_add(comp_len as u64))
                .ok_or_else(|| corrupt(format!("block {i}: length overflow")))?;
            if expect_off > index_off {
                return Err(corrupt(format!("block {i}: payload overruns index")));
            }
            seen_elems += elems as u64;
            index.push(IndexEntry { file_off, elems });
        }
        if expect_off != index_off {
            return Err(corrupt("blocks do not tile the file up to the index"));
        }
        if seen_elems != total {
            return Err(corrupt(format!(
                "index covers {seen_elems} elements, header says {total}"
            )));
        }
        Ok(BlockReader {
            file,
            meta: BlockFileMeta {
                kind,
                total,
                block_elems,
                n_blocks: n_blocks as u32,
                raw_bytes: 0,
                comp_bytes: index_off - HEADER_LEN - n_blocks * FRAME_LEN,
                file_bytes: file_len,
            },
            index,
            index_off,
        })
    }

    /// File metadata (note: `raw_bytes` is not stored on disk; it is 0
    /// here and only populated on [`write_typed`]/[`write_raw`] results).
    pub fn meta(&self) -> &BlockFileMeta {
        &self.meta
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> u32 {
        self.meta.n_blocks
    }

    /// The element span `[start, start + len)` covered by block `i`.
    pub fn block_span(&self, i: u32) -> (u64, u32) {
        (
            i as u64 * self.meta.block_elems as u64,
            self.index[i as usize].elems,
        )
    }

    /// The blocks overlapping element range `[lo, hi)`.
    pub fn blocks_overlapping(&self, lo: u64, hi: u64) -> std::ops::Range<u32> {
        blocks_overlapping(self.meta.total, self.meta.block_elems, lo, hi)
    }

    /// Read and verify block `i`, then hand `(encoding, elems, payload)`
    /// to `decode`. The frame lands in this thread's reused frame buffer,
    /// so a block read allocates nothing once the thread has read a frame
    /// as large.
    fn with_block_payload<R>(
        &self,
        i: u32,
        decode: impl FnOnce(u8, usize, &[u8]) -> PdcResult<R>,
    ) -> PdcResult<R> {
        let entry = *self
            .index
            .get(i as usize)
            .ok_or_else(|| corrupt(format!("block {i} out of range")))?;
        let next_off = self
            .index
            .get(i as usize + 1)
            .map(|e| e.file_off)
            .unwrap_or(self.index_off);
        FRAME.with_borrow_mut(|buf| {
            // `open` verified that frames tile `[HEADER_LEN, index_off)`, so
            // the extent is at least a frame header and bounded by the file
            // size.
            buf.resize((next_off - entry.file_off) as usize, 0);
            self.file.read_exact_at(buf, entry.file_off).map_err(|e| io_err("read block", e))?;
            let mut r = ByteReader::new(&buf[..], corrupt);
            let (comp_len, elems, enc, checksum) = (r.u32()?, r.u32()?, r.u8()?, r.u64()?);
            if entry.file_off + FRAME_LEN + comp_len as u64 != next_off {
                return Err(corrupt(format!("block {i}: frame length mismatch")));
            }
            if elems != entry.elems {
                return Err(corrupt(format!(
                    "block {i}: frame says {elems} elements, index says {}",
                    entry.elems
                )));
            }
            let payload = r.bytes(comp_len as usize)?;
            if frame_sum(comp_len, elems, enc, payload) != checksum {
                return Err(corrupt(format!("block {i}: checksum mismatch")));
            }
            decode(enc, elems as usize, payload)
        })
    }

    /// Read and decode one typed block.
    pub fn read_typed_block(&self, i: u32) -> PdcResult<TypedVec> {
        let PayloadKind::Typed(ty) = self.meta.kind else {
            return Err(corrupt("typed read on raw block file"));
        };
        self.with_block_payload(i, |enc, elems, payload| codec::decode_block(ty, enc, elems, payload))
    }

    /// Read and decode one raw-byte block.
    pub fn read_raw_block(&self, i: u32) -> PdcResult<Vec<u8>> {
        if self.meta.kind != PayloadKind::Raw {
            return Err(corrupt("raw read on typed block file"));
        }
        self.with_block_payload(i, codec::decode_raw_block)
    }

    /// Decode the whole file into one typed array.
    pub fn read_all_typed(&self) -> PdcResult<TypedVec> {
        let PayloadKind::Typed(ty) = self.meta.kind else {
            return Err(corrupt("typed read on raw block file"));
        };
        if self.meta.n_blocks == 1 {
            return self.read_typed_block(0);
        }
        let mut out = TypedVec::with_capacity(ty, self.meta.total as usize);
        for b in 0..self.meta.n_blocks {
            let block = self.read_typed_block(b)?;
            out.extend_from_range(&block, 0..block.len())?;
        }
        Ok(out)
    }

    /// Decode the whole file into one byte vector.
    pub fn read_all_raw(&self) -> PdcResult<Vec<u8>> {
        if self.meta.kind != PayloadKind::Raw {
            return Err(corrupt("raw read on typed block file"));
        }
        let mut out = Vec::with_capacity(self.meta.total as usize);
        for b in 0..self.meta.n_blocks {
            out.extend_from_slice(&self.read_raw_block(b)?);
        }
        Ok(out)
    }

    /// Check every block's frame — lengths, element count and checksum
    /// over the compressed bytes — without decoding it.
    pub fn verify_frames(&self) -> PdcResult<()> {
        (0..self.meta.n_blocks).try_for_each(|b| self.with_block_payload(b, |_, _, _| Ok(())))
    }
}

impl std::fmt::Debug for BlockReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockReader")
            .field("meta", &self.meta)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir();
        dir.join(format!(
            "pdc_blockfile_{}_{}_{tag}.pbf",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").replace("::", "_"),
        ))
    }

    #[test]
    fn typed_roundtrip_multiblock() {
        let tv = TypedVec::Double((0..10_000).map(|i| (i as f64).sin()).collect());
        let path = tmp_path("typed");
        let meta = write_typed(&path, &tv, 1024).unwrap();
        assert_eq!(meta.n_blocks, 10);
        assert_eq!(meta.total, 10_000);
        let r = BlockReader::open(&path).unwrap();
        assert_eq!(r.n_blocks(), 10);
        assert_eq!(r.read_all_typed().unwrap(), tv);
        // Per-block reads agree with slices.
        for b in 0..10u32 {
            let (start, len) = r.block_span(b);
            assert_eq!(
                r.read_typed_block(b).unwrap(),
                tv.slice(start as usize, len as usize)
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn raw_roundtrip() {
        let bytes: Vec<u8> = [vec![0u8; 4000], (0..=255).collect(), vec![7u8; 1000]].concat();
        let path = tmp_path("raw");
        let meta = write_raw(&path, &bytes, 512).unwrap();
        assert!(meta.comp_bytes < meta.raw_bytes);
        let r = BlockReader::open(&path).unwrap();
        assert_eq!(r.read_all_raw().unwrap(), bytes);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn overlap_mapping() {
        let tv = TypedVec::Int32((0..5000).collect());
        let path = tmp_path("overlap");
        write_typed(&path, &tv, 1000).unwrap();
        let r = BlockReader::open(&path).unwrap();
        assert_eq!(r.blocks_overlapping(0, 1), 0..1);
        assert_eq!(r.blocks_overlapping(999, 1001), 0..2);
        assert_eq!(r.blocks_overlapping(1000, 2000), 1..2);
        assert_eq!(r.blocks_overlapping(4999, 100_000), 4..5);
        assert_eq!(r.blocks_overlapping(10, 10), 0..0);
        assert_eq!(r.blocks_overlapping(0, 5000), 0..5);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn overlap_mapping_empty_boundary_and_past_the_end() {
        // The one implementation behind `BlockReader::blocks_overlapping`
        // and `pdc-storage`'s `ColdRegion::blocks_overlapping`.
        let of = |lo, hi| blocks_overlapping(2500, 1000, lo, hi);
        // Empty and inverted ranges.
        assert_eq!(of(0, 0), 0..0);
        assert_eq!(of(1000, 1000), 0..0);
        assert_eq!(of(7, 3), 0..0);
        // Exact block boundaries: `hi` is exclusive, `lo` inclusive.
        assert_eq!(of(0, 1000), 0..1);
        assert_eq!(of(999, 1000), 0..1);
        assert_eq!(of(999, 1001), 0..2);
        assert_eq!(of(1000, 1001), 1..2);
        assert_eq!(of(1000, 2000), 1..2);
        // The short last block, and ranges running past the end.
        assert_eq!(of(2000, 2500), 2..3);
        assert_eq!(of(2499, 2500), 2..3);
        assert_eq!(of(0, 2500), 0..3);
        assert_eq!(of(0, u64::MAX), 0..3);
        assert_eq!(of(2400, 1 << 40), 2..3);
        // Wholly past the end.
        assert_eq!(of(2500, 2501), 0..0);
        assert_eq!(of(3000, u64::MAX), 0..0);
        // An empty payload has no blocks; a total that is a whole number
        // of blocks has no phantom last block.
        assert_eq!(blocks_overlapping(0, 1000, 0, 10), 0..0);
        assert_eq!(blocks_overlapping(2000, 1000, 1999, 5000), 1..2);
        assert_eq!(blocks_overlapping(2000, 1000, 2000, 5000), 0..0);
    }

    #[test]
    fn one_block_file_reads_whole_as_that_block() {
        let tv = TypedVec::UInt32((0..777).map(|i| i * 3).collect());
        let path = tmp_path("oneblock");
        write_typed(&path, &tv, 1024).unwrap();
        let r = BlockReader::open(&path).unwrap();
        assert_eq!(r.n_blocks(), 1);
        assert_eq!(r.read_all_typed().unwrap(), tv);
        assert_eq!(r.read_typed_block(0).unwrap(), tv);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_payload_roundtrip() {
        let path = tmp_path("empty");
        let meta = write_typed(&path, &TypedVec::Double(vec![]), 1024).unwrap();
        assert_eq!(meta.n_blocks, 0);
        let r = BlockReader::open(&path).unwrap();
        assert_eq!(r.read_all_typed().unwrap(), TypedVec::Double(vec![]));
        assert_eq!(r.blocks_overlapping(0, 10), 0..0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn kind_mismatch_is_typed_error() {
        let path = tmp_path("kindmix");
        write_typed(&path, &TypedVec::Int64(vec![1, 2, 3]), 2).unwrap();
        let r = BlockReader::open(&path).unwrap();
        assert!(matches!(r.read_raw_block(0), Err(PdcError::Codec(_))));
        assert!(matches!(r.read_all_raw(), Err(PdcError::Codec(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_typed_error() {
        let err = BlockReader::open(Path::new("/nonexistent/pdc_block_xyz.pbf")).unwrap_err();
        assert!(matches!(err, PdcError::Storage(_)));
    }

    #[test]
    fn verify_all_counts_uncompressed_bytes() {
        let tv = TypedVec::Float(vec![1.0; 300]);
        let path = tmp_path("verify");
        let meta = write_typed(&path, &tv, 128).unwrap();
        let r = BlockReader::open(&path).unwrap();
        // Decoding every block yields the uncompressed size the writer
        // recorded.
        assert_eq!(meta.raw_bytes, 1200);
        assert_eq!(r.read_all_typed().unwrap().size_bytes(), 1200);
        std::fs::remove_file(&path).unwrap();
    }
}
