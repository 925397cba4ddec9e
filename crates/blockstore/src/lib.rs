//! # pdc-blockstore
//!
//! Persistent block-compressed region files and the budgeted block cache
//! — the physical backing for the `StorageTier::Pfs` cold tier.
//!
//! * [`fnv`] — the workspace's checksums: byte-wise streaming FNV-1a 64
//!   (snapshot frames, block-file header + index, context hashes) and the
//!   word-parallel [`BulkFnv`] for the large payloads (block frames,
//!   stored region payloads).
//! * [`codec`] — per-block lightweight compression: byte-shuffle +
//!   PackBits for floats, width reduction for f32-widened doubles,
//!   frame-of-reference / delta bit-packing for integers, PackBits for
//!   raw index bytes. Bit-exact decode (NaN payloads survive).
//! * [`blockfile`] — checksummed block framing with a virtual-offset
//!   block index, so interval reads touch only overlapping blocks.
//! * [`cache`] — byte-budgeted LRU of decoded blocks (admission +
//!   eviction).
//!
//! Simulated time is **never** charged here: the cost model in
//! `pdc-storage` keeps charging tier reads unconditionally, whether a
//! region is physically resident or spilled — this crate only changes
//! where the bytes physically live.
//!
//! Unix only: block files are read with positional reads
//! (`std::os::unix::fs::FileExt::read_exact_at`), which need no shared
//! file cursor and therefore no lock.

#[cfg(not(unix))]
compile_error!(
    "pdc-blockstore needs a unix target: block files are read with \
     std::os::unix::fs::FileExt positional reads"
);

pub mod blockfile;
pub mod cache;
pub mod codec;
pub mod fnv;

pub use blockfile::{
    write_raw, write_typed, BlockFileMeta, BlockReader, PayloadKind, DEFAULT_BLOCK_ELEMS,
};
pub use cache::{BlockCache, BlockCacheStats, BlockKey};
pub use fnv::{bulk_fnv64, fnv1a64, BulkFnv, Fnv1a, FNV_OFFSET, FNV_PRIME};
