//! The backing object store: region payloads on storage tiers.
//!
//! PDC regions "can reside on any layer of the memory/storage hierarchy".
//! The store keeps each region's payload (a typed array for data regions,
//! raw bytes for index files) together with its tier and striped placement
//! across simulated OSTs. The store itself is time-free — callers charge
//! their own [`crate::sim::SimClock`] via the cost model, because the
//! *pattern* of access (aggregated vs. flat, cached vs. not) is a property
//! of the reader, not of the store.

use crate::cache::CacheSlot;
use pdc_blockstore::{blockfile, BlockCache, BlockCacheStats, BlockReader, BulkFnv};
use pdc_types::{
    mix64, with_slice, Bytes, PdcError, PdcResult, PdcType, RegionId, TypedVec, Unpoison,
};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// The most spill-file readers a store keeps open. Reaching it drops every
/// cached reader at once (a whole-map reset, like the servers' index
/// cache), so open descriptors stay bounded by this constant however many
/// regions spill; the `spill_cold` workload spills about 106 regions and
/// E15 412, so neither ever resets.
const MAX_OPEN_SPILL_FILES: usize = 512;

/// Numbers every spill file written in this process: a file's readers are
/// cached under its number, never its path, so the file that replaces a
/// region's spilled payload at the same path is never read through its
/// predecessor's reader. `Relaxed` suffices: the number publishes no other
/// data, and `fetch_add` alone makes it unique.
static NEXT_SPILL_FILE: AtomicU64 = AtomicU64::new(0);

/// Storage tier a region resides on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageTier {
    /// Server DRAM (pre-loaded or cached).
    Dram,
    /// Burst buffer / NVRAM.
    BurstBuffer,
    /// The Lustre-like parallel file system.
    Pfs,
}

impl StorageTier {
    /// Human-readable tier name (used in corruption error context).
    pub fn name(&self) -> &'static str {
        match self {
            StorageTier::Dram => "dram",
            StorageTier::BurstBuffer => "burst-buffer",
            StorageTier::Pfs => "pfs",
        }
    }
}

/// Byte-wise FNV-1a 64 over a byte slice — the checksum of the metadata
/// snapshot frames (`pdc-odms`), whose on-disk format is fixed. Payloads
/// use [`payload_checksum`] instead.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    pdc_blockstore::fnv1a64(bytes)
}

/// Word-parallel checksum ([`BulkFnv`]) over a payload's bytes: the
/// little-endian element image for typed arrays (hashed straight from the
/// elements), the bytes themselves for raw payloads. In-memory only —
/// recorded at `put`/`append_typed`, verified at every `get`, `migrate`
/// and `repair` — and detects every single-bit flip by construction.
pub fn payload_checksum(payload: &StoredPayload) -> u64 {
    let mut h = BulkFnv::new();
    match payload {
        StoredPayload::Typed(v) => with_slice!(&**v, xs => h.update_elems(xs)),
        StoredPayload::Raw(bytes) => h.update(bytes),
    }
    h.finish()
}

/// Deterministically flip one bit of one element/byte of a payload.
/// Returns `None` when the payload is empty (nothing to flip).
fn flipped_payload(payload: &StoredPayload, seed: u64) -> Option<StoredPayload> {
    let r0 = mix64(seed);
    let r1 = mix64(r0);
    match payload {
        StoredPayload::Typed(v) => {
            let len = v.len();
            if len == 0 {
                return None;
            }
            let idx = (r0 % len as u64) as usize;
            let mut copy = (**v).clone();
            match &mut copy {
                TypedVec::Float(xs) => {
                    xs[idx] = f32::from_bits(xs[idx].to_bits() ^ (1 << (r1 % 32)));
                }
                TypedVec::Double(xs) => {
                    xs[idx] = f64::from_bits(xs[idx].to_bits() ^ (1 << (r1 % 64)));
                }
                TypedVec::Int32(xs) => xs[idx] ^= 1 << (r1 % 32),
                TypedVec::UInt32(xs) => xs[idx] ^= 1 << (r1 % 32),
                TypedVec::Int64(xs) => xs[idx] ^= 1 << (r1 % 64),
                TypedVec::UInt64(xs) => xs[idx] ^= 1 << (r1 % 64),
            }
            Some(StoredPayload::Typed(Arc::new(copy)))
        }
        StoredPayload::Raw(bytes) => {
            if bytes.is_empty() {
                return None;
            }
            let idx = (r0 % bytes.len() as u64) as usize;
            let mut copy = bytes.to_vec();
            copy[idx] ^= 1 << (r1 % 8);
            Some(StoredPayload::Raw(Bytes::from(copy)))
        }
    }
}

/// The seed that picks the flip site when [`ObjectStore::corrupt`] is
/// called on `id` with `seed`.
fn site_seed(id: RegionId, seed: u64) -> u64 {
    seed ^ id.object.raw().rotate_left(32) ^ id.index as u64
}

/// The byte offset (below `len`) and bit that [`corrupt_block_file`] flips
/// for `seed`.
fn flip_site(seed: u64, len: usize) -> (usize, u32) {
    let r0 = mix64(seed);
    ((r0 % len as u64) as usize, (mix64(r0) % 8) as u32)
}

/// Deterministically flip one bit of a spilled region's block file,
/// stashing a pristine sibling copy first (the on-disk analogue of the
/// in-memory `pristine` stash). The flip site can land anywhere in the
/// file — payload, frame header, index, or footer — and every one of
/// those is covered by a checksum, so the next fault-in detects it.
fn corrupt_block_file(path: &Path, seed: u64) -> PdcResult<()> {
    let io = |e: std::io::Error| PdcError::Storage(format!("spill corrupt {}: {e}", path.display()));
    let mut bytes = std::fs::read(path).map_err(io)?;
    if bytes.is_empty() {
        return Err(PdcError::Storage(format!("spill file {} is empty", path.display())));
    }
    let orig = orig_path(path);
    if !orig.exists() {
        std::fs::copy(path, &orig).map_err(io)?;
    }
    let (idx, bit) = flip_site(seed, bytes.len());
    bytes[idx] ^= 1 << bit;
    std::fs::write(path, &bytes).map_err(io)?;
    Ok(())
}

/// A region's payload.
#[derive(Debug, Clone)]
pub enum StoredPayload {
    /// Array data (shared, immutable once written).
    Typed(Arc<TypedVec>),
    /// Opaque bytes (serialized index files, metadata snapshots).
    Raw(Bytes),
}

impl StoredPayload {
    /// Payload size in bytes.
    pub fn size_bytes(&self) -> u64 {
        match self {
            StoredPayload::Typed(v) => v.size_bytes(),
            StoredPayload::Raw(b) => b.len() as u64,
        }
    }
}

/// Where a region's payload physically lives.
///
/// Residency is invisible to simulated time: a region's tier, checksum,
/// and every cost charge are identical whether its payload is held in
/// memory or demoted to a block-compressed spill file. Only host-side
/// spill statistics observe the difference.
#[derive(Debug, Clone)]
enum Residency {
    /// Payload held in memory.
    Resident(StoredPayload),
    /// Payload demoted to a block-compressed file on disk.
    Spilled(ColdHandle),
}

/// Element shape of a spilled payload.
#[derive(Debug, Clone, Copy)]
enum ColdKind {
    Typed { ty: PdcType, elems: u64, block_elems: u32 },
    Raw,
}

/// Durable location + shape of a spilled payload.
#[derive(Debug, Clone)]
struct ColdHandle {
    path: PathBuf,
    /// The file's number from `NEXT_SPILL_FILE`: the key of its cached
    /// reader.
    file: u64,
    kind: ColdKind,
    /// Uncompressed payload bytes — the size every simulated charge and
    /// capacity decision keeps using after demotion.
    raw_bytes: u64,
    /// Compressed on-disk bytes (host-side accounting only).
    comp_bytes: u64,
}

#[derive(Debug, Clone)]
struct StoredRegion {
    res: Residency,
    tier: StorageTier,
    ost: u32,
    /// [`payload_checksum`] of the payload, computed at `put` time.
    checksum: u64,
    /// The last-known-good payload, stashed when corruption is injected.
    /// Models the durable PFS copy a real deployment re-reads to repair a
    /// bad replica; `None` means no verified fallback exists. Spilled
    /// regions keep their pristine copy as a sibling `.orig` file instead.
    pristine: Option<StoredPayload>,
}

impl StoredRegion {
    /// Logical (uncompressed) payload size, independent of residency.
    fn size_bytes(&self) -> u64 {
        match &self.res {
            Residency::Resident(p) => p.size_bytes(),
            Residency::Spilled(h) => h.raw_bytes,
        }
    }
}

/// The sibling path holding a spilled region's pristine copy while its
/// primary block file carries injected corruption.
fn orig_path(path: &Path) -> PathBuf {
    path.with_extension("pbf.orig")
}

/// The `(object token, region index)` pair used as the block-cache
/// region prefix for `id`.
fn cache_token(id: RegionId) -> (u64, u32) {
    (id.object.raw(), id.index)
}

/// Decode a spilled payload in full (transient — the store copy stays
/// cold and the block cache is not populated by whole-region reads).
fn decode_whole(reader: &BlockReader, kind: ColdKind) -> PdcResult<StoredPayload> {
    match kind {
        ColdKind::Typed { .. } => Ok(StoredPayload::Typed(Arc::new(reader.read_all_typed()?))),
        ColdKind::Raw => Ok(StoredPayload::Raw(Bytes::from(reader.read_all_raw()?))),
    }
}

/// Host-side accounting for the spill subsystem.
#[derive(Debug, Default, Clone, Copy)]
struct SpillAcct {
    resident_bytes: u64,
    high_water: u64,
    demotions: u64,
    fault_ins: u64,
    spilled_regions: u64,
    spilled_raw_bytes: u64,
    spilled_comp_bytes: u64,
    file_opens: u64,
}

#[derive(Debug, Default)]
struct SpillTicks {
    tick: u64,
    last_use: HashMap<RegionId, u64>,
}

/// Spill configuration + accounting, present once out-of-core mode is
/// enabled via [`ObjectStore::configure_spill`].
#[derive(Debug)]
struct SpillState {
    dir: PathBuf,
    memory_budget: u64,
    block_cache: Arc<BlockCache>,
    /// The opened, header- and index-verified reader of each spill file
    /// read since its last change, keyed by `ColdHandle::file`; at most
    /// [`MAX_OPEN_SPILL_FILES`] of them.
    readers: Mutex<HashMap<u64, Arc<BlockReader>>>,
    acct: Mutex<SpillAcct>,
    /// Access recency driving LRU demotion order (separate from the
    /// region map so reads only take this one small lock).
    ticks: Mutex<SpillTicks>,
}

impl SpillState {
    fn add_resident(&self, bytes: u64) {
        self.acct.lock().unpoisoned().resident_bytes += bytes;
    }

    fn sub_resident(&self, bytes: u64) {
        let mut a = self.acct.lock().unpoisoned();
        a.resident_bytes = a.resident_bytes.saturating_sub(bytes);
    }

    /// Record the settled resident footprint (called after budget
    /// enforcement, so the high-water mark reflects steady state rather
    /// than the unavoidable transient while a payload is being demoted).
    fn note_high_water(&self) {
        let mut a = self.acct.lock().unpoisoned();
        if a.resident_bytes > a.high_water {
            a.high_water = a.resident_bytes;
        }
    }

    /// Open a spill file, counting the open.
    fn open(&self, path: &Path) -> PdcResult<BlockReader> {
        self.acct.lock().unpoisoned().file_opens += 1;
        BlockReader::open(path)
    }

    /// The reader of `h`'s file: opened and verified on the first read,
    /// then shared by every later read until [`Self::forget`] (or the
    /// bound's reset) drops it. The open happens under the table's lock,
    /// so concurrent first reads open the file once.
    fn reader(&self, h: &ColdHandle) -> PdcResult<Arc<BlockReader>> {
        let mut readers = self.readers.lock().unpoisoned();
        if let Some(r) = readers.get(&h.file) {
            return Ok(Arc::clone(r));
        }
        let r = Arc::new(self.open(&h.path)?);
        if readers.len() >= MAX_OPEN_SPILL_FILES {
            readers.clear();
        }
        readers.insert(h.file, Arc::clone(&r));
        Ok(r)
    }

    /// Drop the decoded blocks and the reader of a spilled region whose
    /// file changed (`corrupt`, `repair`) or is gone (`put`, `remove`), so
    /// its next read opens and verifies the file afresh.
    fn forget(&self, h: &ColdHandle, token: (u64, u32)) {
        self.block_cache.invalidate_region(token);
        self.readers.lock().unpoisoned().remove(&h.file);
    }

    /// Forget a spilled region: delete its files, drop its cached blocks
    /// and reader, and roll its bytes out of the spill accounting.
    fn drop_spilled(&self, h: &ColdHandle, token: (u64, u32)) {
        let _ = std::fs::remove_file(&h.path);
        let _ = std::fs::remove_file(orig_path(&h.path));
        self.forget(h, token);
        let mut a = self.acct.lock().unpoisoned();
        a.spilled_regions = a.spilled_regions.saturating_sub(1);
        a.spilled_raw_bytes = a.spilled_raw_bytes.saturating_sub(h.raw_bytes);
        a.spilled_comp_bytes = a.spilled_comp_bytes.saturating_sub(h.comp_bytes);
    }
}

/// Snapshot of the spill subsystem's host-side statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpillStats {
    /// Uncompressed bytes currently held in memory.
    pub resident_bytes: u64,
    /// Settled high-water mark of `resident_bytes`.
    pub resident_high_water: u64,
    /// Regions demoted to disk since spill was configured.
    pub demotions: u64,
    /// Whole-region materializations of spilled payloads.
    pub fault_ins: u64,
    /// Regions currently spilled.
    pub spilled_regions: u64,
    /// Uncompressed bytes of currently spilled regions.
    pub spilled_raw_bytes: u64,
    /// On-disk (compressed) bytes of currently spilled regions.
    pub spilled_comp_bytes: u64,
    /// Decoded-block cache statistics.
    pub block_cache: BlockCacheStats,
    /// Decoded-block cache residency in bytes.
    pub block_cache_bytes: u64,
    /// Spill files opened: once by each demotion's round-trip check, then
    /// once by the first read after the file was written or changed.
    pub block_file_opens: u64,
}

impl SpillStats {
    /// Compression ratio over currently spilled regions (uncompressed /
    /// on-disk); 1.0 when nothing is spilled.
    pub fn compression_ratio(&self) -> f64 {
        if self.spilled_comp_bytes == 0 {
            1.0
        } else {
            self.spilled_raw_bytes as f64 / self.spilled_comp_bytes as f64
        }
    }
}

/// A read handle over a spilled region's block file: per-block decode
/// through the shared budgeted block cache, so an interval scan touches
/// only the blocks its intervals overlap and never materializes the
/// whole region.
#[derive(Clone)]
pub struct ColdRegion {
    id: RegionId,
    handle: ColdHandle,
    ty: PdcType,
    elems: u64,
    block_elems: u32,
    /// The store's spill state: its block cache, and the reader the store
    /// keeps open for this file, which every handle on the file shares.
    spill: Arc<SpillState>,
}

impl std::fmt::Debug for ColdRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColdRegion")
            .field("id", &self.id)
            .field("path", &self.handle.path)
            .field("ty", &self.ty)
            .field("elems", &self.elems)
            .field("block_elems", &self.block_elems)
            .finish()
    }
}

impl ColdRegion {
    /// The region this handle reads.
    pub fn id(&self) -> RegionId {
        self.id
    }

    /// Element count.
    pub fn len(&self) -> u64 {
        self.elems
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.elems == 0
    }

    /// Element type.
    pub fn pdc_type(&self) -> PdcType {
        self.ty
    }

    /// Uncompressed payload size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.handle.raw_bytes
    }

    /// Elements per block (last block may be short).
    pub fn block_elems(&self) -> u32 {
        self.block_elems
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> u32 {
        if self.elems == 0 {
            0
        } else {
            self.elems.div_ceil(self.block_elems as u64) as u32
        }
    }

    /// Element span `[start, end)` of block `b`.
    pub fn block_span(&self, b: u32) -> (u64, u64) {
        let start = b as u64 * self.block_elems as u64;
        let end = (start + self.block_elems as u64).min(self.elems);
        (start, end)
    }

    /// Blocks whose element spans intersect `[lo, hi)`.
    pub fn blocks_overlapping(&self, lo: u64, hi: u64) -> std::ops::Range<u32> {
        blockfile::blocks_overlapping(self.elems, self.block_elems, lo, hi)
    }

    fn reader(&self) -> PdcResult<Arc<BlockReader>> {
        self.spill.reader(&self.handle)
    }

    /// Decode block `b`, serving from the shared block cache when hot.
    /// Every decoded frame is checksum-verified by the block reader.
    pub fn read_block(&self, b: u32) -> PdcResult<Arc<TypedVec>> {
        let key = (self.id.object.raw(), self.id.index, b);
        if let Some(hit) = self.spill.block_cache.get(key) {
            return Ok(hit);
        }
        let block = Arc::new(self.reader()?.read_typed_block(b)?);
        self.spill.block_cache.put(key, Arc::clone(&block));
        Ok(block)
    }
}

/// A typed region's data, read block by block wherever it lives. A
/// resident payload is one already-decoded block spanning `[0, len)`; a
/// spilled region is its [`ColdRegion`], decoding one frame-checked block
/// at a time through the shared block cache. Readers walk blocks and never
/// ask which of the two they hold.
#[derive(Debug, Clone)]
pub struct BlockView(Blocks);

#[derive(Debug, Clone)]
enum Blocks {
    Decoded(Arc<TypedVec>),
    Cold(ColdRegion),
}

impl From<Arc<TypedVec>> for BlockView {
    fn from(payload: Arc<TypedVec>) -> Self {
        BlockView(Blocks::Decoded(payload))
    }
}

impl From<ColdRegion> for BlockView {
    fn from(cold: ColdRegion) -> Self {
        BlockView(Blocks::Cold(cold))
    }
}

impl BlockView {
    /// Element count.
    pub fn len(&self) -> u64 {
        match &self.0 {
            Blocks::Decoded(p) => p.len() as u64,
            Blocks::Cold(c) => c.len(),
        }
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of blocks (a resident payload is one, unless empty).
    pub fn n_blocks(&self) -> u32 {
        match &self.0 {
            Blocks::Decoded(p) => u32::from(!p.is_empty()),
            Blocks::Cold(c) => c.n_blocks(),
        }
    }

    /// Element span `[start, end)` of block `b`.
    pub fn block_span(&self, b: u32) -> (u64, u64) {
        match &self.0 {
            Blocks::Decoded(p) => (0, p.len() as u64),
            Blocks::Cold(c) => c.block_span(b),
        }
    }

    /// Blocks whose element spans intersect `[lo, hi)`.
    pub fn blocks_overlapping(&self, lo: u64, hi: u64) -> std::ops::Range<u32> {
        match &self.0 {
            Blocks::Decoded(p) => 0..u32::from(lo < hi.min(p.len() as u64)),
            Blocks::Cold(c) => c.blocks_overlapping(lo, hi),
        }
    }

    /// Block `b`: the resident payload itself, or a spilled block decoded
    /// (frame-checked) through the block cache.
    pub fn read_block(&self, b: u32) -> PdcResult<Arc<TypedVec>> {
        match &self.0 {
            Blocks::Decoded(p) => Ok(Arc::clone(p)),
            Blocks::Cold(c) => c.read_block(b),
        }
    }

    /// Check every block's frame without decoding it or touching the
    /// block cache — with the round trip `demote` verified, a spilled
    /// region whose frames all check holds its recorded payload. A
    /// resident payload was checksum-verified when it was read.
    pub fn check(&self) -> PdcResult<()> {
        match &self.0 {
            Blocks::Decoded(_) => Ok(()),
            Blocks::Cold(c) => c.reader()?.verify_frames(),
        }
    }

    /// The region-cache slot this read seeds: a resident payload pins
    /// its decoded bytes, a spilled region takes a cold slot of the same
    /// byte footprint and element count, so admission and eviction never
    /// depend on residency and no decoded spilled bytes are pinned.
    pub fn cache_slot(&self) -> CacheSlot {
        match &self.0 {
            Blocks::Decoded(p) => CacheSlot::Hot(Arc::clone(p)),
            Blocks::Cold(c) => CacheSlot::Cold { bytes: c.size_bytes(), elems: c.len() },
        }
    }
}

/// The shared object store.
///
/// Thread-safe: servers read concurrently; imports write up front.
/// Every `get` re-derives the payload checksum and compares it against
/// the one recorded at `put`; a mismatch quarantines the region and
/// surfaces as [`PdcError::CorruptRegion`] with the tier it was found on.
#[derive(Debug, Default)]
pub struct ObjectStore {
    regions: RwLock<HashMap<RegionId, StoredRegion>>,
    quarantine: RwLock<HashSet<RegionId>>,
    /// Regions whose payload has reached its final extent. Sealing guards
    /// the streaming-ingest append path only: `append_typed` refuses a
    /// sealed region, while `put` (a wholesale rewrite) and `remove` start
    /// the region's life over and clear the mark.
    sealed: RwLock<HashSet<RegionId>>,
    num_osts: u32,
    /// Out-of-core spill state; `None` until
    /// [`ObjectStore::configure_spill`] enables demotion.
    spill: RwLock<Option<Arc<SpillState>>>,
}

impl ObjectStore {
    /// A store striped over `num_osts` simulated OSTs.
    pub fn new(num_osts: u32) -> Self {
        Self {
            regions: RwLock::new(HashMap::new()),
            quarantine: RwLock::new(HashSet::new()),
            sealed: RwLock::new(HashSet::new()),
            num_osts: num_osts.max(1),
            spill: RwLock::new(None),
        }
    }

    fn spill_state(&self) -> Option<Arc<SpillState>> {
        self.spill.read().unpoisoned().clone()
    }

    /// Bump the access tick used for LRU demotion ordering (no-op when
    /// spill is disabled).
    fn touch(&self, id: RegionId) {
        if let Some(s) = self.spill_state() {
            let mut t = s.ticks.lock().unpoisoned();
            t.tick += 1;
            let tick = t.tick;
            t.last_use.insert(id, tick);
        }
    }

    /// Number of simulated OSTs.
    pub fn num_osts(&self) -> u32 {
        self.num_osts
    }

    /// Insert (or replace) a region payload on a tier. Placement is
    /// round-robin by region index — PDC "automatically distributes the
    /// data across the parallel file system's storage devices".
    pub fn put(&self, id: RegionId, payload: StoredPayload, tier: StorageTier) {
        let ost = (id.index + id.object.raw() as u32) % self.num_osts;
        let checksum = payload_checksum(&payload);
        let new_bytes = payload.size_bytes();
        let old = self.regions.write().unpoisoned().insert(
            id,
            StoredRegion { res: Residency::Resident(payload), tier, ost, checksum, pristine: None },
        );
        self.quarantine.write().unpoisoned().remove(&id);
        self.sealed.write().unpoisoned().remove(&id);
        if let Some(s) = self.spill_state() {
            match old.map(|r| r.res) {
                Some(Residency::Resident(p)) => s.sub_resident(p.size_bytes()),
                Some(Residency::Spilled(h)) => s.drop_spilled(&h, cache_token(id)),
                None => {}
            }
            s.add_resident(new_bytes);
            self.touch(id);
        }
        // Best-effort: writes stay within budget as sealed regions demote.
        let _ = self.enforce_budget();
    }

    /// Extend a typed region's payload with `delta` (streaming ingest).
    ///
    /// The existing prefix is never rewritten — appended elements only ever
    /// grow the tail — so a reader holding a plan-time span can scan the
    /// first `span.len` elements of a grown payload and observe exactly the
    /// bytes that were present when its snapshot was taken. Refuses sealed
    /// regions, raw payloads, element-type mismatches, and payloads that
    /// fail checksum verification (appending to a corrupt copy would
    /// launder the corruption into a fresh checksum). Returns the new
    /// element count.
    pub fn append_typed(&self, id: RegionId, delta: &TypedVec) -> PdcResult<u64> {
        if self.is_sealed(id) {
            return Err(PdcError::Storage(format!("region {id} is sealed against appends")));
        }
        let mut map = self.regions.write().unpoisoned();
        let r = map.get_mut(&id).ok_or(PdcError::NoSuchRegion(id))?;
        let old_bytes = r.size_bytes();
        let grown = match &r.res {
            Residency::Resident(StoredPayload::Typed(v)) => {
                if v.pdc_type() != delta.pdc_type() {
                    return Err(PdcError::Storage(format!(
                        "append type mismatch on {id}: region holds {:?}, delta is {:?}",
                        v.pdc_type(),
                        delta.pdc_type()
                    )));
                }
                if payload_checksum(&StoredPayload::Typed(Arc::clone(v))) != r.checksum {
                    let found_on = r.tier;
                    drop(map);
                    self.quarantine.write().unpoisoned().insert(id);
                    return Err(PdcError::CorruptRegion {
                        region: id,
                        tier: found_on.name().into(),
                    });
                }
                let mut grown = (**v).clone();
                grown.extend_from_range(delta, 0..delta.len())?;
                grown
            }
            Residency::Resident(StoredPayload::Raw(_)) => {
                return Err(PdcError::Storage(format!(
                    "region {id} holds raw bytes; append requires typed data"
                )))
            }
            // Only sealed regions ever demote, and sealed regions were
            // refused above — defend anyway so the invariant is local.
            Residency::Spilled(_) => {
                return Err(PdcError::Storage(format!(
                    "region {id} is spilled (sealed) and cannot accept appends"
                )))
            }
        };
        let new_len = grown.len() as u64;
        let payload = StoredPayload::Typed(Arc::new(grown));
        r.checksum = payload_checksum(&payload);
        let new_bytes = payload.size_bytes();
        r.res = Residency::Resident(payload);
        // Any stashed pristine copy predates the append and no longer
        // matches the recorded checksum; drop it rather than let a later
        // repair "restore" a truncated payload.
        r.pristine = None;
        drop(map);
        if let Some(s) = self.spill_state() {
            s.sub_resident(old_bytes);
            s.add_resident(new_bytes);
            self.touch(id);
        }
        let _ = self.enforce_budget();
        Ok(new_len)
    }

    /// Mark a region as sealed: its payload has reached final extent and
    /// further `append_typed` calls must fail. Sealing is idempotent and
    /// metadata-only: the readable bytes are unchanged.
    pub fn seal(&self, id: RegionId) -> PdcResult<()> {
        if !self.contains(id) {
            return Err(PdcError::NoSuchRegion(id));
        }
        self.sealed.write().unpoisoned().insert(id);
        // Sealing makes the region demotable; spill immediately if the
        // resident footprint is over budget. The high-water mark samples
        // resident bytes here — seal boundaries are the points where the
        // budget is enforceable (an open region is pinned by ingest
        // itself, so its transient footprint is charged to the writer).
        self.enforce_budget()?;
        if let Some(s) = self.spill_state() {
            s.note_high_water();
        }
        Ok(())
    }

    /// Whether a region has been sealed against appends.
    pub fn is_sealed(&self, id: RegionId) -> bool {
        self.sealed.read().unpoisoned().contains(&id)
    }

    /// Fetch a region's payload and tier, verifying the payload checksum
    /// recorded at `put`. A mismatch quarantines the region and reports
    /// the tier the corrupt copy was found on.
    pub fn get(&self, id: RegionId) -> PdcResult<(StoredPayload, StorageTier)> {
        self.touch(id);
        let (res, tier, checksum) = self
            .regions
            .read().unpoisoned()
            .get(&id)
            .map(|r| (r.res.clone(), r.tier, r.checksum))
            .ok_or(PdcError::NoSuchRegion(id))?;
        let payload = match res {
            Residency::Resident(p) => p,
            Residency::Spilled(h) => self.fault_in(id, &h, tier)?,
        };
        if payload_checksum(&payload) != checksum {
            self.quarantine.write().unpoisoned().insert(id);
            return Err(PdcError::CorruptRegion { region: id, tier: tier.name().into() });
        }
        Ok((payload, tier))
    }

    /// Materialize a spilled payload from its block file. Any failure —
    /// torn file, bad frame checksum, hostile index — quarantines the
    /// region and surfaces as [`PdcError::CorruptRegion`], exactly like a
    /// resident checksum mismatch, so the verify-and-fallback repair lane
    /// handles both identically.
    fn fault_in(&self, id: RegionId, h: &ColdHandle, tier: StorageTier) -> PdcResult<StoredPayload> {
        match self.materialize(h) {
            Ok(p) => {
                if let Some(s) = self.spill_state() {
                    s.acct.lock().unpoisoned().fault_ins += 1;
                }
                Ok(p)
            }
            Err(_) => {
                self.quarantine.write().unpoisoned().insert(id);
                Err(PdcError::CorruptRegion { region: id, tier: tier.name().into() })
            }
        }
    }

    /// Decode a spilled payload in full through its file's cached reader.
    fn materialize(&self, h: &ColdHandle) -> PdcResult<StoredPayload> {
        let s = self.spill_state().ok_or_else(|| PdcError::Storage("spill is off".into()))?;
        decode_whole(&*s.reader(h)?, h.kind)
    }

    /// Size in bytes of a region's payload, without any verification,
    /// tier charge, or access bookkeeping — a host-side metadata peek for
    /// planners ranking operators before deciding what to read.
    pub fn payload_size(&self, id: RegionId) -> Option<u64> {
        self.regions.read().unpoisoned().get(&id).map(|r| r.size_bytes())
    }

    /// Fetch a typed-array region (most callers).
    pub fn get_typed(&self, id: RegionId) -> PdcResult<Arc<TypedVec>> {
        match self.get(id)? {
            (StoredPayload::Typed(v), _) => Ok(v),
            (StoredPayload::Raw(_), _) => {
                Err(PdcError::Storage(format!("region {id} holds raw bytes, not typed data")))
            }
        }
    }

    /// Fetch a raw-bytes region (index files).
    pub fn get_raw(&self, id: RegionId) -> PdcResult<Bytes> {
        match self.get(id)? {
            (StoredPayload::Raw(b), _) => Ok(b),
            (StoredPayload::Typed(_), _) => {
                Err(PdcError::Storage(format!("region {id} holds typed data, not raw bytes")))
            }
        }
    }

    /// The simulated OST a region is placed on.
    pub fn ost_of(&self, id: RegionId) -> PdcResult<u32> {
        self.regions.read().unpoisoned().get(&id).map(|r| r.ost).ok_or(PdcError::NoSuchRegion(id))
    }

    /// Whether a region exists.
    pub fn contains(&self, id: RegionId) -> bool {
        self.regions.read().unpoisoned().contains_key(&id)
    }

    /// Remove a region; returns whether it existed. Also clears any
    /// quarantine entry so a later `put` at the same id starts clean.
    pub fn remove(&self, id: RegionId) -> bool {
        self.quarantine.write().unpoisoned().remove(&id);
        self.sealed.write().unpoisoned().remove(&id);
        let old = self.regions.write().unpoisoned().remove(&id);
        let existed = old.is_some();
        if let (Some(r), Some(s)) = (old, self.spill_state()) {
            match r.res {
                Residency::Resident(p) => s.sub_resident(p.size_bytes()),
                Residency::Spilled(h) => s.drop_spilled(&h, cache_token(id)),
            }
            s.ticks.lock().unpoisoned().last_use.remove(&id);
        }
        existed
    }

    /// Move a region to a different tier (data movement across the
    /// hierarchy). The payload is verified before it moves — migrating a
    /// corrupt copy would spread it. Returns the payload size moved.
    pub fn migrate(&self, id: RegionId, tier: StorageTier) -> PdcResult<u64> {
        let mut map = self.regions.write().unpoisoned();
        let r = map.get_mut(&id).ok_or(PdcError::NoSuchRegion(id))?;
        let verified = match &r.res {
            Residency::Resident(p) => payload_checksum(p) == r.checksum,
            Residency::Spilled(h) => self
                .materialize(h)
                .map(|p| payload_checksum(&p) == r.checksum)
                .unwrap_or(false),
        };
        if !verified {
            let found_on = r.tier;
            drop(map);
            self.quarantine.write().unpoisoned().insert(id);
            return Err(PdcError::CorruptRegion { region: id, tier: found_on.name().into() });
        }
        r.tier = tier;
        let bytes = r.size_bytes();
        drop(map);
        Ok(bytes)
    }

    /// Deterministically corrupt a region in place: flip one bit of the
    /// stored payload (site chosen from `seed`), keeping the previous
    /// payload as the pristine durable copy for [`ObjectStore::repair`].
    /// Empty payloads are left untouched. Returns whether a bit flipped.
    pub fn corrupt(&self, id: RegionId, seed: u64) -> PdcResult<bool> {
        let mut map = self.regions.write().unpoisoned();
        let r = map.get_mut(&id).ok_or(PdcError::NoSuchRegion(id))?;
        let site = site_seed(id, seed);
        match &r.res {
            Residency::Resident(p) => match flipped_payload(p, site) {
                Some(bad) => {
                    if r.pristine.is_none() {
                        r.pristine = Some(p.clone());
                    }
                    r.res = Residency::Resident(bad);
                    drop(map);
                    Ok(true)
                }
                None => Ok(false),
            },
            Residency::Spilled(h) => {
                // Empty payloads cannot be corrupted — parity with the
                // resident path (the block file's framing bytes are not
                // payload).
                if h.raw_bytes == 0 {
                    return Ok(false);
                }
                let h = h.clone();
                corrupt_block_file(&h.path, site)?;
                drop(map);
                if let Some(s) = self.spill_state() {
                    s.forget(&h, cache_token(id));
                }
                Ok(true)
            }
        }
    }

    /// Restore a quarantined region from its pristine durable copy
    /// (models re-reading the authoritative PFS copy). Clears the
    /// quarantine mark and returns the number of bytes re-read. Errors
    /// with [`PdcError::CorruptRegion`] when no pristine copy exists.
    pub fn repair(&self, id: RegionId) -> PdcResult<u64> {
        let mut map = self.regions.write().unpoisoned();
        let r = map.get_mut(&id).ok_or(PdcError::NoSuchRegion(id))?;
        let tier = r.tier;
        let bytes = match &r.res {
            Residency::Resident(_) => {
                let Some(pristine) = r.pristine.take() else {
                    return Err(PdcError::CorruptRegion { region: id, tier: tier.name().into() });
                };
                if payload_checksum(&pristine) != r.checksum {
                    // The "durable" copy is bad too: keep the region quarantined.
                    r.pristine = Some(pristine);
                    drop(map);
                    return Err(PdcError::CorruptRegion { region: id, tier: tier.name().into() });
                }
                let bytes = pristine.size_bytes();
                r.res = Residency::Resident(pristine);
                bytes
            }
            Residency::Spilled(h) => {
                // The pristine copy lives in the sibling `.orig` file.
                let orig = orig_path(&h.path);
                if !orig.exists() {
                    return Err(PdcError::CorruptRegion { region: id, tier: tier.name().into() });
                }
                std::fs::copy(&orig, &h.path).map_err(|e| {
                    PdcError::Storage(format!("spill repair {}: {e}", h.path.display()))
                })?;
                // The restored bytes are read through a fresh open.
                if let Some(s) = self.spill_state() {
                    s.forget(h, cache_token(id));
                }
                // Verify the restored file decodes to the recorded
                // checksum; if not, leave the `.orig` marker in place and
                // stay quarantined.
                let ok = self
                    .materialize(h)
                    .map(|p| payload_checksum(&p) == r.checksum)
                    .unwrap_or(false);
                if !ok {
                    drop(map);
                    return Err(PdcError::CorruptRegion { region: id, tier: tier.name().into() });
                }
                let _ = std::fs::remove_file(&orig);
                let bytes = h.raw_bytes;
                drop(map);
                self.quarantine.write().unpoisoned().remove(&id);
                return Ok(bytes);
            }
        };
        drop(map);
        self.quarantine.write().unpoisoned().remove(&id);
        Ok(bytes)
    }

    /// Whether a region has failed checksum verification and not yet been
    /// repaired or replaced.
    pub fn is_quarantined(&self, id: RegionId) -> bool {
        self.quarantine.read().unpoisoned().contains(&id)
    }

    /// All currently quarantined regions (sorted for determinism).
    pub fn quarantined(&self) -> Vec<RegionId> {
        let mut out: Vec<RegionId> = self.quarantine.read().unpoisoned().iter().copied().collect();
        out.sort();
        out
    }

    /// Re-derive and verify a region's checksum without returning the
    /// payload. Quarantines on mismatch, like [`ObjectStore::get`].
    pub fn verify(&self, id: RegionId) -> PdcResult<()> {
        self.get(id).map(|_| ())
    }

    /// The storage tier a region is placed on. Pure metadata — residency
    /// (resident vs spilled) never changes a region's tier.
    pub fn tier_of(&self, id: RegionId) -> PdcResult<StorageTier> {
        self.regions.read().unpoisoned().get(&id).map(|r| r.tier).ok_or(PdcError::NoSuchRegion(id))
    }

    /// Total stored bytes per tier.
    pub fn bytes_by_tier(&self) -> HashMap<StorageTier, u64> {
        let mut out = HashMap::new();
        for r in self.regions.read().unpoisoned().values() {
            *out.entry(r.tier).or_insert(0) += r.size_bytes();
        }
        out
    }

    /// Number of stored regions.
    pub fn num_regions(&self) -> usize {
        self.regions.read().unpoisoned().len()
    }

    // ------------------------------------------------------------------
    // Out-of-core spill: demotion under a byte budget, block-level reads.
    // ------------------------------------------------------------------

    /// Enable out-of-core mode: sealed regions demote to block-compressed
    /// files under `dir` whenever the resident footprint exceeds
    /// `memory_budget` bytes; decoded blocks of spilled regions are served
    /// through a shared cache of at most `block_cache_bytes`.
    ///
    /// Spilling is physically real but simulation-invisible: tiers,
    /// checksums, and cost charges never depend on residency.
    pub fn configure_spill(
        &self,
        dir: &Path,
        memory_budget: u64,
        block_cache_bytes: u64,
    ) -> PdcResult<()> {
        std::fs::create_dir_all(dir)
            .map_err(|e| PdcError::Storage(format!("spill dir {}: {e}", dir.display())))?;
        let resident: u64 = self
            .regions
            .read().unpoisoned()
            .values()
            .map(|r| match &r.res {
                Residency::Resident(p) => p.size_bytes(),
                Residency::Spilled(_) => 0,
            })
            .sum();
        // Reconfiguring keeps cumulative counters and access recency;
        // only the budget, directory, and (fresh) block cache change.
        let prev = self.spill_state();
        let mut acct = prev.as_ref().map(|p| *p.acct.lock().unpoisoned()).unwrap_or_default();
        acct.resident_bytes = resident;
        acct.high_water = 0;
        let ticks = prev
            .as_ref()
            .map(|p| std::mem::take(&mut *p.ticks.lock().unpoisoned()))
            .unwrap_or_default();
        let state = SpillState {
            dir: dir.to_path_buf(),
            memory_budget,
            block_cache: Arc::new(BlockCache::new(block_cache_bytes)),
            readers: Mutex::new(HashMap::new()),
            acct: Mutex::new(acct),
            ticks: Mutex::new(ticks),
        };
        *self.spill.write().unpoisoned() = Some(Arc::new(state));
        self.enforce_budget()?;
        if let Some(s) = self.spill_state() {
            s.note_high_water();
        }
        Ok(())
    }

    /// Whether out-of-core mode is enabled.
    pub fn spill_enabled(&self) -> bool {
        self.spill.read().unpoisoned().is_some()
    }

    /// The configured memory budget, if spill is enabled.
    pub fn memory_budget(&self) -> Option<u64> {
        self.spill_state().map(|s| s.memory_budget)
    }

    /// Whether a region's payload currently lives on disk.
    pub fn is_spilled(&self, id: RegionId) -> bool {
        self.regions
            .read().unpoisoned()
            .get(&id)
            .map(|r| matches!(r.res, Residency::Spilled(_)))
            .unwrap_or(false)
    }

    /// Host-side spill statistics (None when spill is disabled).
    pub fn spill_stats(&self) -> Option<SpillStats> {
        let s = self.spill_state()?;
        let a = *s.acct.lock().unpoisoned();
        Some(SpillStats {
            resident_bytes: a.resident_bytes,
            resident_high_water: a.high_water,
            demotions: a.demotions,
            fault_ins: a.fault_ins,
            spilled_regions: a.spilled_regions,
            spilled_raw_bytes: a.spilled_raw_bytes,
            spilled_comp_bytes: a.spilled_comp_bytes,
            block_cache: s.block_cache.stats(),
            block_cache_bytes: s.block_cache.used_bytes(),
            block_file_opens: a.file_opens,
        })
    }

    /// A block-granular read handle for a spilled typed region, or `None`
    /// when the region is resident, raw, missing, or spill is disabled.
    /// Region reads open their [`BlockView`] from this and touch only the
    /// blocks they need; whole-payload reads ([`Self::get`]) fault the
    /// region in.
    pub fn cold_region(&self, id: RegionId) -> Option<ColdRegion> {
        let s = self.spill_state()?;
        let handle = {
            let map = self.regions.read().unpoisoned();
            match &map.get(&id)?.res {
                Residency::Spilled(h) => h.clone(),
                Residency::Resident(_) => return None,
            }
        };
        let ColdKind::Typed { ty, elems, block_elems } = handle.kind else {
            return None;
        };
        self.touch(id);
        Some(ColdRegion { id, handle, ty, elems, block_elems, spill: s })
    }

    /// Demote resident sealed regions (least-recently-used first) until
    /// the resident footprint fits the budget or nothing more is
    /// demotable. Returns the number of regions demoted. Demotion is
    /// physically real but changes no readable bytes.
    pub fn enforce_budget(&self) -> PdcResult<u64> {
        let Some(s) = self.spill_state() else {
            return Ok(0);
        };
        let over_budget = || s.acct.lock().unpoisoned().resident_bytes > s.memory_budget;
        if !over_budget() {
            return Ok(0);
        }
        // One walk of the region map per call, not one per victim: the
        // eligible regions in LRU order (ties by id). `demote` re-checks
        // eligibility, so a candidate that changed since the walk is
        // refused there.
        let mut victims: Vec<(u64, RegionId)> = {
            let map = self.regions.read().unpoisoned();
            let sealed = self.sealed.read().unpoisoned();
            let quar = self.quarantine.read().unpoisoned();
            let ticks = s.ticks.lock().unpoisoned();
            map.iter()
                .filter(|(id, r)| {
                    matches!(r.res, Residency::Resident(_))
                        && r.pristine.is_none()
                        && r.size_bytes() > 0
                        && sealed.contains(id)
                        && !quar.contains(id)
                })
                .map(|(id, _)| (ticks.last_use.get(id).copied().unwrap_or(0), *id))
                .collect()
        };
        victims.sort_unstable();
        let mut demoted = 0u64;
        for (_, victim) in victims {
            if !over_budget() {
                break;
            }
            // A victim that raced away or failed its round trip stays
            // resident; the next one is tried.
            demoted += u64::from(self.demote(victim, &s)?);
        }
        Ok(demoted)
    }

    /// Demote one region to its block-compressed spill file. Only sealed,
    /// unquarantined, pristine-free resident regions are eligible. The
    /// written file must decode to the recorded payload checksum before
    /// the region turns spilled — the end-to-end check, since spilled
    /// reads check only each block's frame — so a file that does not
    /// round-trip is deleted and the region stays resident.
    fn demote(&self, id: RegionId, s: &SpillState) -> PdcResult<bool> {
        // Snapshot without holding the write lock across file IO.
        let (payload, checksum) = {
            let map = self.regions.read().unpoisoned();
            let Some(r) = map.get(&id) else { return Ok(false) };
            match &r.res {
                Residency::Resident(p) if r.pristine.is_none() => (p.clone(), r.checksum),
                _ => return Ok(false),
            }
        };
        if !self.is_sealed(id) || self.is_quarantined(id) || payload.size_bytes() == 0 {
            return Ok(false);
        }
        let path = s.dir.join(format!("r_{:016x}_{:08x}.pbf", id.object.raw(), id.index));
        let (meta, kind) = match &payload {
            StoredPayload::Typed(v) => (
                blockfile::write_typed(&path, v, blockfile::DEFAULT_BLOCK_ELEMS)?,
                ColdKind::Typed {
                    ty: v.pdc_type(),
                    elems: v.len() as u64,
                    block_elems: blockfile::DEFAULT_BLOCK_ELEMS,
                },
            ),
            StoredPayload::Raw(b) => {
                (blockfile::write_raw(&path, b, blockfile::DEFAULT_BLOCK_ELEMS)?, ColdKind::Raw)
            }
        };
        let file = NEXT_SPILL_FILE.fetch_add(1, Ordering::Relaxed);
        let handle =
            ColdHandle { path, file, kind, raw_bytes: meta.raw_bytes, comp_bytes: meta.comp_bytes };
        let round_trips = s
            .open(&handle.path)
            .and_then(|reader| decode_whole(&reader, kind))
            .is_ok_and(|p| payload_checksum(&p) == checksum);
        if !round_trips {
            let _ = std::fs::remove_file(&handle.path);
            return Ok(false);
        }
        let mut map = self.regions.write().unpoisoned();
        let still_clean = map.get(&id).is_some_and(|r| {
            matches!(r.res, Residency::Resident(_)) && r.pristine.is_none() && r.checksum == checksum
        });
        if !still_clean {
            drop(map);
            let _ = std::fs::remove_file(&handle.path);
            return Ok(false);
        }
        let r = map.get_mut(&id).expect("checked above");
        let freed = r.size_bytes();
        let (raw, comp) = (handle.raw_bytes, handle.comp_bytes);
        r.res = Residency::Spilled(handle);
        drop(map);
        s.sub_resident(freed);
        let mut a = s.acct.lock().unpoisoned();
        a.demotions += 1;
        a.spilled_regions += 1;
        a.spilled_raw_bytes += raw;
        a.spilled_comp_bytes += comp;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_types::ObjectId;

    fn rid(o: u64, i: u32) -> RegionId {
        RegionId::new(ObjectId(o), i)
    }

    #[test]
    fn put_get_roundtrip_typed() {
        let store = ObjectStore::new(8);
        let v: TypedVec = vec![1.0f32, 2.0, 3.0].into();
        store.put(rid(1, 0), StoredPayload::Typed(Arc::new(v.clone())), StorageTier::Pfs);
        let got = store.get_typed(rid(1, 0)).unwrap();
        assert_eq!(&*got, &v);
        let (_, tier) = store.get(rid(1, 0)).unwrap();
        assert_eq!(tier, StorageTier::Pfs);
    }

    #[test]
    fn put_get_roundtrip_raw() {
        let store = ObjectStore::new(8);
        store.put(rid(2, 5), StoredPayload::Raw(Bytes::from(&b"abc"[..])), StorageTier::Pfs);
        assert_eq!(store.get_raw(rid(2, 5)).unwrap(), Bytes::from(&b"abc"[..]));
    }

    #[test]
    fn wrong_kind_is_an_error() {
        let store = ObjectStore::new(8);
        store.put(rid(1, 0), StoredPayload::Raw(Bytes::from(&b"x"[..])), StorageTier::Pfs);
        assert!(store.get_typed(rid(1, 0)).is_err());
        let v: TypedVec = vec![1i32].into();
        store.put(rid(1, 1), StoredPayload::Typed(Arc::new(v)), StorageTier::Dram);
        assert!(store.get_raw(rid(1, 1)).is_err());
    }

    #[test]
    fn missing_region_is_an_error() {
        let store = ObjectStore::new(8);
        assert!(matches!(store.get(rid(9, 9)), Err(PdcError::NoSuchRegion(_))));
        assert!(!store.contains(rid(9, 9)));
    }

    #[test]
    fn placement_spreads_across_osts() {
        let store = ObjectStore::new(4);
        for i in 0..16 {
            let v: TypedVec = vec![0.0f32].into();
            store.put(rid(1, i), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
        }
        let mut used = std::collections::HashSet::new();
        for i in 0..16 {
            used.insert(store.ost_of(rid(1, i)).unwrap());
        }
        assert_eq!(used.len(), 4, "round-robin should hit every OST");
    }

    #[test]
    fn migrate_changes_tier() {
        let store = ObjectStore::new(2);
        let v: TypedVec = vec![1.0f64; 100].into();
        store.put(rid(3, 0), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
        let moved = store.migrate(rid(3, 0), StorageTier::Dram).unwrap();
        assert_eq!(moved, 800);
        assert_eq!(store.get(rid(3, 0)).unwrap().1, StorageTier::Dram);
    }

    #[test]
    fn bytes_by_tier_accounts() {
        let store = ObjectStore::new(2);
        let v: TypedVec = vec![0u32; 10].into(); // 40 bytes
        store.put(rid(1, 0), StoredPayload::Typed(Arc::new(v.clone())), StorageTier::Pfs);
        store.put(rid(1, 1), StoredPayload::Typed(Arc::new(v)), StorageTier::Dram);
        store.put(rid(1, 2), StoredPayload::Raw(Bytes::from(vec![0u8; 7])), StorageTier::Pfs);
        let by_tier = store.bytes_by_tier();
        assert_eq!(by_tier[&StorageTier::Pfs], 47);
        assert_eq!(by_tier[&StorageTier::Dram], 40);
        assert_eq!(store.num_regions(), 3);
    }

    #[test]
    fn remove_region() {
        let store = ObjectStore::new(2);
        let v: TypedVec = vec![0u32; 1].into();
        store.put(rid(1, 0), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
        assert!(store.remove(rid(1, 0)));
        assert!(!store.remove(rid(1, 0)));
    }

    #[test]
    fn corrupt_get_reports_tier_and_quarantines() {
        let store = ObjectStore::new(2);
        let v: TypedVec = vec![1.0f64; 16].into();
        store.put(rid(4, 1), StoredPayload::Typed(Arc::new(v)), StorageTier::BurstBuffer);
        assert!(store.corrupt(rid(4, 1), 7).unwrap());
        match store.get(rid(4, 1)) {
            Err(PdcError::CorruptRegion { region, tier }) => {
                assert_eq!(region, rid(4, 1));
                assert_eq!(tier, "burst-buffer");
            }
            other => panic!("expected CorruptRegion, got {other:?}"),
        }
        assert!(store.is_quarantined(rid(4, 1)));
        assert_eq!(store.quarantined(), vec![rid(4, 1)]);
        // A migrate must refuse to spread the corrupt copy.
        assert!(matches!(
            store.migrate(rid(4, 1), StorageTier::Dram),
            Err(PdcError::CorruptRegion { .. })
        ));
    }

    #[test]
    fn repair_restores_pristine_copy() {
        let store = ObjectStore::new(2);
        let v: TypedVec = vec![3.5f32; 8].into();
        store.put(rid(5, 0), StoredPayload::Typed(Arc::new(v.clone())), StorageTier::Pfs);
        store.corrupt(rid(5, 0), 99).unwrap();
        assert!(store.get(rid(5, 0)).is_err());
        let bytes = store.repair(rid(5, 0)).unwrap();
        assert_eq!(bytes, 32);
        assert!(!store.is_quarantined(rid(5, 0)));
        assert_eq!(&*store.get_typed(rid(5, 0)).unwrap(), &v);
    }

    #[test]
    fn repair_without_pristine_is_typed_error() {
        let store = ObjectStore::new(2);
        let v: TypedVec = vec![0i64; 4].into();
        store.put(rid(6, 0), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
        assert!(matches!(store.repair(rid(6, 0)), Err(PdcError::CorruptRegion { .. })));
    }

    #[test]
    fn corrupt_raw_payload_detected() {
        let store = ObjectStore::new(2);
        store.put(rid(7, 2), StoredPayload::Raw(Bytes::from(vec![9u8; 64])), StorageTier::Pfs);
        assert!(store.corrupt(rid(7, 2), 1).unwrap());
        assert!(matches!(store.get_raw(rid(7, 2)), Err(PdcError::CorruptRegion { .. })));
        store.repair(rid(7, 2)).unwrap();
        assert_eq!(store.get_raw(rid(7, 2)).unwrap(), Bytes::from(vec![9u8; 64]));
    }

    #[test]
    fn corruption_site_is_seed_deterministic() {
        let make = |seed: u64| {
            let store = ObjectStore::new(2);
            let v: TypedVec = (0..128u32).collect::<Vec<u32>>().into();
            store.put(rid(8, 0), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
            store.corrupt(rid(8, 0), seed).unwrap();
            let map = store.regions.read().unpoisoned();
            match &map[&rid(8, 0)].res {
                Residency::Resident(p) => payload_checksum(p),
                Residency::Spilled(_) => unreachable!("spill is not enabled"),
            }
        };
        assert_eq!(make(42), make(42));
        assert_ne!(make(42), make(43));
    }

    #[test]
    fn put_and_remove_clear_quarantine() {
        let store = ObjectStore::new(2);
        let v: TypedVec = vec![1u32; 8].into();
        store.put(rid(9, 0), StoredPayload::Typed(Arc::new(v.clone())), StorageTier::Pfs);
        store.corrupt(rid(9, 0), 3).unwrap();
        let _ = store.get(rid(9, 0));
        assert!(store.is_quarantined(rid(9, 0)));
        store.put(rid(9, 0), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
        assert!(!store.is_quarantined(rid(9, 0)), "rewrite must clear quarantine");
        store.corrupt(rid(9, 0), 3).unwrap();
        let _ = store.get(rid(9, 0));
        assert!(store.remove(rid(9, 0)));
        assert!(!store.is_quarantined(rid(9, 0)), "remove must clear quarantine");
    }

    #[test]
    fn append_grows_payload() {
        let store = ObjectStore::new(2);
        let v: TypedVec = vec![1.0f64, 2.0, 3.0].into();
        store.put(rid(12, 0), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
        let delta: TypedVec = vec![4.0f64, 5.0].into();
        assert_eq!(store.append_typed(rid(12, 0), &delta).unwrap(), 5);
        let got = store.get_typed(rid(12, 0)).unwrap();
        assert_eq!(got.len(), 5);
        assert_eq!(got.to_f64_vec(), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn append_preserves_prefix_bytes() {
        let store = ObjectStore::new(2);
        let v: TypedVec = vec![9u32, 8, 7].into();
        store.put(rid(12, 1), StoredPayload::Typed(Arc::new(v.clone())), StorageTier::Pfs);
        let delta: TypedVec = vec![6u32].into();
        store.append_typed(rid(12, 1), &delta).unwrap();
        let got = store.get_typed(rid(12, 1)).unwrap();
        match (&*got, &v) {
            (TypedVec::UInt32(grown), TypedVec::UInt32(orig)) => {
                assert_eq!(&grown[..3], &orig[..]);
                assert_eq!(grown[3], 6);
            }
            _ => panic!("unexpected variants"),
        }
    }

    #[test]
    fn append_refuses_sealed_missing_raw_and_mismatched() {
        let store = ObjectStore::new(2);
        let delta: TypedVec = vec![1.0f64].into();
        // missing
        assert!(matches!(store.append_typed(rid(13, 0), &delta), Err(PdcError::NoSuchRegion(_))));
        // sealed
        let v: TypedVec = vec![1.0f64; 4].into();
        store.put(rid(13, 0), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
        store.seal(rid(13, 0)).unwrap();
        assert!(store.is_sealed(rid(13, 0)));
        assert!(matches!(store.append_typed(rid(13, 0), &delta), Err(PdcError::Storage(_))));
        // raw payload
        store.put(rid(13, 1), StoredPayload::Raw(Bytes::from(&b"idx"[..])), StorageTier::Pfs);
        assert!(matches!(store.append_typed(rid(13, 1), &delta), Err(PdcError::Storage(_))));
        // element-type mismatch
        let ints: TypedVec = vec![1i32; 4].into();
        store.put(rid(13, 2), StoredPayload::Typed(Arc::new(ints)), StorageTier::Pfs);
        assert!(matches!(store.append_typed(rid(13, 2), &delta), Err(PdcError::Storage(_))));
        // sealing a missing region is a typed error
        assert!(matches!(store.seal(rid(13, 9)), Err(PdcError::NoSuchRegion(_))));
    }

    #[test]
    fn append_to_corrupt_region_quarantines() {
        let store = ObjectStore::new(2);
        let v: TypedVec = vec![1.0f64; 16].into();
        store.put(rid(14, 0), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
        store.corrupt(rid(14, 0), 11).unwrap();
        let delta: TypedVec = vec![2.0f64].into();
        assert!(matches!(
            store.append_typed(rid(14, 0), &delta),
            Err(PdcError::CorruptRegion { .. })
        ));
        assert!(store.is_quarantined(rid(14, 0)));
    }

    #[test]
    fn put_and_remove_clear_seal_mark() {
        let store = ObjectStore::new(2);
        let v: TypedVec = vec![1u64; 2].into();
        store.put(rid(15, 0), StoredPayload::Typed(Arc::new(v.clone())), StorageTier::Pfs);
        store.seal(rid(15, 0)).unwrap();
        store.put(rid(15, 0), StoredPayload::Typed(Arc::new(v.clone())), StorageTier::Pfs);
        assert!(!store.is_sealed(rid(15, 0)), "rewrite starts an open region");
        store.seal(rid(15, 0)).unwrap();
        store.remove(rid(15, 0));
        store.put(rid(15, 0), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
        assert!(!store.is_sealed(rid(15, 0)), "remove must clear the seal");
    }

    #[test]
    fn empty_payload_cannot_be_corrupted() {
        let store = ObjectStore::new(2);
        store.put(rid(10, 0), StoredPayload::Raw(Bytes::default()), StorageTier::Pfs);
        assert!(!store.corrupt(rid(10, 0), 5).unwrap());
        assert!(store.get_raw(rid(10, 0)).is_ok());
    }

    // ------------------------------------------------------------------
    // Out-of-core spill
    // ------------------------------------------------------------------

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let thread = std::thread::current()
            .name()
            .unwrap_or("t")
            .replace(|c: char| !c.is_ascii_alphanumeric(), "_");
        let d = std::env::temp_dir().join(format!("pdc_store_{tag}_{}_{thread}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn seeded_floats(n: usize) -> TypedVec {
        (0..n).map(|i| (i as f32 * 0.25).sin()).collect::<Vec<f32>>().into()
    }

    #[test]
    fn sealed_regions_demote_under_budget_and_fault_back_in() {
        let dir = tmp_dir("demote");
        let store = ObjectStore::new(4);
        store.configure_spill(&dir, 10_000, 1 << 20).unwrap();
        // Four sealed 40 KB regions against a 10 KB budget.
        let mut originals = Vec::new();
        for i in 0..4 {
            let v = seeded_floats(10_000);
            originals.push(v.clone());
            store.put(rid(1, i), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
            store.seal(rid(1, i)).unwrap();
        }
        let stats = store.spill_stats().unwrap();
        assert!(stats.resident_bytes <= 10_000, "resident {} > budget", stats.resident_bytes);
        assert!(stats.resident_high_water <= 10_000);
        assert!(stats.demotions >= 3, "expected ≥3 demotions, got {}", stats.demotions);
        assert_eq!(stats.spilled_regions, stats.demotions);
        assert!(stats.spilled_comp_bytes > 0);
        // Reads still verify and return the exact payload.
        for i in 0..4 {
            let got = store.get_typed(rid(1, i)).unwrap();
            assert_eq!(&*got, &originals[i as usize]);
        }
        assert!(store.spill_stats().unwrap().fault_ins >= 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsealed_regions_never_demote() {
        let dir = tmp_dir("unsealed");
        let store = ObjectStore::new(2);
        store.configure_spill(&dir, 100, 1 << 20).unwrap();
        store.put(rid(2, 0), StoredPayload::Typed(Arc::new(seeded_floats(1000))), StorageTier::Pfs);
        assert!(!store.is_spilled(rid(2, 0)));
        // Over budget, but the only region is unsealed: nothing to demote.
        assert!(store.spill_stats().unwrap().resident_bytes > 100);
        assert_eq!(store.spill_stats().unwrap().demotions, 0);
        // Appends still work (spilled regions would refuse).
        let delta: TypedVec = vec![1.0f32].into();
        store.append_typed(rid(2, 0), &delta).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_order_picks_least_recently_used_victim() {
        let dir = tmp_dir("lru");
        let store = ObjectStore::new(2);
        // Budget fits exactly three 400-byte regions.
        store.configure_spill(&dir, 1200, 1 << 20).unwrap();
        for i in 0..3 {
            store.put(rid(3, i), StoredPayload::Typed(Arc::new(seeded_floats(100))), StorageTier::Pfs);
            store.seal(rid(3, i)).unwrap();
        }
        // Touch 0 so region 1 becomes the LRU.
        store.get(rid(3, 0)).unwrap();
        // A fourth region pushes resident to 1600: exactly one demotion.
        store.put(rid(3, 3), StoredPayload::Typed(Arc::new(seeded_floats(100))), StorageTier::Pfs);
        store.seal(rid(3, 3)).unwrap();
        assert!(store.is_spilled(rid(3, 1)), "LRU region must spill first");
        assert!(!store.is_spilled(rid(3, 0)));
        assert!(!store.is_spilled(rid(3, 2)));
        assert!(!store.is_spilled(rid(3, 3)));
        assert_eq!(store.spill_stats().unwrap().demotions, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The victims the old per-victim scan picked: repeatedly the
    /// eligible region with the smallest `(last-use tick, id)`, until the
    /// resident footprint fits.
    fn per_victim_reference(
        mut resident: u64,
        budget: u64,
        mut eligible: Vec<(u64, RegionId, u64)>, // (tick, id, bytes)
    ) -> Vec<RegionId> {
        let mut victims = Vec::new();
        while resident > budget {
            let Some(pos) =
                (0..eligible.len()).min_by_key(|&i| (eligible[i].0, eligible[i].1))
            else {
                break;
            };
            let (_, id, bytes) = eligible.swap_remove(pos);
            resident -= bytes;
            victims.push(id);
        }
        victims
    }

    #[test]
    fn one_call_demotion_picks_the_per_victim_scan_victims() {
        // Enabling a budget on an already-populated store demotes many
        // regions in one `enforce_budget` call. Populate 2 000 small
        // regions of varying size with a scrambled access order, leave
        // some ineligible (unsealed, empty), then enable the budget.
        let dir = tmp_dir("bulkdemote");
        let store = ObjectStore::new(4);
        // Recency must exist before the budget does: spill enabled with
        // room for everything, so `touch` records ticks but nothing
        // demotes.
        store.configure_spill(&dir, u64::MAX, 1 << 20).unwrap();
        let n = 2000u32;
        let size_of = |i: u32| 16 + (i as usize * 7) % 48; // elements
        for i in 0..n {
            let elems = if i % 97 == 0 { 0 } else { size_of(i) };
            store.put(rid(20, i), StoredPayload::Typed(Arc::new(seeded_floats(elems))), StorageTier::Pfs);
            if i % 13 != 0 {
                store.seal(rid(20, i)).unwrap();
            }
        }
        // Scramble recency: touch in a stride order (some twice).
        for k in 0..n {
            let i = (k * 733) % n;
            store.get(rid(20, i)).unwrap();
            if k % 5 == 0 {
                store.get(rid(20, (i * 31) % n)).unwrap();
            }
        }
        let eligible: Vec<(u64, RegionId, u64)> = {
            let spill = store.spill_state().unwrap();
            let ticks = spill.ticks.lock().unpoisoned();
            (0..n)
                .map(|i| rid(20, i))
                .filter(|id| store.is_sealed(*id) && store.payload_size(*id).unwrap() > 0)
                .map(|id| (ticks.last_use[&id], id, store.payload_size(id).unwrap()))
                .collect()
        };
        let resident = store.spill_stats().unwrap().resident_bytes;
        let budget = resident / 3;
        let mut expect = per_victim_reference(resident, budget, eligible);
        assert!(expect.len() > 1000, "the budget must force a bulk demotion: {}", expect.len());

        store.configure_spill(&dir, budget, 1 << 20).unwrap();
        let stats = store.spill_stats().unwrap();
        assert_eq!(stats.demotions, expect.len() as u64);
        assert!(stats.resident_bytes <= budget);
        let mut spilled: Vec<RegionId> =
            (0..n).map(|i| rid(20, i)).filter(|id| store.is_spilled(*id)).collect();
        spilled.sort();
        expect.sort();
        assert_eq!(spilled, expect, "same victims as the per-victim LRU scan");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_checksum_hashes_the_little_endian_byte_image() {
        use pdc_blockstore::bulk_fnv64;
        fn image(v: &TypedVec) -> Vec<u8> {
            with_slice!(v, xs => xs.iter().flat_map(|x| x.to_le_bytes()).collect())
        }
        for len in 0..=70u64 {
            let bits = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x7ff8_0000_dead_beef;
            let variants: [TypedVec; 6] = [
                (0..len).map(|i| f32::from_bits(bits(i) as u32)).collect::<Vec<_>>().into(),
                (0..len).map(|i| f64::from_bits(bits(i))).collect::<Vec<_>>().into(),
                (0..len).map(|i| bits(i) as i32).collect::<Vec<_>>().into(),
                (0..len).map(|i| bits(i) as u32).collect::<Vec<_>>().into(),
                (0..len).map(|i| bits(i) as i64).collect::<Vec<_>>().into(),
                (0..len).map(bits).collect::<Vec<_>>().into(),
            ];
            for v in variants {
                let bytes = image(&v);
                let ty = v.pdc_type();
                assert_eq!(
                    payload_checksum(&StoredPayload::Typed(Arc::new(v))),
                    bulk_fnv64(&bytes),
                    "{ty:?} x {len}"
                );
                // A raw payload holding the same bytes agrees too.
                assert_eq!(
                    payload_checksum(&StoredPayload::Raw(Bytes::from(bytes.clone()))),
                    bulk_fnv64(&bytes)
                );
            }
        }
    }

    #[test]
    fn spilled_corrupt_detects_quarantines_and_repairs() {
        let dir = tmp_dir("corrupt");
        let store = ObjectStore::new(2);
        store.configure_spill(&dir, 0, 1 << 20).unwrap();
        let v = seeded_floats(5_000);
        store.put(rid(4, 0), StoredPayload::Typed(Arc::new(v.clone())), StorageTier::Pfs);
        store.seal(rid(4, 0)).unwrap();
        assert!(store.is_spilled(rid(4, 0)));
        assert!(store.corrupt(rid(4, 0), 77).unwrap());
        match store.get(rid(4, 0)) {
            Err(PdcError::CorruptRegion { region, .. }) => assert_eq!(region, rid(4, 0)),
            other => panic!("expected CorruptRegion, got {other:?}"),
        }
        assert!(store.is_quarantined(rid(4, 0)));
        // Repair restores from the sibling file and reports the
        // uncompressed byte count, exactly like the resident path.
        let bytes = store.repair(rid(4, 0)).unwrap();
        assert_eq!(bytes, v.size_bytes());
        assert!(!store.is_quarantined(rid(4, 0)));
        assert!(store.is_spilled(rid(4, 0)), "repair keeps the region cold");
        assert_eq!(&*store.get_typed(rid(4, 0)).unwrap(), &v);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spilled_corrupt_site_is_seed_deterministic_and_repair_without_corruption_errors() {
        let dir = tmp_dir("corrupt_det");
        let store = ObjectStore::new(2);
        store.configure_spill(&dir, 0, 1 << 20).unwrap();
        store.put(rid(5, 0), StoredPayload::Typed(Arc::new(seeded_floats(1000))), StorageTier::Pfs);
        store.seal(rid(5, 0)).unwrap();
        // repair with no corruption marker is a typed error
        assert!(matches!(store.repair(rid(5, 0)), Err(PdcError::CorruptRegion { .. })));
        assert!(store.corrupt(rid(5, 0), 42).unwrap());
        assert!(store.get(rid(5, 0)).is_err());
        store.repair(rid(5, 0)).unwrap();
        assert!(store.get(rid(5, 0)).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spilled_raw_region_roundtrips_and_repairs() {
        let dir = tmp_dir("raw");
        let store = ObjectStore::new(2);
        store.configure_spill(&dir, 0, 1 << 20).unwrap();
        let bytes: Vec<u8> = (0..4096u32).map(|i| (i % 7) as u8).collect();
        store.put(rid(6, 0), StoredPayload::Raw(Bytes::from(bytes.clone())), StorageTier::Pfs);
        store.seal(rid(6, 0)).unwrap();
        assert!(store.is_spilled(rid(6, 0)));
        assert_eq!(store.get_raw(rid(6, 0)).unwrap(), Bytes::from(bytes.clone()));
        assert!(store.corrupt(rid(6, 0), 9).unwrap());
        assert!(matches!(store.get_raw(rid(6, 0)), Err(PdcError::CorruptRegion { .. })));
        store.repair(rid(6, 0)).unwrap();
        assert_eq!(store.get_raw(rid(6, 0)).unwrap(), Bytes::from(bytes));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cold_region_streams_blocks_through_cache() {
        let dir = tmp_dir("cold");
        let store = ObjectStore::new(2);
        store.configure_spill(&dir, 0, 1 << 20).unwrap();
        let n = blockfile::DEFAULT_BLOCK_ELEMS as usize * 2 + 100; // 3 blocks
        let v = seeded_floats(n);
        store.put(rid(7, 0), StoredPayload::Typed(Arc::new(v.clone())), StorageTier::Pfs);
        store.seal(rid(7, 0)).unwrap();
        let cold = store.cold_region(rid(7, 0)).expect("spilled typed region");
        assert_eq!(cold.len(), n as u64);
        assert_eq!(cold.n_blocks(), 3);
        assert_eq!(cold.pdc_type(), PdcType::Float);
        // Interval → block mapping.
        assert_eq!(cold.blocks_overlapping(0, 10), 0..1);
        let be = blockfile::DEFAULT_BLOCK_ELEMS as u64;
        assert_eq!(cold.blocks_overlapping(be - 1, be + 1), 0..2);
        assert_eq!(cold.blocks_overlapping(2 * be, n as u64), 2..3);
        assert_eq!(cold.blocks_overlapping(5, 5), 0..0);
        // The handle and the reader of its file answer from one
        // implementation: empty, boundary and past-the-end ranges agree.
        let reader = BlockReader::open(&cold.handle.path).unwrap();
        let n64 = n as u64;
        for (lo, hi) in [(0, 0), (be, be), (be - 1, be), (be, be + 1), (0, n64), (0, u64::MAX),
            (n64 - 1, n64 + 9), (n64, n64 + 1), (3 * be, u64::MAX), (9, 3)]
        {
            assert_eq!(cold.blocks_overlapping(lo, hi), reader.blocks_overlapping(lo, hi), "[{lo}, {hi})");
        }
        assert_eq!(cold.blocks_overlapping(n64 - 1, u64::MAX), 2..3);
        assert_eq!(cold.blocks_overlapping(n64, u64::MAX), 0..0);
        // Block contents match the original slice; second read hits cache.
        let b1 = cold.read_block(1).unwrap();
        let (s1, e1) = cold.block_span(1);
        assert_eq!(b1.len() as u64, e1 - s1);
        assert_eq!(b1.to_f64_vec(), v.slice(s1 as usize, (e1 - s1) as usize).to_f64_vec());
        let before = store.spill_stats().unwrap().block_cache.hits;
        let _ = cold.read_block(1).unwrap();
        assert_eq!(store.spill_stats().unwrap().block_cache.hits, before + 1);
        // Resident / raw / missing regions have no cold handle.
        store.put(rid(7, 1), StoredPayload::Raw(Bytes::from(&b"idx"[..])), StorageTier::Pfs);
        assert!(store.cold_region(rid(7, 1)).is_none());
        assert!(store.cold_region(rid(9, 9)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn opens(store: &ObjectStore) -> u64 {
        store.spill_stats().unwrap().block_file_opens
    }

    fn open_readers(store: &ObjectStore) -> usize {
        store.spill_state().unwrap().readers.lock().unpoisoned().len()
    }

    /// Every block of a spilled region, read through a fresh cold handle,
    /// concatenated.
    fn read_cold(store: &ObjectStore, id: RegionId) -> PdcResult<Vec<f64>> {
        let cold = store.cold_region(id).expect("a spilled typed region");
        let mut out = Vec::new();
        for b in 0..cold.n_blocks() {
            out.extend(cold.read_block(b)?.to_f64_vec());
        }
        Ok(out)
    }

    fn spilled_path(store: &ObjectStore, id: RegionId) -> PathBuf {
        match &store.regions.read().unpoisoned()[&id].res {
            Residency::Spilled(h) => h.path.clone(),
            Residency::Resident(_) => panic!("{id} is resident"),
        }
    }

    /// The byte ranges of a block file's header, first frame payload,
    /// block index and footer.
    fn file_sections(path: &Path) -> [(&'static str, std::ops::Range<usize>); 4] {
        let bytes = std::fs::read(path).unwrap();
        let footer = bytes.len() - blockfile::FOOTER_LEN as usize;
        let index_off = u64::from_le_bytes(bytes[footer..footer + 8].try_into().unwrap()) as usize;
        let header = blockfile::HEADER_LEN as usize;
        let comp_len = u32::from_le_bytes(bytes[header..header + 4].try_into().unwrap()) as usize;
        let payload = header + blockfile::FRAME_LEN as usize;
        [
            ("header", 0..header),
            ("frame payload", payload..payload + comp_len),
            ("block index", index_off..footer),
            ("footer", footer..bytes.len()),
        ]
    }

    #[test]
    fn a_cached_reader_never_hides_damage() {
        let n = blockfile::DEFAULT_BLOCK_ELEMS as usize + 100; // 2 blocks
        let v = seeded_floats(n);
        let id = rid(11, 0);
        let spilled = |tag: &str| {
            let dir = tmp_dir(tag);
            let store = ObjectStore::new(2);
            store.configure_spill(&dir, 0, 1 << 20).unwrap();
            store.put(id, StoredPayload::Typed(Arc::new(v.clone())), StorageTier::Pfs);
            store.seal(id).unwrap();
            (store, dir)
        };
        // What each read path makes of the damage, then of the repair.
        let outcome = |store: &ObjectStore| -> Vec<String> {
            let cold = store.cold_region(id).unwrap();
            let mut out: Vec<String> =
                (0..2).map(|b| format!("{:?}", cold.read_block(b).map(|x| x.len()))).collect();
            out.push(format!("{:?}", BlockView::from(cold).check()));
            out.push(format!("{:?}", store.get(id).map(|_| ())));
            out.push(format!("{:?}", store.quarantined()));
            out.push(format!("{:?}", store.repair(id)));
            out.push(format!("{:?}", read_cold(store, id).map(|xs| xs == v.to_f64_vec())));
            out.push(format!("{:?}", store.get_typed(id).map(|p| *p == v)));
            out
        };
        let (probe, probe_dir) = spilled("cached_probe");
        let path = spilled_path(&probe, id);
        let file_len = std::fs::metadata(&path).unwrap().len() as usize;
        for (section, range) in file_sections(&path) {
            let seed = (0u64..)
                .find(|&seed| range.contains(&flip_site(site_seed(id, seed), file_len).0))
                .unwrap();
            // Warm: the reader is cached by the first read and reused.
            let (warm, warm_dir) = spilled("cached_warm");
            let before = opens(&warm);
            assert_eq!(read_cold(&warm, id).unwrap(), v.to_f64_vec());
            assert_eq!(opens(&warm), before + 1, "{section}: the first read opens the file");
            warm.get_typed(id).unwrap();
            BlockView::from(warm.cold_region(id).unwrap()).check().unwrap();
            assert_eq!(opens(&warm), before + 1, "{section}: later reads reuse the reader");
            // Fresh: the file is damaged before anything opened it.
            let (fresh, fresh_dir) = spilled("cached_fresh");
            assert!(warm.corrupt(id, seed).unwrap() && fresh.corrupt(id, seed).unwrap());
            let (w, f) = (outcome(&warm), outcome(&fresh));
            assert_eq!(w, f, "{section}: a cached reader reads damage as a fresh open does");
            assert!(w[3].starts_with("Err(CorruptRegion"), "{section}: damage undetected: {w:?}");
            assert_eq!(w[4], format!("{:?}", vec![id]), "{section}");
            let repaired = format!("Ok({})", v.size_bytes());
            assert_eq!(&w[5..], [repaired.as_str(), "Ok(true)", "Ok(true)"], "{section}");
            let _ = std::fs::remove_dir_all(&warm_dir);
            let _ = std::fs::remove_dir_all(&fresh_dir);
        }

        // `put` and `remove` replace the file at the same path; a read
        // after either never sees the old bytes.
        let store = &probe;
        read_cold(store, id).unwrap();
        let v2: TypedVec = (0..n).map(|i| i as f32).collect::<Vec<f32>>().into();
        store.put(id, StoredPayload::Typed(Arc::new(v2.clone())), StorageTier::Pfs);
        store.seal(id).unwrap();
        assert_eq!(spilled_path(store, id), path, "the new file takes the old path");
        assert_eq!(read_cold(store, id).unwrap(), v2.to_f64_vec());
        assert_eq!(&*store.get_typed(id).unwrap(), &v2);
        assert!(store.remove(id));
        assert!(store.cold_region(id).is_none());
        assert!(matches!(store.get(id), Err(PdcError::NoSuchRegion(_))));
        assert_eq!(open_readers(store), 0, "remove drops the reader");
        let v3: TypedVec = (0..n).map(|i| -(i as f32)).collect::<Vec<f32>>().into();
        store.put(id, StoredPayload::Typed(Arc::new(v3.clone())), StorageTier::Pfs);
        store.seal(id).unwrap();
        assert_eq!(read_cold(store, id).unwrap(), v3.to_f64_vec());
        assert_eq!(open_readers(store), 1);
        let _ = std::fs::remove_dir_all(&probe_dir);
    }

    #[test]
    fn reading_more_spilled_regions_than_the_reader_bound_stays_correct() {
        let dir = tmp_dir("reader_bound");
        let store = ObjectStore::new(2);
        store.configure_spill(&dir, 0, 1 << 20).unwrap();
        let n = MAX_OPEN_SPILL_FILES as u32 + 40;
        let payload = |i: u32| seeded_floats(16 + i as usize % 7);
        for i in 0..n {
            store.put(rid(12, i), StoredPayload::Typed(Arc::new(payload(i))), StorageTier::Pfs);
            store.seal(rid(12, i)).unwrap();
        }
        assert_eq!(store.spill_stats().unwrap().spilled_regions, n as u64);
        // Demotion's round-trip checks open every file once and keep none.
        assert_eq!((opens(&store), open_readers(&store)), (n as u64, 0));
        // Block reads, then whole-region reads, of every region: the table
        // resets whenever it fills, and every read returns its payload.
        for i in 0..n {
            assert_eq!(read_cold(&store, rid(12, i)).unwrap(), payload(i).to_f64_vec(), "region {i}");
            assert!(open_readers(&store) <= MAX_OPEN_SPILL_FILES);
        }
        assert_eq!(opens(&store), 2 * n as u64, "one open per file for the first read");
        for i in 0..n {
            assert_eq!(&*store.get_typed(rid(12, i)).unwrap(), &payload(i), "region {i}");
            assert!(open_readers(&store) <= MAX_OPEN_SPILL_FILES);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn block_view_reads_a_resident_payload_as_one_block() {
        let v = Arc::new(seeded_floats(100));
        let view = BlockView::from(Arc::clone(&v));
        assert_eq!((view.len(), view.n_blocks(), view.block_span(0)), (100, 1, (0, 100)));
        let cases = [(0, 1, 0..1), (99, 100, 0..1), (0, u64::MAX, 0..1), (100, 101, 0..0)];
        for (lo, hi, want) in cases.into_iter().chain([(5, 5, 0..0), (9, 3, 0..0)]) {
            assert_eq!(view.blocks_overlapping(lo, hi), want, "[{lo}, {hi})");
        }
        assert!(Arc::ptr_eq(&view.read_block(0).unwrap(), &v), "no copy");
        assert!(matches!(view.cache_slot(), CacheSlot::Hot(p) if Arc::ptr_eq(&p, &v)));
        view.check().unwrap();
        let empty = BlockView::from(Arc::new(seeded_floats(0)));
        assert_eq!((empty.n_blocks(), empty.blocks_overlapping(0, 1)), (0, 0..0));

        // A spilled region's view answers from its cold handle, and its
        // cache slot carries the same footprint as the resident one.
        let dir = tmp_dir("view");
        let store = ObjectStore::new(2);
        store.configure_spill(&dir, 0, 1 << 20).unwrap();
        let n = blockfile::DEFAULT_BLOCK_ELEMS as usize + 7; // 2 blocks
        store.put(rid(7, 0), StoredPayload::Typed(Arc::new(seeded_floats(n))), StorageTier::Pfs);
        store.seal(rid(7, 0)).unwrap();
        let cold = store.cold_region(rid(7, 0)).unwrap();
        let view = BlockView::from(cold.clone());
        assert_eq!((view.len(), view.n_blocks()), (n as u64, 2));
        assert_eq!(view.block_span(1), cold.block_span(1));
        assert_eq!(view.blocks_overlapping(n as u64 - 8, n as u64), 0..2);
        assert!(matches!(view.cache_slot(),
            CacheSlot::Cold { bytes, elems } if bytes == 4 * n as u64 && elems == n as u64));
        let cache = store.spill_stats().unwrap().block_cache;
        view.check().unwrap();
        let after = store.spill_stats().unwrap();
        assert_eq!((after.block_cache.hits, after.block_cache.misses), (cache.hits, cache.misses));
        assert_eq!(after.fault_ins, 0, "no whole-region fault-in");
        assert!(store.corrupt(rid(7, 0), 3).unwrap());
        assert!(BlockView::from(store.cold_region(rid(7, 0)).unwrap()).check().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn demotion_keeps_a_region_resident_when_its_file_does_not_round_trip() {
        let dir = tmp_dir("roundtrip");
        let store = ObjectStore::new(2);
        store.configure_spill(&dir, 0, 1 << 20).unwrap();
        let v = seeded_floats(5_000);
        store.put(rid(10, 0), StoredPayload::Typed(Arc::new(v.clone())), StorageTier::Pfs);
        // The file demotion writes decodes to the payload, which no longer
        // matches the recorded checksum.
        store.regions.write().unpoisoned().get_mut(&rid(10, 0)).unwrap().checksum ^= 1;
        store.seal(rid(10, 0)).unwrap();
        assert!(!store.is_spilled(rid(10, 0)), "a file that does not round-trip is not trusted");
        assert_eq!(store.spill_stats().unwrap().demotions, 0);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "the bad file is deleted");
        // The next victim still demotes, and the round trip is no fault-in.
        store.put(rid(10, 1), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
        store.seal(rid(10, 1)).unwrap();
        assert!(store.is_spilled(rid(10, 1)) && !store.is_spilled(rid(10, 0)));
        let stats = store.spill_stats().unwrap();
        assert_eq!((stats.demotions, stats.fault_ins), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn put_and_remove_clean_up_spill_files() {
        let dir = tmp_dir("cleanup");
        let store = ObjectStore::new(2);
        store.configure_spill(&dir, 0, 1 << 20).unwrap();
        let v = seeded_floats(1000);
        store.put(rid(8, 0), StoredPayload::Typed(Arc::new(v.clone())), StorageTier::Pfs);
        store.seal(rid(8, 0)).unwrap();
        assert!(store.is_spilled(rid(8, 0)));
        let files = || std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        assert_eq!(files(), 1);
        // Rewrite: spill file deleted, region resident again, then respills on seal.
        store.put(rid(8, 0), StoredPayload::Typed(Arc::new(v.clone())), StorageTier::Pfs);
        assert!(!store.is_spilled(rid(8, 0)));
        assert_eq!(files(), 0);
        store.seal(rid(8, 0)).unwrap();
        assert_eq!(files(), 1);
        // Remove: file and accounting gone.
        assert!(store.remove(rid(8, 0)));
        assert_eq!(files(), 0);
        let stats = store.spill_stats().unwrap();
        assert_eq!(stats.spilled_regions, 0);
        assert_eq!(stats.spilled_raw_bytes, 0);
        assert_eq!(stats.resident_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_compresses_and_migrate_verifies_cold_payloads() {
        let dir = tmp_dir("ratio");
        let store = ObjectStore::new(2);
        store.configure_spill(&dir, 0, 1 << 20).unwrap();
        // Monotone ints delta-pack far below raw size.
        let v: TypedVec = (0..100_000i64).collect::<Vec<i64>>().into();
        store.put(rid(9, 0), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
        store.seal(rid(9, 0)).unwrap();
        let stats = store.spill_stats().unwrap();
        assert!(
            stats.compression_ratio() > 4.0,
            "monotone i64 should compress well, got {:.2}",
            stats.compression_ratio()
        );
        let moved = store.migrate(rid(9, 0), StorageTier::Dram).unwrap();
        assert_eq!(moved, 800_000);
        assert_eq!(store.get(rid(9, 0)).unwrap().1, StorageTier::Dram);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
