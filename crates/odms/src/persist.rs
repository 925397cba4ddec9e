//! Metadata persistence.
//!
//! "A metadata object is managed by only one server ... and is
//! periodically persisted to the storage system for fault tolerance"
//! (§II). The snapshot captures everything the metadata service owns —
//! object records, attribute tags, per-region and global histograms,
//! index sizes — as one serialized blob; restoring it onto a fresh
//! service reproduces the queryable state without re-reading any data.
//! (Sorted replicas are *data*, not metadata: they are rebuilt from the
//! stored object on restore, exactly as PDC would re-derive a replica.)

use crate::meta::{MetaValue, ObjectMeta};
use crate::service::MetadataService;
use crate::system::Odms;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use pdc_histogram::Histogram;
use pdc_storage::fnv1a64;
use pdc_types::{PdcError, PdcResult};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A point-in-time serializable image of the metadata service.
#[derive(Debug, Clone, PartialEq)]
pub struct MetadataSnapshot {
    /// Snapshot format version.
    pub version: u32,
    /// Container records `(id, name)`.
    pub containers: Vec<(u64, String)>,
    /// All object metadata records.
    pub objects: Vec<ObjectMeta>,
    /// Per-object region histograms.
    pub histograms: Vec<(u64, Vec<Histogram>)>,
    /// Per-object serialized index-region sizes.
    pub index_sizes: Vec<(u64, Vec<u64>)>,
    /// Objects that had a sorted replica (rebuilt on restore).
    pub sorted_objects: Vec<u64>,
    /// Next-id watermark so restored services keep allocating unique ids.
    pub next_id: u64,
}

/// Frame magic identifying a serialized metadata snapshot.
const SNAPSHOT_MAGIC: [u8; 4] = *b"PDCS";
/// On-"disk" frame format version (distinct from the logical
/// [`MetadataSnapshot::version`], which describes the payload schema).
const SNAPSHOT_FORMAT: u32 = 1;
/// Frame header size: magic + format + payload length + checksum.
const FRAME_HEADER: usize = 4 + 4 + 8 + 8;

fn corrupt(why: impl Into<String>) -> PdcError {
    PdcError::SnapshotCorrupt(why.into())
}

fn put_string(b: &mut BytesMut, s: &str) {
    b.put_u32_le(s.len() as u32);
    b.put_slice(s.as_bytes());
}

fn put_u64s(b: &mut BytesMut, xs: &[u64]) {
    b.put_u32_le(xs.len() as u32);
    for &x in xs {
        b.put_u64_le(x);
    }
}

fn pdc_type_tag(t: pdc_types::PdcType) -> u8 {
    match t {
        pdc_types::PdcType::Float => 0,
        pdc_types::PdcType::Double => 1,
        pdc_types::PdcType::Int32 => 2,
        pdc_types::PdcType::UInt32 => 3,
        pdc_types::PdcType::Int64 => 4,
        pdc_types::PdcType::UInt64 => 5,
    }
}

fn pdc_type_from_tag(tag: u8) -> PdcResult<pdc_types::PdcType> {
    Ok(match tag {
        0 => pdc_types::PdcType::Float,
        1 => pdc_types::PdcType::Double,
        2 => pdc_types::PdcType::Int32,
        3 => pdc_types::PdcType::UInt32,
        4 => pdc_types::PdcType::Int64,
        5 => pdc_types::PdcType::UInt64,
        other => return Err(corrupt(format!("bad pdc_type tag {other}"))),
    })
}

/// Bounds-checked little-endian reader over a snapshot payload. Every
/// accessor verifies remaining length first, so a truncated or mangled
/// payload yields a typed [`PdcError::SnapshotCorrupt`] — never a panic.
struct Reader<'a> {
    buf: &'a [u8],
}

impl Reader<'_> {
    fn need(&self, n: usize) -> PdcResult<()> {
        if self.buf.len() < n {
            return Err(corrupt("truncated payload"));
        }
        Ok(())
    }

    fn u8(&mut self) -> PdcResult<u8> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    fn u32(&mut self) -> PdcResult<u32> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    fn u64(&mut self) -> PdcResult<u64> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    fn i64(&mut self) -> PdcResult<i64> {
        Ok(self.u64()? as i64)
    }

    fn f64(&mut self) -> PdcResult<f64> {
        self.need(8)?;
        Ok(self.buf.get_f64_le())
    }

    fn string(&mut self) -> PdcResult<String> {
        let n = self.u32()? as usize;
        self.need(n)?;
        let s =
            String::from_utf8(self.buf[..n].to_vec()).map_err(|_| corrupt("invalid utf-8"))?;
        self.buf.advance(n);
        Ok(s)
    }

    fn u64s(&mut self) -> PdcResult<Vec<u64>> {
        let n = self.u32()? as usize;
        // Length check before allocation: a mangled count can't force an
        // absurd reservation.
        self.need(n.saturating_mul(8))?;
        Ok((0..n).map(|_| self.buf.get_u64_le()).collect())
    }
}

fn encode_meta(b: &mut BytesMut, m: &ObjectMeta) {
    b.put_u64_le(m.id.raw());
    b.put_u64_le(m.container.raw());
    put_string(b, &m.name);
    b.put_u8(pdc_type_tag(m.pdc_type));
    put_u64s(b, &m.shape.0);
    b.put_u64_le(m.region_elems);
    b.put_u32_le(m.attrs.len() as u32);
    for (k, v) in &m.attrs {
        put_string(b, k);
        match v {
            MetaValue::Str(s) => {
                b.put_u8(0);
                put_string(b, s);
            }
            MetaValue::I64(i) => {
                b.put_u8(1);
                b.put_u64_le(*i as u64);
            }
            MetaValue::F64(f) => {
                b.put_u8(2);
                b.put_f64_le(*f);
            }
        }
    }
    match m.index_object {
        Some(idx) => {
            b.put_u8(1);
            b.put_u64_le(idx.raw());
        }
        None => b.put_u8(0),
    }
    b.put_u8(m.has_sorted_replica as u8);
}

fn decode_meta(r: &mut Reader<'_>) -> PdcResult<ObjectMeta> {
    let id = pdc_types::ObjectId(r.u64()?);
    let container = pdc_types::ContainerId(r.u64()?);
    let name = r.string()?;
    let pdc_type = pdc_type_from_tag(r.u8()?)?;
    let shape = pdc_types::Shape(r.u64s()?);
    let region_elems = r.u64()?;
    if region_elems == 0 {
        return Err(corrupt(format!("object {id} has zero region size")));
    }
    let nattrs = r.u32()? as usize;
    let mut attrs = BTreeMap::new();
    for _ in 0..nattrs {
        let key = r.string()?;
        let value = match r.u8()? {
            0 => MetaValue::Str(r.string()?),
            1 => MetaValue::I64(r.i64()?),
            2 => MetaValue::F64(r.f64()?),
            other => return Err(corrupt(format!("bad attr tag {other}"))),
        };
        attrs.insert(key, value);
    }
    let index_object = match r.u8()? {
        0 => None,
        1 => Some(pdc_types::ObjectId(r.u64()?)),
        other => return Err(corrupt(format!("bad index-object tag {other}"))),
    };
    let has_sorted_replica = r.u8()? != 0;
    Ok(ObjectMeta {
        id,
        container,
        name,
        pdc_type,
        shape,
        region_elems,
        attrs,
        index_object,
        has_sorted_replica,
    })
}

fn encode_hist(b: &mut BytesMut, h: &Histogram) {
    b.put_f64_le(h.bin_width());
    b.put_f64_le(h.first_edge());
    put_u64s(b, h.counts());
    b.put_f64_le(h.min());
    b.put_f64_le(h.max());
    b.put_u64_le(h.total());
    b.put_u64_le(h.max_bins() as u64);
}

fn decode_hist(r: &mut Reader<'_>) -> PdcResult<Histogram> {
    let bin_width = r.f64()?;
    let first_edge = r.f64()?;
    let counts = r.u64s()?;
    let min = r.f64()?;
    let max = r.f64()?;
    let total = r.u64()?;
    let max_bins = r.u64()? as usize;
    Histogram::from_raw_parts(bin_width, first_edge, counts, min, max, total, max_bins)
        .ok_or_else(|| corrupt("histogram failed validation"))
}

impl MetadataSnapshot {
    /// Serialize to a self-verifying frame: magic, format version,
    /// payload length, FNV-1a checksum, payload. Torn writes are caught
    /// by the length field, bit flips by the checksum.
    pub fn to_bytes(&self) -> Bytes {
        let payload = self.encode_payload();
        let mut buf = BytesMut::with_capacity(payload.len() + FRAME_HEADER);
        buf.put_slice(&SNAPSHOT_MAGIC);
        buf.put_u32_le(SNAPSHOT_FORMAT);
        buf.put_u64_le(payload.len() as u64);
        buf.put_u64_le(fnv1a64(&payload));
        buf.put_slice(&payload);
        buf.freeze()
    }

    fn encode_payload(&self) -> BytesMut {
        let mut b = BytesMut::new();
        b.put_u32_le(self.version);
        b.put_u32_le(self.containers.len() as u32);
        for (id, name) in &self.containers {
            b.put_u64_le(*id);
            put_string(&mut b, name);
        }
        b.put_u32_le(self.objects.len() as u32);
        for m in &self.objects {
            encode_meta(&mut b, m);
        }
        b.put_u32_le(self.histograms.len() as u32);
        for (id, hists) in &self.histograms {
            b.put_u64_le(*id);
            b.put_u32_le(hists.len() as u32);
            for h in hists {
                encode_hist(&mut b, h);
            }
        }
        b.put_u32_le(self.index_sizes.len() as u32);
        for (id, sizes) in &self.index_sizes {
            b.put_u64_le(*id);
            put_u64s(&mut b, sizes);
        }
        put_u64s(&mut b, &self.sorted_objects);
        b.put_u64_le(self.next_id);
        b
    }

    /// Decode a frame produced by [`Self::to_bytes`]. Any inconsistency —
    /// short frame, wrong magic, truncated payload, checksum mismatch,
    /// malformed field — yields [`PdcError::SnapshotCorrupt`]; this
    /// function never panics on hostile input.
    pub fn from_bytes(bytes: &[u8]) -> PdcResult<MetadataSnapshot> {
        if bytes.len() < FRAME_HEADER {
            return Err(corrupt("frame shorter than header"));
        }
        if bytes[..4] != SNAPSHOT_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let mut hdr = &bytes[4..FRAME_HEADER];
        let format = hdr.get_u32_le();
        if format != SNAPSHOT_FORMAT {
            return Err(corrupt(format!("unsupported frame format {format}")));
        }
        let payload_len = hdr.get_u64_le();
        let checksum = hdr.get_u64_le();
        let payload = &bytes[FRAME_HEADER..];
        if payload.len() as u64 != payload_len {
            return Err(corrupt(format!(
                "torn write: payload is {} bytes, header claims {payload_len}",
                payload.len()
            )));
        }
        if fnv1a64(payload) != checksum {
            return Err(corrupt("payload checksum mismatch"));
        }
        Self::decode_payload(payload)
    }

    fn decode_payload(payload: &[u8]) -> PdcResult<MetadataSnapshot> {
        let mut r = Reader { buf: payload };
        let version = r.u32()?;
        let ncontainers = r.u32()? as usize;
        let mut containers = Vec::new();
        for _ in 0..ncontainers {
            let id = r.u64()?;
            containers.push((id, r.string()?));
        }
        let nobjects = r.u32()? as usize;
        let mut objects = Vec::new();
        for _ in 0..nobjects {
            objects.push(decode_meta(&mut r)?);
        }
        let nhist_objects = r.u32()? as usize;
        let mut histograms = Vec::new();
        for _ in 0..nhist_objects {
            let id = r.u64()?;
            let nhists = r.u32()? as usize;
            let mut hists = Vec::new();
            for _ in 0..nhists {
                hists.push(decode_hist(&mut r)?);
            }
            histograms.push((id, hists));
        }
        let nsize_objects = r.u32()? as usize;
        let mut index_sizes = Vec::new();
        for _ in 0..nsize_objects {
            let id = r.u64()?;
            index_sizes.push((id, r.u64s()?));
        }
        let sorted_objects = r.u64s()?;
        let next_id = r.u64()?;
        if !r.buf.is_empty() {
            return Err(corrupt(format!("{} trailing bytes after payload", r.buf.len())));
        }
        Ok(MetadataSnapshot {
            version,
            containers,
            objects,
            histograms,
            index_sizes,
            sorted_objects,
            next_id,
        })
    }
}

/// A keep-last-K journal of serialized snapshot frames — the simulated
/// "periodically persisted to the storage system" path (§II). Appending
/// past capacity drops the oldest entry. Recovery walks newest → oldest
/// and decodes the first frame that verifies, so a torn or bit-flipped
/// latest write falls back to an older consistent snapshot instead of
/// losing all metadata.
#[derive(Debug, Clone, Default)]
pub struct SnapshotJournal {
    entries: Vec<Bytes>,
    keep: usize,
}

impl SnapshotJournal {
    /// A journal retaining the newest `keep` frames (at least one).
    pub fn new(keep: usize) -> Self {
        Self { entries: Vec::new(), keep: keep.max(1) }
    }

    /// Serialize and append a snapshot, dropping the oldest frame when
    /// over capacity.
    pub fn append(&mut self, snap: &MetadataSnapshot) {
        self.push_raw(snap.to_bytes());
    }

    /// Append a raw frame verbatim — the fault-injection path for
    /// simulating torn or corrupted persistence writes in tests.
    pub fn push_raw(&mut self, frame: Bytes) {
        self.entries.push(frame);
        if self.entries.len() > self.keep {
            let excess = self.entries.len() - self.keep;
            self.entries.drain(..excess);
        }
    }

    /// Number of retained frames.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the journal holds no frames.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The newest frame, if any.
    pub fn latest(&self) -> Option<&Bytes> {
        self.entries.last()
    }

    /// Decode the newest frame that verifies. Returns the snapshot and
    /// the number of newer frames that failed verification and were
    /// skipped; [`PdcError::SnapshotCorrupt`] when no frame verifies.
    pub fn recover(&self) -> PdcResult<(MetadataSnapshot, usize)> {
        let mut last_err = corrupt("journal is empty");
        for (skipped, frame) in self.entries.iter().rev().enumerate() {
            match MetadataSnapshot::from_bytes(frame) {
                Ok(snap) => return Ok((snap, skipped)),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Restore the newest verifying snapshot into `odms`. Returns how
    /// many newer frames were skipped as corrupt.
    pub fn restore_into(&self, odms: &Odms) -> PdcResult<usize> {
        let (snap, skipped) = self.recover()?;
        odms.restore_metadata(&snap)?;
        Ok(skipped)
    }
}

impl MetadataService {
    /// Capture a snapshot of everything this service owns.
    pub fn snapshot(&self) -> MetadataSnapshot {
        // Each object's record comes from one version, so it is consistent
        // even while appends publish.
        let versions = self.versions();
        let (mut histograms, mut index_sizes, mut sorted_objects) = (vec![], vec![], vec![]);
        for v in &versions {
            let raw = v.meta.id.raw();
            histograms.extend(v.region_hists.as_deref().map(|h| (raw, h.clone())));
            index_sizes.extend(v.index_sizes.as_deref().map(|s| (raw, s.clone())));
            if v.meta.has_sorted_replica {
                sorted_objects.push(raw);
            }
        }
        MetadataSnapshot {
            version: 1,
            containers: self.all_containers(),
            objects: versions.iter().map(|v| (*v.meta).clone()).collect(),
            histograms,
            index_sizes,
            sorted_objects,
            next_id: self.next_id_watermark(),
        }
    }
}

impl Odms {
    /// Restore a metadata snapshot into this system (whose store must
    /// already hold the data regions — the snapshot is metadata only).
    /// Sorted replicas are rebuilt from the stored regions.
    pub fn restore_metadata(&self, snap: &MetadataSnapshot) -> PdcResult<()> {
        if snap.version != 1 {
            return Err(PdcError::Codec(format!(
                "unsupported metadata snapshot version {}",
                snap.version
            )));
        }
        let svc = self.meta();
        svc.bump_next_id(snap.next_id);
        for (id, name) in &snap.containers {
            svc.restore_container(pdc_types::ContainerId(*id), name);
        }
        let hists: HashMap<_, _> = snap.histograms.iter().map(|(id, h)| (*id, h)).collect();
        let sizes: HashMap<_, _> = snap.index_sizes.iter().map(|(id, s)| (*id, s)).collect();
        for meta in &snap.objects {
            let raw = meta.id.raw();
            // The replica is re-derived from the stored regions; the
            // directory is not part of a snapshot.
            let sorted = snap.sorted_objects.contains(&raw);
            let replica = sorted.then(|| self.sort_stored(meta)).transpose()?;
            svc.register_object(meta.clone(), |v| {
                if let Some(h) = hists.get(&raw) {
                    v.set_region_histograms((*h).clone());
                }
                v.index_sizes = sizes.get(&raw).map(|s| Arc::new((*s).clone()));
                if let Some(replica) = replica {
                    v.set_sorted_replica(replica);
                }
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::ImportOptions;
    use pdc_types::{Interval, TypedVec};

    fn world() -> (Odms, pdc_types::ObjectId, Vec<f32>) {
        let odms = Odms::new(4);
        let c = odms.create_container("persist");
        let data: Vec<f32> = (0..20_000).map(|i| ((i * 13) % 500) as f32 / 10.0).collect();
        let opts = ImportOptions {
            region_bytes: 8192,
            build_index: true,
            build_sorted: true,
            ..Default::default()
        };
        let obj = odms.import_array(c, "v", TypedVec::Float(data.clone()), &opts).unwrap().object;
        (odms, obj, data)
    }

    #[test]
    fn snapshot_captures_everything() {
        let (odms, obj, _) = world();
        let snap = odms.meta().snapshot();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.objects.len(), 1);
        assert_eq!(snap.objects[0].id, obj);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.index_sizes.len(), 1);
        assert_eq!(snap.sorted_objects, vec![obj.raw()]);
        assert_eq!(snap.containers.len(), 1);
    }

    #[test]
    fn restore_reproduces_queryable_state() {
        let (odms, obj, data) = world();
        let snap = odms.meta().snapshot();

        // A fresh system sharing the same object store payloads.
        let fresh = Odms::new(4);
        // copy data + index regions over (store contents are the "disk")
        let meta = odms.meta().get(obj).unwrap();
        for r in 0..meta.num_regions() {
            let rid = pdc_types::RegionId::new(obj, r);
            let (payload, tier) = odms.store().get(rid).unwrap();
            fresh.store().put(rid, payload, tier);
            if let Some(idx_obj) = meta.index_object {
                let irid = pdc_types::RegionId::new(idx_obj, r);
                let (payload, tier) = odms.store().get(irid).unwrap();
                fresh.store().put(irid, payload, tier);
            }
        }
        fresh.restore_metadata(&snap).unwrap();

        // Metadata answers match.
        let restored = fresh.meta().get(obj).unwrap();
        assert_eq!(restored.name, "v");
        assert_eq!(restored.num_regions(), meta.num_regions());
        let g = fresh.meta().global_histogram(obj).unwrap();
        assert_eq!(g.total(), data.len() as u64);
        // The rebuilt replica answers range lookups exactly.
        let replica = fresh.meta().sorted_replica(obj).unwrap();
        let iv = Interval::open(10.0, 12.0);
        let expect: Vec<u64> = (0..data.len() as u64)
            .filter(|&i| iv.contains(data[i as usize] as f64))
            .collect();
        assert_eq!(replica.lookup(&iv).selection.iter_coords().collect::<Vec<_>>(), expect);
        // Id allocation continues past the snapshot watermark.
        let new_id = fresh.meta().alloc_id();
        assert!(new_id.raw() >= snap.next_id);
    }

    #[test]
    fn wrong_version_rejected() {
        let (odms, _, _) = world();
        let mut snap = odms.meta().snapshot();
        snap.version = 99;
        let fresh = Odms::new(2);
        assert!(matches!(fresh.restore_metadata(&snap), Err(PdcError::Codec(_))));
    }

    fn rich_snapshot() -> MetadataSnapshot {
        let odms = Odms::new(4);
        let c = odms.create_container("persist");
        let data: Vec<f32> = (0..5000).map(|i| ((i * 13) % 500) as f32 / 10.0).collect();
        let mut attrs = std::collections::BTreeMap::new();
        attrs.insert("plate".to_string(), crate::meta::MetaValue::from(3i64));
        attrs.insert("ra".to_string(), crate::meta::MetaValue::from(153.17));
        attrs.insert("tag".to_string(), crate::meta::MetaValue::from("boss"));
        let opts = ImportOptions {
            region_bytes: 4096,
            build_index: true,
            build_sorted: true,
            attrs,
        };
        odms.import_array(c, "v", TypedVec::Float(data), &opts).unwrap();
        odms.meta().snapshot()
    }

    #[test]
    fn frame_round_trips_exactly() {
        let snap = rich_snapshot();
        let bytes = snap.to_bytes();
        let decoded = MetadataSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn every_truncation_is_detected_without_panic() {
        let snap = rich_snapshot();
        let bytes = snap.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    MetadataSnapshot::from_bytes(&bytes[..cut]),
                    Err(PdcError::SnapshotCorrupt(_))
                ),
                "truncation at {cut} escaped detection"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let snap = rich_snapshot();
        let bytes = snap.to_bytes().to_vec();
        // Flip one bit at a spread of positions across the frame; each
        // must be caught by magic, header, or checksum validation.
        for pos in (0..bytes.len()).step_by(97) {
            for bit in [0u8, 5] {
                let mut bad = bytes.clone();
                bad[pos] ^= 1 << bit;
                assert!(
                    matches!(
                        MetadataSnapshot::from_bytes(&bad),
                        Err(PdcError::SnapshotCorrupt(_))
                    ),
                    "bit flip at byte {pos} escaped detection"
                );
            }
        }
    }

    #[test]
    fn journal_keeps_last_k() {
        let snap = rich_snapshot();
        let mut journal = SnapshotJournal::new(3);
        assert!(journal.is_empty());
        for _ in 0..5 {
            journal.append(&snap);
        }
        assert_eq!(journal.len(), 3);
    }

    #[test]
    fn journal_recovers_past_torn_latest_write() {
        let (odms, obj, _) = world();
        let mut journal = SnapshotJournal::new(4);
        journal.append(&odms.meta().snapshot());
        // The latest persistence write was torn mid-frame.
        let good = odms.meta().snapshot().to_bytes();
        journal.push_raw(bytes::Bytes::from(good[..good.len() / 2].to_vec()));
        let (snap, skipped) = journal.recover().unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(snap.objects[0].id, obj);

        // restore_into lands the recovered snapshot on a fresh system.
        let fresh = Odms::new(4);
        let meta = odms.meta().get(obj).unwrap();
        for r in 0..meta.num_regions() {
            let rid = pdc_types::RegionId::new(obj, r);
            let (payload, tier) = odms.store().get(rid).unwrap();
            fresh.store().put(rid, payload, tier);
        }
        assert_eq!(journal.restore_into(&fresh).unwrap(), 1);
        assert_eq!(fresh.meta().get(obj).unwrap().name, "v");
    }

    #[test]
    fn journal_with_no_verifying_frame_is_typed_error() {
        let journal = SnapshotJournal::new(2);
        assert!(matches!(journal.recover(), Err(PdcError::SnapshotCorrupt(_))));
        let mut journal = SnapshotJournal::new(2);
        journal.push_raw(bytes::Bytes::from_static(b"not a snapshot at all"));
        journal.push_raw(bytes::Bytes::from_static(b"PDCS but still garbage"));
        assert!(matches!(journal.recover(), Err(PdcError::SnapshotCorrupt(_))));
        let fresh = Odms::new(2);
        assert!(journal.restore_into(&fresh).is_err());
    }
}
