//! Object metadata.
//!
//! "Each data object is associated with metadata, including a name, ID,
//! and other attributes such as time of data generation, ownership,
//! relations to other objects, etc."

use pdc_types::{ContainerId, ObjectId, PdcType, RegionSpec, Shape};
use std::collections::BTreeMap;
use std::fmt;

/// A user-attribute value: string, integer, or float.
///
/// Floats hash/compare by bit pattern so attribute values can key the
/// metadata service's inverted index (tag queries like `RADEG = 153.17`
/// compare exactly, as in H5BOSS).
#[derive(Debug, Clone)]
pub enum MetaValue {
    /// A string tag.
    Str(String),
    /// An integer tag.
    I64(i64),
    /// A float tag (bitwise equality).
    F64(f64),
}

impl PartialEq for MetaValue {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (MetaValue::Str(a), MetaValue::Str(b)) => a == b,
            (MetaValue::I64(a), MetaValue::I64(b)) => a == b,
            (MetaValue::F64(a), MetaValue::F64(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl Eq for MetaValue {}

impl std::hash::Hash for MetaValue {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            MetaValue::Str(s) => {
                0u8.hash(state);
                s.hash(state);
            }
            MetaValue::I64(v) => {
                1u8.hash(state);
                v.hash(state);
            }
            MetaValue::F64(v) => {
                2u8.hash(state);
                v.to_bits().hash(state);
            }
        }
    }
}

impl fmt::Display for MetaValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetaValue::Str(s) => write!(f, "{s}"),
            MetaValue::I64(v) => write!(f, "{v}"),
            MetaValue::F64(v) => write!(f, "{v}"),
        }
    }
}

impl From<&str> for MetaValue {
    fn from(s: &str) -> Self {
        MetaValue::Str(s.to_string())
    }
}
impl From<i64> for MetaValue {
    fn from(v: i64) -> Self {
        MetaValue::I64(v)
    }
}
impl From<f64> for MetaValue {
    fn from(v: f64) -> Self {
        MetaValue::F64(v)
    }
}

/// Metadata of one data object.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectMeta {
    /// Object id.
    pub id: ObjectId,
    /// Containing container.
    pub container: ContainerId,
    /// Object name (unique within the system).
    pub name: String,
    /// Element type.
    pub pdc_type: PdcType,
    /// Array dimensions.
    pub shape: Shape,
    /// Elements per region (the region size in elements).
    pub region_elems: u64,
    /// User attributes (tags).
    pub attrs: BTreeMap<String, MetaValue>,
    /// The derived bitmap-index object, if one was built.
    pub index_object: Option<ObjectId>,
    /// Whether a value-sorted replica exists for this object.
    pub has_sorted_replica: bool,
}

impl ObjectMeta {
    /// Total number of elements.
    pub fn num_elements(&self) -> u64 {
        self.shape.num_elements()
    }

    /// Total data size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.num_elements() * self.pdc_type.size_bytes()
    }

    /// Region size in bytes.
    pub fn region_bytes(&self) -> u64 {
        self.region_elems * self.pdc_type.size_bytes()
    }

    /// The 1-D spans of this object's regions.
    pub fn regions(&self) -> Vec<RegionSpec> {
        RegionSpec::partition(self.num_elements(), self.region_elems)
    }

    /// Number of regions.
    pub fn num_regions(&self) -> u32 {
        self.num_elements().div_ceil(self.region_elems) as u32
    }

    /// The span of region `idx`.
    pub fn region_span(&self, idx: u32) -> RegionSpec {
        let offset = idx as u64 * self.region_elems;
        let len = self.region_elems.min(self.num_elements() - offset);
        RegionSpec::new(offset, len)
    }

    /// The regions whose spans overlap `[start, start+len)` — used to map
    /// a spatial query constraint to the regions it touches.
    pub fn regions_overlapping_span(&self, start: u64, len: u64) -> Vec<u32> {
        if len == 0 || start >= self.num_elements() {
            return Vec::new();
        }
        let end = (start + len).min(self.num_elements());
        let first = (start / self.region_elems) as u32;
        let last = ((end - 1) / self.region_elems) as u32;
        (first..=last).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(n: u64, region: u64) -> ObjectMeta {
        ObjectMeta {
            id: ObjectId(1),
            container: ContainerId(1),
            name: "energy".into(),
            pdc_type: PdcType::Float,
            shape: Shape::one_d(n),
            region_elems: region,
            attrs: BTreeMap::new(),
            index_object: None,
            has_sorted_replica: false,
        }
    }

    #[test]
    fn sizes_and_regions() {
        let m = meta(1000, 256);
        assert_eq!(m.num_elements(), 1000);
        assert_eq!(m.size_bytes(), 4000);
        assert_eq!(m.region_bytes(), 1024);
        assert_eq!(m.num_regions(), 4);
        let regions = m.regions();
        assert_eq!(regions.len(), 4);
        assert_eq!(regions[3].len, 232);
        assert_eq!(m.region_span(3), regions[3]);
    }

    #[test]
    fn regions_overlapping_span_clips() {
        let m = meta(1000, 256);
        assert_eq!(m.regions_overlapping_span(0, 1000), vec![0, 1, 2, 3]);
        assert_eq!(m.regions_overlapping_span(200, 100), vec![0, 1]);
        assert_eq!(m.regions_overlapping_span(256, 256), vec![1]);
        assert_eq!(m.regions_overlapping_span(990, 500), vec![3]);
        assert!(m.regions_overlapping_span(2000, 10).is_empty());
        assert!(m.regions_overlapping_span(0, 0).is_empty());
    }

    #[test]
    fn meta_value_equality_and_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(MetaValue::from(153.17));
        set.insert(MetaValue::from(153.17));
        set.insert(MetaValue::from("plate-3"));
        set.insert(MetaValue::from(42i64));
        assert_eq!(set.len(), 3);
        assert!(set.contains(&MetaValue::F64(153.17)));
        assert_ne!(MetaValue::F64(1.0), MetaValue::I64(1));
    }

    #[test]
    fn meta_value_display() {
        assert_eq!(MetaValue::from("x").to_string(), "x");
        assert_eq!(MetaValue::from(3i64).to_string(), "3");
        assert_eq!(MetaValue::from(2.5).to_string(), "2.5");
    }
}
