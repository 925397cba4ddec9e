//! Identifiers for ODMS entities.
//!
//! PDC identifies every entity (container, object, region, server, query)
//! with a 64-bit id handed out by the metadata service. We mirror that with
//! newtype wrappers so the ids cannot be confused with one another.

use std::fmt;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident($inner:ty)) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub $inner);

        impl $name {
            /// Raw integer value of the id.
            #[inline]
            pub const fn raw(self) -> $inner {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                Self(v)
            }
        }
    };
}

id_newtype!(
    /// Identifier of a PDC container (a collection of objects).
    ContainerId(u64)
);
id_newtype!(
    /// Identifier of a PDC data or metadata object.
    ObjectId(u64)
);
id_newtype!(
    /// Identifier of a logical PDC server process.
    ServerId(u32)
);
id_newtype!(
    /// Identifier of an in-flight query.
    QueryId(u64)
);

/// Identifier of one region (partition) of an object.
///
/// Regions are the basic unit of data placement and parallel evaluation in
/// PDC: a large object is broken into fixed-size regions, and each region
/// can live on any tier of the storage hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId {
    /// Object this region belongs to.
    pub object: ObjectId,
    /// Zero-based index of the region within the object.
    pub index: u32,
}

impl RegionId {
    /// Region `index` of object `object`.
    #[inline]
    pub const fn new(object: ObjectId, index: u32) -> Self {
        Self { object, index }
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Region({}.{})", self.object.0, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_hashable() {
        let a = ObjectId(1);
        let b = ObjectId(2);
        assert!(a < b);
        let mut set = std::collections::HashSet::new();
        set.insert(a);
        set.insert(b);
        set.insert(ObjectId(1));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn region_id_orders_by_object_then_index() {
        let r00 = RegionId::new(ObjectId(0), 5);
        let r10 = RegionId::new(ObjectId(1), 0);
        let r11 = RegionId::new(ObjectId(1), 1);
        assert!(r00 < r10);
        assert!(r10 < r11);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(ObjectId(7).to_string(), "ObjectId(7)");
        assert_eq!(RegionId::new(ObjectId(3), 2).to_string(), "Region(3.2)");
    }

    #[test]
    fn from_raw_roundtrip() {
        let id: ServerId = 9u32.into();
        assert_eq!(id.raw(), 9);
    }
}
