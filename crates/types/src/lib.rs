//! # pdc-types
//!
//! Shared vocabulary for the PDC-Query reproduction.
//!
//! This crate defines the types every other crate in the workspace speaks:
//!
//! * [`ObjectId`], [`ContainerId`], [`RegionId`], [`ServerId`] — identifiers
//!   for the entities of an object-centric data management system (ODMS).
//! * [`PdcType`] / [`PdcValue`] / [`TypedVec`] — the dynamically typed array
//!   element machinery mirroring the paper's `pdc_type_t` (float, double,
//!   int, uint, int64, uint64).
//! * [`QueryOp`] and [`Interval`] — query operators (`>`, `>=`, `<`, `<=`,
//!   `=`) and the normalized half-open/closed value intervals that
//!   conjunctions of operators reduce to.
//! * [`Selection`] — the run-length encoded set of matching element
//!   coordinates that `PDCquery_get_selection` returns.
//! * [`kernels`] — monomorphized, branchless scan kernels (typed interval
//!   lowering, 64-element hit masks, mask-to-run decoding)
//!   that every executor's hot loop runs on.
//! * [`RegionSpec`] / [`NdRegion`] — region geometry: 1-D partitions of an
//!   object plus N-dimensional spatial constraints.
//! * [`PdcError`] — the common error type.
//! * [`splitmix64`] / [`mix64`] — the deterministic mixer behind every
//!   seeded choice in the workspace.
//! * [`Unpoison`] — how every `std::sync` lock in the workspace is taken.
//! * [`wire`] — the bounds-checked [`ByteReader`], the [`PdcType`] tag
//!   table and the [`Bytes`] buffer that the index file, the snapshot
//!   frame and the block file share.

pub mod error;
pub mod ids;
pub mod interval;
pub mod kernels;
pub mod op;
pub mod region;
pub mod selection;
pub mod splitmix;
pub mod value;
pub mod wire;

pub use error::{PdcError, PdcResult};
pub use ids::{ContainerId, ObjectId, QueryId, RegionId, ServerId};
pub use interval::Interval;
pub use op::QueryOp;
pub use region::{NdRegion, RegionSpec, Shape};
pub use selection::{Run, Selection};
pub use splitmix::{mix64, splitmix64, unit_f64};
pub use value::{PdcType, PdcValue, TypedVec};
pub use wire::{ByteReader, Bytes};

/// Poison-ignoring lock access, the one way the workspace takes a
/// `std::sync` lock: `lock.read().unpoisoned()`. A panic while a lock is
/// held leaves the data as the panicking thread left it, and the server
/// pool isolates handler panics, so a poisoned lock is recovered rather
/// than propagated — a failed logical server must not wedge its state.
pub trait Unpoison<T> {
    /// The guard (or value) whether or not the lock was poisoned.
    fn unpoisoned(self) -> T;
}

impl<T> Unpoison<T> for std::sync::LockResult<T> {
    fn unpoisoned(self) -> T {
        self.unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}
