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

pub mod error;
pub mod ids;
pub mod interval;
pub mod kernels;
pub mod op;
pub mod region;
pub mod selection;
pub mod splitmix;
pub mod value;

pub use error::{PdcError, PdcResult};
pub use ids::{ContainerId, ObjectId, QueryId, RegionId, ServerId};
pub use interval::Interval;
pub use op::QueryOp;
pub use region::{NdRegion, RegionSpec, Shape};
pub use selection::{Run, Selection};
pub use splitmix::{mix64, splitmix64, unit_f64};
pub use value::{PdcType, PdcValue, TypedVec};
