//! # pdc-directory
//!
//! Metadata-side acceleration structures for conjunctive region pruning:
//!
//! * [`binning`] — the hierarchical **region directory**: UCSC-style
//!   fixed-level binning over each region's observed `[min, max]` value
//!   bounds. A conjunctive query resolves its candidate region set with a
//!   range→bin overlap lookup over the populated bins instead of walking
//!   every region's metadata. The directory is *advisory*: the candidate
//!   set it returns is exactly the set of regions whose 1-D bounds
//!   overlap the query interval, so every region it skips would have been
//!   pruned by the histogram min/max test anyway — Selections and
//!   simulated costs are bit-identical whether or not an object has one.
//! * [`joint`] — **cross-variable joint bounds**: a compact per-region
//!   2-D grid of cell counts + cell bounding boxes over a correlated
//!   variable pair (e.g. `(Energy, x)` in VPIC). A conjunction
//!   constraining both variables can prove a region empty for the *joint*
//!   rectangle even when each 1-D projection overlaps, killing the
//!   false-positive regions independent per-variable pruning admits.
//!
//! Both structures are pure functions of data already in the metadata
//! service (region histograms / region payloads), are maintained
//! incrementally by streaming appends, and are validated + rebuilt by the
//! same verify-and-fallback lane as histograms and sorted replicas.

pub mod binning;
pub mod joint;

pub use binning::{DirectoryProbe, RegionDirectory};
pub use joint::{JointGrid, JOINT_GRID_DIM};
