//! # pdc-odms
//!
//! The object-centric data management substrate (the PDC system of §II).
//!
//! * [`meta`] — object metadata: names, shapes, types, user attributes
//!   (key/value tags), links to derived artifacts (bitmap index objects,
//!   sorted replicas).
//! * [`service`] — the metadata service: object registry, name lookup,
//!   tag queries (`PDCquery_tag`), per-region histograms and the merged
//!   **global histogram** of every object, owner-server assignment.
//!   "Metadata is managed as an object too ... pre-loaded at server start
//!   time and stored as in-memory objects for efficient operations."
//! * [`system`] — the [`Odms`] facade: create containers, import arrays
//!   (partitioning them into regions, generating local histograms
//!   automatically, optionally building the per-region bitmap index and
//!   the value-sorted replica), and read regions back.

pub mod meta;
pub mod movement;
pub mod persist;
pub mod service;
pub mod system;

pub use meta::{MetaValue, ObjectMeta};
pub use movement::{MoveReport, RebuildReport};
pub use persist::{MetadataSnapshot, SnapshotJournal};
pub use service::{MetadataService, ObjectVersion};
pub use system::{AppendReport, ImportOptions, ImportReport, MaintenanceReport, Odms};
