//! # pdc-storage
//!
//! The simulated HPC storage substrate.
//!
//! The paper ran on Cori's shared Lustre file system; this crate replaces
//! that hardware with a **deterministic cost model** driven by the byte
//! counts and access patterns of real query executions:
//!
//! * [`sim`] — simulated time ([`SimDuration`], [`SimClock`]): each logical
//!   PDC server accumulates modeled I/O, CPU, and network time on its own
//!   timeline; the harness reports `max` across servers, like the paper's
//!   end-to-end elapsed time.
//! * [`cost`] — the Lustre-like parallel-file-system model (per-request
//!   latency, per-OST and aggregate bandwidth, reader concurrency,
//!   placement efficiency), plus DRAM/burst-buffer tiers, a CPU model for
//!   scan/index/sort work, and a network model for client↔server traffic.
//! * [`store`] — the object store holding region payloads (typed arrays or
//!   raw index bytes) on a storage tier, with striped OST placement.
//! * [`cache`] — the per-server region cache with a byte budget (the
//!   paper's 64 GB per-server memory limit), which produces the paper's
//!   observed speedup across sequentially evaluated queries.
//! * [`counters`] — I/O, CPU, and network counters from which all times
//!   are derived.
//!
//! Everything *executes* for real (real arrays, real bitmaps, exact hit
//! counts); only *time* is modeled. That is the substitution DESIGN.md
//! documents for the missing Cori testbed: the paper's evaluation effects
//! (full-scan cost, region pruning benefit, index-read fraction, sorted
//! contiguity, caching, server scaling) are all functions of bytes moved,
//! requests issued, elements scanned, and concurrency — which we measure
//! exactly.

pub mod cache;
pub mod cost;
pub mod counters;
pub mod sim;
pub mod store;

pub use cache::{CacheSlot, RegionCache};
pub use cost::{BurstBufferModel, CostModel, CpuModel, NetworkModel, PfsModel, ReadPattern};
pub use counters::{CostBreakdown, IntegrityCounters, IoCounters, NetCounters, WorkCounters};
pub use sim::{SimClock, SimDuration};
pub use store::{
    fnv1a64, payload_checksum, BlockView, ColdRegion, ObjectStore, SpillStats, StorageTier,
    StoredPayload,
};

pub use bytes;
pub use pdc_blockstore::BlockCacheStats;
