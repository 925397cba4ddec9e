//! # pdc-server
//!
//! The PDC client/server runtime (paper §II, §III-C), generically typed so
//! the query engine layers on top without a dependency cycle.
//!
//! The paper runs one PDC server per compute node; the client library
//! "serializes the query conditions and broadcasts them to all available
//! servers", regions are "assigned to the servers in a load-balanced
//! fashion", and "after the metadata distribution process, the PDC servers
//! do not need to communicate with each other".
//!
//! Here a [`ServerPool`] hosts N **logical servers**, each owning
//! persistent per-server state (its region cache, simulated clock and
//! counters — state survives across queries, which is what produces the
//! paper's caching effects over a query series). Logical servers are
//! multiplexed over real worker threads — the dispatching thread plus the
//! pool's persistent helper crew, which waits between queries as the
//! paper's servers do instead of being spawned per broadcast; because all
//! *times* come from the deterministic cost model, results are identical
//! regardless of the host machine's core count.

pub mod assign;
mod crew;
pub mod fault;
pub mod placement;
pub mod pool;

pub use assign::balanced_by_weight;
pub use fault::{CorruptionSpec, FaultPlan, FaultProbe, ServerFaultSpec};
pub use placement::{MigrationPlan, Placement, SlotChange};
pub use pool::{ServerPanic, ServerPool};
