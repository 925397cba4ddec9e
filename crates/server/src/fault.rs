//! Deterministic fault injection for the logical server pool.
//!
//! A [`FaultPlan`] describes, per logical server, what goes wrong and
//! when — crash on the k-th region access, a fixed slowdown factor, or a
//! number of transient evaluation errors. Plans are either constructed
//! explicitly (tests) or derived from a seed (`--fault-seed`), so every
//! failure scenario replays exactly: the same seed produces the same
//! crashes at the same points of the same simulated timeline.
//!
//! The plan is *installed* into each server's state as a [`FaultProbe`],
//! which the storage-access layer consults on every region access. Faults
//! therefore surface through the same [`PdcResult`] plumbing as genuine
//! storage errors, and the recovery machinery upstream cannot tell them
//! apart — which is the point.

use pdc_types::{splitmix64, PdcError, PdcResult};
use std::collections::BTreeMap;

/// What goes wrong on one logical server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerFaultSpec {
    /// Crash permanently on the k-th region access (0 = the very first).
    /// A crashed server fails every subsequent access until its state is
    /// reset.
    pub crash_at_access: Option<u64>,
    /// Multiply this server's per-round evaluation time by this factor
    /// (1.0 = healthy). Slow servers past the client timeout get their
    /// work reassigned.
    pub slowdown: f64,
    /// Fail the first `transient_errors` accesses with a retryable error,
    /// then behave normally.
    pub transient_errors: u32,
    /// The first `corrupt_reads` storage reads observe a transient
    /// checksum failure on the transferred bytes: the server re-reads the
    /// region (charged to the `integrity` cost lane) and proceeds — this
    /// never changes query results, only their cost.
    pub corrupt_reads: u32,
}

impl Default for ServerFaultSpec {
    fn default() -> Self {
        Self { crash_at_access: None, slowdown: 1.0, transient_errors: 0, corrupt_reads: 0 }
    }
}

impl ServerFaultSpec {
    fn is_healthy(&self) -> bool {
        self.crash_at_access.is_none()
            && self.slowdown == 1.0
            && self.transient_errors == 0
            && self.corrupt_reads == 0
    }
}

/// Deterministic at-rest corruption to inject into the object store and
/// the metadata-resident auxiliary structures before queries run.
/// Victims are drawn per seed with a partial Fisher-Yates shuffle, so the
/// same seed always corrupts the same set (regression-tested).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionSpec {
    /// Fraction of each object's data regions to bit-flip (0.0–1.0).
    pub data_fraction: f64,
    /// Fraction of auxiliary structures (index regions, region
    /// histograms, sorted replicas) to corrupt (0.0–1.0).
    pub aux_fraction: f64,
    /// Seed for victim selection and flip sites.
    pub seed: u64,
}

impl CorruptionSpec {
    /// Corrupt the given fractions of data regions / aux structures.
    pub fn new(data_fraction: f64, aux_fraction: f64, seed: u64) -> Self {
        Self {
            data_fraction: data_fraction.clamp(0.0, 1.0),
            aux_fraction: aux_fraction.clamp(0.0, 1.0),
            seed,
        }
    }

    /// Deterministically pick `ceil(n·fraction)` victims out of `0..n`
    /// (sorted). `salt` separates draws for different structure kinds so
    /// data and aux victims are independent.
    pub fn victims(&self, n: usize, fraction: f64, salt: u64) -> Vec<usize> {
        let fraction = fraction.clamp(0.0, 1.0);
        if n == 0 || fraction <= 0.0 {
            return Vec::new();
        }
        let count = ((n as f64 * fraction).ceil() as usize).min(n);
        let mut rng = self.seed ^ salt ^ RNG_SALT;
        let mut pool: Vec<usize> = (0..n).collect();
        // Partial Fisher-Yates: the first `count` entries are the victims.
        for i in 0..count {
            let j = i + (splitmix64(&mut rng) % (n as u64 - i as u64)) as usize;
            pool.swap(i, j);
        }
        let mut out = pool[..count].to_vec();
        out.sort_unstable();
        out
    }

    /// Data-region victims out of `0..n`.
    pub fn data_victims(&self, n: usize, salt: u64) -> Vec<usize> {
        self.victims(n, self.data_fraction, salt ^ 0xDA7A_0000_0000_0001)
    }

    /// Auxiliary-structure victims out of `0..n`.
    pub fn aux_victims(&self, n: usize, salt: u64) -> Vec<usize> {
        self.victims(n, self.aux_fraction, salt ^ 0xA0C5_0000_0000_0002)
    }
}

/// A deterministic, per-server fault schedule (plus optional at-rest
/// corruption applied to the store before queries run).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    specs: BTreeMap<u32, ServerFaultSpec>,
    corruption: Option<CorruptionSpec>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set one server's fault spec (builder style).
    pub fn with_spec(mut self, server: u32, spec: ServerFaultSpec) -> Self {
        self.specs.insert(server, spec);
        self
    }

    /// Crash the given servers on their first region access.
    pub fn kill(servers: &[u32]) -> Self {
        let mut plan = Self::new();
        for &s in servers {
            plan.specs.insert(
                s,
                ServerFaultSpec { crash_at_access: Some(0), ..Default::default() },
            );
        }
        plan
    }

    /// Crash `count` of `num_servers` servers, chosen deterministically
    /// from `seed`. Victims crash on their very first region access, so
    /// "kill K servers" reliably means K servers are down regardless of
    /// how few accesses the evaluation strategy makes; use
    /// [`FaultPlan::seeded`] or an explicit [`ServerFaultSpec`] for
    /// mid-evaluation crash points.
    pub fn kill_count(count: u32, num_servers: u32, seed: u64) -> Self {
        let count = count.min(num_servers);
        let mut rng = seed ^ RNG_SALT;
        let mut victims: Vec<u32> = (0..num_servers).collect();
        // Partial Fisher-Yates: the first `count` entries are the victims.
        for i in 0..count as usize {
            let j = i + (splitmix64(&mut rng) % (num_servers as u64 - i as u64)) as usize;
            victims.swap(i, j);
        }
        let mut plan = Self::new();
        for &s in &victims[..count as usize] {
            plan.specs
                .insert(s, ServerFaultSpec { crash_at_access: Some(0), ..Default::default() });
        }
        plan
    }

    /// A seed-derived mixed plan over `num_servers` servers: roughly a
    /// quarter of the servers get a fault — a crash, a slowdown, a few
    /// transient errors, or a few transient corrupt reads — but at least
    /// one server always stays healthy.
    pub fn seeded(seed: u64, num_servers: u32) -> Self {
        let mut rng = seed ^ RNG_SALT;
        let mut plan = Self::new();
        let mut crashes = 0;
        for s in 0..num_servers {
            if !splitmix64(&mut rng).is_multiple_of(4) {
                continue;
            }
            let spec = match splitmix64(&mut rng) % 4 {
                // Never crash the last healthy-by-construction candidate:
                // leaving at least one server alive keeps every seeded
                // plan recoverable.
                0 if crashes + 1 < num_servers => {
                    crashes += 1;
                    ServerFaultSpec {
                        crash_at_access: Some(splitmix64(&mut rng) % 16),
                        ..Default::default()
                    }
                }
                1 => ServerFaultSpec {
                    slowdown: 1.5 + (splitmix64(&mut rng) % 100) as f64 / 10.0,
                    ..Default::default()
                },
                2 => ServerFaultSpec {
                    transient_errors: 1 + (splitmix64(&mut rng) % 3) as u32,
                    ..Default::default()
                },
                _ => ServerFaultSpec {
                    corrupt_reads: 1 + (splitmix64(&mut rng) % 2) as u32,
                    ..Default::default()
                },
            };
            plan.specs.insert(s, spec);
        }
        plan
    }

    /// [`FaultPlan::seeded`] plus an at-rest [`CorruptionSpec`] derived
    /// from the same seed, so one `--fault-seed` value replays the whole
    /// failure *and* corruption scenario.
    pub fn seeded_with_corruption(
        seed: u64,
        num_servers: u32,
        data_fraction: f64,
        aux_fraction: f64,
    ) -> Self {
        Self::seeded(seed, num_servers)
            .with_corruption(CorruptionSpec::new(data_fraction, aux_fraction, seed))
    }

    /// Attach an at-rest corruption spec (builder style).
    pub fn with_corruption(mut self, spec: CorruptionSpec) -> Self {
        self.corruption = Some(spec);
        self
    }

    /// The plan's at-rest corruption spec, if any.
    pub fn corruption(&self) -> Option<&CorruptionSpec> {
        self.corruption.as_ref()
    }

    /// This plan with the corruption spec stripped (per-server faults
    /// only).
    pub fn clone_without_corruption(&self) -> Self {
        Self { specs: self.specs.clone(), corruption: None }
    }

    /// The probe to install on `server` (`None` if the server is healthy
    /// under this plan).
    pub fn probe_for(&self, server: u32) -> Option<FaultProbe> {
        let spec = self.specs.get(&server).copied()?;
        if spec.is_healthy() {
            return None;
        }
        Some(FaultProbe {
            server,
            spec,
            accesses: 0,
            transient_left: spec.transient_errors,
            corrupt_left: spec.corrupt_reads,
            crashed: false,
        })
    }

    /// Servers this plan crashes outright (not slowdowns/transients).
    pub fn crashed_servers(&self) -> Vec<u32> {
        self.specs
            .iter()
            .filter(|(_, s)| s.crash_at_access.is_some())
            .map(|(&id, _)| id)
            .collect()
    }

    /// Whether the plan contains no faults (and no corruption) at all.
    pub fn is_empty(&self) -> bool {
        self.specs.values().all(|s| s.is_healthy()) && self.corruption.is_none()
    }
}

/// The runtime view of one server's fault spec: counts region accesses
/// and decides when the scheduled fault fires.
#[derive(Debug, Clone)]
pub struct FaultProbe {
    server: u32,
    spec: ServerFaultSpec,
    accesses: u64,
    transient_left: u32,
    corrupt_left: u32,
    crashed: bool,
}

impl FaultProbe {
    /// Called by the storage layer before every region access. Errors
    /// when the scheduled fault fires (and forever after a crash).
    pub fn on_access(&mut self) -> PdcResult<()> {
        if self.crashed {
            return Err(PdcError::ServerFailed {
                server: self.server,
                reason: "server crashed".into(),
            });
        }
        let k = self.accesses;
        self.accesses += 1;
        if let Some(at) = self.spec.crash_at_access {
            if k >= at {
                self.crashed = true;
                return Err(PdcError::ServerFailed {
                    server: self.server,
                    reason: format!("injected crash at region access {k}"),
                });
            }
        }
        if self.transient_left > 0 {
            self.transient_left -= 1;
            return Err(PdcError::ServerFailed {
                server: self.server,
                reason: format!("injected transient error at region access {k}"),
            });
        }
        Ok(())
    }

    /// Consumed by the storage layer on each storage read: `true` means
    /// this read observed a transient checksum failure and must be
    /// re-read (charged to the `integrity` lane). Unlike
    /// [`FaultProbe::on_access`] failures this is not an error — the
    /// re-read succeeds, so results never change.
    pub fn take_corrupt_read(&mut self) -> bool {
        if self.corrupt_left > 0 {
            self.corrupt_left -= 1;
            true
        } else {
            false
        }
    }

    /// Whether the crash fault has fired (the server is dead until reset).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// This server's evaluation-time multiplier.
    pub fn slowdown(&self) -> f64 {
        self.spec.slowdown
    }
}

/// Salt separating plan-construction streams from other uses of a seed.
const RNG_SALT: u64 = 0xD1B5_4A32_D192_ED03;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_crashes_on_first_access() {
        let plan = FaultPlan::kill(&[1]);
        assert!(plan.probe_for(0).is_none());
        let mut p = plan.probe_for(1).unwrap();
        assert!(!p.is_crashed());
        assert!(p.on_access().is_err());
        assert!(p.is_crashed());
        // Dead forever.
        assert!(p.on_access().is_err());
    }

    #[test]
    fn crash_at_k_allows_earlier_accesses() {
        let plan = FaultPlan::new().with_spec(
            0,
            ServerFaultSpec { crash_at_access: Some(3), ..Default::default() },
        );
        let mut p = plan.probe_for(0).unwrap();
        for _ in 0..3 {
            assert!(p.on_access().is_ok());
        }
        assert!(p.on_access().is_err());
        assert!(p.is_crashed());
    }

    #[test]
    fn transient_errors_then_recovery() {
        let plan = FaultPlan::new()
            .with_spec(2, ServerFaultSpec { transient_errors: 2, ..Default::default() });
        let mut p = plan.probe_for(2).unwrap();
        assert!(p.on_access().is_err());
        assert!(p.on_access().is_err());
        assert!(!p.is_crashed(), "transient errors must not kill the server");
        assert!(p.on_access().is_ok());
    }

    #[test]
    fn kill_count_is_deterministic_and_bounded() {
        let a = FaultPlan::kill_count(3, 8, 42);
        let b = FaultPlan::kill_count(3, 8, 42);
        assert_eq!(a, b);
        assert_eq!(a.crashed_servers().len(), 3);
        let c = FaultPlan::kill_count(3, 8, 43);
        assert!(a != c || a.crashed_servers() == c.crashed_servers());
        // Never more victims than servers.
        assert_eq!(FaultPlan::kill_count(99, 4, 1).crashed_servers().len(), 4);
    }

    #[test]
    fn seeded_plans_leave_a_survivor() {
        for seed in 0..200 {
            for n in 1..10 {
                let plan = FaultPlan::seeded(seed, n);
                assert!(
                    (plan.crashed_servers().len() as u32) < n.max(1),
                    "seed {seed} n {n} crashed everything"
                );
            }
        }
    }

    #[test]
    fn healthy_specs_produce_no_probe() {
        let plan = FaultPlan::new().with_spec(0, ServerFaultSpec::default());
        assert!(plan.probe_for(0).is_none());
        assert!(plan.is_empty());
    }

    #[test]
    fn corrupt_reads_drain_then_clean() {
        let plan = FaultPlan::new()
            .with_spec(1, ServerFaultSpec { corrupt_reads: 2, ..Default::default() });
        assert!(!plan.is_empty());
        let mut p = plan.probe_for(1).unwrap();
        // Corrupt reads are not access errors.
        assert!(p.on_access().is_ok());
        assert!(p.take_corrupt_read());
        assert!(p.take_corrupt_read());
        assert!(!p.take_corrupt_read(), "budget must drain");
        assert!(!p.is_crashed());
    }

    #[test]
    fn corruption_spec_victims_are_seed_deterministic() {
        // Satellite regression: same seed ⇒ same corrupted set.
        let spec = CorruptionSpec::new(0.25, 0.5, 42);
        assert_eq!(spec.data_victims(40, 7), spec.data_victims(40, 7));
        assert_eq!(spec.aux_victims(40, 7), spec.aux_victims(40, 7));
        let other = CorruptionSpec::new(0.25, 0.5, 43);
        assert_ne!(spec.data_victims(40, 7), other.data_victims(40, 7));
        // Different salts draw independently.
        assert_ne!(spec.data_victims(40, 7), spec.data_victims(40, 8));
        // ceil() guarantees at least one victim for any positive fraction.
        assert_eq!(spec.victims(3, 0.05, 0).len(), 1);
        assert_eq!(spec.victims(40, 0.25, 0).len(), 10);
        assert!(spec.victims(0, 0.5, 0).is_empty());
        assert!(spec.victims(10, 0.0, 0).is_empty());
        // Victims are sorted, unique, in range.
        let v = spec.victims(100, 0.2, 3);
        assert!(v.windows(2).all(|w| w[0] < w[1]));
        assert!(v.iter().all(|&i| i < 100));
    }

    #[test]
    fn seeded_with_corruption_replays() {
        let a = FaultPlan::seeded_with_corruption(9, 8, 0.1, 0.2);
        let b = FaultPlan::seeded_with_corruption(9, 8, 0.1, 0.2);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let spec = a.corruption().unwrap();
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.data_fraction, 0.1);
        // The per-server arm of `seeded` is unchanged by the corruption
        // attachment.
        assert_eq!(FaultPlan::seeded(9, 8), a.clone_without_corruption());
    }
}
