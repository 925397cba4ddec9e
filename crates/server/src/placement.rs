//! K-way slot placement: rendezvous hashing over a rack→server
//! pseudo-topology, with elastic membership.
//!
//! Query work is partitioned into **assignment slots** (slot `s` owns the
//! regions with `r % num_slots == s`). Single-home scheduling maps slot
//! `s` to server `s`; a [`Placement`] generalizes that to an ordered
//! **replica set** of `k` servers per slot, DAOS-pool-map style:
//!
//! * The **anchor** of slot `s` is server `s % n_anchor` (the initial
//!   server count). While the anchor is a live member it is the slot's
//!   rank-0 replica, so `k = 1` on the initial membership degenerates to
//!   exactly the classic single-home layout — bit-for-bit.
//! * Backup ranks are filled by **rendezvous (HRW) hashing**: every
//!   member scores `hash(seed, slot, server)` and the highest scores
//!   win. HRW gives minimal movement on membership change — a joining
//!   server only steals the slots it now scores highest on, a leaving
//!   server only releases its own.
//! * Servers live in **racks** (`server / rack_size`); backup selection
//!   prefers candidates whose rack is not already represented in the
//!   slot's replica set, so one rack failure cannot take out a whole
//!   replica set (when the membership spans multiple racks).
//! * Backups **de-collide per anchor family**: the slots anchored at the
//!   same server cycle their rank-`r` backups through distinct servers.
//!   When the anchor dies, its slots fail over to *different* backups,
//!   so the inherited load spreads instead of doubling one server.
//! * Every slot has one **preference list** ([`Placement::preference`]):
//!   its replica set, then every other member in HRW order. Failover
//!   walks it, so even a `k = 1` slot has somewhere to go.
//!
//! Everything is a pure function of `(seed, num_slots, n_anchor, k,
//! membership)`: same seed ⇒ same layout, on every host.

use pdc_types::{mix64, PdcError, PdcResult};
use std::collections::HashMap;

/// Servers per rack in the pseudo-topology (`rack = server / RACK_SIZE`).
pub const RACK_SIZE: u32 = 4;

/// One slot's replica-set change produced by a membership transition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotChange {
    /// The slot whose replica set changed.
    pub slot: u32,
    /// Servers that newly joined the replica set (need a copy of the
    /// slot's regions).
    pub added: Vec<u32>,
    /// Servers that left the replica set (their copy is released).
    pub removed: Vec<u32>,
}

/// The migration work a membership change implies: one entry per slot
/// whose replica set changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrationPlan {
    /// Per-slot replica-set diffs (slots with identical sets are absent).
    pub changes: Vec<SlotChange>,
}

impl MigrationPlan {
    /// Slots that gained at least one new replica (the ones whose regions
    /// must be copied somewhere).
    pub fn slots_gaining_replicas(&self) -> Vec<u32> {
        self.changes.iter().filter(|c| !c.added.is_empty()).map(|c| c.slot).collect()
    }
}

/// Deterministic k-way slot→replica-set placement over an elastic
/// membership.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    num_slots: u32,
    n_anchor: u32,
    k: u32,
    seed: u64,
    members: Vec<u32>,
    sets: Vec<Vec<u32>>,
}

/// The rendezvous score of `server` for `slot` under `seed`.
fn hrw(seed: u64, slot: u32, server: u32) -> u64 {
    mix64(seed ^ (u64::from(slot) << 32) ^ u64::from(server) ^ 0xA076_1D64_78BD_642F)
}

/// The rack a server lives in.
pub fn rack_of(server: u32) -> u32 {
    server / RACK_SIZE
}

impl Placement {
    /// Build a placement for `num_slots` slots over the initial membership
    /// `0..n_anchor`, `k` replicas per slot, deterministic in `seed`.
    pub fn new(num_slots: u32, n_anchor: u32, k: u32, seed: u64) -> Self {
        let mut p = Self {
            num_slots,
            n_anchor: n_anchor.max(1),
            k: k.max(1),
            seed,
            members: (0..n_anchor.max(1)).collect(),
            sets: Vec::new(),
        };
        p.rebuild();
        p
    }

    /// Replicas per slot this placement targets.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of assignment slots.
    pub fn num_slots(&self) -> u32 {
        self.num_slots
    }

    /// The current membership, sorted ascending.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// Whether `server` is currently a member.
    pub fn is_member(&self, server: u32) -> bool {
        self.members.binary_search(&server).is_ok()
    }

    /// The ordered replica set of `slot` (rank 0 first). Length is
    /// `min(k, members)`.
    pub fn replicas(&self, slot: u32) -> &[u32] {
        &self.sets[slot as usize]
    }

    /// All replica sets, indexed by slot.
    pub fn replica_sets(&self) -> &[Vec<u32>] {
        &self.sets
    }

    /// Admit `server` into the membership; returns the slots whose
    /// replica sets changed. No-op plan when already a member.
    pub fn join(&mut self, server: u32) -> MigrationPlan {
        if self.is_member(server) {
            return MigrationPlan::default();
        }
        let before = self.sets.clone();
        let at = self.members.partition_point(|&m| m < server);
        self.members.insert(at, server);
        self.rebuild();
        self.diff(&before)
    }

    /// Remove `server` from the membership; returns the slots whose
    /// replica sets changed. No-op plan when not a member. The last
    /// member cannot leave: that is an `InvalidQuery` error, and the
    /// placement is left unchanged.
    pub fn leave(&mut self, server: u32) -> PdcResult<MigrationPlan> {
        let Ok(at) = self.members.binary_search(&server) else {
            return Ok(MigrationPlan::default());
        };
        if self.members.len() == 1 {
            return Err(PdcError::InvalidQuery("the last placement member cannot leave".into()));
        }
        let before = self.sets.clone();
        self.members.remove(at);
        self.rebuild();
        Ok(self.diff(&before))
    }

    /// The failover order of `slot`: its replica set, then every other
    /// member in rendezvous order. Every member reads the same shared
    /// storage, so any of them can evaluate the slot; the list only says
    /// who tries first. Built on demand — healthy routing never needs
    /// more than the replica set.
    pub fn preference(&self, slot: u32) -> Vec<u32> {
        let set = self.replicas(slot);
        let mut list = set.to_vec();
        list.extend(self.hrw_order(slot, set));
        list
    }

    /// The members not in `skip`, HRW score descending with the id as the
    /// tie break — deterministic and stable under membership change.
    fn hrw_order(&self, slot: u32, skip: &[u32]) -> Vec<u32> {
        let mut order: Vec<u32> =
            self.members.iter().copied().filter(|q| !skip.contains(q)).collect();
        order.sort_by_key(|&q| (std::cmp::Reverse(hrw(self.seed, slot, q)), q));
        order
    }

    fn diff(&self, before: &[Vec<u32>]) -> MigrationPlan {
        let mut changes = Vec::new();
        for (slot, (old, new)) in before.iter().zip(&self.sets).enumerate() {
            if old == new {
                continue;
            }
            let added = new.iter().copied().filter(|s| !old.contains(s)).collect();
            let removed = old.iter().copied().filter(|s| !new.contains(s)).collect();
            changes.push(SlotChange { slot: slot as u32, added, removed });
        }
        MigrationPlan { changes }
    }

    /// Recompute every slot's replica set from the current membership.
    fn rebuild(&mut self) {
        let m = self.members.len();
        let want = (self.k as usize).min(m);
        // Per-(anchor, rank) de-collision cycles: servers already used as
        // the rank-`r` backup for another slot of the same anchor.
        let mut used: HashMap<(u32, usize), Vec<u32>> = HashMap::new();
        self.sets = (0..self.num_slots)
            .map(|slot| {
                let anchor = slot % self.n_anchor;
                let mut set: Vec<u32> = Vec::with_capacity(want);
                if self.is_member(anchor) {
                    set.push(anchor);
                }
                let prefs = self.hrw_order(slot, &set);
                while set.len() < want {
                    let rank = set.len();
                    let cycle = used.entry((anchor, rank)).or_default();
                    let fresh = |q: &u32, cycle: &[u32]| !set.contains(q) && !cycle.contains(q);
                    let racks: Vec<u32> = set.iter().map(|&s| rack_of(s)).collect();
                    // Pass 1: unused this cycle AND rack-diverse; pass 2:
                    // unused this cycle; pass 3: any remaining candidate
                    // (starts a new de-collision cycle).
                    let pick = prefs
                        .iter()
                        .find(|q| fresh(q, cycle) && !racks.contains(&rack_of(**q)))
                        .or_else(|| prefs.iter().find(|q| fresh(q, cycle)))
                        .or_else(|| prefs.iter().find(|q| !set.contains(q)))
                        .copied();
                    let Some(pick) = pick else { break };
                    if cycle.contains(&pick) {
                        cycle.clear();
                    }
                    cycle.push(pick);
                    set.push(pick);
                }
                set
            })
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_same_seed_same_layout() {
        let a = Placement::new(48, 6, 3, 42);
        let b = Placement::new(48, 6, 3, 42);
        assert_eq!(a.replica_sets(), b.replica_sets());
        let c = Placement::new(48, 6, 3, 43);
        assert_ne!(a.replica_sets(), c.replica_sets(), "seed must matter");
    }

    #[test]
    fn replication_k1_degenerates_to_single_home() {
        let p = Placement::new(6, 6, 1, 7);
        for slot in 0..6 {
            assert_eq!(p.replicas(slot), &[slot], "slot {slot} must live on its anchor");
        }
    }

    #[test]
    fn replication_sets_are_distinct_and_sized() {
        for k in 1..=4u32 {
            let p = Placement::new(40, 8, k, 1);
            for slot in 0..40 {
                let set = p.replicas(slot);
                assert_eq!(set.len(), k.min(8) as usize);
                let mut dedup = set.to_vec();
                dedup.sort_unstable();
                dedup.dedup();
                assert_eq!(dedup.len(), set.len(), "slot {slot} set {set:?} has duplicates");
                assert_eq!(set[0], slot % 8, "anchor must lead the set");
            }
        }
    }

    #[test]
    fn replication_backups_of_one_anchor_spread_over_distinct_servers() {
        // 6 servers, spread 5 (30 slots): the five slots anchored at any
        // one server must use five distinct rank-1 backups, so an anchor
        // death spreads its load instead of doubling one survivor.
        let p = Placement::new(30, 6, 2, 9);
        for anchor in 0..6u32 {
            let backups: Vec<u32> =
                (0..30).filter(|s| s % 6 == anchor).map(|s| p.replicas(s)[1]).collect();
            let mut dedup = backups.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), backups.len(), "anchor {anchor} backups collide: {backups:?}");
        }
    }

    #[test]
    fn replication_backups_prefer_a_different_rack() {
        // 8 servers = 2 racks of 4: every rank-1 backup must sit in the
        // other rack from its anchor.
        let p = Placement::new(16, 8, 2, 5);
        for slot in 0..16 {
            let set = p.replicas(slot);
            assert_ne!(rack_of(set[0]), rack_of(set[1]), "slot {slot} set {set:?} same rack");
        }
    }

    #[test]
    fn replication_leave_then_join_restores_layout() {
        let mut p = Placement::new(24, 6, 2, 11);
        let original = p.replica_sets().to_vec();
        let out = p.leave(3).unwrap();
        assert!(!out.changes.is_empty());
        assert!(p.replica_sets().iter().all(|s| !s.contains(&3)));
        assert!(p.replica_sets().iter().all(|s| s.len() == 2));
        let back = p.join(3);
        assert!(!back.changes.is_empty());
        assert_eq!(p.replica_sets(), &original[..], "join must undo leave exactly");
    }

    #[test]
    fn replication_join_extends_membership_and_takes_load() {
        let mut p = Placement::new(30, 6, 2, 13);
        let plan = p.join(6);
        assert!(p.is_member(6));
        let gained = plan.slots_gaining_replicas();
        assert!(!gained.is_empty(), "a joining server must take over some slots");
        let holding: usize =
            p.replica_sets().iter().filter(|s| s.contains(&6)).count();
        assert!(holding > 0);
        // HRW minimal movement: slots whose sets did not change stay put.
        assert!(plan.changes.len() < 30, "join must not reshuffle every slot");
    }

    #[test]
    fn replication_migration_plan_is_consistent() {
        let mut p = Placement::new(24, 6, 3, 17);
        let before = p.replica_sets().to_vec();
        let plan = p.leave(1).unwrap();
        for c in &plan.changes {
            let old = &before[c.slot as usize];
            let new = p.replicas(c.slot);
            for a in &c.added {
                assert!(!old.contains(a) && new.contains(a));
            }
            for r in &c.removed {
                assert!(old.contains(r) && !new.contains(r));
            }
        }
        // Every changed slot is reported; unchanged slots are not.
        for slot in 0..24u32 {
            let changed = before[slot as usize] != p.replicas(slot);
            assert_eq!(changed, plan.changes.iter().any(|c| c.slot == slot));
        }
    }

    #[test]
    fn replication_last_member_cannot_leave() {
        let mut p = Placement::new(4, 2, 1, 19);
        assert_eq!(p.leave(0).unwrap().changes.len(), 2, "slots 0 and 2 re-home");
        let before = p.clone();
        assert!(matches!(p.leave(1), Err(PdcError::InvalidQuery(_))));
        assert_eq!(p, before, "a refused leave changes nothing");
        assert_eq!(p.leave(7).unwrap(), MigrationPlan::default(), "non-member: no-op");
    }

    #[test]
    fn replication_preference_is_the_set_then_every_other_member_by_hrw() {
        let mut p = Placement::new(12, 6, 2, 23);
        p.join(9);
        for slot in 0..12 {
            let list = p.preference(slot);
            assert_eq!(&list[..2], p.replicas(slot), "slot {slot}: the k-set leads");
            let mut all = list.clone();
            all.sort_unstable();
            assert_eq!(all, p.members(), "slot {slot}: every member exactly once");
            let rest = &list[2..];
            assert!(
                rest.windows(2).all(|w| hrw(23, slot, w[0]) >= hrw(23, slot, w[1])),
                "slot {slot}: the fallback is in HRW order"
            );
        }
        // k = 1 on the initial membership: the home, then the other five.
        let single = Placement::new(6, 6, 1, 23);
        assert_eq!(single.preference(4)[0], 4);
        assert_eq!(single.preference(4).len(), 6);
    }

    #[test]
    fn replication_more_replicas_than_members_clamps() {
        let p = Placement::new(8, 2, 5, 3);
        for slot in 0..8 {
            assert_eq!(p.replicas(slot).len(), 2);
        }
    }
}
