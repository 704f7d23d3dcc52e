//! Group bookkeeping: membership, replica placement, and the IDBFA.
//!
//! Within a group, each Bloom filter replica from another group's MDS
//! resides on exactly one member. The paper tracks *which* member with an
//! ID Bloom filter array (IDBFA) of counting filters (§2.4): probabilistic,
//! tiny, and — unlike modular hashing — stable under reconfiguration, so a
//! membership change never forces wholesale replica reshuffling.
//!
//! This module keeps both views: the IDBFA (used by the simulated protocol,
//! false positives included) and the exact placement map (ground truth for
//! invariant checking and for resolving IDBFA multi-hits, whose penalty is
//! merely a dropped message at the falsely identified member).

use std::collections::BTreeMap;

use ghba_bloom::{CountingBloomFilter, Fingerprint, Hit};

use crate::ids::{GroupId, MdsId};

/// Geometry of the per-member ID filters. The paper: "when the entire file
/// system contains 100 MDSs, IDBFA only takes less than 0.1KB of storage"
/// — 512 counters ≈ 0.5 KB modelled at one byte per counter, the same
/// order (the bit-plane counters keep about 128 B resident).
const ID_FILTER_BITS: usize = 512;
const ID_FILTER_HASHES: u32 = 4;
const ID_FILTER_SEED: u64 = 0x1DBF_A000;

/// The ID Bloom filter array: one counting filter per group member, each
/// representing the set of replica *origins* that member currently holds.
#[derive(Debug, Clone, Default)]
pub struct IdFilterArray {
    filters: Vec<(MdsId, CountingBloomFilter)>,
}

impl IdFilterArray {
    /// Creates an empty IDBFA.
    #[must_use]
    pub fn new() -> Self {
        IdFilterArray::default()
    }

    /// Registers a member with an empty ID filter.
    pub fn add_member(&mut self, member: MdsId) {
        if !self.filters.iter().any(|(id, _)| *id == member) {
            self.filters.push((
                member,
                CountingBloomFilter::new(ID_FILTER_BITS, ID_FILTER_HASHES, ID_FILTER_SEED),
            ));
        }
    }

    /// Drops a member and its ID filter.
    pub fn remove_member(&mut self, member: MdsId) {
        self.filters.retain(|(id, _)| *id != member);
    }

    /// Records that `member` now holds the replica originating at
    /// `origin`.
    pub fn insert(&mut self, member: MdsId, origin: MdsId) {
        if let Some((_, filter)) = self.filters.iter_mut().find(|(id, _)| *id == member) {
            filter.insert(&origin.0);
        }
    }

    /// Records that `member` no longer holds `origin`'s replica.
    pub fn remove(&mut self, member: MdsId, origin: MdsId) {
        if let Some((_, filter)) = self.filters.iter_mut().find(|(id, _)| *id == member) {
            // An absent entry is a bookkeeping bug upstream, but the filter
            // remains consistent either way.
            let _ = filter.remove(&origin.0);
        }
    }

    /// Probes the array for the member holding `origin`'s replica.
    ///
    /// [`Hit::Multiple`] models the paper's "light false positive penalty":
    /// an update is sent to every candidate and non-holders drop it.
    #[must_use]
    pub fn locate(&self, origin: MdsId) -> Hit<MdsId> {
        // Hash-once: one digest of the origin id serves every member filter.
        let fp = Fingerprint::of(&origin.0);
        let mut positives = Vec::new();
        for (member, filter) in &self.filters {
            if filter.contains_fp(&fp) {
                positives.push(*member);
            }
        }
        match positives.len() {
            0 => Hit::None,
            1 => Hit::Unique(positives[0]),
            _ => Hit::Multiple(positives),
        }
    }

    /// Resident heap of the ID filters in bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.filters.iter().map(|(_, f)| f.memory_bytes()).sum()
    }
}

/// One logical group of MDSs and the replica placement inside it.
#[derive(Debug, Clone)]
pub struct Group {
    id: GroupId,
    members: Vec<MdsId>,
    /// origin → member currently holding that origin's replica.
    placement: BTreeMap<MdsId, MdsId>,
    idbfa: IdFilterArray,
}

impl Group {
    /// Creates an empty group.
    #[must_use]
    pub fn new(id: GroupId) -> Self {
        Group {
            id,
            members: Vec::new(),
            placement: BTreeMap::new(),
            idbfa: IdFilterArray::new(),
        }
    }

    /// The group's identifier.
    #[must_use]
    pub fn id(&self) -> GroupId {
        self.id
    }

    /// Members in join order.
    #[must_use]
    pub fn members(&self) -> &[MdsId] {
        &self.members
    }

    /// Number of members (`M′`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when the group has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// `true` if `mds` is a member.
    #[must_use]
    pub fn contains(&self, mds: MdsId) -> bool {
        self.members.contains(&mds)
    }

    /// Adds a member (idempotent).
    pub fn add_member(&mut self, mds: MdsId) {
        if !self.contains(mds) {
            self.members.push(mds);
            self.idbfa.add_member(mds);
        }
    }

    /// Removes a member; its held replicas must be migrated first (the
    /// caller drives that via [`replicas_held_by`](Group::replicas_held_by)
    /// and [`move_replica`](Group::move_replica)).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the member still holds replicas.
    pub fn remove_member(&mut self, mds: MdsId) {
        debug_assert!(
            self.replicas_held_by(mds).is_empty(),
            "member still holds replicas"
        );
        self.members.retain(|&m| m != mds);
        self.idbfa.remove_member(mds);
    }

    /// Replica origins stored in this group, ascending.
    #[must_use]
    pub fn replica_origins(&self) -> Vec<MdsId> {
        self.placement.keys().copied().collect()
    }

    /// Number of replicas stored in this group.
    #[must_use]
    pub fn replica_count(&self) -> usize {
        self.placement.len()
    }

    /// The member holding `origin`'s replica (exact view).
    #[must_use]
    pub fn holder_of(&self, origin: MdsId) -> Option<MdsId> {
        self.placement.get(&origin).copied()
    }

    /// Probes the IDBFA for the holder (probabilistic protocol view).
    #[must_use]
    pub fn locate_via_idbfa(&self, origin: MdsId) -> Hit<MdsId> {
        self.idbfa.locate(origin)
    }

    /// Replica origins currently held by `member`.
    #[must_use]
    pub fn replicas_held_by(&self, member: MdsId) -> Vec<MdsId> {
        self.placement
            .iter()
            .filter(|(_, &holder)| holder == member)
            .map(|(&origin, _)| origin)
            .collect()
    }

    /// The member holding the fewest replicas (ties broken by join
    /// order), or `None` for an empty group.
    #[must_use]
    pub fn lightest_member(&self) -> Option<MdsId> {
        self.members
            .iter()
            .copied()
            .min_by_key(|&m| (self.replicas_held_by(m).len(), self.member_rank(m)))
    }

    fn member_rank(&self, member: MdsId) -> usize {
        self.members
            .iter()
            .position(|&m| m == member)
            .unwrap_or(usize::MAX)
    }

    /// Places `origin`'s replica on `member`, updating placement and
    /// IDBFA. Returns the previous holder if the replica moved.
    ///
    /// # Panics
    ///
    /// Panics if `member` is not in the group.
    pub fn place_replica(&mut self, origin: MdsId, member: MdsId) -> Option<MdsId> {
        assert!(self.contains(member), "placing replica on a non-member");
        let previous = self.placement.insert(origin, member);
        if let Some(prev) = previous {
            if prev == member {
                return None; // no movement
            }
            self.idbfa.remove(prev, origin);
        }
        self.idbfa.insert(member, origin);
        previous.filter(|&prev| prev != member)
    }

    /// Removes `origin`'s replica from the group entirely (e.g. when that
    /// MDS leaves the system). Returns the member that held it.
    pub fn drop_replica(&mut self, origin: MdsId) -> Option<MdsId> {
        let holder = self.placement.remove(&origin)?;
        self.idbfa.remove(holder, origin);
        Some(holder)
    }

    /// Moves `origin`'s replica to `member`; convenience over
    /// [`place_replica`](Group::place_replica) that reports whether a move
    /// happened.
    pub fn move_replica(&mut self, origin: MdsId, member: MdsId) -> bool {
        self.place_replica(origin, member).is_some()
    }

    /// Maximum replicas held by any member minus minimum — 0 or 1 means
    /// perfectly balanced.
    #[must_use]
    pub fn balance_spread(&self) -> usize {
        let counts: Vec<usize> = self
            .members
            .iter()
            .map(|&m| self.replicas_held_by(m).len())
            .collect();
        match (counts.iter().max(), counts.iter().min()) {
            (Some(max), Some(min)) => max - min,
            _ => 0,
        }
    }

    /// IDBFA memory in bytes.
    #[must_use]
    pub fn idbfa_memory_bytes(&self) -> usize {
        self.idbfa.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group_with(members: &[u16]) -> Group {
        let mut g = Group::new(GroupId(0));
        for &m in members {
            g.add_member(MdsId(m));
        }
        g
    }

    #[test]
    fn membership_roundtrip() {
        let mut g = group_with(&[1, 2, 3]);
        assert_eq!(g.len(), 3);
        assert!(g.contains(MdsId(2)));
        g.remove_member(MdsId(2));
        assert!(!g.contains(MdsId(2)));
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn add_member_is_idempotent() {
        let mut g = group_with(&[1]);
        g.add_member(MdsId(1));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn placement_tracks_holder() {
        let mut g = group_with(&[1, 2]);
        g.place_replica(MdsId(9), MdsId(1));
        assert_eq!(g.holder_of(MdsId(9)), Some(MdsId(1)));
        assert_eq!(g.replicas_held_by(MdsId(1)), vec![MdsId(9)]);
        assert_eq!(g.replica_count(), 1);
    }

    #[test]
    fn idbfa_locates_replica() {
        let mut g = group_with(&[1, 2, 3]);
        g.place_replica(MdsId(40), MdsId(2));
        assert_eq!(g.locate_via_idbfa(MdsId(40)), Hit::Unique(MdsId(2)));
        assert_eq!(g.locate_via_idbfa(MdsId(99)), Hit::None);
    }

    #[test]
    fn moving_replica_updates_idbfa() {
        let mut g = group_with(&[1, 2]);
        g.place_replica(MdsId(7), MdsId(1));
        let prev = g.place_replica(MdsId(7), MdsId(2));
        assert_eq!(prev, Some(MdsId(1)));
        assert_eq!(g.holder_of(MdsId(7)), Some(MdsId(2)));
        assert_eq!(g.locate_via_idbfa(MdsId(7)), Hit::Unique(MdsId(2)));
    }

    #[test]
    fn replacing_same_holder_is_noop() {
        let mut g = group_with(&[1]);
        g.place_replica(MdsId(7), MdsId(1));
        assert_eq!(g.place_replica(MdsId(7), MdsId(1)), None);
        assert!(!g.move_replica(MdsId(7), MdsId(1)));
    }

    #[test]
    fn drop_replica_clears_everywhere() {
        let mut g = group_with(&[1]);
        g.place_replica(MdsId(7), MdsId(1));
        assert_eq!(g.drop_replica(MdsId(7)), Some(MdsId(1)));
        assert_eq!(g.holder_of(MdsId(7)), None);
        assert_eq!(g.locate_via_idbfa(MdsId(7)), Hit::None);
        assert_eq!(g.drop_replica(MdsId(7)), None);
    }

    #[test]
    fn lightest_member_breaks_ties_by_join_order() {
        let mut g = group_with(&[5, 3, 8]);
        assert_eq!(g.lightest_member(), Some(MdsId(5)));
        g.place_replica(MdsId(20), MdsId(5));
        assert_eq!(g.lightest_member(), Some(MdsId(3)));
    }

    #[test]
    fn balance_spread_reflects_skew() {
        let mut g = group_with(&[1, 2]);
        assert_eq!(g.balance_spread(), 0);
        g.place_replica(MdsId(10), MdsId(1));
        g.place_replica(MdsId(11), MdsId(1));
        assert_eq!(g.balance_spread(), 2);
        g.place_replica(MdsId(12), MdsId(2));
        assert_eq!(g.balance_spread(), 1);
    }

    #[test]
    #[should_panic(expected = "non-member")]
    fn placing_on_non_member_panics() {
        let mut g = group_with(&[1]);
        g.place_replica(MdsId(9), MdsId(99));
    }

    #[test]
    fn idbfa_memory_is_small() {
        let g = group_with(&[1, 2, 3, 4, 5, 6, 7]);
        // 7 members × 512-counter filters — comfortably under 4 KB even at
        // the modelled byte per counter, matching the paper's "negligible"
        // claim.
        assert!(g.idbfa_memory_bytes() <= 4096);
    }
}
