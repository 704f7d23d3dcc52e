//! Dynamic reconfiguration: MDS join/leave, light-weight replica
//! migration, and group splitting/merging (§3.1–3.2 of the paper).
//!
//! The headline property reproduced here (Figure 11): a join migrates only
//! `(N − M′)/(M′ + 1)` replicas — the share handed to the new member —
//! versus `N` for HBA (full mirror copy) and up to `N − M′` for modular
//! hash placement.
//!
//! Every operation here is a **routing edit**: it opens a
//! [`RouteEdit`] against the published snapshot, builds the successor
//! configuration off to the side (copy-on-write per group, slab
//! mutations queued as [`SlabOp`]s), and publishes it with one pointer
//! swap. Pinned lookups keep resolving against the epoch they admitted
//! under for the whole duration — reconfiguration never blocks reads.

use core::fmt;

use std::sync::Arc;

use crate::cluster::GhbaCluster;
use crate::group::Group;
use crate::ids::{GroupId, MdsId};
use crate::mds::Mds;
use crate::snapshot::{RouteEdit, SlabOp};

/// What one reconfiguration operation cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReconfigReport {
    /// Replica filters copied or moved between servers.
    pub migrated_replicas: u64,
    /// Network messages exchanged (replica transfers, IDBFA multicasts,
    /// replica-placement and deletion notices).
    pub messages: u64,
    /// Whether the operation triggered a group split.
    pub split: bool,
    /// Whether the operation triggered one or more group merges.
    pub merged: bool,
    /// Files re-homed (only on departures).
    pub rehomed_files: u64,
}

/// Errors from reconfiguration requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconfigError {
    /// The named server is not part of the cluster.
    UnknownMds(MdsId),
    /// The last server cannot be removed.
    LastServer,
}

impl fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconfigError::UnknownMds(id) => write!(f, "unknown server {id}"),
            ReconfigError::LastServer => write!(f, "cannot remove the last server"),
        }
    }
}

impl std::error::Error for ReconfigError {}

/// The pure routing algorithms of §3.1–3.2, expressed against an open
/// edit's working snapshot. Shared by the owner's compound operations
/// (`add_mds`, `remove_mds`, `fail_mds`) and the concurrent
/// [`ReconfigHandle`](crate::ReconfigHandle) paths, so both publish
/// byte-identical successor configurations for the same move.
impl RouteEdit<'_> {
    /// Moves replicas from the heaviest to the lightest member until the
    /// spread is at most one. Returns the number of moves.
    ///
    /// # Panics
    ///
    /// Panics if `gid` is not a live group.
    pub(crate) fn rebalance(&mut self, gid: GroupId) -> u64 {
        let group = self.group_mut(gid);
        let mut moves = 0;
        loop {
            let members = group.members().to_vec();
            if members.len() < 2 {
                break;
            }
            let heaviest = members
                .iter()
                .copied()
                .max_by_key(|&m| (group.replicas_held_by(m).len(), m))
                .expect("non-empty");
            let lightest = members
                .iter()
                .copied()
                .min_by_key(|&m| (group.replicas_held_by(m).len(), m))
                .expect("non-empty");
            let heavy_count = group.replicas_held_by(heaviest).len();
            let light_count = group.replicas_held_by(lightest).len();
            if heavy_count <= light_count + 1 {
                break;
            }
            let origin = group.replicas_held_by(heaviest)[0];
            group.move_replica(origin, lightest);
            moves += 1;
        }
        moves
    }

    /// A rebalance carrying its own invalidation: advances the
    /// membership epoch and `gid`'s [`GroupEpoch`](crate::GroupEpoch)
    /// (placement moved, so the group's derived masks are stale), then
    /// rebalances. Every rebalance step of a compound reconfiguration
    /// goes through this, keeping epoch advancement a deterministic
    /// function of the operation sequence.
    pub(crate) fn rebalance_bumping(&mut self, gid: GroupId) -> u64 {
        self.bump_epoch();
        self.touch_group(gid);
        self.rebalance(gid)
    }

    /// Splits an over-full group into two per §3.2: the original keeps
    /// `M − ⌊M/2⌋` members, the new group takes `⌊M/2⌋ + 1` (including
    /// the most recent joiner). Both sides rebuild full system coverage;
    /// each migrating member *keeps* the replicas it already holds
    /// (Figure 5's "keep migrated replicas"), so only the coverage gaps
    /// cost copies. Returns the new group's id and the cost report.
    pub(crate) fn split(
        &mut self,
        gid: GroupId,
        max_group_size: usize,
    ) -> (GroupId, ReconfigReport) {
        let mut report = ReconfigReport::default();
        let moving: Vec<MdsId> = {
            let group = &self.work.groups[&gid];
            let take = max_group_size / 2 + 1;
            group.members()[group.len() - take..].to_vec()
        };

        let new_gid = self.alloc_group_id();
        let mut new_group = Group::new(new_gid);
        for &member in &moving {
            new_group.add_member(member);
            self.work.group_of.insert(member, new_gid);
        }

        // Members moving out keep their held replicas: seed the new
        // group's placement with them, free of charge.
        {
            let old_group = self.group_mut(gid);
            for &member in &moving {
                for origin in old_group.replicas_held_by(member) {
                    old_group.drop_replica(origin);
                    if !new_group.contains(origin) {
                        new_group.place_replica(origin, member);
                    }
                }
                old_group.remove_member(member);
            }
        }
        self.insert_group(new_group);

        // Both halves now rebuild complete coverage (every origin outside
        // the group must have exactly one replica inside it).
        for g in [gid, new_gid] {
            let (copies, msgs) = self.rebuild_coverage(g);
            report.migrated_replicas += copies;
            report.messages += msgs;
            let moves = self.rebalance_bumping(g);
            report.migrated_replicas += moves;
            report.messages += moves;
            // New IDBFA multicast within the group.
            report.messages += (self.work.groups[&g].len() as u64).saturating_sub(1);
        }

        // Only the two halves changed: their membership and placements
        // moved, every other group's replica layout is untouched — the
        // per-group epochs keep those masks warm.
        self.touch_group(gid);
        self.touch_group(new_gid);
        self.bump_epoch();
        report.split = true;
        (new_gid, report)
    }

    /// Merges group `b` into group `a` (light-weight: holders keep their
    /// replicas; only duplicate and now-internal replicas are dropped).
    /// `b`'s id (and its stale cache entries, which can never validate
    /// again) retires.
    pub(crate) fn merge(&mut self, a: GroupId, b: GroupId) -> ReconfigReport {
        let mut report = ReconfigReport::default();
        let b_group = self.remove_group(b).expect("merge source exists");
        let b_members: Vec<MdsId> = b_group.members().to_vec();
        let b_placements: Vec<(MdsId, MdsId)> = b_group
            .replica_origins()
            .into_iter()
            .filter_map(|origin| b_group.holder_of(origin).map(|holder| (origin, holder)))
            .collect();

        for &member in &b_members {
            self.work.group_of.insert(member, a);
        }
        {
            let a_group = self.group_mut(a);
            for &member in &b_members {
                a_group.add_member(member);
            }
            // Import b's placements where a lacks coverage; holders kept
            // their filters, so imports are free (no copy over the wire).
            for (origin, holder) in b_placements {
                if a_group.contains(origin) || a_group.holder_of(origin).is_some() {
                    continue; // now internal, or duplicate — drop silently
                }
                a_group.place_replica(origin, holder);
            }
            // Replicas of servers that are now members are internal: drop.
            for member in a_group.members().to_vec() {
                a_group.drop_replica(member);
            }
        }

        let (copies, msgs) = self.rebuild_coverage(a);
        report.migrated_replicas += copies;
        report.messages += msgs;
        let moves = self.rebalance_bumping(a);
        report.migrated_replicas += moves;
        report.messages += moves;
        report.messages += (self.work.groups[&a].len() as u64).saturating_sub(1);

        // Only the surviving group's layout changed.
        self.touch_group(a);
        self.bump_epoch();
        report.merged = true;
        report
    }

    /// Ensures the group holds exactly one replica of every server outside
    /// it: drops stale/internal placements, adds missing ones on the
    /// lightest members. Returns `(replicas copied, messages)`. The
    /// working snapshot's membership index is the server roster, so
    /// departures must be unindexed before coverage is rebuilt.
    pub(crate) fn rebuild_coverage(&mut self, gid: GroupId) -> (u64, u64) {
        let all: Vec<MdsId> = self.work.group_of.keys().copied().collect();
        let group = self.group_mut(gid);
        let mut copies = 0;
        let mut messages = 0;
        for origin in group.replica_origins() {
            if group.contains(origin) || !all.contains(&origin) {
                group.drop_replica(origin);
            }
        }
        for &origin in &all {
            if group.contains(origin) || group.holder_of(origin).is_some() {
                continue;
            }
            let lightest = group.lightest_member().expect("group is non-empty");
            group.place_replica(origin, lightest);
            copies += 1;
            messages += 1;
        }
        (copies, messages)
    }

    /// The pair of distinct groups with the smallest combined size, if
    /// that size fits within `max_group_size`.
    pub(crate) fn mergeable_pair(&self, max_group_size: usize) -> Option<(GroupId, GroupId)> {
        let mut sizes: Vec<(usize, GroupId)> = self
            .work
            .groups
            .values()
            .map(|g| (g.len(), g.id()))
            .collect();
        sizes.sort_unstable();
        if sizes.len() >= 2 && sizes[0].0 + sizes[1].0 <= max_group_size {
            Some((sizes[0].1, sizes[1].1))
        } else {
            None
        }
    }
}

impl GhbaCluster {
    /// Commits an edit, counts the slab rows it wrote and a spare-slab
    /// deep copy if the publish needed one, and evicts the mask-cache
    /// state of any group it dissolved (the owner-side half of snapshot
    /// retirement: the epochs left with the snapshot, the cached masks
    /// live here). Every owner-side (`&mut`) publish goes through here.
    pub(crate) fn finish_edit(&mut self, mut edit: RouteEdit<'_>) {
        let dissolved = core::mem::take(&mut edit.dissolved);
        self.stats.record_slab_publish(edit.commit());
        for gid in dissolved {
            self.mask_cache.forget_group(gid);
        }
    }

    /// Adds a new MDS to the cluster, joining the most suitable group
    /// (§3.1) and splitting it if it overflows `M` (§3.2). Returns the new
    /// server's id; per-operation costs are in the accumulated
    /// [`stats`](GhbaCluster::stats) and the returned report of
    /// [`add_mds_reported`].
    ///
    /// [`add_mds_reported`]: GhbaCluster::add_mds_reported
    pub fn add_mds(&mut self) -> MdsId {
        self.add_mds_reported().0
    }

    /// Like [`add_mds`](GhbaCluster::add_mds), also returning the cost
    /// report for this single operation.
    pub fn add_mds_reported(&mut self) -> (MdsId, ReconfigReport) {
        self.maybe_drain();
        let mut report = ReconfigReport::default();
        let id = MdsId(self.next_mds);
        self.next_mds += 1;
        self.mdss.insert(id, Mds::new(id, &self.config));

        let routes = Arc::clone(&self.routes);
        let mut edit = RouteEdit::begin(&routes, self.config.epoch_granularity);
        edit.push_op(SlabOp::Push(id));

        // Choose the smallest group with room; otherwise the smallest
        // group outright (it will split).
        let target = edit
            .work
            .groups
            .values()
            .filter(|g| g.len() < self.config.max_group_size)
            .min_by_key(|g| (g.len(), g.id()))
            .map(|g| g.id())
            .or_else(|| {
                edit.work
                    .groups
                    .values()
                    .min_by_key(|g| (g.len(), g.id()))
                    .map(|g| g.id())
            });
        let gid = match target {
            Some(gid) => gid,
            None => {
                let gid = edit.alloc_group_id();
                edit.insert_group(Group::new(gid));
                gid
            }
        };
        edit.group_mut(gid).add_member(id);
        edit.work.group_of.insert(id, gid);

        // The newcomer's (empty) filter becomes a replica in every other
        // group: one message per group, placed on the lightest member.
        let other_gids: Vec<GroupId> = edit
            .work
            .groups
            .keys()
            .copied()
            .filter(|&g| g != gid)
            .collect();
        for g in other_gids {
            let group = edit.group_mut(g);
            let lightest = group.lightest_member().expect("groups are non-empty");
            group.place_replica(id, lightest);
            report.messages += 1;
        }

        // Light-weight migration: heavy members offload replicas to the
        // newcomer until the group is balanced (±1).
        let moves = edit.rebalance_bumping(gid);
        report.migrated_replicas += moves;
        report.messages += moves;

        // The updated IDBFA is multicast to the other group members.
        let group_len = edit.work.groups[&gid].len() as u64;
        report.messages += group_len.saturating_sub(1);

        if edit.work.groups[&gid].len() > self.config.max_group_size {
            let (_new_gid, split_report) = edit.split(gid, self.config.max_group_size);
            report.migrated_replicas += split_report.migrated_replicas;
            report.messages += split_report.messages;
            report.split = true;
            self.stats.splits += 1;
        }

        // A join places the newcomer's replica in *every* group (and may
        // have grown the published slab), so every group's derived masks
        // are stale — the one reconfiguration class that cannot be
        // confined to the touched group.
        edit.touch_all_groups();
        edit.bump_epoch();
        self.finish_edit(edit);
        self.refresh_replica_charges();
        self.stats.migrated_replicas += report.migrated_replicas;
        self.stats.reconfig_messages += report.messages;
        (id, report)
    }

    /// Removes an MDS: re-homes its files to the lightest peer, migrates
    /// its held replicas within the group, deletes its replica everywhere,
    /// and merges groups that now fit together (§3.1–3.2).
    ///
    /// # Errors
    ///
    /// [`ReconfigError::UnknownMds`] if `id` is not in the cluster;
    /// [`ReconfigError::LastServer`] when only one server remains.
    pub fn remove_mds(&mut self, id: MdsId) -> Result<ReconfigReport, ReconfigError> {
        if !self.mdss.contains_key(&id) {
            return Err(ReconfigError::UnknownMds(id));
        }
        if self.mdss.len() == 1 {
            return Err(ReconfigError::LastServer);
        }
        self.maybe_drain();
        let mut report = ReconfigReport::default();
        let gid = self.routes.pin().group_of(id).expect("member has a group");

        // 1. Re-home the departing server's files to the lightest peer
        //    (group-mate when possible). The paper focuses on replica
        //    migration; file re-homing is our documented completion of the
        //    departure path. This publishes the target's grown filter as
        //    its own edit, *before* the removal edit below.
        let files = self.mdss.get_mut(&id).expect("exists").evacuate();
        if !files.is_empty() {
            let snap = self.routes.pin();
            let target = self
                .mdss
                .iter()
                .filter(|(&mid, _)| mid != id)
                .min_by_key(|(&mid, mds)| {
                    let same_group = snap.group_of(mid) == Some(gid);
                    (!same_group, mds.file_count(), mid)
                })
                .map(|(&mid, _)| mid)
                .expect("another server exists");
            report.rehomed_files = files.len() as u64;
            report.messages += files.len() as u64;
            let target_mds = self.mdss.get_mut(&target).expect("target exists");
            for path in &files {
                target_mds.create_local(path);
            }
            drop(snap);
            let update = self.push_update(target);
            report.messages += update.messages;
        }

        let routes = Arc::clone(&self.routes);
        let mut edit = RouteEdit::begin(&routes, self.config.epoch_granularity);
        edit.push_op(SlabOp::Remove(id));

        // 2. Migrate the replicas the departing member held to the other
        //    members of its group.
        {
            let group = edit.group_mut(gid);
            let held = group.replicas_held_by(id);
            if group.len() > 1 {
                for origin in held {
                    let lightest = group
                        .members()
                        .iter()
                        .copied()
                        .filter(|&m| m != id)
                        .min_by_key(|&m| (group.replicas_held_by(m).len(), m))
                        .expect("another member exists");
                    group.move_replica(origin, lightest);
                    report.migrated_replicas += 1;
                    report.messages += 1;
                }
            } else {
                for origin in held {
                    group.drop_replica(origin);
                }
            }
            group.remove_member(id);
        }

        // 3. Every other group drops the departed server's replica (one
        //    deletion notice each), then rebalances: the drop can leave
        //    the former holder one light.
        let other_gids: Vec<GroupId> = edit
            .work
            .groups
            .keys()
            .copied()
            .filter(|&g| g != gid)
            .collect();
        for g in other_gids {
            if edit.group_mut(g).drop_replica(id).is_some() {
                report.messages += 1;
            }
            let moves = edit.rebalance_bumping(g);
            report.migrated_replicas += moves;
            report.messages += moves;
        }

        // 4. Forget the server; purge hot-cache entries pointing at it
        //    (the fail-over rule of §4.5) and its cached L2 mask (ids
        //    are never reused, so the entry could only leak).
        edit.work.group_of.remove(&id);
        self.mdss.remove(&id);
        self.mask_cache.forget_entry(id);
        for mds in self.mdss.values_mut() {
            if let Some(lru) = mds.lru_mut() {
                lru.purge_home(id);
            }
        }
        if edit.work.groups[&gid].is_empty() {
            edit.remove_group(gid);
        } else {
            let moves = edit.rebalance_bumping(gid);
            report.migrated_replicas += moves;
            report.messages += moves;
        }

        // 5. Merge while two groups fit in one (§3.2).
        while let Some((a, b)) = edit.mergeable_pair(self.config.max_group_size) {
            let merge_report = edit.merge(a, b);
            report.migrated_replicas += merge_report.migrated_replicas;
            report.messages += merge_report.messages;
            report.merged = true;
            self.stats.merges += 1;
        }

        // Every group dropped the departed server's replica, so every
        // group's origin masks (and the former holders' held sets) moved.
        edit.touch_all_groups();
        edit.bump_epoch();
        self.finish_edit(edit);
        self.refresh_replica_charges();
        self.stats.migrated_replicas += report.migrated_replicas;
        self.stats.reconfig_messages += report.messages;
        Ok(report)
    }

    /// Fail-stops an MDS (§4.5): heart-beat detection removes its Bloom
    /// filters from every survivor so false positives stop pointing at it,
    /// but — unlike a graceful [`remove_mds`](GhbaCluster::remove_mds) —
    /// its files are **lost** until higher-level recovery re-creates them;
    /// the metadata service itself stays functional at degraded coverage.
    ///
    /// # Errors
    ///
    /// [`ReconfigError::UnknownMds`] if `id` is not in the cluster;
    /// [`ReconfigError::LastServer`] when only one server remains.
    pub fn fail_mds(&mut self, id: MdsId) -> Result<ReconfigReport, ReconfigError> {
        if !self.mdss.contains_key(&id) {
            return Err(ReconfigError::UnknownMds(id));
        }
        if self.mdss.len() == 1 {
            return Err(ReconfigError::LastServer);
        }
        self.maybe_drain();
        let mut report = ReconfigReport::default();
        let routes = Arc::clone(&self.routes);
        let mut edit = RouteEdit::begin(&routes, self.config.epoch_granularity);
        let gid = edit
            .work
            .group_of
            .get(&id)
            .copied()
            .expect("member has a group");
        edit.push_op(SlabOp::Remove(id));

        // The crash takes its files and its held replicas with it; the
        // group re-acquires coverage for the lost replicas from the
        // origins' published snapshots.
        {
            let group = edit.group_mut(gid);
            let held = group.replicas_held_by(id);
            for origin in held {
                group.drop_replica(origin);
            }
            group.remove_member(id);
        }
        edit.work.group_of.remove(&id);
        self.mdss.remove(&id);
        self.mask_cache.forget_entry(id);

        // Survivors drop the dead server's replica and hot-cache entries
        // (one heartbeat-timeout notice per group).
        let other_gids: Vec<GroupId> = edit
            .work
            .groups
            .keys()
            .copied()
            .filter(|&g| g != gid)
            .collect();
        for g in other_gids {
            if edit.group_mut(g).drop_replica(id).is_some() {
                report.messages += 1;
            }
        }
        for mds in self.mdss.values_mut() {
            if let Some(lru) = mds.lru_mut() {
                lru.purge_home(id);
            }
        }

        // Restore the mirror invariant: re-fetch lost replicas, rebalance,
        // merge shrunken groups.
        if edit.work.groups[&gid].is_empty() {
            edit.remove_group(gid);
        } else {
            let (copies, msgs) = edit.rebuild_coverage(gid);
            report.migrated_replicas += copies;
            report.messages += msgs;
            let moves = edit.rebalance_bumping(gid);
            report.migrated_replicas += moves;
            report.messages += moves;
        }
        while let Some((a, b)) = edit.mergeable_pair(self.config.max_group_size) {
            let merge_report = edit.merge(a, b);
            report.migrated_replicas += merge_report.migrated_replicas;
            report.messages += merge_report.messages;
            report.merged = true;
            self.stats.merges += 1;
        }
        // Other groups may have been left one replica light.
        let gids: Vec<GroupId> = edit.work.groups.keys().copied().collect();
        for g in gids {
            let moves = edit.rebalance_bumping(g);
            report.migrated_replicas += moves;
            report.messages += moves;
        }

        // Every survivor dropped the dead server's replica: all origin
        // masks moved.
        edit.touch_all_groups();
        edit.bump_epoch();
        self.finish_edit(edit);
        self.refresh_replica_charges();
        self.stats.migrated_replicas += report.migrated_replicas;
        self.stats.reconfig_messages += report.messages;
        Ok(report)
    }

    /// Moves replicas from the heaviest to the lightest member until the
    /// spread is at most one. Returns the number of moves. Placement
    /// moved, so the membership epoch advances — but only **this
    /// group's** [`GroupEpoch`](crate::GroupEpoch): a rebalance shuffles
    /// held replicas among the group's members and touches nothing any
    /// other group's masks depend on, which is exactly the case the
    /// per-group invalidation keeps warm (under
    /// [`EpochGranularity::PerGroup`](crate::EpochGranularity); the
    /// `Global` reference granularity still flushes everything).
    ///
    /// Public so churn workloads (the `par_exec` bench, operator-driven
    /// re-balancing) can trigger the single-group reconfiguration path
    /// directly.
    ///
    /// # Panics
    ///
    /// Panics if `gid` is not a live group.
    pub fn rebalance_group(&mut self, gid: GroupId) -> u64 {
        let routes = Arc::clone(&self.routes);
        let mut edit = RouteEdit::begin(&routes, self.config.epoch_granularity);
        assert!(
            edit.work.groups.contains_key(&gid),
            "group exists: {gid} is not live"
        );
        let moves = edit.rebalance_bumping(gid);
        self.finish_edit(edit);
        if moves > 0 {
            // A standalone rebalance must leave memory charges correct
            // on its own (the compound reconfigurations refresh the
            // whole cluster afterwards, but a direct caller gets no such
            // sweep); only this group's members' held counts moved.
            let snap = self.routes.pin();
            let group = snap.group(gid).expect("group exists");
            let member_held: Vec<(MdsId, usize)> = group
                .members()
                .iter()
                .map(|&member| (member, group.replicas_held_by(member).len()))
                .collect();
            for (member, count) in member_held {
                self.mdss
                    .get_mut(&member)
                    .expect("group member exists")
                    .set_replica_charge(count);
            }
        }
        moves
    }

    /// Re-derives every server's replica memory charge from the published
    /// placement maps (called after any reconfiguration).
    pub(crate) fn refresh_replica_charges(&mut self) {
        let snap = self.routes.pin();
        let held: Vec<(MdsId, usize)> = self
            .mdss
            .keys()
            .map(|&id| (id, snap.replicas_held_by(id).len()))
            .collect();
        for (id, count) in held {
            self.mdss
                .get_mut(&id)
                .expect("listed server exists")
                .set_replica_charge(count);
        }
    }
}
