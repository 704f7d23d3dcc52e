//! The G-HBA metadata cluster: construction, the L1→L4 query walk, and
//! file create/remove.
//!
//! Reconfiguration (join/leave/split/merge) lives in [`crate::reconfig`];
//! the replica-update protocol in [`crate::update`].

use core::time::Duration;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use ghba_bloom::{FilterDelta, Fingerprint, Hit, ProbeBatch, SharedShapeArray, SlotMask};
use ghba_simnet::{Counters, DetRng, LatencyStats};

use crate::concurrent::{ConcurrentStats, NamespaceShards, OverlayEntry, WriteKind, WriteRecord};
use crate::config::{GhbaConfig, MaskCacheLifecycle};
use crate::exec::{resolve_unique, run_chunked};
use crate::group::Group;
use crate::ids::{GroupEpoch, GroupId, MdsId, MembershipEpoch};
use crate::mds::{published_shape, Mds};
use crate::op::{EntryPolicy, PathKey};
use crate::query::{LevelCounts, QueryLevel, QueryOutcome};
use crate::snapshot::{
    route_cell, ReconfigHandle, RouteCell, RouteEdit, RouteSnapshot, SharedL2, SharedL3, SlabOp,
    SlabPublish,
};

/// Aggregate statistics of a cluster's lifetime.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Per-level query hit counts (Figure 13).
    pub levels: LevelCounts,
    /// Lookup latency distribution.
    pub lookup_latency: LatencyStats,
    /// Replica-update latency distribution (Figure 12).
    pub update_latency: LatencyStats,
    /// Replicas moved between servers by reconfiguration (Figure 11).
    pub migrated_replicas: u64,
    /// Messages exchanged during reconfigurations (Figure 15).
    pub reconfig_messages: u64,
    /// Messages carrying replica updates.
    pub update_messages: u64,
    /// Bytes of replica-update traffic.
    pub update_bytes: u64,
    /// Group splits performed.
    pub splits: u64,
    /// Group merges performed.
    pub merges: u64,
    /// L2/L3 mask-cache consultations answered from cache since the last
    /// [`reset_stats`](GhbaCluster::reset_stats) (the figure-binary view
    /// of [`mask_cache_stats`](GhbaCluster::mask_cache_stats), which
    /// keeps lifetime totals).
    pub mask_cache_hits: u64,
    /// L2/L3 mask-cache consultations that had to (re)build their entry
    /// since the last reset.
    pub mask_cache_misses: u64,
    /// Cached masks evicted by the generation sweep: entries of groups
    /// that stayed live but were never consulted again (group churn
    /// under a drifting entry distribution would otherwise grow the
    /// cache without bound — per-group tag validation never bulk-clears).
    pub mask_cache_evictions: u64,
    /// Slab-touching publishes whose displaced snapshot was still pinned,
    /// so the writer's spare slab had to be restocked by a deep copy of
    /// the whole published slab instead of recycled in place (see
    /// [`SlabSpare`](crate::SlabSpare)). Zero when batches run one at
    /// a time; concurrent batches still pinning the replaced snapshot
    /// can force a copy, and so can a publisher that commits while
    /// holding a pin of its own.
    pub slab_spare_copies: u64,
    /// Slab bit-rows written by slab-touching publishes' deltas, over
    /// the spare and the displaced slab (see
    /// [`SlabPublish::rows_written`](crate::SlabPublish::rows_written)):
    /// one row per flipped bit per slab, so a publish costs the bits it
    /// changes. Column pushes and removes of joins and departures are
    /// not counted.
    pub slab_rows_written: u64,
    /// Named auxiliary counters (verification round trips, drops, …).
    pub counters: Counters,
}

impl ClusterStats {
    /// Counts one slab-touching publish: the rows it wrote
    /// ([`slab_rows_written`](ClusterStats::slab_rows_written)) and its
    /// deep-copy fallback, if it needed one
    /// ([`slab_spare_copies`](ClusterStats::slab_spare_copies)).
    pub fn record_slab_publish(&mut self, publish: SlabPublish) {
        self.slab_rows_written += publish.rows_written;
        self.slab_spare_copies += u64::from(publish.deep_copied);
    }
}

/// One entry server's cached L2 snapshot: its held-replica candidate
/// mask plus the held count the probe-latency model needs. Tagged with
/// the [`GroupEpoch`] of the server's group at build time — a
/// reconfiguration that touches the group bumps its epoch, so the tag
/// (and a `gid` check covering servers that changed groups in a split
/// or merge) is the entry's entire validity condition.
#[derive(Debug, Clone)]
struct L2Mask {
    entry: MdsId,
    gid: GroupId,
    tag: GroupEpoch,
    held: usize,
    mask: SlotMask,
    /// Walk generation this entry was last consulted (hit or rebuilt)
    /// at, for the idle sweep.
    last_used: u64,
}

/// One group's cached L3 snapshot: the member list with held counts
/// (the multicast latency inputs) and the group-mirror candidate mask,
/// tagged like [`L2Mask`].
#[derive(Debug, Clone)]
struct L3Mask {
    gid: GroupId,
    tag: GroupEpoch,
    member_held: Vec<(MdsId, usize)>,
    mask: SlotMask,
    /// Walk generation this entry was last consulted at.
    last_used: u64,
}

/// Chunk-local candidate-mask memo for the pinned (`&self`) walk: a
/// lock-free L0 in front of the cross-snapshot [`SharedMaskCache`]
/// embedded in the route snapshot. Masks reached through a pinned
/// snapshot stay valid for exactly as long as that snapshot is pinned —
/// no revalidation needed within a walk scope (one `lookup_concurrent`
/// call, one fused-run chunk) — so the memo holds `Arc`s cloned out of
/// the shared cache (or freshly built into it) and drops them with the
/// pin. Memo and shared-cache hits both count as mask-cache hits in the
/// atomic recorders; only a genuine build counts as a miss.
#[derive(Debug, Default)]
struct PinnedMemo {
    /// Per-entry L2 state: candidate mask + held-replica count.
    l2: HashMap<MdsId, Arc<SharedL2>>,
    /// Per-group L3 state: group-mirror mask + member held counts.
    l3: HashMap<GroupId, Arc<SharedL3>>,
}

/// Per-chunk arena for fused pinned runs: outcomes in chunk order plus
/// the chunk's mask memo.
#[derive(Debug, Default)]
struct PinnedArena {
    outcomes: Vec<QueryOutcome>,
    memo: PinnedMemo,
}

/// Memoized candidate masks for the batched lookup walk.
///
/// Slot masks and membership snapshots depend only on cluster layout
/// (slot assignment, group placement) — state that **writes never
/// touch**; only reconfiguration invalidates them. How long entries
/// live is governed by [`MaskCacheMode`](crate::MaskCacheMode):
///
/// * `Persistent` (default) — entries are tagged with their group's
///   [`GroupEpoch`] and validated **entry by entry** at consultation
///   time: a reconfiguration bumps the epochs of exactly the groups it
///   touched (see [`GhbaCluster::touch_group`]), so a single-group
///   rebalance leaves every other group's masks warm, where the old
///   all-or-nothing [`MembershipEpoch`] check cold-started the whole
///   cache. The cache amortizes across batches *and* across the 1-op
///   string shims.
/// * `PerBatch` — armed by [`GhbaCluster::batch_begin`] via the
///   vectored op pipeline, dropped by `batch_end`; unarmed, the cache
///   lives for one walk (the pre-epoch behaviour).
/// * `Off` — cleared at the top of every walk (the cache-free reference
///   the property tests compare against).
///
/// Both index vectors are **sorted by key** (entry id, group id) and
/// consulted by binary search, so the hit path stays `O(log N)` at
/// ultra-scale fan-in instead of the linear scan that was fine at a few
/// hundred entries. Anything budget- or filter-dependent (probe
/// durations, live-filter verdicts) is deliberately *not* cached here
/// and is recomputed per run.
#[derive(Debug, Clone, Default)]
pub(crate) struct MaskCache {
    /// Armed flag and hit/miss counters — the mode-validation state
    /// machine shared with the HBA baseline's cache.
    life: MaskCacheLifecycle,
    /// Sorted by `entry`.
    l2: Vec<L2Mask>,
    /// Sorted by `gid`.
    l3: Vec<L3Mask>,
    /// Monotonic walk counter driving the idle sweep: entries stamp it
    /// when consulted, and every [`MaskCache::SWEEP_EVERY`] walks the
    /// cache drops entries idle for more than
    /// [`MaskCache::IDLE_GENERATIONS`] walks. Epoch tags evict *stale*
    /// entries on consultation; this sweep bounds the entries that stay
    /// *valid but unconsulted* — e.g. masks of entries a drifting
    /// workload stopped querying, or L3 masks of groups dissolved by a
    /// concurrent reconfiguration handle the owner never saw retire.
    generation: u64,
}

impl MaskCache {
    /// Sweep cadence, in walks.
    const SWEEP_EVERY: u64 = 256;
    /// Walks an entry may go unconsulted before the sweep drops it.
    const IDLE_GENERATIONS: u64 = 512;

    fn clear(&mut self) {
        self.l2.clear();
        self.l3.clear();
    }

    /// The cached L2 snapshot of `entry`, whatever its tag (the caller
    /// validates), stamped as consulted this generation.
    fn l2_consult(&mut self, entry: MdsId) -> Option<&L2Mask> {
        match self.l2.binary_search_by_key(&entry, |e| e.entry) {
            Ok(at) => {
                self.l2[at].last_used = self.generation;
                Some(&self.l2[at])
            }
            Err(_) => None,
        }
    }

    /// The cached L2 snapshot of `entry` without stamping (read phase).
    fn l2(&self, entry: MdsId) -> Option<&L2Mask> {
        self.l2
            .binary_search_by_key(&entry, |e| e.entry)
            .ok()
            .map(|at| &self.l2[at])
    }

    /// The cached L3 snapshot of `gid`, whatever its tag, stamped as
    /// consulted this generation.
    fn l3_consult(&mut self, gid: GroupId) -> Option<&L3Mask> {
        match self.l3.binary_search_by_key(&gid, |e| e.gid) {
            Ok(at) => {
                self.l3[at].last_used = self.generation;
                Some(&self.l3[at])
            }
            Err(_) => None,
        }
    }

    /// The cached L3 snapshot of `gid` without stamping (read phase).
    fn l3(&self, gid: GroupId) -> Option<&L3Mask> {
        self.l3
            .binary_search_by_key(&gid, |e| e.gid)
            .ok()
            .map(|at| &self.l3[at])
    }

    /// Opens a new walk generation and, at the sweep cadence, evicts
    /// entries idle past the threshold. Returns the number evicted.
    fn begin_generation(&mut self) -> u64 {
        self.generation += 1;
        if !self.generation.is_multiple_of(Self::SWEEP_EVERY) {
            return 0;
        }
        let horizon = self.generation.saturating_sub(Self::IDLE_GENERATIONS);
        let before = self.l2.len() + self.l3.len();
        self.l2.retain(|e| e.last_used >= horizon);
        self.l3.retain(|e| e.last_used >= horizon);
        (before - self.l2.len() - self.l3.len()) as u64
    }

    /// Cached entry counts `(l2, l3)` — the regression surface for the
    /// sweep's bound on cache growth.
    #[cfg(test)]
    pub(crate) fn len(&self) -> (usize, usize) {
        (self.l2.len(), self.l3.len())
    }

    /// Inserts or replaces the L2 snapshot of `fresh.entry`, keeping
    /// the sort order.
    fn upsert_l2(&mut self, fresh: L2Mask) {
        match self.l2.binary_search_by_key(&fresh.entry, |e| e.entry) {
            Ok(at) => self.l2[at] = fresh,
            Err(at) => self.l2.insert(at, fresh),
        }
    }

    /// Inserts or replaces the L3 snapshot of `fresh.gid`, keeping the
    /// sort order.
    fn upsert_l3(&mut self, fresh: L3Mask) {
        match self.l3.binary_search_by_key(&fresh.gid, |e| e.gid) {
            Ok(at) => self.l3[at] = fresh,
            Err(at) => self.l3.insert(at, fresh),
        }
    }

    /// Drops a departed server's L2 snapshot. Ids are never reused, so a
    /// dead entry could never validate again — but without eviction it
    /// would linger forever, and per-group tag validation (unlike the
    /// old all-or-nothing flush) never bulk-clears, so long membership
    /// churn would grow the cache without bound.
    pub(crate) fn forget_entry(&mut self, entry: MdsId) {
        if let Ok(at) = self.l2.binary_search_by_key(&entry, |e| e.entry) {
            self.l2.remove(at);
        }
    }

    /// Drops a dissolved group's L3 snapshot (same bound as
    /// [`forget_entry`](MaskCache::forget_entry)).
    pub(crate) fn forget_group(&mut self, gid: GroupId) {
        if let Ok(at) = self.l3.binary_search_by_key(&gid, |e| e.gid) {
            self.l3.remove(at);
        }
    }
}

/// The read-phase result for one query of a batched walk: the finished
/// outcome plus the side effects the splice phase must apply in stream
/// order (counter bumps; the LRU fill is implied by a found home).
///
/// Splitting verdict computation from effect application is what makes
/// the walk parallelizable: computing a `WalkVerdict` needs only
/// `&GhbaCluster` (plus a private scratch arena), so chunks of a batch
/// run concurrently against the shared slab, and the single-threaded
/// splice afterwards applies LRU fills and statistics exactly as a
/// stream-ordered drain would.
#[derive(Debug, Clone)]
struct WalkVerdict {
    outcome: QueryOutcome,
    /// L1 unique hits whose verification failed (false hits).
    l1_false: u32,
    /// L2 unique hits whose verification failed.
    l2_false: u32,
    /// L3 unique hits whose verification failed.
    l3_false: u32,
    /// L4 live-filter positives that cost a disk check but did not
    /// store the path.
    l4_disk_checks: u32,
}

/// Reusable working memory for one walk chunk: the probe batch, the
/// live-filter row table, the verdict buffers, and every per-query
/// working vector of the level-by-level escalation. Contents are fully
/// re-initialized per walk; keeping the allocations on the cluster —
/// one arena per configured worker — means neither the 1-op string
/// shims nor the parallel chunk walks pay per-call allocations.
#[derive(Debug, Clone, Default)]
struct WalkScratch {
    batch: ProbeBatch,
    live_rows: Vec<u32>,
    verdicts: Vec<WalkVerdict>,
    /// Per-query resolution slots, `None` until the query's level lands.
    slots: Vec<Option<WalkVerdict>>,
    /// Per-query false-hit tallies `[l1, l2, l3, l4-disk-checks]`.
    falses: Vec<[u32; 4]>,
    latency: Vec<Duration>,
    messages: Vec<u32>,
    fps: Vec<Fingerprint>,
}

/// A simulated G-HBA metadata server cluster.
///
/// # Examples
///
/// ```
/// use ghba_core::{GhbaCluster, GhbaConfig};
///
/// let mut cluster = GhbaCluster::with_servers(
///     GhbaConfig::default().with_filter_capacity(1_000),
///     12,
/// );
/// let home = cluster.create_file("/projects/paper.tex");
/// let outcome = cluster.lookup("/projects/paper.tex");
/// assert_eq!(outcome.home, Some(home));
/// ```
#[derive(Debug)]
pub struct GhbaCluster {
    pub(crate) config: GhbaConfig,
    pub(crate) mdss: BTreeMap<MdsId, Mds>,
    /// The published routing state — the bit-sliced slab of every
    /// server's published snapshot, the group/membership tables, and the
    /// per-group epochs — as an immutable [`RouteSnapshot`] behind a
    /// lock-free snapshot cell. Lookups pin one snapshot at admission
    /// and walk L1–L4 against it end to end; reconfiguration builds the
    /// successor off to the side and publishes it with one pointer swap,
    /// so readers are never blocked (see [`crate::snapshot`]).
    pub(crate) routes: RouteCell,
    pub(crate) next_mds: u16,
    /// Behind a mutex so [`EntryPolicy::Random`] can draw from the one
    /// deterministic stream from `&self` (the pin-once pipeline) as well
    /// as from `&mut` paths — single-threaded replays of the same op
    /// sequence consume the stream identically either way.
    pub(crate) rng: Mutex<DetRng>,
    pub(crate) stats: ClusterStats,
    /// Namespace write shards of the pin-once pipeline: pending creates
    /// and removes recorded from `&self`, replayed into `mdss` by
    /// [`drain_concurrent`](GhbaCluster::drain_concurrent) at the next
    /// `&mut` entry point.
    pub(crate) shards: NamespaceShards,
    /// Atomic statistics recorded by `&self` walks and commits, folded
    /// into [`GhbaCluster::stats`] at the same drain points.
    pub(crate) cstats: ConcurrentStats,
    pub(crate) mask_cache: MaskCache,
    /// Owner-side fold of the per-group load windows recorded by
    /// `cstats` on the `&self` walks (see [`crate::load`]). Behind a
    /// mutex so [`load_report`](GhbaCluster::load_report) works from
    /// `&self` (a controller samples while lookups run); touched only
    /// at report cadence, never on the walk hot path.
    pub(crate) load_fold: Mutex<crate::load::LoadFold>,
    /// Entry policy the 1-op string shims execute under (see
    /// [`MetadataService::set_shim_policy`](crate::MetadataService::set_shim_policy));
    /// round-robin state advances here, on the service, across calls.
    pub(crate) shim_entry: EntryPolicy,
    /// Per-worker walk arenas (arena 0 doubles as the sequential
    /// scratch), grown lazily to the configured worker count.
    scratch: Vec<WalkScratch>,
    /// The attached write-ahead log, if any (see [`crate::wal`]): every
    /// shard-log drain and flush barrier is appended here before its
    /// effects apply. Boxed to keep the common (undurable) cluster
    /// layout compact; deliberately **not** cloned — a clone is an
    /// independent in-memory twin, not a second writer of the same log.
    pub(crate) wal: Option<Box<crate::wal::Wal>>,
}

impl Clone for GhbaCluster {
    /// Clones the cluster into an **independent** instance: the clone
    /// gets its own snapshot cell seeded with the currently published
    /// snapshot. Immutable storage (the slab, per-group placement) is
    /// shared structurally via `Arc` until either side's next edit
    /// copies-on-write, so the clone is cheap and the two clusters can
    /// never observe each other's subsequent reconfigurations.
    fn clone(&self) -> Self {
        // Pending `&self`-path writes are not cloned: drain them (any
        // `&mut` entry point) before cloning a cluster that executed
        // concurrent batches.
        debug_assert!(
            !self.shards.is_dirty(),
            "clone with undrained concurrent writes pending"
        );
        let snapshot = (*self.routes.pin()).clone();
        GhbaCluster {
            config: self.config.clone(),
            mdss: self.mdss.clone(),
            routes: route_cell(snapshot),
            next_mds: self.next_mds,
            rng: Mutex::new(self.rng.lock().expect("rng poisoned").clone()),
            stats: self.stats.clone(),
            shards: NamespaceShards::new(self.config.write_shards),
            cstats: ConcurrentStats::new(),
            mask_cache: self.mask_cache.clone(),
            load_fold: Mutex::new(crate::load::LoadFold::new()),
            shim_entry: self.shim_entry,
            scratch: self.scratch.clone(),
            wal: None,
        }
    }
}

impl GhbaCluster {
    /// Creates an empty cluster.
    #[must_use]
    pub fn new(config: GhbaConfig) -> Self {
        let rng = DetRng::new(config.seed).fork(0xC105);
        let slab = SharedShapeArray::new(published_shape(&config));
        let shards = NamespaceShards::new(config.write_shards);
        GhbaCluster {
            config,
            mdss: BTreeMap::new(),
            routes: route_cell(RouteSnapshot::empty(slab)),
            next_mds: 0,
            rng: Mutex::new(rng),
            stats: ClusterStats::default(),
            shards,
            cstats: ConcurrentStats::new(),
            mask_cache: MaskCache::default(),
            load_fold: Mutex::new(crate::load::LoadFold::new()),
            shim_entry: EntryPolicy::Random,
            scratch: Vec::new(),
            wal: None,
        }
    }

    /// The current membership epoch. Advanced at least once by every
    /// reconfiguration path (join, leave, fail-stop, split, merge,
    /// rebalance — compound operations advance it per internal step, so
    /// this is an invalidation fence, not an operation counter); derived
    /// routing state cached under an older epoch is stale and must be
    /// rebuilt.
    #[must_use]
    pub fn membership_epoch(&self) -> MembershipEpoch {
        self.routes.pin().epoch
    }

    /// The configuration version of `gid` under the currently published
    /// snapshot (default epoch for groups never touched — including
    /// groups that do not exist, which no valid cache entry can name).
    #[must_use]
    pub fn group_epoch(&self, gid: GroupId) -> GroupEpoch {
        self.routes.pin().group_epoch(gid)
    }

    /// A cloneable, thread-safe handle that publishes group
    /// reconfigurations — rebalances, splits, merges — through the
    /// snapshot cell **concurrently with lookups** on other threads.
    /// Handle-driven operations are pure routing edits (they move
    /// replica *placement*, not server state) and do not update this
    /// cluster's aggregate [`ClusterStats`].
    #[must_use]
    pub fn reconfig_handle(&self) -> ReconfigHandle {
        ReconfigHandle {
            routes: Arc::clone(&self.routes),
            max_group_size: self.config.max_group_size,
            granularity: self.config.epoch_granularity,
        }
    }

    /// L2/L3 mask-cache accounting, both scopes, one source of truth —
    /// a hit is a mask consultation answered from cache (memoized reuse
    /// on the pinned walk counts too), a miss one that had to build the
    /// entry. `lifetime_*` spans the cluster's whole life; `window_*`
    /// is the reset-scoped view the figure binaries read (cleared by
    /// [`reset_stats`](GhbaCluster::reset_stats)). Consults recorded on
    /// `&self` walks but not yet drained are folded into both scopes,
    /// so this is exact at any moment without a drain barrier. Under
    /// [`MaskCacheMode::Persistent`](crate::MaskCacheMode::Persistent)
    /// hits span batches and string-shim calls; under `PerBatch`/`Off`
    /// they only reflect within-batch or within-walk reuse.
    #[must_use]
    pub fn mask_cache_stats(&self) -> crate::load::MaskCacheStats {
        crate::load::MaskCacheStats::assemble(
            self.mask_cache.life.stats(),
            (self.stats.mask_cache_hits, self.stats.mask_cache_misses),
            self.cstats.pending_mask(),
        )
    }

    /// Closes the open telemetry window and returns a
    /// [`LoadReport`](crate::load::LoadReport)
    /// snapshot: one row per live group under the currently published
    /// snapshot, rates window-decayed across successive calls (see
    /// [`crate::load`]). Works from `&self` — a controller samples on
    /// its own cadence while lookups and reconfigurations run — and
    /// deliberately does **not** drain the pending write shards or the
    /// stats mirror; those still fold at the owner's next `&mut` entry.
    #[must_use]
    pub fn load_report(&self) -> crate::load::LoadReport {
        let snap = self.routes.pin();
        let shape: Vec<(GroupId, Vec<MdsId>)> = snap
            .groups
            .iter()
            .map(|(&gid, group)| (gid, group.members().to_vec()))
            .collect();
        let mut fold = self.load_fold.lock().expect("load fold poisoned");
        let fresh = fold.close_window(&self.cstats);
        fold.report(snap.epoch, fresh, &shape)
    }

    /// Whether the per-batch mask cache is currently armed (regression
    /// surface for the exception-safety of the arm/disarm guard).
    #[cfg(test)]
    pub(crate) fn mask_cache_armed(&self) -> bool {
        self.mask_cache.life.armed()
    }

    /// Arms the batch-lifetime mask cache (see [`MaskCache`]); paired
    /// with [`batch_end`](GhbaCluster::batch_end) by the vectored op
    /// pipeline. A no-op outside
    /// [`MaskCacheMode`](crate::MaskCacheMode)`::PerBatch`: the
    /// persistent cache needs no arming (epoch validation governs it)
    /// and `Off` never keeps state.
    pub(crate) fn batch_begin(&mut self) {
        self.maybe_drain();
        if self.mask_cache.life.arm(self.config.mask_cache) {
            self.mask_cache.clear();
        }
    }

    /// Disarms and drops the batch-lifetime mask cache (`PerBatch` mode
    /// only; see [`batch_begin`](GhbaCluster::batch_begin)).
    pub(crate) fn batch_end(&mut self) {
        if self.mask_cache.life.disarm(self.config.mask_cache) {
            self.mask_cache.clear();
        }
    }

    /// Creates a cluster of `servers` MDSs, grouped into groups of at most
    /// `config.max_group_size`, with replica placement balanced. The
    /// build-time reconfiguration traffic is *not* counted in the stats.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    #[must_use]
    pub fn with_servers(config: GhbaConfig, servers: usize) -> Self {
        assert!(servers > 0, "cluster needs at least one server");
        let mut cluster = GhbaCluster::new(config);
        for _ in 0..servers {
            cluster.add_mds();
        }
        cluster.reset_stats();
        cluster
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &GhbaConfig {
        &self.config
    }

    /// Number of metadata servers.
    #[must_use]
    pub fn server_count(&self) -> usize {
        self.mdss.len()
    }

    /// Number of groups.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.routes.pin().groups.len()
    }

    /// All server ids, ascending.
    #[must_use]
    pub fn server_ids(&self) -> Vec<MdsId> {
        self.mdss.keys().copied().collect()
    }

    /// Sizes of all groups, ascending by group id.
    #[must_use]
    pub fn group_sizes(&self) -> Vec<usize> {
        self.routes.pin().groups.values().map(|g| g.len()).collect()
    }

    /// Borrow a server.
    #[must_use]
    pub fn mds(&self, id: MdsId) -> Option<&Mds> {
        self.mdss.get(&id)
    }

    /// The group a server belongs to (under the currently published
    /// snapshot).
    #[must_use]
    pub fn group_of(&self, id: MdsId) -> Option<GroupId> {
        self.routes.pin().group_of(id)
    }

    /// A group under the currently published snapshot. Returns a shared
    /// handle to the immutable group object: subsequent reconfigurations
    /// replace the snapshot rather than mutating it, so the handle stays
    /// consistent for as long as the caller holds it.
    #[must_use]
    pub fn group(&self, id: GroupId) -> Option<Arc<Group>> {
        self.routes.pin().groups.get(&id).cloned()
    }

    /// Lifetime statistics.
    #[must_use]
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// Clears all statistics (e.g. after warm-up). Pending concurrent
    /// writes are drained (replayed into the stores) first, so the reset
    /// discards their accounting but never their effects.
    pub fn reset_stats(&mut self) {
        self.maybe_drain();
        self.stats = ClusterStats::default();
    }

    /// Total files homed across the cluster.
    #[must_use]
    pub fn total_files(&self) -> usize {
        self.mdss.values().map(Mds::file_count).sum()
    }

    /// Replicas held by `id` (origins from other groups placed on it),
    /// under the currently published snapshot.
    #[must_use]
    pub fn replicas_held_by(&self, id: MdsId) -> Vec<MdsId> {
        self.routes.pin().replicas_held_by(id)
    }

    /// Per-MDS filter memory (own filter + LRU + held replicas) in bytes —
    /// the Table 5 quantity.
    #[must_use]
    pub fn filter_memory_bytes(&self, id: MdsId) -> usize {
        let held = self.replicas_held_by(id).len();
        self.mdss
            .get(&id)
            .map_or(0, |mds| mds.filter_memory_bytes(held))
    }

    fn pick_random_mds(&self) -> MdsId {
        let ids = self.server_ids();
        *self
            .rng
            .lock()
            .expect("rng poisoned")
            .choose(&ids)
            .expect("cluster is never empty here")
    }

    /// Resolves the serving MDS for op `op_index` of a batch under
    /// `policy` (see [`EntryPolicy`]). Callable from `&self`: the random
    /// policy draws from the mutex-guarded deterministic stream.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no servers or a pinned server is absent.
    pub(crate) fn entry_for(&self, policy: EntryPolicy, op_index: usize) -> MdsId {
        if policy == EntryPolicy::Random {
            return self.pick_random_mds();
        }
        policy
            .resolve_deterministic(&self.server_ids(), op_index)
            .expect("non-random policy resolves deterministically")
    }

    /// Creates metadata for `path` at a uniformly random home MDS (the
    /// paper populates servers randomly), returning the home.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no servers.
    pub fn create_file(&mut self, path: &str) -> MdsId {
        assert!(!self.mdss.is_empty(), "cluster has no servers");
        let home = self.pick_random_mds();
        self.create_file_at(path, home);
        home
    }

    /// Creates metadata for `path` at a specific home (used by tests and
    /// by re-homing during departures).
    ///
    /// # Panics
    ///
    /// Panics if `home` is not a member of the cluster.
    pub fn create_file_at(&mut self, path: &str, home: MdsId) {
        self.maybe_drain();
        let mds = self.mdss.get_mut(&home).expect("home must exist");
        mds.create_local(path);
        self.maybe_publish(home);
    }

    /// Pre-hashed variant of [`create_file_at`](GhbaCluster::create_file_at)
    /// for the batched op pipeline: reuses the key's admission
    /// fingerprint instead of re-hashing the path bytes.
    ///
    /// # Panics
    ///
    /// Panics if `home` is not a member of the cluster.
    pub fn create_file_keyed(&mut self, key: &PathKey, home: MdsId) {
        self.maybe_drain();
        let mds = self.mdss.get_mut(&home).expect("home must exist");
        mds.create_local_fp(key.path(), key.fingerprint());
        self.maybe_publish(home);
    }

    /// Removes `path` from its home (if any), returning the former home.
    /// The caller typically locates the home with a [`lookup`] first; this
    /// method does the authoritative sweep directly.
    ///
    /// [`lookup`]: GhbaCluster::lookup
    pub fn remove_file(&mut self, path: &str) -> Option<MdsId> {
        self.maybe_drain();
        let home = self.true_home(path)?;
        let mds = self.mdss.get_mut(&home).expect("home exists");
        mds.remove_local(path);
        self.maybe_publish(home);
        Some(home)
    }

    /// Pre-hashed variant of [`remove_file`](GhbaCluster::remove_file).
    pub fn remove_file_keyed(&mut self, key: &PathKey) -> Option<MdsId> {
        self.maybe_drain();
        let home = self.true_home(key.path())?;
        let mds = self.mdss.get_mut(&home).expect("home exists");
        mds.remove_local_fp(key.path(), key.fingerprint());
        self.maybe_publish(home);
        Some(home)
    }

    /// Ground-truth home of `path` (authoritative store sweep, no filter
    /// involvement) — for verification and tests.
    #[must_use]
    pub fn true_home(&self, path: &str) -> Option<MdsId> {
        self.mdss
            .iter()
            .find(|(_, mds)| mds.stores(path))
            .map(|(&id, _)| id)
    }

    /// Looks `path` up starting from a uniformly random entry MDS (the
    /// paper's client model: "Each request can randomly choose an MDS to
    /// carry out query operations").
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no servers.
    pub fn lookup(&mut self, path: &str) -> QueryOutcome {
        assert!(!self.mdss.is_empty(), "cluster has no servers");
        let entry = self.pick_random_mds();
        self.lookup_from(entry, path)
    }

    /// Looks `path` up starting from a chosen entry MDS, walking the
    /// L1 → L2 → L3 → L4 hierarchy of §2.3.
    ///
    /// This is the **scratch-reusing single-lookup fast path**: the same
    /// walk as a one-query
    /// [`lookup_batch_from`](GhbaCluster::lookup_batch_from) —
    /// bit-identical outcomes, pinned by the batch-equivalence tests —
    /// without the batch plumbing. Probes go through the scalar
    /// hash-once slab queries against the same prepared mask cache, so
    /// neither this call nor the 1-op string shims built on it pay a
    /// probe-batch assembly, a row-table derivation, or any per-call
    /// `Vec` allocation.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is not a member of the cluster.
    pub fn lookup_from(&mut self, entry: MdsId, path: &str) -> QueryOutcome {
        self.maybe_drain();
        let fp = Fingerprint::of(path);
        let snap = self.routes.pin();
        self.lookup_one(&snap, entry, path, &fp)
    }

    /// Looks `path` up from `entry` through a **shared reference**: the
    /// lock-free concurrent lookup path. Pins the current routing
    /// snapshot and walks the full L1 → L4 escalation against it —
    /// candidate masks built on the fly from the pinned snapshot, level
    /// and latency statistics recorded into wait-free atomic counters
    /// (folded into [`stats`](GhbaCluster::stats) at the next `&mut`
    /// drain point), and pending same-era writes observed through the
    /// namespace-shard overlay — so any number of threads may call it
    /// while a [`ReconfigHandle`] publishes successor snapshots and
    /// other threads execute concurrent write batches. Level
    /// escalation, latency, and message accounting match
    /// [`lookup_from`](GhbaCluster::lookup_from) exactly when no
    /// reconfiguration or pending write interleaves (property-tested).
    /// No L1 cache fill is performed (the walk is read-only on `Mds`
    /// state).
    ///
    /// # Panics
    ///
    /// Panics if `entry` is not a member of the cluster.
    pub fn lookup_concurrent(&self, entry: MdsId, path: &str) -> QueryOutcome {
        let fp = Fingerprint::of(path);
        let snap = self.routes.pin();
        let mut memo = PinnedMemo::default();
        self.walk_pinned(&snap, entry, path, &fp, &mut memo)
    }

    /// Pins and returns the current routing snapshot (lock-free; the
    /// returned `Arc` stays valid across successor publishes). The
    /// pin-once pipeline calls this once per batch.
    pub(crate) fn pin_route_snapshot(&self) -> Arc<RouteSnapshot> {
        self.routes.pin()
    }

    /// Whether `candidate`'s live filter answers positive for `fp`,
    /// overlaid with this era's pending writes: a pending create at
    /// `candidate` probes positive even though the real filter has not
    /// been touched yet. A pending *remove* cannot be reflected (the
    /// counting filter only decrements at drain), so a stale positive
    /// survives until the drain — it fails verification and costs
    /// accounting, never a wrong home.
    fn probe_live_pinned(&self, candidate: MdsId, fp: &Fingerprint, overlay: OverlayEntry) -> bool {
        if overlay == OverlayEntry::Created(candidate) {
            return true;
        }
        self.mdss[&candidate].probe_live_fp(fp)
    }

    /// [`verify_at`](GhbaCluster::verify_at) overlaid with this era's
    /// pending writes: a pending create verifies at its recorded home,
    /// a pending remove verifies nowhere.
    fn verify_at_pinned(
        &self,
        candidate: MdsId,
        entry: MdsId,
        path: &str,
        overlay: OverlayEntry,
        latency: &mut Duration,
        messages: &mut u32,
    ) -> Option<MdsId> {
        let model = self.config.latency.clone();
        if candidate != entry {
            *messages += 2;
            *latency += model.unicast_rtt();
        }
        let mds = self.mdss.get(&candidate)?;
        *latency += mds.metadata_access_cost(&model);
        let stores = match overlay {
            OverlayEntry::Created(home) => candidate == home,
            OverlayEntry::Removed => false,
            OverlayEntry::Untracked => mds.stores(path),
        };
        stores.then_some(candidate)
    }

    /// Finishes a pinned walk: applies contention inflation, stamps the
    /// pinned epoch, and records level, latency, false-hit, and
    /// per-group load accounting into the atomic recorders.
    #[allow(clippy::too_many_arguments)]
    fn finish_pinned(
        &self,
        epoch: MembershipEpoch,
        gid: GroupId,
        entry: MdsId,
        home: Option<MdsId>,
        level: QueryLevel,
        latency: Duration,
        messages: u32,
        falses: [u64; 4],
    ) -> QueryOutcome {
        let outcome = self.readonly_outcome(epoch, entry, home, level, latency, messages);
        self.cstats.record_lookup(outcome.level, outcome.latency);
        self.cstats
            .record_false_hits(falses[0], falses[1], falses[2], falses[3]);
        self.cstats
            .record_group_walk(gid, entry, outcome.level, falses.iter().sum());
        outcome
    }

    /// The L1 → L4 escalation of one query against a pinned snapshot,
    /// from `&self`: the read engine of [`lookup_concurrent`] and of the
    /// pin-once batch pipeline's fused runs. `memo` caches the L2/L3
    /// candidate masks per `(entry, group)` for the lifetime the caller
    /// chooses (one call here, one chunk in a fused run) — memo reuse
    /// counts as a mask-cache hit in the atomic recorders, a build as a
    /// miss.
    ///
    /// [`lookup_concurrent`]: GhbaCluster::lookup_concurrent
    fn walk_pinned(
        &self,
        snap: &RouteSnapshot,
        entry: MdsId,
        path: &str,
        fp: &Fingerprint,
        memo: &mut PinnedMemo,
    ) -> QueryOutcome {
        assert!(self.mdss.contains_key(&entry), "unknown entry MDS");
        let overlay = self.shards.overlay_keyed(path, fp);
        let gid = snap.group_of(entry).expect("entry has a group");
        let model = self.config.latency.clone();
        let mut latency = model.dispatch;
        let mut messages = 0u32;
        let mut falses = [0u64; 4];

        // ---- L1: the entry server's LRU Bloom filter array. ----
        let l1_hit = self
            .mdss
            .get(&entry)
            .and_then(Mds::lru)
            .map(|lru| lru.query_fp(fp));
        if let Some(hit) = l1_hit {
            latency += model.memory_probe;
            if let Hit::Unique(candidate) = hit {
                if let Some(home) = self.verify_at_pinned(
                    candidate,
                    entry,
                    path,
                    overlay,
                    &mut latency,
                    &mut messages,
                ) {
                    return self.finish_pinned(
                        snap.epoch,
                        gid,
                        entry,
                        Some(home),
                        QueryLevel::L1Lru,
                        latency,
                        messages,
                        falses,
                    );
                }
                falses[0] += 1;
            }
        }

        // ---- L2: the entry's segment array (θ replicas + own). ----
        if let std::collections::hash_map::Entry::Vacant(slot) = memo.l2.entry(entry) {
            let tag = snap.group_epoch(gid);
            let l2 = match snap.masks.l2(entry, gid, tag) {
                Some(shared) => {
                    self.cstats.record_mask(true);
                    self.cstats.record_group_mask(gid, true);
                    shared
                }
                None => {
                    self.cstats.record_mask(false);
                    self.cstats.record_group_mask(gid, false);
                    let held = snap.replicas_held_by(entry);
                    let fresh = Arc::new(SharedL2 {
                        gid,
                        tag,
                        mask: snap.slab.subset_mask(held.iter().copied()),
                        held: held.len(),
                    });
                    snap.masks.put_l2(entry, Arc::clone(&fresh));
                    fresh
                }
            };
            slot.insert(l2);
        } else {
            self.cstats.record_mask(true);
            self.cstats.record_group_mask(gid, true);
        }
        let l2 = memo.l2.get(&entry).expect("just ensured");
        let hit = snap.slab.query_fp_masked(fp, &l2.mask);
        let held_len = l2.held;
        let resident = self.mdss[&entry].resident_replicas(held_len);
        latency += model.array_probe(held_len + 1, held_len - resident);
        let mut positives = hit.candidates().to_vec();
        if self.probe_live_pinned(entry, fp, overlay) {
            positives.push(entry);
        }
        if positives.len() == 1 {
            if let Some(home) = self.verify_at_pinned(
                positives[0],
                entry,
                path,
                overlay,
                &mut latency,
                &mut messages,
            ) {
                return self.finish_pinned(
                    snap.epoch,
                    gid,
                    entry,
                    Some(home),
                    QueryLevel::L2Segment,
                    latency,
                    messages,
                    falses,
                );
            }
            falses[1] += 1;
        }

        // ---- L3: multicast within the entry's group. ----
        if let std::collections::hash_map::Entry::Vacant(slot) = memo.l3.entry(gid) {
            let tag = snap.group_epoch(gid);
            let l3 = match snap.masks.l3(gid, tag) {
                Some(shared) => {
                    self.cstats.record_mask(true);
                    self.cstats.record_group_mask(gid, true);
                    shared
                }
                None => {
                    self.cstats.record_mask(false);
                    self.cstats.record_group_mask(gid, false);
                    let group = snap.group(gid).expect("entry's group is live");
                    let member_held: Vec<(MdsId, usize)> = group
                        .members()
                        .iter()
                        .map(|&member| (member, group.replicas_held_by(member).len()))
                        .collect();
                    let origins = group.replica_origins();
                    let fresh = Arc::new(SharedL3 {
                        tag,
                        mask: snap.slab.subset_mask(origins.iter().copied()),
                        member_held,
                    });
                    snap.masks.put_l3(gid, Arc::clone(&fresh));
                    fresh
                }
            };
            slot.insert(l3);
        } else {
            self.cstats.record_mask(true);
            self.cstats.record_group_mask(gid, true);
        }
        let l3 = memo.l3.get(&gid).expect("just ensured");
        let (mask, member_held) = (&l3.mask, &l3.member_held);
        let peer_count = member_held.len().saturating_sub(1);
        // Peers probe their held replicas in parallel: pay the slowest.
        let worst_probe = member_held
            .iter()
            .filter(|&&(member, _)| member != entry)
            .map(|&(member, held)| {
                let resident = self.mdss[&member].resident_replicas(held);
                model.array_probe(held + 1, held - resident)
            })
            .max()
            .unwrap_or(Duration::ZERO);
        let hit = snap.slab.query_fp_masked(fp, mask);
        messages += 2 * peer_count as u32;
        latency += model.multicast_rtt(peer_count) + worst_probe;
        let mut positives = hit.candidates().to_vec();
        for &(member, _) in member_held {
            if self.probe_live_pinned(member, fp, overlay) {
                positives.push(member);
            }
        }
        if positives.len() == 1 {
            if let Some(home) = self.verify_at_pinned(
                positives[0],
                entry,
                path,
                overlay,
                &mut latency,
                &mut messages,
            ) {
                return self.finish_pinned(
                    snap.epoch,
                    gid,
                    entry,
                    Some(home),
                    QueryLevel::L3Group,
                    latency,
                    messages,
                    falses,
                );
            }
            falses[2] += 1;
        }

        // ---- L4: system-wide multicast; authoritative. ----
        let others = self.server_count().saturating_sub(1);
        messages += 2 * others as u32;
        latency += model.multicast_rtt(others) + model.memory_probe;
        let mut found: Option<MdsId> = None;
        let mut verify_cost = Duration::ZERO;
        for (&id, mds) in &self.mdss {
            if self.probe_live_pinned(id, fp, overlay) {
                verify_cost = verify_cost.max(mds.metadata_access_cost(&model));
                let stores = match overlay {
                    OverlayEntry::Created(home) => id == home,
                    OverlayEntry::Removed => false,
                    OverlayEntry::Untracked => mds.stores(path),
                };
                if stores {
                    found = Some(id);
                } else {
                    falses[3] += 1;
                }
            }
        }
        latency += verify_cost;
        let level = match found {
            Some(_) => QueryLevel::L4Global,
            None => QueryLevel::Nonexistent,
        };
        self.finish_pinned(
            snap.epoch, gid, entry, found, level, latency, messages, falses,
        )
    }

    /// Resolves a fused run of lookups against a pinned snapshot from
    /// `&self`: cross-chunk `(entry, path)` dedup, then chunked walks
    /// across the exec pool with chunk-local arenas (each chunk memoizes
    /// its L2/L3 masks), outcomes spliced back in stream order. The
    /// read engine of [`execute_concurrent`] fused runs.
    ///
    /// [`execute_concurrent`]: crate::MetadataService::execute_concurrent
    pub(crate) fn lookup_fused_pinned(
        &self,
        snap: &RouteSnapshot,
        queries: &[(MdsId, &PathKey)],
    ) -> Vec<QueryOutcome> {
        if queries.is_empty() {
            return Vec::new();
        }
        let items: Vec<(MdsId, &str, Fingerprint)> = queries
            .iter()
            .map(|&(entry, key)| (entry, key.path(), *key.fingerprint()))
            .collect();
        if items.len() == 1 {
            let (entry, path, fp) = items[0];
            let mut memo = PinnedMemo::default();
            return vec![self.walk_pinned(snap, entry, path, &fp, &mut memo)];
        }
        let (uniques, assign) = resolve_unique(&items, |&(entry, path, _)| (entry, path));
        let deduped: Vec<(MdsId, &str, Fingerprint)> =
            uniques.iter().map(|&first| items[first as usize]).collect();
        let mut arenas: Vec<PinnedArena> = Vec::new();
        let used = run_chunked(
            &deduped,
            self.config.executor,
            &mut arenas,
            |chunk, arena| {
                for &(entry, path, fp) in chunk {
                    let outcome = self.walk_pinned(snap, entry, path, &fp, &mut arena.memo);
                    arena.outcomes.push(outcome);
                }
            },
        );
        let mut resolved: Vec<QueryOutcome> = Vec::with_capacity(deduped.len());
        for arena in arenas.iter_mut().take(used) {
            resolved.append(&mut arena.outcomes);
        }
        debug_assert_eq!(resolved.len(), deduped.len());
        assign
            .iter()
            .map(|&slot| resolved[slot as usize].clone())
            .collect()
    }

    /// Records a pending create of `key` at `home` from `&self` (the
    /// pin-once pipeline's write primitive). The real store and live
    /// filter are touched at drain time.
    pub(crate) fn apply_create_shared(&self, key: &PathKey, home: MdsId) {
        debug_assert!(self.mdss.contains_key(&home), "home must exist");
        self.shards.record_create(key, home);
    }

    /// Records a pending removal of `key` from `&self`, returning the
    /// home it will be removed from: the overlay answers for paths this
    /// era already wrote, the authoritative stores for the rest (safe to
    /// sweep from `&self` — `mdss` only mutates under `&mut`, which
    /// cannot run concurrently).
    pub(crate) fn apply_remove_shared(&self, key: &PathKey) -> Option<MdsId> {
        match self.shards.overlay(key) {
            OverlayEntry::Created(home) => {
                self.shards.record_remove(key, home);
                Some(home)
            }
            OverlayEntry::Removed => None,
            OverlayEntry::Untracked => {
                let home = self.true_home(key.path())?;
                self.shards.record_remove(key, home);
                Some(home)
            }
        }
    }

    /// Folds this era's pending create bits into the published probe
    /// columns: one staging pass under the slab writer lock, one
    /// [`SlabOp::Delta`] per touched home, one atomic snapshot swap —
    /// exactly the publish path the sequential update protocol uses, so
    /// readers never observe a half-published column. Called once per
    /// concurrent batch by the pipeline, after the batch released its
    /// snapshot pin.
    ///
    /// Cost: each home's delta comes straight from its pending
    /// fingerprints' probe rows
    /// ([`SharedShapeArray::insert_delta`](ghba_bloom::SharedShapeArray::insert_delta)),
    /// and the publish writes one slab row per bit it sets, so the whole
    /// pass is `O(fingerprints × hashes)` — `O(changed bits)` on the
    /// slab, counted in [`ClusterStats::slab_rows_written`] — with no
    /// slab-sized allocation or scan, unless the caller still pins the
    /// current snapshot, which forces the spare slab's deep copy
    /// (counted in [`ClusterStats::slab_spare_copies`]).
    ///
    /// Only creates stage (published columns are plain Bloom filters;
    /// removes stay invisible to probes until the owner drain), and the
    /// touched homes are marked for the drain to reconcile their
    /// server-side published filters. Replica-update traffic is
    /// accounted per staged home as one ideal multicast to every
    /// foreign group — a simplification of `push_update`'s per-group
    /// IDBFA location, recorded into the atomic stats.
    ///
    /// Staging runs at the sequential pipeline's publish cadence, not
    /// per batch: a home's creates accumulate in its staging buffer
    /// (visible to every walk through the overlay) until enough are
    /// pending to plausibly cross the drift threshold — the same
    /// per-origin amortization `maybe_publish`'s gate gives the funnel.
    /// A batch with no ripe home pays one atomic load (plus one short
    /// buffer-map lock past the total-count bar) and never touches the
    /// writer lock.
    pub(crate) fn commit_concurrent(&self) {
        let gate = self.config.publish_gate();
        if self.shards.unpublished_create_count() < gate {
            return;
        }
        // Extraction transfers ownership of the ripe fingerprints to
        // this committer, so racing committers stage disjoint sets.
        let pending = self.shards.stage_ripe_creates(gate);
        if pending.is_empty() {
            return;
        }
        let model = self.config.latency.clone();
        let routes = Arc::clone(&self.routes);
        // The writer lock serializes this staging pass with every other
        // publisher (other committers, push_update, reconfig handles),
        // so each delta is computed against exactly the columns it will
        // apply to.
        let mut edit = RouteEdit::begin(&routes, self.config.epoch_granularity);
        let mut ops: Vec<(MdsId, FilterDelta)> = Vec::new();
        let foreign_groups = edit.work.groups.len().saturating_sub(1);
        for (home, fps) in pending {
            // A column may be absent (the home retired concurrently);
            // its creates stay in the log for the owner drain.
            let Ok(delta) = edit.work.slab.insert_delta(home, &fps) else {
                continue;
            };
            if delta.is_empty() {
                continue;
            }
            if foreign_groups > 0 {
                let bytes = delta.wire_bytes() as u64 * foreign_groups as u64;
                self.cstats.record_update(
                    foreign_groups as u64,
                    bytes,
                    model.multicast_rtt(foreign_groups),
                );
            }
            ops.push((home, delta));
        }
        let staged: Vec<MdsId> = ops.iter().map(|&(home, _)| home).collect();
        for (home, delta) in ops {
            edit.push_op(SlabOp::Delta(home, delta));
        }
        self.cstats.record_slab_publish(edit.commit());
        if !staged.is_empty() {
            self.shards.mark_staged(staged);
        }
    }

    /// Drains pending concurrent state if any exists: the cheap
    /// two-atomic-load gate every `&mut` entry point passes through.
    pub(crate) fn maybe_drain(&mut self) {
        if self.shards.is_dirty() || self.cstats.is_dirty() {
            self.drain_concurrent();
        }
    }

    /// Reconciles everything the `&self` pipeline deferred: folds the
    /// atomic statistics into [`stats`](GhbaCluster::stats), replays the
    /// namespace shards' ordered write logs against the authoritative
    /// stores and live filters (shard-index order; per-path order is
    /// total because a path always hashes to the same shard), and syncs
    /// each staged home's server-side published filter with its slab
    /// column so `column == published` holds again (the
    /// [`check_invariants`](GhbaCluster::check_invariants) contract).
    ///
    /// Runs automatically at every `&mut` entry point (lookups, writes,
    /// updates, reconfigurations, stat resets); call it explicitly
    /// before inspecting state through `&self` views such as
    /// [`true_home`](GhbaCluster::true_home) or `check_invariants`
    /// after concurrent batches.
    pub fn drain_concurrent(&mut self) {
        let (hits, misses) = self.cstats.fold_into(&mut self.stats);
        self.mask_cache.life.absorb(hits, misses);
        if !self.shards.is_dirty() {
            return;
        }
        let (records, staged) = self.shards.take_all();
        // Write-ahead: the drained batch is logged (and, per policy,
        // synced) before any of its effects publish — recovery can then
        // never observe an effect the log is missing.
        if let Some(wal) = self.wal.as_mut() {
            wal.append_drain(&records, &staged)
                .expect("WAL append failed: cannot publish unlogged effects");
        }
        self.apply_write_records(&records);
        self.reconcile_staged(&staged);
        self.maybe_checkpoint();
    }

    /// Replays drained write records against the authoritative stores
    /// and live filters (shard-index order; per-path order is total
    /// because a path always hashes to the same shard).
    pub(crate) fn apply_write_records(&mut self, records: &[WriteRecord]) {
        for record in records {
            match record.kind {
                WriteKind::Create(home) => {
                    self.mdss
                        .get_mut(&home)
                        .expect("pending create targets a live home")
                        .create_local_fp(&record.path, &record.fp);
                }
                WriteKind::Remove(home) => {
                    // The home may have retired since the record was
                    // appended; its store went with it.
                    if let Some(mds) = self.mdss.get_mut(&home) {
                        mds.remove_local_fp(&record.path, &record.fp);
                    }
                }
            }
        }
    }

    /// Syncs each staged home's server-side published filter with its
    /// slab column so `column == published` holds again.
    ///
    /// No per-record `maybe_publish`: staged create bits are already in
    /// the columns, and the gated publish cadence resumes with the next
    /// owner-side write.
    pub(crate) fn reconcile_staged(&mut self, staged: &[MdsId]) {
        if staged.is_empty() {
            return;
        }
        let routes = Arc::clone(&self.routes);
        let mut edit = RouteEdit::begin(&routes, self.config.epoch_granularity);
        let mut ops: Vec<(MdsId, FilterDelta)> = Vec::new();
        for &home in staged {
            let Some(mds) = self.mdss.get_mut(&home) else {
                continue;
            };
            // Refresh the server's own published filter from its
            // (just replayed) live state, then flip the column's
            // differing bits to match it exactly.
            let _ = mds.publish();
            let Some(column) = edit.work.slab.extract(home) else {
                continue;
            };
            if let Ok(delta) = FilterDelta::between(&column, mds.published()) {
                if !delta.is_empty() {
                    ops.push((home, delta));
                }
            }
        }
        for (home, delta) in ops {
            edit.push_op(SlabOp::Delta(home, delta));
        }
        self.finish_edit(edit);
    }

    /// Pending concurrent write records awaiting the next
    /// [`drain_concurrent`](GhbaCluster::drain_concurrent) — the
    /// namespace shard logs' combined length. Zero (lock-free) when the
    /// cluster is clean. Network replicas report this through their
    /// drain acknowledgements so tests can observe the background
    /// reconciler keeping the logs bounded.
    #[must_use]
    pub fn pending_concurrent_writes(&self) -> u64 {
        self.shards.pending_record_count()
    }

    /// Finishes a side-effect-free lookup: applies the contention
    /// inflation and stamps the pinned epoch, touching no statistics and
    /// no caches.
    fn readonly_outcome(
        &self,
        epoch: MembershipEpoch,
        entry: MdsId,
        home: Option<MdsId>,
        level: QueryLevel,
        latency: Duration,
        messages: u32,
    ) -> QueryOutcome {
        let latency = latency.mul_f64(self.config.contention_factor(messages));
        QueryOutcome {
            home,
            level,
            latency,
            messages,
            entry,
            epoch,
        }
    }

    /// Looks up a batch of paths, each from a uniformly random entry MDS —
    /// the paper's client model applied to a burst of concurrent requests.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no servers.
    pub fn lookup_batch<S: AsRef<str>>(&mut self, paths: &[S]) -> Vec<QueryOutcome> {
        assert!(!self.mdss.is_empty(), "cluster has no servers");
        let queries: Vec<(MdsId, &str)> = paths
            .iter()
            .map(|path| (self.pick_random_mds(), path.as_ref()))
            .collect();
        self.lookup_batch_from(&queries)
    }

    /// Resolves a batch of concurrent lookups, walking the L1 → L4
    /// hierarchy **level by level across the whole batch**: every query
    /// still past L1 joins one [`ProbeBatch`] against the published slab
    /// at L2, and again (group-masked) at L3, so the slab's `k` probe rows
    /// per fingerprint are resolved in one sorted, prefetched pass per
    /// level instead of one dependent walk per query. Batches of at
    /// least `executor.min_parallel_batch` queries additionally split
    /// into `executor.workers` chunks walked concurrently against the
    /// shared read-only slab (bit-identical outcomes; see the
    /// [`crate::exec`] module docs and [`ExecutorConfig`]).
    ///
    /// [`ExecutorConfig`]: crate::ExecutorConfig
    ///
    /// Per-query accounting (latency, messages, level counters) is
    /// identical to running [`lookup_from`](GhbaCluster::lookup_from) once
    /// per query; the only visible difference is the concurrent-request
    /// model: the queries of one batch model simultaneous clients, so no
    /// L1 cache fill produced by one query of the batch (at any level)
    /// is observed by another query of the same batch — fills apply in
    /// stream order when the batch completes. Observable only through an
    /// L1 Bloom false positive or an LRU eviction reordering, both
    /// vanishingly rare at sane L1 geometries; the vectored op pipeline
    /// additionally splits fused runs at repeated `(entry, path)` pairs,
    /// so the common hot-repeat case stays exact.
    ///
    /// # Panics
    ///
    /// Panics if any entry is not a member of the cluster.
    pub fn lookup_batch_from(&mut self, queries: &[(MdsId, &str)]) -> Vec<QueryOutcome> {
        // Hash each path once at its entry server; the fingerprint drives
        // every filter probe of the whole L1 → L4 escalation (and in a
        // real deployment travels inside the multicast probe messages).
        let prehashed: Vec<(MdsId, &str, Fingerprint)> = queries
            .iter()
            .map(|&(entry, path)| (entry, path, Fingerprint::of(path)))
            .collect();
        self.lookup_batch_prehashed(&prehashed)
    }

    /// The batched walk behind [`lookup_batch_from`], taking queries whose
    /// fingerprints were already computed (at batch admission by the
    /// vectored op pipeline, or just above for string callers).
    ///
    /// Execution is split into three phases:
    ///
    /// 1. **Prepare** (dispatching thread, mutating) — validate or
    ///    rebuild the L2/L3 mask-cache entries every query may consult
    ///    ([`prepare_masks`](Self::prepare_masks)).
    /// 2. **Read** (parallel when `executor.workers > 1` and the batch
    ///    reaches `executor.min_parallel_batch`) — the batch splits into
    ///    contiguous per-worker chunks, each walking L1–L4 against the
    ///    shared read-only slab with its own scratch arena
    ///    ([`walk_chunk`](Self::walk_chunk)); `workers = 1` and
    ///    sub-threshold batches walk one chunk inline with no pool
    ///    involvement.
    /// 3. **Splice** (dispatching thread, mutating) — verdicts are
    ///    stitched back **in stream order** and their deferred effects
    ///    (LRU fills, counters, statistics) applied
    ///    ([`apply_verdict`](Self::apply_verdict)).
    ///
    /// Outcomes are bit-identical at every worker count: the read phase
    /// is a pure function of the prepared state, and the splice applies
    /// effects exactly as a stream-ordered drain would (property-tested
    /// across worker counts, schemes, and reconfig interleavings).
    ///
    /// # Panics
    ///
    /// Panics if any entry is not a member of the cluster (in a parallel
    /// walk the assert fires on the worker owning the chunk and the
    /// panic is re-raised here, after sibling chunks finish).
    ///
    /// [`lookup_batch_from`]: GhbaCluster::lookup_batch_from
    pub(crate) fn lookup_batch_prehashed(
        &mut self,
        queries: &[(MdsId, &str, Fingerprint)],
    ) -> Vec<QueryOutcome> {
        self.maybe_drain();
        let total = queries.len();
        if total == 0 {
            return Vec::new();
        }
        // Pin one routing snapshot for the whole batch: every query of
        // the batch — across every worker chunk — resolves against this
        // one consistent configuration, however many reconfigurations
        // publish successors while the walk runs.
        let snap = self.routes.pin();
        if total == 1 {
            // The scratch-reusing scalar fast path (no batch plumbing).
            let (entry, path, fp) = queries[0];
            return vec![self.lookup_one(&snap, entry, path, &fp)];
        }
        self.prepare_masks(&snap, queries);
        // Cross-chunk fingerprint dedup: a Zipf-head batch repeats hot
        // `(entry, path)` pairs, and chunk-local memoization cannot see
        // repeats landing in other workers' chunks. The read phase is a
        // pure function of `(entry, path)` under the pinned snapshot, so
        // each distinct pair walks once and duplicates share the verdict
        // — effects still apply once per occurrence, in stream order.
        let (uniques, assign) = resolve_unique(queries, |&(entry, path, _)| (entry, path));
        let deduped: Vec<(MdsId, &str, Fingerprint)> = uniques
            .iter()
            .map(|&first| queries[first as usize])
            .collect();
        let executor = self.config.executor;
        let mut arenas = core::mem::take(&mut self.scratch);
        let walked = {
            let shared: &GhbaCluster = self;
            let snap = &snap;
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_chunked(&deduped, executor, &mut arenas, |chunk, arena| {
                    shared.walk_chunk(snap, chunk, arena)
                })
            }))
        };
        let used = match walked {
            Ok(used) => used,
            Err(payload) => {
                // A poisoned chunk must not cost the cluster its warmed
                // per-worker arenas: restore them before re-raising.
                self.scratch = arenas;
                std::panic::resume_unwind(payload);
            }
        };
        let mut resolved: Vec<WalkVerdict> = Vec::with_capacity(deduped.len());
        for arena in arenas.iter_mut().take(used) {
            resolved.append(&mut arena.verdicts);
        }
        debug_assert_eq!(
            resolved.len(),
            deduped.len(),
            "chunks cover the deduplicated batch exactly once"
        );
        let mut outcomes = Vec::with_capacity(total);
        for (qi, &slot) in assign.iter().enumerate() {
            let (entry, _, fp) = queries[qi];
            let verdict = resolved[slot as usize].clone();
            // Load telemetry mirrors the pinned walk: one record per
            // occurrence (duplicates are real traffic), attributed to
            // the entry's group under the batch's pinned snapshot.
            if let Some(gid) = snap.group_of(entry) {
                let group_falses = u64::from(verdict.l1_false)
                    + u64::from(verdict.l2_false)
                    + u64::from(verdict.l3_false)
                    + u64::from(verdict.l4_disk_checks);
                self.cstats
                    .record_group_walk(gid, entry, verdict.outcome.level, group_falses);
            }
            outcomes.push(self.apply_verdict(&fp, verdict));
        }
        self.scratch = arenas;
        outcomes
    }

    /// Validates (or rebuilds) the mask-cache entries every query of the
    /// walk may consult — the L2 snapshot of each entry server and the
    /// L3 snapshot of its group — on the dispatching thread, *before*
    /// the (possibly parallel) read phase, which then consults the cache
    /// strictly read-only.
    ///
    /// Validity under [`MaskCacheMode::Persistent`](crate::MaskCacheMode)
    /// is per entry: a snapshot is fresh iff its group tag matches the
    /// group's current [`GroupEpoch`] (and, for L2, the server still
    /// belongs to the group it was built under — splits and merges move
    /// servers without touching their ids). Hit/miss accounting is one
    /// L2 + one L3 consultation per query; the pre-parallel walk
    /// consulted L3 only for queries escalating past L2, so
    /// Persistent-mode totals are a slight upper bound of the old
    /// accounting, with identical rates at the batch sizes the figure
    /// binaries read.
    fn prepare_masks(&mut self, snap: &RouteSnapshot, queries: &[(MdsId, &str, Fingerprint)]) {
        if self
            .mask_cache
            .life
            .begin_walk_keyed(self.config.mask_cache)
        {
            self.mask_cache.clear();
        }
        // Open a walk generation; at the sweep cadence this also evicts
        // masks no walk has consulted lately (live-but-idle entries the
        // per-group epoch tags would otherwise keep forever).
        self.stats.mask_cache_evictions += self.mask_cache.begin_generation();
        let generation = self.mask_cache.generation;
        for &(entry, _, _) in queries {
            // Unknown entries panic inside the walk itself (same message
            // and per-query position as ever); skip them here.
            let Some(gid) = snap.group_of(entry) else {
                continue;
            };
            let tag = snap.group_epoch(gid);
            let l2_fresh = self
                .mask_cache
                .l2_consult(entry)
                .is_some_and(|e| e.gid == gid && e.tag == tag);
            self.cstats.record_group_mask(gid, l2_fresh);
            if l2_fresh {
                self.mask_cache.life.hit();
                self.stats.mask_cache_hits += 1;
            } else {
                self.mask_cache.life.miss();
                self.stats.mask_cache_misses += 1;
                let held = snap.replicas_held_by(entry);
                let mask = snap.slab.subset_mask(held.iter().copied());
                self.mask_cache.upsert_l2(L2Mask {
                    entry,
                    gid,
                    tag,
                    held: held.len(),
                    mask,
                    last_used: generation,
                });
            }
            let l3_fresh = self
                .mask_cache
                .l3_consult(gid)
                .is_some_and(|e| e.tag == tag);
            self.cstats.record_group_mask(gid, l3_fresh);
            if l3_fresh {
                self.mask_cache.life.hit();
                self.stats.mask_cache_hits += 1;
            } else {
                self.mask_cache.life.miss();
                self.stats.mask_cache_misses += 1;
                let group = snap.group(gid).expect("entry's group is live");
                let member_held: Vec<(MdsId, usize)> = group
                    .members()
                    .iter()
                    .map(|&member| (member, group.replicas_held_by(member).len()))
                    .collect();
                // The group's replicas collectively mirror every server
                // outside it: one masked slab probe covers all of them,
                // and recipients reuse the fingerprint shipped with the
                // multicast for their live probes.
                let origins = group.replica_origins();
                let mask = snap.slab.subset_mask(origins.iter().copied());
                self.mask_cache.upsert_l3(L3Mask {
                    gid,
                    tag,
                    member_held,
                    mask,
                    last_used: generation,
                });
            }
        }
    }

    /// Resolves one chunk of a batched walk **read-only**: the L1 → L4
    /// escalation runs level by level across the chunk (one probe-batch
    /// slab pass per level, exactly the pre-parallel schedule), with
    /// every side effect deferred into `scratch.verdicts` for the splice
    /// phase. Requires [`prepare_masks`](Self::prepare_masks) to have
    /// covered every query's entry and group.
    ///
    /// # Panics
    ///
    /// Panics if any entry is not a member of the cluster.
    fn walk_chunk(
        &self,
        snap: &RouteSnapshot,
        queries: &[(MdsId, &str, Fingerprint)],
        scratch: &mut WalkScratch,
    ) {
        let WalkScratch {
            batch,
            live_rows,
            verdicts,
            slots,
            falses,
            latency,
            messages,
            fps,
        } = scratch;
        let model = self.config.latency.clone();
        let total = queries.len();
        verdicts.clear();
        slots.clear();
        slots.resize(total, None);
        falses.clear();
        falses.resize(total, [0; 4]);
        latency.clear();
        latency.resize(total, model.dispatch);
        messages.clear();
        messages.resize(total, 0);
        fps.clear();
        fps.extend(queries.iter().map(|&(_, _, fp)| fp));
        // Every live-filter probe of the walk (the entry's at L2, group
        // members' at L3, the global L4 sweep) shares one row table,
        // derived once per chunk through the ProbeBatch fastmod machinery
        // instead of once per (query, server) pair. Live filters share
        // [`published_shape`], so one derivation serves them all.
        let live_shape = published_shape(&self.config);
        let k_live = live_shape.hashes as usize;
        batch.clear();
        for fp in fps.iter() {
            batch.push(*fp);
        }
        batch.derive_rows_into(live_shape, live_rows);
        let mut active: Vec<usize> = Vec::with_capacity(total);

        // ---- L1: each entry server's LRU Bloom filter array. ----
        for (qi, &(entry, path, _)) in queries.iter().enumerate() {
            assert!(self.mdss.contains_key(&entry), "unknown entry MDS");
            let fp = fps[qi];
            let l1_hit = self
                .mdss
                .get(&entry)
                .and_then(Mds::lru)
                .map(|lru| lru.query_fp(&fp));
            if let Some(hit) = l1_hit {
                latency[qi] += model.memory_probe; // small resident array
                if let Hit::Unique(candidate) = hit {
                    if let Some(home) =
                        self.verify_at(candidate, entry, path, &mut latency[qi], &mut messages[qi])
                    {
                        slots[qi] = Some(self.assemble(
                            entry,
                            home,
                            QueryLevel::L1Lru,
                            latency[qi],
                            messages[qi],
                            falses[qi],
                            snap.epoch,
                        ));
                        continue;
                    }
                    falses[qi][0] += 1;
                }
            }
            active.push(qi);
        }

        // ---- L2: every entry server's segment array (θ replicas + own):
        // one batched masked probe of the published slab for the whole
        // chunk, with candidate masks and held counts read from the
        // prepared cache; the budget-sensitive probe duration is
        // recomputed here, inside the run, where no write can interleave.
        batch.clear();
        for &qi in &active {
            let (entry, _, _) = queries[qi];
            let l2 = self.mask_cache.l2(entry).expect("L2 mask prepared");
            let resident = self.mdss[&entry].resident_replicas(l2.held);
            latency[qi] += model.array_probe(l2.held + 1, l2.held - resident);
            batch.push_masked(fps[qi], l2.mask.clone());
        }
        let hits = snap.slab.query_batch(batch);
        let mut next_active = Vec::with_capacity(active.len());
        for (&qi, hit) in active.iter().zip(&hits) {
            let (entry, path, _) = queries[qi];
            let mut positives = hit.candidates().to_vec();
            if self.mdss[&entry].probe_live_rows(&live_rows[qi * k_live..(qi + 1) * k_live]) {
                positives.push(entry);
            }
            if positives.len() == 1 {
                let candidate = positives[0];
                if let Some(home) =
                    self.verify_at(candidate, entry, path, &mut latency[qi], &mut messages[qi])
                {
                    slots[qi] = Some(self.assemble(
                        entry,
                        home,
                        QueryLevel::L2Segment,
                        latency[qi],
                        messages[qi],
                        falses[qi],
                        snap.epoch,
                    ));
                    continue;
                }
                falses[qi][1] += 1;
            }
            next_active.push(qi);
        }
        let active = next_active;

        // ---- L3: multicast within each entry server's group; the
        // group-mirror probes of the whole chunk share one slab pass,
        // reading each group's member snapshot and origin mask from the
        // prepared cache. The budget-sensitive probe durations and the
        // entry-dependent worst-peer max reduce over the snapshot per
        // query.
        batch.clear();
        for &qi in &active {
            let (entry, _, _) = queries[qi];
            let gid = snap.group_of(entry).expect("entry has a group");
            let l3 = self.mask_cache.l3(gid).expect("L3 mask prepared");
            let peer_count = l3.member_held.len().saturating_sub(1);
            messages[qi] += 2 * peer_count as u32;
            latency[qi] += model.multicast_rtt(peer_count);
            // Peers probe their held replicas in parallel: pay the slowest.
            let worst_probe = l3
                .member_held
                .iter()
                .filter(|&&(member, _)| member != entry)
                .map(|&(member, held)| {
                    let resident = self.mdss[&member].resident_replicas(held);
                    model.array_probe(held + 1, held - resident)
                })
                .max()
                .unwrap_or(Duration::ZERO);
            latency[qi] += worst_probe;
            batch.push_masked(fps[qi], l3.mask.clone());
        }
        let hits = snap.slab.query_batch(batch);
        let mut next_active = Vec::with_capacity(active.len());
        // Members' live-filter answers depend only on (group, fingerprint):
        // flash-crowd duplicates within the chunk probe each group's
        // member filters once and reuse the verdict.
        let mut l3_live: Vec<(GroupId, (u64, u64), Vec<MdsId>)> = Vec::new();
        for (&qi, hit) in active.iter().zip(&hits) {
            let (entry, path, _) = queries[qi];
            let gid = snap.group_of(entry).expect("entry has a group");
            let mut positives = hit.candidates().to_vec();
            let lanes = fps[qi].lanes();
            let live = match l3_live
                .iter()
                .find(|(id, key, _)| *id == gid && *key == lanes)
            {
                Some(cached) => &cached.2,
                None => {
                    let rows = &live_rows[qi * k_live..(qi + 1) * k_live];
                    let members: Vec<MdsId> = snap
                        .group(gid)
                        .expect("entry's group is live")
                        .members()
                        .iter()
                        .copied()
                        .filter(|member| self.mdss[member].probe_live_rows(rows))
                        .collect();
                    l3_live.push((gid, lanes, members));
                    &l3_live.last().expect("just pushed").2
                }
            };
            positives.extend_from_slice(live);
            if positives.len() == 1 {
                let candidate = positives[0];
                if let Some(home) =
                    self.verify_at(candidate, entry, path, &mut latency[qi], &mut messages[qi])
                {
                    slots[qi] = Some(self.assemble(
                        entry,
                        home,
                        QueryLevel::L3Group,
                        latency[qi],
                        messages[qi],
                        falses[qi],
                        snap.epoch,
                    ));
                    continue;
                }
                falses[qi][2] += 1;
            }
            next_active.push(qi);
        }
        let active = next_active;

        // ---- L4: system-wide multicast; authoritative. The recipients'
        // live-filter probes reuse the chunk's precomputed row table
        // (each fingerprint's rows derived once, not once per server). ----
        for &qi in &active {
            let (entry, path, _) = queries[qi];
            let rows = &live_rows[qi * k_live..(qi + 1) * k_live];
            let others = self.server_count().saturating_sub(1);
            messages[qi] += 2 * others as u32;
            latency[qi] += model.multicast_rtt(others);
            // Every server probes its live local filter in parallel
            // (memory); positives verify against their store.
            latency[qi] += model.memory_probe;
            let mut found: Option<MdsId> = None;
            let mut verify_cost = Duration::ZERO;
            for (&id, mds) in &self.mdss {
                if mds.probe_live_rows(rows) {
                    let cost = mds.metadata_access_cost(&model);
                    verify_cost = verify_cost.max(cost);
                    if mds.stores(path) {
                        found = Some(id);
                    } else {
                        falses[qi][3] += 1;
                    }
                }
            }
            latency[qi] += verify_cost;
            slots[qi] = Some(match found {
                Some(home) => self.assemble(
                    entry,
                    home,
                    QueryLevel::L4Global,
                    latency[qi],
                    messages[qi],
                    falses[qi],
                    snap.epoch,
                ),
                None => {
                    let latency = latency[qi].mul_f64(self.config.contention_factor(messages[qi]));
                    WalkVerdict {
                        outcome: QueryOutcome {
                            home: None,
                            level: QueryLevel::Nonexistent,
                            latency,
                            messages: messages[qi],
                            entry,
                            epoch: snap.epoch,
                        },
                        l1_false: falses[qi][0],
                        l2_false: falses[qi][1],
                        l3_false: falses[qi][2],
                        l4_disk_checks: falses[qi][3],
                    }
                }
            });
        }

        batch.clear();
        live_rows.clear();
        verdicts.extend(
            slots
                .drain(..)
                .map(|slot| slot.expect("every query resolved by L4")),
        );
    }

    /// Builds the read-phase verdict of a resolved query: the finished
    /// [`QueryOutcome`] (contention inflation applied) plus the false-hit
    /// tallies the splice phase will account. Pure — the mutating
    /// counterpart is [`apply_verdict`](Self::apply_verdict).
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        &self,
        entry: MdsId,
        home: MdsId,
        level: QueryLevel,
        latency: Duration,
        messages: u32,
        falses: [u32; 4],
        epoch: MembershipEpoch,
    ) -> WalkVerdict {
        let latency = latency.mul_f64(self.config.contention_factor(messages));
        WalkVerdict {
            outcome: QueryOutcome {
                home: Some(home),
                level,
                latency,
                messages,
                entry,
                epoch,
            },
            l1_false: falses[0],
            l2_false: falses[1],
            l3_false: falses[2],
            l4_disk_checks: falses[3],
        }
    }

    /// Applies one resolved query's deferred effects — false-hit
    /// counters, the LRU fill at its entry server, level and latency
    /// statistics — and returns the outcome. The splice phase calls this
    /// in stream order, so N parallel chunks leave exactly the
    /// statistics and L1 state a single-threaded stream drain would.
    fn apply_verdict(&mut self, fp: &Fingerprint, verdict: WalkVerdict) -> QueryOutcome {
        let WalkVerdict {
            outcome,
            l1_false,
            l2_false,
            l3_false,
            l4_disk_checks,
        } = verdict;
        for (label, count) in [
            ("l1_false_hits", l1_false),
            ("l2_false_hits", l2_false),
            ("l3_false_hits", l3_false),
            ("l4_false_positive_disk_checks", l4_disk_checks),
        ] {
            if count > 0 {
                self.stats.counters.add(label, count.into());
            }
        }
        if let Some(home) = outcome.home {
            if let Some(lru) = self.mdss.get_mut(&outcome.entry).and_then(Mds::lru_mut) {
                lru.record_fp(fp, home);
            }
        }
        self.stats.levels.record(outcome.level);
        self.stats.lookup_latency.record(outcome.latency);
        outcome
    }

    /// The scalar walk behind [`lookup_from`](GhbaCluster::lookup_from)
    /// and the B = 1 batches of the string shims: the same escalation,
    /// mask-cache consultation, and accounting as a one-query
    /// [`walk_chunk`](Self::walk_chunk), with the probe-batch machinery
    /// replaced by scalar hash-once slab queries and effects applied
    /// inline. The batch-equivalence tests pin the two walks identical.
    fn lookup_one(
        &mut self,
        snap: &RouteSnapshot,
        entry: MdsId,
        path: &str,
        fp: &Fingerprint,
    ) -> QueryOutcome {
        assert!(self.mdss.contains_key(&entry), "unknown entry MDS");
        self.prepare_masks(snap, &[(entry, path, *fp)]);
        let gid = snap.group_of(entry).expect("entry has a group");
        let model = self.config.latency.clone();
        let mut latency = model.dispatch;
        let mut messages = 0u32;
        let mut group_falses = 0u64;

        // ---- L1: the entry server's LRU Bloom filter array. ----
        let l1_hit = self
            .mdss
            .get(&entry)
            .and_then(Mds::lru)
            .map(|lru| lru.query_fp(fp));
        if let Some(hit) = l1_hit {
            latency += model.memory_probe;
            if let Hit::Unique(candidate) = hit {
                if let Some(home) =
                    self.verify_at(candidate, entry, path, &mut latency, &mut messages)
                {
                    self.cstats
                        .record_group_walk(gid, entry, QueryLevel::L1Lru, group_falses);
                    return self.finish(
                        entry,
                        fp,
                        home,
                        QueryLevel::L1Lru,
                        latency,
                        messages,
                        snap.epoch,
                    );
                }
                self.stats.counters.incr("l1_false_hits");
                group_falses += 1;
            }
        }

        // ---- L2: the entry's segment array (θ replicas + own). ----
        let (hit, held) = {
            let l2 = self.mask_cache.l2(entry).expect("prepared just above");
            (snap.slab.query_fp_masked(fp, &l2.mask), l2.held)
        };
        let resident = self.mdss[&entry].resident_replicas(held);
        latency += model.array_probe(held + 1, held - resident);
        let mut positives = hit.candidates().to_vec();
        if self.mdss[&entry].probe_live_fp(fp) {
            positives.push(entry);
        }
        if positives.len() == 1 {
            if let Some(home) =
                self.verify_at(positives[0], entry, path, &mut latency, &mut messages)
            {
                self.cstats
                    .record_group_walk(gid, entry, QueryLevel::L2Segment, group_falses);
                return self.finish(
                    entry,
                    fp,
                    home,
                    QueryLevel::L2Segment,
                    latency,
                    messages,
                    snap.epoch,
                );
            }
            self.stats.counters.incr("l2_false_hits");
            group_falses += 1;
        }

        // ---- L3: multicast within the entry's group. ----
        let (hit, peer_count, worst_probe) = {
            let l3 = self.mask_cache.l3(gid).expect("prepared just above");
            let peer_count = l3.member_held.len().saturating_sub(1);
            // Peers probe their held replicas in parallel: pay the slowest.
            let worst_probe = l3
                .member_held
                .iter()
                .filter(|&&(member, _)| member != entry)
                .map(|&(member, held)| {
                    let resident = self.mdss[&member].resident_replicas(held);
                    model.array_probe(held + 1, held - resident)
                })
                .max()
                .unwrap_or(Duration::ZERO);
            (
                snap.slab.query_fp_masked(fp, &l3.mask),
                peer_count,
                worst_probe,
            )
        };
        messages += 2 * peer_count as u32;
        latency += model.multicast_rtt(peer_count) + worst_probe;
        let mut positives = hit.candidates().to_vec();
        for member in snap.group(gid).expect("entry's group is live").members() {
            if self.mdss[member].probe_live_fp(fp) {
                positives.push(*member);
            }
        }
        if positives.len() == 1 {
            if let Some(home) =
                self.verify_at(positives[0], entry, path, &mut latency, &mut messages)
            {
                self.cstats
                    .record_group_walk(gid, entry, QueryLevel::L3Group, group_falses);
                return self.finish(
                    entry,
                    fp,
                    home,
                    QueryLevel::L3Group,
                    latency,
                    messages,
                    snap.epoch,
                );
            }
            self.stats.counters.incr("l3_false_hits");
            group_falses += 1;
        }

        // ---- L4: system-wide multicast; authoritative. ----
        let others = self.server_count().saturating_sub(1);
        messages += 2 * others as u32;
        latency += model.multicast_rtt(others) + model.memory_probe;
        let mut found: Option<MdsId> = None;
        let mut verify_cost = Duration::ZERO;
        let mut disk_checks = 0u64;
        for (&id, mds) in &self.mdss {
            if mds.probe_live_fp(fp) {
                verify_cost = verify_cost.max(mds.metadata_access_cost(&model));
                if mds.stores(path) {
                    found = Some(id);
                } else {
                    disk_checks += 1;
                }
            }
        }
        latency += verify_cost;
        if disk_checks > 0 {
            self.stats
                .counters
                .add("l4_false_positive_disk_checks", disk_checks);
            group_falses += disk_checks;
        }
        let load_level = match found {
            Some(_) => QueryLevel::L4Global,
            None => QueryLevel::Nonexistent,
        };
        self.cstats
            .record_group_walk(gid, entry, load_level, group_falses);
        match found {
            Some(home) => self.finish(
                entry,
                fp,
                home,
                QueryLevel::L4Global,
                latency,
                messages,
                snap.epoch,
            ),
            None => {
                let latency = latency.mul_f64(self.config.contention_factor(messages));
                self.stats.levels.record(QueryLevel::Nonexistent);
                self.stats.lookup_latency.record(latency);
                QueryOutcome {
                    home: None,
                    level: QueryLevel::Nonexistent,
                    latency,
                    messages,
                    entry,
                    epoch: snap.epoch,
                }
            }
        }
    }

    /// Forwards the query to `candidate` and verifies against its
    /// authoritative store. Returns the confirmed home or `None` on a
    /// false positive. Accounts the round trip and the metadata access.
    /// Read-only (the parallel chunk walks call it concurrently).
    fn verify_at(
        &self,
        candidate: MdsId,
        entry: MdsId,
        path: &str,
        latency: &mut Duration,
        messages: &mut u32,
    ) -> Option<MdsId> {
        let model = self.config.latency.clone();
        if candidate != entry {
            *messages += 2;
            *latency += model.unicast_rtt();
        }
        let mds = self.mdss.get(&candidate)?;
        *latency += mds.metadata_access_cost(&model);
        if mds.stores(path) {
            Some(candidate)
        } else {
            None
        }
    }

    /// Records a successful lookup: LRU cache fill at the entry server
    /// (reusing the query's fingerprint), level counters, contention
    /// inflation, latency.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &mut self,
        entry: MdsId,
        fp: &Fingerprint,
        home: MdsId,
        level: QueryLevel,
        latency: Duration,
        messages: u32,
        epoch: MembershipEpoch,
    ) -> QueryOutcome {
        if let Some(lru) = self.mdss.get_mut(&entry).and_then(Mds::lru_mut) {
            lru.record_fp(fp, home);
        }
        let latency = latency.mul_f64(self.config.contention_factor(messages));
        self.stats.levels.record(level);
        self.stats.lookup_latency.record(latency);
        QueryOutcome {
            home: Some(home),
            level,
            latency,
            messages,
            entry,
            epoch,
        }
    }

    /// Checks every structural invariant of the cluster; returns a
    /// description of the first violation.
    ///
    /// Invariants (the properties §2.2 and §3.1–3.2 argue for):
    /// 1. every server belongs to exactly one group, consistently indexed;
    /// 2. no group exceeds `M` members;
    /// 3. **mirror**: each group stores replicas of exactly the servers
    ///    outside it, so group replicas + member filters cover the system;
    /// 4. every replica's holder is a member of that group;
    /// 5. replica load within each group is balanced within one replica;
    /// 6. the IDBFA locates every replica (its candidates include the true
    ///    holder — counting filters have no false negatives);
    /// 7. the bit-sliced published slab mirrors every server's published
    ///    filter exactly (the hash-once L2/L3 probes depend on it).
    pub fn check_invariants(&self) -> Result<(), String> {
        let snap = self.routes.pin();
        let slab_ids: Vec<MdsId> = {
            let mut ids: Vec<MdsId> = snap.slab.ids().collect();
            ids.sort_unstable();
            ids
        };
        if slab_ids != self.server_ids() {
            return Err(format!(
                "published slab tracks {} servers, cluster has {}",
                slab_ids.len(),
                self.mdss.len()
            ));
        }
        for (&id, mds) in &self.mdss {
            let column = snap
                .slab
                .extract(id)
                .ok_or_else(|| format!("published slab lost {id}"))?;
            if &column != mds.published() {
                return Err(format!("published slab column of {id} is stale"));
            }
        }
        for (&id, &gid) in &snap.group_of {
            let group = snap
                .groups
                .get(&gid)
                .ok_or_else(|| format!("{id} maps to missing {gid}"))?;
            if !group.contains(id) {
                return Err(format!("{id} not a member of its {gid}"));
            }
        }
        let all: Vec<MdsId> = self.server_ids();
        for group in snap.groups.values() {
            if group.len() > self.config.max_group_size {
                return Err(format!(
                    "{} has {} members (max {})",
                    group.id(),
                    group.len(),
                    self.config.max_group_size
                ));
            }
            for &member in group.members() {
                if snap.group_of.get(&member) != Some(&group.id()) {
                    return Err(format!("{member} membership index inconsistent"));
                }
            }
            let expected: Vec<MdsId> = all
                .iter()
                .copied()
                .filter(|id| !group.contains(*id))
                .collect();
            let origins = group.replica_origins();
            if origins != expected {
                return Err(format!(
                    "{} mirror incomplete: has {} replicas, expected {}",
                    group.id(),
                    origins.len(),
                    expected.len()
                ));
            }
            for origin in origins {
                let holder = group
                    .holder_of(origin)
                    .ok_or_else(|| format!("{} lost holder of {origin}", group.id()))?;
                if !group.contains(holder) {
                    return Err(format!("{} replica held by non-member", group.id()));
                }
                if !group
                    .locate_via_idbfa(origin)
                    .candidates()
                    .contains(&holder)
                {
                    return Err(format!(
                        "{} IDBFA cannot locate replica of {origin}",
                        group.id()
                    ));
                }
            }
            if !group.is_empty() && group.balance_spread() > 1 {
                return Err(format!(
                    "{} unbalanced: spread {}",
                    group.id(),
                    group.balance_spread()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpBatch;

    fn batch_config() -> GhbaConfig {
        GhbaConfig::default()
            .with_filter_capacity(2_000)
            .with_max_group_size(5)
            .with_update_threshold(64)
            .with_seed(42)
    }

    fn populated_cluster() -> GhbaCluster {
        let mut cluster = GhbaCluster::with_servers(batch_config(), 15);
        for i in 0..300 {
            cluster.create_file(&format!("/b/f{i}"));
        }
        cluster.flush_all_updates();
        cluster
    }

    /// A batch of concurrent lookups over distinct paths resolves exactly
    /// like the same lookups issued sequentially from the same entries —
    /// homes, levels, latencies, messages, and stats all agree.
    #[test]
    fn lookup_batch_matches_sequential_lookups() {
        let mut sequential = populated_cluster();
        let mut batched = populated_cluster();
        let queries: Vec<(MdsId, String)> = (0..64)
            .map(|i| {
                let path = if i % 8 == 7 {
                    format!("/missing/f{i}")
                } else {
                    format!("/b/f{}", i * 4 % 300)
                };
                (MdsId(i % 15), path)
            })
            .collect();
        let borrowed: Vec<(MdsId, &str)> = queries
            .iter()
            .map(|(entry, path)| (*entry, path.as_str()))
            .collect();
        let expected: Vec<QueryOutcome> = borrowed
            .iter()
            .map(|&(entry, path)| sequential.lookup_from(entry, path))
            .collect();
        let got = batched.lookup_batch_from(&borrowed);
        assert_eq!(got, expected);
        assert_eq!(batched.stats().levels, sequential.stats().levels);
        assert_eq!(
            batched.stats().lookup_latency.count(),
            sequential.stats().lookup_latency.count()
        );
    }

    /// `lookup_batch` draws one random entry per path, consuming the rng
    /// stream exactly as sequential `lookup` calls would.
    #[test]
    fn lookup_batch_random_entries_match_sequential_rng() {
        let mut sequential = populated_cluster();
        let mut batched = populated_cluster();
        let paths: Vec<String> = (0..32).map(|i| format!("/b/f{}", i * 9 % 300)).collect();
        let expected: Vec<QueryOutcome> =
            paths.iter().map(|path| sequential.lookup(path)).collect();
        assert_eq!(batched.lookup_batch(&paths), expected);
    }

    #[test]
    fn empty_lookup_batch_is_empty() {
        let mut cluster = populated_cluster();
        assert!(cluster.lookup_batch_from(&[]).is_empty());
    }

    fn parallel_config(workers: usize) -> GhbaConfig {
        batch_config().with_executor(
            crate::config::ExecutorConfig::default()
                .with_workers(workers)
                .with_min_parallel_batch(8),
        )
    }

    fn populated_parallel_cluster(workers: usize) -> GhbaCluster {
        let mut cluster = GhbaCluster::with_servers(parallel_config(workers), 15);
        for i in 0..300 {
            cluster.create_file(&format!("/b/f{i}"));
        }
        cluster.flush_all_updates();
        cluster
    }

    fn batch_queries() -> Vec<(MdsId, String)> {
        (0..96)
            .map(|i| {
                let path = if i % 8 == 7 {
                    format!("/missing/f{i}")
                } else {
                    format!("/b/f{}", i * 4 % 300)
                };
                (MdsId(i % 15), path)
            })
            .collect()
    }

    /// The parallel walk resolves a large batch bit-identically to the
    /// single-threaded walk, worker count by worker count, including
    /// the spliced statistics.
    #[test]
    fn parallel_lookup_batch_matches_sequential_walk() {
        let mut sequential = populated_parallel_cluster(1);
        let queries = batch_queries();
        let borrowed: Vec<(MdsId, &str)> = queries
            .iter()
            .map(|(entry, path)| (*entry, path.as_str()))
            .collect();
        let expected = sequential.lookup_batch_from(&borrowed);
        for workers in [2, 4, 7] {
            let mut parallel = populated_parallel_cluster(workers);
            let got = parallel.lookup_batch_from(&borrowed);
            assert_eq!(got, expected, "{workers} workers diverged");
            assert_eq!(parallel.stats().levels, sequential.stats().levels);
            assert_eq!(
                parallel.stats().lookup_latency.count(),
                sequential.stats().lookup_latency.count()
            );
        }
    }

    /// A chunk walking on a pool worker panics (unknown entry MDS); the
    /// panic propagates to the dispatching thread after sibling chunks
    /// finish, no armed cache leaks, and the cluster — scratch arenas
    /// included — keeps serving.
    #[test]
    fn poisoned_parallel_worker_propagates_and_cluster_survives() {
        let mut cluster = populated_parallel_cluster(4);
        let queries = batch_queries();
        let mut borrowed: Vec<(MdsId, &str)> = queries
            .iter()
            .map(|(entry, path)| (*entry, path.as_str()))
            .collect();
        // Poison a query deep in the batch: its chunk lands on a pool
        // worker (chunks of 24 at 96 queries / 4 workers; index 80 is
        // chunk 3).
        borrowed[80].0 = MdsId(999);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cluster.lookup_batch_from(&borrowed);
        }));
        let payload = result.expect_err("the poisoned chunk must panic");
        let message = payload
            .downcast_ref::<&'static str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            message.contains("unknown entry MDS"),
            "unexpected panic: {message}"
        );
        assert!(!cluster.mask_cache_armed(), "armed cache leaked");
        // A poisoned read phase applies no effects at all (all-or-
        // nothing splice): statistics saw none of the batch.
        assert_eq!(cluster.stats().lookup_latency.count(), 0);
        // The warmed per-worker arenas were restored during the unwind.
        assert!(
            !cluster.scratch.is_empty(),
            "poisoned batch dropped the walk arenas"
        );
        // The cluster (and the process-wide pool) keep serving.
        borrowed[80].0 = MdsId(0);
        let outcomes = cluster.lookup_batch_from(&borrowed);
        assert_eq!(outcomes.len(), borrowed.len());
        cluster.check_invariants().expect("invariants hold");
    }

    /// A single-group rebalance under per-group epochs invalidates only
    /// that group's masks: entries of other groups keep answering from
    /// cache, while the touched group rebuilds — and under the `Global`
    /// reference granularity the same rebalance cold-starts everything.
    #[test]
    fn rebalance_keeps_other_groups_masks_warm() {
        use crate::config::EpochGranularity;
        let build = |granularity: EpochGranularity| {
            let mut cluster =
                GhbaCluster::with_servers(batch_config().with_epoch_granularity(granularity), 15);
            for i in 0..200 {
                cluster.create_file(&format!("/w/f{i}"));
            }
            cluster.flush_all_updates();
            // Warm every entry's masks once.
            let queries: Vec<(MdsId, String)> =
                (0..15).map(|i| (MdsId(i), format!("/w/f{i}"))).collect();
            let borrowed: Vec<(MdsId, &str)> = queries
                .iter()
                .map(|(entry, path)| (*entry, path.as_str()))
                .collect();
            let _ = cluster.lookup_batch_from(&borrowed);
            cluster
        };

        let mut cluster = build(EpochGranularity::PerGroup);
        let touched = cluster.group_of(MdsId(0)).expect("grouped");
        let other_entry = cluster
            .server_ids()
            .into_iter()
            .find(|&id| cluster.group_of(id) != Some(touched))
            .expect("another group exists");
        cluster.rebalance_group(touched);
        let (hits_before, misses_before) = cluster.mask_cache_stats().lifetime();
        let _ = cluster.lookup_from(other_entry, "/w/f1");
        let (hits_after, misses_after) = cluster.mask_cache_stats().lifetime();
        assert_eq!(
            misses_after, misses_before,
            "an untouched group's masks must stay warm across the rebalance"
        );
        assert_eq!(hits_after, hits_before + 2, "L2 + L3 both hit");
        // The touched group rebuilds exactly its own entries.
        let (_, misses_before) = cluster.mask_cache_stats().lifetime();
        let _ = cluster.lookup_from(MdsId(0), "/w/f1");
        let (_, misses_after) = cluster.mask_cache_stats().lifetime();
        assert_eq!(misses_after, misses_before + 2, "L2 + L3 both rebuild");

        // Reference behaviour: a Global-granularity rebalance flushes
        // every group, so even the untouched entry misses.
        let mut cluster = build(EpochGranularity::Global);
        let touched = cluster.group_of(MdsId(0)).expect("grouped");
        let other_entry = cluster
            .server_ids()
            .into_iter()
            .find(|&id| cluster.group_of(id) != Some(touched))
            .expect("another group exists");
        cluster.rebalance_group(touched);
        let (_, misses_before) = cluster.mask_cache_stats().lifetime();
        let _ = cluster.lookup_from(other_entry, "/w/f1");
        let (_, misses_after) = cluster.mask_cache_stats().lifetime();
        assert_eq!(
            misses_after,
            misses_before + 2,
            "global granularity must cold-start every group"
        );
    }

    /// `ClusterStats` mirrors the mask-cache counters for the figure
    /// binaries, respecting `reset_stats`.
    #[test]
    fn cluster_stats_surface_mask_cache_counters() {
        let mut cluster = populated_cluster();
        cluster.reset_stats();
        let _ = cluster.lookup_from(MdsId(0), "/b/f1");
        let _ = cluster.lookup_from(MdsId(0), "/b/f2");
        let stats = cluster.stats();
        assert_eq!(stats.mask_cache_misses, 2, "first walk builds L2 + L3");
        assert_eq!(stats.mask_cache_hits, 2, "second walk answers from cache");
        let unified = cluster.mask_cache_stats();
        assert!(
            unified.lifetime_hits >= 2 && unified.lifetime_misses >= 2,
            "lifetime counters keep totals"
        );
        assert_eq!(
            (unified.window_hits, unified.window_misses),
            (stats.mask_cache_hits, stats.mask_cache_misses),
            "the unified accessor's window scope is the figure-binary view"
        );
        cluster.reset_stats();
        assert_eq!(cluster.stats().mask_cache_hits, 0);
        let after = cluster.mask_cache_stats();
        assert_eq!(
            unified.lifetime(),
            after.lifetime(),
            "reset only clears the window scope"
        );
        assert_eq!(after.window_hits, 0, "window scope resets");
    }

    /// Regression for unbounded mask-cache growth under churn: masks
    /// that stay *valid* (their group epoch never moves) but are never
    /// consulted again must still be evicted by the generation sweep.
    /// Pins the worst case — a workload that warms every entry once and
    /// then queries a single entry forever.
    #[test]
    fn generation_sweep_evicts_idle_masks() {
        let mut cluster = GhbaCluster::with_servers(batch_config(), 15);
        for i in 0..60 {
            cluster.create_file(&format!("/sweep/f{i}"));
        }
        cluster.flush_all_updates();
        // One batch warms all 15 entries' L2 masks and every group's L3
        // mask, in a single walk generation.
        let queries: Vec<(MdsId, String)> = (0..15)
            .map(|i| (MdsId(i), format!("/sweep/f{}", i)))
            .collect();
        let borrowed: Vec<(MdsId, &str)> = queries
            .iter()
            .map(|(entry, path)| (*entry, path.as_str()))
            .collect();
        let _ = cluster.lookup_batch_from(&borrowed);
        let (l2, l3) = cluster.mask_cache.len();
        assert_eq!(l2, 15, "every entry's L2 mask warmed");
        let groups = cluster.group_count();
        assert_eq!(l3, groups, "every group's L3 mask warmed");

        // The workload then drifts to a single entry; no reconfiguration
        // runs, so every warmed mask stays epoch-valid forever. Enough
        // walks to cross a sweep whose idle horizon passes the warming
        // generation.
        for _ in 0..(MaskCache::IDLE_GENERATIONS + MaskCache::SWEEP_EVERY * 2) {
            let _ = cluster.lookup_from(MdsId(0), "/sweep/f1");
        }
        let (l2, l3) = cluster.mask_cache.len();
        assert_eq!(
            (l2, l3),
            (1, 1),
            "the sweep must evict idle-but-valid masks, keeping the live entry"
        );
        assert_eq!(
            cluster.stats().mask_cache_evictions,
            (15 + groups - 2) as u64,
            "evictions surface in ClusterStats"
        );
    }

    /// A batch of `/stage/r{round}/…` creates: enough per home to ripen
    /// the staging gate of `batch_config`.
    fn create_batch(round: usize) -> OpBatch {
        let mut batch = OpBatch::new().with_entry(EntryPolicy::Random);
        for i in 0..64 {
            batch.push_create(format!("/stage/r{round}/f{i}"));
        }
        batch
    }

    /// The pin-once pipeline drops its pin before committing, so
    /// single-threaded staging always recycles the displaced slab in
    /// place and never deep-copies it.
    #[test]
    fn unpinned_staging_never_deep_copies_the_slab() {
        use crate::MetadataService;
        let mut cluster = GhbaCluster::with_servers(batch_config(), 15);
        for round in 0..8 {
            let _ = cluster.execute_concurrent(&create_batch(round));
        }
        cluster.drain_concurrent();
        assert!(cluster.stats().update_messages > 0, "creates staged");
        assert_eq!(cluster.stats().slab_spare_copies, 0);
    }

    /// A pin held across staging commits keeps the displaced snapshot
    /// alive, so the first publish falls back to a deep copy; later
    /// publishes displace unpinned snapshots and recycle in place.
    #[test]
    fn a_pin_held_across_staging_forces_exactly_one_deep_copy() {
        use crate::MetadataService;
        let mut cluster = GhbaCluster::with_servers(batch_config(), 15);
        let pin = cluster.pin_route_snapshot();
        for round in 0..4 {
            let _ = cluster.execute_concurrent(&create_batch(round));
        }
        drop(pin);
        cluster.drain_concurrent();
        assert!(cluster.stats().update_messages > 0, "creates staged");
        assert_eq!(cluster.stats().slab_spare_copies, 1);
    }
}
