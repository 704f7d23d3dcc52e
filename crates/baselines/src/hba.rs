//! HBA — Hierarchical Bloom filter Arrays (Zhu, Jiang & Wang, 2004), the
//! paper's primary baseline.
//!
//! Every MDS replicates its Bloom filter to **every** other MDS, so each
//! server holds a complete mirror: `N − 1` replicas plus its own filter,
//! plus an LRU array for hot files. Queries are two-level — L1 (LRU) then
//! the full array — with a system-wide broadcast as the fallback. The cost
//! is memory: at scale the `N − 1` replicas outgrow RAM and probes hit
//! disk, which is exactly the regime Figures 8–10 of the G-HBA paper
//! explore.

use core::time::Duration;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use ghba_bloom::{
    BloomFilter, FilterDelta, Fingerprint, Hit, ProbeBatch, SharedShapeArray, SlotMask,
};
use ghba_core::exec::{resolve_unique, run_chunked};
use ghba_core::{
    execute_vectored, execute_vectored_concurrent, published_shape, CellWriter, ClusterStats,
    ConcurrentScheme, ConcurrentStats, EntryPolicy, GhbaConfig, GroupId, LoadFold, LoadReport,
    MaskCacheLifecycle, MaskCacheStats, Mds, MdsId, MembershipEpoch, NamespaceShards, OpBatch,
    OpOutcome, OverlayEntry, PathKey, QueryLevel, QueryOutcome, ReconfigReport, SlabOp,
    SlabPublish, SlabSpare, SnapshotCell, UpdateReport, VectoredScheme, WriteKind,
};
use ghba_simnet::DetRng;

/// The immutable probe state one HBA lookup walks against: the
/// full-mirror published slab plus the membership epoch it was
/// published under. Snapshots are only ever replaced wholesale through
/// the cluster's [`SnapshotCell`], never mutated, so a pinned walk
/// probes one consistent mirror end to end while membership changes
/// publish successors.
#[derive(Debug, Clone)]
pub struct HbaSnapshot {
    /// Every server's published filter, bit-sliced for hash-once
    /// array probes; shared (not copied) by successors whose edits
    /// leave filter content alone.
    slab: Arc<SharedShapeArray<MdsId>>,
    /// The membership epoch this snapshot was published under.
    epoch: MembershipEpoch,
}

/// The cell type HBA publishes its probe snapshots through (same
/// spare-slab recycling writer state as G-HBA's routing cell).
type HbaCell = Arc<SnapshotCell<HbaSnapshot, SlabSpare>>;

/// Builds a fresh cell around `snapshot` (spare slab mirrored from it).
fn hba_cell(snapshot: HbaSnapshot) -> HbaCell {
    let spare = SlabSpare::new((*snapshot.slab).clone());
    Arc::new(SnapshotCell::new(snapshot, spare))
}

/// Publishes `work` as the successor snapshot through the spare-slab
/// recycling protocol ([`CellWriter::publish_slab`]), returning the
/// slab rows written and whether a pin on the displaced snapshot forced
/// the spare's deep copy.
fn publish_edit(
    writer: &mut CellWriter<'_, HbaSnapshot, SlabSpare>,
    work: HbaSnapshot,
    ops: &[SlabOp],
) -> SlabPublish {
    writer.publish_slab(work, ops, |snapshot| &mut snapshot.slab)
}

/// A cloneable, thread-safe handle that retires and restores servers'
/// published mirrors **concurrently with lookups** — HBA's analogue of
/// the G-HBA [`ReconfigHandle`](ghba_core::ReconfigHandle). Retiring a
/// server drops its column from the published slab (probes skip it; the
/// broadcast fallback still resolves its files), restoring pushes the
/// extracted filter back; each publishes one successor snapshot with a
/// bumped epoch, so pinned walks finish against the mirror they
/// admitted under and mask caches revalidate.
///
/// Owner pushes for a retired server (its slab column is gone) are
/// safe: `push_update` checks the published mirror under the writer
/// lock and no-ops, leaving the delta to publish after the restore.
#[derive(Debug, Clone)]
pub struct HbaReconfigHandle {
    shared: HbaCell,
}

impl HbaReconfigHandle {
    /// The membership epoch of the currently published snapshot.
    #[must_use]
    pub fn epoch(&self) -> MembershipEpoch {
        self.shared.pin().epoch
    }

    /// Drops `id`'s column from the published mirror and returns the
    /// extracted filter (hand it back to
    /// [`restore_mds`](HbaReconfigHandle::restore_mds)), or `None` if
    /// the mirror holds no such column.
    #[must_use]
    pub fn retire_mds(&self, id: MdsId) -> Option<BloomFilter> {
        let mut writer = self.shared.edit();
        let base = writer.base();
        let filter = base.slab.extract(id)?;
        let mut work = (*base).clone();
        drop(base);
        work.epoch.bump();
        publish_edit(&mut writer, work, &[SlabOp::Remove(id)]);
        Some(filter)
    }

    /// Restores a retired server's column from `filter`. Returns
    /// `false` (without publishing) when the mirror already has a
    /// column for `id`.
    pub fn restore_mds(&self, id: MdsId, filter: &BloomFilter) -> bool {
        let mut writer = self.shared.edit();
        let base = writer.base();
        if base.slab.contains_id(id) {
            return false;
        }
        let mut work = (*base).clone();
        drop(base);
        work.epoch.bump();
        publish_edit(&mut writer, work, &[SlabOp::PushFilter(id, filter.clone())]);
        true
    }
}

/// HBA's analogue of the G-HBA mask cache: the full-mirror L2 probe
/// masks out only the entry's own slot (`mask_all_except`), so the cache
/// is one mask per entry server. Lifetime follows
/// [`ghba_core::MaskCacheMode`] through the shared
/// [`MaskCacheLifecycle`] state machine: persistent entries are
/// validated lazily against the cluster's [`MembershipEpoch`] (bumped
/// by every join/leave — HBA has no groups, so the per-group refinement
/// does not apply), per-batch entries live between
/// `batch_begin`/`batch_end`, and `Off` rebuilds per walk. The entry
/// vector is sorted by server id and consulted by binary search, same
/// `O(log N)` hit path as the G-HBA cache.
#[derive(Debug, Clone, Default)]
struct HbaMaskCache {
    life: MaskCacheLifecycle,
    /// entry → its all-except-self candidate mask; sorted by entry.
    l2: Vec<(MdsId, SlotMask)>,
}

impl HbaMaskCache {
    fn clear(&mut self) {
        self.l2.clear();
    }

    /// The cached mask of `entry` (valid by construction: the lifecycle
    /// clears the cache whenever the membership epoch moves).
    fn mask(&self, entry: MdsId) -> Option<&SlotMask> {
        self.l2
            .binary_search_by_key(&entry, |(id, _)| *id)
            .ok()
            .map(|at| &self.l2[at].1)
    }
}

/// The read-phase result for one query of a batched HBA walk (see the
/// G-HBA `WalkVerdict`): outcome plus deferred counter bumps.
#[derive(Debug, Clone)]
struct WalkVerdict {
    outcome: QueryOutcome,
    l1_false: u32,
    l2_false: u32,
}

/// Reusable per-worker walk arena (probe batch, row table, verdict
/// buffers, per-query working vectors — fully re-initialized per walk,
/// so chunk walks pay no per-call allocations).
#[derive(Debug, Clone, Default)]
struct WalkScratch {
    batch: ProbeBatch,
    live_rows: Vec<u32>,
    verdicts: Vec<WalkVerdict>,
    /// Per-query resolution slots, `None` until the query's level lands.
    slots: Vec<Option<WalkVerdict>>,
    /// Per-query false-hit tallies `[l1, l2]`.
    falses: Vec<[u32; 2]>,
    latency: Vec<Duration>,
    messages: Vec<u32>,
    fps: Vec<Fingerprint>,
}

/// A simulated HBA metadata cluster (complete replica mirror per server).
///
/// Reuses the per-server state of `ghba-core` ([`Mds`]); only the
/// replication topology, query walk, and update fan-out differ from
/// G-HBA.
///
/// # Examples
///
/// ```
/// use ghba_baselines::HbaCluster;
/// use ghba_core::GhbaConfig;
///
/// let mut hba = HbaCluster::with_servers(
///     GhbaConfig::default().with_filter_capacity(1_000),
///     8,
/// );
/// let home = hba.create_file("/a/b");
/// assert_eq!(hba.lookup("/a/b").home, Some(home));
/// ```
#[derive(Debug)]
pub struct HbaCluster {
    config: GhbaConfig,
    mdss: BTreeMap<MdsId, Mds>,
    /// Every server's published snapshot, bit-sliced (HBA's full-mirror
    /// L2 probe is one hash-once query over the slab instead of `N`
    /// filter walks), published immutably together with the membership
    /// epoch: lookups pin one [`HbaSnapshot`] for a whole batch while
    /// publishes and membership changes swap in successors.
    shared: HbaCell,
    /// The one deterministic stream, shared by `&mut` and `&self` entry
    /// resolution (the concurrent pipeline draws through the lock).
    rng: Mutex<DetRng>,
    stats: ClusterStats,
    next_mds: u16,
    mask_cache: HbaMaskCache,
    shim_entry: EntryPolicy,
    /// Per-worker walk arenas (arena 0 doubles as the sequential
    /// scratch), grown lazily to the configured worker count.
    scratch: Vec<WalkScratch>,
    /// Pending writes recorded by the pin-once pipeline, replayed into
    /// `mdss` at the next `&mut` drain point.
    shards: NamespaceShards,
    /// Wait-free statistics recorders for `&self` lookups and commits,
    /// folded into `stats` at the next drain.
    cstats: ConcurrentStats,
    /// Owner-side fold of the load windows (pseudo-group 0 — HBA has no
    /// groups; see [`HbaCluster::load_report`]).
    load_fold: Mutex<LoadFold>,
}

impl Clone for HbaCluster {
    fn clone(&self) -> Self {
        // A clone gets its own publication cell (snapshots are routing
        // state, not shared between clusters), seeded from whatever this
        // cluster currently publishes.
        let snap = self.shared.pin();
        debug_assert!(
            !self.shards.is_dirty(),
            "clone with undrained concurrent writes pending"
        );
        HbaCluster {
            config: self.config.clone(),
            mdss: self.mdss.clone(),
            shared: hba_cell((*snap).clone()),
            rng: Mutex::new(self.rng.lock().expect("rng poisoned").clone()),
            stats: self.stats.clone(),
            next_mds: self.next_mds,
            mask_cache: self.mask_cache.clone(),
            shim_entry: self.shim_entry,
            scratch: self.scratch.clone(),
            shards: NamespaceShards::new(self.config.write_shards),
            cstats: ConcurrentStats::new(),
            load_fold: Mutex::new(LoadFold::new()),
        }
    }
}

impl HbaCluster {
    /// Creates an HBA cluster of `servers` MDSs.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    #[must_use]
    pub fn with_servers(config: GhbaConfig, servers: usize) -> Self {
        assert!(servers > 0, "cluster needs at least one server");
        let rng = DetRng::new(config.seed).fork(0x4BA);
        let shared = hba_cell(HbaSnapshot {
            slab: Arc::new(SharedShapeArray::new(published_shape(&config))),
            epoch: MembershipEpoch::default(),
        });
        let shards = NamespaceShards::new(config.write_shards);
        let mut cluster = HbaCluster {
            config,
            mdss: BTreeMap::new(),
            shared,
            rng: Mutex::new(rng),
            stats: ClusterStats::default(),
            next_mds: 0,
            mask_cache: HbaMaskCache::default(),
            shim_entry: EntryPolicy::Random,
            scratch: Vec::new(),
            shards,
            cstats: ConcurrentStats::new(),
            load_fold: Mutex::new(LoadFold::new()),
        };
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

    /// Number of servers.
    #[must_use]
    pub fn server_count(&self) -> usize {
        self.mdss.len()
    }

    /// All server ids, ascending.
    #[must_use]
    pub fn server_ids(&self) -> Vec<MdsId> {
        self.mdss.keys().copied().collect()
    }

    /// Lifetime statistics.
    #[must_use]
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// The current membership epoch (bumped by every join/leave and by
    /// every handle-driven retire/restore).
    #[must_use]
    pub fn membership_epoch(&self) -> MembershipEpoch {
        self.shared.pin().epoch
    }

    /// A cloneable handle that retires/restores published mirrors
    /// concurrently with lookups (see [`HbaReconfigHandle`]).
    #[must_use]
    pub fn reconfig_handle(&self) -> HbaReconfigHandle {
        HbaReconfigHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Publishes a successor snapshot applying `ops` to the mirror,
    /// bumping the membership epoch when `bump` is set.
    fn publish_ops(&self, bump: bool, ops: &[SlabOp]) {
        let mut writer = self.shared.edit();
        let mut work = (*writer.base()).clone();
        if bump {
            work.epoch.bump();
        }
        self.cstats
            .record_slab_publish(publish_edit(&mut writer, work, ops));
    }

    /// L2 mask-cache accounting, both scopes (same unified accessor
    /// shape as `GhbaCluster::mask_cache_stats`).
    #[must_use]
    pub fn mask_cache_stats(&self) -> MaskCacheStats {
        MaskCacheStats::assemble(
            self.mask_cache.life.stats(),
            (self.stats.mask_cache_hits, self.stats.mask_cache_misses),
            self.cstats.pending_mask(),
        )
    }

    /// The HBA mirror of `GhbaCluster::load_report`: HBA has no groups,
    /// so every server reports under the pseudo-group `GroupId(0)` —
    /// one row whose share is 1.0 by construction, with real member
    /// imbalance, escalation, false-hit, and mask rates. Lets the same
    /// telemetry consumers (dashboards, the adaptive bench's baseline
    /// arm) read both systems through one type.
    #[must_use]
    pub fn load_report(&self) -> LoadReport {
        let shape = vec![(GroupId(0), self.server_ids())];
        let mut fold = self.load_fold.lock().expect("load fold poisoned");
        let fresh = fold.close_window(&self.cstats);
        fold.report(self.shared.pin().epoch, fresh, &shape)
    }

    /// Clears statistics (draining pending concurrent state first, so
    /// discarded accounting never resurfaces as effects).
    pub fn reset_stats(&mut self) {
        self.maybe_drain();
        self.stats = ClusterStats::default();
    }

    /// Total files homed across the cluster.
    #[must_use]
    pub fn total_files(&self) -> usize {
        self.mdss.values().map(Mds::file_count).sum()
    }

    /// Ground-truth home of `path`.
    #[must_use]
    pub fn true_home(&self, path: &str) -> Option<MdsId> {
        self.mdss
            .iter()
            .find(|(_, mds)| mds.stores(path))
            .map(|(&id, _)| id)
    }

    fn pick_random_mds(&self) -> MdsId {
        let ids = self.server_ids();
        *self
            .rng
            .lock()
            .expect("rng poisoned")
            .choose(&ids)
            .expect("non-empty cluster")
    }

    /// Resolves the serving MDS for op `op_index` of a batch under
    /// `policy` (same contract as G-HBA's resolver; the deterministic
    /// policies defer to [`EntryPolicy::resolve_deterministic`]).
    /// Callable from `&self` — the concurrent pipeline draws entries
    /// through the rng lock.
    fn entry_for(&self, policy: EntryPolicy, op_index: usize) -> MdsId {
        if policy == EntryPolicy::Random {
            return self.pick_random_mds();
        }
        policy
            .resolve_deterministic(&self.server_ids(), op_index)
            .expect("non-random policy resolves deterministically")
    }

    fn refresh_replica_charges(&mut self) {
        let held = self.mdss.len().saturating_sub(1);
        for mds in self.mdss.values_mut() {
            mds.set_replica_charge(held);
        }
    }

    /// Adds a server: in HBA the newcomer receives **all `N` existing
    /// replicas** (to hold the full mirror) and broadcasts its own filter
    /// to everyone — the cost Figure 11/15 contrasts with G-HBA.
    pub fn add_mds(&mut self) -> MdsId {
        self.add_mds_reported().0
    }

    /// Like [`add_mds`](HbaCluster::add_mds) with a cost report.
    pub fn add_mds_reported(&mut self) -> (MdsId, ReconfigReport) {
        self.maybe_drain();
        let id = MdsId(self.next_mds);
        self.next_mds += 1;
        let existing = self.mdss.len() as u64;
        self.mdss.insert(id, Mds::new(id, &self.config));
        // One successor snapshot: the newcomer's column and the epoch
        // bump land atomically for concurrent readers.
        self.publish_ops(true, &[SlabOp::Push(id)]);
        let report = ReconfigReport {
            // The newcomer pulls every existing filter…
            migrated_replicas: existing,
            // …one transfer message each, plus broadcasting its own filter
            // to every existing server.
            messages: existing * 2,
            ..ReconfigReport::default()
        };
        self.refresh_replica_charges();
        self.stats.migrated_replicas += report.migrated_replicas;
        self.stats.reconfig_messages += report.messages;
        (id, report)
    }

    /// Removes a server, re-homing its files to the least-loaded peer and
    /// notifying everyone to drop its replica.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or is the last server.
    pub fn remove_mds(&mut self, id: MdsId) -> ReconfigReport {
        assert!(self.mdss.contains_key(&id), "unknown server");
        assert!(self.mdss.len() > 1, "cannot remove the last server");
        self.maybe_drain();
        let files = self.mdss.get_mut(&id).expect("exists").evacuate();
        let mut report = ReconfigReport {
            rehomed_files: files.len() as u64,
            messages: files.len() as u64,
            ..ReconfigReport::default()
        };
        self.mdss.remove(&id);
        // One successor snapshot: column drop + epoch bump together.
        self.publish_ops(true, &[SlabOp::Remove(id)]);
        if !files.is_empty() {
            let target = *self
                .mdss
                .iter()
                .min_by_key(|(&mid, mds)| (mds.file_count(), mid))
                .map(|(id, _)| id)
                .expect("non-empty");
            let target_mds = self.mdss.get_mut(&target).expect("target");
            for path in &files {
                target_mds.create_local(path);
            }
            let update = self.push_update(target);
            report.messages += update.messages;
        }
        // Drop notices to every remaining server.
        report.messages += self.mdss.len() as u64;
        for mds in self.mdss.values_mut() {
            if let Some(lru) = mds.lru_mut() {
                lru.purge_home(id);
            }
        }
        self.refresh_replica_charges();
        self.stats.migrated_replicas += report.migrated_replicas;
        self.stats.reconfig_messages += report.messages;
        report
    }

    /// Creates metadata for `path` at a random home.
    pub fn create_file(&mut self, path: &str) -> MdsId {
        let home = self.pick_random_mds();
        self.create_file_at(path, home);
        home
    }

    /// Creates metadata for `path` at `home`.
    ///
    /// # Panics
    ///
    /// Panics if `home` is unknown.
    pub fn create_file_at(&mut self, path: &str, home: MdsId) {
        self.maybe_drain();
        self.mdss
            .get_mut(&home)
            .expect("home exists")
            .create_local(path);
        self.maybe_publish(home);
    }

    /// Pre-hashed variant of [`create_file_at`](HbaCluster::create_file_at)
    /// for the batched op pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `home` is unknown.
    pub fn create_file_keyed(&mut self, key: &PathKey, home: MdsId) {
        self.maybe_drain();
        self.mdss
            .get_mut(&home)
            .expect("home exists")
            .create_local_fp(key.path(), key.fingerprint());
        self.maybe_publish(home);
    }

    /// Removes `path` from its home.
    pub fn remove_file(&mut self, path: &str) -> Option<MdsId> {
        self.maybe_drain();
        let home = self.true_home(path)?;
        self.mdss.get_mut(&home).expect("exists").remove_local(path);
        self.maybe_publish(home);
        Some(home)
    }

    /// Pre-hashed variant of [`remove_file`](HbaCluster::remove_file).
    pub fn remove_file_keyed(&mut self, key: &PathKey) -> Option<MdsId> {
        self.maybe_drain();
        let home = self.true_home(key.path())?;
        self.mdss
            .get_mut(&home)
            .expect("exists")
            .remove_local_fp(key.path(), key.fingerprint());
        self.maybe_publish(home);
        Some(home)
    }

    fn maybe_publish(&mut self, origin: MdsId) -> Option<UpdateReport> {
        // The exact O(m) drift distance runs at the gated cadence, not on
        // every mutation once past the publish gate (same protocol as
        // G-HBA's `maybe_publish`, so the baseline comparison stays fair).
        let threshold = self.config.update_threshold_bits;
        let gate = self.config.publish_gate();
        let exceeded = self.mdss.get_mut(&origin)?.drift_exceeds(gate, threshold)?;
        self.stats.counters.incr("drift_exact_checks");
        if exceeded {
            Some(self.push_update(origin))
        } else {
            None
        }
    }

    /// Pushes `origin`'s filter refresh to **all** other servers — HBA's
    /// system-wide broadcast, the Figure 12 contrast to G-HBA's
    /// one-per-group.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is unknown.
    pub fn push_update(&mut self, origin: MdsId) -> UpdateReport {
        self.maybe_drain();
        // Take the writer lock *before* consuming the delta, so a
        // concurrent [`HbaReconfigHandle::retire_mds`] cannot drop
        // `origin`'s column between the check and the publish.
        let mut writer = self.shared.edit();
        if !writer.base().slab.contains_id(origin) {
            // `origin` is retired: its mirror column is extracted, so
            // there is nothing to refresh. Leave the delta unconsumed —
            // the server's publish baseline stays the filter
            // `retire_mds` extracted, so the first push after a restore
            // folds the accumulated drift into the restored column.
            return UpdateReport::default();
        }
        let mds = self.mdss.get_mut(&origin).expect("origin");
        let delta = match mds.publish() {
            Some(delta) => delta,
            None => return UpdateReport::default(),
        };
        // Sparse dirty-row application: cost scales with the delta, not
        // with the O(m) filter width. No epoch bump: a publish refreshes
        // filter *content* under the same membership, so cached masks
        // stay valid and pinned walks keep probing the bits they
        // admitted against.
        let work = (*writer.base()).clone();
        let publish = publish_edit(&mut writer, work, &[SlabOp::Delta(origin, delta.clone())]);
        self.stats.record_slab_publish(publish);
        drop(writer);
        let recipients = self.mdss.len().saturating_sub(1);
        let report = UpdateReport {
            messages: recipients as u64,
            bytes: delta.wire_bytes() as u64 * recipients as u64,
            latency: self.config.latency.multicast_rtt(recipients),
            refreshed: true,
        };
        self.stats.update_messages += report.messages;
        self.stats.update_bytes += report.bytes;
        self.stats.update_latency.record(report.latency);
        report
    }

    /// Forces a refresh for every server.
    pub fn flush_all_updates(&mut self) {
        for id in self.server_ids() {
            let _ = self.push_update(id);
        }
    }

    /// Looks `path` up from a random entry server.
    pub fn lookup(&mut self, path: &str) -> QueryOutcome {
        let entry = self.pick_random_mds();
        self.lookup_from(entry, path)
    }

    /// The HBA query walk: L1 LRU → full replica array → broadcast.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is unknown.
    pub fn lookup_from(&mut self, entry: MdsId, path: &str) -> QueryOutcome {
        self.maybe_drain();
        let fp = Fingerprint::of(path);
        let snap = self.shared.pin();
        self.lookup_one(&snap, entry, path, &fp)
    }

    /// Looks up a batch of paths, each from a random entry server.
    pub fn lookup_batch<S: AsRef<str>>(&mut self, paths: &[S]) -> Vec<QueryOutcome> {
        let queries: Vec<(MdsId, &str)> = paths
            .iter()
            .map(|path| (self.pick_random_mds(), path.as_ref()))
            .collect();
        self.lookup_batch_from(&queries)
    }

    /// Resolves a batch of concurrent lookups level by level: every query
    /// past L1 joins one [`ProbeBatch`] against the full-mirror published
    /// slab, so HBA amortizes row loads across the batch exactly like
    /// G-HBA (the fair-comparison requirement).
    ///
    /// # Panics
    ///
    /// Panics if any entry is unknown.
    pub fn lookup_batch_from(&mut self, queries: &[(MdsId, &str)]) -> Vec<QueryOutcome> {
        // Hash once; every level reuses the fingerprint.
        let prehashed: Vec<(MdsId, &str, Fingerprint)> = queries
            .iter()
            .map(|&(entry, path)| (entry, path, Fingerprint::of(path)))
            .collect();
        self.lookup_batch_prehashed(&prehashed)
    }

    /// The batched walk behind [`lookup_batch_from`], taking queries whose
    /// fingerprints were already computed at batch admission.
    ///
    /// Same three-phase execution as the G-HBA walk: masks prepare on
    /// the dispatching thread, the read phase splits into per-worker
    /// chunks (when `executor.workers > 1` and the batch reaches
    /// `executor.min_parallel_batch`) that walk the full-mirror slab
    /// read-only, and verdicts splice back in stream order —
    /// bit-identical to `workers = 1` at every worker count
    /// (property-tested; the fair-comparison requirement).
    ///
    /// # Panics
    ///
    /// Panics if any entry is unknown.
    ///
    /// [`lookup_batch_from`]: HbaCluster::lookup_batch_from
    fn lookup_batch_prehashed(
        &mut self,
        queries: &[(MdsId, &str, Fingerprint)],
    ) -> Vec<QueryOutcome> {
        let total = queries.len();
        if total == 0 {
            return Vec::new();
        }
        self.maybe_drain();
        // Pin one probe snapshot for the whole batch: every query —
        // across every worker chunk — probes this one consistent mirror,
        // however many publishes land while the walk runs.
        let snap = self.shared.pin();
        if total == 1 {
            // The scratch-reusing scalar fast path (no batch plumbing).
            let (entry, path, fp) = queries[0];
            return vec![self.lookup_one(&snap, entry, path, &fp)];
        }
        self.prepare_masks(&snap, queries);
        // Cross-chunk fingerprint dedup, same contract as the G-HBA
        // walk: the read phase is a pure function of `(entry, path)`
        // under the pinned snapshot, so each distinct pair walks once
        // and duplicates share the verdict — effects still apply once
        // per occurrence, in stream order.
        let (uniques, assign) = resolve_unique(queries, |&(entry, path, _)| (entry, path));
        let deduped: Vec<(MdsId, &str, Fingerprint)> = uniques
            .iter()
            .map(|&first| queries[first as usize])
            .collect();
        let executor = self.config.executor;
        let mut arenas = core::mem::take(&mut self.scratch);
        let walked = {
            let shared: &HbaCluster = self;
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
            // Load mirror: one record per occurrence, pseudo-group 0.
            self.cstats.record_group_walk(
                GroupId(0),
                entry,
                verdict.outcome.level,
                u64::from(verdict.l1_false) + u64::from(verdict.l2_false),
            );
            outcomes.push(self.apply_verdict(&fp, verdict));
        }
        self.scratch = arenas;
        outcomes
    }

    /// Validates (or rebuilds) the all-except-self masks of the batch's
    /// entry servers on the dispatching thread; the (possibly parallel)
    /// read phase then consults the cache strictly read-only.
    fn prepare_masks(&mut self, snap: &HbaSnapshot, queries: &[(MdsId, &str, Fingerprint)]) {
        if self
            .mask_cache
            .life
            .begin_walk(self.config.mask_cache, snap.epoch)
        {
            self.mask_cache.clear();
        }
        for &(entry, _, _) in queries {
            // Unknown entries panic inside the walk itself.
            if !self.mdss.contains_key(&entry) {
                continue;
            }
            match self
                .mask_cache
                .l2
                .binary_search_by_key(&entry, |(id, _)| *id)
            {
                Ok(_) => {
                    self.mask_cache.life.hit();
                    self.stats.mask_cache_hits += 1;
                    self.cstats.record_group_mask(GroupId(0), true);
                }
                Err(at) => {
                    self.mask_cache.life.miss();
                    self.stats.mask_cache_misses += 1;
                    self.cstats.record_group_mask(GroupId(0), false);
                    let mask = snap.slab.mask_all_except(entry);
                    self.mask_cache.l2.insert(at, (entry, mask));
                }
            }
        }
    }

    /// Resolves one chunk of a batched walk **read-only** (L1 → full
    /// mirror → broadcast, one slab pass per level across the chunk),
    /// deferring every side effect into `scratch.verdicts`.
    ///
    /// # Panics
    ///
    /// Panics if any entry is unknown.
    fn walk_chunk(
        &self,
        snap: &HbaSnapshot,
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
        falses.resize(total, [0; 2]);
        latency.clear();
        latency.resize(total, model.dispatch);
        messages.clear();
        messages.resize(total, 0);
        fps.clear();
        fps.extend(queries.iter().map(|&(_, _, fp)| fp));
        // One live-filter row table for the whole chunk (entry probes at
        // L2, every server's probe in the broadcast fallback), derived
        // through the ProbeBatch fastmod machinery.
        let live_shape = published_shape(&self.config);
        let k_live = live_shape.hashes as usize;
        batch.clear();
        for fp in fps.iter() {
            batch.push(*fp);
        }
        batch.derive_rows_into(live_shape, live_rows);
        let mut active: Vec<usize> = Vec::with_capacity(total);

        // L1: each entry server's LRU array.
        for (qi, &(entry, path, _)) in queries.iter().enumerate() {
            assert!(self.mdss.contains_key(&entry), "unknown entry MDS");
            let fp = fps[qi];
            let l1_hit = self
                .mdss
                .get(&entry)
                .and_then(Mds::lru)
                .map(|lru| lru.query_fp(&fp));
            if let Some(Hit::Unique(candidate)) = l1_hit {
                latency[qi] += model.memory_probe;
                if let Some(home) =
                    self.verify_at(candidate, entry, path, &mut latency[qi], &mut messages[qi])
                {
                    slots[qi] = Some(self.assemble(
                        snap.epoch,
                        entry,
                        home,
                        QueryLevel::L1Lru,
                        latency[qi],
                        messages[qi],
                        falses[qi],
                    ));
                    continue;
                }
                falses[qi][0] += 1;
            } else if l1_hit.is_some() {
                latency[qi] += model.memory_probe;
            }
            active.push(qi);
        }

        // L2: the complete replica array (N − 1 replicas + own filter) —
        // one batched bit-sliced pass over the published slab for the
        // whole chunk, plus each entry's fresher live filter in place of
        // its own published snapshot.
        batch.clear();
        for &qi in &active {
            let (entry, _, _) = queries[qi];
            let mask = self.mask_cache.mask(entry).expect("mask prepared");
            let held = self.mdss.len() - 1;
            let entry_mds = &self.mdss[&entry];
            let resident = entry_mds.resident_replicas(held);
            latency[qi] += model.array_probe(held + 1, held - resident);
            batch.push_masked(fps[qi], mask.clone());
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
                        snap.epoch,
                        entry,
                        home,
                        QueryLevel::L2Segment,
                        latency[qi],
                        messages[qi],
                        falses[qi],
                    ));
                    continue;
                }
                falses[qi][1] += 1;
            }
            next_active.push(qi);
        }
        let active = next_active;

        // Fallback: system-wide broadcast (authoritative); recipients'
        // live probes reuse the chunk's precomputed row table.
        for &qi in &active {
            let (entry, path, _) = queries[qi];
            let rows = &live_rows[qi * k_live..(qi + 1) * k_live];
            let others = self.mdss.len() - 1;
            messages[qi] += 2 * others as u32;
            latency[qi] += model.multicast_rtt(others) + model.memory_probe;
            let mut found = None;
            let mut verify_cost = Duration::ZERO;
            for (&id, mds) in &self.mdss {
                if mds.probe_live_rows(rows) {
                    verify_cost = verify_cost.max(mds.metadata_access_cost(&model));
                    if mds.stores(path) {
                        found = Some(id);
                    }
                }
            }
            latency[qi] += verify_cost;
            slots[qi] = Some(match found {
                Some(home) => self.assemble(
                    snap.epoch,
                    entry,
                    home,
                    QueryLevel::L4Global,
                    latency[qi],
                    messages[qi],
                    falses[qi],
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
                    }
                }
            });
        }

        batch.clear();
        live_rows.clear();
        verdicts.extend(
            slots
                .drain(..)
                .map(|slot| slot.expect("every query resolved by the broadcast")),
        );
    }

    /// Builds a resolved query's verdict (contention applied, pinned
    /// epoch stamped). Pure.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        &self,
        epoch: MembershipEpoch,
        entry: MdsId,
        home: MdsId,
        level: QueryLevel,
        latency: Duration,
        messages: u32,
        falses: [u32; 2],
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
        }
    }

    /// Applies one verdict's deferred effects in stream order (counter
    /// bumps, the LRU fill, statistics) and returns the outcome.
    fn apply_verdict(&mut self, fp: &Fingerprint, verdict: WalkVerdict) -> QueryOutcome {
        let WalkVerdict {
            outcome,
            l1_false,
            l2_false,
        } = verdict;
        for (label, count) in [("l1_false_hits", l1_false), ("l2_false_hits", l2_false)] {
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
        mds.stores(path).then_some(candidate)
    }

    /// The scratch-reusing scalar walk behind single-query lookups
    /// (`B = 1` batches and [`lookup_from`](HbaCluster::lookup_from)):
    /// the same L1 → full mirror → broadcast escalation as
    /// [`walk_chunk`](HbaCluster::walk_chunk), minus the batch plumbing
    /// (no [`ProbeBatch`] assembly, no row-table derivation, no verdict
    /// buffers). Per-query accounting is bit-identical to the batched
    /// walk (property-tested).
    ///
    /// # Panics
    ///
    /// Panics if `entry` is unknown.
    fn lookup_one(
        &mut self,
        snap: &HbaSnapshot,
        entry: MdsId,
        path: &str,
        fp: &Fingerprint,
    ) -> QueryOutcome {
        assert!(self.mdss.contains_key(&entry), "unknown entry MDS");
        self.prepare_masks(snap, &[(entry, path, *fp)]);
        let model = self.config.latency.clone();
        let mut latency = model.dispatch;
        let mut messages = 0u32;
        let mut group_falses = 0u64;

        // L1: the entry server's LRU array.
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
                    self.cstats.record_group_walk(
                        GroupId(0),
                        entry,
                        QueryLevel::L1Lru,
                        group_falses,
                    );
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

        // L2: the complete replica array, plus the entry's fresher live
        // filter in place of its own published snapshot.
        let held = self.mdss.len() - 1;
        let hit = {
            let mask = self.mask_cache.mask(entry).expect("mask prepared");
            snap.slab.query_fp_masked(fp, mask)
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
                self.cstats.record_group_walk(
                    GroupId(0),
                    entry,
                    QueryLevel::L2Segment,
                    group_falses,
                );
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

        // Fallback: system-wide broadcast (authoritative).
        let others = self.mdss.len() - 1;
        messages += 2 * others as u32;
        latency += model.multicast_rtt(others) + model.memory_probe;
        let mut found = None;
        let mut verify_cost = Duration::ZERO;
        for (&id, mds) in &self.mdss {
            if mds.probe_live_fp(fp) {
                verify_cost = verify_cost.max(mds.metadata_access_cost(&model));
                if mds.stores(path) {
                    found = Some(id);
                }
            }
        }
        latency += verify_cost;
        self.cstats.record_group_walk(
            GroupId(0),
            entry,
            match found {
                Some(_) => QueryLevel::L4Global,
                None => QueryLevel::Nonexistent,
            },
            group_falses,
        );
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

    /// Records a successful scalar lookup (LRU fill, level counters,
    /// contention inflation) — the same effects
    /// [`apply_verdict`](HbaCluster::apply_verdict) applies when
    /// splicing a batched walk.
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

    /// A lookup through `&self`, safe to call from many threads at once
    /// — and concurrently with an [`HbaReconfigHandle`] retiring and
    /// restoring mirrors: the walk pins one snapshot and probes it end
    /// to end, builds its all-except-self mask on the fly from the
    /// pinned slab, observes this era's pending concurrent writes
    /// through the namespace-shard overlay, and records level/latency
    /// statistics into wait-free atomic counters (folded at the next
    /// `&mut` drain). Fills no LRU; latency and message accounting are
    /// otherwise identical to [`lookup_from`](HbaCluster::lookup_from).
    ///
    /// # Panics
    ///
    /// Panics if `entry` is unknown.
    #[must_use]
    pub fn lookup_concurrent(&self, entry: MdsId, path: &str) -> QueryOutcome {
        let fp = Fingerprint::of(path);
        let snap = self.shared.pin();
        let mut memo = HashMap::new();
        self.walk_pinned(&snap, entry, path, &fp, &mut memo)
    }

    /// Whether `candidate`'s live filter probes positive for `fp`,
    /// overlaid with this era's pending writes (see the G-HBA
    /// counterpart: pending creates probe positive at their recorded
    /// home; pending removes stay visible until the drain).
    fn probe_live_pinned(&self, candidate: MdsId, fp: &Fingerprint, overlay: OverlayEntry) -> bool {
        if overlay == OverlayEntry::Created(candidate) {
            return true;
        }
        self.mdss[&candidate].probe_live_fp(fp)
    }

    /// [`verify_at`](HbaCluster::verify_at) overlaid with this era's
    /// pending writes.
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

    /// Finishes a pinned walk: contention inflation, pinned epoch, and
    /// the atomic statistics the drain later folds.
    #[allow(clippy::too_many_arguments)]
    fn finish_pinned(
        &self,
        epoch: MembershipEpoch,
        entry: MdsId,
        home: Option<MdsId>,
        level: QueryLevel,
        latency: Duration,
        messages: u32,
        falses: [u64; 2],
    ) -> QueryOutcome {
        let outcome = self.readonly_outcome(epoch, entry, home, level, latency, messages);
        self.cstats.record_lookup(outcome.level, outcome.latency);
        self.cstats.record_false_hits(falses[0], falses[1], 0, 0);
        // Load mirror: HBA has no groups — everything reports under the
        // pseudo-group 0 (see `load_report`).
        self.cstats
            .record_group_walk(GroupId(0), entry, outcome.level, falses.iter().sum());
        outcome
    }

    /// The L1 → full mirror → broadcast escalation of one query against
    /// a pinned snapshot, from `&self` (the read engine of
    /// [`lookup_concurrent`](HbaCluster::lookup_concurrent) and of the
    /// pin-once batch pipeline). `memo` caches the all-except-self L2
    /// masks for the caller's chosen scope; memo traffic feeds the
    /// shared mask-cache hit/miss accounting.
    fn walk_pinned(
        &self,
        snap: &HbaSnapshot,
        entry: MdsId,
        path: &str,
        fp: &Fingerprint,
        memo: &mut HashMap<MdsId, SlotMask>,
    ) -> QueryOutcome {
        assert!(self.mdss.contains_key(&entry), "unknown entry MDS");
        let overlay = self.shards.overlay_keyed(path, fp);
        let model = self.config.latency.clone();
        let mut latency = model.dispatch;
        let mut messages = 0u32;
        let mut falses = [0u64; 2];

        // L1: the entry server's LRU array (probe only; no fill).
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

        // L2: the complete replica array under the pinned mirror.
        let held = self.mdss.len() - 1;
        if let std::collections::hash_map::Entry::Vacant(slot) = memo.entry(entry) {
            self.cstats.record_mask(false);
            self.cstats.record_group_mask(GroupId(0), false);
            slot.insert(snap.slab.mask_all_except(entry));
        } else {
            self.cstats.record_mask(true);
            self.cstats.record_group_mask(GroupId(0), true);
        }
        let mask = memo.get(&entry).expect("just ensured");
        let hit = snap.slab.query_fp_masked(fp, mask);
        let resident = self.mdss[&entry].resident_replicas(held);
        latency += model.array_probe(held + 1, held - resident);
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

        // Fallback: system-wide broadcast (authoritative).
        let others = self.mdss.len() - 1;
        messages += 2 * others as u32;
        latency += model.multicast_rtt(others) + model.memory_probe;
        let mut found = None;
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
                }
            }
        }
        latency += verify_cost;
        let level = match found {
            Some(_) => QueryLevel::L4Global,
            None => QueryLevel::Nonexistent,
        };
        self.finish_pinned(snap.epoch, entry, found, level, latency, messages, falses)
    }

    /// Resolves a fused run of lookups against a pinned snapshot from
    /// `&self`: cross-chunk dedup, chunked pinned walks across the exec
    /// pool, outcomes spliced back in stream order (the concurrent
    /// counterpart of
    /// [`lookup_batch_prehashed`](HbaCluster::lookup_batch_prehashed)).
    fn fused_pinned(&self, snap: &HbaSnapshot, queries: &[(MdsId, &PathKey)]) -> Vec<QueryOutcome> {
        if queries.is_empty() {
            return Vec::new();
        }
        let items: Vec<(MdsId, &str, Fingerprint)> = queries
            .iter()
            .map(|&(entry, key)| (entry, key.path(), *key.fingerprint()))
            .collect();
        if items.len() == 1 {
            let (entry, path, fp) = items[0];
            let mut memo = HashMap::new();
            return vec![self.walk_pinned(snap, entry, path, &fp, &mut memo)];
        }
        let (uniques, assign) = resolve_unique(&items, |&(entry, path, _)| (entry, path));
        let deduped: Vec<(MdsId, &str, Fingerprint)> =
            uniques.iter().map(|&first| items[first as usize]).collect();
        #[derive(Default)]
        struct PinArena {
            outcomes: Vec<QueryOutcome>,
            memo: HashMap<MdsId, SlotMask>,
        }
        let mut arenas: Vec<PinArena> = Vec::new();
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

    /// Records a pending create from `&self` (the pin-once write
    /// primitive); the store and live filter are touched at drain time.
    fn apply_create_shared(&self, key: &PathKey, home: MdsId) {
        debug_assert!(self.mdss.contains_key(&home), "home must exist");
        self.shards.record_create(key, home);
    }

    /// Records a pending removal from `&self`, resolving the victim's
    /// home through the overlay first, the authoritative stores second.
    fn apply_remove_shared(&self, key: &PathKey) -> Option<MdsId> {
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

    /// Folds this era's pending create bits into the published mirror:
    /// one staging pass under the cell's writer lock, one delta per
    /// touched home, one snapshot publish — HBA's broadcast-to-everyone
    /// replica-update traffic accounted per staged home. Touched homes
    /// are marked for the drain to reconcile their server-side
    /// published filters. Each delta comes from the pending
    /// fingerprints' probe rows
    /// ([`SharedShapeArray::insert_delta`]), so staging costs
    /// `O(fingerprints × hashes)` and the publish `O(changed bits)`,
    /// like G-HBA's.
    ///
    /// Staging runs at the sequential publish cadence, not per batch: a
    /// home's creates accumulate in its staging buffer (every walk sees
    /// them through the overlay) until enough are pending to plausibly
    /// cross the drift threshold, so a typical batch pays one atomic
    /// load here and never touches the writer lock.
    fn commit_concurrent(&self) {
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
        // The writer lock serializes staging with every other publisher
        // (owner pushes, retire/restore handles), so each delta applies
        // to exactly the columns it was computed against.
        let mut writer = self.shared.edit();
        let work = (*writer.base()).clone();
        let recipients = self.mdss.len().saturating_sub(1);
        let mut ops: Vec<SlabOp> = Vec::new();
        let mut staged: Vec<MdsId> = Vec::new();
        for (home, fps) in pending {
            // Absent column ⇒ the home is retired; its creates wait in
            // the shard log for the owner drain.
            let Ok(delta) = work.slab.insert_delta(home, &fps) else {
                continue;
            };
            if delta.is_empty() {
                continue;
            }
            if recipients > 0 {
                self.cstats.record_update(
                    recipients as u64,
                    delta.wire_bytes() as u64 * recipients as u64,
                    model.multicast_rtt(recipients),
                );
            }
            staged.push(home);
            ops.push(SlabOp::Delta(home, delta));
        }
        if !ops.is_empty() {
            self.cstats
                .record_slab_publish(publish_edit(&mut writer, work, &ops));
        }
        drop(writer);
        if !staged.is_empty() {
            self.shards.mark_staged(staged);
        }
    }

    /// Drains pending concurrent state if any exists (the cheap gate
    /// every `&mut` entry point passes through).
    fn maybe_drain(&mut self) {
        if self.shards.is_dirty() || self.cstats.is_dirty() {
            self.drain_concurrent();
        }
    }

    /// Reconciles everything the `&self` pipeline deferred: folds the
    /// atomic statistics, replays the shard write logs against the
    /// authoritative stores and live filters, and syncs each staged
    /// home's server-side published filter with its mirror column.
    /// Runs automatically at every `&mut` entry point; call explicitly
    /// before inspecting state through `&self` views
    /// ([`true_home`](HbaCluster::true_home),
    /// [`total_files`](HbaCluster::total_files)) after concurrent
    /// batches.
    pub fn drain_concurrent(&mut self) {
        let (hits, misses) = self.cstats.fold_into(&mut self.stats);
        self.mask_cache.life.absorb(hits, misses);
        if !self.shards.is_dirty() {
            return;
        }
        let (records, staged) = self.shards.take_all();
        for record in &records {
            match record.kind {
                WriteKind::Create(home) => {
                    self.mdss
                        .get_mut(&home)
                        .expect("pending create targets a live home")
                        .create_local_fp(&record.path, &record.fp);
                }
                WriteKind::Remove(home) => {
                    if let Some(mds) = self.mdss.get_mut(&home) {
                        mds.remove_local_fp(&record.path, &record.fp);
                    }
                }
            }
        }
        if !staged.is_empty() {
            let mut writer = self.shared.edit();
            let work = (*writer.base()).clone();
            let mut ops: Vec<SlabOp> = Vec::new();
            for &home in &staged {
                let Some(mds) = self.mdss.get_mut(&home) else {
                    continue;
                };
                let _ = mds.publish();
                let Some(column) = work.slab.extract(home) else {
                    continue;
                };
                if let Ok(delta) = FilterDelta::between(&column, mds.published()) {
                    if !delta.is_empty() {
                        ops.push(SlabOp::Delta(home, delta));
                    }
                }
            }
            if !ops.is_empty() {
                let publish = publish_edit(&mut writer, work, &ops);
                self.stats.record_slab_publish(publish);
            }
        }
    }

    /// Finishes a side-effect-free lookup: applies the contention
    /// inflation and stamps the pinned epoch, touching no statistics
    /// and no caches.
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

    /// Per-MDS filter memory: own filter + LRU + `N − 1` replicas.
    #[must_use]
    pub fn filter_memory_bytes(&self, id: MdsId) -> usize {
        let held = self.mdss.len().saturating_sub(1);
        self.mdss
            .get(&id)
            .map_or(0, |mds| mds.filter_memory_bytes(held))
    }
}

impl VectoredScheme for HbaCluster {
    fn resolve_entry(&mut self, policy: EntryPolicy, op_index: usize) -> MdsId {
        self.entry_for(policy, op_index)
    }

    fn repeat_sensitive(&self) -> bool {
        // No LRU level ⇒ no per-entry fill a repeat could observe (this
        // is every BFA, which runs with `lru_capacity = 0`).
        self.config().lru_capacity > 0
    }

    fn batch_begin(&mut self) {
        self.maybe_drain();
        if self.mask_cache.life.arm(self.config.mask_cache) {
            self.mask_cache.clear();
        }
    }

    fn batch_end(&mut self) {
        if self.mask_cache.life.disarm(self.config.mask_cache) {
            self.mask_cache.clear();
        }
    }

    fn lookup_fused(&mut self, queries: &[(MdsId, &PathKey)]) -> Vec<QueryOutcome> {
        let prehashed: Vec<(MdsId, &str, Fingerprint)> = queries
            .iter()
            .map(|&(entry, key)| (entry, key.path(), *key.fingerprint()))
            .collect();
        self.lookup_batch_prehashed(&prehashed)
    }

    fn apply_create(&mut self, key: &PathKey, home: MdsId) {
        self.create_file_keyed(key, home);
    }

    fn apply_remove(&mut self, key: &PathKey) -> Option<MdsId> {
        self.remove_file_keyed(key)
    }
}

impl ConcurrentScheme for HbaCluster {
    /// An owned pin on the published mirror: lock-free to take, valid
    /// across successor publishes, never blocks a publisher while held.
    type Pinned = Arc<HbaSnapshot>;

    fn pin_batch(&self) -> Self::Pinned {
        self.shared.pin()
    }

    fn resolve_entry_concurrent(&self, policy: EntryPolicy, op_index: usize) -> MdsId {
        self.entry_for(policy, op_index)
    }

    fn lookup_fused_pinned(
        &self,
        pinned: &Self::Pinned,
        queries: &[(MdsId, &PathKey)],
    ) -> Vec<QueryOutcome> {
        self.fused_pinned(pinned, queries)
    }

    fn apply_create_concurrent(&self, key: &PathKey, home: MdsId) {
        self.apply_create_shared(key, home);
    }

    fn apply_remove_concurrent(&self, key: &PathKey) -> Option<MdsId> {
        self.apply_remove_shared(key)
    }

    fn commit_batch(&self) {
        self.commit_concurrent();
    }
}

impl ghba_core::MetadataService for HbaCluster {
    fn scheme_name(&self) -> &'static str {
        "HBA"
    }

    fn server_count(&self) -> usize {
        self.server_count()
    }

    fn execute(&mut self, batch: &OpBatch) -> Vec<OpOutcome> {
        execute_vectored(self, batch)
    }

    fn execute_concurrent(&self, batch: &OpBatch) -> Vec<OpOutcome> {
        execute_vectored_concurrent(self, batch)
    }

    fn filter_memory_per_mds(&self) -> usize {
        let n = self.server_count();
        if n == 0 {
            return 0;
        }
        self.server_ids()
            .into_iter()
            .map(|id| self.filter_memory_bytes(id))
            .sum::<usize>()
            / n
    }

    fn set_shim_policy(&mut self, policy: EntryPolicy) {
        self.shim_entry = policy;
    }

    fn next_shim_policy(&mut self, ops: usize) -> EntryPolicy {
        self.shim_entry.advance(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghba_core::MetadataService;

    fn config() -> GhbaConfig {
        GhbaConfig::default()
            .with_filter_capacity(2_000)
            .with_seed(17)
    }

    #[test]
    fn files_are_findable() {
        let mut hba = HbaCluster::with_servers(config(), 8);
        for i in 0..100 {
            hba.create_file(&format!("/h/f{i}"));
        }
        hba.flush_all_updates();
        for i in 0..100 {
            let path = format!("/h/f{i}");
            let truth = hba.true_home(&path);
            assert_eq!(hba.lookup(&path).home, truth);
        }
    }

    #[test]
    fn join_migrates_all_n_replicas() {
        let mut hba = HbaCluster::with_servers(config(), 10);
        hba.reset_stats();
        let (_, report) = hba.add_mds_reported();
        assert_eq!(report.migrated_replicas, 10);
        assert_eq!(report.messages, 20);
    }

    #[test]
    fn update_broadcasts_to_everyone() {
        let mut hba = HbaCluster::with_servers(config(), 12);
        let home = hba.server_ids()[0];
        for i in 0..50 {
            hba.create_file_at(&format!("/u/f{i}"), home);
        }
        let report = hba.push_update(home);
        assert!(report.refreshed);
        assert_eq!(report.messages, 11);
    }

    #[test]
    fn memory_per_mds_scales_with_n() {
        let small = HbaCluster::with_servers(config(), 5);
        let large = HbaCluster::with_servers(config(), 20);
        assert!(large.filter_memory_per_mds() > small.filter_memory_per_mds() * 3);
    }

    #[test]
    fn repeated_lookup_hits_l1() {
        let mut hba = HbaCluster::with_servers(config(), 8);
        hba.create_file("/hot/file");
        hba.flush_all_updates();
        let entry = MdsId(0);
        let _ = hba.lookup_from(entry, "/hot/file");
        let second = hba.lookup_from(entry, "/hot/file");
        assert_eq!(second.level, QueryLevel::L1Lru);
    }

    #[test]
    fn removal_preserves_files() {
        let mut hba = HbaCluster::with_servers(config(), 6);
        for i in 0..60 {
            hba.create_file(&format!("/r/f{i}"));
        }
        let before = hba.total_files();
        hba.remove_mds(MdsId(2));
        assert_eq!(hba.total_files(), before);
        assert_eq!(hba.server_count(), 5);
        hba.flush_all_updates();
        for i in 0..60 {
            assert!(hba.lookup(&format!("/r/f{i}")).found());
        }
    }

    #[test]
    fn lookup_batch_matches_sequential_lookups() {
        let build = || {
            let mut hba = HbaCluster::with_servers(config(), 8);
            for i in 0..120 {
                hba.create_file(&format!("/batch/f{i}"));
            }
            hba.flush_all_updates();
            hba
        };
        let mut sequential = build();
        let mut batched = build();
        let queries: Vec<(MdsId, String)> = (0..32)
            .map(|i| {
                let path = if i % 8 == 7 {
                    format!("/absent/f{i}")
                } else {
                    format!("/batch/f{}", i * 3 % 120)
                };
                (MdsId(i % 8), path)
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
        assert_eq!(batched.lookup_batch_from(&borrowed), expected);
    }

    #[test]
    fn nonexistent_resolves_to_miss() {
        let mut hba = HbaCluster::with_servers(config(), 6);
        let outcome = hba.lookup("/ghost");
        assert!(!outcome.found());
        assert_eq!(outcome.level, QueryLevel::Nonexistent);
    }

    /// An owner push for a server a handle retired must no-op (not
    /// panic inside the snapshot writer, which would poison the cell
    /// for every later publish), and the deferred delta must land after
    /// the restore so lookups find the files created while retired.
    #[test]
    fn push_update_for_retired_server_is_a_noop() {
        let mut hba = HbaCluster::with_servers(config(), 6);
        let target = MdsId(1);
        for i in 0..40 {
            hba.create_file_at(&format!("/pre/f{i}"), target);
        }
        hba.flush_all_updates();
        let handle = hba.reconfig_handle();
        let filter = handle.retire_mds(target).expect("column is published");
        for i in 0..40 {
            hba.create_file_at(&format!("/while-retired/f{i}"), target);
        }
        let report = hba.push_update(target);
        assert!(!report.refreshed, "retired push must not publish");
        assert_eq!(report.messages, 0);
        assert!(handle.restore_mds(target, &filter));
        // The cell is not poisoned: the deferred drift publishes now,
        // and the restored mirror resolves both eras of files.
        assert!(hba.push_update(target).refreshed);
        for i in 0..40 {
            assert_eq!(hba.lookup(&format!("/pre/f{i}")).home, Some(target));
            assert_eq!(
                hba.lookup(&format!("/while-retired/f{i}")).home,
                Some(target)
            );
        }
    }
}
