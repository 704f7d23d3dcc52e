//! Shared-reference execution support: atomic statistics and sharded
//! write ownership.
//!
//! PR 6 made individual lookups flow through reconfiguration lock-free,
//! but left two gaps that this module closes:
//!
//! * **Stats from `&self`** — [`ConcurrentStats`] mirrors the hot
//!   counters of `ClusterStats` (level counts, lookup/update latency,
//!   mask-cache hits, false-hit counters) word-for-word in atomics, so
//!   pinned walks running from a shared reference can record accounting
//!   that the owner later folds into the authoritative `ClusterStats`
//!   at a drain point.
//! * **Writes from `&self`** — [`NamespaceShards`] partitions the
//!   namespace by fingerprint hash into independently locked shards.
//!   Creates and removes append ordered *write records* to their shard's
//!   log under that shard's lock alone, so mutations on distinct shards
//!   proceed concurrently while reads consult a per-path overlay. The
//!   owner replays the logs against the real stores at the next `&mut`
//!   entry point (the *drain*), in shard-index order; per-path ordering
//!   is preserved because a path always hashes to the same shard, and
//!   records for distinct paths commute on the underlying stores.
//!
//! Neither type performs any synchronization beyond its own locks and
//! atomics: folding or draining requires the caller to hold `&mut` on
//! the owning cluster (or otherwise guarantee that no concurrent
//! recorder is live), which is exactly what the drain hooks on the
//! clusters' `&mut` entry points provide.

use core::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use core::time::Duration;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Mutex;

use ghba_bloom::Fingerprint;

use crate::cluster::ClusterStats;
use crate::ids::{GroupId, MdsId};
use crate::load::LoadRecorder;
use crate::op::PathKey;
use crate::query::QueryLevel;
use crate::snapshot::SlabPublish;

/// Lock-free mirror of `LatencyStats`: same bucket geometry, atomic
/// words, drained wholesale into the real accumulator via
/// `LatencyStats::merge_parts`.
#[derive(Debug)]
struct AtomicLatency {
    count: AtomicU64,
    sum_nanos: AtomicU64,
    min_nanos: AtomicU64,
    max_nanos: AtomicU64,
    buckets: [AtomicU64; 64],
}

impl AtomicLatency {
    fn new() -> Self {
        AtomicLatency {
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            min_nanos: AtomicU64::new(u64::MAX),
            max_nanos: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, latency: Duration) {
        let nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.min_nanos.fetch_min(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        // Same ×2 logarithmic geometry as `LatencyStats::record`.
        let bucket = if nanos == 0 {
            0
        } else {
            (63 - nanos.leading_zeros()) as usize
        };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Resets the accumulator and returns the drained parts in
    /// `merge_parts` order.
    fn drain(&self) -> (u64, u128, u64, u64, [u64; 64]) {
        let count = self.count.swap(0, Ordering::Relaxed);
        let sum = u128::from(self.sum_nanos.swap(0, Ordering::Relaxed));
        let min = self.min_nanos.swap(u64::MAX, Ordering::Relaxed);
        let max = self.max_nanos.swap(0, Ordering::Relaxed);
        let mut buckets = [0u64; 64];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.swap(0, Ordering::Relaxed);
        }
        (count, sum, min, max, buckets)
    }
}

/// Atomic accounting for walks and publishes performed from `&self`.
///
/// Every counter mirrors a field (or named counter) of `ClusterStats`.
/// Recording is wait-free; [`fold_into`](ConcurrentStats::fold_into)
/// drains everything into the owner's stats and must only run once the
/// caller holds `&mut` on the owning cluster (no live recorders).
#[derive(Debug)]
pub struct ConcurrentStats {
    dirty: AtomicBool,
    levels: [AtomicU64; 5],
    lookup: AtomicLatency,
    update: AtomicLatency,
    update_messages: AtomicU64,
    update_bytes: AtomicU64,
    mask_hits: AtomicU64,
    mask_misses: AtomicU64,
    l1_false: AtomicU64,
    l2_false: AtomicU64,
    l3_false: AtomicU64,
    l4_disk: AtomicU64,
    spare_copies: AtomicU64,
    slab_rows: AtomicU64,
    /// Per-group load telemetry (see [`crate::load`]). Deliberately
    /// outside the `dirty` protocol: it is drained by the load report,
    /// not by the stats fold, so recording load never forces the
    /// `maybe_drain` slow path on the next `&mut` entry.
    load: LoadRecorder,
}

impl Default for ConcurrentStats {
    fn default() -> Self {
        ConcurrentStats::new()
    }
}

impl ConcurrentStats {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        ConcurrentStats {
            dirty: AtomicBool::new(false),
            levels: std::array::from_fn(|_| AtomicU64::new(0)),
            lookup: AtomicLatency::new(),
            update: AtomicLatency::new(),
            update_messages: AtomicU64::new(0),
            update_bytes: AtomicU64::new(0),
            mask_hits: AtomicU64::new(0),
            mask_misses: AtomicU64::new(0),
            l1_false: AtomicU64::new(0),
            l2_false: AtomicU64::new(0),
            l3_false: AtomicU64::new(0),
            l4_disk: AtomicU64::new(0),
            spare_copies: AtomicU64::new(0),
            slab_rows: AtomicU64::new(0),
            load: LoadRecorder::new(),
        }
    }

    /// Whether anything has been recorded since the last fold.
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Acquire)
    }

    fn touch(&self) {
        self.dirty.store(true, Ordering::Release);
    }

    /// Records one resolved lookup: the level that served it and its
    /// modeled latency.
    pub fn record_lookup(&self, level: QueryLevel, latency: Duration) {
        let idx = match level {
            QueryLevel::L1Lru => 0,
            QueryLevel::L2Segment => 1,
            QueryLevel::L3Group => 2,
            QueryLevel::L4Global => 3,
            QueryLevel::Nonexistent => 4,
        };
        self.levels[idx].fetch_add(1, Ordering::Relaxed);
        self.lookup.record(latency);
        self.touch();
    }

    /// Records false-hit escalations observed during one walk.
    pub fn record_false_hits(&self, l1: u64, l2: u64, l3: u64, l4_disk: u64) {
        if l1 | l2 | l3 | l4_disk == 0 {
            return;
        }
        self.l1_false.fetch_add(l1, Ordering::Relaxed);
        self.l2_false.fetch_add(l2, Ordering::Relaxed);
        self.l3_false.fetch_add(l3, Ordering::Relaxed);
        self.l4_disk.fetch_add(l4_disk, Ordering::Relaxed);
        self.touch();
    }

    /// Records one mask-cache consult (memoized mask reuse counts as a
    /// hit, a fresh build as a miss).
    pub fn record_mask(&self, hit: bool) {
        if hit {
            self.mask_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.mask_misses.fetch_add(1, Ordering::Relaxed);
        }
        self.touch();
    }

    /// Attributes one finished walk to its entry group for the load
    /// telemetry: traffic, escalation depth, and charged false hits.
    /// Does **not** set the dirty flag — load windows are closed by
    /// [`LoadFold::close_window`](crate::load::LoadFold::close_window),
    /// not by the stats fold.
    pub fn record_group_walk(
        &self,
        gid: GroupId,
        entry: MdsId,
        level: QueryLevel,
        false_hits: u64,
    ) {
        self.load.record_walk(gid, entry, level, false_hits);
    }

    /// Attributes one L2/L3 mask consult to `gid` for the load
    /// telemetry. Companion of
    /// [`record_mask`](ConcurrentStats::record_mask); same dirty-flag
    /// exemption as [`record_group_walk`](Self::record_group_walk).
    pub fn record_group_mask(&self, gid: GroupId, hit: bool) {
        self.load.record_mask(gid, hit);
    }

    /// Not-yet-folded mask consults `(hits, misses)` — peeked, not
    /// drained, so a `&self` reader can assemble an up-to-date
    /// [`MaskCacheStats`](crate::load::MaskCacheStats) view without a
    /// drain barrier.
    pub fn pending_mask(&self) -> (u64, u64) {
        (
            self.mask_hits.load(Ordering::Relaxed),
            self.mask_misses.load(Ordering::Relaxed),
        )
    }

    pub(crate) fn load_recorder(&self) -> &LoadRecorder {
        &self.load
    }

    /// Records one staged publish: replica-update messages, wire bytes,
    /// and the modeled propagation latency.
    pub fn record_update(&self, messages: u64, bytes: u64, latency: Duration) {
        self.update_messages.fetch_add(messages, Ordering::Relaxed);
        self.update_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.update.record(latency);
        self.touch();
    }

    /// Records one staged slab publish: the rows it wrote and whether
    /// its spare slab had to be restocked by a deep copy (see
    /// [`ClusterStats::record_slab_publish`](crate::ClusterStats::record_slab_publish)).
    /// A publish that wrote no rows and copied nothing records nothing.
    pub fn record_slab_publish(&self, publish: SlabPublish) {
        if publish == SlabPublish::default() {
            return;
        }
        self.slab_rows
            .fetch_add(publish.rows_written, Ordering::Relaxed);
        self.spare_copies
            .fetch_add(u64::from(publish.deep_copied), Ordering::Relaxed);
        self.touch();
    }

    /// Drains every counter into `stats` and returns the folded
    /// `(mask_hits, mask_misses)` pair so callers with a separate
    /// lifetime view of the mask cache can absorb it too.
    ///
    /// Requires external synchronization: no recorder may be live.
    pub fn fold_into(&self, stats: &mut ClusterStats) -> (u64, u64) {
        self.dirty.store(false, Ordering::Release);
        stats.levels.l1 += self.levels[0].swap(0, Ordering::Relaxed);
        stats.levels.l2 += self.levels[1].swap(0, Ordering::Relaxed);
        stats.levels.l3 += self.levels[2].swap(0, Ordering::Relaxed);
        stats.levels.l4 += self.levels[3].swap(0, Ordering::Relaxed);
        stats.levels.nonexistent += self.levels[4].swap(0, Ordering::Relaxed);

        let (count, sum, min, max, buckets) = self.lookup.drain();
        stats
            .lookup_latency
            .merge_parts(count, sum, min, max, &buckets);
        let (count, sum, min, max, buckets) = self.update.drain();
        stats
            .update_latency
            .merge_parts(count, sum, min, max, &buckets);

        stats.update_messages += self.update_messages.swap(0, Ordering::Relaxed);
        stats.update_bytes += self.update_bytes.swap(0, Ordering::Relaxed);
        stats.slab_spare_copies += self.spare_copies.swap(0, Ordering::Relaxed);
        stats.slab_rows_written += self.slab_rows.swap(0, Ordering::Relaxed);

        for (label, counter) in [
            ("l1_false_hits", &self.l1_false),
            ("l2_false_hits", &self.l2_false),
            ("l3_false_hits", &self.l3_false),
            ("l4_false_positive_disk_checks", &self.l4_disk),
        ] {
            let n = counter.swap(0, Ordering::Relaxed);
            if n > 0 {
                stats.counters.add(label, n);
            }
        }

        let hits = self.mask_hits.swap(0, Ordering::Relaxed);
        let misses = self.mask_misses.swap(0, Ordering::Relaxed);
        stats.mask_cache_hits += hits;
        stats.mask_cache_misses += misses;
        (hits, misses)
    }
}

/// What the write overlay knows about a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlayEntry {
    /// No pending write touches this path; the real stores are
    /// authoritative.
    Untracked,
    /// The latest pending write removed this path.
    Removed,
    /// The latest pending write created this path at the given home.
    Created(MdsId),
}

/// The kind of a pending write, tagged with the home server it targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteKind {
    /// Create the path at this home.
    Create(MdsId),
    /// Remove the path from this home.
    Remove(MdsId),
}

/// One pending write, replayed verbatim against the real stores at
/// drain time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteRecord {
    /// The path the write targets.
    pub path: String,
    /// The path's fingerprint (precomputed at record time).
    pub fp: Fingerprint,
    /// Create-at-home or remove-from-home.
    pub kind: WriteKind,
}

/// One namespace shard: an ordered log of pending writes plus an index
/// of the latest record per path (the overlay).
#[derive(Debug, Default)]
struct Shard {
    log: Vec<WriteRecord>,
    /// path → index of the latest record for it in `log`.
    latest: HashMap<String, usize>,
}

/// Namespace partitioned into independently locked write shards.
///
/// The shard of a path is a mask of its fingerprint's first hash lane,
/// so the mapping is stable across calls and across servers. Writes on
/// distinct shards contend only on their own shard's mutex; reads take
/// at most one shard lock (and none at all while the structure is
/// clean — the common case — thanks to the `dirty` fast path).
#[derive(Debug)]
pub struct NamespaceShards {
    shards: Vec<Mutex<Shard>>,
    mask: usize,
    dirty: AtomicBool,
    /// Creates recorded but not yet staged, counted across all shards:
    /// the cheap publish-cadence gate (one atomic load per batch
    /// commit, no shard locks).
    unpublished_creates: AtomicU64,
    /// Per-home staging buffers: the fingerprints of unstaged creates,
    /// keyed by home, so `stage_ripe_creates` can publish one home's
    /// accumulated delta without scanning the shard logs or touching
    /// homes still under the cadence bar.
    pending_creates: Mutex<BTreeMap<MdsId, Vec<Fingerprint>>>,
    /// Homes whose published probe columns carry staged create bits
    /// that the server's own published filter does not know about yet;
    /// the drain reconciles them.
    staged: Mutex<BTreeSet<MdsId>>,
}

impl NamespaceShards {
    /// Creates `shard_count` shards, rounded up to a power of two
    /// (minimum 1).
    pub fn new(shard_count: usize) -> Self {
        let n = shard_count.max(1).next_power_of_two();
        NamespaceShards {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            mask: n - 1,
            dirty: AtomicBool::new(false),
            unpublished_creates: AtomicU64::new(0),
            pending_creates: Mutex::new(BTreeMap::new()),
            staged: Mutex::new(BTreeSet::new()),
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whether any pending write or staged publish exists.
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Acquire)
    }

    fn shard_of(&self, fp: &Fingerprint) -> usize {
        (fp.lanes().0 as usize) & self.mask
    }

    fn lock_for(&self, fp: &Fingerprint) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[self.shard_of(fp)]
            .lock()
            .expect("namespace shard poisoned")
    }

    /// Consults the overlay for `key`. Lock-free when clean.
    pub fn overlay(&self, key: &PathKey) -> OverlayEntry {
        self.overlay_keyed(key.path(), key.fingerprint())
    }

    /// [`overlay`](NamespaceShards::overlay) for callers holding the
    /// path and its precomputed fingerprint separately (the pinned walk
    /// never re-hashes).
    pub fn overlay_keyed(&self, path: &str, fp: &Fingerprint) -> OverlayEntry {
        if !self.is_dirty() {
            return OverlayEntry::Untracked;
        }
        let shard = self.lock_for(fp);
        match shard.latest.get(path) {
            None => OverlayEntry::Untracked,
            Some(&idx) => match shard.log[idx].kind {
                WriteKind::Create(home) => OverlayEntry::Created(home),
                WriteKind::Remove(_) => OverlayEntry::Removed,
            },
        }
    }

    /// Whether any create past the staging watermark exists — a cheap
    /// pre-check (one atomic load, no shard locks) so a reads-only (or
    /// removes-only) batch commit can skip the slab writer lock
    /// entirely.
    pub fn has_unpublished_creates(&self) -> bool {
        self.unpublished_create_count() > 0
    }

    /// Creates recorded but not yet staged into the published probe
    /// state — the batch commit compares this against the publish
    /// cadence so staging amortizes like the sequential drift gate
    /// instead of paying a column clone per batch.
    pub fn unpublished_create_count(&self) -> u64 {
        self.unpublished_creates.load(Ordering::Acquire)
    }

    /// Pending write records across all shards, awaiting the next
    /// drain. Lock-free (zero) when clean; long-running `&self`-only
    /// servers use this to observe whether their background reconciler
    /// is keeping the logs bounded.
    pub fn pending_record_count(&self) -> u64 {
        if !self.is_dirty() {
            return 0;
        }
        self.shards
            .iter()
            .map(|slot| slot.lock().expect("namespace shard poisoned").log.len() as u64)
            .sum()
    }

    fn record(&self, key: &PathKey, kind: WriteKind) {
        let create_home = match kind {
            WriteKind::Create(home) => Some(home),
            WriteKind::Remove(_) => None,
        };
        {
            let mut shard = self.lock_for(key.fingerprint());
            let idx = shard.log.len();
            shard.log.push(WriteRecord {
                path: key.path().to_owned(),
                fp: *key.fingerprint(),
                kind,
            });
            shard.latest.insert(key.path().to_owned(), idx);
        }
        if let Some(home) = create_home {
            self.pending_creates
                .lock()
                .expect("pending set poisoned")
                .entry(home)
                .or_default()
                .push(*key.fingerprint());
            self.unpublished_creates.fetch_add(1, Ordering::AcqRel);
        }
        self.dirty.store(true, Ordering::Release);
    }

    /// Appends a pending create of `key` at `home`.
    pub fn record_create(&self, key: &PathKey, home: MdsId) {
        self.record(key, WriteKind::Create(home));
    }

    /// Appends a pending removal of `key` from `home`.
    pub fn record_remove(&self, key: &PathKey, home: MdsId) {
        self.record(key, WriteKind::Remove(home));
    }

    /// Extracts the staging buffers of every home holding at least
    /// `min_per_home` unstaged creates, transferring ownership of their
    /// fingerprints to the caller (who folds them into the published
    /// probe state). Homes below the bar keep accumulating — the
    /// per-home analog of the sequential drift gate, so one busy home
    /// publishes one amortized delta instead of every batch paying a
    /// column clone for a handful of bits.
    ///
    /// Only *creates* are staged: published columns are plain Bloom
    /// filters, so pending removes cannot be reflected there and stay
    /// invisible to probes until the drain — the same staleness window
    /// the sequential pipeline's publish gate already tolerates.
    pub fn stage_ripe_creates(&self, min_per_home: u64) -> Vec<(MdsId, Vec<Fingerprint>)> {
        let min = min_per_home.max(1) as usize;
        let mut pending = self.pending_creates.lock().expect("pending set poisoned");
        let ripe: Vec<MdsId> = pending
            .iter()
            .filter(|(_, fps)| fps.len() >= min)
            .map(|(&home, _)| home)
            .collect();
        let mut staged = 0u64;
        let out: Vec<(MdsId, Vec<Fingerprint>)> = ripe
            .into_iter()
            .map(|home| {
                let fps = pending.remove(&home).expect("just listed");
                staged += fps.len() as u64;
                (home, fps)
            })
            .collect();
        drop(pending);
        if staged > 0 {
            self.unpublished_creates.fetch_sub(staged, Ordering::AcqRel);
        }
        out
    }

    /// Marks homes whose columns now carry staged create bits, so the
    /// drain knows to reconcile their published filters.
    pub fn mark_staged(&self, homes: impl IntoIterator<Item = MdsId>) {
        let mut staged = self.staged.lock().expect("staged set poisoned");
        staged.extend(homes);
        self.dirty.store(true, Ordering::Release);
    }

    /// Drains every pending write (shard-index order, log order within
    /// a shard) and the staged-home set, resetting the structure to
    /// clean. Per-path ordering is total because a path always lands in
    /// the same shard.
    ///
    /// Requires external synchronization (the owner's `&mut`): a
    /// concurrent `record_*` during the drain would land in an
    /// arbitrary position.
    pub fn take_all(&self) -> (Vec<WriteRecord>, Vec<MdsId>) {
        let mut records = Vec::new();
        for slot in &self.shards {
            let mut shard = slot.lock().expect("namespace shard poisoned");
            records.append(&mut shard.log);
            shard.latest.clear();
        }
        self.pending_creates
            .lock()
            .expect("pending set poisoned")
            .clear();
        let staged = {
            let mut staged = self.staged.lock().expect("staged set poisoned");
            std::mem::take(&mut *staged)
        };
        self.unpublished_creates.store(0, Ordering::Release);
        self.dirty.store(false, Ordering::Release);
        (records, staged.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlay_tracks_latest_write_per_path() {
        let shards = NamespaceShards::new(4);
        let key = PathKey::new("/a/b");
        assert_eq!(shards.overlay(&key), OverlayEntry::Untracked);
        assert!(!shards.is_dirty());

        shards.record_create(&key, MdsId(3));
        assert_eq!(shards.overlay(&key), OverlayEntry::Created(MdsId(3)));
        shards.record_remove(&key, MdsId(3));
        assert_eq!(shards.overlay(&key), OverlayEntry::Removed);
        assert!(shards.is_dirty());

        let (records, staged) = shards.take_all();
        assert_eq!(records.len(), 2);
        assert!(staged.is_empty());
        assert!(!shards.is_dirty());
        assert_eq!(shards.overlay(&key), OverlayEntry::Untracked);
    }

    #[test]
    fn staging_covers_each_create_exactly_once() {
        let shards = NamespaceShards::new(2);
        shards.record_create(&PathKey::new("/x"), MdsId(1));
        shards.record_create(&PathKey::new("/y"), MdsId(1));
        shards.record_remove(&PathKey::new("/y"), MdsId(1));
        assert_eq!(shards.unpublished_create_count(), 2);

        let staged = shards.stage_ripe_creates(1);
        let total: usize = staged.iter().map(|(_, fps)| fps.len()).sum();
        assert_eq!(total, 2, "removes are not staged, creates are");
        assert!(staged.iter().all(|(home, _)| *home == MdsId(1)));
        assert_eq!(shards.unpublished_create_count(), 0);

        // Second staging pass sees nothing new.
        assert!(shards.stage_ripe_creates(1).is_empty());

        shards.record_create(&PathKey::new("/z"), MdsId(2));
        let staged = shards.stage_ripe_creates(1);
        assert_eq!(staged.len(), 1);
        assert_eq!(staged[0].0, MdsId(2));
        assert_eq!(staged[0].1.len(), 1);
    }

    #[test]
    fn staging_gate_holds_back_homes_under_the_bar() {
        let shards = NamespaceShards::new(2);
        for i in 0..3 {
            shards.record_create(&PathKey::new(format!("/busy/{i}")), MdsId(1));
        }
        shards.record_create(&PathKey::new("/quiet"), MdsId(2));

        // Only the home with >= 3 pending creates is ripe.
        let staged = shards.stage_ripe_creates(3);
        assert_eq!(staged.len(), 1);
        assert_eq!(staged[0].0, MdsId(1));
        assert_eq!(staged[0].1.len(), 3);
        assert_eq!(shards.unpublished_create_count(), 1, "/quiet accumulates");

        // The held-back home stages once it crosses the bar.
        for i in 0..2 {
            shards.record_create(&PathKey::new(format!("/quiet/{i}")), MdsId(2));
        }
        let staged = shards.stage_ripe_creates(3);
        assert_eq!(staged.len(), 1);
        assert_eq!(staged[0].0, MdsId(2));
        assert_eq!(staged[0].1.len(), 3);
        assert_eq!(shards.unpublished_create_count(), 0);
    }

    #[test]
    fn atomic_latency_matches_latency_stats_geometry() {
        use ghba_simnet::LatencyStats;
        let atomic = AtomicLatency::new();
        let mut reference = LatencyStats::new();
        for nanos in [0u64, 1, 7, 1024, 65_537, 1_000_000_000] {
            atomic.record(Duration::from_nanos(nanos));
            reference.record(Duration::from_nanos(nanos));
        }
        let (count, sum, min, max, buckets) = atomic.drain();
        let mut folded = LatencyStats::new();
        folded.merge_parts(count, sum, min, max, &buckets);
        assert_eq!(folded, reference);
    }
}
