//! Per-server state: the metadata store, the live and published Bloom
//! filters, the L1 LRU array, and the memory budget.
//!
//! Two filters per server is the heart of the staleness model:
//!
//! * the **live** filter (counting, so `unlink` works) tracks the store
//!   exactly and is probed by L4 and by the server itself;
//! * the **published** filter is the snapshot other servers hold as a
//!   replica. It lags the live filter until the XOR-distance threshold
//!   triggers a refresh (§3.4) — the lag is what sends queries to L4 in
//!   Figure 13.

use ghba_bloom::{
    BloomFilter, CountingBloomFilter, FilterDelta, FilterShape, Fingerprint, LruBloomArray,
};
use ghba_simnet::MemoryBudget;

use crate::config::GhbaConfig;
use crate::ids::MdsId;
use crate::metadata::MetadataStore;

/// Charge labels within each server's [`MemoryBudget`].
const CHARGE_LOCAL: &str = "local";
const CHARGE_LRU: &str = "lru";
const CHARGE_REPLICAS: &str = "replicas";
const CHARGE_METACACHE: &str = "metacache";

/// Bytes of cache one metadata entry occupies (inode + dentry + slack).
pub const META_ENTRY_BYTES: usize = 512;

/// The shape every server's live/published filter uses under `config`.
///
/// All servers of a cluster share it, which is what lets a cluster (and the
/// HBA baseline, and the threaded prototype's nodes) keep published
/// replicas in one bit-sliced
/// [`SharedShapeArray`](ghba_bloom::SharedShapeArray).
#[must_use]
pub fn published_shape(config: &GhbaConfig) -> FilterShape {
    FilterShape {
        bits: config.filter_bits(),
        hashes: config.filter_hashes(),
        seed: config.seed ^ 0x5E6_3E47, // filter family distinct from LRU's
    }
}

/// One metadata server.
#[derive(Debug, Clone)]
pub struct Mds {
    id: MdsId,
    store: MetadataStore,
    /// Its `ones` plane doubles as the plain projection that
    /// [`drift_bits`](Mds::drift_bits) and [`publish`](Mds::publish) read,
    /// so creates and unlinks both stay O(k).
    live: CountingBloomFilter,
    published: BloomFilter,
    lru: Option<LruBloomArray<MdsId>>,
    memory: Option<MemoryBudget>,
    mutations_since_publish: u64,
    /// Mutations since the last *exact* drift check (or publish), so the
    /// O(m) XOR distance runs at the gated cadence instead of on every
    /// mutation once the publish gate is passed.
    mutations_since_drift_check: u64,
    replica_charge_count: usize,
}

impl Mds {
    /// Creates an empty server under `config`.
    #[must_use]
    pub fn new(id: MdsId, config: &GhbaConfig) -> Self {
        let FilterShape { bits, hashes, seed } = published_shape(config);
        let live = CountingBloomFilter::new(bits, hashes, seed);
        let published = BloomFilter::new(bits, hashes, seed);
        let lru = (config.lru_capacity > 0).then(|| {
            LruBloomArray::new(
                config.lru_capacity,
                config.lru_bits,
                config.lru_hashes,
                config.seed ^ 0x14B_0A11,
            )
        });
        let memory = config.memory_per_mds.map(MemoryBudget::new);
        let mut mds = Mds {
            id,
            store: MetadataStore::new(),
            live,
            published,
            lru,
            memory,
            mutations_since_publish: 0,
            mutations_since_drift_check: 0,
            replica_charge_count: 0,
        };
        mds.recharge_memory();
        mds
    }

    /// This server's id.
    #[must_use]
    pub fn id(&self) -> MdsId {
        self.id
    }

    /// The authoritative metadata store.
    #[must_use]
    pub fn store(&self) -> &MetadataStore {
        &self.store
    }

    /// Number of files homed here.
    #[must_use]
    pub fn file_count(&self) -> usize {
        self.store.len()
    }

    /// The snapshot filter other groups hold as this server's replica.
    #[must_use]
    pub fn published(&self) -> &BloomFilter {
        &self.published
    }

    /// The L1 LRU array, if enabled.
    #[must_use]
    pub fn lru(&self) -> Option<&LruBloomArray<MdsId>> {
        self.lru.as_ref()
    }

    /// Mutable access to the L1 LRU array, if enabled.
    pub fn lru_mut(&mut self) -> Option<&mut LruBloomArray<MdsId>> {
        self.lru.as_mut()
    }

    /// Inserts `path` into the store and live filter.
    pub fn create_local(&mut self, path: &str) {
        self.create_local_fp(path, &Fingerprint::of(path));
    }

    /// Pre-hashed variant of [`create_local`](Mds::create_local): callers
    /// holding the path's admission-time fingerprint (a batched op
    /// pipeline) skip the byte pass entirely.
    pub fn create_local_fp(&mut self, path: &str, fp: &Fingerprint) {
        let existed = self.store.create(path).is_some();
        // Re-creating an existing path bumps its version but must not
        // double-insert into the counting filter: the live filter holds
        // exactly one count per stored path, so a later remove clears its
        // bits fully instead of stranding a permanent false positive —
        // and so live state stays a pure function of the namespace (the
        // property checkpoint/WAL recovery rebuilds it from).
        if !existed {
            self.live.insert_fp(fp);
        }
        self.mutations_since_publish += 1;
        self.mutations_since_drift_check += 1;
        self.recharge_metacache();
    }

    /// Removes `path` from the store and live filter; returns `false` when
    /// the path was not homed here.
    pub fn remove_local(&mut self, path: &str) -> bool {
        self.remove_local_fp(path, &Fingerprint::of(path))
    }

    /// Pre-hashed variant of [`remove_local`](Mds::remove_local).
    pub fn remove_local_fp(&mut self, path: &str, fp: &Fingerprint) -> bool {
        if self.store.remove(path).is_none() {
            return false;
        }
        let removed = self.live.remove_fp(fp);
        debug_assert!(removed.is_ok(), "live filter desynchronized from store");
        self.mutations_since_publish += 1;
        self.mutations_since_drift_check += 1;
        self.recharge_metacache();
        true
    }

    /// Authoritative membership check (the "disk" verification of L4 and
    /// of unique-hit confirmation).
    #[must_use]
    pub fn stores(&self, path: &str) -> bool {
        self.store.contains(path)
    }

    /// Probes the live local filter: no false negatives for files homed
    /// here; false positives possible.
    #[must_use]
    pub fn probe_live(&self, path: &str) -> bool {
        self.live.contains(path)
    }

    /// Hash-once variant of [`probe_live`](Mds::probe_live): reuses the
    /// fingerprint the query walk computed at its entry server.
    #[must_use]
    pub fn probe_live_fp(&self, fp: &Fingerprint) -> bool {
        self.live.contains_fp(fp)
    }

    /// Precomputed-rows variant of [`probe_live_fp`](Mds::probe_live_fp):
    /// `rows` must be derived for this cluster's shared live-filter shape
    /// ([`published_shape`]). Lets a batched sweep derive each
    /// fingerprint's rows once and probe every server's live filter with
    /// them — identical answers to `probe_live_fp` for the same item.
    #[must_use]
    pub fn probe_live_rows(&self, rows: &[u32]) -> bool {
        self.live.contains_rows(rows)
    }

    /// Hamming distance between the live filter and the published
    /// snapshot — Eq. §3.4's update trigger. This is the *exact* O(m)
    /// check; gate it with [`drift_check_due`](Mds::drift_check_due) on
    /// hot paths.
    #[must_use]
    pub fn drift_bits(&self) -> usize {
        self.live
            .as_bloom_filter()
            .xor_distance(&self.published)
            .expect("live and published share geometry")
    }

    /// Mutations since the last publish (a cheap proxy consulted before
    /// paying for the exact XOR distance).
    #[must_use]
    pub fn mutations_since_publish(&self) -> u64 {
        self.mutations_since_publish
    }

    /// `true` when enough mutations have accumulated — since the last
    /// publish *and* since the last exact check — that paying for the
    /// O(m) [`drift_bits`](Mds::drift_bits) distance is warranted.
    ///
    /// Without the second clause, a server whose drift hovers under the
    /// threshold would recompute the exact distance on **every** mutation
    /// once past the publish gate; with it, exact checks run at the gated
    /// cadence. Pair with [`note_drift_checked`](Mds::note_drift_checked)
    /// when the check does not lead to a publish.
    #[must_use]
    pub fn drift_check_due(&self, gate: u64) -> bool {
        self.mutations_since_publish >= gate && self.mutations_since_drift_check >= gate
    }

    /// Records that an exact drift check ran (and came up under
    /// threshold), restarting the cadence countdown.
    pub fn note_drift_checked(&mut self) {
        self.mutations_since_drift_check = 0;
    }

    /// The whole gated drift protocol in one call: `None` when the
    /// cadence says an exact check is not yet due (no filter touched);
    /// otherwise pays the exact O(m) distance, restarts the cadence on an
    /// under-threshold result, and returns `Some(exceeded)`.
    ///
    /// Every publish gate (G-HBA, HBA, the threaded prototype) goes
    /// through here so no call site can forget the cadence reset and
    /// silently regress to per-mutation O(m) checks.
    pub fn drift_exceeds(&mut self, gate: u64, threshold: usize) -> Option<bool> {
        if !self.drift_check_due(gate) {
            return None;
        }
        if self.drift_bits() < threshold {
            self.note_drift_checked();
            Some(false)
        } else {
            Some(true)
        }
    }

    /// Refreshes the published snapshot from the live filter, returning
    /// the delta that must be shipped to replica holders, or `None` if
    /// nothing changed.
    pub fn publish(&mut self) -> Option<FilterDelta> {
        let live = self.live.as_bloom_filter();
        let delta =
            FilterDelta::between(&self.published, live).expect("published and live share geometry");
        self.mutations_since_publish = 0;
        self.mutations_since_drift_check = 0;
        if delta.is_empty() {
            return None;
        }
        self.published.clone_from(live);
        Some(delta)
    }

    /// The publish-cadence counters `(since_publish, since_drift_check)`
    /// — captured into checkpoints so recovery resumes the gated drift
    /// protocol exactly where the crash left it.
    pub(crate) fn durable_counters(&self) -> (u64, u64) {
        (
            self.mutations_since_publish,
            self.mutations_since_drift_check,
        )
    }

    /// Checkpoint restore: overwrites the published snapshot and the
    /// publish-cadence counters. Called *after* the namespace has been
    /// replayed into the live filters (which bumps the counters), so
    /// the restore must come last to land the captured values.
    pub(crate) fn restore_published(
        &mut self,
        published: BloomFilter,
        since_publish: u64,
        since_drift: u64,
    ) {
        self.published = published;
        self.mutations_since_publish = since_publish;
        self.mutations_since_drift_check = since_drift;
    }

    /// Hands every file (path and attributes) to the caller and resets the
    /// filters — the departing-server path of group reconfiguration.
    pub fn evacuate(&mut self) -> Vec<String> {
        let paths: Vec<String> = self.store.drain().map(|(p, _)| p).collect();
        self.live.clear();
        self.published.clear();
        self.mutations_since_publish = 0;
        self.mutations_since_drift_check = 0;
        paths
    }

    /// Updates the replica memory charge to `count` replicas of this
    /// cluster's filter size.
    pub fn set_replica_charge(&mut self, count: usize) {
        self.replica_charge_count = count;
        self.recharge_memory();
    }

    /// Number of this server's held replicas that are resident in RAM
    /// (the rest spill to disk). Equals `held` when no budget is set.
    #[must_use]
    pub fn resident_replicas(&self, held: usize) -> usize {
        match &self.memory {
            Some(budget) => budget.resident_items(CHARGE_REPLICAS, held),
            None => held,
        }
    }

    /// Total bytes of filter structures this server keeps (its own filter,
    /// its LRU array, and `held` replicas) — the per-MDS figure behind
    /// Table 5. Counting filters are charged the paper's one byte per
    /// counter, not their resident heap.
    #[must_use]
    pub fn filter_memory_bytes(&self, held: usize) -> usize {
        self.published.memory_bytes()
            + self.lru.as_ref().map_or(0, LruBloomArray::counter_len)
            + held * self.published.memory_bytes()
    }

    /// Expected cost of serving one metadata access at this server: a
    /// memory probe when the entry is cached, a disk access otherwise,
    /// blended by the cache-resident fraction of the metadata working set.
    ///
    /// The metadata cache is the *lowest*-priority memory charge: Bloom
    /// filter replicas evict it first (they are probed on every query),
    /// which is how memory pressure turns into the latency growth of
    /// Figures 8–10.
    #[must_use]
    pub fn metadata_access_cost(&self, model: &ghba_simnet::LatencyModel) -> core::time::Duration {
        let resident = match &self.memory {
            Some(budget) => budget.resident_fraction(CHARGE_METACACHE),
            None => 1.0,
        };
        model.memory_probe + model.disk_access.mul_f64(1.0 - resident)
    }

    fn recharge_metacache(&mut self) {
        if let Some(budget) = &mut self.memory {
            // Metadata cache outranks replicas: a real MDS keeps its hot
            // dentries/inodes pinned and pages cold Bloom filter replicas
            // out — so growing cache demand progressively spills replicas
            // (the Figures 8–10 mechanism).
            budget.charge(CHARGE_METACACHE, 1, self.store.len() * META_ENTRY_BYTES);
            // The LRU array grows as homes are seen; keep its charge
            // honest so replicas feel true memory pressure.
            let lru = self.lru.as_ref().map_or(0, LruBloomArray::counter_len);
            budget.charge(CHARGE_LRU, 0, lru);
        }
    }

    /// Charges are modelled bytes: counting filters cost one byte per
    /// counter ([`CountingBloomFilter::counter_len`]), as in the paper.
    fn recharge_memory(&mut self) {
        let local = self.published.memory_bytes() + self.live.counter_len();
        let lru = self.lru.as_ref().map_or(0, LruBloomArray::counter_len);
        let replicas = self.replica_charge_count * self.published.memory_bytes();
        if let Some(budget) = &mut self.memory {
            budget.charge(CHARGE_LOCAL, 0, local);
            budget.charge(CHARGE_LRU, 0, lru);
            budget.charge(CHARGE_REPLICAS, 2, replicas);
        }
        self.recharge_metacache();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> GhbaConfig {
        GhbaConfig::default()
            .with_filter_capacity(1_000)
            .with_bits_per_file(12.0)
            .with_seed(5)
    }

    #[test]
    fn create_then_probe_and_verify() {
        let mut mds = Mds::new(MdsId(0), &test_config());
        mds.create_local("/a/b/c");
        assert!(mds.stores("/a/b/c"));
        assert!(mds.probe_live("/a/b/c"));
        assert_eq!(mds.file_count(), 1);
    }

    #[test]
    fn remove_clears_filter_membership() {
        let mut mds = Mds::new(MdsId(0), &test_config());
        mds.create_local("/x");
        assert!(mds.remove_local("/x"));
        assert!(!mds.stores("/x"));
        assert!(!mds.probe_live("/x"));
        assert!(!mds.remove_local("/x"));
    }

    #[test]
    fn published_lags_until_publish() {
        let mut mds = Mds::new(MdsId(0), &test_config());
        mds.create_local("/fresh");
        assert!(!mds.published().contains("/fresh"));
        assert!(mds.drift_bits() > 0);
        let delta = mds.publish().expect("changes pending");
        assert!(!delta.is_empty());
        assert!(mds.published().contains("/fresh"));
        assert_eq!(mds.drift_bits(), 0);
        assert_eq!(mds.mutations_since_publish(), 0);
    }

    #[test]
    fn publish_without_changes_is_none() {
        let mut mds = Mds::new(MdsId(0), &test_config());
        assert!(mds.publish().is_none());
        mds.create_local("/a");
        let _ = mds.publish();
        assert!(mds.publish().is_none());
    }

    #[test]
    fn delta_applies_to_stale_replica() {
        let mut mds = Mds::new(MdsId(0), &test_config());
        let mut replica = mds.published().clone();
        for i in 0..50 {
            mds.create_local(&format!("/f{i}"));
        }
        let delta = mds.publish().unwrap();
        delta.apply(&mut replica).unwrap();
        assert_eq!(&replica, mds.published());
    }

    #[test]
    fn evacuate_returns_all_files_and_clears() {
        let mut mds = Mds::new(MdsId(0), &test_config());
        mds.create_local("/a");
        mds.create_local("/b");
        let mut files = mds.evacuate();
        files.sort();
        assert_eq!(files, vec!["/a".to_owned(), "/b".to_owned()]);
        assert_eq!(mds.file_count(), 0);
        assert!(!mds.probe_live("/a"));
        assert_eq!(mds.drift_bits(), 0);
    }

    #[test]
    fn remove_heavy_workload_keeps_filter_and_store_in_sync() {
        let mut mds = Mds::new(MdsId(0), &test_config());
        for i in 0..200 {
            mds.create_local(&format!("/rm/f{i}"));
        }
        for i in 0..150 {
            assert!(mds.remove_local(&format!("/rm/f{i}")));
        }
        for i in 0..150 {
            assert!(!mds.stores(&format!("/rm/f{i}")));
        }
        for i in 150..200 {
            let path = format!("/rm/f{i}");
            assert!(mds.stores(&path));
            assert!(mds.probe_live(&path), "no false negatives for {path}");
        }
        assert!(mds.drift_bits() > 0);
        mds.publish().expect("live drifted from published");
        assert_eq!(mds.drift_bits(), 0);
        assert_eq!(mds.published().item_count(), 50);
        for i in 150..200 {
            assert!(mds.published().contains(&format!("/rm/f{i}")));
        }
    }

    #[test]
    fn create_after_unlink_publishes_correctly() {
        let mut mds = Mds::new(MdsId(0), &test_config());
        mds.create_local("/keep");
        mds.create_local("/gone");
        assert!(mds.remove_local("/gone"));
        mds.create_local("/after-dirty");
        let _ = mds.publish().expect("changes pending");
        assert!(mds.published().contains("/keep"));
        assert!(mds.published().contains("/after-dirty"));
        assert!(!mds.published().contains("/gone"));
        assert_eq!(mds.drift_bits(), 0);
    }

    #[test]
    fn drift_check_cadence_is_gated() {
        let mut mds = Mds::new(MdsId(0), &test_config());
        let gate = 10;
        for i in 0..9 {
            mds.create_local(&format!("/g/f{i}"));
        }
        assert!(!mds.drift_check_due(gate));
        mds.create_local("/g/f9");
        assert!(mds.drift_check_due(gate));
        // An under-threshold exact check restarts the cadence: the next
        // exact check must wait another `gate` mutations, even though the
        // publish gate stays passed.
        mds.note_drift_checked();
        assert!(!mds.drift_check_due(gate));
        for i in 10..19 {
            mds.create_local(&format!("/g/f{i}"));
        }
        assert!(!mds.drift_check_due(gate));
        mds.create_local("/g/f19");
        assert!(mds.drift_check_due(gate));
        mds.publish().expect("changes pending");
        assert!(!mds.drift_check_due(gate));
    }

    #[test]
    fn unlimited_memory_keeps_all_replicas_resident() {
        let mds = Mds::new(MdsId(0), &test_config());
        assert_eq!(mds.resident_replicas(50), 50);
    }

    #[test]
    fn tight_memory_spills_replicas() {
        let filter_bytes = {
            let probe = Mds::new(MdsId(0), &test_config());
            probe.published().memory_bytes()
        };
        // Room for local structures plus ~3 replicas.
        let config = test_config().with_memory_per_mds(filter_bytes * 14);
        let mut mds = Mds::new(MdsId(0), &config);
        mds.set_replica_charge(10);
        let resident = mds.resident_replicas(10);
        assert!(resident < 10, "expected spill, all resident");
        assert!(resident > 0, "expected some residency");
    }

    #[test]
    fn lru_disabled_when_capacity_zero() {
        let config = test_config().with_lru_capacity(0);
        let mds = Mds::new(MdsId(0), &config);
        assert!(mds.lru().is_none());
    }

    #[test]
    fn filter_memory_counts_replicas() {
        let mds = Mds::new(MdsId(0), &test_config());
        let own = mds.published().memory_bytes();
        assert_eq!(
            mds.filter_memory_bytes(4) - mds.filter_memory_bytes(0),
            4 * own
        );
    }
}
