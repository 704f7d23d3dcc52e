//! The vectored metadata operations API: typed op batches every scheme
//! executes natively.
//!
//! Metadata traffic arrives at a cluster as *streams* of mixed operations
//! — bursts of concurrent lookups interleaved with creates, unlinks, and
//! renames — not as one isolated pathname at a time. [`OpBatch`] is the
//! unit the [`MetadataService`](crate::MetadataService) seam moves: each
//! [`MetadataOp`] carries a [`PathKey`] whose hash-once
//! [`Fingerprint`] was computed **once at batch admission** and travels
//! through every filter probe of every level, and the batch names an
//! explicit [`EntryPolicy`] instead of baking "random entry server" into
//! each scheme.
//!
//! Schemes execute a batch through the shared [`execute_vectored`]
//! pipeline (via the [`VectoredScheme`] hooks): maximal runs of
//! consecutive lookups are fused into one L1→L4 batched slab pass, writes
//! apply in stream order with their gated delta publishes, and
//! [`MetadataOp::Rename`] performs a full metadata migration (remove at
//! the old home, create at the policy-chosen new home) whose
//! [`OpOutcome::Renamed`] reports both homes.
//!
//! Outcome semantics match **one-op-at-a-time execution**: `execute` on
//! a mixed batch returns what issuing each op as its own 1-op batch
//! would. The run fusion flushes before every write and before a
//! repeated `(entry, path)` pair, so a repeat observes the earlier
//! lookup's L1 cache fill exactly as a sequential stream would. The one
//! deliberate divergence is the concurrent-request model inherited from
//! the batched walk: an L1 fill produced by an earlier lookup at the
//! same entry for a *different* path is not seen by the later probes of
//! the same fused run — observable only through an L1 Bloom false
//! positive or an eviction reordering, both vanishingly rare at sane L1
//! geometries (the property tests pin outcome equality across all three
//! schemes under flash-crowd batches).
//!
//! # The pin-once concurrent pipeline
//!
//! [`execute_vectored_concurrent`] is the `&self` twin of
//! [`execute_vectored`], driven through the [`ConcurrentScheme`] hooks.
//! Its lifetime rules:
//!
//! * **Pin once per batch.** The scheme pins one route snapshot at batch
//!   admission ([`ConcurrentScheme::pin_batch`]) and every fused read
//!   run of the batch walks that same snapshot — not one pin per
//!   `lookup` call. A reconfiguration publishing mid-batch is therefore
//!   observed by the *next* batch, never by half of this one; the pin
//!   is dropped (and the epoch guard released) only when the batch's
//!   outcomes are assembled.
//! * **Writes are ordered per shard, not per batch.** Mutations from
//!   `&self` append to namespace write shards (hash of the path's
//!   fingerprint → shard) under that shard's lock alone. Two batches
//!   writing distinct shards never contend; two writes to the same
//!   path always land in the same shard, so their order is total.
//! * **Cross-shard renames are remove-then-create.** A rename removes
//!   `from` under its shard's lock, *releases it*, then creates `to`
//!   under the target shard's lock — no op ever holds two shard locks,
//!   so shard locks are single and there is no lock-order cycle to
//!   deadlock on.
//! * **Publishes stay a single atomic swap.** Pending create bits are
//!   folded into the published probe columns through the same
//!   `SlabOp`/`CellWriter` path the sequential pipeline uses
//!   ([`ConcurrentScheme::commit_batch`]), under the slab writer lock,
//!   so readers still observe probe state flip in one swap.
//!
//! Executed single-threaded against a quiescent scheme, the concurrent
//! pipeline is **bit-identical** to the sequential one (same RNG stream,
//! same fusion boundaries at `lru_capacity = 0`); under true concurrency
//! the interleaving of distinct-path writes is arbitrary by design and
//! the property suites assert semantic equivalence (every path resolves
//! to its true home) instead.

use ghba_bloom::Fingerprint;

use crate::ids::MdsId;
use crate::query::QueryOutcome;

/// A pathname plus its hash-once [`Fingerprint`], computed exactly once
/// when the op is admitted to a batch.
///
/// Every filter probe the op triggers — L1 LRU, bit-sliced slab levels,
/// live-filter sweeps, multicast recipients — derives its probe stream
/// from this fingerprint by O(1) seed-mixing; the path bytes are never
/// re-hashed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathKey {
    path: String,
    fp: Fingerprint,
}

impl PathKey {
    /// Admits `path`: the single byte pass of the hash-once design.
    #[must_use]
    pub fn new(path: impl Into<String>) -> Self {
        let path = path.into();
        let fp = Fingerprint::of(path.as_str());
        PathKey { path, fp }
    }

    /// Reassembles a `PathKey` from a pathname and a fingerprint computed
    /// elsewhere — the wire-decode path, where the fingerprint arrived in
    /// the frame alongside the path bytes. Returns `None` when `fp` is
    /// not `path`'s fingerprint: the pair is corrupt and the decoder must
    /// reject the frame rather than admit a key whose probe stream
    /// disagrees with its pathname.
    #[must_use]
    pub fn from_parts(path: impl Into<String>, fp: Fingerprint) -> Option<Self> {
        let path = path.into();
        (Fingerprint::of(path.as_str()) == fp).then_some(PathKey { path, fp })
    }

    /// The pathname.
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The admission-time fingerprint (identical to
    /// `Fingerprint::of(self.path())`).
    #[must_use]
    pub fn fingerprint(&self) -> &Fingerprint {
        &self.fp
    }
}

/// How a batch's ops choose their serving MDS (the lookup entry server,
/// and the home for creates and rename targets).
///
/// The paper's client model — "each request can randomly choose an MDS" —
/// becomes one policy among several instead of a hard-coded behaviour of
/// every scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryPolicy {
    /// Each op draws a uniformly random server from the scheme's
    /// deterministic RNG (the paper's default client model).
    Random,
    /// Every op is served through one fixed server (a client with a
    /// sticky connection; also how tests pin entry points).
    Pinned(MdsId),
    /// Op `i` of the batch is served by the `(start + i) mod N`-th live
    /// server (ascending id order) — a load-balancer spraying a burst
    /// deterministically across the cluster.
    RoundRobin {
        /// Offset of the batch's first op into the server list.
        start: usize,
    },
}

impl EntryPolicy {
    /// Resolves the serving server for op `op_index` of a batch under the
    /// deterministic policies, given the scheme's live server ids in
    /// ascending order. Returns `None` for [`EntryPolicy::Random`] — the
    /// scheme must then draw from its own deterministic RNG (so batched
    /// and one-op-per-call execution consume the stream identically).
    ///
    /// Every scheme's resolver defers here so Pinned/RoundRobin semantics
    /// cannot diverge between implementations.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty or a pinned server is not among `ids`.
    #[must_use]
    pub fn resolve_deterministic(self, ids: &[MdsId], op_index: usize) -> Option<MdsId> {
        match self {
            EntryPolicy::Random => None,
            EntryPolicy::Pinned(id) => {
                assert!(ids.contains(&id), "pinned server {id} unknown");
                Some(id)
            }
            EntryPolicy::RoundRobin { start } => {
                assert!(!ids.is_empty(), "no live servers");
                // Wrapping: the service-side cursor advances by
                // `wrapping_add` (see [`EntryPolicy::advance`]), so a
                // cursor near `usize::MAX` must reduce, not overflow.
                Some(ids[start.wrapping_add(op_index) % ids.len()])
            }
        }
    }

    /// Returns the policy for a batch of `ops` ops and advances any
    /// round-robin cursor past them **in place**.
    ///
    /// This is how round-robin state survives the string-call shims:
    /// each shim builds a fresh 1-op [`OpBatch`], so the cursor must
    /// live on the *service* (see
    /// [`MetadataService::set_shim_policy`](crate::MetadataService::set_shim_policy))
    /// and step forward here on every call — otherwise each shim batch
    /// would re-enter at `start` and pin a single server. Stateless
    /// policies return unchanged.
    pub fn advance(&mut self, ops: usize) -> EntryPolicy {
        let current = *self;
        if let EntryPolicy::RoundRobin { start } = self {
            // `resolve_deterministic` reduces modulo the live server
            // count, so the cursor only needs to advance monotonically.
            *start = start.wrapping_add(ops);
        }
        current
    }
}

/// One typed metadata operation, pre-hashed at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetadataOp {
    /// Insert metadata for a new file at a policy-chosen home.
    Create(PathKey),
    /// Resolve a pathname's home MDS through the scheme's hierarchy.
    Lookup(PathKey),
    /// Remove a file's metadata from its home (no-op if absent).
    Remove(PathKey),
    /// Migrate metadata: remove `from` at its old home, create `to` at a
    /// policy-chosen new home, refreshing filters via deltas on both
    /// sides. A rename of an absent file is a no-op.
    Rename {
        /// The existing pathname.
        from: PathKey,
        /// The new pathname.
        to: PathKey,
    },
}

impl MetadataOp {
    /// The op's primary pathname (`from` for renames).
    #[must_use]
    pub fn path(&self) -> &str {
        match self {
            MetadataOp::Create(key)
            | MetadataOp::Lookup(key)
            | MetadataOp::Remove(key)
            | MetadataOp::Rename { from: key, .. } => key.path(),
        }
    }

    /// `true` for lookups (the read path).
    #[must_use]
    pub fn is_read(&self) -> bool {
        matches!(self, MetadataOp::Lookup(_))
    }
}

/// An ordered batch of typed metadata operations plus the entry-server
/// policy they execute under.
///
/// Build with the `push_*` admission helpers (each hashes its pathname
/// once into a [`PathKey`]), hand to
/// [`MetadataService::execute`](crate::MetadataService::execute), then
/// [`clear`](OpBatch::clear) and reuse — the op vector's allocation is
/// kept.
///
/// # Examples
///
/// ```
/// use ghba_core::{GhbaCluster, GhbaConfig, MetadataService, OpBatch, OpOutcome};
///
/// let mut cluster = GhbaCluster::with_servers(
///     GhbaConfig::default().with_filter_capacity(1_000),
///     8,
/// );
/// let mut batch = OpBatch::new();
/// batch.push_create("/a/b");
/// batch.push_lookup("/a/b");
/// batch.push_rename("/a/b", "/a/c");
/// batch.push_lookup("/a/c");
/// let outcomes = cluster.execute(&batch);
/// let OpOutcome::Renamed { old_home, new_home } = outcomes[2] else {
///     panic!("third op was a rename");
/// };
/// assert!(old_home.is_some() && new_home.is_some());
/// assert_eq!(outcomes[3].home(), new_home);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpBatch {
    ops: Vec<MetadataOp>,
    entry: EntryPolicy,
}

impl Default for OpBatch {
    fn default() -> Self {
        OpBatch::new()
    }
}

impl OpBatch {
    /// Creates an empty batch under [`EntryPolicy::Random`].
    #[must_use]
    pub fn new() -> Self {
        OpBatch {
            ops: Vec::new(),
            entry: EntryPolicy::Random,
        }
    }

    /// Sets the entry-server policy (builder style).
    #[must_use]
    pub fn with_entry(mut self, entry: EntryPolicy) -> Self {
        self.entry = entry;
        self
    }

    /// The entry-server policy.
    #[must_use]
    pub fn entry_policy(&self) -> EntryPolicy {
        self.entry
    }

    /// Appends an already-built op.
    pub fn push(&mut self, op: MetadataOp) {
        self.ops.push(op);
    }

    /// Admits a lookup (hashing the path once).
    pub fn push_lookup(&mut self, path: impl Into<String>) {
        self.push(MetadataOp::Lookup(PathKey::new(path)));
    }

    /// Admits a create (hashing the path once).
    pub fn push_create(&mut self, path: impl Into<String>) {
        self.push(MetadataOp::Create(PathKey::new(path)));
    }

    /// Admits a remove (hashing the path once).
    pub fn push_remove(&mut self, path: impl Into<String>) {
        self.push(MetadataOp::Remove(PathKey::new(path)));
    }

    /// Admits a rename (hashing both paths once).
    pub fn push_rename(&mut self, from: impl Into<String>, to: impl Into<String>) {
        self.push(MetadataOp::Rename {
            from: PathKey::new(from),
            to: PathKey::new(to),
        });
    }

    /// The ops in admission order.
    #[must_use]
    pub fn ops(&self) -> &[MetadataOp] {
        &self.ops
    }

    /// Number of admitted ops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when no op is admitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Empties the batch (keeping its allocation and policy).
    pub fn clear(&mut self) {
        self.ops.clear();
    }
}

/// The per-op result of [`MetadataService::execute`]
/// (`outcomes[i]` answers `batch.ops()[i]`).
///
/// [`MetadataService::execute`]: crate::MetadataService::execute
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome {
    /// A create landed at `home`.
    Created {
        /// The MDS now homing the file.
        home: MdsId,
    },
    /// A lookup resolved (or exhausted the hierarchy): the full
    /// per-query record — home, resolution level, simulated latency,
    /// message count, entry server.
    Resolved(QueryOutcome),
    /// A remove completed; `home` is the former home (`None` if the path
    /// was homed nowhere).
    Removed {
        /// Where the file used to live.
        home: Option<MdsId>,
    },
    /// A rename migrated metadata between homes. `old_home` is where
    /// `from` lived (`None` = rename of an absent path, a no-op);
    /// `new_home` is where `to` now lives.
    Renamed {
        /// The home `from` was removed at.
        old_home: Option<MdsId>,
        /// The home `to` was created at.
        new_home: Option<MdsId>,
    },
}

impl OpOutcome {
    /// The lookup record, for [`OpOutcome::Resolved`] outcomes.
    #[must_use]
    pub fn query(&self) -> Option<&QueryOutcome> {
        match self {
            OpOutcome::Resolved(outcome) => Some(outcome),
            _ => None,
        }
    }

    /// The op's resulting home, when one exists: the created home, the
    /// resolved home, the removed-from home, or a rename's new home.
    #[must_use]
    pub fn home(&self) -> Option<MdsId> {
        match self {
            OpOutcome::Created { home } => Some(*home),
            OpOutcome::Resolved(outcome) => outcome.home,
            OpOutcome::Removed { home } => *home,
            OpOutcome::Renamed { new_home, .. } => *new_home,
        }
    }
}

/// The scheme hooks [`execute_vectored`] drives: entry-policy resolution,
/// fused lookup runs, and the write primitives.
///
/// Implemented by `GhbaCluster` and by the HBA/BFA baselines so all three
/// share one batch pipeline (fusion rules, rename migration, outcome
/// assembly) and therefore one, property-tested, execution semantics.
pub trait VectoredScheme {
    /// Resolves the serving MDS for op `op_index` under `policy`.
    /// [`EntryPolicy::Random`] must draw from the scheme's deterministic
    /// RNG exactly as the scheme's legacy per-call random pick did.
    fn resolve_entry(&mut self, policy: EntryPolicy, op_index: usize) -> MdsId;

    /// `true` when the scheme maintains per-entry L1 state (an LRU
    /// filter array) whose cache fills make a repeated `(entry, path)`
    /// pair order-sensitive within a fused run — the pipeline then
    /// splits the run so the later lookup observes the earlier one's
    /// fill, exactly as a sequential stream would. Schemes without an L1
    /// level (e.g. BFA, or clusters configured with `lru_capacity = 0`)
    /// return `false` and fuse straight through flash-crowd repeats.
    fn repeat_sensitive(&self) -> bool {
        true
    }

    /// Resolves a fused run of concurrent lookups — one batched walk of
    /// the scheme's hierarchy, reusing each key's admission fingerprint —
    /// returning one outcome per query in order.
    fn lookup_fused(&mut self, queries: &[(MdsId, &PathKey)]) -> Vec<QueryOutcome>;

    /// Called once before the pipeline starts a batch. Schemes arm
    /// batch-lifetime caches here: state that only reconfiguration could
    /// invalidate (candidate slot masks, membership snapshots) stays
    /// valid for the whole batch, because membership changes can never
    /// interleave with an executing batch. Anything writes can touch
    /// (filter contents, memory budgets) must not be cached across runs.
    fn batch_begin(&mut self) {}

    /// Called once after the batch completes; schemes drop their
    /// batch-lifetime caches so later calls never observe stale state
    /// across an intervening reconfiguration.
    fn batch_end(&mut self) {}

    /// Creates `key` at `home` (store + live filter + gated delta
    /// publish), reusing the admission fingerprint.
    fn apply_create(&mut self, key: &PathKey, home: MdsId);

    /// Removes `key` from its home, returning the former home.
    fn apply_remove(&mut self, key: &PathKey) -> Option<MdsId>;
}

/// The scheme hooks [`execute_vectored_concurrent`] drives: the
/// `&self` twin of [`VectoredScheme`] for the pin-once pipeline.
///
/// The contract mirrors [`VectoredScheme`] hook for hook, with the
/// lifetime differences spelled out in the module-level docs: one
/// snapshot pin per batch, writes appended to namespace shards under
/// per-shard locks, and a commit that folds pending create bits into
/// the published probe state through one slab swap.
pub trait ConcurrentScheme {
    /// The batch-lifetime snapshot pin. Holding it keeps the pinned
    /// route snapshot's epoch guard alive for the whole batch.
    type Pinned;

    /// Pins the route snapshot every fused run of this batch walks.
    fn pin_batch(&self) -> Self::Pinned;

    /// Resolves the serving MDS for op `op_index` under `policy`, from
    /// `&self`. [`EntryPolicy::Random`] must consume the scheme's
    /// deterministic RNG stream exactly as
    /// [`VectoredScheme::resolve_entry`] does, so a single-threaded
    /// concurrent replay draws the same servers as a sequential one.
    fn resolve_entry_concurrent(&self, policy: EntryPolicy, op_index: usize) -> MdsId;

    /// Whether a repeated `(entry, path)` pair must split a fused run.
    /// Defaults to `false`: the `&self` walk performs no L1 cache
    /// fills, so a repeat can observe nothing the first occurrence
    /// produced. (This matches the sequential pipeline's fusion
    /// boundaries exactly when `lru_capacity = 0`.)
    fn repeat_sensitive_concurrent(&self) -> bool {
        false
    }

    /// Resolves a fused run of concurrent lookups against the pinned
    /// snapshot, returning one outcome per query in order.
    fn lookup_fused_pinned(
        &self,
        pinned: &Self::Pinned,
        queries: &[(MdsId, &PathKey)],
    ) -> Vec<QueryOutcome>;

    /// Appends a pending create of `key` at `home` to its namespace
    /// shard.
    fn apply_create_concurrent(&self, key: &PathKey, home: MdsId);

    /// Appends a pending removal of `key`, returning the home it was
    /// removed from (`None` if the path is homed nowhere — then nothing
    /// is appended).
    fn apply_remove_concurrent(&self, key: &PathKey) -> Option<MdsId>;

    /// Folds the batch's pending create bits into the published probe
    /// state (one slab writer pass, one atomic swap). Called once after
    /// the batch's ops complete **and its pin is released** — a pin held
    /// across the publish would keep the displaced snapshot alive and
    /// force the writer's spare slab into a full deep copy. A batch
    /// that panics mid-flight leaves its pending records for the next
    /// commit or owner drain instead.
    fn commit_batch(&self);
}

/// Executes `batch` against `scheme` from a **shared** reference: the
/// pin-once twin of [`execute_vectored`].
///
/// Same control flow op for op — identical fusion rules (modulo
/// [`ConcurrentScheme::repeat_sensitive_concurrent`], which defaults to
/// `false` because the `&self` walk fills no L1 cache), identical
/// rename semantics (the new home is drawn only when the source
/// existed, so the RNG stream stays aligned with the sequential
/// pipeline), and one [`ConcurrentScheme::commit_batch`] after the last
/// op, once the batch's pin is dropped. Any number of threads may run this concurrently against the same
/// scheme; writes serialize per namespace shard and reads walk the
/// snapshot pinned at their own batch's admission.
pub fn execute_vectored_concurrent<S: ConcurrentScheme + ?Sized>(
    scheme: &S,
    batch: &OpBatch,
) -> Vec<OpOutcome> {
    let ops = batch.ops();
    let policy = batch.entry_policy();
    let mut outcomes: Vec<Option<OpOutcome>> = vec![None; ops.len()];
    let mut run: Vec<(usize, MdsId)> = Vec::new();

    let pinned = scheme.pin_batch();

    fn flush<S: ConcurrentScheme + ?Sized>(
        scheme: &S,
        pinned: &S::Pinned,
        ops: &[MetadataOp],
        run: &mut Vec<(usize, MdsId)>,
        outcomes: &mut [Option<OpOutcome>],
    ) {
        if run.is_empty() {
            return;
        }
        let queries: Vec<(MdsId, &PathKey)> = run
            .iter()
            .map(|&(i, entry)| {
                let MetadataOp::Lookup(key) = &ops[i] else {
                    unreachable!("only lookups join the fused run");
                };
                (entry, key)
            })
            .collect();
        for (&(i, _), outcome) in run.iter().zip(scheme.lookup_fused_pinned(pinned, &queries)) {
            outcomes[i] = Some(OpOutcome::Resolved(outcome));
        }
        run.clear();
    }

    let repeat_sensitive = scheme.repeat_sensitive_concurrent();
    for (i, op) in ops.iter().enumerate() {
        match op {
            MetadataOp::Lookup(key) => {
                let entry = scheme.resolve_entry_concurrent(policy, i);
                let repeat = repeat_sensitive
                    && run
                        .iter()
                        .any(|&(j, e)| e == entry && ops[j].path() == key.path());
                if repeat {
                    flush(scheme, &pinned, ops, &mut run, &mut outcomes);
                }
                run.push((i, entry));
            }
            MetadataOp::Create(key) => {
                flush(scheme, &pinned, ops, &mut run, &mut outcomes);
                let home = scheme.resolve_entry_concurrent(policy, i);
                scheme.apply_create_concurrent(key, home);
                outcomes[i] = Some(OpOutcome::Created { home });
            }
            MetadataOp::Remove(key) => {
                flush(scheme, &pinned, ops, &mut run, &mut outcomes);
                let home = scheme.apply_remove_concurrent(key);
                outcomes[i] = Some(OpOutcome::Removed { home });
            }
            MetadataOp::Rename { from, to } => {
                flush(scheme, &pinned, ops, &mut run, &mut outcomes);
                // Remove under `from`'s shard lock, release, create
                // under `to`'s — never both at once (see the
                // shard-ordering rules in the module docs).
                let old_home = scheme.apply_remove_concurrent(from);
                let new_home = old_home.map(|_| {
                    let home = scheme.resolve_entry_concurrent(policy, i);
                    scheme.apply_create_concurrent(to, home);
                    home
                });
                outcomes[i] = Some(OpOutcome::Renamed { old_home, new_home });
            }
        }
    }
    flush(scheme, &pinned, ops, &mut run, &mut outcomes);
    // Unpin first: the commit publishes a successor, and the snapshot it
    // displaces can only be recycled in place once no pin holds it.
    drop(pinned);
    scheme.commit_batch();
    outcomes
        .into_iter()
        .map(|outcome| outcome.expect("every op produced an outcome"))
        .collect()
}

/// Arms a scheme's batch-lifetime caches for the duration of one
/// [`execute_vectored`] call: [`VectoredScheme::batch_begin`] on
/// construction, [`VectoredScheme::batch_end`] on drop.
///
/// Pairing through a drop guard instead of two manual calls makes the
/// arm/disarm **exception-safe**: any exit from the pipeline — including
/// a panic unwinding out of `resolve_entry` (unknown pinned server) or a
/// scheme hook — still disarms, so a poisoned batch can never leak an
/// armed cache into the next call.
struct ArmedBatch<'a, S: VectoredScheme + ?Sized> {
    scheme: &'a mut S,
}

impl<'a, S: VectoredScheme + ?Sized> ArmedBatch<'a, S> {
    fn new(scheme: &'a mut S) -> Self {
        scheme.batch_begin();
        ArmedBatch { scheme }
    }
}

impl<S: VectoredScheme + ?Sized> Drop for ArmedBatch<'_, S> {
    fn drop(&mut self) {
        self.scheme.batch_end();
    }
}

/// Executes `batch` against `scheme`: the one mixed-op pipeline every
/// scheme shares.
///
/// * Maximal runs of consecutive lookups are **fused** and resolved by
///   one [`VectoredScheme::lookup_fused`] call (one batched slab pass per
///   level); a run is split only before a repeated `(entry, path)` pair,
///   whose later occurrence must observe the earlier lookup's L1 cache
///   fill exactly as a sequential replay would. Inside `lookup_fused`
///   the schemes may execute a large run **data-parallel** — chunked
///   across the worker pool against the shared read-only slab, with
///   side effects spliced back in stream order
///   (`ExecutorConfig`; outcomes bit-identical to `workers = 1`) —
///   which is why writes stay sequential in stream order *between* the
///   parallel read phases.
/// * Writes execute in stream order. Their filter mutations accumulate in
///   the home's live filter and ship as one grouped sparse `FilterDelta`
///   when the gated drift check publishes — at most one publish per
///   gate-window per MDS, never one per op.
/// * [`MetadataOp::Rename`] migrates: remove at the old home, create at
///   the policy-chosen new home (drawn only when the source existed).
///
/// Outcomes match issuing every op as its own 1-op batch, up to the
/// concurrent-request caveat spelled out in the module-level docs:
/// within a fused run, an earlier same-entry lookup's L1 fill for a
/// *different* path is not observed (an L1-false-positive-grade effect;
/// same-path repeats are split exactly so the common case is exact).
pub fn execute_vectored<S: VectoredScheme + ?Sized>(
    scheme: &mut S,
    batch: &OpBatch,
) -> Vec<OpOutcome> {
    let ops = batch.ops();
    let policy = batch.entry_policy();
    let mut outcomes: Vec<Option<OpOutcome>> = vec![None; ops.len()];
    // The fused read run: `(op index, entry server)` pairs awaiting one
    // batched lookup pass.
    let mut run: Vec<(usize, MdsId)> = Vec::new();

    fn flush<S: VectoredScheme + ?Sized>(
        scheme: &mut S,
        ops: &[MetadataOp],
        run: &mut Vec<(usize, MdsId)>,
        outcomes: &mut [Option<OpOutcome>],
    ) {
        if run.is_empty() {
            return;
        }
        let queries: Vec<(MdsId, &PathKey)> = run
            .iter()
            .map(|&(i, entry)| {
                let MetadataOp::Lookup(key) = &ops[i] else {
                    unreachable!("only lookups join the fused run");
                };
                (entry, key)
            })
            .collect();
        for (&(i, _), outcome) in run.iter().zip(scheme.lookup_fused(&queries)) {
            outcomes[i] = Some(OpOutcome::Resolved(outcome));
        }
        run.clear();
    }

    let repeat_sensitive = scheme.repeat_sensitive();
    // Arm through a drop guard: `batch_end` runs on every exit path,
    // panics included (see [`ArmedBatch`]).
    let armed = ArmedBatch::new(scheme);
    let scheme = &mut *armed.scheme;
    for (i, op) in ops.iter().enumerate() {
        match op {
            MetadataOp::Lookup(key) => {
                let entry = scheme.resolve_entry(policy, i);
                let repeat = repeat_sensitive
                    && run
                        .iter()
                        .any(|&(j, e)| e == entry && ops[j].path() == key.path());
                if repeat {
                    // The later lookup must see the earlier one's L1
                    // fill, as a sequential stream would.
                    flush(scheme, ops, &mut run, &mut outcomes);
                }
                run.push((i, entry));
            }
            MetadataOp::Create(key) => {
                flush(scheme, ops, &mut run, &mut outcomes);
                let home = scheme.resolve_entry(policy, i);
                scheme.apply_create(key, home);
                outcomes[i] = Some(OpOutcome::Created { home });
            }
            MetadataOp::Remove(key) => {
                flush(scheme, ops, &mut run, &mut outcomes);
                let home = scheme.apply_remove(key);
                outcomes[i] = Some(OpOutcome::Removed { home });
            }
            MetadataOp::Rename { from, to } => {
                flush(scheme, ops, &mut run, &mut outcomes);
                let old_home = scheme.apply_remove(from);
                let new_home = old_home.map(|_| {
                    let home = scheme.resolve_entry(policy, i);
                    scheme.apply_create(to, home);
                    home
                });
                outcomes[i] = Some(OpOutcome::Renamed { old_home, new_home });
            }
        }
    }
    flush(scheme, ops, &mut run, &mut outcomes);
    drop(armed);
    outcomes
        .into_iter()
        .map(|outcome| outcome.expect("every op produced an outcome"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryLevel;

    /// A scheme that records hook pairing and can be poisoned to panic
    /// mid-batch (the regression surface of the arm/disarm drop guard).
    #[derive(Default)]
    struct HookProbe {
        armed: bool,
        begins: u32,
        ends: u32,
        poison_lookup: bool,
    }

    impl VectoredScheme for HookProbe {
        fn resolve_entry(&mut self, _policy: EntryPolicy, _op_index: usize) -> MdsId {
            MdsId(0)
        }

        fn lookup_fused(&mut self, queries: &[(MdsId, &PathKey)]) -> Vec<QueryOutcome> {
            assert!(self.armed, "fused run outside an armed batch");
            if self.poison_lookup {
                panic!("poisoned batch");
            }
            queries
                .iter()
                .map(|&(entry, _)| QueryOutcome {
                    home: None,
                    level: QueryLevel::Nonexistent,
                    latency: core::time::Duration::ZERO,
                    messages: 0,
                    entry,
                    epoch: crate::ids::MembershipEpoch::default(),
                })
                .collect()
        }

        fn batch_begin(&mut self) {
            self.begins += 1;
            self.armed = true;
        }

        fn batch_end(&mut self) {
            self.ends += 1;
            self.armed = false;
        }

        fn apply_create(&mut self, _key: &PathKey, _home: MdsId) {}

        fn apply_remove(&mut self, _key: &PathKey) -> Option<MdsId> {
            None
        }
    }

    #[test]
    fn batch_hooks_pair_on_success() {
        let mut probe = HookProbe::default();
        let mut batch = OpBatch::new();
        batch.push_lookup("/a");
        batch.push_create("/b");
        batch.push_lookup("/c");
        let outcomes = execute_vectored(&mut probe, &batch);
        assert_eq!(outcomes.len(), 3);
        assert!(!probe.armed);
        assert_eq!((probe.begins, probe.ends), (1, 1));
    }

    #[test]
    fn poisoned_batch_disarms_cache() {
        let mut probe = HookProbe {
            poison_lookup: true,
            ..HookProbe::default()
        };
        let mut batch = OpBatch::new();
        batch.push_lookup("/poison");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = execute_vectored(&mut probe, &batch);
        }));
        assert!(result.is_err(), "the poisoned lookup must panic");
        // The drop guard must have disarmed during unwinding: no armed
        // state leaks into the next batch.
        assert!(!probe.armed, "panic leaked an armed batch cache");
        assert_eq!(probe.begins, probe.ends);
        probe.poison_lookup = false;
        let outcomes = execute_vectored(&mut probe, &batch);
        assert_eq!(outcomes.len(), 1);
        assert!(!probe.armed);
        assert_eq!((probe.begins, probe.ends), (2, 2));
    }

    #[test]
    fn round_robin_resolves_at_cursor_extremes_without_overflow() {
        let ids = [MdsId(0), MdsId(1), MdsId(2)];
        let mut policy = EntryPolicy::RoundRobin { start: usize::MAX };
        // usize::MAX % 3 == 0; op_index 1 wraps past MAX to 0.
        assert_eq!(policy.resolve_deterministic(&ids, 0), Some(MdsId(0)));
        assert_eq!(policy.resolve_deterministic(&ids, 1), Some(MdsId(0)));
        // The cursor itself wraps in place without panicking.
        let before = policy.advance(5);
        assert_eq!(before, EntryPolicy::RoundRobin { start: usize::MAX });
        assert_eq!(policy, EntryPolicy::RoundRobin { start: 4 });
    }

    #[test]
    fn path_key_hashes_once_and_matches() {
        let key = PathKey::new("/a/b/c");
        assert_eq!(key.path(), "/a/b/c");
        assert_eq!(key.fingerprint(), &Fingerprint::of("/a/b/c"));
    }

    #[test]
    fn batch_admission_builds_typed_ops() {
        let mut batch = OpBatch::new().with_entry(EntryPolicy::Pinned(MdsId(3)));
        batch.push_lookup("/x");
        batch.push_create("/y");
        batch.push_remove("/x");
        batch.push_rename("/y", "/z");
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.entry_policy(), EntryPolicy::Pinned(MdsId(3)));
        assert!(batch.ops()[0].is_read());
        assert!(!batch.ops()[1].is_read());
        assert_eq!(batch.ops()[3].path(), "/y");
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.entry_policy(), EntryPolicy::Pinned(MdsId(3)));
    }

    #[test]
    fn outcome_homes() {
        let created = OpOutcome::Created { home: MdsId(1) };
        assert_eq!(created.home(), Some(MdsId(1)));
        assert!(created.query().is_none());
        let removed = OpOutcome::Removed { home: None };
        assert_eq!(removed.home(), None);
        let renamed = OpOutcome::Renamed {
            old_home: Some(MdsId(0)),
            new_home: Some(MdsId(2)),
        };
        assert_eq!(renamed.home(), Some(MdsId(2)));
    }
}
