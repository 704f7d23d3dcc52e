//! Lock-free epoch snapshots: immutable routing state swapped by an
//! atomic pointer, so lookups are served *through* reconfiguration.
//!
//! Before this module, every reconfiguration was a full mutation
//! barrier: `&mut self` on the cluster meant no batch could be in
//! flight while a split/merge/rebalance rewrote the membership tables,
//! so churn serialized the whole cluster. The fix is the classic
//! RCU/arc-swap shape, built on `std` alone:
//!
//! * All published probe state — the bit-sliced replica slab, the
//!   group/membership tables, the per-group epochs — lives in one
//!   **immutable** [`RouteSnapshot`] behind a [`SnapshotCell`].
//! * A lookup **pins** the current snapshot with two atomic RMWs and
//!   walks L1–L4 against it end to end (including across the parallel
//!   chunk walkers, which already treat the state as read-only).
//! * A reconfiguration builds the **successor** snapshot off to the
//!   side — copy-on-write per group via [`Arc::make_mut`], sparse
//!   [`SlabOp`]s against a writer-private spare slab — and publishes it
//!   with a single slot flip. Readers pinned to the old snapshot finish
//!   undisturbed; new lookups see the new epoch.
//!
//! The cell is generic so the threaded prototype reuses it for its
//! `ClusterMap` (replacing an `RwLock` on the node hot path), and the
//! HBA baseline for its published slab.

use core::fmt;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ghba_bloom::{BloomFilter, FilterDelta, SharedShapeArray, SlotMask};

use crate::group::Group;
use crate::ids::{GroupEpoch, GroupId, MdsId, MembershipEpoch};
use std::collections::{BTreeMap, HashMap};
use std::sync::RwLock;

/// One of the cell's two value slots: the `Arc` being published plus a
/// count of readers currently *cloning out of* the slot (not of
/// outstanding pins — a pin holds the `Arc` itself once cloned, so the
/// guard is held only for the few instructions of the clone).
struct Slot<T> {
    refs: AtomicUsize,
    value: UnsafeCell<Option<Arc<T>>>,
}

impl<T> Slot<T> {
    fn new(value: Option<Arc<T>>) -> Self {
        Slot {
            refs: AtomicUsize::new(0),
            value: UnsafeCell::new(value),
        }
    }
}

/// A lock-free publication cell: readers [`pin`](SnapshotCell::pin) the
/// current immutable snapshot without taking any lock, while a single
/// writer (serialized by an internal mutex that also guards the
/// writer-private scratch state `W`) swaps in successors.
///
/// # Protocol
///
/// Two slots hold at most one `Arc<T>` each; `active` names the slot
/// readers should use. A reader loads `active`, increments that slot's
/// guard, re-checks `active`, and only then clones the `Arc` — so a
/// writer that flips `active` away can wait for the guard to drain and
/// then reclaim the displaced slot knowing no reader is mid-clone.
/// Readers never block: a reader that loses the race re-reads `active`
/// and retries against the new slot.
///
/// The guard handshake is a store-buffering (Dekker) shape — reader:
/// raise guard, re-check `active`; writer: flip `active`, read guard —
/// so those four operations use `SeqCst` (see `pin`); plain
/// Acquire/Release would let both sides miss each other and race the
/// writer's reclamation against a reader's clone.
///
/// The writer publishes into the *inactive* slot (reader-free by
/// induction: the previous publish drained it) and flips `active`; the
/// displaced `Arc` is handed back to the caller, whose reference count
/// tells it whether the old snapshot can be recycled in place (see
/// [`SlabSpare`]).
pub struct SnapshotCell<T, W = ()> {
    slots: [Slot<T>; 2],
    active: AtomicUsize,
    writer: Mutex<W>,
}

// SAFETY: the `UnsafeCell`s are only written by the single writer (the
// `writer` mutex serializes publishes) while the guarded-slot protocol
// proves no reader is accessing the written slot; everything readers
// extract is an `Arc<T>`, so `T` must be shareable and sendable.
unsafe impl<T: Send + Sync, W: Send> Sync for SnapshotCell<T, W> {}
unsafe impl<T: Send + Sync, W: Send> Send for SnapshotCell<T, W> {}

impl<T, W> fmt::Debug for SnapshotCell<T, W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("active", &self.active.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<T, W> SnapshotCell<T, W> {
    /// Creates a cell publishing `initial`, with `writer_state` as the
    /// scratch the writer lock protects (spare slabs, pending ops; `()`
    /// when the writer needs none).
    pub fn new(initial: T, writer_state: W) -> Self {
        SnapshotCell {
            slots: [Slot::new(Some(Arc::new(initial))), Slot::new(None)],
            active: AtomicUsize::new(0),
            writer: Mutex::new(writer_state),
        }
    }

    /// Pins the current snapshot: lock-free, two atomic RMWs on the
    /// fast path. The returned `Arc` stays valid — and immutable — for
    /// as long as the caller holds it, however many successors are
    /// published meanwhile.
    pub fn pin(&self) -> Arc<T> {
        loop {
            let at = self.active.load(Ordering::Acquire);
            let slot = &self.slots[at];
            // The guard-raise and the `active` re-check pair with the
            // writer's flip-then-drain in `publish` as a store-buffering
            // (Dekker) protocol: each side stores then loads what the
            // other stores. Acquire/Release cannot order that shape —
            // both sides may read the stale value and miss each other —
            // so all four operations are `SeqCst`: in the single total
            // order, either our re-check sees the writer's flip (we
            // bail below without touching the value), or our increment
            // precedes the writer's drain load, which then sees
            // `refs > 0` and waits for us.
            slot.refs.fetch_add(1, Ordering::SeqCst);
            if self.active.load(Ordering::SeqCst) == at {
                // SAFETY: the slot was active after we raised its
                // guard, so the writer (which only touches a slot once
                // it is inactive *and* drained) cannot be mutating it:
                // the SeqCst pairing above guarantees a writer that
                // flipped this slot away before our re-check is seen
                // here, and one that flips after sees our guard. The
                // re-check also synchronizes with the publishing store,
                // so the value is fully written.
                let pinned = unsafe { (*slot.value.get()).clone() };
                slot.refs.fetch_sub(1, Ordering::Release);
                if let Some(arc) = pinned {
                    return arc;
                }
            } else {
                slot.refs.fetch_sub(1, Ordering::Release);
            }
            core::hint::spin_loop();
        }
    }

    /// Opens the writer side: takes the writer lock (serializing
    /// against other publishers) and returns a handle that can read the
    /// scratch state, the current snapshot, and publish successors.
    pub fn edit(&self) -> CellWriter<'_, T, W> {
        CellWriter {
            cell: self,
            state: self.writer.lock().expect("snapshot writer poisoned"),
        }
    }
}

/// The writer side of a [`SnapshotCell`]: holds the writer lock for its
/// lifetime, so publishes through it are serialized and the scratch
/// state `W` is exclusively owned.
pub struct CellWriter<'a, T, W> {
    cell: &'a SnapshotCell<T, W>,
    state: MutexGuard<'a, W>,
}

impl<T, W> fmt::Debug for CellWriter<'_, T, W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CellWriter").finish_non_exhaustive()
    }
}

impl<T, W> CellWriter<'_, T, W> {
    /// The snapshot currently published (stable while this writer is
    /// open: only the holder of the writer lock can publish).
    pub fn base(&self) -> Arc<T> {
        self.cell.pin()
    }

    /// The writer-private scratch state.
    pub fn state(&mut self) -> &mut W {
        &mut self.state
    }

    /// Publishes `next` with a single slot flip and returns the
    /// displaced snapshot. Readers pinned to the displaced snapshot
    /// keep it alive through their own `Arc`s; once those drop, the
    /// returned `Arc` is the last reference and the caller may recycle
    /// its storage (see [`CellWriter::publish_slab`]).
    ///
    /// # Blocking
    ///
    /// Readers never block, but the publisher does: after the flip it
    /// spin-waits (yielding) for readers still inside the displaced
    /// slot's guard window — the few instructions between raising the
    /// guard and cloning the `Arc` out, *not* the lifetime of the pin.
    /// In the common case the guard is already zero and the wait is a
    /// single load; the wait is unbounded only if the OS preempts a
    /// reader inside that window, in which case the publisher (and, via
    /// the writer mutex it holds, every queued publisher) stalls until
    /// that reader is rescheduled. Lookups proceed unimpeded against
    /// the freshly published snapshot throughout; only reconfiguration
    /// latency is exposed to this inversion.
    pub fn publish(&mut self, next: T) -> Arc<T> {
        let at = self.cell.active.load(Ordering::Acquire);
        let to = 1 - at;
        let incoming = &self.cell.slots[to];
        // SAFETY: slot `to` is inactive, and no reader has cloned from
        // it since the previous publish drained it — a reader raising
        // its guard on an inactive slot re-checks `active` and bails
        // before ever touching the value. The writer lock makes us the
        // only writer.
        unsafe {
            *incoming.value.get() = Some(Arc::new(next));
        }
        // The flip and the drain load below are the writer's half of
        // the store-buffering pair with `pin`'s guard-raise/re-check;
        // see the comment there for why all four must be `SeqCst`.
        // `SeqCst` subsumes the Release needed to publish the value
        // write above and the Acquire needed to observe guard exits.
        self.cell.active.store(to, Ordering::SeqCst);
        // Drain readers still mid-clone in the displaced slot (a few
        // instructions each), then reclaim it. See "Blocking" above.
        // Bounded backoff: the guard window is a handful of instructions,
        // so a short spin almost always observes the exit without paying
        // a scheduler round trip; only a reader preempted inside the
        // window escalates us to `yield_now`.
        let outgoing = &self.cell.slots[at];
        let mut spins = 0u32;
        while outgoing.refs.load(Ordering::SeqCst) != 0 {
            if spins < 64 {
                spins += 1;
                core::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // SAFETY: the slot is inactive (we just flipped `active`) and
        // drained, so no reader can be reading the value.
        let displaced = unsafe { (*outgoing.value.get()).take() };
        displaced.expect("the active slot always holds a snapshot")
    }
}

/// One deferred mutation of the published slab, recorded during a
/// routing edit and applied to both the successor and the recycled
/// spare slab (see [`SlabSpare`]). Sparse by construction: a delta
/// touches only the changed bit-rows, a push/remove one column.
#[derive(Debug, Clone)]
pub enum SlabOp {
    /// Append a fresh (empty) column for a joining server.
    Push(MdsId),
    /// Append a column initialized from a full filter (restoring a
    /// retired server's published snapshot).
    PushFilter(MdsId, BloomFilter),
    /// Drop a departing server's column.
    Remove(MdsId),
    /// Fold a sparse publish delta into a server's column.
    Delta(MdsId, FilterDelta),
}

/// Applies `ops` to `slab`, returning the bit-rows its deltas wrote.
fn apply_slab_ops(slab: &mut SharedShapeArray<MdsId>, ops: &[SlabOp]) -> u64 {
    let mut rows = 0;
    for op in ops {
        match op {
            SlabOp::Push(id) => slab.push(*id).expect("fresh id is unique in the slab"),
            SlabOp::PushFilter(id, filter) => slab
                .push_filter(*id, filter)
                .expect("restored column matches the slab shape"),
            SlabOp::Remove(id) => {
                slab.remove(*id);
            }
            SlabOp::Delta(id, delta) => {
                rows += slab
                    .apply_delta(*id, delta)
                    .expect("slab tracks every published server") as u64;
            }
        }
    }
    rows
}

/// What one [`CellWriter::publish_slab`] cost the writer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlabPublish {
    /// Slab bit-rows the publish's [`SlabOp::Delta`]s wrote, summed
    /// over the spare and, when it was recycled, the displaced slab —
    /// one row per flipped bit per slab (see
    /// [`ClusterStats::slab_rows_written`]).
    ///
    /// [`ClusterStats::slab_rows_written`]: crate::ClusterStats::slab_rows_written
    pub rows_written: u64,
    /// `true` when a pin on the displaced snapshot forced the spare's
    /// deep-copy fallback (see [`ClusterStats::slab_spare_copies`]).
    ///
    /// [`ClusterStats::slab_spare_copies`]: crate::ClusterStats::slab_spare_copies
    pub deep_copied: bool,
}

/// The writer-private spare slab that keeps slab-touching publishes
/// cheap: instead of deep-copying the O(servers × filter bits) slab for
/// every successor snapshot, the writer keeps **one** spare mirror of
/// the published slab, applies the edit's sparse [`SlabOp`]s to it, and
/// publishes it; the displaced snapshot's slab — once its readers drain
/// — is caught up with the same ops and becomes the next spare.
///
/// # Cost contract
///
/// A publish ([`CellWriter::publish_slab`]) of [`SlabOp::Delta`]s costs
/// `O(changed bits)` twice — one row write per flipped bit on the
/// spare, and the same again catching up the displaced slab — and
/// allocates nothing slab-sized: while the successor is being
/// published the spare is simply empty, never a zero-filled
/// placeholder. The one full-width cost left is the fallback: when
/// something still pins the displaced snapshot, its slab cannot be
/// reclaimed and the spare is restocked by deep-copying the published
/// slab. Publishers therefore **release their own pin before
/// committing** — a batch that commits while still holding the
/// snapshot it admitted under forces that copy on itself.
/// `publish_slab` reports the rows written and each fallback so owners
/// can count them ([`ClusterStats::slab_rows_written`],
/// [`ClusterStats::slab_spare_copies`]).
///
/// [`ClusterStats::slab_rows_written`]: crate::ClusterStats::slab_rows_written
/// [`ClusterStats::slab_spare_copies`]: crate::ClusterStats::slab_spare_copies
#[derive(Debug)]
pub struct SlabSpare {
    /// The mirror; `None` only between `advance` and `recycle` of one
    /// publish (both run under the cell's writer lock).
    slab: Option<SharedShapeArray<MdsId>>,
}

impl SlabSpare {
    /// Wraps a mirror of the currently published slab.
    pub fn new(mirror: SharedShapeArray<MdsId>) -> Self {
        SlabSpare { slab: Some(mirror) }
    }

    /// Applies `ops` to the spare and hands it out as the successor
    /// snapshot's slab, leaving the spare empty, with the rows its
    /// deltas wrote. The caller must publish it and then call
    /// [`recycle`](SlabSpare::recycle) with the displaced slab.
    ///
    /// # Panics
    ///
    /// Panics if the previous `advance` was never followed by its
    /// `recycle`.
    fn advance(&mut self, ops: &[SlabOp]) -> (Arc<SharedShapeArray<MdsId>>, u64) {
        let mut slab = self
            .slab
            .take()
            .expect("the previous publish restocked the spare");
        let rows = apply_slab_ops(&mut slab, ops);
        (Arc::new(slab), rows)
    }

    /// Restocks the spare after a publish: catches the displaced slab
    /// up with the edit's ops (cheap, sparse) when its storage came
    /// back exclusively, or deep-copies the published slab when a pin
    /// still holds it. Returns the rows the catch-up wrote, or `None`
    /// when it fell back to the copy.
    fn recycle(
        &mut self,
        displaced: Option<SharedShapeArray<MdsId>>,
        ops: &[SlabOp],
        published: &SharedShapeArray<MdsId>,
    ) -> Option<u64> {
        let (slab, rows) = match displaced {
            Some(mut slab) => {
                let rows = apply_slab_ops(&mut slab, ops);
                (slab, Some(rows))
            }
            None => (published.clone(), None),
        };
        debug_assert_eq!(
            slab.len(),
            published.len(),
            "recycled spare diverged from the published slab"
        );
        self.slab = Some(slab);
        rows
    }
}

impl<T> CellWriter<'_, T, SlabSpare> {
    /// Publishes `work` as the successor snapshot, folding `ops` into
    /// its slab (reached through `slab_of`) by the [`SlabSpare`]
    /// protocol: the spare absorbs the ops and becomes the successor's
    /// slab, and the displaced slab restocks the spare. An empty `ops`
    /// publishes `work` as is, sharing the current slab. Returns the
    /// slab rows the ops' deltas wrote and whether a pin on the
    /// displaced snapshot forced the spare's deep-copy fallback.
    pub fn publish_slab(
        &mut self,
        mut work: T,
        ops: &[SlabOp],
        slab_of: fn(&mut T) -> &mut Arc<SharedShapeArray<MdsId>>,
    ) -> SlabPublish {
        if ops.is_empty() {
            self.publish(work);
            return SlabPublish::default();
        }
        let (published, spare_rows) = self.state().advance(ops);
        *slab_of(&mut work) = Arc::clone(&published);
        let displaced = Arc::try_unwrap(self.publish(work))
            .ok()
            .and_then(|mut prev| {
                let slab = core::mem::replace(slab_of(&mut prev), Arc::clone(&published));
                Arc::try_unwrap(slab).ok()
            });
        let caught_up = self.state().recycle(displaced, ops, &published);
        SlabPublish {
            rows_written: spare_rows + caught_up.unwrap_or(0),
            deep_copied: caught_up.is_none(),
        }
    }
}

/// One entry server's shared L2 state: its held-replica candidate mask
/// plus the held count the probe-latency model needs, tagged with the
/// `(gid, GroupEpoch)` it was built under — the same validity contract
/// as the owner walk's persistent `MaskCache`.
#[derive(Debug)]
pub(crate) struct SharedL2 {
    pub(crate) gid: GroupId,
    pub(crate) tag: GroupEpoch,
    pub(crate) mask: SlotMask,
    pub(crate) held: usize,
}

/// One group's shared L3 state: the member list with held counts (the
/// multicast latency inputs) and the group-mirror candidate mask,
/// tagged like [`SharedL2`].
#[derive(Debug)]
pub(crate) struct SharedL3 {
    pub(crate) tag: GroupEpoch,
    pub(crate) mask: SlotMask,
    pub(crate) member_held: Vec<(MdsId, usize)>,
}

/// Cross-snapshot shared candidate-mask cache for the pinned (`&self`)
/// walk — the lock-free read path's counterpart of the owner walk's
/// persistent `MaskCache`.
///
/// The cache object is shared (one `Arc`, cloned into every successor
/// [`RouteSnapshot`]), so masks built by one reader warm every later
/// reader on any snapshot generation. Validity is per entry: each
/// cached mask carries the `(gid, GroupEpoch)` it was built under, and
/// a consulting reader accepts it only when its *own* pinned snapshot
/// reports the same group epoch. Group epochs bump exactly when an
/// edit changes state masks depend on (`touch_group`; membership
/// events touch every group because they shift slab layout), so:
///
/// * groups untouched by a split/merge/rebalance keep their masks warm
///   through the publish — the observable form of the per-group-epoch
///   contract on the concurrent path, and what the adaptive
///   controller's reconfigurations rely on to leave cold groups'
///   serving costs alone;
/// * a reader pinned to a pre-edit snapshot that races a post-edit
///   reader can at worst overwrite the other's entry with one tagged
///   for its own epoch (both remain correct for their consumers; the
///   loser rebuilds — a miss, never a wrong mask).
///
/// Entries are keyed by ids that are never recycled, so the maps are
/// bounded by the ids ever live (`u16` space); merges evict their
/// dissolved group eagerly ([`RouteEdit::remove_group`]).
#[derive(Debug, Default)]
pub(crate) struct SharedMaskCache {
    l2: RwLock<HashMap<MdsId, Arc<SharedL2>>>,
    l3: RwLock<HashMap<GroupId, Arc<SharedL3>>>,
}

impl SharedMaskCache {
    /// The cached L2 state of `entry` if it was built under `(gid,
    /// tag)` — the consulting snapshot's view of the entry's group.
    pub(crate) fn l2(&self, entry: MdsId, gid: GroupId, tag: GroupEpoch) -> Option<Arc<SharedL2>> {
        let map = self.l2.read().expect("mask cache poisoned");
        map.get(&entry)
            .filter(|e| e.gid == gid && e.tag == tag)
            .cloned()
    }

    /// Publishes a freshly built L2 state (last writer wins).
    pub(crate) fn put_l2(&self, entry: MdsId, fresh: Arc<SharedL2>) {
        self.l2
            .write()
            .expect("mask cache poisoned")
            .insert(entry, fresh);
    }

    /// The cached L3 state of `gid` if it was built under `tag`.
    pub(crate) fn l3(&self, gid: GroupId, tag: GroupEpoch) -> Option<Arc<SharedL3>> {
        let map = self.l3.read().expect("mask cache poisoned");
        map.get(&gid).filter(|e| e.tag == tag).cloned()
    }

    /// Publishes a freshly built L3 state (last writer wins).
    pub(crate) fn put_l3(&self, gid: GroupId, fresh: Arc<SharedL3>) {
        self.l3
            .write()
            .expect("mask cache poisoned")
            .insert(gid, fresh);
    }

    /// Evicts a dissolved group's L3 state. Its former members' L2
    /// entries self-invalidate by tag and are overwritten on their next
    /// consultation.
    fn evict_group(&self, gid: GroupId) {
        self.l3.write().expect("mask cache poisoned").remove(&gid);
    }
}

/// The immutable routing state one lookup walks against: everything the
/// L1–L4 escalation reads that reconfiguration can move. Snapshots are
/// only ever replaced wholesale (via [`SnapshotCell`]), never mutated,
/// so a pinned snapshot observes one consistent epoch end to end.
#[derive(Debug, Clone)]
pub struct RouteSnapshot {
    /// Every server's published filter, bit-sliced for hash-once array
    /// probes. Shared (not copied) by successor snapshots whose edits
    /// leave filter content alone — rebalances, splits, and merges move
    /// *placement*, not filter bits.
    pub(crate) slab: Arc<SharedShapeArray<MdsId>>,
    /// Live groups; copy-on-write per group, so an edit touching one
    /// group shares every other group's storage with its predecessor.
    pub(crate) groups: BTreeMap<GroupId, Arc<Group>>,
    /// Server → group membership index.
    pub(crate) group_of: BTreeMap<MdsId, GroupId>,
    /// Per-group configuration versions (see [`GroupEpoch`]).
    pub(crate) group_epochs: BTreeMap<GroupId, GroupEpoch>,
    /// The membership epoch this snapshot was published under.
    pub(crate) epoch: MembershipEpoch,
    /// Monotonic group-id allocator (ids are never recycled); lives in
    /// the snapshot so concurrent reconfiguration handles allocate
    /// consistently under the writer lock.
    pub(crate) next_group: u16,
    /// The shared candidate-mask cache for pinned walks — one object
    /// per cluster, cloned (shared) into every successor snapshot so
    /// masks stay warm across publishes for groups whose epoch did not
    /// move. See [`SharedMaskCache`].
    pub(crate) masks: Arc<SharedMaskCache>,
}

impl RouteSnapshot {
    /// An empty routing state (no servers, no groups).
    pub(crate) fn empty(slab: SharedShapeArray<MdsId>) -> Self {
        RouteSnapshot {
            slab: Arc::new(slab),
            groups: BTreeMap::new(),
            group_of: BTreeMap::new(),
            group_epochs: BTreeMap::new(),
            epoch: MembershipEpoch::default(),
            next_group: 0,
            masks: Arc::new(SharedMaskCache::default()),
        }
    }

    /// The membership epoch this snapshot was published under.
    #[must_use]
    pub fn epoch(&self) -> MembershipEpoch {
        self.epoch
    }

    /// The configuration version of `gid` under this snapshot (default
    /// for groups never touched — including groups that do not exist,
    /// which no valid cache entry can name).
    #[must_use]
    pub fn group_epoch(&self, gid: GroupId) -> GroupEpoch {
        self.group_epochs.get(&gid).copied().unwrap_or_default()
    }

    /// The group a server belongs to.
    #[must_use]
    pub fn group_of(&self, id: MdsId) -> Option<GroupId> {
        self.group_of.get(&id).copied()
    }

    /// Borrow a group.
    #[must_use]
    pub fn group(&self, gid: GroupId) -> Option<&Group> {
        self.groups.get(&gid).map(|g| &**g)
    }

    /// Replicas held by `id` under this snapshot's placement.
    #[must_use]
    pub fn replicas_held_by(&self, id: MdsId) -> Vec<MdsId> {
        match self.group_of(id).and_then(|g| self.groups.get(&g)) {
            Some(group) => group.replicas_held_by(id),
            None => Vec::new(),
        }
    }
}

/// The cell type G-HBA publishes its routing snapshots through.
pub(crate) type RouteCell = Arc<SnapshotCell<RouteSnapshot, SlabSpare>>;

/// Builds a fresh cell around `snapshot` (spare slab mirrored from it).
pub(crate) fn route_cell(snapshot: RouteSnapshot) -> RouteCell {
    let spare = SlabSpare::new((*snapshot.slab).clone());
    Arc::new(SnapshotCell::new(snapshot, spare))
}

/// One open routing edit: a working copy of the current snapshot
/// (cheap: `Arc` clones per group plus the index maps) being mutated
/// off to the side, plus the slab ops to fold in at commit. Holds the
/// cell's writer lock, so edits — owner-driven or from a
/// [`ReconfigHandle`] — serialize; readers are never blocked.
pub(crate) struct RouteEdit<'a> {
    writer: CellWriter<'a, RouteSnapshot, SlabSpare>,
    pub(crate) work: RouteSnapshot,
    ops: Vec<SlabOp>,
    granularity: crate::config::EpochGranularity,
    /// Groups dissolved by this edit (merges, emptied groups): the
    /// owner evicts their cached L3 masks after committing.
    pub(crate) dissolved: Vec<GroupId>,
}

impl fmt::Debug for RouteEdit<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RouteEdit")
            .field("ops", &self.ops.len())
            .finish_non_exhaustive()
    }
}

impl<'a> RouteEdit<'a> {
    /// Opens an edit against the cell's current snapshot.
    pub(crate) fn begin(
        cell: &'a SnapshotCell<RouteSnapshot, SlabSpare>,
        granularity: crate::config::EpochGranularity,
    ) -> Self {
        let writer = cell.edit();
        let work = (*writer.base()).clone();
        RouteEdit {
            writer,
            work,
            ops: Vec::new(),
            granularity,
            dissolved: Vec::new(),
        }
    }

    /// Queues a slab mutation for commit. Edits never read the slab
    /// back, so deferred application is invisible to them.
    pub(crate) fn push_op(&mut self, op: SlabOp) {
        self.ops.push(op);
    }

    /// Mutable access to a group, copy-on-write: the first touch clones
    /// the group out of the shared predecessor.
    ///
    /// # Panics
    ///
    /// Panics if `gid` is not a live group.
    pub(crate) fn group_mut(&mut self, gid: GroupId) -> &mut Group {
        Arc::make_mut(self.work.groups.get_mut(&gid).expect("group exists"))
    }

    /// Inserts a brand-new group.
    pub(crate) fn insert_group(&mut self, group: Group) {
        self.work.groups.insert(group.id(), Arc::new(group));
    }

    /// Allocates the next group id (monotonic, never recycled).
    pub(crate) fn alloc_group_id(&mut self) -> GroupId {
        let gid = GroupId(self.work.next_group);
        self.work.next_group += 1;
        gid
    }

    /// Removes a dissolved group and its epoch entry, recording it so
    /// the owner can evict its cached masks.
    pub(crate) fn remove_group(&mut self, gid: GroupId) -> Option<Arc<Group>> {
        let group = self.work.groups.remove(&gid);
        self.work.group_epochs.remove(&gid);
        if group.is_some() {
            self.dissolved.push(gid);
            self.work.masks.evict_group(gid);
        }
        group
    }

    /// Advances the membership epoch (see
    /// [`MembershipEpoch`](crate::MembershipEpoch)).
    pub(crate) fn bump_epoch(&mut self) {
        self.work.epoch.bump();
    }

    /// Records that this edit changed state `gid`'s derived masks
    /// depend on (membership, replica placement, or held counts). Under
    /// [`EpochGranularity::Global`](crate::EpochGranularity) this
    /// degrades to the all-or-nothing flush.
    pub(crate) fn touch_group(&mut self, gid: GroupId) {
        match self.granularity {
            crate::config::EpochGranularity::PerGroup => {
                self.work.group_epochs.entry(gid).or_default().bump();
            }
            crate::config::EpochGranularity::Global => self.touch_all_groups(),
        }
    }

    /// Bumps every live group's epoch — the invalidation scope of
    /// reconfigurations that place or drop a replica in every group.
    pub(crate) fn touch_all_groups(&mut self) {
        let gids: Vec<GroupId> = self.work.groups.keys().copied().collect();
        for gid in gids {
            self.work.group_epochs.entry(gid).or_default().bump();
        }
    }

    /// Publishes the successor snapshot with one pointer swap, folding
    /// the queued slab ops through the spare-slab recycling protocol
    /// ([`CellWriter::publish_slab`]).
    ///
    /// Cost: `O(changed bits)` for [`SlabOp::Delta`]s — one row write
    /// per flipped bit on each of the two slabs — and no slab-sized
    /// allocation, provided the committer holds no pin on the current
    /// snapshot. Release the batch's pin *before* committing; a pin
    /// still held here forces the spare's deep copy of the whole slab.
    /// Returns the rows written and whether that fallback ran (owners
    /// count them in [`ClusterStats::slab_rows_written`] and
    /// [`ClusterStats::slab_spare_copies`]).
    ///
    /// [`ClusterStats::slab_rows_written`]: crate::ClusterStats::slab_rows_written
    /// [`ClusterStats::slab_spare_copies`]: crate::ClusterStats::slab_spare_copies
    pub(crate) fn commit(mut self) -> SlabPublish {
        self.writer
            .publish_slab(self.work, &self.ops, |snapshot| &mut snapshot.slab)
    }
}

/// A cloneable, thread-safe handle that drives G-HBA group
/// reconfigurations **concurrently with lookups**: rebalances, splits,
/// and merges are pure routing edits (they move replica *placement*,
/// not server state), so a background thread can publish them through
/// the snapshot cell while pinned readers keep resolving against the
/// epoch they admitted under.
///
/// Handle-driven operations do not update the owner's aggregate
/// [`ClusterStats`](crate::ClusterStats) (the owner may be mid-batch on
/// another thread); they return their own move/report counts instead.
#[derive(Debug, Clone)]
pub struct ReconfigHandle {
    pub(crate) routes: RouteCell,
    pub(crate) max_group_size: usize,
    pub(crate) granularity: crate::config::EpochGranularity,
}

impl ReconfigHandle {
    /// The membership epoch of the currently published snapshot.
    #[must_use]
    pub fn epoch(&self) -> MembershipEpoch {
        self.routes.pin().epoch
    }

    /// Ids of the live groups under the current snapshot.
    #[must_use]
    pub fn group_ids(&self) -> Vec<GroupId> {
        self.routes.pin().groups.keys().copied().collect()
    }

    /// The configured maximum group size this handle enforces — the
    /// split rule keeps `max/2 + 1` members behind, merges refuse
    /// combined sizes past it. Controllers size their plans with this.
    #[must_use]
    pub fn max_group_size(&self) -> usize {
        self.max_group_size
    }

    /// Members of `gid` under the current snapshot, if it is live.
    #[must_use]
    pub fn group_members(&self, gid: GroupId) -> Option<Vec<MdsId>> {
        self.routes
            .pin()
            .groups
            .get(&gid)
            .map(|g| g.members().to_vec())
    }

    /// Rebalances `gid` (heaviest-to-lightest replica moves until the
    /// spread is ≤ 1) and publishes the result. Returns the number of
    /// moves, or `None` if the group is no longer live.
    #[must_use]
    pub fn rebalance_group(&self, gid: GroupId) -> Option<u64> {
        let mut edit = RouteEdit::begin(&self.routes, self.granularity);
        if !edit.work.groups.contains_key(&gid) {
            return None;
        }
        edit.bump_epoch();
        edit.touch_group(gid);
        let moves = edit.rebalance(gid);
        edit.commit();
        Some(moves)
    }

    /// Splits `gid` per §3.2 and publishes the result. Returns the new
    /// group's id, or `None` when the group is missing or too small for
    /// the split rule to leave both halves non-empty.
    #[must_use]
    pub fn split_group(&self, gid: GroupId) -> Option<GroupId> {
        let mut edit = RouteEdit::begin(&self.routes, self.granularity);
        let take = self.max_group_size / 2 + 1;
        let len = edit.work.groups.get(&gid).map(|g| g.len())?;
        if len <= take {
            return None;
        }
        let (new_gid, _report) = edit.split(gid, self.max_group_size);
        edit.commit();
        Some(new_gid)
    }

    /// Merges group `b` into group `a` and publishes the result.
    /// Returns `false` (without publishing) unless both groups are live,
    /// distinct, and fit within the configured maximum together.
    pub fn merge_groups(&self, a: GroupId, b: GroupId) -> bool {
        let mut edit = RouteEdit::begin(&self.routes, self.granularity);
        if a == b {
            return false;
        }
        let Some(len_a) = edit.work.groups.get(&a).map(|g| g.len()) else {
            return false;
        };
        let Some(len_b) = edit.work.groups.get(&b).map(|g| g.len()) else {
            return false;
        };
        if len_a + len_b > self.max_group_size {
            return false;
        }
        let _report = edit.merge(a, b);
        edit.commit();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn pin_returns_published_value() {
        let cell: SnapshotCell<u32> = SnapshotCell::new(7, ());
        assert_eq!(*cell.pin(), 7);
        let mut writer = cell.edit();
        assert_eq!(*writer.base(), 7);
        let displaced = writer.publish(8);
        assert_eq!(*displaced, 7);
        drop(writer);
        assert_eq!(*cell.pin(), 8);
    }

    #[test]
    fn pins_outlive_publishes() {
        let cell: SnapshotCell<u32> = SnapshotCell::new(0, ());
        let old = cell.pin();
        for round in 1..10 {
            let mut writer = cell.edit();
            writer.publish(round);
        }
        assert_eq!(*old, 0, "a pinned snapshot is immutable across swaps");
        assert_eq!(*cell.pin(), 9);
    }

    #[test]
    fn displaced_arc_becomes_exclusive_once_pins_drop() {
        let cell: SnapshotCell<Vec<u8>> = SnapshotCell::new(vec![1], ());
        let pin = cell.pin();
        let mut writer = cell.edit();
        let displaced = writer.publish(vec![2]);
        assert!(
            Arc::try_unwrap(displaced.clone()).is_err(),
            "the pin still shares the displaced snapshot"
        );
        drop(pin);
        drop(displaced.clone());
        assert_eq!(Arc::strong_count(&displaced), 1);
        assert_eq!(Arc::try_unwrap(displaced).expect("exclusive"), vec![1]);
    }

    /// Readers hammering `pin` observe only fully-formed, monotonically
    /// advancing snapshots while a writer publishes continuously.
    #[test]
    fn concurrent_readers_see_monotonic_snapshots() {
        let cell: Arc<SnapshotCell<(u64, u64)>> = Arc::new(SnapshotCell::new((0, 0), ()));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut last = 0u64;
                    let mut seen = 0u64;
                    // Pin at least once even if this thread is first
                    // scheduled after the writer finished (single-core
                    // machines).
                    loop {
                        let snap = cell.pin();
                        assert_eq!(snap.0, snap.1, "torn snapshot observed");
                        assert!(snap.0 >= last, "snapshot went backwards");
                        last = snap.0;
                        seen += 1;
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    seen
                })
            })
            .collect();
        for value in 1..=500u64 {
            let mut writer = cell.edit();
            writer.publish((value, value));
        }
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            assert!(reader.join().expect("reader panicked") > 0);
        }
        assert_eq!(*cell.pin(), (500, 500));
    }

    /// Under reader/writer contention every published snapshot is
    /// dropped exactly once and never observed torn — the practical
    /// stand-in for a loom model of the SeqCst guard handshake (loom is
    /// not a dependency): a writer-side drain racing a reader's clone
    /// shows up here as a payload-canary failure, a refcount crash, or
    /// a drop-count mismatch.
    #[test]
    fn every_snapshot_dropped_exactly_once_under_contention() {
        const CANARY: u64 = 0x5EED_CAFE;
        struct Counted {
            value: u64,
            canary: u64,
            drops: Arc<AtomicUsize>,
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                assert_eq!(self.canary, self.value ^ CANARY, "payload torn");
                self.drops.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let make = |value: u64| Counted {
            value,
            canary: value ^ CANARY,
            drops: Arc::clone(&drops),
        };
        const PUBLISHES: u64 = 2_000;
        let cell: Arc<SnapshotCell<Counted>> = Arc::new(SnapshotCell::new(make(0), ()));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                thread::spawn(move || loop {
                    let snap = cell.pin();
                    assert_eq!(snap.canary, snap.value ^ CANARY, "pinned payload torn");
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                })
            })
            .collect();
        for value in 1..=PUBLISHES {
            let mut writer = cell.edit();
            let _displaced = writer.publish(make(value));
        }
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            reader.join().expect("reader panicked");
        }
        drop(cell);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            PUBLISHES as usize + 1,
            "each snapshot reclaimed exactly once"
        );
    }

    #[test]
    fn slab_spare_recycles_through_the_publish_protocol() {
        use ghba_bloom::FilterShape;
        let shape = FilterShape {
            bits: 256,
            hashes: 3,
            seed: 9,
        };
        let mut published = Arc::new(SharedShapeArray::<MdsId>::new(shape));
        let mut spare = SlabSpare::new((*published).clone());
        let mut filter = BloomFilter::new(shape.bits, shape.hashes, shape.seed);
        filter.insert("hello");
        let rounds: Vec<Vec<SlabOp>> = vec![
            vec![SlabOp::Push(MdsId(0)), SlabOp::Push(MdsId(1))],
            vec![SlabOp::PushFilter(MdsId(2), filter)],
            vec![SlabOp::Remove(MdsId(1))],
        ];
        let mirror = |spare: &SlabSpare| -> Vec<MdsId> {
            spare.slab.as_ref().expect("restocked").ids().collect()
        };
        for ops in &rounds {
            let (next, _) = spare.advance(ops);
            assert!(spare.slab.is_none(), "no placeholder while published");
            let displaced = Arc::try_unwrap(core::mem::replace(&mut published, next)).ok();
            assert!(
                spare.recycle(displaced, ops, &published).is_some(),
                "in place"
            );
        }
        let ids: Vec<MdsId> = published.ids().collect();
        assert_eq!(ids, vec![MdsId(0), MdsId(2)]);
        assert_eq!(mirror(&spare), ids, "spare mirrors the published slab");
        // A held reference forces the deep-copy fallback; the spare must
        // still mirror the published slab afterwards.
        let hold = Arc::clone(&published);
        let ops = vec![SlabOp::Push(MdsId(3))];
        let (next, _) = spare.advance(&ops);
        let displaced = Arc::try_unwrap(core::mem::replace(&mut published, next)).ok();
        assert!(
            displaced.is_none(),
            "the held pin blocks in-place recycling"
        );
        assert_eq!(
            spare.recycle(displaced, &ops, &published),
            None,
            "the fallback reports its deep copy"
        );
        // The push reuses the slot the removal tombstoned, so slot order
        // is [0, 3, 2]; what matters is spare == published.
        assert_eq!(mirror(&spare), published.ids().collect::<Vec<_>>());
        assert_eq!(mirror(&spare), vec![MdsId(0), MdsId(3), MdsId(2)]);
        drop(hold);
    }
}
