//! The per-MDS node thread: owns its metadata, filters, and replicas;
//! communicates only through the channel fabric.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use ghba_bloom::{BloomFilter, Fingerprint, Hit, ProbeBatch, SharedShapeArray};
use ghba_core::exec::run_chunked;
use ghba_core::{published_shape, GhbaConfig, Mds, MdsId, QueryLevel};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::RwLock;

use crate::map::{ClusterMap, SharedMap};
use crate::message::{LookupReply, Message, QueryId};
use crate::net::Network;

/// Latest published filter per origin, readable by the runtime when it
/// must seed a fresh replica during reconfiguration (the stand-in for a
/// holder-to-holder transfer; the transfer message itself is still sent
/// and counted on the fabric).
pub type PublishedRegistry = Arc<RwLock<HashMap<MdsId, BloomFilter>>>;

struct Pending {
    path: String,
    fp: Fingerprint,
    reply: Sender<LookupReply>,
    start: Instant,
    messages: u32,
    awaiting: usize,
    positives: Vec<MdsId>,
    stage: Stage,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Waiting for a VerifyReply; on failure continue at the given level.
    Verify {
        level: QueryLevel,
        on_fail: Escalation,
    },
    Group,
    Global,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Escalation {
    L2,
    Group,
    Global,
}

/// One metadata server node of the prototype cluster.
pub struct Node {
    id: MdsId,
    mds: Mds,
    /// Held replicas, bit-sliced: every origin's published filter shares
    /// one shape, so group/global probes are one hash-once slab query.
    replicas: SharedShapeArray<MdsId>,
    config: GhbaConfig,
    map: SharedMap,
    /// The map snapshot pinned for the current mailbox drain iteration
    /// (the prototype's pin-once rule): every escalation and update
    /// fan-out admitted in one drain routes against this one snapshot
    /// instead of re-pinning the cell per query; the pin refreshes at
    /// the top of each outer receive iteration, so reconfiguration
    /// lands between drains, never inside one.
    pinned_map: Arc<ClusterMap>,
    net: Network,
    registry: PublishedRegistry,
    inbox: Receiver<Message>,
    pending: HashMap<QueryId, Pending>,
    next_qid: QueryId,
    /// Last write-sequencing token observed (tokens start at 1). The
    /// runtime stamps every write it dispatches to this node with a
    /// strictly increasing token; the mailbox's FIFO delivery is what
    /// *enforces* the order, this counter is what *checks* it — the
    /// invariant the pipelined (barrier-free) write path rests on.
    last_write_seq: u64,
    /// Writes whose token arrived out of order (stays 0; a violation is
    /// reported on stderr — once per node — and trips a debug assert).
    write_reorders: u64,
    /// Per-worker probe arenas for pool-dispatched mailbox slab passes
    /// (see [`Node::slab_hits`]); grown lazily, reused across drains.
    probe_arenas: Vec<(ProbeBatch, Vec<Hit<MdsId>>)>,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("files", &self.mds.file_count())
            .field("replicas", &self.replicas.len())
            .finish()
    }
}

impl Node {
    /// Creates a node; `initial_replicas` are the origins whose (empty)
    /// filters it starts out holding.
    #[must_use]
    pub fn new(
        id: MdsId,
        config: GhbaConfig,
        map: SharedMap,
        net: Network,
        registry: PublishedRegistry,
        inbox: Receiver<Message>,
        initial_replicas: Vec<MdsId>,
    ) -> Self {
        let mds = Mds::new(id, &config);
        let mut replicas = SharedShapeArray::new(published_shape(&config));
        for origin in initial_replicas {
            replicas
                .push(origin)
                .expect("initial replica origins are distinct");
        }
        registry
            .write()
            .expect("registry lock")
            .insert(id, mds.published().clone());
        let pinned_map = map.pin();
        Node {
            id,
            mds,
            replicas,
            config,
            map,
            pinned_map,
            net,
            registry,
            inbox,
            pending: HashMap::new(),
            next_qid: 0,
            last_write_seq: 0,
            write_reorders: 0,
            probe_arenas: Vec::new(),
        }
    }

    /// Probes the replica slab with a drained burst of fingerprints,
    /// dispatching through the process-wide worker pool when the burst
    /// is large enough (the node-side analogue of the simulated
    /// pipeline's parallel read phase, gated by the same
    /// [`ghba_core::ExecutorConfig`]): one contiguous chunk per worker, each with
    /// its own persistent `ProbeBatch` arena against the shared
    /// read-only slab, verdicts concatenated in burst order —
    /// bit-identical to the single-pass probe.
    fn slab_hits(&mut self, fps: &[Fingerprint]) -> Vec<Hit<MdsId>> {
        if fps.is_empty() {
            return Vec::new();
        }
        let executor = self.config.executor;
        let mut arenas = std::mem::take(&mut self.probe_arenas);
        let used = {
            let replicas = &self.replicas;
            run_chunked(fps, executor, &mut arenas, |chunk, (batch, hits)| {
                batch.clear();
                for fp in chunk {
                    batch.push(*fp);
                }
                *hits = replicas.query_batch(batch);
            })
        };
        let mut out = Vec::with_capacity(fps.len());
        for (_, hits) in arenas.iter_mut().take(used) {
            out.append(hits);
        }
        self.probe_arenas = arenas;
        out
    }

    /// Records a write's sequencing token, checking it arrived in
    /// dispatch order (strictly increasing per node). A violation —
    /// which would mean the FIFO-delivery invariant the barrier-free
    /// write path rests on broke — is reported on stderr (once per
    /// node, so release builds surface it too) and trips a debug
    /// assert.
    fn observe_write_seq(&mut self, seq: u64) {
        if seq <= self.last_write_seq {
            self.write_reorders += 1;
            if self.write_reorders == 1 {
                eprintln!(
                    "{}: write token {seq} arrived after {} — per-node write ordering violated",
                    self.id, self.last_write_seq
                );
            }
            debug_assert!(
                false,
                "write token {seq} arrived after {} at {}",
                self.last_write_seq, self.id
            );
        }
        self.last_write_seq = seq;
    }

    /// Runs the node until `Shutdown` arrives or every sender is gone.
    ///
    /// The receive loop is an **op mailbox**: it drains everything waiting
    /// in the queue before handling anything, collecting the two
    /// batchable op kinds —
    ///
    /// * queued `GroupProbe`s (multicast probes from coordinators) are
    ///   answered with one batched slab pass
    ///   ([`SharedShapeArray::query_batch`]);
    /// * queued client `Lookup` ops are admitted together: each runs its
    ///   L1 check, and every op escalating to L2 joins one batched probe
    ///   of the replica slab —
    ///
    /// so a burst of concurrent operations costs one sorted, prefetched
    /// walk of the replica slab per kind instead of one dependent
    /// `k × stride` row walk per op. Writes and protocol messages are
    /// handled in arrival order, flushing both op queues first.
    pub fn run(mut self) {
        let mut probes: Vec<(QueryId, Fingerprint, MdsId)> = Vec::new();
        let mut lookups: Vec<(String, Fingerprint, Sender<LookupReply>)> = Vec::new();
        'recv: while let Ok(first) = self.inbox.recv() {
            // Pin once per drain: everything admitted below routes
            // against this one map snapshot.
            self.pinned_map = self.map.pin();
            let mut message = first;
            loop {
                match message {
                    Message::GroupProbe { qid, fp, reply_to } => {
                        probes.push((qid, fp, reply_to));
                    }
                    Message::Lookup { path, fp, reply } => {
                        lookups.push((path, fp, reply));
                    }
                    other => {
                        // Answer queued ops first: they were received
                        // earlier, and their replies never depend on the
                        // message that follows them.
                        self.flush_group_probes(&mut probes);
                        self.flush_lookups(&mut lookups);
                        if !self.handle(other) {
                            break 'recv;
                        }
                    }
                }
                match self.inbox.try_recv() {
                    Ok(next) => message = next,
                    Err(_) => break,
                }
            }
            self.flush_group_probes(&mut probes);
            self.flush_lookups(&mut lookups);
        }
    }

    /// Admits every queued client lookup: L1 per op, then one batched
    /// replica-slab pass for all ops that escalate to L2 (duplicate
    /// fingerprints within the burst are deduped inside the pass), then
    /// the per-op escalation machinery (verify / group / global) as
    /// usual.
    fn flush_lookups(&mut self, lookups: &mut Vec<(String, Fingerprint, Sender<LookupReply>)>) {
        match lookups.len() {
            0 => {}
            1 => {
                let (path, fp, reply) = lookups.pop().expect("len checked");
                self.start_lookup(path, fp, reply);
            }
            _ => {
                let mut fps: Vec<Fingerprint> = Vec::with_capacity(lookups.len());
                let mut active: Vec<QueryId> = Vec::with_capacity(lookups.len());
                for (path, fp, reply) in lookups.drain(..) {
                    let qid = self.admit_lookup(path, fp, reply);
                    // L1: the LRU array.
                    let l1 = self.mds.lru().map(|lru| lru.query_fp(&fp));
                    if let Some(Hit::Unique(candidate)) = l1 {
                        self.verify(qid, candidate, QueryLevel::L1Lru, Escalation::L2);
                        continue;
                    }
                    fps.push(fp);
                    active.push(qid);
                }
                // L2 for the whole burst: one (pool-dispatched when the
                // burst is large) slab pass over the held replicas, then
                // per-op classification.
                let hits = self.slab_hits(&fps);
                for (qid, hit) in active.into_iter().zip(hits) {
                    let fp = self.pending[&qid].fp;
                    let mut positives = hit.candidates().to_vec();
                    if self.mds.probe_live_fp(&fp) {
                        positives.push(self.id);
                    }
                    if positives.len() == 1 {
                        self.verify(qid, positives[0], QueryLevel::L2Segment, Escalation::Group);
                    } else {
                        self.start_group(qid);
                    }
                }
            }
        }
    }

    /// Answers every queued `GroupProbe` with one batched probe of the
    /// replica slab (plus one live-filter probe per fingerprint).
    fn flush_group_probes(&mut self, probes: &mut Vec<(QueryId, Fingerprint, MdsId)>) {
        match probes.len() {
            0 => return,
            1 => {
                // No batch to amortize; keep the single-probe path.
                let (qid, fp, reply_to) = probes[0];
                let positives = self.local_positives(&fp);
                self.net.send(
                    reply_to,
                    Message::ProbeReply {
                        qid,
                        positives,
                        from: self.id,
                    },
                );
            }
            _ => {
                let fps: Vec<Fingerprint> = probes.iter().map(|&(_, fp, _)| fp).collect();
                let hits = self.slab_hits(&fps);
                for (&(qid, fp, reply_to), hit) in probes.iter().zip(hits) {
                    let mut positives = hit.candidates().to_vec();
                    if self.mds.probe_live_fp(&fp) {
                        positives.push(self.id);
                    }
                    self.net.send(
                        reply_to,
                        Message::ProbeReply {
                            qid,
                            positives,
                            from: self.id,
                        },
                    );
                }
            }
        }
        probes.clear();
    }

    fn handle(&mut self, message: Message) -> bool {
        match message {
            Message::Shutdown => return false,
            Message::Lookup { path, fp, reply } => self.start_lookup(path, fp, reply),
            Message::Create { path, seq, reply } => {
                self.observe_write_seq(seq);
                self.mds.create_local(&path);
                self.maybe_publish();
                let _ = reply.send(self.id);
            }
            Message::Remove { path, seq, reply } => {
                self.observe_write_seq(seq);
                let removed = self.mds.remove_local(&path);
                if removed {
                    self.maybe_publish();
                }
                let _ = reply.send(removed);
            }
            Message::GroupProbe { qid, fp, reply_to } => {
                // Reached only for probes arriving outside the drain loop;
                // the drain path batches them.
                let positives = self.local_positives(&fp);
                self.net.send(
                    reply_to,
                    Message::ProbeReply {
                        qid,
                        positives,
                        from: self.id,
                    },
                );
            }
            Message::ProbeReply { qid, positives, .. } => self.on_probe_reply(qid, positives),
            Message::GlobalProbe {
                qid,
                path,
                reply_to,
            } => {
                let stores = self.mds.stores(&path);
                self.net.send(
                    reply_to,
                    Message::GlobalReply {
                        qid,
                        from: self.id,
                        stores,
                    },
                );
            }
            Message::GlobalReply { qid, from, stores } => self.on_global_reply(qid, from, stores),
            Message::Verify {
                qid,
                path,
                reply_to,
            } => {
                let stores = self.mds.stores(&path);
                self.net.send(
                    reply_to,
                    Message::VerifyReply {
                        qid,
                        stores,
                        from: self.id,
                    },
                );
            }
            Message::VerifyReply { qid, stores, from } => self.on_verify_reply(qid, stores, from),
            Message::ReplicaInstall { origin, filter } => {
                self.install_replica(origin, &filter);
            }
            Message::ReplicaDelta { origin, delta } => {
                // Sparse apply straight into the slab column. Deltas set
                // and clear bits by mask, so applying one is idempotent:
                // a delta arriving after a `ReplicaInstall` that already
                // contains it leaves the column unchanged. A delta for an
                // origin with no column is dropped: origins record each
                // publish in the registry before sending its deltas, and
                // the runtime sends installs while holding the registry
                // lock, so the install that creates the column carries it.
                let _ = self.replicas.apply_delta(origin, &delta);
            }
            Message::ReplicaDrop { origin } => {
                self.replicas.remove(origin);
                if let Some(lru) = self.mds.lru_mut() {
                    lru.purge_home(origin);
                }
            }
            Message::IdbfaSync => {}
            Message::Flush { reply } => {
                self.publish_now();
                let _ = reply.send(());
            }
        }
        true
    }

    /// Installs (or refreshes) the replica of `origin`.
    fn install_replica(&mut self, origin: MdsId, filter: &BloomFilter) {
        if self.replicas.contains_id(origin) {
            self.replicas
                .replace_filter(origin, filter)
                .expect("origin slot exists");
        } else {
            self.replicas
                .push_filter(origin, filter)
                .expect("uniform cluster config implies a matching shape");
        }
    }

    /// Origins (replica origins and/or self) whose filters match the
    /// fingerprinted path — one bit-sliced slab probe plus the live filter.
    fn local_positives(&self, fp: &Fingerprint) -> Vec<MdsId> {
        let mut positives: Vec<MdsId> = self.replicas.query_fp(fp).candidates().to_vec();
        if self.mds.probe_live_fp(fp) {
            positives.push(self.id);
        }
        positives
    }

    /// Registers a pending query for an admitted lookup, returning its id.
    /// The fingerprint arrived with the op (hashed once at batch
    /// admission) and rides the whole escalation, including the group
    /// multicast messages.
    fn admit_lookup(
        &mut self,
        path: String,
        fp: Fingerprint,
        reply: Sender<LookupReply>,
    ) -> QueryId {
        let qid = self.next_qid;
        self.next_qid += 1;
        let pending = Pending {
            path,
            fp,
            reply,
            start: Instant::now(),
            messages: 0,
            awaiting: 0,
            positives: Vec::new(),
            stage: Stage::Group, // placeholder; set by the escalation
        };
        self.pending.insert(qid, pending);
        qid
    }

    fn start_lookup(&mut self, path: String, fp: Fingerprint, reply: Sender<LookupReply>) {
        let qid = self.admit_lookup(path, fp, reply);
        // L1: the LRU array.
        let l1 = self.mds.lru().map(|lru| lru.query_fp(&fp));
        if let Some(ghba_bloom::Hit::Unique(candidate)) = l1 {
            self.verify(qid, candidate, QueryLevel::L1Lru, Escalation::L2);
            return;
        }
        self.continue_l2(qid);
    }

    fn continue_l2(&mut self, qid: QueryId) {
        let fp = self.pending[&qid].fp;
        let positives = self.local_positives(&fp);
        if positives.len() == 1 {
            self.verify(qid, positives[0], QueryLevel::L2Segment, Escalation::Group);
        } else {
            self.start_group(qid);
        }
    }

    fn verify(&mut self, qid: QueryId, candidate: MdsId, level: QueryLevel, on_fail: Escalation) {
        if candidate == self.id {
            let stores = {
                let pending = &self.pending[&qid];
                self.mds.stores(&pending.path)
            };
            if stores {
                self.succeed(qid, self.id, level);
            } else {
                self.escalate(qid, on_fail);
            }
            return;
        }
        let path = {
            let pending = self.pending.get_mut(&qid).expect("pending query");
            pending.stage = Stage::Verify { level, on_fail };
            pending.messages += 2; // request + reply
            pending.path.clone()
        };
        let delivered = self.net.send(
            candidate,
            Message::Verify {
                qid,
                path,
                reply_to: self.id,
            },
        );
        if !delivered {
            // Candidate died (e.g. a stale LRU entry naming a failed
            // node): treat as a failed verification and escalate.
            self.escalate(qid, on_fail);
        }
    }

    fn on_verify_reply(&mut self, qid: QueryId, stores: bool, from: MdsId) {
        let Some(pending) = self.pending.get(&qid) else {
            return;
        };
        let Stage::Verify { level, on_fail } = pending.stage else {
            return;
        };
        if stores {
            self.succeed(qid, from, level);
        } else {
            self.escalate(qid, on_fail);
        }
    }

    fn escalate(&mut self, qid: QueryId, to: Escalation) {
        match to {
            Escalation::L2 => self.continue_l2(qid),
            Escalation::Group => self.start_group(qid),
            Escalation::Global => self.start_global(qid),
        }
    }

    fn start_group(&mut self, qid: QueryId) {
        let peers = self.pinned_map.group_peers_of(self.id);
        if peers.is_empty() {
            self.start_global(qid);
            return;
        }
        let fp = self.pending[&qid].fp;
        let own_positives = self.local_positives(&fp);
        // Count only *delivered* probes: a peer that died mid-query must
        // not wedge the coordinator.
        let mut delivered = 0usize;
        for &peer in &peers {
            if self.net.send(
                peer,
                Message::GroupProbe {
                    qid,
                    fp,
                    reply_to: self.id,
                },
            ) {
                delivered += 1;
            }
        }
        {
            let pending = self.pending.get_mut(&qid).expect("pending query");
            pending.stage = Stage::Group;
            pending.awaiting = delivered;
            pending.positives = own_positives;
            pending.messages += 2 * peers.len() as u32;
        }
        if delivered == 0 {
            self.complete_group(qid);
        }
    }

    fn on_probe_reply(&mut self, qid: QueryId, positives: Vec<MdsId>) {
        let Some(pending) = self.pending.get_mut(&qid) else {
            return;
        };
        if pending.stage != Stage::Group {
            return;
        }
        for p in positives {
            if !pending.positives.contains(&p) {
                pending.positives.push(p);
            }
        }
        pending.awaiting -= 1;
        if pending.awaiting == 0 {
            self.complete_group(qid);
        }
    }

    fn complete_group(&mut self, qid: QueryId) {
        let Some(pending) = self.pending.get_mut(&qid) else {
            return;
        };
        let positives = std::mem::take(&mut pending.positives);
        if positives.len() == 1 {
            self.verify(qid, positives[0], QueryLevel::L3Group, Escalation::Global);
        } else {
            self.start_global(qid);
        }
    }

    fn start_global(&mut self, qid: QueryId) {
        let others: Vec<MdsId> = self
            .pinned_map
            .all_members()
            .into_iter()
            .filter(|&m| m != self.id)
            .collect();
        if others.is_empty() {
            let stores = self.mds.stores(&self.pending[&qid].path);
            if stores {
                self.succeed(qid, self.id, QueryLevel::L4Global);
            } else {
                self.fail(qid);
            }
            return;
        }
        let path = self.pending[&qid].path.clone();
        let mut delivered = 0usize;
        for &node in &others {
            if self.net.send(
                node,
                Message::GlobalProbe {
                    qid,
                    path: path.clone(),
                    reply_to: self.id,
                },
            ) {
                delivered += 1;
            }
        }
        {
            let pending = self.pending.get_mut(&qid).expect("pending query");
            pending.stage = Stage::Global;
            pending.awaiting = delivered;
            pending.positives.clear();
            pending.messages += 2 * others.len() as u32;
        }
        if delivered == 0 {
            self.complete_global(qid);
        }
    }

    fn on_global_reply(&mut self, qid: QueryId, from: MdsId, stores: bool) {
        let Some(pending) = self.pending.get_mut(&qid) else {
            return;
        };
        if pending.stage != Stage::Global {
            return;
        }
        if stores {
            pending.positives.push(from);
        }
        pending.awaiting -= 1;
        if pending.awaiting == 0 {
            self.complete_global(qid);
        }
    }

    fn complete_global(&mut self, qid: QueryId) {
        let Some(pending) = self.pending.get_mut(&qid) else {
            return;
        };
        // The global sweep is authoritative: also check ourselves.
        let own = self.mds.stores(&pending.path);
        let home = pending.positives.first().copied();
        match (home, own) {
            (Some(h), _) => self.succeed(qid, h, QueryLevel::L4Global),
            (None, true) => self.succeed(qid, self.id, QueryLevel::L4Global),
            (None, false) => self.fail(qid),
        }
    }

    fn succeed(&mut self, qid: QueryId, home: MdsId, level: QueryLevel) {
        let Some(pending) = self.pending.remove(&qid) else {
            return;
        };
        if let Some(lru) = self.mds.lru_mut() {
            lru.record_fp(&pending.fp, home);
        }
        let _ = pending.reply.send(LookupReply {
            home: Some(home),
            level,
            latency: pending.start.elapsed(),
            messages: pending.messages,
        });
    }

    fn fail(&mut self, qid: QueryId) {
        let Some(pending) = self.pending.remove(&qid) else {
            return;
        };
        let _ = pending.reply.send(LookupReply {
            home: None,
            level: QueryLevel::Nonexistent,
            latency: pending.start.elapsed(),
            messages: pending.messages,
        });
    }

    fn maybe_publish(&mut self) {
        // Exact O(m) drift checks run at the gated cadence, not per
        // mutation (same protocol as `GhbaCluster::maybe_publish`; the
        // prototype keeps no stats, so no exact-check counter here).
        let threshold = self.config.update_threshold_bits;
        let gate = self.config.publish_gate();
        if self.mds.drift_exceeds(gate, threshold) == Some(true) {
            self.publish_now();
        }
    }

    /// Forces a publish + delta fan-out (one holder per foreign group, or
    /// everyone under HBA).
    fn publish_now(&mut self) {
        let Some(delta) = self.mds.publish() else {
            return;
        };
        self.registry
            .write()
            .expect("registry lock")
            .insert(self.id, self.mds.published().clone());
        let targets = self.pinned_map.update_targets(self.id);
        for target in targets {
            self.net.send(
                target,
                Message::ReplicaDelta {
                    origin: self.id,
                    delta: delta.clone(),
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::Scheme;
    use ghba_core::SnapshotCell;

    #[test]
    fn a_delta_after_an_install_that_contains_it_changes_nothing() {
        let config = GhbaConfig::default().with_filter_capacity(500);
        let net = Network::new();
        let inbox = net.register(MdsId(0));
        let map: SharedMap = Arc::new(SnapshotCell::new(ClusterMap::new(Scheme::Hba), ()));
        let registry: PublishedRegistry = Arc::new(RwLock::new(HashMap::new()));
        let origin = MdsId(1);
        let mut node = Node::new(
            MdsId(0),
            config.clone(),
            map,
            net,
            registry,
            inbox,
            vec![origin],
        );
        let mut home = Mds::new(origin, &config);
        for i in 0..20 {
            home.create_local(&format!("/f{i}"));
        }
        let _ = home.publish();
        for i in 0..10 {
            assert!(home.remove_local(&format!("/f{i}")));
        }
        for i in 20..30 {
            home.create_local(&format!("/f{i}"));
        }
        let delta = home.publish().expect("the removes and creates flip bits");
        assert!(delta.changes().iter().any(|c| c.set != 0));
        assert!(delta.changes().iter().any(|c| c.cleared != 0));
        let installed = home.published().clone();
        assert!(node.handle(Message::ReplicaInstall {
            origin,
            filter: Box::new(installed.clone()),
        }));
        assert!(node.handle(Message::ReplicaDelta { origin, delta }));
        assert_eq!(node.replicas.extract(origin), Some(installed));
    }
}
