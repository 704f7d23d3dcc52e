//! Wire messages of the prototype cluster.
//!
//! These are **in-process** messages (channels, not sockets): filters
//! and reply senders travel by value. The real networked deployment in
//! `ghba-net` ports the same vocabulary to a binary wire format — its
//! `GroupProbe`/`ProbeReply` frames carry the fingerprint-only group
//! multicast, `Gossip` carries the membership/epoch announcements, and
//! the flush/drain control flow becomes explicit `Drain`/`DrainAck`
//! barrier frames (see `ghba_net::proto::NetMessage`).

use ghba_bloom::{BloomFilter, FilterDelta, Fingerprint};
use ghba_core::{MdsId, QueryLevel};
use std::sync::mpsc::Sender;

/// A query identifier, unique per coordinating node.
pub type QueryId = u64;

/// The reply a client receives for a lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupReply {
    /// The home MDS, or `None` when the file exists nowhere.
    pub home: Option<MdsId>,
    /// The level that resolved the query.
    pub level: QueryLevel,
    /// Wall-clock latency measured at the coordinating node.
    pub latency: std::time::Duration,
    /// Messages this query put on the network.
    pub messages: u32,
}

/// Messages exchanged between nodes (and from the runtime to nodes).
#[derive(Debug)]
pub enum Message {
    /// Client request: resolve `path`, answer on `reply`.
    ///
    /// Carries the pathname's [`Fingerprint`], computed once at batch
    /// admission (client side): the entry node and every multicast
    /// recipient derive all probe streams from it — the path bytes are
    /// hashed exactly once per operation, cluster-wide.
    Lookup {
        /// Pathname to resolve.
        path: String,
        /// Hash-once digest of the pathname.
        fp: Fingerprint,
        /// Channel for the final answer.
        reply: Sender<LookupReply>,
    },
    /// Client request: create `path` here; answer with this node's id.
    Create {
        /// Pathname to create.
        path: String,
        /// This node's write-sequencing token (see [`Message::Remove`]).
        seq: u64,
        /// Acknowledgement channel.
        reply: Sender<MdsId>,
    },
    /// Client request: remove `path` if homed here.
    ///
    /// Carries a **per-node sequencing token**: the runtime stamps every
    /// write it dispatches to a node with that node's next token, and
    /// the node checks tokens arrive strictly increasing. The channel
    /// fabric already delivers one sender's messages in order, so the
    /// token adds no synchronization — it makes the ordering discipline
    /// the pipelined write path relies on *explicit and checkable*,
    /// which is what lets mixed batches stream through
    /// `PrototypeCluster::execute` without the old cluster-wide
    /// synchronous barriers: a write is ordered before every later op
    /// dispatched to the same node by its token, and cross-node
    /// visibility is awaited only by ops that actually touch the
    /// written path.
    Remove {
        /// Pathname to remove.
        path: String,
        /// This node's write-sequencing token.
        seq: u64,
        /// `true` when the file was here and is now gone.
        reply: Sender<bool>,
    },
    /// Coordinator → group member: probe your replicas and live filter.
    ///
    /// Carries the pathname's [`Fingerprint`] instead of the pathname: the
    /// coordinator hashed the path once at L1, and every multicast
    /// recipient derives its filters' probe streams from the fingerprint by
    /// seed-mixing — no recipient re-hashes the path bytes.
    GroupProbe {
        /// Query id at the coordinator.
        qid: QueryId,
        /// Hash-once digest of the pathname under query.
        fp: Fingerprint,
        /// Who to answer.
        reply_to: MdsId,
    },
    /// Member → coordinator: the origins whose filters matched.
    ProbeReply {
        /// Query id at the coordinator.
        qid: QueryId,
        /// Matching filter origins (replica origins and/or the member
        /// itself).
        positives: Vec<MdsId>,
        /// Responding member.
        from: MdsId,
    },
    /// Coordinator → everyone: authoritative sweep.
    GlobalProbe {
        /// Query id at the coordinator.
        qid: QueryId,
        /// Pathname under query.
        path: String,
        /// Who to answer.
        reply_to: MdsId,
    },
    /// Node → coordinator: filter verdict and authoritative store verdict.
    GlobalReply {
        /// Query id at the coordinator.
        qid: QueryId,
        /// Responding node.
        from: MdsId,
        /// Whether the authoritative store holds the path.
        stores: bool,
    },
    /// Coordinator → candidate home: does your store really hold `path`?
    Verify {
        /// Query id at the coordinator.
        qid: QueryId,
        /// Pathname to verify.
        path: String,
        /// Who to answer.
        reply_to: MdsId,
    },
    /// Candidate → coordinator: verification verdict.
    VerifyReply {
        /// Query id at the coordinator.
        qid: QueryId,
        /// Whether the store holds the path.
        stores: bool,
        /// Responding candidate.
        from: MdsId,
    },
    /// Install (or replace) a full replica of `origin`'s filter.
    ReplicaInstall {
        /// The server the filter summarizes.
        origin: MdsId,
        /// Snapshot filter.
        filter: Box<BloomFilter>,
    },
    /// Apply a sparse update to `origin`'s replica.
    ReplicaDelta {
        /// The server whose replica to patch.
        origin: MdsId,
        /// The changed words, as set/clear masks.
        delta: FilterDelta,
    },
    /// Drop the replica of `origin` (server departed).
    ReplicaDrop {
        /// The departed server.
        origin: MdsId,
    },
    /// IDBFA refresh within a group (content elided; counted for the
    /// Figure 15 message tally).
    IdbfaSync,
    /// Runtime barrier: publish pending filter changes (fanning out the
    /// deltas), then acknowledge.
    Flush {
        /// Acknowledgement channel.
        reply: Sender<()>,
    },
    /// Orderly shutdown of the node thread.
    Shutdown,
}
