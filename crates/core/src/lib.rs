//! G-HBA — Group-based Hierarchical Bloom filter Arrays.
//!
//! A from-scratch reproduction of the metadata management system of Hua,
//! Zhu, Jiang, Feng & Tian, *Scalable and Adaptive Metadata Management in
//! Ultra Large-scale File Systems* (ICDCS 2008): N metadata servers (MDS)
//! organized into groups of at most `M`, each group collectively mirroring
//! the whole system through Bloom filter replicas while each server stores
//! only `≈(N − M′)/M′` of them.
//!
//! Queries walk a four-level hierarchy ([`GhbaCluster::lookup_from`]):
//!
//! 1. **L1** — the entry server's LRU Bloom filter array (temporal
//!    locality);
//! 2. **L2** — its segment array: the replicas it holds plus its own live
//!    filter;
//! 3. **L3** — a multicast within its group (which collectively sees the
//!    entire system);
//! 4. **L4** — a system-wide multicast, authoritative by construction.
//!
//! Group membership is elastic: joins trigger light-weight replica
//! migration and, on overflow, group splits; departures trigger merges
//! ([`GhbaCluster::add_mds`], [`GhbaCluster::remove_mds`]). Replica
//! staleness is governed by the XOR-distance update protocol
//! ([`GhbaCluster::push_update`]).
//!
//! # Quick start
//!
//! ```
//! use ghba_core::{GhbaCluster, GhbaConfig, QueryLevel};
//!
//! let config = GhbaConfig::default()
//!     .with_max_group_size(4)
//!     .with_filter_capacity(1_000)
//!     .with_seed(7);
//! let mut cluster = GhbaCluster::with_servers(config, 10);
//!
//! let home = cluster.create_file("/data/experiment/run-1.log");
//! let outcome = cluster.lookup("/data/experiment/run-1.log");
//! assert_eq!(outcome.home, Some(home));
//!
//! // Membership is elastic; invariants hold throughout.
//! cluster.add_mds();
//! cluster.check_invariants().expect("mirror and balance preserved");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adapt;
mod cluster;
pub mod concurrent;
mod config;
pub mod exec;
mod group;
mod ids;
pub mod load;
mod mds;
mod metadata;
mod op;
mod query;
mod reconcile;
mod reconfig;
mod service;
mod snapshot;
mod update;
pub mod wal;

pub use adapt::{AdaptAction, ControllerConfig, GroupController, TargetM};
pub use cluster::{ClusterStats, GhbaCluster};
pub use concurrent::{ConcurrentStats, NamespaceShards, OverlayEntry, WriteKind, WriteRecord};
pub use config::{EpochGranularity, ExecutorConfig, GhbaConfig, MaskCacheLifecycle, MaskCacheMode};
pub use group::{Group, IdFilterArray};
pub use ids::{GroupEpoch, GroupId, MdsId, MembershipEpoch};
pub use load::{GroupLoad, LoadFold, LoadReport, MaskCacheStats};
pub use mds::{published_shape, Mds, META_ENTRY_BYTES};
pub use metadata::{FileAttrs, MetadataStore};
pub use op::{
    execute_vectored, execute_vectored_concurrent, ConcurrentScheme, EntryPolicy, MetadataOp,
    OpBatch, OpOutcome, PathKey, VectoredScheme,
};
pub use query::{LevelCounts, QueryLevel, QueryOutcome};
pub use reconcile::Reconciler;
pub use reconfig::{ReconfigError, ReconfigReport};
pub use service::MetadataService;
pub use snapshot::{
    CellWriter, ReconfigHandle, RouteSnapshot, SlabOp, SlabPublish, SlabSpare, SnapshotCell,
};
pub use update::UpdateReport;
pub use wal::{
    Checkpoint, SyncPolicy, Wal, WalError, WalEvent, WalOptions, WalRecord, WalRecovery,
};
