//! Durability: the write-ahead op log, periodic checkpoints, and crash
//! recovery ([`GhbaCluster::recover`]).
//!
//! # What is logged
//!
//! The WAL hooks the pin-once pipeline at its single serialization
//! point: the shard-log drain. When
//! [`drain_concurrent`](GhbaCluster::drain_concurrent) takes the
//! pending write records out of the namespace shards, the batch —
//! every resolved [`WriteRecord`] plus the staged-home publish set — is
//! appended (and, per policy, synced) **before any effect is applied**,
//! so nothing the cluster ever published can be missing from the log.
//! [`flush_all_updates`](GhbaCluster::flush_all_updates) barriers are
//! logged the same way, so the publish *history* (which filters were
//! refreshed when) replays exactly, not just the namespace.
//!
//! The log deliberately records post-admission `WriteRecord`s rather
//! than raw `OpBatch`es: by drain time every write has a resolved home,
//! so replay is independent of entry-policy RNG draws and of how
//! concurrent batches interleaved — the drain order *is* the total
//! order. Records are length-prefixed, CRC-checked, sequence-numbered,
//! and carry a versioned header, mirroring the wire-frame discipline of
//! `crates/net` (including the fingerprint re-verification on decode).
//!
//! # Durability contract, per [`SyncPolicy`]
//!
//! The durability point is the **drain**: a batch whose drain
//! completed is recoverable; writes executed but not yet drained are
//! lost by a crash (exactly the pipeline's visibility contract — their
//! effects had not published either). On top of that:
//!
//! * [`SyncPolicy::EveryBatch`] — `fdatasync` after every appended
//!   record. A drained batch survives process kill *and* power loss.
//! * [`SyncPolicy::GroupCommit`] — appends are written to the OS
//!   immediately but synced at most once per interval. A drained batch
//!   survives process kill (SIGKILL included: the page cache outlives
//!   the process); power loss may lose up to one interval of drains.
//! * [`SyncPolicy::None`] — no explicit sync. Survives process kill;
//!   power loss may lose everything since the last checkpoint install
//!   (which always syncs).
//!
//! Checkpoints serialize the namespace shards, each server's published
//! filter, and the membership/group shape into `checkpoint.bin`
//! (written tmp → fsync → rename, then the log is truncated — a crash
//! between rename and truncate is safe because replay skips records at
//! or below the checkpoint's sequence watermark).
//!
//! # What is *not* durable
//!
//! * L1 LRU caches and candidate-mask caches — caches, cold after
//!   recovery (outcome-invisible at `lru_capacity = 0`).
//! * Statistics, telemetry windows, and load reports.
//! * The position of the deterministic RNG stream —
//!   [`EntryPolicy::Random`](crate::EntryPolicy) draws resume from the
//!   fork point, so bit-identical recovery requires deterministic entry
//!   policies (the networked e2e recipe already does).
//! * `FileAttrs` inode numbers (reassigned on replay; never observable
//!   through an [`OpOutcome`](crate::OpOutcome)).
//! * Owner-side direct mutations (`create_file_at` and friends) bypass
//!   the shard logs; they are captured by the *next checkpoint* only.
//!   The replica pipeline never uses them.
//! * Within-group replica *placement* for controller-reshaped clusters:
//!   the checkpoint records group membership and epochs exactly, and
//!   recovery rebuilds replica placement deterministically
//!   (lightest-member-first), which can differ from a path-dependent
//!   pre-crash placement — identical homes and levels, possibly
//!   different modelled multicast latencies. Unreshaped clusters (the
//!   deployment default) recover bit-identically.
//!
//! # Recovery
//!
//! [`GhbaCluster::recover`] rebuilds a serving cluster from a WAL
//! directory: apply the checkpoint (config-guarded — a mismatched
//! seed/geometry is a typed error, never a silently wrong cluster),
//! then replay the log tail above the watermark through the same
//! drain/flush code paths the original execution took. Torn or
//! truncated tails — a crash mid-append — are truncated to the last
//! complete, CRC-valid, sequence-monotonic record: recovery **never
//! panics** on malformed bytes (the PR-8 malformed-frame discipline).

use std::collections::BTreeSet;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ghba_bloom::{BloomFilter, FilterDelta, Fingerprint};

use crate::cluster::GhbaCluster;
use crate::concurrent::{WriteKind, WriteRecord};
use crate::config::GhbaConfig;
use crate::group::Group;
use crate::ids::{GroupEpoch, GroupId, MdsId, MembershipEpoch};
use crate::mds::published_shape;
use crate::snapshot::{RouteEdit, SlabOp};

/// Magic prefix of every WAL record body.
const WAL_MAGIC: [u8; 4] = *b"GWAL";
/// Magic prefix of the checkpoint body.
const CKPT_MAGIC: [u8; 4] = *b"GCKP";
/// On-disk format version (bump on any layout change, and regenerate
/// the golden fixtures alongside).
pub const WAL_VERSION: u16 = 1;

/// Record kind tags.
const KIND_DRAIN: u8 = 1;
const KIND_FLUSH: u8 = 2;

/// Upper bound on one frame body — a corrupt length prefix must not
/// provoke a giant allocation.
const MAX_FRAME_BYTES: usize = 1 << 28;

/// Log and checkpoint file names within a WAL directory.
const LOG_FILE: &str = "wal.log";
const CKPT_FILE: &str = "checkpoint.bin";
const CKPT_TMP: &str = "checkpoint.tmp";

/// When appended records are forced to stable storage.
///
/// See the module docs for the exact guarantee each policy buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fdatasync` after every appended record.
    EveryBatch,
    /// Sync at most once per interval (group commit).
    GroupCommit(Duration),
    /// Never sync explicitly; the OS flushes on its own schedule.
    None,
}

/// How a [`Wal`] behaves once open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// When appends reach stable storage.
    pub sync: SyncPolicy,
    /// Install a checkpoint (and truncate the log) after this many
    /// appended records; `0` disables automatic checkpoints
    /// ([`GhbaCluster::checkpoint_now`] still works).
    pub checkpoint_every: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            sync: SyncPolicy::EveryBatch,
            checkpoint_every: 0,
        }
    }
}

/// Typed durability errors. Corruption and configuration mismatches are
/// reported, never panicked on.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// Bytes that cannot be a record/checkpoint of this version.
    Corrupt(String),
    /// A checkpoint captured under an incompatible configuration.
    ConfigMismatch(String),
}

impl From<std::io::Error> for WalError {
    fn from(err: std::io::Error) -> Self {
        WalError::Io(err)
    }
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(err) => write!(f, "wal i/o: {err}"),
            WalError::Corrupt(detail) => write!(f, "wal corrupt: {detail}"),
            WalError::ConfigMismatch(detail) => write!(f, "wal config mismatch: {detail}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(err) => Some(err),
            _ => None,
        }
    }
}

/// One durable event, as decoded from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalEvent {
    /// One shard-log drain: the resolved write records (in drain order)
    /// plus the homes whose staged publishes the drain reconciled.
    Drain {
        /// Resolved namespace writes, in total (drain) order.
        records: Vec<WriteRecord>,
        /// Homes whose published filters the drain synchronized.
        staged: Vec<MdsId>,
    },
    /// A `flush_all_updates` barrier (every drifted filter published).
    FlushAll,
}

/// One sequenced log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonic sequence number (1-based; never reset, even across
    /// checkpoints).
    pub seq: u64,
    /// The logged event.
    pub event: WalEvent,
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, reflected), table-driven.
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// The IEEE CRC32 of `bytes` (the checksum guarding every frame).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Byte-level codec helpers.
// ---------------------------------------------------------------------------

struct ByteReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, at: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WalError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| WalError::Corrupt(format!("truncated {what}")))?;
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, WalError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, WalError> {
        Ok(u16::from_le_bytes(
            self.take(2, what)?.try_into().expect("sized"),
        ))
    }

    fn u32(&mut self, what: &str) -> Result<u32, WalError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("sized"),
        ))
    }

    fn u64(&mut self, what: &str) -> Result<u64, WalError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("sized"),
        ))
    }

    fn finish(self, what: &str) -> Result<(), WalError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(WalError::Corrupt(format!("trailing bytes after {what}")))
        }
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&u32::try_from(s.len()).expect("path fits u32").to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn read_str(reader: &mut ByteReader<'_>, what: &str) -> Result<String, WalError> {
    let len = reader.u32(what)? as usize;
    let bytes = reader.take(len, what)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| WalError::Corrupt(format!("{what} is not utf-8")))
}

/// Frames `body` as `[len u32][crc u32][body]`.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + body.len());
    out.extend_from_slice(
        &u32::try_from(body.len())
            .expect("body fits u32")
            .to_le_bytes(),
    );
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Unframes one `[len][crc][body]` frame from the head of `bytes`,
/// returning the body slice and total bytes consumed.
fn unframe(bytes: &[u8]) -> Result<(&[u8], usize), WalError> {
    if bytes.len() < 8 {
        return Err(WalError::Corrupt("truncated frame header".into()));
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("sized")) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WalError::Corrupt(format!("frame length {len} exceeds cap")));
    }
    let expected_crc = u32::from_le_bytes(bytes[4..8].try_into().expect("sized"));
    let end = 8usize
        .checked_add(len)
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| WalError::Corrupt("truncated frame body".into()))?;
    let body = &bytes[8..end];
    if crc32(body) != expected_crc {
        return Err(WalError::Corrupt("frame checksum mismatch".into()));
    }
    Ok((body, end))
}

// ---------------------------------------------------------------------------
// Record codec.
// ---------------------------------------------------------------------------

fn encode_drain_payload(records: &[WriteRecord], staged: &[MdsId]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(
        &u32::try_from(records.len())
            .expect("count fits")
            .to_le_bytes(),
    );
    for record in records {
        let (op, home) = match record.kind {
            WriteKind::Create(home) => (0u8, home),
            WriteKind::Remove(home) => (1u8, home),
        };
        out.push(op);
        out.extend_from_slice(&home.0.to_le_bytes());
        let (a, b) = record.fp.lanes();
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
        push_str(&mut out, &record.path);
    }
    out.extend_from_slice(
        &u32::try_from(staged.len())
            .expect("count fits")
            .to_le_bytes(),
    );
    for home in staged {
        out.extend_from_slice(&home.0.to_le_bytes());
    }
    out
}

fn record_body(seq: u64, kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(4 + 2 + 8 + 1 + payload.len());
    body.extend_from_slice(&WAL_MAGIC);
    body.extend_from_slice(&WAL_VERSION.to_le_bytes());
    body.extend_from_slice(&seq.to_le_bytes());
    body.push(kind);
    body.extend_from_slice(payload);
    body
}

/// Encodes one record as it is laid out on disk (the golden-file
/// surface): `[len u32][crc u32]["GWAL"][version u16][seq u64][kind u8]
/// [payload]`, all little-endian.
#[must_use]
pub fn encode_record(seq: u64, event: &WalEvent) -> Vec<u8> {
    let (kind, payload) = match event {
        WalEvent::Drain { records, staged } => (KIND_DRAIN, encode_drain_payload(records, staged)),
        WalEvent::FlushAll => (KIND_FLUSH, Vec::new()),
    };
    frame(&record_body(seq, kind, &payload))
}

/// Decodes one record from the head of `bytes`, returning it and the
/// bytes consumed. Every malformed shape — truncation, checksum
/// mismatch, bad magic or version, non-utf-8 paths, a fingerprint that
/// does not match its path — is a typed [`WalError`], never a panic.
///
/// # Errors
///
/// [`WalError::Corrupt`] on any malformed byte sequence.
pub fn decode_record(bytes: &[u8]) -> Result<(WalRecord, usize), WalError> {
    let (body, consumed) = unframe(bytes)?;
    let mut reader = ByteReader::new(body);
    if reader.take(4, "record magic")? != WAL_MAGIC {
        return Err(WalError::Corrupt("bad record magic".into()));
    }
    let version = reader.u16("record version")?;
    if version != WAL_VERSION {
        return Err(WalError::Corrupt(format!(
            "unsupported wal version {version}"
        )));
    }
    let seq = reader.u64("record seq")?;
    let kind = reader.u8("record kind")?;
    let event = match kind {
        KIND_DRAIN => {
            let count = reader.u32("record count")? as usize;
            let mut records = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                let op = reader.u8("write op")?;
                let home = MdsId(reader.u16("write home")?);
                let a = reader.u64("fingerprint lane")?;
                let b = reader.u64("fingerprint lane")?;
                let path = read_str(&mut reader, "write path")?;
                let fp = Fingerprint::from_lanes(a, b);
                // The same re-verification the wire decoder applies to
                // `PathKey`s: a fingerprint must be *the* fingerprint
                // of its path, or the record has been tampered with.
                if Fingerprint::of(path.as_str()) != fp {
                    return Err(WalError::Corrupt(format!(
                        "fingerprint does not match path {path:?}"
                    )));
                }
                let kind = match op {
                    0 => WriteKind::Create(home),
                    1 => WriteKind::Remove(home),
                    other => return Err(WalError::Corrupt(format!("unknown write op {other}"))),
                };
                records.push(WriteRecord { path, fp, kind });
            }
            let staged_count = reader.u32("staged count")? as usize;
            let mut staged = Vec::with_capacity(staged_count.min(1 << 16));
            for _ in 0..staged_count {
                staged.push(MdsId(reader.u16("staged home")?));
            }
            WalEvent::Drain { records, staged }
        }
        KIND_FLUSH => WalEvent::FlushAll,
        other => return Err(WalError::Corrupt(format!("unknown record kind {other}"))),
    };
    reader.finish("record")?;
    Ok((WalRecord { seq, event }, consumed))
}

// ---------------------------------------------------------------------------
// Checkpoint.
// ---------------------------------------------------------------------------

/// The configuration facts a checkpoint was captured under. Recovery
/// refuses a checkpoint whose guard differs from the recovering
/// cluster's — replaying into a cluster with a different seed or filter
/// geometry would silently produce wrong filters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigGuard {
    /// Cluster seed (drives every filter family).
    pub seed: u64,
    /// `max_group_size` (drives the deterministic startup shape).
    pub max_group_size: u64,
    /// Published-filter width in bits.
    pub filter_bits: u64,
    /// Published-filter hash count.
    pub filter_hashes: u32,
    /// Namespace write-shard count.
    pub write_shards: u64,
}

impl ConfigGuard {
    fn of(config: &GhbaConfig) -> ConfigGuard {
        ConfigGuard {
            seed: config.seed,
            max_group_size: config.max_group_size as u64,
            filter_bits: config.filter_bits() as u64,
            filter_hashes: config.filter_hashes(),
            write_shards: config.write_shards as u64,
        }
    }
}

/// One group's durable shape: membership plus its configuration epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupShape {
    /// The group id.
    pub gid: GroupId,
    /// The group's [`GroupEpoch`] at capture time.
    pub epoch: u64,
    /// Member servers, in group order.
    pub members: Vec<MdsId>,
}

/// One server's durable state: its namespace (sorted by path, each
/// entry fingerprint-tagged), its published filter bytes, and the
/// publish-cadence counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerState {
    /// The server id.
    pub id: MdsId,
    /// Mutations since the last publish (drift-gate cadence state).
    pub since_publish: u64,
    /// Mutations since the last exact drift check.
    pub since_drift: u64,
    /// `(path, fingerprint lanes)`, sorted by path.
    pub files: Vec<(String, (u64, u64))>,
    /// [`BloomFilter::to_bytes`] of the published filter.
    pub published: Vec<u8>,
}

/// A full durable snapshot of a cluster: namespace shards, published
/// filter slab, membership/group shape, and the WAL sequence watermark
/// up to which the log is already folded in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The cluster's [`MembershipEpoch`] at capture time.
    pub epoch: u64,
    /// Records at or below this sequence number are part of the
    /// checkpoint; replay starts above it.
    pub wal_seq: u64,
    /// The configuration the checkpoint is only valid under.
    pub guard: ConfigGuard,
    /// The snapshot's monotonic group-id allocator position.
    pub next_group: u16,
    /// Every live group's shape, ascending by id.
    pub groups: Vec<GroupShape>,
    /// Every server's durable state, ascending by id.
    pub servers: Vec<ServerState>,
}

impl Checkpoint {
    /// Captures a checkpoint of `cluster` (which must have no pending
    /// concurrent writes — the owner drains before calling).
    pub(crate) fn capture(cluster: &GhbaCluster, wal_seq: u64) -> Checkpoint {
        let snap = cluster.routes.pin();
        let groups = snap
            .groups
            .iter()
            .map(|(&gid, group)| GroupShape {
                gid,
                epoch: snap.group_epoch(gid).0,
                members: group.members().to_vec(),
            })
            .collect();
        let servers = cluster
            .mdss
            .values()
            .map(|mds| {
                let mut files: Vec<(String, (u64, u64))> = mds
                    .store()
                    .paths()
                    .map(|path| (path.to_owned(), Fingerprint::of(path).lanes()))
                    .collect();
                files.sort();
                let (since_publish, since_drift) = mds.durable_counters();
                ServerState {
                    id: mds.id(),
                    since_publish,
                    since_drift,
                    files,
                    published: mds.published().to_bytes(),
                }
            })
            .collect();
        Checkpoint {
            epoch: snap.epoch.0,
            wal_seq,
            guard: ConfigGuard::of(&cluster.config),
            next_group: snap.next_group,
            groups,
            servers,
        }
    }

    /// Serializes the checkpoint as laid out on disk: one CRC frame
    /// around `["GCKP"][version][epoch][wal_seq][guard][shape][servers]`.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&CKPT_MAGIC);
        body.extend_from_slice(&WAL_VERSION.to_le_bytes());
        body.extend_from_slice(&self.epoch.to_le_bytes());
        body.extend_from_slice(&self.wal_seq.to_le_bytes());
        body.extend_from_slice(&self.guard.seed.to_le_bytes());
        body.extend_from_slice(&self.guard.max_group_size.to_le_bytes());
        body.extend_from_slice(&self.guard.filter_bits.to_le_bytes());
        body.extend_from_slice(&self.guard.filter_hashes.to_le_bytes());
        body.extend_from_slice(&self.guard.write_shards.to_le_bytes());
        body.extend_from_slice(&self.next_group.to_le_bytes());
        body.extend_from_slice(
            &u32::try_from(self.groups.len())
                .expect("count fits")
                .to_le_bytes(),
        );
        for group in &self.groups {
            body.extend_from_slice(&group.gid.0.to_le_bytes());
            body.extend_from_slice(&group.epoch.to_le_bytes());
            body.extend_from_slice(
                &u32::try_from(group.members.len())
                    .expect("count fits")
                    .to_le_bytes(),
            );
            for member in &group.members {
                body.extend_from_slice(&member.0.to_le_bytes());
            }
        }
        body.extend_from_slice(
            &u32::try_from(self.servers.len())
                .expect("count fits")
                .to_le_bytes(),
        );
        for server in &self.servers {
            body.extend_from_slice(&server.id.0.to_le_bytes());
            body.extend_from_slice(&server.since_publish.to_le_bytes());
            body.extend_from_slice(&server.since_drift.to_le_bytes());
            body.extend_from_slice(
                &u32::try_from(server.files.len())
                    .expect("count fits")
                    .to_le_bytes(),
            );
            for (path, (a, b)) in &server.files {
                body.extend_from_slice(&a.to_le_bytes());
                body.extend_from_slice(&b.to_le_bytes());
                push_str(&mut body, path);
            }
            body.extend_from_slice(
                &u32::try_from(server.published.len())
                    .expect("count fits")
                    .to_le_bytes(),
            );
            body.extend_from_slice(&server.published);
        }
        frame(&body)
    }

    /// Decodes a checkpoint from [`to_bytes`](Checkpoint::to_bytes)
    /// output.
    ///
    /// # Errors
    ///
    /// [`WalError::Corrupt`] on any malformed byte sequence (bit flips
    /// are caught by the CRC, logical truncation by the reader).
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, WalError> {
        let (body, consumed) = unframe(bytes)?;
        if consumed != bytes.len() {
            return Err(WalError::Corrupt("trailing bytes after checkpoint".into()));
        }
        let mut reader = ByteReader::new(body);
        if reader.take(4, "checkpoint magic")? != CKPT_MAGIC {
            return Err(WalError::Corrupt("bad checkpoint magic".into()));
        }
        let version = reader.u16("checkpoint version")?;
        if version != WAL_VERSION {
            return Err(WalError::Corrupt(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let epoch = reader.u64("epoch")?;
        let wal_seq = reader.u64("wal watermark")?;
        let guard = ConfigGuard {
            seed: reader.u64("guard seed")?,
            max_group_size: reader.u64("guard group size")?,
            filter_bits: reader.u64("guard filter bits")?,
            filter_hashes: reader.u32("guard filter hashes")?,
            write_shards: reader.u64("guard write shards")?,
        };
        let next_group = reader.u16("next group")?;
        let group_count = reader.u32("group count")? as usize;
        let mut groups = Vec::with_capacity(group_count.min(1 << 16));
        for _ in 0..group_count {
            let gid = GroupId(reader.u16("group id")?);
            let gepoch = reader.u64("group epoch")?;
            let member_count = reader.u32("member count")? as usize;
            let mut members = Vec::with_capacity(member_count.min(1 << 16));
            for _ in 0..member_count {
                members.push(MdsId(reader.u16("group member")?));
            }
            groups.push(GroupShape {
                gid,
                epoch: gepoch,
                members,
            });
        }
        let server_count = reader.u32("server count")? as usize;
        let mut servers = Vec::with_capacity(server_count.min(1 << 16));
        for _ in 0..server_count {
            let id = MdsId(reader.u16("server id")?);
            let since_publish = reader.u64("since publish")?;
            let since_drift = reader.u64("since drift")?;
            let file_count = reader.u32("file count")? as usize;
            let mut files = Vec::with_capacity(file_count.min(1 << 16));
            for _ in 0..file_count {
                let a = reader.u64("file lane")?;
                let b = reader.u64("file lane")?;
                let path = read_str(&mut reader, "file path")?;
                if Fingerprint::of(path.as_str()) != Fingerprint::from_lanes(a, b) {
                    return Err(WalError::Corrupt(format!(
                        "checkpoint fingerprint does not match path {path:?}"
                    )));
                }
                files.push((path, (a, b)));
            }
            let published_len = reader.u32("published length")? as usize;
            let published = reader.take(published_len, "published filter")?.to_vec();
            servers.push(ServerState {
                id,
                since_publish,
                since_drift,
                files,
                published,
            });
        }
        reader.finish("checkpoint")?;
        Ok(Checkpoint {
            epoch,
            wal_seq,
            guard,
            next_group,
            groups,
            servers,
        })
    }
}

// ---------------------------------------------------------------------------
// The WAL itself.
// ---------------------------------------------------------------------------

/// What [`Wal::open`] found on disk.
#[derive(Debug)]
pub struct WalRecovery {
    /// The installed checkpoint, if one exists.
    pub checkpoint: Option<Checkpoint>,
    /// Every surviving log record, ascending by sequence (possibly
    /// including records at or below the checkpoint watermark, when a
    /// crash landed between checkpoint install and log truncation).
    pub records: Vec<WalRecord>,
    /// Bytes of torn/corrupt tail that were truncated away on open.
    pub truncated_bytes: u64,
}

/// An open write-ahead log (one directory: `wal.log` +
/// `checkpoint.bin`). Attach to a cluster with
/// [`GhbaCluster::attach_wal`] or obtain one already replayed via
/// [`GhbaCluster::recover`].
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    log: File,
    next_seq: u64,
    options: WalOptions,
    last_sync: Instant,
    appended_since_checkpoint: u64,
}

impl Wal {
    /// Opens (creating if needed) the WAL directory, reads the installed
    /// checkpoint, scans the log — truncating any torn or corrupt tail
    /// to the last complete, CRC-valid, sequence-monotonic record — and
    /// returns the log positioned for appending plus everything
    /// recovered.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] on filesystem failures; [`WalError::Corrupt`]
    /// when an *installed checkpoint* is unreadable (a torn log tail is
    /// recovered from, but a damaged checkpoint has nothing to recover
    /// with and must not be silently ignored).
    pub fn open(dir: &Path, options: WalOptions) -> Result<(Wal, WalRecovery), WalError> {
        fs::create_dir_all(dir)?;
        // A leftover tmp file is a checkpoint install that never reached
        // its rename: the installed checkpoint (if any) is still intact.
        let _ = fs::remove_file(dir.join(CKPT_TMP));
        let checkpoint = match fs::read(dir.join(CKPT_FILE)) {
            Ok(bytes) => Some(Checkpoint::from_bytes(&bytes)?),
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => None,
            Err(err) => return Err(err.into()),
        };
        let watermark = checkpoint.as_ref().map_or(0, |c| c.wal_seq);
        let log_path = dir.join(LOG_FILE);
        let bytes = match fs::read(&log_path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(err) => return Err(err.into()),
        };
        let mut records = Vec::new();
        let mut good = 0usize;
        let mut prev_seq: Option<u64> = None;
        while good < bytes.len() {
            match decode_record(&bytes[good..]) {
                Ok((record, consumed)) => {
                    if prev_seq.is_some_and(|prev| record.seq <= prev) {
                        // Sequence regressed: everything from here on is
                        // stale or scrambled — treat as tail damage.
                        break;
                    }
                    prev_seq = Some(record.seq);
                    records.push(record);
                    good += consumed;
                }
                // Torn tail (crash mid-append) or tail corruption:
                // recover to the last complete record, never panic.
                Err(_) => break,
            }
        }
        let truncated_bytes = (bytes.len() - good) as u64;
        let mut log = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&log_path)?;
        if truncated_bytes > 0 {
            log.set_len(good as u64)?;
            log.sync_data()?;
        }
        log.seek(SeekFrom::Start(good as u64))?;
        let last_seq = records.last().map_or(watermark, |r| r.seq.max(watermark));
        let appended_since_checkpoint = records.iter().filter(|r| r.seq > watermark).count() as u64;
        let wal = Wal {
            dir: dir.to_path_buf(),
            log,
            next_seq: last_seq + 1,
            options,
            last_sync: Instant::now(),
            appended_since_checkpoint,
        };
        Ok((
            wal,
            WalRecovery {
                checkpoint,
                records,
                truncated_bytes,
            },
        ))
    }

    /// The directory this log lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sequence number the next append will use.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The sequence number of the last appended (or recovered) record;
    /// `0` when the log has never held one.
    #[must_use]
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Appends one drain record (see [`WalEvent::Drain`]).
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when the append or sync fails.
    pub fn append_drain(
        &mut self,
        records: &[WriteRecord],
        staged: &[MdsId],
    ) -> Result<u64, WalError> {
        let payload = encode_drain_payload(records, staged);
        self.append_raw(KIND_DRAIN, &payload)
    }

    /// Appends one flush-barrier record (see [`WalEvent::FlushAll`]).
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when the append or sync fails.
    pub fn append_flush(&mut self) -> Result<u64, WalError> {
        self.append_raw(KIND_FLUSH, &[])
    }

    fn append_raw(&mut self, kind: u8, payload: &[u8]) -> Result<u64, WalError> {
        let seq = self.next_seq;
        self.log
            .write_all(&frame(&record_body(seq, kind, payload)))?;
        match self.options.sync {
            SyncPolicy::EveryBatch => self.log.sync_data()?,
            SyncPolicy::GroupCommit(interval) => {
                if self.last_sync.elapsed() >= interval {
                    self.log.sync_data()?;
                    self.last_sync = Instant::now();
                }
            }
            SyncPolicy::None => {}
        }
        self.next_seq += 1;
        self.appended_since_checkpoint += 1;
        Ok(seq)
    }

    /// Forces everything appended so far to stable storage, whatever
    /// the sync policy.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when the sync fails.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.log.sync_data()?;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Whether the automatic-checkpoint threshold has been reached.
    #[must_use]
    pub fn checkpoint_due(&self) -> bool {
        self.options.checkpoint_every > 0
            && self.appended_since_checkpoint >= self.options.checkpoint_every
    }

    /// Records appended (or recovered) above the installed checkpoint's
    /// watermark — the length of the replay tail a crash right now
    /// would incur.
    #[must_use]
    pub fn tail_len(&self) -> u64 {
        self.appended_since_checkpoint
    }

    /// Atomically installs `checkpoint` (tmp → fsync → rename → dir
    /// sync) and truncates the log. A crash between the rename and the
    /// truncation is safe: recovery skips records at or below the
    /// checkpoint's watermark.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when any step fails (an installed older
    /// checkpoint stays intact in that case).
    pub fn install_checkpoint(&mut self, checkpoint: &Checkpoint) -> Result<(), WalError> {
        let tmp = self.dir.join(CKPT_TMP);
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&checkpoint.to_bytes())?;
            file.sync_all()?;
        }
        fs::rename(&tmp, self.dir.join(CKPT_FILE))?;
        if let Ok(dir) = File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        self.log.set_len(0)?;
        self.log.seek(SeekFrom::Start(0))?;
        self.log.sync_data()?;
        self.appended_since_checkpoint = 0;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Cluster integration: attach, checkpoint, recover.
// ---------------------------------------------------------------------------

impl GhbaCluster {
    /// Attaches an open WAL: every subsequent shard-log drain and flush
    /// barrier is logged (and synced per the WAL's policy) before its
    /// effects apply. Pending concurrent writes are drained (unlogged —
    /// they pre-date the attachment) first.
    pub fn attach_wal(&mut self, wal: Wal) {
        self.maybe_drain();
        self.wal = Some(Box::new(wal));
    }

    /// Detaches and returns the WAL, draining (and logging) any pending
    /// writes first.
    pub fn detach_wal(&mut self) -> Option<Wal> {
        self.maybe_drain();
        self.wal.take().map(|wal| *wal)
    }

    /// The attached WAL, if any.
    #[must_use]
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_deref()
    }

    /// Captures a durable snapshot of the current state (draining
    /// pending concurrent writes first). The watermark is the last
    /// WAL sequence when a WAL is attached, `0` otherwise.
    pub fn capture_checkpoint(&mut self) -> Checkpoint {
        self.maybe_drain();
        let wal_seq = self.wal.as_ref().map_or(0, |wal| wal.last_seq());
        Checkpoint::capture(self, wal_seq)
    }

    /// Captures and installs a checkpoint through the attached WAL
    /// (truncating the log). Returns `false` (and does nothing) without
    /// an attached WAL.
    ///
    /// # Errors
    ///
    /// Propagates [`WalError::Io`] from the install.
    pub fn checkpoint_now(&mut self) -> Result<bool, WalError> {
        self.maybe_drain();
        let Some(mut wal) = self.wal.take() else {
            return Ok(false);
        };
        let checkpoint = Checkpoint::capture(self, wal.last_seq());
        let result = wal.install_checkpoint(&checkpoint);
        self.wal = Some(wal);
        result.map(|()| true)
    }

    /// Installs an automatic checkpoint when the attached WAL's
    /// threshold has been reached (called at the end of every drain,
    /// when the cluster is momentarily clean).
    pub(crate) fn maybe_checkpoint(&mut self) {
        if !self.wal.as_ref().is_some_and(|wal| wal.checkpoint_due()) {
            return;
        }
        let mut wal = self.wal.take().expect("checked above");
        let checkpoint = Checkpoint::capture(self, wal.last_seq());
        wal.install_checkpoint(&checkpoint)
            .expect("checkpoint install failed: the log can no longer be bounded");
        self.wal = Some(wal);
    }

    /// Rebuilds a serving cluster from a WAL directory: construct the
    /// deterministic startup shape, apply the installed checkpoint (if
    /// any), replay the log tail above the watermark through the same
    /// drain/flush paths original execution took, and attach the WAL
    /// for continued logging. An empty or absent directory yields a
    /// fresh cluster with a fresh log — first boot and restart share
    /// one entry point.
    ///
    /// # Errors
    ///
    /// [`WalError::Corrupt`] for undecodable checkpoints or records
    /// that name unknown servers; [`WalError::ConfigMismatch`] when the
    /// checkpoint's config guard or server roster differs from
    /// `config`/`servers`; [`WalError::Io`] on filesystem failures.
    /// Torn log tails are not errors (they truncate cleanly).
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn recover(
        config: GhbaConfig,
        servers: usize,
        dir: &Path,
        options: WalOptions,
    ) -> Result<GhbaCluster, WalError> {
        let (wal, recovery) = Wal::open(dir, options)?;
        let mut cluster = GhbaCluster::with_servers(config, servers);
        let watermark = recovery.checkpoint.as_ref().map_or(0, |c| c.wal_seq);
        if let Some(checkpoint) = &recovery.checkpoint {
            cluster.restore_checkpoint(checkpoint)?;
        }
        for record in &recovery.records {
            if record.seq <= watermark {
                continue;
            }
            cluster.replay_wal_event(&record.event)?;
        }
        cluster.wal = Some(Box::new(wal));
        Ok(cluster)
    }

    fn restore_checkpoint(&mut self, checkpoint: &Checkpoint) -> Result<(), WalError> {
        let guard = ConfigGuard::of(&self.config);
        if guard != checkpoint.guard {
            return Err(WalError::ConfigMismatch(format!(
                "checkpoint guard {:?} vs configured {:?}",
                checkpoint.guard, guard
            )));
        }
        let live_ids = self.server_ids();
        let ckpt_ids: Vec<MdsId> = checkpoint.servers.iter().map(|s| s.id).collect();
        if live_ids != ckpt_ids {
            return Err(WalError::ConfigMismatch(format!(
                "checkpoint rosters {ckpt_ids:?} vs configured {live_ids:?}"
            )));
        }
        let shape_matches = {
            let snap = self.routes.pin();
            checkpoint.next_group == snap.next_group
                && checkpoint.epoch == snap.epoch.0
                && checkpoint.groups.len() == snap.groups.len()
                && checkpoint.groups.iter().all(|shape| {
                    snap.group_epoch(shape.gid).0 == shape.epoch
                        && snap
                            .groups
                            .get(&shape.gid)
                            .is_some_and(|live| live.members() == shape.members.as_slice())
                })
        };
        if !shape_matches {
            self.restore_group_shape(checkpoint)?;
        }
        let expected_shape = published_shape(&self.config);
        for state in &checkpoint.servers {
            let published = BloomFilter::from_bytes(&state.published)
                .map_err(|err| WalError::Corrupt(format!("checkpoint filter: {err}")))?;
            if published.shape() != expected_shape {
                return Err(WalError::ConfigMismatch(
                    "checkpoint filter geometry differs from configuration".into(),
                ));
            }
            let mds = self.mdss.get_mut(&state.id).expect("roster validated");
            for (path, (a, b)) in &state.files {
                mds.create_local_fp(path, &Fingerprint::from_lanes(*a, *b));
            }
            mds.restore_published(published, state.since_publish, state.since_drift);
        }
        // Synchronize every slab column with its restored published
        // filter (sparse deltas; no epoch movement — a publish refreshes
        // content under the same layout).
        let routes = Arc::clone(&self.routes);
        let mut edit = RouteEdit::begin(&routes, self.config.epoch_granularity);
        let mut ops: Vec<(MdsId, FilterDelta)> = Vec::new();
        for (&id, mds) in &self.mdss {
            let Some(column) = edit.work.slab.extract(id) else {
                continue;
            };
            if let Ok(delta) = FilterDelta::between(&column, mds.published()) {
                if !delta.is_empty() {
                    ops.push((id, delta));
                }
            }
        }
        for (id, delta) in ops {
            edit.push_op(SlabOp::Delta(id, delta));
        }
        self.finish_edit(edit);
        Ok(())
    }

    /// Restores a checkpointed group shape that differs from the
    /// deterministic startup shape (a controller reshaped the cluster
    /// before the capture): exact membership, group epochs, allocator
    /// position, and membership epoch; replica placement is rebuilt
    /// deterministically (see the module docs).
    fn restore_group_shape(&mut self, checkpoint: &Checkpoint) -> Result<(), WalError> {
        let mut seen: BTreeSet<MdsId> = BTreeSet::new();
        let mut gids: BTreeSet<GroupId> = BTreeSet::new();
        for shape in &checkpoint.groups {
            if shape.members.is_empty() {
                return Err(WalError::Corrupt(format!("empty group {}", shape.gid)));
            }
            if shape.gid.0 >= checkpoint.next_group || !gids.insert(shape.gid) {
                return Err(WalError::Corrupt(format!(
                    "group shape allocator inconsistency at {}",
                    shape.gid
                )));
            }
            for &member in &shape.members {
                if !seen.insert(member) {
                    return Err(WalError::Corrupt(format!(
                        "server {member} appears in two groups"
                    )));
                }
            }
        }
        if seen.iter().copied().collect::<Vec<_>>() != self.server_ids() {
            return Err(WalError::Corrupt(
                "group shape does not cover the server roster".into(),
            ));
        }
        let routes = Arc::clone(&self.routes);
        let mut edit = RouteEdit::begin(&routes, self.config.epoch_granularity);
        let old: Vec<GroupId> = edit.work.groups.keys().copied().collect();
        for gid in old {
            edit.remove_group(gid);
        }
        edit.work.group_of.clear();
        for shape in &checkpoint.groups {
            let mut group = Group::new(shape.gid);
            for &member in &shape.members {
                group.add_member(member);
                edit.work.group_of.insert(member, shape.gid);
            }
            edit.insert_group(group);
        }
        for shape in &checkpoint.groups {
            edit.rebuild_coverage(shape.gid);
        }
        edit.work.next_group = checkpoint.next_group;
        edit.work.epoch = MembershipEpoch(checkpoint.epoch);
        for shape in &checkpoint.groups {
            edit.work
                .group_epochs
                .insert(shape.gid, GroupEpoch(shape.epoch));
        }
        self.finish_edit(edit);
        self.refresh_replica_charges();
        Ok(())
    }

    /// Replays one logged event through the same paths the original
    /// execution took (the attached WAL must be `None` while replaying;
    /// [`recover`](GhbaCluster::recover) attaches it afterwards).
    fn replay_wal_event(&mut self, event: &WalEvent) -> Result<(), WalError> {
        match event {
            WalEvent::Drain { records, staged } => {
                for record in records {
                    if let WriteKind::Create(home) = record.kind {
                        if !self.mdss.contains_key(&home) {
                            return Err(WalError::Corrupt(format!(
                                "logged create targets unknown server {home}"
                            )));
                        }
                    }
                }
                self.apply_write_records(records);
                self.reconcile_staged(staged);
            }
            WalEvent::FlushAll => {
                let _ = self.flush_all_updates();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn record_round_trips() {
        let event = WalEvent::Drain {
            records: vec![
                WriteRecord {
                    path: "/a/b".into(),
                    fp: Fingerprint::of("/a/b"),
                    kind: WriteKind::Create(MdsId(3)),
                },
                WriteRecord {
                    path: "/a/b".into(),
                    fp: Fingerprint::of("/a/b"),
                    kind: WriteKind::Remove(MdsId(3)),
                },
            ],
            staged: vec![MdsId(1), MdsId(3)],
        };
        let bytes = encode_record(7, &event);
        let (record, consumed) = decode_record(&bytes).expect("round trip");
        assert_eq!(consumed, bytes.len());
        assert_eq!(record, WalRecord { seq: 7, event });
    }

    #[test]
    fn flush_record_round_trips() {
        let bytes = encode_record(1, &WalEvent::FlushAll);
        let (record, _) = decode_record(&bytes).expect("round trip");
        assert_eq!(record.seq, 1);
        assert_eq!(record.event, WalEvent::FlushAll);
    }

    #[test]
    fn tampered_fingerprint_is_rejected() {
        let event = WalEvent::Drain {
            records: vec![WriteRecord {
                path: "/t/x".into(),
                fp: Fingerprint::of("/t/OTHER"),
                kind: WriteKind::Create(MdsId(0)),
            }],
            staged: vec![],
        };
        // encode_record writes the (wrong) lanes verbatim; the CRC is
        // valid, so only the semantic re-verification can catch it.
        let bytes = encode_record(1, &event);
        assert!(matches!(
            decode_record(&bytes),
            Err(WalError::Corrupt(detail)) if detail.contains("fingerprint")
        ));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let event = WalEvent::Drain {
            records: vec![WriteRecord {
                path: "/p/q".into(),
                fp: Fingerprint::of("/p/q"),
                kind: WriteKind::Create(MdsId(1)),
            }],
            staged: vec![MdsId(1)],
        };
        let bytes = encode_record(9, &event);
        for cut in 0..bytes.len() {
            assert!(
                decode_record(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_a_typed_error_or_decodes_nothing_silently_wrong() {
        let event = WalEvent::Drain {
            records: vec![WriteRecord {
                path: "/flip/me".into(),
                fp: Fingerprint::of("/flip/me"),
                kind: WriteKind::Remove(MdsId(2)),
            }],
            staged: vec![],
        };
        let clean = encode_record(3, &event);
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut dirty = clean.clone();
                dirty[byte] ^= 1 << bit;
                match decode_record(&dirty) {
                    // Flips in the length prefix can widen the frame; a
                    // *valid* decode must still be byte-faithful, which a
                    // CRC-checked body with matched length cannot fake.
                    Ok((record, _)) => {
                        panic!("bit flip {byte}:{bit} decoded silently: {record:?}")
                    }
                    Err(WalError::Corrupt(_)) => {}
                    Err(other) => panic!("unexpected error class: {other}"),
                }
            }
        }
    }
}
