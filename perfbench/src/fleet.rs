//! The two networked workloads: a loopback-TCP fleet of 2 replicas × 8
//! MDS driven by one closed-loop `NetClient`, and the in-process twin
//! `Federation` that replays the same batches at the same barriers —
//! as the ground truth every outcome is checked against, and, in the
//! traced run, as the server side whose layers are timed from outside.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ghba_core::{
    EntryPolicy, GhbaConfig, MetadataOp, MetadataService, OpBatch, OpOutcome, SyncPolicy, Wal,
    WalOptions,
};
use ghba_net::{
    execute_sharded, replica_of, BatchTransport, Federation, NetClient, NetMessage, Rendezvous,
    ReplicaConfig, ReplicaServer, WireError,
};
use ghba_trace::{ClientPartition, TraceRecord, WorkloadProfile};

use crate::host::{fmt_bytes, Host};
use crate::report::Report;
use crate::stats::{median, Samples};
use crate::trace::{totals_by_name, unattributed_ns, Tracer};
use crate::workload::{
    admit, count_mismatches, create_batches, pct, trace_overhead, Home, Mix, Modelled, WalkCounts,
};
use crate::{Args, Outcome};

const REPLICAS: usize = 2;
const SERVERS: usize = 8;
/// Active files per namespace (the shared hot namespace and the
/// client's private one).
const FILES: u64 = 20_000;
/// A `Drain` barrier after every this many client batches.
const BARRIER_EVERY: usize = 32;
/// Fleet replicas install a checkpoint every this many WAL records.
const CHECKPOINT_EVERY: u64 = 16;
const GROUP_COMMIT: Duration = Duration::from_millis(5);
/// The replicas' wall-clock reconciler cadence: an hour, i.e. parked,
/// so only the op-count barriers publish and the work never varies.
const PARKED: Duration = Duration::from_secs(3600);
const POPULATE_BATCH: usize = 512;
const SETUPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    WriteDurable,
}

impl Kind {
    fn profile(self) -> WorkloadProfile {
        let mut profile = match self {
            Kind::Read => WorkloadProfile::res(),
            Kind::WriteDurable => WorkloadProfile::hp(),
        };
        profile.active_files = FILES;
        profile.total_files = FILES * 10;
        profile
    }

    /// Trace records generated per second of `--seconds`: fixed work,
    /// sized so one run measures about that long on a 2-core host.
    fn records_per_second(self) -> u64 {
        match self {
            Kind::Read => 130_000,
            Kind::WriteDurable => 80_000,
        }
    }

    fn durable(self) -> bool {
        self == Kind::WriteDurable
    }
}

fn base_config() -> GhbaConfig {
    GhbaConfig::default()
}

/// Everything generated from the seed before the fleet sees any of it.
struct Pregen {
    populate: Vec<OpBatch>,
    batches: Vec<OpBatch>,
    admit: Duration,
}

fn pregen(kind: Kind, args: &Args, mut tracer: Option<&mut Tracer>) -> Pregen {
    let partition = ClientPartition::new(kind.profile(), 1, args.seed);
    let n = usize::try_from(kind.records_per_second() * args.seconds).expect("record count fits");
    let generate = || partition.client(0).take(n).collect::<Vec<TraceRecord>>();
    let records = match tracer.as_deref_mut() {
        Some(t) => t.span("trace.generate", |_| generate()),
        None => generate(),
    };
    let (batches, admit) = admit(records, EntryPolicy::RoundRobin { start: 0 }, tracer);
    Pregen {
        populate: create_batches(partition.initial_paths(), POPULATE_BATCH),
        batches,
        admit,
    }
}

/// A running fleet: rendezvous, replica servers and the one client.
struct Fleet {
    rendezvous: Rendezvous,
    replicas: Vec<ReplicaServer>,
    client: NetClient,
    wal_dirs: Vec<PathBuf>,
}

fn io_err(err: WireError) -> std::io::Error {
    std::io::Error::other(err.to_string())
}

impl Fleet {
    fn launch(kind: Kind, work: &Path) -> std::io::Result<Fleet> {
        let rendezvous = Rendezvous::spawn("127.0.0.1:0")?;
        let addr = rendezvous.addr().to_string();
        let mut replicas = Vec::with_capacity(REPLICAS);
        let mut wal_dirs = Vec::new();
        for r in 0..REPLICAS {
            let mut config = ReplicaConfig::new(r as u16, SERVERS, base_config())
                .with_rendezvous(addr.clone())
                .with_drain_cadence(PARKED);
            if kind.durable() {
                let dir = work.join(format!("replica-{r}"));
                if dir.exists() {
                    std::fs::remove_dir_all(&dir)?;
                }
                config = config
                    .with_wal_dir(&dir)
                    .with_sync_policy(SyncPolicy::GroupCommit(GROUP_COMMIT))
                    .with_checkpoint_every(CHECKPOINT_EVERY);
                wal_dirs.push(dir);
            }
            replicas.push(ReplicaServer::spawn(config)?);
        }
        let client =
            NetClient::connect(&addr, REPLICAS, Duration::from_secs(10)).map_err(io_err)?;
        Ok(Fleet {
            rendezvous,
            replicas,
            client,
            wal_dirs,
        })
    }

    fn populate(&mut self, pre: &Pregen) -> std::io::Result<()> {
        for batch in &pre.populate {
            self.client.execute(batch).map_err(io_err)?;
        }
        self.client.drain_all().map_err(io_err)?;
        Ok(())
    }

    fn shutdown(self) {
        drop(self.client);
        for replica in self.replicas {
            replica.shutdown();
        }
        self.rendezvous.shutdown();
    }
}

/// Inode and modification time of a checkpoint file: a new checkpoint is
/// installed by rename, so either changes when one lands.
type CheckpointId = (u64, i64, i64);

/// WAL bytes written, sampled from the replicas' WAL directories at
/// every barrier: log growth plus each newly installed checkpoint. A
/// record appended and truncated by a checkpoint within one barrier is
/// not seen.
#[derive(Debug, Default)]
struct WalMeter {
    dirs: Vec<PathBuf>,
    last: Vec<(u64, Option<CheckpointId>)>,
    log_bytes: u64,
    checkpoint_bytes: u64,
    checkpoints: u64,
}

impl WalMeter {
    fn new(dirs: &[PathBuf]) -> WalMeter {
        let last = dirs.iter().map(|d| Self::probe(d)).collect();
        WalMeter {
            dirs: dirs.to_vec(),
            last,
            ..WalMeter::default()
        }
    }

    fn probe(dir: &Path) -> (u64, Option<CheckpointId>) {
        use std::os::unix::fs::MetadataExt;
        let log = std::fs::metadata(dir.join("wal.log")).map_or(0, |m| m.len());
        let ckpt = std::fs::metadata(dir.join("checkpoint.bin"))
            .ok()
            .map(|m| (m.ino(), m.mtime(), m.mtime_nsec()));
        (log, ckpt)
    }

    fn sample(&mut self) {
        for (dir, last) in self.dirs.iter().zip(self.last.iter_mut()) {
            let now = Self::probe(dir);
            if now.1 != last.1 {
                self.checkpoints += 1;
                self.checkpoint_bytes +=
                    std::fs::metadata(dir.join("checkpoint.bin")).map_or(0, |m| m.len());
                self.log_bytes += now.0;
            } else {
                self.log_bytes += now.0.saturating_sub(last.0);
            }
            *last = now;
        }
    }
}

/// The client side of one measured phase.
#[derive(Debug, Default)]
struct ClientRun {
    homes: Vec<Home>,
    batch_lat: Samples,
    drain_lat: Samples,
    wall: Duration,
    ops_done: u64,
    error: Option<String>,
    drained_records: u64,
    barriers: u64,
    wal: WalMeter,
    reconnects: u64,
    window: (u64, u64),
    /// VmHWM at the end of the measured phase, before any replay.
    peak_rss: Option<u64>,
}

/// `NetClient` behind a span per `execute_on`, so each replica round
/// trip is a child of the client's `execute_sharded` span.
struct TimedClient<'a> {
    client: &'a mut NetClient,
    tracer: &'a mut Tracer,
}

impl BatchTransport for TimedClient<'_> {
    fn replica_count(&self) -> usize {
        self.client.replica_count()
    }

    fn execute_on(&mut self, replica: usize, batch: &OpBatch) -> Result<Vec<OpOutcome>, WireError> {
        let id = self.tracer.begin("client.execute_on");
        let result = self.client.execute_on(replica, batch);
        self.tracer.end(id);
        result
    }
}

fn drive(fleet: &mut Fleet, pre: &Pregen, mut tracer: Option<&mut Tracer>) -> ClientRun {
    let mut run = ClientRun {
        homes: Vec::with_capacity(pre.batches.iter().map(OpBatch::len).sum()),
        batch_lat: Samples::with_capacity(pre.batches.len()),
        wal: WalMeter::new(&fleet.wal_dirs),
        ..ClientRun::default()
    };
    let from = tracer.as_deref().map_or(0, Tracer::now_ns);
    let start = Instant::now();
    for (i, batch) in pre.batches.iter().enumerate() {
        let t0 = Instant::now();
        let result = match tracer.as_deref_mut() {
            Some(t) => {
                t.set_request(i as u64);
                let id = t.begin("client.execute_sharded");
                let result = execute_sharded(
                    &mut TimedClient {
                        client: &mut fleet.client,
                        tracer: t,
                    },
                    batch,
                );
                t.end(id);
                result
            }
            None => fleet.client.execute(batch),
        };
        run.batch_lat.push_duration(t0.elapsed());
        match result {
            Ok(outcomes) => {
                run.homes.extend(outcomes.iter().map(Home::of));
                run.ops_done += batch.len() as u64;
            }
            Err(err) => {
                run.error = Some(format!("batch {i}: {err}"));
                break;
            }
        }
        if (i + 1) % BARRIER_EVERY == 0 || i + 1 == pre.batches.len() {
            let t1 = Instant::now();
            let acks = match tracer.as_deref_mut() {
                Some(t) => t.span("client.drain_all", |_| fleet.client.drain_all()),
                None => fleet.client.drain_all(),
            };
            run.drain_lat.push_duration(t1.elapsed());
            run.barriers += 1;
            match acks {
                Ok(acks) => run.drained_records += acks.iter().map(|&(d, _)| d).sum::<u64>(),
                Err(err) => {
                    run.error = Some(format!("barrier after batch {i}: {err}"));
                    break;
                }
            }
            run.wal.sample();
        }
    }
    run.wall = start.elapsed();
    run.window = (from, tracer.as_deref().map_or(0, Tracer::now_ns));
    run.reconnects = fleet.client.reconnects();
    run.peak_rss = crate::host::peak_rss_bytes();
    run
}

/// The server-side replay on the in-process twin.
#[derive(Debug, Default)]
struct TwinRun {
    homes: Vec<Home>,
    modelled: Modelled,
    split_renames: u64,
    wave2_batches: u64,
    publish_msgs: u64,
    publish_bytes: u64,
    barriers: u64,
    walk: WalkCounts,
    filter_bytes_per_mds: f64,
    epoch_bumps: u64,
    codec_req_bytes: u64,
    codec_reply_bytes: u64,
    sub_ops: u64,
    window: (u64, u64),
}

/// The twin's transport in the traced run: every sub-batch goes through
/// the same frames a replica would see — request encoded and decoded,
/// executed on the shard cluster, reply encoded and decoded — each step
/// under its own span.
struct TwinWire<'a> {
    fed: &'a Federation,
    tracer: &'a mut Tracer,
    seq: u64,
    req_bytes: u64,
    reply_bytes: u64,
    sub_ops: u64,
}

impl BatchTransport for TwinWire<'_> {
    fn replica_count(&self) -> usize {
        self.fed.replica_count()
    }

    fn execute_on(&mut self, replica: usize, batch: &OpBatch) -> Result<Vec<OpOutcome>, WireError> {
        let seq = self.seq;
        self.seq += 1;
        self.sub_ops += batch.len() as u64;
        let request = NetMessage::ExecuteBatch {
            seq,
            batch: batch.clone(),
        };
        let frame = self
            .tracer
            .span("proto.encode_request", |_| request.to_frame());
        self.req_bytes += frame.bytes().len() as u64;
        let decoded = self.tracer.span("proto.decode_request", |_| {
            NetMessage::parse_frame(frame.bytes())
        })?;
        let NetMessage::ExecuteBatch { batch: served, .. } = decoded.0 else {
            return Err(WireError::Protocol {
                detail: "request decoded to another message".to_string(),
            });
        };
        let cluster = self.fed.cluster(replica);
        let outcomes = self.tracer.span("core.execute_concurrent", |_| {
            cluster.execute_concurrent(&served)
        });
        let reply = NetMessage::BatchReply { seq, outcomes };
        let frame = self.tracer.span("proto.encode_reply", |_| reply.to_frame());
        self.reply_bytes += frame.bytes().len() as u64;
        let decoded = self.tracer.span("proto.decode_reply", |_| {
            NetMessage::parse_frame(frame.bytes())
        })?;
        match decoded.0 {
            NetMessage::BatchReply { outcomes, .. } => Ok(outcomes),
            _ => Err(WireError::Protocol {
                detail: "reply decoded to another message".to_string(),
            }),
        }
    }
}

fn replay_twin(
    kind: Kind,
    pre: &Pregen,
    mut tracer: Option<&mut Tracer>,
    work: &Path,
) -> std::io::Result<TwinRun> {
    let mut fed = Federation::new(&base_config(), REPLICAS, SERVERS);
    for batch in &pre.populate {
        execute_sharded(&mut fed, batch).expect("in-process execution cannot fail");
    }
    fed.drain_all();
    // Only the traced replay logs: the untraced one is the correctness
    // check, and outcomes do not depend on the log.
    let durable = kind.durable() && tracer.is_some();
    if durable {
        for r in 0..REPLICAS {
            let dir = work.join(format!("twin-{r}"));
            if dir.exists() {
                std::fs::remove_dir_all(&dir)?;
            }
            // Checkpoints are installed explicitly below, at the
            // fleet's record cadence, so they can be timed on their own.
            let (wal, _) = Wal::open(
                &dir,
                WalOptions {
                    sync: SyncPolicy::GroupCommit(GROUP_COMMIT),
                    checkpoint_every: 0,
                },
            )
            .map_err(|e| std::io::Error::other(e.to_string()))?;
            fed.cluster_mut(r).attach_wal(wal);
        }
    }
    let mut last_checkpoint = [0u64; REPLICAS];
    let mut epochs = Vec::new();
    for r in 0..REPLICAS {
        fed.cluster_mut(r).reset_stats();
        epochs.push(fed.cluster(r).membership_epoch().0);
    }

    let mut run = TwinRun {
        homes: Vec::with_capacity(pre.batches.iter().map(OpBatch::len).sum()),
        ..TwinRun::default()
    };
    let from = tracer.as_deref().map_or(0, Tracer::now_ns);
    let mut seq = 0u64;
    for (i, batch) in pre.batches.iter().enumerate() {
        let outcomes = match tracer.as_deref_mut() {
            Some(t) => {
                t.set_request(i as u64);
                let id = t.begin("twin.execute_sharded");
                let mut wire = TwinWire {
                    fed: &fed,
                    tracer: t,
                    seq,
                    req_bytes: 0,
                    reply_bytes: 0,
                    sub_ops: 0,
                };
                let result = execute_sharded(&mut wire, batch);
                seq = wire.seq;
                run.codec_req_bytes += wire.req_bytes;
                run.codec_reply_bytes += wire.reply_bytes;
                run.sub_ops += wire.sub_ops;
                t.end(id);
                result
            }
            None => execute_sharded(&mut fed, batch),
        }
        .expect("in-process execution cannot fail");
        run.modelled.add(&outcomes);
        let mut wave2 = false;
        for (op, outcome) in batch.ops().iter().zip(&outcomes) {
            if let MetadataOp::Rename { from, to } = op {
                if replica_of(from, REPLICAS) != replica_of(to, REPLICAS) {
                    run.split_renames += 1;
                    wave2 |= matches!(
                        outcome,
                        OpOutcome::Renamed {
                            old_home: Some(_),
                            ..
                        }
                    );
                }
            }
        }
        run.wave2_batches += u64::from(wave2);
        run.homes.extend(outcomes.iter().map(Home::of));

        if (i + 1) % BARRIER_EVERY == 0 || i + 1 == pre.batches.len() {
            run.barriers += 1;
            for (r, last_checkpoint) in last_checkpoint.iter_mut().enumerate() {
                let cluster = fed.cluster_mut(r);
                let update = match tracer.as_deref_mut() {
                    Some(t) => {
                        t.span("core.drain_concurrent", |_| cluster.drain_concurrent());
                        t.span("core.flush_all_updates", |_| cluster.flush_all_updates())
                    }
                    None => {
                        cluster.drain_concurrent();
                        cluster.flush_all_updates()
                    }
                };
                run.publish_msgs += update.messages;
                run.publish_bytes += update.bytes;
                if durable {
                    let seq_now = cluster.wal().map_or(0, Wal::last_seq);
                    if seq_now - *last_checkpoint >= CHECKPOINT_EVERY {
                        *last_checkpoint = seq_now;
                        let t = tracer.as_deref_mut().expect("durable replay is traced");
                        t.span("core.checkpoint_now", |_| cluster.checkpoint_now())
                            .map_err(|e| std::io::Error::other(e.to_string()))?;
                    }
                }
            }
        }
    }
    run.window = (from, tracer.as_deref().map_or(0, Tracer::now_ns));

    let mut filter_bytes = 0usize;
    let mut servers = 0usize;
    for (r, epoch0) in epochs.iter().enumerate() {
        let cluster = fed.cluster(r);
        run.walk.add(cluster);
        for id in cluster.server_ids() {
            filter_bytes += cluster.filter_memory_bytes(id);
            servers += 1;
        }
        run.epoch_bumps += cluster.membership_epoch().0 - epoch0;
    }
    run.filter_bytes_per_mds = filter_bytes as f64 / servers.max(1) as f64;
    Ok(run)
}

/// One set-up: generate, launch, populate. Returns the fleet ready for
/// the measured phase, the pre-generated inputs and the set-up time.
fn setup(
    kind: Kind,
    args: &Args,
    work: &Path,
    tracer: Option<&mut Tracer>,
) -> std::io::Result<(Fleet, Pregen, Duration)> {
    let start = Instant::now();
    let pre = pregen(kind, args, tracer);
    let mut fleet = Fleet::launch(kind, work)?;
    fleet.populate(&pre)?;
    Ok((fleet, pre, start.elapsed()))
}

/// The median of `SETUPS` set-ups; the last one is kept for measuring.
fn setup_median(kind: Kind, args: &Args, work: &Path) -> std::io::Result<(Fleet, Pregen, f64)> {
    let mut times = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let (fleet, _, took) = setup(kind, args, work, None)?;
        times.push(took.as_secs_f64());
        fleet.shutdown();
    }
    let (fleet, pre, took) = setup(kind, args, work, None)?;
    times.push(took.as_secs_f64());
    Ok((fleet, pre, median(&times)))
}

/// Runs one fleet workload. WAL directories live under `work`; the
/// traced run's spans are written to `out`.
pub fn run(
    kind: Kind,
    args: &Args,
    work: &Path,
    out: &Path,
    host: &Host,
) -> std::io::Result<Outcome> {
    let (mut fleet, pre, setup_s) = setup_median(kind, args, work)?;
    let mix = Mix::of(&pre.batches);
    let client = drive(&mut fleet, &pre, None);
    fleet.shutdown();

    let mut traced = None;
    if args.trace {
        let mut tracer = Tracer::new();
        let (mut fleet, pre_t, _) = setup(kind, args, work, Some(&mut tracer))?;
        let client_t = drive(&mut fleet, &pre_t, Some(&mut tracer));
        fleet.shutdown();
        let twin_t = replay_twin(kind, &pre_t, Some(&mut tracer), work)?;
        traced = Some((tracer, pre_t, client_t, twin_t));
    }
    // Replays are deterministic, so the traced run's twin is also the
    // ground truth for the untraced pass over the same inputs.
    let own_twin;
    let twin = match &traced {
        Some((_, _, _, twin_t)) => twin_t,
        None => {
            own_twin = replay_twin(kind, &pre, None, work)?;
            &own_twin
        }
    };

    let label = match kind {
        Kind::Read => "fleet_read",
        Kind::WriteDurable => "fleet_write_durable",
    };
    let mismatches = count_mismatches(label, &pre.batches, &client.homes, &twin.homes);
    let unfinished = mix.ops - client.ops_done;
    if let Some(err) = &client.error {
        eprintln!("{label}: run stopped early: {err}");
    }
    let failed = mismatches + unfinished;
    let (mut attempted, mut failed_total) = (mix.ops, failed);
    if let Some((_, pre_t, client_t, twin_t)) = &traced {
        attempted += mix.ops;
        failed_total += count_mismatches(label, &pre_t.batches, &client_t.homes, &twin_t.homes);
        failed_total += mix.ops - client_t.ops_done;
    }
    let mut report = Report::default();
    end_to_end(&mut report, kind, &mix, &client, twin, setup_s, failed);

    println!(
        "workload {label} (seed {}, {} s of fixed work)",
        args.seed, args.seconds
    );
    println!("  host: {}", host.describe());
    println!(
        "  deployment: loopback TCP, {REPLICAS} replicas x {SERVERS} MDS, GhbaConfig::default() \
         (M=6, {} files/filter, L1 LRU {}), reconciler parked, Drain barrier every {BARRIER_EVERY} \
         batches of {} ops, 1 closed-loop client, {REPLICAS} connections",
        base_config().filter_capacity,
        base_config().lru_capacity,
        crate::workload::WINDOW
    );
    println!(
        "  durability: {}",
        if kind.durable() {
            format!(
                "WAL per replica, GroupCommit({} ms), checkpoint every {CHECKPOINT_EVERY} records",
                GROUP_COMMIT.as_millis()
            )
        } else {
            "none (no WAL)".to_string()
        }
    );
    println!(
        "  op mix: {} | negative lookups {:.2}% | two-wave renames {} ({} needing wave 2)",
        mix.describe(),
        100.0 * twin.modelled.negative_share(),
        twin.split_renames,
        twin.wave2_batches
    );
    println!(
        "  slab: {} of filters per replica ({} per MDS with replicas and L1) vs L2 {}; active \
         set {} files per namespace vs L1 LRU {} per MDS (the &self pipeline fills no L1)",
        fmt_bytes(Some(
            base_config().filter_bits() as u64 / 8 * SERVERS as u64
        )),
        fmt_bytes(Some(twin.filter_bytes_per_mds as u64)),
        fmt_bytes(host.l2_bytes),
        FILES,
        base_config().lru_capacity
    );
    report.print("  end-to-end:");

    let mut layers = Report::default();
    if let Some((tracer, pre_t, client_t, twin_t)) = &traced {
        let breakdown = per_layer(
            &mut layers,
            kind,
            pre_t,
            client_t,
            twin_t,
            tracer,
            client.wall,
        );
        layers.print("  per-layer (traced run):");
        println!("  {breakdown}");
        let path = out.join(format!("trace-{label}.tsv"));
        tracer.write_tsv(&path)?;
        println!(
            "  spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    Ok(Outcome {
        attempted,
        failed: failed_total,
        end_to_end: report,
        per_layer: layers,
    })
}

fn end_to_end(
    report: &mut Report,
    kind: Kind,
    mix: &Mix,
    client: &ClientRun,
    twin: &TwinRun,
    setup_s: f64,
    failed: u64,
) {
    let mut batch_lat = client.batch_lat.clone();
    let mut drain_lat = client.drain_lat.clone();
    report.noted(
        "ops_per_s",
        "ops/s",
        client.ops_done as f64 / client.wall.as_secs_f64(),
        format!(
            "{} ops in {:.3} s incl. {} barriers",
            client.ops_done,
            client.wall.as_secs_f64(),
            client.barriers
        ),
    );
    let (p50, n50) = pct(&mut batch_lat, 50.0, 1e3);
    report.noted("batch_p50_us", "us", p50, n50);
    let (p99, n99) = pct(&mut batch_lat, 99.0, 1e3);
    report.noted("batch_p99_us", "us", p99, n99);
    let (d50, nd50) = pct(&mut drain_lat, 50.0, 1e6);
    report.noted("drain_p50_ms", "ms", d50, nd50);
    let (d90, nd90) = pct(&mut drain_lat, 90.0, 1e6);
    report.noted("drain_p90_ms", "ms", d90, nd90);
    report.noted(
        "setup_s",
        "s",
        setup_s,
        format!("median of {SETUPS} set-ups"),
    );
    report.value(
        "rss_mb",
        "MiB",
        client
            .peak_rss
            .map_or(f64::NAN, |b| b as f64 / f64::from(1 << 20)),
    );
    report.noted(
        "sim_lookup_us",
        "us",
        twin.modelled.mean_latency_us(),
        format!("{} lookups", twin.modelled.lookups),
    );
    report.value(
        "messages_per_lookup",
        "msgs",
        twin.modelled.messages_per_lookup(),
    );
    if kind.durable() {
        report.noted(
            "wal_bytes_per_op",
            "B",
            (client.wal.log_bytes + client.wal.checkpoint_bytes) as f64
                / mix.mutations().max(1) as f64,
            format!(
                "{} log B + {} checkpoint B over {} checkpoints, {} mutations",
                client.wal.log_bytes,
                client.wal.checkpoint_bytes,
                client.wal.checkpoints,
                mix.mutations()
            ),
        );
    } else {
        report.na("wal_bytes_per_op", "B", "no WAL on this fleet");
    }
    report.na("join_p50_ms", "ms", "fleet membership is fixed");
    report.na("leave_p50_ms", "ms", "fleet membership is fixed");
    report.noted(
        "failed_op_ratio",
        "ratio",
        failed as f64 / mix.ops.max(1) as f64,
        format!("{failed} of {} ops", mix.ops),
    );
}

fn per_layer(
    layers: &mut Report,
    kind: Kind,
    pre: &Pregen,
    client: &ClientRun,
    twin: &TwinRun,
    tracer: &Tracer,
    untraced_wall: Duration,
) -> String {
    let spans = tracer.spans();
    let batches = pre.batches.len().max(1) as f64;
    let ctot = totals_by_name(spans, client.window.0, client.window.1);
    let ttot = totals_by_name(spans, twin.window.0, twin.window.1);
    let get = |m: &std::collections::BTreeMap<&'static str, crate::trace::NameTotals>, k: &str| {
        m.get(k).copied().unwrap_or_default()
    };
    let us = |ns: u64, n: f64| ns as f64 / 1e3 / n;
    let ms = |ns: u64, n: f64| ns as f64 / 1e6 / n;

    layers.noted(
        "net.batching.admit_us",
        "us",
        pre.admit.as_secs_f64() * 1e6 / batches,
        format!(
            "record_batches per batch, {} batches, in set-up",
            pre.batches.len()
        ),
    );
    let route = get(&ctot, "client.execute_sharded");
    let rtt = get(&ctot, "client.execute_on");
    layers.value("net.route.plan_us", "us", us(route.self_ns, batches));
    layers.value("net.route.subbatches", "count", rtt.count as f64 / batches);
    layers.noted(
        "net.route.wave2",
        "count",
        twin.wave2_batches as f64,
        "batches needing a second wave".to_string(),
    );
    let mut rtts = Samples::default();
    for s in spans.iter().filter(|s| s.name == "client.execute_on") {
        if s.start_ns >= client.window.0 && s.start_ns < client.window.1 {
            rtts.push(s.duration_ns());
        }
    }
    let (r50, n50) = pct(&mut rtts, 50.0, 1e3);
    layers.noted("net.client.rtt_p50_us", "us", r50, n50);
    let (r99, n99) = pct(&mut rtts, 99.0, 1e3);
    layers.noted("net.client.rtt_p99_us", "us", r99, n99);
    layers.value("net.client.reconnects", "count", client.reconnects as f64);

    let sub_ops = twin.sub_ops.max(1) as f64;
    let enc =
        get(&ttot, "proto.encode_request").total_ns + get(&ttot, "proto.encode_reply").total_ns;
    let dec =
        get(&ttot, "proto.decode_request").total_ns + get(&ttot, "proto.decode_reply").total_ns;
    layers.value(
        "net.proto.req_bytes_per_op",
        "B",
        twin.codec_req_bytes as f64 / sub_ops,
    );
    layers.value(
        "net.proto.reply_bytes_per_op",
        "B",
        twin.codec_reply_bytes as f64 / sub_ops,
    );
    layers.value("net.proto.encode_ns_per_op", "ns", enc as f64 / sub_ops);
    layers.value("net.proto.decode_ns_per_op", "ns", dec as f64 / sub_ops);
    let exec = get(&ttot, "core.execute_concurrent");
    let subs = rtt.count.max(1) as f64;
    layers.noted(
        "net.serve.unattributed_us",
        "us",
        (rtt.total_ns as f64 - exec.total_ns as f64 - (enc + dec) as f64) / 1e3 / subs,
        format!("per sub-batch round trip, {} sub-batches", rtt.count),
    );
    let client_wall = client.window.1 - client.window.0;
    layers.value("core.op.execute_us", "us", us(exec.total_ns, batches));
    layers.value(
        "core.op.busy_share",
        "share",
        exec.total_ns as f64 / client_wall as f64,
    );
    twin.walk.report(layers);
    let barriers = twin.barriers.max(1) as f64;
    layers.value(
        "core.concurrent.records_per_drain",
        "count",
        client.drained_records as f64 / client.barriers.max(1) as f64,
    );
    layers.value(
        "core.concurrent.drain_ms",
        "ms",
        ms(get(&ttot, "core.drain_concurrent").total_ns, barriers),
    );
    layers.value(
        "core.update.flush_ms",
        "ms",
        ms(get(&ttot, "core.flush_all_updates").total_ns, barriers),
    );
    layers.value(
        "core.update.publish_msgs_per_drain",
        "count",
        twin.publish_msgs as f64 / barriers,
    );
    layers.value(
        "core.update.publish_bytes_per_drain",
        "B",
        twin.publish_bytes as f64 / barriers,
    );
    if kind.durable() {
        layers.value(
            "core.wal.log_bytes_per_drain",
            "B",
            client.wal.log_bytes as f64 / client.barriers.max(1) as f64,
        );
        let ckpt = get(&ttot, "core.checkpoint_now");
        layers.noted(
            "core.wal.checkpoint_ms",
            "ms",
            ms(ckpt.total_ns, ckpt.count.max(1) as f64),
            format!("{} twin checkpoints", ckpt.count),
        );
        layers.value(
            "core.wal.checkpoint_bytes",
            "B",
            client.wal.checkpoint_bytes as f64 / client.wal.checkpoints.max(1) as f64,
        );
    } else {
        for name in ["core.wal.log_bytes_per_drain", "core.wal.checkpoint_bytes"] {
            layers.na(name, "B", "no WAL on this fleet");
        }
        layers.na("core.wal.checkpoint_ms", "ms", "no WAL on this fleet");
    }
    layers.na(
        "core.reconfig.migrated_per_change",
        "count",
        "fleet membership is fixed",
    );
    layers.na(
        "core.reconfig.messages_per_change",
        "count",
        "fleet membership is fixed",
    );
    layers.na("core.adapt.tick_us", "us", "replicas run no controller");
    layers.na("core.adapt.actions", "count", "replicas run no controller");
    layers.value(
        "core.snapshot.epoch_bumps",
        "count",
        twin.epoch_bumps as f64,
    );
    layers.value("bloom.filter_bytes_per_mds", "B", twin.filter_bytes_per_mds);

    let unattributed = unattributed_ns(spans, client.window.0, client.window.1);
    layers.noted(
        "bench.unattributed_share",
        "share",
        unattributed as f64 / client_wall as f64,
        format!(
            "client phase; twin phase {:.4}",
            unattributed_ns(spans, twin.window.0, twin.window.1) as f64
                / (twin.window.1 - twin.window.0).max(1) as f64
        ),
    );
    let traced_wall = client_wall as f64 / 1e9;
    trace_overhead(layers, traced_wall, untraced_wall);
    let share = |ns: u64| 100.0 * ns as f64 / client_wall as f64;
    format!(
        "client phase of the traced run, % of {traced_wall:.3} s: route {:.1} | replica round \
         trips {:.1} [execute {:.1}, codec {:.1}, socket and serve {:.1}] | drain barriers {:.1} \
         | unattributed {:.1}",
        share(route.self_ns),
        share(rtt.total_ns),
        share(exec.total_ns),
        share(enc + dec),
        share(rtt.total_ns.saturating_sub(exec.total_ns + enc + dec)),
        share(get(&ctot, "client.drain_all").total_ns),
        share(unattributed),
    )
}
