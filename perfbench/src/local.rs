//! `local_elastic`: one in-process 64-MDS cluster on the owner
//! (`&mut`) path — L1 fills, joins and leaves, and an online group
//! controller ticking on the cluster's own load telemetry.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use ghba_core::{
    ControllerConfig, EntryPolicy, GhbaCluster, GhbaConfig, GroupController, MdsId, MetadataOp,
    MetadataService, OpBatch, OpOutcome, ReconfigReport,
};
use ghba_trace::{intensify, IntensifiedTrace, TraceRecord, WorkloadProfile};

use crate::host::{fmt_bytes, Host};
use crate::report::Report;
use crate::stats::{median, Samples};
use crate::trace::{totals_by_name, unattributed_ns, Tracer};
use crate::workload::{
    admit, count_mismatches, create_batches, pct, trace_overhead, Home, Mix, Modelled, WalkCounts,
};
use crate::{Args, Outcome};

const SERVERS: usize = 64;
const MAX_GROUP: usize = 8;
/// TIF subtraces of the intensified HP trace and active files in each.
const SUBTRACES: u32 = 16;
const FILES_PER_SUBTRACE: u64 = 4_000;
/// Trace records per second of `--seconds` (fixed work, sized for about
/// that long on a 2-core host).
const RECORDS_PER_SECOND: u64 = 80_000;
/// A join or leave (alternating) before every this many batches.
const CHURN_EVERY: usize = 48;
/// A controller tick before every this many batches.
const TICK_EVERY: usize = 16;
/// The flash crowd: batches in this fraction of the run enter only
/// through the servers of one group.
const FLASH: (f64, f64) = (0.4, 0.6);
const POPULATE_BATCH: usize = 512;
const SETUPS: usize = 3;

fn config() -> GhbaConfig {
    GhbaConfig::default().with_max_group_size(MAX_GROUP)
}

fn profile() -> WorkloadProfile {
    let mut profile = WorkloadProfile::hp();
    profile.active_files = FILES_PER_SUBTRACE;
    profile.total_files = FILES_PER_SUBTRACE * 10;
    profile
}

struct Pregen {
    batches: Vec<OpBatch>,
    admit: Duration,
    populated: Vec<String>,
    flash_group: Vec<MdsId>,
}

/// The cluster with the trace's initial files created, and their paths.
fn build(trace: &IntensifiedTrace) -> (GhbaCluster, Vec<String>) {
    let populated: Vec<String> = trace.initial_paths().collect();
    let mut cluster = GhbaCluster::with_servers(config(), SERVERS);
    for batch in create_batches(populated.iter().cloned(), POPULATE_BATCH) {
        cluster.execute(&batch);
    }
    cluster.reset_stats();
    (cluster, populated)
}

/// Builds and populates the cluster, then generates the traffic (whose
/// flash phase names the servers of MDS 0's group).
fn setup(args: &Args, mut tracer: Option<&mut Tracer>) -> (GhbaCluster, Pregen, Duration) {
    let start = Instant::now();
    let trace = intensify(&profile(), SUBTRACES, args.seed);
    let (cluster, populated) = build(&trace);
    let flash_group = cluster
        .group(cluster.group_of(MdsId(0)).expect("MDS 0 exists"))
        .expect("its group exists")
        .members()
        .to_vec();

    let n = usize::try_from(RECORDS_PER_SECOND * args.seconds).expect("record count fits");
    let generate = || trace.take(n).collect::<Vec<TraceRecord>>();
    let records = match tracer.as_deref_mut() {
        Some(t) => t.span("trace.generate", |_| generate()),
        None => generate(),
    };
    let (mut batches, admit) = admit(records, EntryPolicy::RoundRobin { start: 0 }, tracer);
    let len = batches.len() as f64;
    let flash = (FLASH.0 * len) as usize..(FLASH.1 * len) as usize;
    for i in flash {
        let entry = flash_group[i % flash_group.len()];
        batches[i] = std::mem::take(&mut batches[i]).with_entry(EntryPolicy::Pinned(entry));
    }
    let pre = Pregen {
        batches,
        admit,
        populated,
        flash_group,
    };
    (cluster, pre, start.elapsed())
}

/// Ground truth for the replay: where every live file's metadata is.
struct Model {
    homes: HashMap<String, u16>,
    violations: u64,
}

impl Model {
    fn check(&mut self, batch_index: usize, op: &MetadataOp, outcome: &OpOutcome) {
        let ok = match (op, outcome) {
            (MetadataOp::Create(key), OpOutcome::Created { home }) => {
                self.homes.insert(key.path().to_string(), home.0);
                true
            }
            (MetadataOp::Lookup(key), OpOutcome::Resolved(q)) => {
                self.homes.get(key.path()).copied() == q.home.map(|h| h.0)
            }
            (MetadataOp::Remove(key), OpOutcome::Removed { home }) => {
                self.homes.remove(key.path()) == home.map(|h| h.0)
            }
            (MetadataOp::Rename { from, to }, OpOutcome::Renamed { old_home, new_home }) => {
                let expected = self.homes.remove(from.path());
                let ok =
                    expected == old_home.map(|h| h.0) && old_home.is_some() == new_home.is_some();
                if let Some(home) = new_home {
                    self.homes.insert(to.path().to_string(), home.0);
                }
                ok
            }
            _ => false,
        };
        if !ok {
            self.violations += 1;
            if self.violations <= 200 {
                eprintln!("local_elastic: batch {batch_index} {op:?} answered {outcome:?}, model disagrees");
            }
        }
    }

    /// Files of a departed server were re-homed by the cluster; read
    /// their new homes from the authoritative stores.
    fn rehome(&mut self, departed: MdsId, cluster: &GhbaCluster) {
        for (path, home) in &mut self.homes {
            if *home == departed.0 {
                match cluster.true_home(path) {
                    Some(h) => *home = h.0,
                    None => {
                        self.violations += 1;
                        eprintln!("local_elastic: {path} lost when MDS {} left", departed.0);
                    }
                }
            }
        }
    }
}

#[derive(Debug, Default)]
struct LocalRun {
    homes: Vec<Home>,
    batch_lat: Samples,
    join_lat: Samples,
    leave_lat: Samples,
    reconfigs: Vec<ReconfigReport>,
    ticks: u64,
    actions: u64,
    wall: Duration,
    ops: u64,
    modelled: Modelled,
    window: (u64, u64),
}

fn drive(
    cluster: &mut GhbaCluster,
    pre: &Pregen,
    mut tracer: Option<&mut Tracer>,
    mut model: Option<&mut Model>,
) -> LocalRun {
    let mut run = LocalRun {
        homes: Vec::with_capacity(pre.batches.iter().map(OpBatch::len).sum()),
        batch_lat: Samples::with_capacity(pre.batches.len()),
        ..LocalRun::default()
    };
    let mut controller = GroupController::new(ControllerConfig::default());
    let mut joined: Vec<MdsId> = Vec::new();
    let from = tracer.as_deref().map_or(0, Tracer::now_ns);
    let start = Instant::now();
    for (i, batch) in pre.batches.iter().enumerate() {
        if let Some(t) = tracer.as_deref_mut() {
            t.set_request(i as u64);
        }
        if i > 0 && i % CHURN_EVERY == 0 {
            let t0 = Instant::now();
            if let Some(id) = joined.pop() {
                let report = match tracer.as_deref_mut() {
                    Some(t) => t.span("core.remove_mds", |_| cluster.remove_mds(id)),
                    None => cluster.remove_mds(id),
                }
                .expect("a server this run added can leave");
                run.leave_lat.push_duration(t0.elapsed());
                run.reconfigs.push(report);
                if let Some(m) = model.as_deref_mut() {
                    m.rehome(id, cluster);
                }
            } else {
                let (id, report) = match tracer.as_deref_mut() {
                    Some(t) => t.span("core.add_mds_reported", |_| cluster.add_mds_reported()),
                    None => cluster.add_mds_reported(),
                };
                run.join_lat.push_duration(t0.elapsed());
                run.reconfigs.push(report);
                joined.push(id);
            }
        }
        if i > 0 && i % TICK_EVERY == 0 {
            let accepted = match tracer.as_deref_mut() {
                Some(t) => {
                    let report = t.span("core.load_report", |_| cluster.load_report());
                    let handle = cluster.reconfig_handle();
                    t.span("core.adapt.actuate", |_| {
                        controller.actuate(&report, &handle)
                    })
                }
                None => controller.actuate(&cluster.load_report(), &cluster.reconfig_handle()),
            };
            run.ticks += 1;
            run.actions += accepted.len() as u64;
        }
        let t0 = Instant::now();
        let outcomes = match tracer.as_deref_mut() {
            Some(t) => t.span("core.execute", |_| cluster.execute(batch)),
            None => cluster.execute(batch),
        };
        run.batch_lat.push_duration(t0.elapsed());
        run.ops += batch.len() as u64;
        run.homes.extend(outcomes.iter().map(Home::of));
        if let Some(m) = model.as_deref_mut() {
            run.modelled.add(&outcomes);
            for (op, outcome) in batch.ops().iter().zip(&outcomes) {
                m.check(i, op, outcome);
            }
        }
    }
    run.wall = start.elapsed();
    run.window = (from, tracer.as_deref().map_or(0, Tracer::now_ns));
    run
}

fn setup_median(args: &Args) -> (GhbaCluster, Pregen, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first so only one is resident.
        drop(kept.take());
        let (cluster, pre, took) = setup(args, None);
        times.push(took.as_secs_f64());
        kept = Some((cluster, pre));
    }
    let (cluster, pre) = kept.expect("SETUPS is positive");
    (cluster, pre, median(&times))
}

/// Runs `local_elastic`; the traced run's spans are written to `out`.
pub fn run(args: &Args, out: &Path, host: &Host) -> std::io::Result<Outcome> {
    let (mut cluster, pre, setup_s) = setup_median(args);
    let mix = Mix::of(&pre.batches);
    let measured = drive(&mut cluster, &pre, None, None);
    let peak_rss = crate::host::peak_rss_bytes();
    let filter_bytes = mean_filter_bytes(&cluster);
    drop(cluster);

    // Ground truth: the same schedule on a fresh, identically built
    // cluster, every outcome checked against the namespace model.
    let (mut truth_cluster, populated) = build(&intensify(&profile(), SUBTRACES, args.seed));
    let mut model = Model {
        homes: HashMap::with_capacity(populated.len()),
        violations: 0,
    };
    for path in populated {
        match truth_cluster.true_home(&path) {
            Some(home) => {
                model.homes.insert(path, home.0);
            }
            None => {
                model.violations += 1;
                eprintln!("local_elastic: populated {path} is homed nowhere");
            }
        }
    }
    let truth = drive(&mut truth_cluster, &pre, None, Some(&mut model));
    drop(truth_cluster);
    let mismatches = count_mismatches("local_elastic", &pre.batches, &measured.homes, &truth.homes);
    let failed = mismatches + model.violations;

    let mut report = Report::default();
    report.noted(
        "ops_per_s",
        "ops/s",
        measured.ops as f64 / measured.wall.as_secs_f64(),
        format!(
            "{} ops in {:.3} s incl. {} joins/leaves and {} ticks",
            measured.ops,
            measured.wall.as_secs_f64(),
            measured.reconfigs.len(),
            measured.ticks
        ),
    );
    let mut batch_lat = measured.batch_lat.clone();
    let (p50, n50) = pct(&mut batch_lat, 50.0, 1e3);
    report.noted("batch_p50_us", "us", p50, n50);
    let (p99, n99) = pct(&mut batch_lat, 99.0, 1e3);
    report.noted("batch_p99_us", "us", p99, n99);
    report.na(
        "drain_p50_ms",
        "ms",
        "the owner path publishes inside execute; no barriers",
    );
    report.na(
        "drain_p90_ms",
        "ms",
        "the owner path publishes inside execute; no barriers",
    );
    report.noted(
        "setup_s",
        "s",
        setup_s,
        format!("median of {SETUPS} set-ups"),
    );
    report.value(
        "rss_mb",
        "MiB",
        peak_rss.map_or(f64::NAN, |b| b as f64 / f64::from(1 << 20)),
    );
    report.noted(
        "sim_lookup_us",
        "us",
        truth.modelled.mean_latency_us(),
        format!("{} lookups", truth.modelled.lookups),
    );
    report.value(
        "messages_per_lookup",
        "msgs",
        truth.modelled.messages_per_lookup(),
    );
    report.na("wal_bytes_per_op", "B", "in-process cluster has no WAL");
    let mut join = measured.join_lat.clone();
    let (j50, nj) = pct(&mut join, 50.0, 1e6);
    report.noted("join_p50_ms", "ms", j50, nj);
    let mut leave = measured.leave_lat.clone();
    let (l50, nl) = pct(&mut leave, 50.0, 1e6);
    report.noted("leave_p50_ms", "ms", l50, nl);
    report.noted(
        "failed_op_ratio",
        "ratio",
        failed as f64 / mix.ops.max(1) as f64,
        format!("{failed} of {} ops", mix.ops),
    );

    let slab = config().filter_bits() as u64 / 8 * SERVERS as u64;
    println!(
        "workload local_elastic (seed {}, {} s of fixed work)",
        args.seed, args.seconds
    );
    println!("  host: {}", host.describe());
    println!(
        "  deployment: in-process GhbaCluster, {SERVERS} MDS, M={MAX_GROUP}, {} files/filter, \
         L1 LRU {} per MDS; execute() in {}-op windows; join/leave alternating every \
         {CHURN_EVERY} batches; controller tick every {TICK_EVERY} batches; flash crowd over \
         batches {:.0}%-{:.0}% pinned to group of MDS 0 ({} servers)",
        config().filter_capacity,
        config().lru_capacity,
        crate::workload::WINDOW,
        FLASH.0 * 100.0,
        FLASH.1 * 100.0,
        pre.flash_group.len()
    );
    println!("  durability: none (in-process)");
    println!(
        "  op mix: {} | negative lookups {:.2}%",
        mix.describe(),
        100.0 * truth.modelled.negative_share()
    );
    println!(
        "  slab: {} of filters vs L2 {}; active set {} files vs L1 LRU {} per MDS; \
         {} controller actions over {} ticks",
        fmt_bytes(Some(slab)),
        fmt_bytes(host.l2_bytes),
        pre.populated.len(),
        config().lru_capacity,
        measured.actions,
        measured.ticks
    );
    report.print("  end-to-end:");

    let mut layers = Report::default();
    if args.trace {
        let mut tracer = Tracer::new();
        let (mut cluster, pre_t, _) = setup(args, Some(&mut tracer));
        let epoch0 = cluster.membership_epoch().0;
        let traced = drive(&mut cluster, &pre_t, Some(&mut tracer), None);
        let traced_failed = count_mismatches(
            "local_elastic (traced)",
            &pre_t.batches,
            &traced.homes,
            &truth.homes,
        );
        let breakdown = per_layer(
            &mut layers,
            &cluster,
            &pre_t,
            &traced,
            &tracer,
            measured.wall,
            epoch0,
            filter_bytes,
        );
        layers.print("  per-layer (traced run):");
        println!("  {breakdown}");
        let path = out.join("trace-local_elastic.tsv");
        tracer.write_tsv(&path)?;
        println!(
            "  spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
        return Ok(Outcome {
            attempted: 2 * mix.ops,
            failed: failed + traced_failed,
            end_to_end: report,
            per_layer: layers,
        });
    }
    Ok(Outcome {
        attempted: mix.ops,
        failed,
        end_to_end: report,
        per_layer: layers,
    })
}

fn mean_filter_bytes(cluster: &GhbaCluster) -> f64 {
    let ids = cluster.server_ids();
    ids.iter()
        .map(|&id| cluster.filter_memory_bytes(id))
        .sum::<usize>() as f64
        / ids.len().max(1) as f64
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    layers: &mut Report,
    cluster: &GhbaCluster,
    pre: &Pregen,
    run: &LocalRun,
    tracer: &Tracer,
    untraced_wall: Duration,
    epoch0: u64,
    filter_bytes: f64,
) -> String {
    let spans = tracer.spans();
    let totals = totals_by_name(spans, run.window.0, run.window.1);
    let get = |k: &str| totals.get(k).copied().unwrap_or_default();
    let batches = pre.batches.len().max(1) as f64;
    let wall = (run.window.1 - run.window.0) as f64;

    layers.noted(
        "net.batching.admit_us",
        "us",
        pre.admit.as_secs_f64() * 1e6 / batches,
        format!(
            "record_batches per batch, {} batches, in set-up",
            pre.batches.len()
        ),
    );
    for name in [
        "net.route.plan_us",
        "net.client.rtt_p50_us",
        "net.client.rtt_p99_us",
        "net.serve.unattributed_us",
    ] {
        layers.na(name, "us", "no network on this workload");
    }
    for name in [
        "net.route.subbatches",
        "net.route.wave2",
        "net.client.reconnects",
    ] {
        layers.na(name, "count", "no network on this workload");
    }
    for name in ["net.proto.req_bytes_per_op", "net.proto.reply_bytes_per_op"] {
        layers.na(name, "B", "no network on this workload");
    }
    for name in ["net.proto.encode_ns_per_op", "net.proto.decode_ns_per_op"] {
        layers.na(name, "ns", "no network on this workload");
    }
    let exec = get("core.execute");
    layers.value(
        "core.op.execute_us",
        "us",
        exec.total_ns as f64 / 1e3 / batches,
    );
    layers.value("core.op.busy_share", "share", exec.total_ns as f64 / wall);
    let mut walk = WalkCounts::default();
    walk.add(cluster);
    walk.report(layers);
    layers.na(
        "core.concurrent.records_per_drain",
        "count",
        "owner path: no shard-log drains",
    );
    layers.na(
        "core.concurrent.drain_ms",
        "ms",
        "owner path: no shard-log drains",
    );
    layers.na(
        "core.update.flush_ms",
        "ms",
        "no barrier flushes; publishes are gated inside execute",
    );
    layers.na(
        "core.update.publish_msgs_per_drain",
        "count",
        "no barrier flushes",
    );
    layers.na(
        "core.update.publish_bytes_per_drain",
        "B",
        "no barrier flushes",
    );
    layers.na(
        "core.wal.log_bytes_per_drain",
        "B",
        "in-process cluster has no WAL",
    );
    layers.na(
        "core.wal.checkpoint_ms",
        "ms",
        "in-process cluster has no WAL",
    );
    layers.na(
        "core.wal.checkpoint_bytes",
        "B",
        "in-process cluster has no WAL",
    );
    let changes = run.reconfigs.len().max(1) as f64;
    layers.value(
        "core.reconfig.migrated_per_change",
        "count",
        run.reconfigs
            .iter()
            .map(|r| r.migrated_replicas)
            .sum::<u64>() as f64
            / changes,
    );
    layers.value(
        "core.reconfig.messages_per_change",
        "count",
        run.reconfigs.iter().map(|r| r.messages).sum::<u64>() as f64 / changes,
    );
    let tick = get("core.load_report").total_ns + get("core.adapt.actuate").total_ns;
    layers.noted(
        "core.adapt.tick_us",
        "us",
        tick as f64 / 1e3 / run.ticks.max(1) as f64,
        format!("{} ticks", run.ticks),
    );
    layers.value("core.adapt.actions", "count", run.actions as f64);
    layers.value(
        "core.snapshot.epoch_bumps",
        "count",
        (cluster.membership_epoch().0 - epoch0) as f64,
    );
    layers.value("bloom.filter_bytes_per_mds", "B", filter_bytes);
    let unattributed = unattributed_ns(spans, run.window.0, run.window.1);
    layers.value(
        "bench.unattributed_share",
        "share",
        unattributed as f64 / wall,
    );
    let traced_wall = wall / 1e9;
    trace_overhead(layers, traced_wall, untraced_wall);
    let share = |ns: u64| 100.0 * ns as f64 / wall;
    format!(
        "traced run, % of {traced_wall:.3} s: execute {:.1} | joins and leaves {:.1} | \
         controller ticks {:.1} | unattributed {:.1}",
        share(exec.total_ns),
        share(get("core.add_mds_reported").total_ns + get("core.remove_mds").total_ns),
        share(tick),
        share(unattributed),
    )
}
