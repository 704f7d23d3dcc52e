//! Pieces shared by every workload: the compact outcome record the
//! correctness check compares, the generated op mix, batch admission
//! from trace records, and the modelled lookup cost.

use std::time::Instant;

use ghba_core::{EntryPolicy, GhbaCluster, MetadataOp, OpBatch, OpOutcome};
use ghba_net::record_batches;
use ghba_trace::TraceRecord;

use crate::report::Report;
use crate::stats::Samples;
use crate::trace::Tracer;

/// Ops per client batch.
pub const WINDOW: usize = 128;

/// Where one op's metadata lives according to its outcome — the part
/// of an outcome the correctness check compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Home {
    Created(u16),
    Resolved(Option<u16>),
    Removed(Option<u16>),
    Renamed(Option<u16>, Option<u16>),
}

impl Home {
    pub fn of(outcome: &OpOutcome) -> Home {
        match outcome {
            OpOutcome::Created { home } => Home::Created(home.0),
            OpOutcome::Resolved(q) => Home::Resolved(q.home.map(|h| h.0)),
            OpOutcome::Removed { home } => Home::Removed(home.map(|h| h.0)),
            OpOutcome::Renamed { old_home, new_home } => {
                Home::Renamed(old_home.map(|h| h.0), new_home.map(|h| h.0))
            }
        }
    }
}

/// Compares a run's outcomes against the ground-truth replay, printing
/// each mismatch to stderr. `measured` may be shorter than `truth` when
/// the run failed part-way; the missing tail is not counted here (the
/// caller counts it as failed ops).
pub fn count_mismatches(
    label: &str,
    batches: &[OpBatch],
    measured: &[Home],
    truth: &[Home],
) -> u64 {
    const PRINT_LIMIT: u64 = 200;
    let mut mismatches = 0u64;
    let ops = batches.iter().flat_map(|b| b.ops().iter());
    for (i, ((got, want), op)) in measured.iter().zip(truth).zip(ops).enumerate() {
        if got != want {
            mismatches += 1;
            if mismatches <= PRINT_LIMIT {
                eprintln!("{label}: op {i} {op:?}: got {got:?}, ground truth {want:?}");
            }
        }
    }
    if mismatches > PRINT_LIMIT {
        eprintln!(
            "{label}: {} further mismatches not printed",
            mismatches - PRINT_LIMIT
        );
    }
    mismatches
}

/// Op counts of a generated batch stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mix {
    pub ops: u64,
    pub lookups: u64,
    pub creates: u64,
    pub removes: u64,
    pub renames: u64,
}

impl Mix {
    pub fn of(batches: &[OpBatch]) -> Mix {
        let mut mix = Mix::default();
        for op in batches.iter().flat_map(|b| b.ops()) {
            mix.ops += 1;
            match op {
                MetadataOp::Lookup(_) => mix.lookups += 1,
                MetadataOp::Create(_) => mix.creates += 1,
                MetadataOp::Remove(_) => mix.removes += 1,
                MetadataOp::Rename { .. } => mix.renames += 1,
            }
        }
        mix
    }

    pub fn mutations(&self) -> u64 {
        self.creates + self.removes + self.renames
    }

    pub fn describe(&self) -> String {
        let share = |n: u64| 100.0 * n as f64 / self.ops.max(1) as f64;
        format!(
            "{} ops: lookup {:.2}% create {:.2}% remove {:.2}% rename {:.2}%",
            self.ops,
            share(self.lookups),
            share(self.creates),
            share(self.removes),
            share(self.renames)
        )
    }
}

/// Modelled lookup cost summed over outcomes (`QueryOutcome.latency`
/// and `.messages`, the paper's metrics).
#[derive(Debug, Clone, Copy, Default)]
pub struct Modelled {
    pub lookups: u64,
    pub negatives: u64,
    pub latency_ns: u128,
    pub messages: u64,
}

impl Modelled {
    pub fn add(&mut self, outcomes: &[OpOutcome]) {
        for q in outcomes.iter().filter_map(OpOutcome::query) {
            self.lookups += 1;
            self.negatives += u64::from(q.home.is_none());
            self.latency_ns += q.latency.as_nanos();
            self.messages += u64::from(q.messages);
        }
    }

    pub fn mean_latency_us(&self) -> f64 {
        self.latency_ns as f64 / 1e3 / self.lookups.max(1) as f64
    }

    pub fn messages_per_lookup(&self) -> f64 {
        self.messages as f64 / self.lookups.max(1) as f64
    }

    pub fn negative_share(&self) -> f64 {
        self.negatives as f64 / self.lookups.max(1) as f64
    }
}

/// Cuts pre-generated trace records into client batches (the
/// `record_batches` admission layer), under a span when traced.
/// Returns the batches and the admission time.
pub fn admit(
    records: Vec<TraceRecord>,
    policy: EntryPolicy,
    tracer: Option<&mut Tracer>,
) -> (Vec<OpBatch>, std::time::Duration) {
    let start = Instant::now();
    let batches = match tracer {
        Some(t) => t.span("batching.record_batches", |_| {
            record_batches(records, WINDOW, policy).collect::<Vec<_>>()
        }),
        None => record_batches(records, WINDOW, policy).collect(),
    };
    (batches, start.elapsed())
}

/// Create batches of `size` ops over `paths`, round-robin entry.
pub fn create_batches(paths: impl Iterator<Item = String>, size: usize) -> Vec<OpBatch> {
    let mut policy = EntryPolicy::RoundRobin { start: 0 };
    let mut batches = Vec::new();
    let mut batch = OpBatch::new();
    for path in paths {
        batch.push_create(path);
        if batch.len() >= size {
            let n = batch.len();
            batches.push(std::mem::take(&mut batch).with_entry(policy.advance(n)));
        }
    }
    if !batch.is_empty() {
        let n = batch.len();
        batches.push(batch.with_entry(policy.advance(n)));
    }
    batches
}

/// Exact percentile of a latency series in units of `unit_ns`
/// nanoseconds, with the count behind it.
pub fn pct(samples: &mut Samples, p: f64, unit_ns: f64) -> (f64, String) {
    let value = samples
        .percentile_ns(p)
        .map_or(f64::NAN, |ns| ns as f64 / unit_ns);
    let note = format!("n={}, {} above", samples.len(), samples.beyond(p));
    (value, note)
}

/// Walk counters of one or more clusters since their last `reset_stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalkCounts {
    /// Lookups resolved at `[L1, L2, L3, L4, nowhere]`.
    levels: [u64; 5],
    false_hits: u64,
    mask_hits: u64,
    mask_misses: u64,
}

impl WalkCounts {
    pub fn add(&mut self, cluster: &GhbaCluster) {
        let stats = cluster.stats();
        let l = stats.levels;
        for (slot, n) in self
            .levels
            .iter_mut()
            .zip([l.l1, l.l2, l.l3, l.l4, l.nonexistent])
        {
            *slot += n;
        }
        self.false_hits += ["l1_false_hits", "l2_false_hits", "l3_false_hits"]
            .iter()
            .map(|label| stats.counters.get(label))
            .sum::<u64>();
        let mask = cluster.mask_cache_stats();
        self.mask_hits += mask.window_hits;
        self.mask_misses += mask.window_misses;
    }

    /// The `core.cluster.*` per-layer metrics.
    pub fn report(&self, layers: &mut Report) {
        let lookups = self.levels.iter().sum::<u64>().max(1) as f64;
        let names = [
            "core.cluster.l1_share",
            "core.cluster.l2_share",
            "core.cluster.l3_share",
            "core.cluster.l4_share",
            "core.cluster.miss_share",
        ];
        for (name, n) in names.into_iter().zip(self.levels) {
            layers.value(name, "share", n as f64 / lookups);
        }
        layers.value(
            "core.cluster.false_hits_per_lookup",
            "count",
            self.false_hits as f64 / lookups,
        );
        let consults = self.mask_hits + self.mask_misses;
        layers.noted(
            "core.cluster.mask_hit_rate",
            "share",
            self.mask_hits as f64 / consults.max(1) as f64,
            format!("{consults} consults"),
        );
    }
}

/// `bench.trace_overhead_pct`: how much longer the traced pass took than
/// the untraced one over the same ops.
pub fn trace_overhead(layers: &mut Report, traced_s: f64, untraced: std::time::Duration) {
    let untraced_s = untraced.as_secs_f64();
    layers.noted(
        "bench.trace_overhead_pct",
        "%",
        100.0 * (traced_s - untraced_s) / untraced_s,
        format!("traced {traced_s:.3} s vs untraced {untraced_s:.3} s for the same ops"),
    );
}
