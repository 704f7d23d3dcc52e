//! The repository's benchmark: three seeded, fixed-work, closed-loop
//! workloads driven through the public API, every outcome checked
//! against an in-process ground truth.
//!
//! ```text
//! perfbench --workload <fleet_read|fleet_write_durable|local_elastic>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--seconds` sets the amount of work (trace records per second of
//! budget are fixed per workload), not a deadline, so every run of a
//! seed does the same work. Each run prints its provenance and every
//! end-to-end metric (or `n/a` with the reason); `--trace 1` adds a
//! separate traced pass and prints every per-layer metric. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, and the metrics named in `BENCHMARK.json` — end-to-end with
//! `--trace 0`, per-layer with `--trace 1`. Spans of a traced pass are
//! written to `.perfbench_work/` in the working directory.

mod fleet;
mod host;
mod local;
mod report;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use report::{json_line, Report};

/// End-to-end metrics in the result line, each of which every workload
/// has and is never zero: the set-up time, and the host-independent
/// costs (memory, messages per lookup). Throughput and latency are
/// printed above it but not gated: on a shared 2-vCPU host their medians
/// move by more than any allowed bound between two sets of runs of the
/// same code. Also printed only: drain, WAL and join/leave figures (not
/// on every workload), the modelled lookup latency (repeats exactly per
/// seed) and the failed-op ratio (zero; carried by `failed`).
const END_TO_END: [&str; 3] = ["setup_s", "rss_mb", "messages_per_lookup"];

/// Per-layer metrics in the traced result line: those measured on every
/// workload.
const PER_LAYER: [&str; 12] = [
    "net.batching.admit_us",
    "core.op.execute_us",
    "core.op.busy_share",
    "core.cluster.l2_share",
    "core.cluster.l3_share",
    "core.cluster.l4_share",
    "core.cluster.miss_share",
    "core.cluster.false_hits_per_lookup",
    "core.cluster.mask_hit_rate",
    "bloom.filter_bytes_per_mds",
    "bench.unattributed_share",
    "bench.trace_overhead_pct",
];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a workload hands back for the result line.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Report,
    pub per_layer: Report,
}

const USAGE: &str = "usage: perfbench --workload <fleet_read|fleet_write_durable|local_elastic> \
                     --seed <n> --seconds <1..=600> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be in 1..=600, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match std::env::current_dir() {
        Ok(dir) => dir.join(".perfbench_work"),
        Err(err) => {
            eprintln!("perfbench: no working directory: {err}");
            return ExitCode::FAILURE;
        }
    };
    // Scratch (WAL directories) private to this process, removed below.
    let work = out.join(format!("run-{}", std::process::id()));
    if let Err(err) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {err}", work.display());
        return ExitCode::FAILURE;
    }
    let host = host::Host::probe();
    let result = match args.workload.as_str() {
        "fleet_read" => fleet::run(fleet::Kind::Read, &args, &work, &out, &host),
        "fleet_write_durable" => fleet::run(fleet::Kind::WriteDurable, &args, &work, &out, &host),
        "local_elastic" => local::run(&args, &out, &host),
        other => Err(std::io::Error::other(format!(
            "unknown workload {other}\n{USAGE}"
        ))),
    };
    let _ = std::fs::remove_dir_all(&work);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("perfbench: {} failed: {err}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let (metrics, wanted): (&Report, &[&str]) = if args.trace {
        (&outcome.per_layer, &PER_LAYER)
    } else {
        (&outcome.end_to_end, &END_TO_END)
    };
    println!(
        "{}",
        json_line(
            outcome.failed == 0,
            outcome.attempted,
            outcome.failed,
            metrics,
            wanted
        )
    );
    ExitCode::SUCCESS
}
