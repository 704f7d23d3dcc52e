//! The PR-2 headline benchmark: batched vs sequential slab probes, plus
//! the publish path's sparse delta application vs full column rewrite.
//!
//! Two questions, same geometry as `array_compare` (N same-shape filters,
//! 16 bits/file, k = 11):
//!
//! * **Batched probes** — resolving 16 concurrent lookups through one
//!   [`SharedShapeArray::query_batch`] slab pass (`batch_x16`) vs 16
//!   independent [`SharedShapeArray::query_fp`] walks (`sequential_x16`).
//!   Both benches do 16 lookups per iteration, so their means compare
//!   directly and `sequential_x16 / batch_x16` *is* the per-lookup
//!   speedup. The win comes from up-front fastmod row derivation,
//!   software-prefetching upcoming fingerprints' rows while the current
//!   one reduces, and register-resident SIMD mask reduction — so the
//!   cache misses of different lookups overlap instead of queueing.
//! * **Publish cost** — refreshing one slot of the published slab via
//!   [`SharedShapeArray::apply_delta`] (cost ∝ changed bits: one row
//!   write per bit the delta sets or clears) vs
//!   [`SharedShapeArray::replace_filter`] (O(m) rows cleared and
//!   rewritten), at a small (1-file) and a large (512-file) churn since
//!   the last publish.
//!
//! Run with `CRITERION_JSON=BENCH_PR2.json cargo bench --bench
//! probe_batch` to dump machine-readable means (see `BENCH_PR2.json` at
//! the repo root for the committed trajectory snapshot, and
//! `EXPERIMENTS.md` for how these numbers are read).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ghba_bloom::{BloomFilter, FilterDelta, Fingerprint, ProbeBatch, SharedShapeArray};
use std::hint::black_box;

/// Files summarized per filter — the paper's "ultra large-scale" regime
/// (hundreds of thousands of files per MDS), which at N = 1024 puts the
/// bit-sliced slab well past the last-level cache: every probe row is a
/// DRAM access, the regime the batched pass is built for. Override with
/// `GHBA_PROBE_ITEMS` (CI smoke uses a small value to bound build time;
/// committed BENCH_PR2.json numbers use the default).
const DEFAULT_ITEMS_PER_FILTER: u64 = 200_000;
const HASHES: u32 = 11;
const SEED: u64 = 0x9;
/// Concurrent lookups resolved per slab pass.
const BATCH: usize = 16;

fn items_per_filter() -> u64 {
    std::env::var("GHBA_PROBE_ITEMS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_ITEMS_PER_FILTER)
}

/// Filter geometry: 16 bits per file (k = 11, the paper's ratio).
fn bits_per_filter() -> usize {
    (items_per_filter() as usize) * 16
}

fn path_of(id: u16, i: u64) -> String {
    format!("/mds{id}/dir{}/file-{i}.dat", i % 97)
}

fn build_sliced(n: u16) -> SharedShapeArray<u16> {
    let items = items_per_filter();
    let mut array = SharedShapeArray::with_capacity(
        ghba_bloom::FilterShape {
            bits: bits_per_filter(),
            hashes: HASHES,
            seed: SEED,
        },
        usize::from(n),
    );
    for id in 0..n {
        array.push(id).expect("distinct ids");
        for i in 0..items {
            array
                .insert_fp(id, &ghba_bloom::Fingerprint::of(&path_of(id, i)))
                .expect("id just pushed");
        }
    }
    array
}

fn bench_probe_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_batch");
    for n in [16u16, 128, 1024] {
        let sliced = build_sliced(n);
        // Probe items resident in exactly one filter, cycling homes — the
        // unique-hit pattern the G-HBA hierarchy is tuned for. The
        // fingerprints are precomputed: at every level past the entry
        // point they arrive with the query (hash-once design), so the
        // comparison isolates the slab walk itself.
        // A wide probe stream: concurrent lookups land anywhere in the
        // namespace, so the stream must be far larger than what the cache
        // can retain of the slab (512 repeating probes would leave every
        // probed row cache-resident after warmup, hiding the memory
        // behaviour both paths really see in production).
        let items = items_per_filter();
        let fps: Vec<Fingerprint> = (0..65_536u64)
            .map(|i| Fingerprint::of(&path_of((i % u64::from(n)) as u16, i * 31 % items)))
            .collect();

        group.bench_with_input(BenchmarkId::new("sequential_x16", n), &n, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let mut positives = 0usize;
                for j in 0..BATCH {
                    let fp = &fps[(i + j) % fps.len()];
                    positives += sliced.query_fp(black_box(fp)).candidates().len();
                }
                i += BATCH;
                positives
            });
        });
        group.bench_with_input(BenchmarkId::new("batch_x16", n), &n, |b, _| {
            let mut i = 0usize;
            let mut batch = ProbeBatch::with_capacity(BATCH);
            b.iter(|| {
                batch.clear();
                for j in 0..BATCH {
                    batch.push(fps[(i + j) % fps.len()]);
                }
                i += BATCH;
                let hits = sliced.query_batch(black_box(&mut batch));
                hits.iter().map(|h| h.candidates().len()).sum::<usize>()
            });
        });
    }
    group.finish();
}

fn bench_publish_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("publish_path");
    let n = 1024u16;
    let mut sliced = build_sliced(n);
    // Slot 0's published snapshot, plus two refreshed versions: one file
    // of churn (the common per-publish case) and 512 files of churn.
    let items = items_per_filter();
    let mut old = BloomFilter::new(bits_per_filter(), HASHES, SEED);
    for i in 0..items {
        old.insert(&path_of(0, i));
    }
    for churn in [1u64, 512] {
        let mut fresh = old.clone();
        for i in 0..churn {
            fresh.insert(&path_of(0, items + i));
        }
        let delta = FilterDelta::between(&old, &fresh).expect("same shape");
        group.bench_with_input(
            BenchmarkId::new("full_column_rewrite", churn),
            &churn,
            |b, _| {
                b.iter(|| sliced.replace_filter(0, black_box(&fresh)));
            },
        );
        group.bench_with_input(
            BenchmarkId::new(&format!("apply_delta_{}w", delta.len()), churn),
            &churn,
            |b, _| {
                b.iter(|| sliced.apply_delta(0, black_box(&delta)));
            },
        );
        // Restore slot 0 so the next churn level starts from `old`.
        sliced.replace_filter(0, &old).expect("slot 0 exists");
    }
    group.finish();
}

criterion_group!(benches, bench_probe_batch, bench_publish_path);
criterion_main!(benches);
