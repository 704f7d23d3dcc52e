//! Bit-sliced, shared-shape Bloom filter arrays — the hot-path probe
//! structure behind every level of the G-HBA query hierarchy.
//!
//! # Layout
//!
//! A [`SharedShapeArray`] holds up to `C` filters (slots) that all share one
//! [`FilterShape`] `(m, k, seed)`. Instead of `C` independent bit vectors,
//! the bits are stored **interleaved by bit position**: for each of the `m`
//! bit positions there is a row of `ceil(C/64)` words (`stride`) holding
//! that position's bit for *every* slot. Membership bit `j` of slot `s`
//! lives at word `slab[j * stride + s / 64]`, bit `s % 64`.
//!
//! A query therefore needs the item's `k` probe rows only **once** for the
//! whole array: starting from the live-slot mask, it ANDs the `k` rows
//! together — `k × stride` word loads — and the surviving mask bits *are*
//! the positive slots. Compare the classic array-of-filters walk, which
//! costs `N` separate filter traversals (`N × k` scattered bit reads) plus
//! `N` hashes without the hash-once [`Fingerprint`] path.
//!
//! # Invariants
//!
//! * All slots share the array's `FilterShape`; filters pushed in must match
//!   it exactly ([`BloomError::IncompatibleFilters`] otherwise), so a slot's
//!   probe rows are the same for every slot and the AND-reduction is sound.
//! * Probe sequences come from [`Fingerprint`] seed-mixing and are *bit
//!   identical* to [`crate::hash::probe_indices`] / [`BloomFilter`] probes:
//!   a `SharedShapeArray` answers exactly like a [`BloomFilterArray`] built
//!   from the same inserts (the property tests assert this).
//! * Freed slots are zeroed immediately and masked out of every query, so
//!   recycling a slot can never leak a predecessor's bits.
//!
//! # Concurrency
//!
//! The probe seam is deliberately **read-shared**: every query entry
//! point ([`SharedShapeArray::query_fp`], [`query_fp_masked`],
//! [`query_batch`]) takes `&self`, and all per-pass working memory lives
//! in the caller-owned [`ProbeBatch`] scratch arena — the array itself
//! holds no interior mutability anywhere (plain `Vec`s and a `HashMap`;
//! the only atomics are the process-wide CPU-feature detection caches).
//! `SharedShapeArray<I>` is therefore `Sync` whenever `I` is, and N
//! threads may probe one slab concurrently so long as each brings its
//! own `ProbeBatch` — exactly how the parallel batch execution engine
//! upstream fans one fused lookup run out across workers against the
//! shared published slab. Compile-time assertions below pin the seam so
//! an accidental `Cell` can never silently revoke it.
//!
//! [`query_fp_masked`]: SharedShapeArray::query_fp_masked
//! [`query_batch`]: SharedShapeArray::query_batch
//!
//! # Examples
//!
//! ```
//! use ghba_bloom::{FilterShape, Fingerprint, Hit, SharedShapeArray};
//!
//! let shape = FilterShape { bits: 4096, hashes: 5, seed: 7 };
//! let mut array = SharedShapeArray::new(shape);
//! array.push(10u16)?;
//! array.push(11u16)?;
//! array.insert(10u16, "/projects/ghba/paper.tex")?;
//!
//! // Hash once, probe the whole array.
//! let fp = Fingerprint::of("/projects/ghba/paper.tex");
//! assert_eq!(array.query_fp(&fp), Hit::Unique(10));
//! assert_eq!(array.query("/somewhere/else"), Hit::None);
//! # Ok::<(), ghba_bloom::BloomError>(())
//! ```

use std::collections::HashMap;
use std::hash::Hash;

use crate::array::Hit;
use crate::error::{BloomError, FilterShape};
use crate::filter::BloomFilter;
use crate::hash::Fingerprint;
use crate::ops::{FilterDelta, WordChange};

/// A bit-sliced array of same-shape Bloom filters probed as one.
///
/// See the module-level docs in `shared.rs` for the layout and its
/// invariants. `I`
/// identifies the server a slot summarizes (an `MdsId` upstream).
#[derive(Debug, Clone)]
pub struct SharedShapeArray<I> {
    shape: FilterShape,
    /// Words per bit-position row (`ceil(slot capacity / 64)`).
    stride: usize,
    /// `shape.bits * stride` words, interleaved by bit position.
    slab: Vec<u64>,
    /// Slot index → id; `None` marks a free (zeroed) slot.
    slots: Vec<Option<I>>,
    /// Bitmask of live slots, `stride` words.
    live: Vec<u64>,
    /// Recycled slot indices.
    free: Vec<usize>,
    /// id → slot, so hot-path mask building and inserts avoid an O(C)
    /// scan over `slots`.
    index: HashMap<I, usize>,
    /// Per-slot inserted-item bookkeeping (upper bound, like
    /// [`BloomFilter::item_count`]).
    items: Vec<usize>,
}

/// A precomputed candidate-slot mask for masked queries.
///
/// Build one with [`SharedShapeArray::subset_mask`] or
/// [`SharedShapeArray::mask_all_except`]; masks stay valid until the array's
/// slot assignment changes (a push, remove, or capacity growth).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotMask {
    words: Vec<u64>,
}

impl SlotMask {
    /// Number of candidate slots in the mask.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when no slot is selected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// A batch of fingerprints (each with an optional candidate [`SlotMask`])
/// resolved by [`SharedShapeArray::query_batch`] in **one pipelined slab
/// pass**.
///
/// Metadata servers see many concurrent lookups at once (queued client
/// requests, a drained multicast mailbox); probing them one at a time pays
/// `k × stride` cold row loads per fingerprint, serialized as far as the
/// out-of-order window reaches. A batch derives every fingerprint's probe
/// rows up front (shared-modulus fastmod, no division), walks them with
/// the next fingerprints' rows software-prefetched ahead, and reduces each
/// row through SIMD kernels with the candidate mask held in registers —
/// so the cache misses of *different* lookups overlap instead of queueing
/// behind one another.
///
/// Build once, [`clear`](ProbeBatch::clear), and reuse: the batch also
/// carries the pass's scratch buffers (candidate masks, probe cursors,
/// row lists), so a reused batch allocates only the result vector.
///
/// # Within-batch dedup
///
/// Flash-crowd (Zipf-head) bursts queue the *same* fingerprint many times
/// in one batch. [`SharedShapeArray::query_batch`] dedups before the slab
/// pass: the `k × stride` row-AND runs **once per unique fingerprint**,
/// whatever candidate masks the duplicates carry. Equal-mask duplicates
/// share the representative's [`Hit`] outright; duplicates under
/// *different* masks (the same hot path entering through different
/// servers) share one unmasked reduction, with each duplicate's mask
/// applied to the surviving words at classification — a `stride`-word
/// AND instead of a full row walk. An all-distinct batch takes a cheap
/// sorted-scan fast path (no mask comparisons, scratch-backed, no
/// per-call allocation).
#[derive(Debug, Clone, Default)]
pub struct ProbeBatch {
    fps: Vec<Fingerprint>,
    masks: Vec<Option<SlotMask>>,
    scratch: BatchScratch,
}

/// Reusable working memory for one batched slab pass (lives inside
/// [`ProbeBatch`]; every field is fully re-initialized per query).
#[derive(Debug, Clone, Default)]
struct BatchScratch {
    /// `B × stride` candidate-mask words.
    mask_words: Vec<u64>,
    /// Per-fingerprint probe cursors (`h1` advanced in place, `h2` fixed).
    h1: Vec<u64>,
    h2: Vec<u64>,
    /// Probe rows, `B × k`, fingerprint-major.
    rows: Vec<u32>,
    /// Per-fingerprint packed `(positives << 32) | slot` verdicts computed
    /// in-kernel while the mask is register-resident (`u64::MAX` = defer
    /// to the full [`SharedShapeArray::classify`] scan).
    verdicts: Vec<u64>,
    /// Query indices sorted by fingerprint lanes (dedup detection).
    order: Vec<u32>,
    /// `rep[i]` = earliest query with `i`'s fingerprint.
    rep: Vec<u32>,
    /// Representative queries in push order (the set the pass runs on).
    sel: Vec<u32>,
    /// Original index → position in `sel` (valid for representatives).
    pos: Vec<u32>,
    /// `mixed[r]` (valid for representatives): `r`'s duplicates carry
    /// *differing* candidate masks, so the row-AND ran unmasked (live
    /// slots) and each duplicate's mask applies at classification.
    mixed: Vec<bool>,
    /// Per-duplicate classification scratch (`survivors ∧ mask`).
    fanout: Vec<u64>,
    /// Mixed-group classification memo: `(representative, query)` pairs
    /// naming the first query classified under each distinct mask, so
    /// later duplicates repeating that mask reuse its verdict.
    classified: Vec<(u32, u32)>,
}

// The concurrent probe seam, enforced at compile time: a read-only slab
// shared across worker threads (`Sync`), with each worker's scratch
// arena free to move to its thread (`Send`). See the module-level
// "Concurrency" section.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_sync::<SharedShapeArray<u16>>();
    assert_sync::<SlotMask>();
    assert_send::<SharedShapeArray<u16>>();
    assert_send::<ProbeBatch>();
};

impl ProbeBatch {
    /// Creates an empty batch.
    #[must_use]
    pub fn new() -> Self {
        ProbeBatch::default()
    }

    /// Creates an empty batch pre-sized for `capacity` fingerprints.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        ProbeBatch {
            fps: Vec::with_capacity(capacity),
            masks: Vec::with_capacity(capacity),
            scratch: BatchScratch::default(),
        }
    }

    /// Queues `fp` against every live slot; returns its index in the
    /// batch's result vector.
    pub fn push(&mut self, fp: Fingerprint) -> usize {
        self.fps.push(fp);
        self.masks.push(None);
        self.fps.len() - 1
    }

    /// Queues `fp` restricted to the candidate slots of `mask` (the batch
    /// equivalent of [`SharedShapeArray::query_fp_masked`]); returns its
    /// index in the batch's result vector.
    pub fn push_masked(&mut self, fp: Fingerprint, mask: SlotMask) -> usize {
        self.fps.push(fp);
        self.masks.push(Some(mask));
        self.fps.len() - 1
    }

    /// Number of queued fingerprints.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fps.len()
    }

    /// `true` when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fps.is_empty()
    }

    /// The queued fingerprints, in push order.
    #[must_use]
    pub fn fingerprints(&self) -> &[Fingerprint] {
        &self.fps
    }

    /// Empties the batch, keeping its allocations for reuse.
    pub fn clear(&mut self) {
        self.fps.clear();
        self.masks.clear();
    }

    /// Derives every queued fingerprint's `k` probe rows for the filter
    /// family `shape` into `out` (cleared first), fingerprint-major — the
    /// batch analogue of [`Fingerprint::probe_rows_into`], sharing one
    /// `FastMod` magic across the whole batch instead of one hardware
    /// division per probe.
    ///
    /// This is how *non-slab* filters join a batched pass: an L4 global
    /// sweep probes every server's live counting filter with the same
    /// fingerprints the slab levels used, so the caller derives the row
    /// table once here and hands each filter its precomputed rows
    /// (`CountingBloomFilter::contains_rows`). Row `j` of fingerprint `q`
    /// lands at `out[q * k + j]`, identical to
    /// [`Fingerprint::probes`](Fingerprint::probes) for the same shape.
    ///
    /// # Panics
    ///
    /// Panics if `shape.bits` is zero or does not fit in a `u32`.
    pub fn derive_rows_into(&self, shape: crate::FilterShape, out: &mut Vec<u32>) {
        assert!(shape.bits > 0, "filter must have at least one bit");
        assert!(
            u32::try_from(shape.bits).is_ok(),
            "filter wider than u32 rows"
        );
        out.clear();
        out.reserve(self.fps.len() * shape.hashes as usize);
        let fm = FastMod::new(shape.bits as u64);
        for fp in &self.fps {
            let (mut cursor, step) = fp.pair(shape.seed);
            for _ in 0..shape.hashes {
                out.push(fm.rem(cursor) as u32);
                cursor = cursor.wrapping_add(step);
            }
        }
    }
}

/// ANDs `src` into `dst` and returns the OR of the resulting words (zero
/// means every candidate died and the query can stop early).
///
/// AVX2 variant, selected at compile time with
/// `-C target-feature=+avx2`: four 64-bit lanes per op via explicit
/// intrinsics.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
#[inline(always)]
fn and_reduce_into(dst: &mut [u64], src: &[u64]) -> u64 {
    use core::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_loadu_si256, _mm256_or_si256, _mm256_setzero_si256,
        _mm256_storeu_si256,
    };
    let n = dst.len().min(src.len());
    // SAFETY: `loadu`/`storeu` tolerate unaligned pointers and every access
    // is bounded by `n`, the shorter of the two slices.
    unsafe {
        let mut any = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= n {
            let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast::<__m256i>());
            let s = _mm256_loadu_si256(src.as_ptr().add(i).cast::<__m256i>());
            let m = _mm256_and_si256(d, s);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast::<__m256i>(), m);
            any = _mm256_or_si256(any, m);
            i += 4;
        }
        let mut tail = 0u64;
        while i < n {
            dst[i] &= src[i];
            tail |= dst[i];
            i += 1;
        }
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), any);
        lanes[0] | lanes[1] | lanes[2] | lanes[3] | tail
    }
}

/// ANDs `src` into `dst` and returns the OR of the resulting words (zero
/// means every candidate died and the query can stop early).
///
/// Portable variant: explicit 4-wide `u64` chunks with independent
/// accumulator lanes, a shape LLVM autovectorizes to 256-bit ops when the
/// target allows it.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
#[inline(always)]
fn and_reduce_into(dst: &mut [u64], src: &[u64]) -> u64 {
    let mut any4 = [0u64; 4];
    let mut dst_chunks = dst.chunks_exact_mut(4);
    let mut src_chunks = src.chunks_exact(4);
    for (d, s) in (&mut dst_chunks).zip(&mut src_chunks) {
        for lane in 0..4 {
            d[lane] &= s[lane];
            any4[lane] |= d[lane];
        }
    }
    let mut any = any4[0] | any4[1] | any4[2] | any4[3];
    for (d, s) in dst_chunks
        .into_remainder()
        .iter_mut()
        .zip(src_chunks.remainder())
    {
        *d &= s;
        any |= *d;
    }
    any
}

/// `true` once the running CPU is known to support AVX2 (checked once,
/// cached). Compile with `-C target-feature=+avx2` to skip the check
/// entirely.
#[cfg(all(target_arch = "x86_64", not(target_feature = "avx2")))]
fn avx2_detected() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static STATE: AtomicU8 = AtomicU8::new(0);
    match STATE.load(Ordering::Relaxed) {
        0 => {
            let yes = std::arch::is_x86_feature_detected!("avx2");
            STATE.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
            yes
        }
        state => state == 2,
    }
}

/// `true` once the running CPU is known to support AVX-512F (checked
/// once, cached): 8 × u64 per AND, halving the vector ops of the wide
/// batch kernel relative to AVX2.
#[cfg(all(target_arch = "x86_64", not(target_feature = "avx512f")))]
fn avx512_detected() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static STATE: AtomicU8 = AtomicU8::new(0);
    match STATE.load(Ordering::Relaxed) {
        0 => {
            let yes = std::arch::is_x86_feature_detected!("avx512f");
            STATE.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
            yes
        }
        state => state == 2,
    }
}

/// `true` once the running CPU is known to support AVX512VPOPCNTDQ on
/// top of AVX-512F (checked once, cached): the batch kernel's
/// classify — a popcount over every mask word — then runs as 8 × u64
/// `vpopcntq` folded into the last AND row instead of a scalar
/// `popcnt` chain after it.
#[cfg(all(target_arch = "x86_64", not(target_feature = "avx512vpopcntdq")))]
fn avx512vpopcnt_detected() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static STATE: AtomicU8 = AtomicU8::new(0);
    match STATE.load(Ordering::Relaxed) {
        0 => {
            let yes = std::arch::is_x86_feature_detected!("avx512vpopcntdq")
                && std::arch::is_x86_feature_detected!("avx512f");
            STATE.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
            yes
        }
        state => state == 2,
    }
}

/// Precomputed magic for Lemire's exact 64-bit **fastmod**: `n % d` as
/// three widening multiplies instead of a hardware division.
///
/// Every probe index of a batch reduces by the *same* modulus (the filter
/// width `m`), so the magic is computed once per [`query_batch`] call and
/// the `B × k` index derivations stay off the (long-latency, poorly
/// pipelined) divider. Exact for every `n` and `d > 0` — see Lemire,
/// Kaser & Kurz, "Faster remainder by direct computation" (2019); the
/// unit test pins it against `%` and the property tests pin the batch
/// path against the division-based sequential probes.
///
/// [`query_batch`]: SharedShapeArray::query_batch
#[derive(Debug, Clone, Copy)]
struct FastMod {
    /// `2^128 / d + 1`.
    magic: u128,
    d: u64,
}

impl FastMod {
    #[inline]
    fn new(d: u64) -> Self {
        debug_assert!(d > 0, "modulus must be non-zero");
        // For d == 1 the magic wraps to 0, and rem() correctly returns 0.
        FastMod {
            magic: (u128::MAX / u128::from(d)).wrapping_add(1),
            d,
        }
    }

    /// `n % d`.
    #[inline(always)]
    fn rem(&self, n: u64) -> u64 {
        let lowbits = self.magic.wrapping_mul(u128::from(n));
        // High 64 bits of the 192-bit product `lowbits * d`.
        let d = u128::from(self.d);
        let bottom = (u128::from(lowbits as u64) * d) >> 64;
        let top = (lowbits >> 64) * d;
        ((bottom + top) >> 64) as u64
    }
}

/// Asks the kernel to back `words` with transparent huge pages
/// (`MADV_HUGEPAGE`), and to do so *before* the buffer is first touched so
/// page faults map 2 MiB pages synchronously.
///
/// A production-size slab (tens of MiB) probed at `k` random rows per
/// query blows the 4 KiB-page dTLB on almost every row load, and the
/// page-walk hardware — two walkers, deep hierarchies — becomes the probe
/// path's real serialization point. Huge pages shrink the slab to a
/// handful of TLB entries. Purely advisory: failure (non-Linux, THP
/// disabled) is ignored and everything still works on 4 KiB pages.
fn advise_hugepages(words: &[u64]) {
    #[cfg(target_os = "linux")]
    {
        const MADV_HUGEPAGE: i32 = 14;
        const PAGE: usize = 4096;
        mod libc_shim {
            extern "C" {
                pub fn madvise(addr: *mut core::ffi::c_void, length: usize, advice: i32) -> i32;
            }
        }
        let start = words.as_ptr() as usize;
        let end = start + words.len() * 8;
        let lo = start.next_multiple_of(PAGE);
        let hi = end & !(PAGE - 1);
        if hi > lo {
            // SAFETY: purely advisory syscall over a page-aligned range
            // inside this live allocation; the kernel never moves or
            // invalidates the memory.
            unsafe {
                libc_shim::madvise(lo as *mut core::ffi::c_void, hi - lo, MADV_HUGEPAGE);
            }
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = words;
}

/// Prefetch target level: `NEAR` pulls into L1 (next rows to reduce),
/// `FAR` into L2 (rows a whole fingerprint ahead), keeping L1 fill
/// buffers free for demand loads.
#[derive(Clone, Copy)]
enum PrefetchHint {
    Near,
    Far,
}

/// Hints the prefetcher at one slab word.
#[inline(always)]
fn prefetch_word(slab: &[u64], word_offset: usize, hint: PrefetchHint) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a pure hint (no dereference), and callers pass
    // offsets inside the slab.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0, _MM_HINT_T1};
        let ptr = slab.as_ptr().add(word_offset).cast::<i8>();
        match hint {
            PrefetchHint::Near => _mm_prefetch(ptr, _MM_HINT_T0),
            PrefetchHint::Far => _mm_prefetch(ptr, _MM_HINT_T1),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slab, word_offset, hint);
}

/// Hints the prefetcher at a whole probe row (both cache lines when the
/// row spans more than one).
#[inline(always)]
fn prefetch_row(slab: &[u64], stride: usize, row: usize, hint: PrefetchHint) {
    prefetch_word(slab, row * stride, hint);
    if stride > 8 {
        prefetch_word(slab, row * stride + 8, hint);
    }
}

/// The wide-row (stride > 1) batch reduction, with overlap tricks a lone
/// [`SharedShapeArray::query_fp`] walk cannot apply:
///
/// * **Shared-modulus fastmod derivation** — all `B × k` probe rows (the
///   same `(h1 + j·h2) mod m` stream as [`crate::hash::ProbeIndices`])
///   are derived up front with one precomputed [`FastMod`] magic: three
///   pipelined multiplies each, no hardware division anywhere.
/// * **Cross-fingerprint prefetch** — while fingerprint `q` is reduced,
///   every probe row of fingerprint `q+1` is software-prefetched, so the
///   next walk's line fetches resolve under the current walk's ANDs.
/// * **Register-resident masks** — with the stride a compile-time `S`,
///   each fingerprint's candidate mask is copied into a fixed-size local,
///   ANDed across all `k` rows without touching memory, and stored back
///   once; the reduction is bounds-check-free and fully unrolled.
///
/// A fingerprint whose mask zeroes stops early (bit-identical to the
/// sequential early exit). `S == 0` selects the dynamic-stride fallback
/// (`stride` is then read from the argument).
///
/// Marked `#[inline(always)]` so the AVX2-enabled wrapper compiles its own
/// fully vectorized copy of the whole pass (not just the innermost
/// reduction).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn batch_pass_body<const S: usize>(
    slab: &[u64],
    stride: usize,
    fm: FastMod,
    k: usize,
    h1: &[u64],
    h2: &[u64],
    rows: &mut Vec<u32>,
    masks: &mut [u64],
    verdicts: &mut [u64],
) {
    let stride = if S == 0 { stride } else { S };
    let b = h1.len();
    rows.clear();
    rows.reserve(b * k);
    for q in 0..b {
        let mut cursor = h1[q];
        let step = h2[q];
        for _ in 0..k {
            rows.push(fm.rem(cursor) as u32);
            cursor = cursor.wrapping_add(step);
        }
    }
    // Two fingerprints of prefetch depth: at DRAM-resident slab sizes a
    // single fingerprint's reduction (~hundreds of ns) barely covers one
    // memory round trip, so keep two walks' worth of lines in flight —
    // the next walk's rows in L1, the one after in L2 (far prefetches
    // stay out of the L1 fill buffers demand loads need).
    for &row in &rows[..k.min(b * k)] {
        prefetch_row(slab, stride, row as usize, PrefetchHint::Near);
    }
    if b > 1 {
        for &row in &rows[k..(2 * k).min(b * k)] {
            prefetch_row(slab, stride, row as usize, PrefetchHint::Far);
        }
    }
    for q in 0..b {
        if q + 1 < b {
            // Promote the next fingerprint's rows to L1...
            for &row in &rows[(q + 1) * k..(q + 2) * k] {
                prefetch_row(slab, stride, row as usize, PrefetchHint::Near);
            }
        }
        if q + 2 < b {
            // ...and stage the one after into L2.
            for &row in &rows[(q + 2) * k..(q + 3) * k] {
                prefetch_row(slab, stride, row as usize, PrefetchHint::Far);
            }
        }
        if S == 0 {
            let mask = &mut masks[q * stride..(q + 1) * stride];
            for &row in &rows[q * k..(q + 1) * k] {
                let base = row as usize * stride;
                if and_reduce_into(mask, &slab[base..base + stride]) == 0 {
                    break;
                }
            }
            verdicts[q] = u64::MAX;
        } else {
            // Fixed-size views: the mask lives in registers across all k
            // rows, and the backend sees exact lengths (no bounds checks,
            // full unroll).
            let mask_slot: &mut [u64; S] = (&mut masks[q * S..(q + 1) * S])
                .try_into()
                .expect("mask is S words");
            // No early-exit test: at wide strides the surviving candidate
            // set rarely zeroes before the last rows (N × fill^j decays
            // from hundreds), so the per-row OR-reduce + branch costs more
            // than the loads it could skip — and ANDing into an all-zero
            // mask is a semantic no-op either way.
            let mut mask = *mask_slot;
            for &row in &rows[q * k..(q + 1) * k] {
                if S == 1 && mask[0] == 0 {
                    // Single-word masks die fast on absent items; wider
                    // masks rarely zero before the tail (see above), so
                    // only S == 1 keeps the early exit.
                    break;
                }
                let base = row as usize * S;
                let row: &[u64; S] = slab[base..base + S].try_into().expect("row is S words");
                for (m, r) in mask.iter_mut().zip(row) {
                    *m &= r;
                }
            }
            // Classify while the mask is still in registers: popcount and
            // locate the (single, for a unique hit) surviving word without
            // re-reading the stored mask.
            let mut positives = 0u32;
            let mut hit_word = 0usize;
            for (w, &word) in mask.iter().enumerate() {
                positives += word.count_ones();
                if word != 0 {
                    hit_word = w;
                }
            }
            let slot = hit_word * 64 + mask[hit_word].trailing_zeros().min(63) as usize;
            verdicts[q] = (u64::from(positives) << 32) | slot as u64;
            *mask_slot = mask;
        }
    }
}

/// The wide-stride batch reduction with the classify **folded into the
/// last AND row**: instead of ANDing all `k` rows and then walking the
/// finished mask a second time for the popcount/hit-word scan (as
/// [`batch_pass_body`] does), the last row's AND, the population count,
/// and the surviving-word tracking run in one fused loop while the mask
/// words sit in registers.
///
/// On its own the fusion is a wash — the second walk touches registers,
/// not memory. It exists for the AVX512VPOPCNTDQ clones below: with
/// `vpopcntq` available the fused loop vectorizes end to end (AND +
/// popcount + nonzero test per 8-word vector), where the split form
/// forces the popcount chain back to scalar `popcnt` over extracted
/// words. Only instantiated at strides ≥ 8 (S ∈ {8, 16, 32}): narrower
/// masks classify faster scalar, and the S == 1 early exit matters
/// there.
///
/// Bit-identical to [`batch_pass_body`] (same masks, same packed
/// verdicts; property-tested below) — wide strides take no early exit
/// in either body, so peeling the last row changes no observable state.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn batch_pass_classify_body<const S: usize>(
    slab: &[u64],
    fm: FastMod,
    k: usize,
    h1: &[u64],
    h2: &[u64],
    rows: &mut Vec<u32>,
    masks: &mut [u64],
    verdicts: &mut [u64],
) {
    debug_assert!(k >= 1, "a filter probes at least one row");
    let b = h1.len();
    rows.clear();
    rows.reserve(b * k);
    for q in 0..b {
        let mut cursor = h1[q];
        let step = h2[q];
        for _ in 0..k {
            rows.push(fm.rem(cursor) as u32);
            cursor = cursor.wrapping_add(step);
        }
    }
    // Same two-fingerprint prefetch depth as `batch_pass_body`.
    for &row in &rows[..k.min(b * k)] {
        prefetch_row(slab, S, row as usize, PrefetchHint::Near);
    }
    if b > 1 {
        for &row in &rows[k..(2 * k).min(b * k)] {
            prefetch_row(slab, S, row as usize, PrefetchHint::Far);
        }
    }
    for q in 0..b {
        if q + 1 < b {
            for &row in &rows[(q + 1) * k..(q + 2) * k] {
                prefetch_row(slab, S, row as usize, PrefetchHint::Near);
            }
        }
        if q + 2 < b {
            for &row in &rows[(q + 2) * k..(q + 3) * k] {
                prefetch_row(slab, S, row as usize, PrefetchHint::Far);
            }
        }
        let mask_slot: &mut [u64; S] = (&mut masks[q * S..(q + 1) * S])
            .try_into()
            .expect("mask is S words");
        let mut mask = *mask_slot;
        let qrows = &rows[q * k..(q + 1) * k];
        // All but the last row: the plain register-resident AND chain.
        for &row in &qrows[..k - 1] {
            let base = row as usize * S;
            let row: &[u64; S] = slab[base..base + S].try_into().expect("row is S words");
            for (m, r) in mask.iter_mut().zip(row) {
                *m &= r;
            }
        }
        // The last row: AND fused with the popcount classify.
        let base = qrows[k - 1] as usize * S;
        let row: &[u64; S] = slab[base..base + S].try_into().expect("row is S words");
        let mut positives = 0u32;
        let mut hit_word = 0usize;
        for (w, (m, r)) in mask.iter_mut().zip(row).enumerate() {
            *m &= r;
            positives += m.count_ones();
            if *m != 0 {
                hit_word = w;
            }
        }
        let slot = hit_word * 64 + mask[hit_word].trailing_zeros().min(63) as usize;
        verdicts[q] = (u64::from(positives) << 32) | slot as u64;
        *mask_slot = mask;
    }
}

macro_rules! batch_pass_variants {
    ($($name:ident => $s:literal),+ $(,)?) => {
        $(
            /// AVX2 clone of [`batch_pass_body`] at this stride,
            /// dispatched at runtime when the build baseline lacks AVX2
            /// but the CPU has it.
            #[cfg(all(target_arch = "x86_64", not(target_feature = "avx2")))]
            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = "avx2")]
            unsafe fn $name(
                slab: &[u64],
                stride: usize,
                fm: FastMod,
                k: usize,
                h1: &[u64],
                h2: &[u64],
                rows: &mut Vec<u32>,
                masks: &mut [u64],
                verdicts: &mut [u64],
            ) {
                batch_pass_body::<$s>(slab, stride, fm, k, h1, h2, rows, masks, verdicts);
            }
        )+
    };
}

batch_pass_variants! {
    batch_pass_avx2_dyn => 0,
    batch_pass_avx2_1 => 1,
    batch_pass_avx2_2 => 2,
    batch_pass_avx2_4 => 4,
    batch_pass_avx2_8 => 8,
    batch_pass_avx2_16 => 16,
    batch_pass_avx2_32 => 32,
}

macro_rules! batch_pass_variants_512 {
    ($($name:ident => $s:literal),+ $(,)?) => {
        $(
            /// AVX-512F clone of [`batch_pass_body`] at this stride,
            /// dispatched at runtime when the CPU supports 512-bit
            /// vectors (8 × u64 per AND).
            #[cfg(all(target_arch = "x86_64", not(target_feature = "avx512f")))]
            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = "avx512f")]
            unsafe fn $name(
                slab: &[u64],
                stride: usize,
                fm: FastMod,
                k: usize,
                h1: &[u64],
                h2: &[u64],
                rows: &mut Vec<u32>,
                masks: &mut [u64],
                verdicts: &mut [u64],
            ) {
                batch_pass_body::<$s>(slab, stride, fm, k, h1, h2, rows, masks, verdicts);
            }
        )+
    };
}

batch_pass_variants_512! {
    batch_pass_avx512_dyn => 0,
    batch_pass_avx512_8 => 8,
    batch_pass_avx512_16 => 16,
    batch_pass_avx512_32 => 32,
}

macro_rules! batch_pass_variants_vpopcnt {
    ($($name:ident => $s:literal),+ $(,)?) => {
        $(
            /// AVX512VPOPCNTDQ clone of [`batch_pass_classify_body`] at
            /// this stride, dispatched at runtime when the CPU has
            /// vector popcount: the classify's per-word `count_ones`
            /// lowers to `vpopcntq` inside the fused last-AND loop.
            #[cfg(all(target_arch = "x86_64", not(target_feature = "avx512vpopcntdq")))]
            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = "avx512f", enable = "avx512vpopcntdq")]
            unsafe fn $name(
                slab: &[u64],
                fm: FastMod,
                k: usize,
                h1: &[u64],
                h2: &[u64],
                rows: &mut Vec<u32>,
                masks: &mut [u64],
                verdicts: &mut [u64],
            ) {
                batch_pass_classify_body::<$s>(slab, fm, k, h1, h2, rows, masks, verdicts);
            }
        )+
    };
}

batch_pass_variants_vpopcnt! {
    batch_pass_vpopcnt_8 => 8,
    batch_pass_vpopcnt_16 => 16,
    batch_pass_vpopcnt_32 => 32,
}

/// Runs the batch reduction with the widest vector width available (the
/// compile-time AVX2 path when the build targets it, a runtime-dispatched
/// AVX2 clone when only the CPU does) and a stride-specialized kernel for
/// the common power-of-two strides. CPUs with AVX512VPOPCNTDQ take the
/// fused-classify kernel ([`batch_pass_classify_body`]) at strides ≥ 8,
/// where the popcount classify vectorizes inside the last AND row.
#[allow(clippy::too_many_arguments)]
fn run_batch_pass(
    slab: &[u64],
    stride: usize,
    fm: FastMod,
    k: usize,
    h1: &[u64],
    h2: &[u64],
    rows: &mut Vec<u32>,
    masks: &mut [u64],
    verdicts: &mut [u64],
) {
    #[cfg(all(target_arch = "x86_64", not(target_feature = "avx512vpopcntdq")))]
    if k >= 1 && matches!(stride, 8 | 16 | 32) && avx512vpopcnt_detected() {
        // SAFETY: `avx512vpopcnt_detected` confirmed both instruction
        // sets (AVX-512F for the wide ANDs, VPOPCNTDQ for the fused
        // classify).
        unsafe {
            match stride {
                8 => batch_pass_vpopcnt_8(slab, fm, k, h1, h2, rows, masks, verdicts),
                16 => batch_pass_vpopcnt_16(slab, fm, k, h1, h2, rows, masks, verdicts),
                _ => batch_pass_vpopcnt_32(slab, fm, k, h1, h2, rows, masks, verdicts),
            }
        }
        return;
    }
    #[cfg(all(target_arch = "x86_64", not(target_feature = "avx512f")))]
    if stride >= 8 && avx512_detected() {
        // SAFETY: `avx512_detected` confirmed the instruction set.
        unsafe {
            match stride {
                8 => batch_pass_avx512_8(slab, stride, fm, k, h1, h2, rows, masks, verdicts),
                16 => batch_pass_avx512_16(slab, stride, fm, k, h1, h2, rows, masks, verdicts),
                32 => batch_pass_avx512_32(slab, stride, fm, k, h1, h2, rows, masks, verdicts),
                _ => batch_pass_avx512_dyn(slab, stride, fm, k, h1, h2, rows, masks, verdicts),
            }
        }
        return;
    }
    #[cfg(all(target_arch = "x86_64", not(target_feature = "avx2")))]
    if avx2_detected() {
        // SAFETY: `avx2_detected` confirmed the instruction set.
        unsafe {
            match stride {
                1 => batch_pass_avx2_1(slab, stride, fm, k, h1, h2, rows, masks, verdicts),
                2 => batch_pass_avx2_2(slab, stride, fm, k, h1, h2, rows, masks, verdicts),
                4 => batch_pass_avx2_4(slab, stride, fm, k, h1, h2, rows, masks, verdicts),
                8 => batch_pass_avx2_8(slab, stride, fm, k, h1, h2, rows, masks, verdicts),
                16 => batch_pass_avx2_16(slab, stride, fm, k, h1, h2, rows, masks, verdicts),
                32 => batch_pass_avx2_32(slab, stride, fm, k, h1, h2, rows, masks, verdicts),
                _ => batch_pass_avx2_dyn(slab, stride, fm, k, h1, h2, rows, masks, verdicts),
            }
        }
        return;
    }
    match stride {
        1 => batch_pass_body::<1>(slab, stride, fm, k, h1, h2, rows, masks, verdicts),
        2 => batch_pass_body::<2>(slab, stride, fm, k, h1, h2, rows, masks, verdicts),
        4 => batch_pass_body::<4>(slab, stride, fm, k, h1, h2, rows, masks, verdicts),
        8 => batch_pass_body::<8>(slab, stride, fm, k, h1, h2, rows, masks, verdicts),
        16 => batch_pass_body::<16>(slab, stride, fm, k, h1, h2, rows, masks, verdicts),
        32 => batch_pass_body::<32>(slab, stride, fm, k, h1, h2, rows, masks, verdicts),
        _ => batch_pass_body::<0>(slab, stride, fm, k, h1, h2, rows, masks, verdicts),
    }
}

/// Transposes a 64×64 bit matrix in place: bit `c` of `m[r]` moves to bit
/// `r` of `m[c]` (LSB-first on both axes).
///
/// The classic recursive block swap (Hacker's Delight §7-3, adapted to the
/// LSB-first convention this crate uses): at granularity `j` the upper-left
/// and lower-right sub-blocks stay put while the off-diagonal sub-blocks
/// swap, in `O(64 · log 64)` word operations — the engine behind
/// [`SharedShapeArray::from_filters`]'s bulk load.
fn transpose_64x64(m: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            // Swap M[k][c + j] (high sub-columns of the upper row) with
            // M[k + j][c] (low sub-columns of the lower row) for every
            // low sub-column c selected by `mask`.
            let t = ((m[k] >> j) ^ m[k + j]) & mask;
            m[k] ^= t << j;
            m[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// The bit-rows of `word`'s set bits, for a word whose bit 0 is row
/// `base`, in ascending order.
fn bit_rows(base: usize, mut word: u64) -> impl Iterator<Item = usize> {
    core::iter::from_fn(move || {
        let row = base + word.trailing_zeros() as usize;
        word &= word.checked_sub(1)?;
        Some(row)
    })
}

impl<I: Copy + Eq + Hash> SharedShapeArray<I> {
    /// Creates an empty array whose slots will all use `shape`.
    ///
    /// # Panics
    ///
    /// Panics if `shape.bits == 0` or `shape.hashes == 0`.
    #[must_use]
    pub fn new(shape: FilterShape) -> Self {
        Self::with_capacity(shape, 64)
    }

    /// Creates an empty array pre-sized for `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `shape.bits == 0` or `shape.hashes == 0`.
    #[must_use]
    pub fn with_capacity(shape: FilterShape, capacity: usize) -> Self {
        assert!(shape.bits > 0, "filters must have at least one bit");
        assert!(shape.hashes > 0, "filters must use at least one hash");
        let stride = capacity.max(1).div_ceil(64);
        let slab = vec![0; shape.bits * stride];
        advise_hugepages(&slab);
        SharedShapeArray {
            shape,
            stride,
            slab,
            slots: Vec::new(),
            live: vec![0; stride],
            free: Vec::new(),
            index: HashMap::new(),
            items: Vec::new(),
        }
    }

    /// Builds an array from same-shape `(id, filter)` pairs.
    ///
    /// Bulk loads (restart recovery, mass replica installs) go through a
    /// **64×64 block bit-matrix transpose** instead of the slot-at-a-time
    /// bit scatter of [`push_filter`](SharedShapeArray::push_filter): each
    /// block of up to 64 filters contributes one source word per 64
    /// bit-rows, the 64×64 block is transposed in registers
    /// (`O(64 log 64)` word ops), and whole slab words are written at
    /// once — ~64× fewer memory touches than scattering each set bit
    /// individually. The result is bit-identical to pushing the filters
    /// one by one (property-tested).
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::IncompatibleFilters`] on a shape mismatch and
    /// [`BloomError::DuplicateId`] on a repeated id.
    pub fn from_filters<T>(iter: T) -> Result<Self, BloomError>
    where
        T: IntoIterator<Item = (I, BloomFilter)>,
    {
        let filters: Vec<(I, BloomFilter)> = iter.into_iter().collect();
        let Some((_, first)) = filters.first() else {
            // No filters means no shape to adopt; an arbitrary non-empty
            // shape keeps the array usable (every query answers `None`).
            return Ok(Self::new(FilterShape {
                bits: 64,
                hashes: 1,
                seed: 0,
            }));
        };
        let shape = first.shape();
        let mut array = Self::with_capacity(shape, filters.len());
        for (id, filter) in &filters {
            array.check_shape(filter)?;
            let slot = array.allocate_slot(*id)?;
            debug_assert_eq!(slot + 1, array.slots.len(), "fresh slots are dense");
            array.items[slot] = filter.item_count();
        }
        // Slots were allocated densely (0, 1, 2, …), so the filters of
        // block `w` occupy exactly slab-word column `w`: transpose each
        // 64-filter × 64-bit-row block straight into its column words.
        let words_per_filter = shape.bits.div_ceil(64);
        let stride = array.stride;
        for (column, chunk) in filters.chunks(64).enumerate() {
            for w in 0..words_per_filter {
                let mut block = [0u64; 64];
                let mut nonzero = 0u64;
                for (j, (_, filter)) in chunk.iter().enumerate() {
                    let word = filter.words()[w];
                    block[j] = word;
                    nonzero |= word;
                }
                if nonzero == 0 {
                    continue;
                }
                transpose_64x64(&mut block);
                let base_row = w * 64;
                let top = 64.min(shape.bits - base_row);
                for (bit, &word) in block.iter().enumerate().take(top) {
                    if word != 0 {
                        // Fresh zeroed slab: plain assignment suffices.
                        array.slab[(base_row + bit) * stride + column] = word;
                    }
                }
            }
        }
        Ok(array)
    }

    /// The shape shared by every slot.
    #[must_use]
    pub fn shape(&self) -> FilterShape {
        self.shape
    }

    /// Number of live slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// `true` when no slot is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap footprint of the bit slab in bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.slab.len() * 8
    }

    /// Live ids in slot order (insertion order when nothing was removed).
    pub fn ids(&self) -> impl Iterator<Item = I> + '_ {
        self.slots.iter().filter_map(|slot| *slot)
    }

    /// `true` if a slot for `id` is live.
    #[must_use]
    pub fn contains_id(&self, id: I) -> bool {
        self.slot_of(id).is_some()
    }

    fn slot_of(&self, id: I) -> Option<usize> {
        self.index.get(&id).copied()
    }

    /// Doubles slot capacity, re-interleaving the slab.
    fn grow(&mut self) {
        let new_stride = self.stride * 2;
        let mut slab = vec![0u64; self.shape.bits * new_stride];
        advise_hugepages(&slab);
        for row in 0..self.shape.bits {
            let old = &self.slab[row * self.stride..(row + 1) * self.stride];
            slab[row * new_stride..row * new_stride + self.stride].copy_from_slice(old);
        }
        self.slab = slab;
        self.live.resize(new_stride, 0);
        self.stride = new_stride;
    }

    fn allocate_slot(&mut self, id: I) -> Result<usize, BloomError> {
        if self.contains_id(id) {
            return Err(BloomError::DuplicateId);
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(id);
                slot
            }
            None => {
                if self.slots.len() == self.stride * 64 {
                    self.grow();
                }
                self.slots.push(Some(id));
                self.items.push(0);
                self.slots.len() - 1
            }
        };
        self.items[slot] = 0;
        self.live[slot / 64] |= 1 << (slot % 64);
        self.index.insert(id, slot);
        Ok(slot)
    }

    /// Adds an empty filter slot for `id`.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::DuplicateId`] if `id` is already present.
    pub fn push(&mut self, id: I) -> Result<(), BloomError> {
        self.allocate_slot(id).map(|_| ())
    }

    /// Adds a slot for `id` holding a copy of `filter`'s bits.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::IncompatibleFilters`] if `filter` does not
    /// match the array shape, or [`BloomError::DuplicateId`].
    pub fn push_filter(&mut self, id: I, filter: &BloomFilter) -> Result<(), BloomError> {
        self.check_shape(filter)?;
        let slot = self.allocate_slot(id)?;
        self.write_column(slot, filter);
        self.items[slot] = filter.item_count();
        Ok(())
    }

    /// Replaces the bits of `id`'s slot with `filter`'s.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::IncompatibleFilters`] on a shape mismatch or
    /// [`BloomError::UnknownId`] if `id` is absent.
    pub fn replace_filter(&mut self, id: I, filter: &BloomFilter) -> Result<(), BloomError> {
        self.check_shape(filter)?;
        let slot = self.slot_of(id).ok_or(BloomError::UnknownId)?;
        self.clear_column(slot);
        self.write_column(slot, filter);
        self.items[slot] = filter.item_count();
        Ok(())
    }

    /// Removes `id`'s slot (zeroing its column); returns `false` when `id`
    /// was not present.
    pub fn remove(&mut self, id: I) -> bool {
        let Some(slot) = self.slot_of(id) else {
            return false;
        };
        self.clear_column(slot);
        self.slots[slot] = None;
        self.items[slot] = 0;
        self.live[slot / 64] &= !(1 << (slot % 64));
        self.free.push(slot);
        self.index.remove(&id);
        true
    }

    fn check_shape(&self, filter: &BloomFilter) -> Result<(), BloomError> {
        if filter.shape() == self.shape {
            Ok(())
        } else {
            Err(BloomError::IncompatibleFilters {
                left: self.shape,
                right: filter.shape(),
            })
        }
    }

    /// Transposes `filter`'s set bits into `slot`'s column.
    fn write_column(&mut self, slot: usize, filter: &BloomFilter) {
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        for (w, &src) in filter.words().iter().enumerate() {
            for row in bit_rows(w * 64, src) {
                self.slab[row * self.stride + word] |= bit;
            }
        }
    }

    fn clear_column(&mut self, slot: usize) {
        let (word, bit) = (slot / 64, !(1u64 << (slot % 64)));
        for row in 0..self.shape.bits {
            self.slab[row * self.stride + word] &= bit;
        }
    }

    /// Applies a sparse [`FilterDelta`] directly to `id`'s column and
    /// returns the number of slab rows written. Only the rows of the bits
    /// the delta flips are touched — one `|=` per set bit, one `&= !` per
    /// cleared bit, `O(changed bits)` — instead of the three full-column
    /// passes an extract/apply/replace round trip would cost. Like
    /// [`FilterDelta::apply`] it is idempotent: a column that already
    /// holds the delta's post-delta bits is left unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::IncompatibleFilters`] on a shape mismatch,
    /// [`BloomError::UnknownId`] if `id` is absent, or
    /// [`BloomError::Corrupt`] if the delta flips a bit past the filter.
    pub fn apply_delta(&mut self, id: I, delta: &FilterDelta) -> Result<usize, BloomError> {
        if delta.shape() != self.shape {
            return Err(BloomError::IncompatibleFilters {
                left: self.shape,
                right: delta.shape(),
            });
        }
        let slot = self.slot_of(id).ok_or(BloomError::UnknownId)?;
        // One past the highest row a change flips must stay in the filter.
        let fits = |c: &WordChange| {
            let top = c.index as usize * 64 + (64 - (c.set | c.cleared).leading_zeros() as usize);
            top <= self.shape.bits
        };
        if !delta.changes().iter().all(fits) {
            return Err(BloomError::Corrupt("delta flips a bit past the filter"));
        }
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        let mut rows = 0;
        for change in delta.changes() {
            let base = change.index as usize * 64;
            for row in bit_rows(base, change.set) {
                self.slab[row * self.stride + word] |= bit;
            }
            for row in bit_rows(base, change.cleared) {
                self.slab[row * self.stride + word] &= !bit;
            }
            rows += (change.set | change.cleared).count_ones() as usize;
        }
        self.items[slot] = delta.new_items();
        Ok(rows)
    }

    /// Reconstructs `id`'s slot as a standalone [`BloomFilter`] (used when
    /// shipping a replica or applying a [`crate::FilterDelta`]).
    #[must_use]
    pub fn extract(&self, id: I) -> Option<BloomFilter> {
        let slot = self.slot_of(id)?;
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        let mut filter = BloomFilter::new(self.shape.bits, self.shape.hashes, self.shape.seed);
        for row in 0..self.shape.bits {
            if self.slab[row * self.stride + word] & bit != 0 {
                filter.words_mut()[row / 64] |= 1 << (row % 64);
            }
        }
        filter.set_items(self.items[slot]);
        Some(filter)
    }

    /// The sparse [`FilterDelta`] that inserting `fps` into `id`'s slot
    /// would publish, without touching the slab: exactly
    /// `FilterDelta::between(&old, &new)` for `old = extract(id)` and
    /// `new = old` plus every fingerprint (same word changes, same
    /// ascending order, same `new_items` — one per fingerprint,
    /// duplicates included, as [`BloomFilter::insert_fp`] counts them).
    ///
    /// An insert only sets bits, so each word's change is just the
    /// probe bits still clear in the column: only the fingerprints' probe
    /// rows are read, and the cost is `O(fps × hashes)` rather than the
    /// `O(filter bits)` strided scan of an extract/insert/diff round
    /// trip. Fold the result in with
    /// [`apply_delta`](SharedShapeArray::apply_delta), which writes one
    /// row per set bit.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::UnknownId`] if `id` is absent.
    pub fn insert_delta(&self, id: I, fps: &[Fingerprint]) -> Result<FilterDelta, BloomError> {
        let slot = self.slot_of(id).ok_or(BloomError::UnknownId)?;
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        // The probe bits still clear in the column, as (word index, bit).
        let mut fresh: Vec<(u32, u64)> = Vec::new();
        for fp in fps {
            for row in fp.probes(self.shape.seed, self.shape.bits, self.shape.hashes) {
                if self.slab[row * self.stride + word] & bit == 0 {
                    fresh.push(((row / 64) as u32, 1 << (row % 64)));
                }
            }
        }
        fresh.sort_unstable_by_key(|&(index, _)| index);
        let mut changes: Vec<WordChange> = Vec::new();
        for (index, set) in fresh {
            match changes.last_mut() {
                Some(last) if last.index == index => last.set |= set,
                _ => changes.push(WordChange {
                    index,
                    set,
                    cleared: 0,
                }),
            }
        }
        Ok(FilterDelta::from_sorted_changes(
            self.shape,
            changes,
            self.items[slot] + fps.len(),
        ))
    }

    /// Sets `item`'s bits in `id`'s slot.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::UnknownId`] if `id` is absent.
    pub fn insert<T: Hash + ?Sized>(&mut self, id: I, item: &T) -> Result<(), BloomError> {
        self.insert_fp(id, &Fingerprint::of(item))
    }

    /// Hash-once variant of [`insert`](SharedShapeArray::insert).
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::UnknownId`] if `id` is absent.
    pub fn insert_fp(&mut self, id: I, fp: &Fingerprint) -> Result<(), BloomError> {
        let slot = self.slot_of(id).ok_or(BloomError::UnknownId)?;
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        for row in fp.probes(self.shape.seed, self.shape.bits, self.shape.hashes) {
            self.slab[row * self.stride + word] |= bit;
        }
        self.items[slot] += 1;
        Ok(())
    }

    /// A mask selecting the live slots of the given ids (unknown ids are
    /// ignored).
    pub fn subset_mask<T: IntoIterator<Item = I>>(&self, ids: T) -> SlotMask {
        let mut words = vec![0u64; self.stride];
        for id in ids {
            if let Some(slot) = self.slot_of(id) {
                words[slot / 64] |= 1 << (slot % 64);
            }
        }
        SlotMask { words }
    }

    /// A mask selecting every live slot except `id`'s.
    #[must_use]
    pub fn mask_all_except(&self, id: I) -> SlotMask {
        let mut words = self.live.clone();
        if let Some(slot) = self.slot_of(id) {
            words[slot / 64] &= !(1 << (slot % 64));
        }
        SlotMask { words }
    }

    /// Probes every live slot with `item` and classifies the positives.
    #[must_use]
    pub fn query<T: Hash + ?Sized>(&self, item: &T) -> Hit<I> {
        self.query_fp(&Fingerprint::of(item))
    }

    /// Hash-once probe of every live slot: `k × stride` word loads plus an
    /// AND-reduction, regardless of how many filters the array holds.
    #[must_use]
    pub fn query_fp(&self, fp: &Fingerprint) -> Hit<I> {
        self.reduce(fp, &self.live)
    }

    /// Masked hash-once probe: only slots in `mask` are candidates.
    /// # Panics
    ///
    /// Panics if `mask` predates a capacity growth of this array (a stale
    /// mask would silently exclude every slot beyond the old capacity).
    #[must_use]
    pub fn query_fp_masked(&self, fp: &Fingerprint, mask: &SlotMask) -> Hit<I> {
        assert_eq!(
            mask.words.len(),
            self.stride,
            "SlotMask predates a capacity growth; rebuild it"
        );
        self.reduce(fp, &mask.words)
    }

    /// Convenience: probe only the slots of `ids` (builds a transient mask).
    pub fn query_fp_among<T: IntoIterator<Item = I>>(&self, fp: &Fingerprint, ids: T) -> Hit<I> {
        let mask = self.subset_mask(ids);
        self.query_fp_masked(fp, &mask)
    }

    /// Resolves a whole [`ProbeBatch`] in one pipelined slab pass,
    /// returning one [`Hit`] per queued fingerprint, in push order.
    ///
    /// Answers are **bit-identical** to calling [`query_fp`] /
    /// [`query_fp_masked`] once per fingerprint (the property tests assert
    /// it); only the work schedule differs, in ways a lone query cannot
    /// match:
    ///
    /// * **Step-major interleaving** — probe step `j` runs for *every*
    ///   fingerprint before step `j+1`: the B row loads of one step are
    ///   independent, so their cache/TLB misses overlap B-wide, where a
    ///   single query's serial walk overlaps only as far as the
    ///   out-of-order window reaches. The next step's rows are derived and
    ///   software-prefetched while the current step's AND-reductions run.
    /// * **SIMD reduction** — rows are ANDed through the 4-wide chunked
    ///   path: AVX2 at compile time under `-C target-feature=+avx2`, or a
    ///   runtime-dispatched AVX2 clone of the whole pass when only the CPU
    ///   supports it, with stride-specialized (bounds-check-free, fully
    ///   unrolled) kernels for the common power-of-two strides.
    /// * **Shared-modulus fastmod** — all `B × k` probe-index reductions
    ///   use one precomputed `FastMod` magic instead of hardware
    ///   division, keeping the divider off the critical path.
    /// * **Amortized scratch** — masks, cursors, and liveness live in the
    ///   batch and are reused across calls; a reused batch allocates only
    ///   the result vector.
    ///
    /// [`query_fp`]: SharedShapeArray::query_fp
    /// [`query_fp_masked`]: SharedShapeArray::query_fp_masked
    ///
    /// # Panics
    ///
    /// Panics if a queued [`SlotMask`] predates a capacity growth of this
    /// array (same rule as
    /// [`query_fp_masked`](SharedShapeArray::query_fp_masked)).
    #[must_use]
    pub fn query_batch(&self, batch: &mut ProbeBatch) -> Vec<Hit<I>> {
        let b = batch.len();
        if b == 0 {
            return Vec::new();
        }
        let stride = self.stride;
        let k = self.shape.hashes as usize;
        let ProbeBatch {
            fps,
            masks: query_masks,
            scratch,
        } = batch;
        let BatchScratch {
            mask_words,
            h1,
            h2,
            rows,
            verdicts,
            order,
            rep,
            sel,
            pos,
            mixed,
            fanout,
            classified,
        } = scratch;
        // ---- Within-batch duplicate dedup (flash crowds). ----
        // Queries with the same fingerprint reduce the same `k` rows, so
        // the row-AND runs once per **unique fingerprint** and the result
        // fans out — even when the duplicates carry *different* candidate
        // masks (the same hot path entering through different servers).
        // Equal-mask duplicates share the representative's verdict
        // outright; a group with differing masks runs the representative
        // unmasked (live slots) and applies each duplicate's mask to the
        // surviving words at classification, which is bit-identical
        // because the AND-reduction is monotone:
        // `(mask ∧ live) ∧ rows == mask ∧ (live ∧ rows)`.
        // Detection is a sorted scan over the fingerprint lanes: an
        // all-distinct batch (the common case) pays one small sort and no
        // mask comparisons.
        rep.clear();
        rep.extend(0..b as u32);
        mixed.clear();
        mixed.resize(b, false);
        let mut dups = 0usize;
        if b > 1 {
            order.clear();
            order.extend(0..b as u32);
            order.sort_unstable_by_key(|&i| (fps[i as usize].lanes(), i));
            let mut start = 0usize;
            while start < b {
                let lanes = fps[order[start] as usize].lanes();
                let mut end = start + 1;
                while end < b && fps[order[end] as usize].lanes() == lanes {
                    end += 1;
                }
                // The earliest query of the group (order is sorted by
                // (lanes, i)) represents every later duplicate.
                let r = order[start] as usize;
                let mut group_mixed = false;
                for &oj in &order[start + 1..end] {
                    let j = oj as usize;
                    group_mixed |= query_masks[r] != query_masks[j];
                    rep[j] = r as u32;
                    dups += 1;
                }
                mixed[r] = group_mixed;
                start = end;
            }
        }
        sel.clear();
        pos.clear();
        pos.resize(b, 0);
        for i in 0..b {
            if rep[i] == i as u32 {
                pos[i] = sel.len() as u32;
                sel.push(i as u32);
            }
        }
        let uniq = sel.len();
        debug_assert_eq!(uniq + dups, b);

        // Per-representative candidate masks, flattened: representative
        // `q` owns words [q * stride, (q + 1) * stride). Every word is
        // overwritten below, so a stale scratch buffer is safe to reuse.
        mask_words.resize(uniq * stride, 0);
        let masks = &mut mask_words[..uniq * stride];
        for (chunk, &i) in masks.chunks_exact_mut(stride).zip(sel.iter()) {
            match &query_masks[i as usize] {
                // A mixed-group representative probes every live slot;
                // its own mask (with its duplicates') applies at
                // classification below.
                Some(mask) if !mixed[i as usize] => {
                    assert_eq!(
                        mask.words.len(),
                        stride,
                        "SlotMask predates a capacity growth; rebuild it"
                    );
                    for ((dst, cand), live) in chunk.iter_mut().zip(&mask.words).zip(&self.live) {
                        *dst = cand & live;
                    }
                }
                _ => chunk.copy_from_slice(&self.live),
            }
        }
        // Each representative's probe cursor: the `(h1, h2)` double-
        // hashing pair, advanced step by step inside the pass
        // (bit-identical to [`crate::hash::ProbeIndices`] by construction;
        // the property tests pin the equivalence).
        let fm = FastMod::new(self.shape.bits as u64);
        h1.clear();
        h2.clear();
        for &i in sel.iter() {
            let (a, bb) = fps[i as usize].pair(self.shape.seed);
            h1.push(a);
            h2.push(bb);
        }

        let hits: Vec<Hit<I>> = if stride == 1 {
            // Single-word masks (≤ 64 slots): each query's whole state
            // fits in registers and the sequential walk is already near
            // optimal, so the batch win is the shared fastmod derivation
            // and the amortized scratch — walk each fingerprint to
            // completion with everything register-resident.
            for q in 0..uniq {
                let mut cursor = h1[q];
                let step = h2[q];
                let mut mask = masks[q];
                for _ in 0..k {
                    if mask == 0 {
                        break;
                    }
                    let row = fm.rem(cursor) as usize;
                    cursor = cursor.wrapping_add(step);
                    mask &= self.slab[row];
                }
                masks[q] = mask;
            }
            masks.chunks_exact(1).map(|m| self.classify(m)).collect()
        } else {
            verdicts.clear();
            verdicts.resize(uniq, u64::MAX);
            run_batch_pass(&self.slab, stride, fm, k, h1, h2, rows, masks, verdicts);
            masks
                .chunks_exact(stride)
                .zip(verdicts.iter())
                .map(|(mask, &verdict)| {
                    if verdict == u64::MAX {
                        return self.classify(mask);
                    }
                    match verdict >> 32 {
                        0 => Hit::None,
                        1 => {
                            let slot = (verdict & 0xFFFF_FFFF) as usize;
                            Hit::Unique(self.slots[slot].expect("live slot has an id"))
                        }
                        _ => self.classify(mask),
                    }
                })
                .collect()
        };
        if dups == 0 {
            return hits;
        }
        // Fan each representative's verdict out to its duplicates. For a
        // mixed-mask group the stored surviving words are the *unmasked*
        // reduction, so each duplicate's candidate mask ANDs in here —
        // one `stride`-word pass per **distinct** mask instead of a full
        // `k × stride` row walk each: duplicates repeating a mask the
        // group already classified (the flash-crowd shape: many repeats
        // under few masks) reuse the memoized verdict, preserving the
        // old per-`(fingerprint, mask)` amortization.
        let masks: &[u64] = masks;
        classified.clear();
        let mut out: Vec<Hit<I>> = Vec::with_capacity(b);
        for i in 0..b {
            let r = rep[i] as usize;
            let p = pos[r] as usize;
            let hit = if !mixed[r] {
                hits[p].clone()
            } else {
                match &query_masks[i] {
                    None => hits[p].clone(),
                    Some(mask) => {
                        assert_eq!(
                            mask.words.len(),
                            stride,
                            "SlotMask predates a capacity growth; rebuild it"
                        );
                        let memo = classified.iter().find(|&&(cr, ci)| {
                            cr == rep[i] && query_masks[ci as usize] == query_masks[i]
                        });
                        match memo {
                            // `ci < i`, so its verdict is already in `out`.
                            Some(&(_, ci)) => out[ci as usize].clone(),
                            None => {
                                let survivors = &masks[p * stride..(p + 1) * stride];
                                fanout.clear();
                                fanout
                                    .extend(survivors.iter().zip(&mask.words).map(|(s, m)| s & m));
                                classified.push((rep[i], i as u32));
                                self.classify(fanout)
                            }
                        }
                    }
                }
            };
            out.push(hit);
        }
        out
    }

    fn reduce(&self, fp: &Fingerprint, candidates: &[u64]) -> Hit<I> {
        if self.stride == 1 {
            // Fast path covering arrays of up to 64 slots: the whole
            // candidate mask lives in one register.
            let mut mask = candidates[0] & self.live[0];
            for row in fp.probes(self.shape.seed, self.shape.bits, self.shape.hashes) {
                mask &= self.slab[row];
                if mask == 0 {
                    return Hit::None;
                }
            }
            return self.classify(&[mask]);
        }
        let mut mask: Vec<u64> = candidates
            .iter()
            .zip(&self.live)
            .map(|(c, l)| c & l)
            .collect();
        for row in fp.probes(self.shape.seed, self.shape.bits, self.shape.hashes) {
            let slice = &self.slab[row * self.stride..(row + 1) * self.stride];
            let mut any = 0u64;
            for (m, s) in mask.iter_mut().zip(slice) {
                *m &= s;
                any |= *m;
            }
            if any == 0 {
                return Hit::None;
            }
        }
        self.classify(&mask)
    }

    fn classify(&self, mask: &[u64]) -> Hit<I> {
        // Single pass: popcount and remember the last non-zero word (for
        // a unique hit it is the only one).
        let mut positives = 0u32;
        let mut hit_word = 0usize;
        for (word, &bits) in mask.iter().enumerate() {
            if bits != 0 {
                positives += bits.count_ones();
                hit_word = word;
            }
        }
        match positives {
            0 => Hit::None,
            1 => {
                let slot = hit_word * 64 + mask[hit_word].trailing_zeros() as usize;
                Hit::Unique(self.slots[slot].expect("live slot has an id"))
            }
            _ => {
                let mut ids = Vec::with_capacity(positives as usize);
                for (word, &bits) in mask.iter().enumerate() {
                    let mut remaining = bits;
                    while remaining != 0 {
                        let slot = word * 64 + remaining.trailing_zeros() as usize;
                        ids.push(self.slots[slot].expect("live slot has an id"));
                        remaining &= remaining - 1;
                    }
                }
                Hit::Multiple(ids)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> FilterShape {
        FilterShape {
            bits: 4096,
            hashes: 5,
            seed: 11,
        }
    }

    fn array_with(entries: &[(u16, &[&str])]) -> SharedShapeArray<u16> {
        let mut array = SharedShapeArray::new(shape());
        for &(id, items) in entries {
            array.push(id).unwrap();
            for item in items {
                array.insert(id, item).unwrap();
            }
        }
        array
    }

    #[test]
    fn unique_hit_names_the_home() {
        let array = array_with(&[(1, &["a", "b"]), (2, &["c"])]);
        assert_eq!(array.query("c"), Hit::Unique(2));
        assert_eq!(array.query("a"), Hit::Unique(1));
        assert_eq!(array.query("missing"), Hit::None);
    }

    #[test]
    fn multiple_hits_reported_in_slot_order() {
        let array = array_with(&[(5, &["dup"]), (3, &["dup"])]);
        match array.query("dup") {
            Hit::Multiple(ids) => assert_eq!(ids, vec![5, 3]),
            other => panic!("expected multiple, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_id_rejected() {
        let mut array = array_with(&[(1, &[])]);
        assert_eq!(array.push(1), Err(BloomError::DuplicateId));
    }

    #[test]
    fn mismatched_filter_shape_rejected() {
        let mut array = SharedShapeArray::<u16>::new(shape());
        let alien = BloomFilter::new(128, 2, 9);
        assert!(matches!(
            array.push_filter(1, &alien),
            Err(BloomError::IncompatibleFilters { .. })
        ));
    }

    #[test]
    fn push_filter_transposes_bits() {
        let mut filter = BloomFilter::new(4096, 5, 11);
        for item in ["x", "y", "z"] {
            filter.insert(item);
        }
        let mut array = SharedShapeArray::new(shape());
        array.push_filter(7u16, &filter).unwrap();
        for item in ["x", "y", "z"] {
            assert_eq!(array.query(item), Hit::Unique(7));
        }
        assert_eq!(array.extract(7).unwrap(), filter);
    }

    #[test]
    fn replace_filter_swaps_column() {
        let mut old = BloomFilter::new(4096, 5, 11);
        old.insert("old");
        let mut new = BloomFilter::new(4096, 5, 11);
        new.insert("new");
        let mut array = SharedShapeArray::new(shape());
        array.push_filter(1u16, &old).unwrap();
        array.replace_filter(1u16, &new).unwrap();
        assert_eq!(array.query("new"), Hit::Unique(1));
        assert_eq!(array.query("old"), Hit::None);
        assert_eq!(array.replace_filter(9, &new), Err(BloomError::UnknownId));
    }

    #[test]
    fn remove_clears_column_before_reuse() {
        let mut array = array_with(&[(1, &["ghost"])]);
        assert!(array.remove(1));
        assert!(!array.remove(1));
        assert!(array.is_empty());
        array.push(2).unwrap();
        // Slot 0 is recycled; the ghost's bits must be gone.
        assert_eq!(array.query("ghost"), Hit::None);
        assert_eq!(array.len(), 1);
    }

    #[test]
    fn growth_past_64_slots_preserves_answers() {
        let mut array = SharedShapeArray::new(shape());
        for id in 0u16..130 {
            array.push(id).unwrap();
            array.insert(id, &format!("file-{id}")).unwrap();
        }
        assert_eq!(array.len(), 130);
        for id in 0u16..130 {
            let hit = array.query(&format!("file-{id}"));
            assert!(
                hit.candidates().contains(&id),
                "lost {id} after growth: {hit:?}"
            );
        }
    }

    #[test]
    fn masked_query_restricts_candidates() {
        let array = array_with(&[(1, &["dup"]), (2, &["dup"]), (3, &[])]);
        let fp = Fingerprint::of("dup");
        assert_eq!(array.query_fp_among(&fp, [1u16]), Hit::Unique(1));
        assert_eq!(array.query_fp_among(&fp, [3u16]), Hit::None);
        let mask = array.mask_all_except(1);
        assert_eq!(mask.len(), 2);
        assert_eq!(array.query_fp_masked(&fp, &mask), Hit::Unique(2));
    }

    #[test]
    fn transpose_64x64_is_a_transpose() {
        // Identity stays identity.
        let mut ident = [0u64; 64];
        for (i, w) in ident.iter_mut().enumerate() {
            *w = 1 << i;
        }
        let mut m = ident;
        transpose_64x64(&mut m);
        assert_eq!(m, ident);
        // A single off-diagonal bit moves to its mirrored position:
        // M[3][17] -> M[17][3].
        let mut m = [0u64; 64];
        m[3] = 1 << 17;
        transpose_64x64(&mut m);
        let mut expected = [0u64; 64];
        expected[17] = 1 << 3;
        assert_eq!(m, expected);
        // Involution on a pseudo-random matrix.
        let mut m = [0u64; 64];
        let mut x = 0x12345u64;
        for w in m.iter_mut() {
            x = crate::hash::splitmix64(x);
            *w = x;
        }
        let original = m;
        transpose_64x64(&mut m);
        assert_ne!(m, original);
        transpose_64x64(&mut m);
        assert_eq!(m, original);
    }

    /// The fused-classify kernel (the body behind the AVX512VPOPCNTDQ
    /// dispatch tier) must be bit-identical to the split kernel — same
    /// derived rows, same finished masks, same packed verdicts — at
    /// every stride the dispatcher can route to it, including the
    /// `k == 1` peel boundary and all-zero starting masks.
    #[test]
    fn fused_classify_kernel_matches_split_kernel() {
        fn lcg(state: &mut u64) -> u64 {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *state
        }
        fn check<const S: usize>(k: usize) {
            let row_count = 97usize;
            let mut seed = 0x5EED ^ (S as u64) << 8 ^ k as u64;
            let slab: Vec<u64> = (0..row_count * S).map(|_| lcg(&mut seed)).collect();
            let fm = FastMod::new(row_count as u64);
            let b = 33usize;
            let h1: Vec<u64> = (0..b).map(|_| lcg(&mut seed)).collect();
            let h2: Vec<u64> = (0..b).map(|_| lcg(&mut seed) | 1).collect();
            // Starting masks across the interesting shapes: all-ones
            // (the untargeted query), sparse (subset masks), all-zero.
            let base_masks: Vec<u64> = (0..b * S)
                .map(|i| match (i / S) % 3 {
                    0 => u64::MAX,
                    1 => lcg(&mut seed) & lcg(&mut seed),
                    _ => 0,
                })
                .collect();
            let (mut rows_a, mut rows_b) = (Vec::new(), Vec::new());
            let mut masks_a = base_masks.clone();
            let mut masks_b = base_masks;
            let mut verdicts_a = vec![0u64; b];
            let mut verdicts_b = vec![0u64; b];
            batch_pass_body::<S>(
                &slab,
                S,
                fm,
                k,
                &h1,
                &h2,
                &mut rows_a,
                &mut masks_a,
                &mut verdicts_a,
            );
            batch_pass_classify_body::<S>(
                &slab,
                fm,
                k,
                &h1,
                &h2,
                &mut rows_b,
                &mut masks_b,
                &mut verdicts_b,
            );
            assert_eq!(rows_a, rows_b, "derived rows diverged at stride {S}");
            assert_eq!(masks_a, masks_b, "masks diverged at stride {S}, k {k}");
            assert_eq!(
                verdicts_a, verdicts_b,
                "verdicts diverged at stride {S}, k {k}"
            );
        }
        for k in [1, 2, 5, 8] {
            check::<8>(k);
            check::<16>(k);
            check::<32>(k);
        }
    }

    #[test]
    fn insert_delta_edge_cases() {
        let array = array_with(&[(1, &["hot"]), (2, &[])]);
        let empty = array.insert_delta(1, &[]).unwrap();
        assert!(empty.is_empty(), "no fingerprints, no changed words");
        assert_eq!(empty.new_items(), 1, "item count carries over");
        let again = array.insert_delta(1, &[Fingerprint::of("hot")]).unwrap();
        assert!(again.is_empty(), "every probe bit is already set");
        assert_eq!(again.new_items(), 2, "a re-insert still counts");
        assert_eq!(
            array.insert_delta(9, &[Fingerprint::of("hot")]),
            Err(BloomError::UnknownId)
        );
    }

    #[test]
    fn query_batch_dedups_duplicate_fingerprints() {
        let array = array_with(&[(1, &["hot", "x"]), (2, &["cold"]), (3, &["hot"])]);
        let hot = Fingerprint::of("hot");
        let cold = Fingerprint::of("cold");
        let mut batch = ProbeBatch::new();
        // Duplicates with equal masks (share the verdict), differing
        // masks (share one row-AND, masks applied at classification),
        // plus distinct fingerprints.
        batch.push(hot);
        batch.push(cold);
        batch.push(hot);
        batch.push_masked(hot, array.subset_mask([1u16]));
        batch.push_masked(hot, array.subset_mask([1u16]));
        batch.push_masked(hot, array.subset_mask([3u16]));
        let hits = array.query_batch(&mut batch);
        assert_eq!(
            hits,
            vec![
                Hit::Multiple(vec![1, 3]),
                Hit::Unique(2),
                Hit::Multiple(vec![1, 3]),
                Hit::Unique(1),
                Hit::Unique(1),
                Hit::Unique(3),
            ]
        );
    }

    #[test]
    fn from_filters_builds_matching_array() {
        let mut a = BloomFilter::new(4096, 5, 11);
        a.insert("a");
        let mut b = BloomFilter::new(4096, 5, 11);
        b.insert("b");
        let array = SharedShapeArray::from_filters([(1u16, a), (2u16, b)]).unwrap();
        assert_eq!(array.query("a"), Hit::Unique(1));
        assert_eq!(array.query("b"), Hit::Unique(2));
        let empty = SharedShapeArray::<u16>::from_filters([]).unwrap();
        assert_eq!(empty.query("anything"), Hit::None);
    }

    #[test]
    fn apply_delta_matches_full_replace() {
        let mut old_filter = BloomFilter::new(4096, 5, 11);
        old_filter.insert("kept");
        let mut new_filter = old_filter.clone();
        for i in 0..40u32 {
            new_filter.insert(&format!("added-{i}"));
        }
        let delta = FilterDelta::between(&old_filter, &new_filter).unwrap();

        let mut array = SharedShapeArray::new(shape());
        array.push_filter(1u16, &old_filter).unwrap();
        array.push_filter(2u16, &new_filter).unwrap(); // bystander column
        let rows = array.apply_delta(1u16, &delta).unwrap();
        assert_eq!(rows, delta.changed_bits(), "one row per flipped bit");
        assert_eq!(array.extract(1).unwrap(), new_filter);
        assert_eq!(array.extract(2).unwrap(), new_filter);

        assert_eq!(array.apply_delta(9, &delta), Err(BloomError::UnknownId));
        let alien =
            FilterDelta::between(&BloomFilter::new(128, 2, 9), &BloomFilter::new(128, 2, 9))
                .unwrap();
        assert!(matches!(
            array.apply_delta(1, &alien),
            Err(BloomError::IncompatibleFilters { .. })
        ));
        // A flip in the tail word's padding would write past the slab.
        let odd = FilterShape {
            bits: 1000,
            hashes: 2,
            seed: 0,
        };
        let mut short = SharedShapeArray::new(odd);
        short.push(1u16).unwrap();
        let padding = FilterDelta::from_sorted_changes(
            odd,
            vec![WordChange {
                index: 15,
                set: 1 << 63,
                cleared: 0,
            }],
            1,
        );
        assert!(matches!(
            short.apply_delta(1, &padding),
            Err(BloomError::Corrupt(_))
        ));
    }

    #[test]
    fn fastmod_matches_hardware_remainder() {
        for d in [1u64, 2, 3, 5, 63, 64, 4096, 32_000, 320_001, u64::MAX] {
            let fm = FastMod::new(d);
            for n in [
                0u64,
                1,
                d - 1,
                d,
                d.wrapping_add(1),
                d.wrapping_mul(977).wrapping_add(12),
                0x9E37_79B9_7F4A_7C15,
                u64::MAX,
                u64::MAX - 1,
            ] {
                assert_eq!(fm.rem(n), n % d, "n={n} d={d}");
            }
            // A pseudo-random sweep per modulus.
            let mut x = 0x243F_6A88_85A3_08D3u64;
            for _ in 0..10_000 {
                x = crate::hash::splitmix64(x);
                assert_eq!(fm.rem(x), x % d, "n={x} d={d}");
            }
        }
    }

    #[test]
    fn batch_matches_sequential_queries() {
        let array = array_with(&[(1, &["a", "dup"]), (2, &["b", "dup"]), (3, &[])]);
        let items = ["a", "b", "dup", "missing"];
        let mut batch = ProbeBatch::new();
        for item in items {
            batch.push(Fingerprint::of(item));
        }
        let hits = array.query_batch(&mut batch);
        for (item, hit) in items.iter().zip(&hits) {
            assert_eq!(*hit, array.query(item), "batch diverged on {item}");
        }
    }

    #[test]
    fn batch_masks_match_query_fp_among() {
        let array = array_with(&[(1, &["dup"]), (2, &["dup"]), (3, &[])]);
        let fp = Fingerprint::of("dup");
        let mut batch = ProbeBatch::new();
        batch.push_masked(fp, array.subset_mask([1u16]));
        batch.push_masked(fp, array.subset_mask([3u16]));
        batch.push_masked(fp, array.mask_all_except(1));
        batch.push(fp);
        let hits = array.query_batch(&mut batch);
        assert_eq!(hits[0], array.query_fp_among(&fp, [1u16]));
        assert_eq!(hits[1], array.query_fp_among(&fp, [3u16]));
        assert_eq!(
            hits[2],
            array.query_fp_masked(&fp, &array.mask_all_except(1))
        );
        assert_eq!(hits[3], array.query_fp(&fp));
        assert_eq!(hits[0], Hit::Unique(1));
        assert_eq!(hits[1], Hit::None);
        assert_eq!(hits[2], Hit::Unique(2));
        assert_eq!(hits[3], Hit::Multiple(vec![1, 2]));
    }

    #[test]
    fn empty_batch_returns_nothing() {
        let array = array_with(&[(1, &["a"])]);
        assert!(array.query_batch(&mut ProbeBatch::new()).is_empty());
    }

    #[test]
    fn batch_survives_growth_and_removal() {
        let mut array = SharedShapeArray::new(shape());
        for id in 0u16..130 {
            array.push(id).unwrap();
            array.insert(id, &format!("file-{id}")).unwrap();
        }
        array.remove(64);
        let mut batch = ProbeBatch::with_capacity(130);
        for id in 0u16..130 {
            batch.push(Fingerprint::of(&format!("file-{id}")));
        }
        let hits = array.query_batch(&mut batch);
        for (id, hit) in (0u16..130).zip(&hits) {
            assert_eq!(
                *hit,
                array.query(&format!("file-{id}")),
                "batch diverged on {id} after growth/removal"
            );
        }
        assert_eq!(hits[64], Hit::None);
    }

    #[test]
    fn batch_reuse_after_clear() {
        let array = array_with(&[(1, &["a"]), (2, &["b"])]);
        let mut batch = ProbeBatch::new();
        batch.push(Fingerprint::of("a"));
        assert_eq!(array.query_batch(&mut batch), vec![Hit::Unique(1)]);
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.push(Fingerprint::of("b")), 0);
        assert_eq!(array.query_batch(&mut batch), vec![Hit::Unique(2)]);
    }

    #[test]
    #[should_panic(expected = "predates a capacity growth")]
    fn batch_stale_mask_panics() {
        let mut array = array_with(&[(1, &["a"])]);
        let mut batch = ProbeBatch::new();
        batch.push_masked(Fingerprint::of("a"), array.subset_mask([1u16]));
        for id in 10u16..90 {
            array.push(id).unwrap(); // forces a capacity growth
        }
        let _ = array.query_batch(&mut batch);
    }

    #[test]
    #[ignore = "manual profiling aid"]
    fn profile_batch_kernel() {
        use std::time::Instant;
        let shape = FilterShape {
            bits: 320_000,
            hashes: 11,
            seed: 9,
        };
        let n: u16 = 1024;
        let items: u64 = 20_000;
        let mut array = SharedShapeArray::new(shape);
        for id in 0..n {
            array.push(id).unwrap();
            for i in 0..items {
                array.insert_fp(id, &Fingerprint::of(&(id, i))).unwrap();
            }
        }
        let fps: Vec<Fingerprint> = (0..512u64)
            .map(|i| Fingerprint::of(&((i % u64::from(n)) as u16, i % items)))
            .collect();
        let reps = 20_000usize;
        let b = 16usize;
        let stride = array.stride;
        let k = shape.hashes as usize;

        let mut sink = 0usize;
        let t = Instant::now();
        for r in 0..reps {
            for j in 0..b {
                sink += array
                    .query_fp(&fps[(r * b + j) % fps.len()])
                    .candidates()
                    .len();
            }
        }
        println!(
            "sequential      {:8.1} ns/lookup",
            t.elapsed().as_nanos() as f64 / (reps * b) as f64
        );

        let t = Instant::now();
        let mut batch = ProbeBatch::with_capacity(b);
        for r in 0..reps {
            batch.clear();
            for j in 0..b {
                batch.push(fps[(r * b + j) % fps.len()]);
            }
            sink += array
                .query_batch(&mut batch)
                .iter()
                .map(|h| h.candidates().len())
                .sum::<usize>();
        }
        println!(
            "query_batch     {:8.1} ns/lookup",
            t.elapsed().as_nanos() as f64 / (reps * b) as f64
        );

        // Kernel only: reused buffers, cursors rederived, no classify.
        let mut masks = vec![0u64; b * stride];
        let mut h1 = vec![0u64; b];
        let mut h2 = vec![0u64; b];
        let mut rows: Vec<u32> = Vec::new();
        let mut verdicts = vec![u64::MAX; b];
        let fm = FastMod::new(shape.bits as u64);
        let t = Instant::now();
        for r in 0..reps {
            for chunk in masks.chunks_exact_mut(stride) {
                chunk.copy_from_slice(&array.live);
            }
            for j in 0..b {
                let (a, bb) = fps[(r * b + j) % fps.len()].pair(shape.seed);
                h1[j] = a;
                h2[j] = bb;
            }
            run_batch_pass(
                &array.slab,
                stride,
                fm,
                k,
                &h1,
                &h2,
                &mut rows,
                &mut masks,
                &mut verdicts,
            );
            sink += masks[0] as usize & 1;
        }
        println!(
            "kernel+derive   {:8.1} ns/lookup",
            t.elapsed().as_nanos() as f64 / (reps * b) as f64
        );

        // Portable body, no AVX2 dispatch.
        let t = Instant::now();
        for r in 0..reps {
            for chunk in masks.chunks_exact_mut(stride) {
                chunk.copy_from_slice(&array.live);
            }
            for j in 0..b {
                let (a, bb) = fps[(r * b + j) % fps.len()].pair(shape.seed);
                h1[j] = a;
                h2[j] = bb;
            }
            batch_pass_body::<16>(
                &array.slab,
                stride,
                fm,
                k,
                &h1,
                &h2,
                &mut rows,
                &mut masks,
                &mut verdicts,
            );
            sink += masks[0] as usize & 1;
        }
        println!(
            "kernel portable {:8.1} ns/lookup",
            t.elapsed().as_nanos() as f64 / (reps * b) as f64
        );

        // Alloc + classify overheads.
        let t = Instant::now();
        for _ in 0..reps {
            let m = vec![0u64; b * stride];
            sink += m[0] as usize;
        }
        println!(
            "masks alloc     {:8.1} ns/lookup",
            t.elapsed().as_nanos() as f64 / (reps * b) as f64
        );
        let t = Instant::now();
        for _ in 0..reps {
            for chunk in masks.chunks_exact(stride) {
                sink += array.classify(chunk).candidates().len();
            }
        }
        println!(
            "classify        {:8.1} ns/lookup",
            t.elapsed().as_nanos() as f64 / (reps * b) as f64
        );
        assert!(sink > 0);
    }

    #[test]
    fn memory_matches_n_filters() {
        let mut array = SharedShapeArray::<u16>::new(shape());
        for id in 0..64u16 {
            array.push(id).unwrap();
        }
        // 64 slots × 4096 bits = one u64 per row.
        assert_eq!(array.memory_bytes(), 4096 * 8);
    }

    /// The read-sharing seam end to end: N threads probe one slab
    /// concurrently, each with its own `ProbeBatch` scratch arena, and
    /// every thread's batched answers equal the sequential reference.
    #[test]
    fn concurrent_query_batches_match_sequential() {
        let mut array = SharedShapeArray::<u16>::new(shape());
        for id in 0..96u16 {
            array.push(id).unwrap();
            for item in 0..40u32 {
                array.insert(id, &format!("/c/{id}/{item}")).unwrap();
            }
        }
        let fps: Vec<Fingerprint> = (0..96u16)
            .flat_map(|id| (0..3u32).map(move |item| Fingerprint::of(&format!("/c/{id}/{item}"))))
            .collect();
        let expected: Vec<Hit<u16>> = fps.iter().map(|fp| array.query_fp(fp)).collect();
        let array = &array;
        let fps = &fps;
        let expected = &expected;
        std::thread::scope(|scope| {
            for worker in 0..4 {
                scope.spawn(move || {
                    let mut batch = ProbeBatch::with_capacity(fps.len());
                    for _ in 0..3 {
                        batch.clear();
                        for fp in fps {
                            batch.push(*fp);
                        }
                        let hits = array.query_batch(&mut batch);
                        assert_eq!(&hits, expected, "worker {worker} diverged");
                    }
                });
            }
        });
    }
}
