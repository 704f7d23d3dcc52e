//! Counting Bloom filters — deletable membership summaries.
//!
//! The paper's ID Bloom filter array (IDBFA, §2.4) uses counting filters so
//! that replica-location entries can be *removed* when a replica migrates to
//! a different MDS during group reconfiguration. The L1 LRU array likewise
//! needs deletion on eviction, and every MDS keeps its live local filter as
//! a counting filter so `unlink` can clear bits.
//!
//! # Representation
//!
//! Logically a counting filter is a vector of `m` saturating 8-bit
//! counters. Almost all of them are 0 or 1 at sane loads (at the design
//! load `λ = k·n/m = ln 2`, about 3 % of positions reach 3), so the
//! counters are stored in three layers instead of one byte each:
//!
//! * a **`ones` plane** — one bit per position, set where the count is
//!   ≥ 1. It is a plain [`BloomFilter`] of the same shape, so every probe
//!   ([`contains`](CountingBloomFilter::contains),
//!   [`contains_fp`](CountingBloomFilter::contains_fp),
//!   [`contains_rows`](CountingBloomFilter::contains_rows)) reads only it,
//!   and [`as_bloom_filter`](CountingBloomFilter::as_bloom_filter) lends it
//!   out as the plain projection with no rebuild;
//! * a **`twos` plane** — one bit per position, set where the count is
//!   ≥ 2;
//! * a sparse **overflow map** holding the exact count of each position at
//!   ≥ 3.
//!
//! The encoding is canonical (a count of 2 never has a map entry), so two
//! filters holding the same logical counters compare equal.
//!
//! # Saturation
//!
//! Counters saturate at 255 and a saturated counter is never decremented —
//! the standard safety rule, since decrementing a saturated counter could
//! introduce false negatives. Pathological overload therefore degrades into
//! a permanently set bit rather than a correctness loss. A counter already
//! at zero stays at zero; that is only reachable by removing an item that
//! was never inserted but whose probes repeat a position.
//!
//! # Modelled versus resident bytes
//!
//! The paper's cost model (Table 5, Figures 8–10) charges one byte per
//! counter; callers that reproduce it use
//! [`counter_len`](CountingBloomFilter::counter_len).
//! [`memory_bytes`](CountingBloomFilter::memory_bytes) reports what this
//! representation really keeps on the heap: two bit planes (`m/4` bytes)
//! plus the overflow map.

use std::collections::HashMap;
use std::hash::Hash;

use crate::error::{BloomError, FilterShape};
use crate::filter::BloomFilter;
use crate::hash::Fingerprint;

/// A Bloom filter with per-position counters, supporting removal.
///
/// Counters are logically 8-bit and saturate at 255; a saturated counter is
/// never decremented. They are stored as two bit planes (count ≥ 1,
/// count ≥ 2) plus a sparse map of exact counts ≥ 3, so the resident
/// [`memory_bytes`](CountingBloomFilter::memory_bytes) is about `m/4` at
/// light load, while [`counter_len`](CountingBloomFilter::counter_len) stays
/// the modelled one byte per counter.
///
/// # Examples
///
/// ```
/// use ghba_bloom::CountingBloomFilter;
///
/// let mut f = CountingBloomFilter::new(1024, 4, 0);
/// f.insert("replica-of-mds-7");
/// assert!(f.contains("replica-of-mds-7"));
/// f.remove("replica-of-mds-7")?;
/// assert!(!f.contains("replica-of-mds-7"));
/// # Ok::<(), ghba_bloom::BloomError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountingBloomFilter {
    /// Count ≥ 1, one bit per position; also carries the shape and the net
    /// item count.
    ones: BloomFilter,
    /// Count ≥ 2, in the same word layout as `ones`.
    twos: Vec<u64>,
    /// Exact count (3..=255) of every position at ≥ 3, and of no other
    /// position. Keys derive from outside input, so the map keeps the
    /// default collision-resistant hasher.
    over: HashMap<u32, u8>,
}

impl CountingBloomFilter {
    /// Creates an empty counting filter with `bits` counters and `hashes`
    /// hash functions, keyed by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`, `hashes == 0`, or `bits` does not fit in a
    /// `u32`.
    #[must_use]
    pub fn new(bits: usize, hashes: u32, seed: u64) -> Self {
        assert!(bits > 0, "filter must have at least one counter");
        assert!(hashes > 0, "filter must use at least one hash");
        assert!(
            u32::try_from(bits).is_ok(),
            "filter wider than u32 positions"
        );
        CountingBloomFilter {
            ones: BloomFilter::new(bits, hashes, seed),
            twos: vec![0; bits.div_ceil(64)],
            over: HashMap::new(),
        }
    }

    /// Creates a counting filter sized for `expected_items` at
    /// `bits_per_item` counters per item, with the optimal hash count.
    ///
    /// # Panics
    ///
    /// Panics if `expected_items == 0` or `bits_per_item <= 0.0`.
    #[must_use]
    pub fn for_items(expected_items: usize, bits_per_item: f64) -> Self {
        let shape = BloomFilter::for_items(expected_items, bits_per_item).shape();
        CountingBloomFilter::new(shape.bits, shape.hashes, shape.seed)
    }

    /// Returns `self` re-keyed with `seed` (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if any item has already been inserted.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.ones = self.ones.with_seed(seed);
        self
    }

    /// The compatibility shape (counter count plays the role of bit count).
    #[must_use]
    pub fn shape(&self) -> FilterShape {
        self.ones.shape()
    }

    /// Number of counters — also the modelled footprint in bytes, since the
    /// paper's cost model charges one byte per counter.
    #[must_use]
    pub fn counter_len(&self) -> usize {
        self.ones.bit_len()
    }

    /// Number of hash functions.
    #[must_use]
    pub fn hash_count(&self) -> u32 {
        self.ones.hash_count()
    }

    /// Hash-family seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.ones.seed()
    }

    /// Net number of items currently represented (inserts minus removals).
    #[must_use]
    pub fn item_count(&self) -> usize {
        self.ones.item_count()
    }

    /// `true` when no item is represented.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.item_count() == 0
    }

    /// Resident heap footprint in bytes: both bit planes plus the overflow
    /// map (its buckets and control bytes, estimated from its capacity).
    /// For the modelled one-byte-per-counter figure use
    /// [`counter_len`](CountingBloomFilter::counter_len).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let cap = self.over.capacity();
        // One `(u32, u8)` slot and one control byte per bucket, plus a
        // trailing group of control bytes.
        let map = match cap {
            0 => 0,
            _ => (cap * 8 / 7).next_power_of_two() * (std::mem::size_of::<(u32, u8)>() + 1) + 16,
        };
        self.ones.memory_bytes() + self.twos.len() * 8 + map
    }

    /// Inserts `item`, incrementing its counters (saturating at 255).
    pub fn insert<T: Hash + ?Sized>(&mut self, item: &T) {
        self.insert_fp(&Fingerprint::of(item));
    }

    /// Hash-once variant of [`insert`](CountingBloomFilter::insert).
    pub fn insert_fp(&mut self, fp: &Fingerprint) {
        let FilterShape { bits, hashes, seed } = self.shape();
        for idx in fp.probes(seed, bits, hashes) {
            self.increment(idx);
        }
        self.ones.set_items(self.ones.item_count() + 1);
    }

    // The plane updates are branch-free, so the per-probe loop never
    // branches on whether a counter was zero; only a count already ≥ 2
    // branches, into the overflow map.
    fn increment(&mut self, idx: usize) {
        let (word, bit) = (idx / 64, 1u64 << (idx % 64));
        let twos = self.twos[word];
        if twos & bit != 0 {
            let count = self.over.entry(idx as u32).or_insert(2);
            *count = count.saturating_add(1);
            return;
        }
        let ones = &mut self.ones.words_mut()[word];
        self.twos[word] = twos | (*ones & bit);
        *ones |= bit;
    }

    fn decrement(&mut self, idx: usize) {
        let (word, bit) = (idx / 64, 1u64 << (idx % 64));
        let twos = self.twos[word];
        if twos & bit != 0 {
            let key = idx as u32;
            if let Some(count) = self.over.get_mut(&key) {
                if *count != u8::MAX {
                    *count -= 1;
                    if *count == 2 {
                        self.over.remove(&key);
                    }
                }
                return;
            }
        }
        // Count 2 → 1 clears the `twos` bit only; 1 → 0 clears the `ones`
        // bit (and 0 stays 0).
        self.twos[word] = twos & !bit;
        self.ones.words_mut()[word] &= !(bit ^ (twos & bit));
    }

    /// Probabilistic membership test: `false` means definitely absent.
    #[must_use]
    pub fn contains<T: Hash + ?Sized>(&self, item: &T) -> bool {
        self.ones.contains(item)
    }

    /// Hash-once variant of [`contains`](CountingBloomFilter::contains);
    /// answers identically to `contains` for the fingerprinted item.
    #[must_use]
    pub fn contains_fp(&self, fp: &Fingerprint) -> bool {
        self.ones.contains_fp(fp)
    }

    /// Membership test against precomputed probe rows, as derived for this
    /// filter's [`shape`](CountingBloomFilter::shape) by
    /// [`Fingerprint::probe_rows_into`] or
    /// [`crate::ProbeBatch::derive_rows_into`]. Answers identically to
    /// [`contains_fp`](CountingBloomFilter::contains_fp) for the same item
    /// — the row derivation is shared across a whole batched sweep instead
    /// of re-run per `(query, filter)` pair.
    ///
    /// # Panics
    ///
    /// Panics (via indexing) if a row is outside this filter's width,
    /// i.e. the rows were derived for a different shape.
    #[must_use]
    pub fn contains_rows(&self, rows: &[u32]) -> bool {
        let words = self.ones.words();
        rows.iter()
            .all(|&row| words[row as usize / 64] >> (row % 64) & 1 == 1)
    }

    /// Removes one occurrence of `item`, decrementing its counters.
    ///
    /// Saturated counters (255) are left untouched per the standard rule.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::AbsentItem`] — without modifying any counter —
    /// if some counter for `item` is already zero (the item was definitely
    /// never inserted, or was already removed).
    pub fn remove<T: Hash + ?Sized>(&mut self, item: &T) -> Result<(), BloomError> {
        self.remove_fp(&Fingerprint::of(item))
    }

    /// Hash-once variant of [`remove`](CountingBloomFilter::remove).
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::AbsentItem`] under the same conditions as
    /// [`remove`](CountingBloomFilter::remove).
    pub fn remove_fp(&mut self, fp: &Fingerprint) -> Result<(), BloomError> {
        if !self.contains_fp(fp) {
            return Err(BloomError::AbsentItem);
        }
        let FilterShape { bits, hashes, seed } = self.shape();
        for idx in fp.probes(seed, bits, hashes) {
            self.decrement(idx);
        }
        self.ones
            .set_items(self.ones.item_count().saturating_sub(1));
        Ok(())
    }

    /// Resets the filter to empty, keeping its shape.
    pub fn clear(&mut self) {
        self.ones.clear();
        self.twos.fill(0);
        self.over = HashMap::new();
    }

    /// Number of non-zero counters.
    #[must_use]
    pub fn ones(&self) -> usize {
        self.ones.ones()
    }

    /// Fraction of non-zero counters, in `[0, 1]`.
    #[must_use]
    pub fn fill_ratio(&self) -> f64 {
        self.ones.fill_ratio()
    }

    /// Estimated false-positive probability from the observed fill ratio.
    #[must_use]
    pub fn estimated_fpp(&self) -> f64 {
        self.ones.estimated_fpp()
    }

    /// The plain [`BloomFilter`] with the same shape (counter > 0 ⇒ bit
    /// set), borrowed: it is the `ones` plane itself, so reading it costs
    /// nothing. Its item count is this filter's net item count.
    #[must_use]
    pub fn as_bloom_filter(&self) -> &BloomFilter {
        &self.ones
    }

    /// Owned copy of [`as_bloom_filter`](CountingBloomFilter::as_bloom_filter).
    /// Used when shipping a snapshot over the network: replicas are plain
    /// filters, only the owner needs counters.
    #[must_use]
    pub fn to_bloom_filter(&self) -> BloomFilter {
        self.ones.clone()
    }

    /// Largest counter value (diagnostics: how close to saturation).
    #[must_use]
    pub fn max_counter(&self) -> u8 {
        if let Some(&max) = self.over.values().max() {
            max
        } else if self.twos.iter().any(|&w| w != 0) {
            2
        } else {
            u8::from(self.ones.words().iter().any(|&w| w != 0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_roundtrip() {
        let mut f = CountingBloomFilter::new(512, 4, 1);
        f.insert("a");
        f.insert("b");
        assert!(f.contains("a"));
        f.remove("a").unwrap();
        assert!(!f.contains("a"));
        assert!(f.contains("b"));
        assert_eq!(f.item_count(), 1);
    }

    #[test]
    fn remove_absent_is_error_and_nondestructive() {
        let mut f = CountingBloomFilter::new(512, 4, 1);
        f.insert("present");
        let before = f.clone();
        assert_eq!(f.remove("never-inserted"), Err(BloomError::AbsentItem));
        assert_eq!(f, before);
    }

    #[test]
    fn double_insert_requires_double_remove() {
        let mut f = CountingBloomFilter::new(512, 4, 1);
        f.insert("x");
        f.insert("x");
        f.remove("x").unwrap();
        assert!(f.contains("x"), "one copy should remain");
        f.remove("x").unwrap();
        assert!(!f.contains("x"));
    }

    #[test]
    fn to_bloom_filter_preserves_membership() {
        let mut f = CountingBloomFilter::new(2048, 5, 9);
        for i in 0..200u32 {
            f.insert(&i);
        }
        let plain = f.to_bloom_filter();
        for i in 0..200u32 {
            assert!(plain.contains(&i));
        }
        assert_eq!(plain.item_count(), 200);
        assert_eq!(plain.shape(), f.shape());
        assert_eq!(plain.ones(), f.ones());
    }

    #[test]
    fn saturation_never_causes_false_negative() {
        let mut f = CountingBloomFilter::new(8, 2, 3);
        // Hammer a tiny filter far past saturation.
        for i in 0..10_000u32 {
            f.insert(&i);
        }
        assert_eq!(f.max_counter(), u8::MAX);
        // Removing items cannot clear saturated counters, so earlier items
        // must still test positive.
        for i in 1_000..2_000u32 {
            let _ = f.remove(&i);
        }
        for i in 0..1_000u32 {
            assert!(f.contains(&i));
        }
    }

    #[test]
    fn clear_resets_counters() {
        let mut f = CountingBloomFilter::new(64, 2, 0);
        f.insert("x");
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.ones(), 0);
    }

    #[test]
    fn for_items_geometry() {
        let f = CountingBloomFilter::for_items(100, 10.0);
        assert!(f.counter_len() >= 1000);
        assert_eq!(f.hash_count(), 7); // 10 ln2 ≈ 6.93
    }

    #[test]
    fn counter_len_is_the_modelled_byte_count() {
        let f = CountingBloomFilter::new(777, 3, 0);
        assert_eq!(f.counter_len(), 777);
        // Two bit planes of 13 words each, no overflow map yet.
        assert_eq!(f.memory_bytes(), 2 * 13 * 8);
    }

    #[test]
    fn resident_bytes_stay_small_at_light_load() {
        let n = 10_000;
        let mut f = CountingBloomFilter::for_items(n, 16.0);
        let m = f.counter_len();
        for i in 0..n / 10 {
            f.insert(&i);
        }
        assert!(
            f.memory_bytes() <= m / 4 + 1024,
            "{} B resident for {m} counters at 10% load",
            f.memory_bytes()
        );
    }

    #[test]
    fn resident_bytes_beat_dense_counters_at_design_load() {
        let n = 10_000;
        let mut f = CountingBloomFilter::for_items(n, 16.0);
        for i in 0..n {
            f.insert(&i);
        }
        assert!(
            f.max_counter() >= 3,
            "design load must reach the overflow map"
        );
        assert!(
            f.memory_bytes() < f.counter_len(),
            "{} B resident vs {} B of byte counters",
            f.memory_bytes(),
            f.counter_len()
        );
    }
}
