//! Property-based tests for the Bloom filter toolkit.

use ghba_bloom::{
    analysis, hash, ops, BloomError, BloomFilter, BloomFilterArray, CountingBloomFilter,
    FilterDelta, Fingerprint, Hit, LruBloomArray, SharedShapeArray,
};
use proptest::prelude::*;

/// The plain filter a flat vector of counters projects to, built through
/// the documented `GBF1` encoding so comparisons are bit-exact.
fn projection(counters: &[u8], hashes: u32, seed: u64, items: usize) -> BloomFilter {
    let mut bytes = b"GBF1".to_vec();
    bytes.extend_from_slice(&(counters.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&hashes.to_le_bytes());
    bytes.extend_from_slice(&seed.to_le_bytes());
    bytes.extend_from_slice(&(items as u64).to_le_bytes());
    for chunk in counters.chunks(64) {
        let word = (0..chunk.len()).fold(0u64, |w, bit| w | u64::from(chunk[bit] > 0) << bit);
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    BloomFilter::from_bytes(&bytes).expect("well-formed encoding")
}

/// Replays `ops` — `(kind, item)` pairs where `kind < clear_per_mille`
/// clears, `kind < remove_per_mille` removes, and anything else inserts —
/// against a [`CountingBloomFilter`] and an oracle of one saturating byte
/// per position, comparing every observable (and, whenever the oracle is
/// back at zero, equality with a fresh filter) after each step.
///
/// While every remove so far targeted an item with a live insert, every
/// live item must also test positive: saturated counters never decrement,
/// so overload cannot cause a false negative.
fn check_counting_oracle(
    (bits, hashes, seed): (usize, u32, u64),
    ops: &[(u16, u32)],
    clear_per_mille: u16,
    remove_per_mille: u16,
) -> Result<(), TestCaseError> {
    let mut filter = CountingBloomFilter::new(bits, hashes, seed);
    let (mut counters, mut items) = (vec![0u8; bits], 0usize);
    let probes = |item: u32| Fingerprint::of(&item).probes(seed, bits, hashes);
    let mut live = std::collections::HashMap::<u32, usize>::new();
    let mut honest = true;
    let mut rows = Vec::new();
    for &(kind, item) in ops {
        if kind < clear_per_mille {
            filter.clear();
            (counters, items) = (vec![0; bits], 0);
            live.clear();
            honest = true;
        } else if kind < remove_per_mille {
            let expected = if probes(item).any(|idx| counters[idx] == 0) {
                Err(BloomError::AbsentItem)
            } else {
                for idx in probes(item) {
                    if counters[idx] != u8::MAX {
                        counters[idx] = counters[idx].saturating_sub(1);
                    }
                }
                items = items.saturating_sub(1);
                Ok(())
            };
            prop_assert_eq!(filter.remove(&item), expected);
            match live.get_mut(&item) {
                Some(n) if *n > 0 => *n -= 1,
                _ => honest = false,
            }
        } else {
            filter.insert(&item);
            for idx in probes(item) {
                counters[idx] = counters[idx].saturating_add(1);
            }
            items += 1;
            *live.entry(item).or_insert(0) += 1;
        }
        prop_assert_eq!(filter.item_count(), items);
        prop_assert_eq!(filter.ones(), counters.iter().filter(|&&c| c > 0).count());
        prop_assert_eq!(
            filter.max_counter(),
            counters.iter().copied().max().unwrap_or(0)
        );
        if items == 0 && counters.iter().all(|&c| c == 0) {
            // Canonical encoding: back at zero means equal to a fresh filter.
            prop_assert!(filter == CountingBloomFilter::new(bits, hashes, seed));
        }
        let plain = projection(&counters, hashes, seed, items);
        prop_assert!(filter.to_bloom_filter() == plain);
        prop_assert!(filter.as_bloom_filter() == &plain);
        for probe in 0..48u32 {
            let fp = Fingerprint::of(&probe);
            rows.clear();
            fp.probe_rows_into(seed, bits, hashes, &mut rows);
            let expected = probes(probe).all(|idx| counters[idx] > 0);
            prop_assert_eq!(filter.contains(&probe), expected);
            prop_assert_eq!(filter.contains_fp(&fp), expected);
            prop_assert_eq!(filter.contains_rows(&rows), expected);
            if honest && live.get(&probe).is_some_and(|&n| n > 0) {
                prop_assert!(expected, "false negative for live item {}", probe);
            }
        }
    }
    Ok(())
}

fn arb_items() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-z/]{1,24}", 0..200)
}

proptest! {
    /// Fundamental Bloom filter guarantee: anything inserted tests positive.
    #[test]
    fn no_false_negatives(items in arb_items(), seed in any::<u64>()) {
        let mut f = BloomFilter::new(8192, 5, seed);
        for item in &items {
            f.insert(item);
        }
        for item in &items {
            prop_assert!(f.contains(item));
        }
    }

    /// Union covers the membership of both operands (Property 1).
    #[test]
    fn union_covers_both(a_items in arb_items(), b_items in arb_items(), seed in any::<u64>()) {
        let mut a = BloomFilter::new(8192, 5, seed);
        let mut b = BloomFilter::new(8192, 5, seed);
        for item in &a_items { a.insert(item); }
        for item in &b_items { b.insert(item); }
        let u = ops::union(&a, &b).unwrap();
        for item in a_items.iter().chain(&b_items) {
            prop_assert!(u.contains(item));
        }
    }

    /// Intersection (bitwise AND) keeps everything present in both sets
    /// (Property 2: it over-approximates BF(A ∩ B)).
    #[test]
    fn intersection_keeps_common(common in arb_items(), seed in any::<u64>()) {
        let mut a = BloomFilter::new(8192, 5, seed);
        let mut b = BloomFilter::new(8192, 5, seed);
        for item in &common { a.insert(item); b.insert(item); }
        a.insert("only-in-a");
        b.insert("only-in-b");
        let i = ops::intersect(&a, &b).unwrap();
        for item in &common {
            prop_assert!(i.contains(item));
        }
    }

    /// XOR distance is a metric-ish: zero iff identical bit vectors,
    /// symmetric, and equals the popcount of the symmetric difference.
    #[test]
    fn xor_distance_consistency(a_items in arb_items(), b_items in arb_items()) {
        let mut a = BloomFilter::new(4096, 4, 9);
        let mut b = BloomFilter::new(4096, 4, 9);
        for item in &a_items { a.insert(item); }
        for item in &b_items { b.insert(item); }
        let d_ab = a.xor_distance(&b).unwrap();
        let d_ba = b.xor_distance(&a).unwrap();
        prop_assert_eq!(d_ab, d_ba);
        let sym = ops::symmetric_difference(&a, &b).unwrap();
        prop_assert_eq!(sym.ones(), d_ab);
        prop_assert_eq!(a.xor_distance(&a).unwrap(), 0);
    }

    /// Deltas reconstruct the target filter exactly, regardless of churn.
    #[test]
    fn delta_reconstructs(base in arb_items(), extra in arb_items()) {
        let mut old = BloomFilter::new(4096, 4, 2);
        for item in &base { old.insert(item); }
        let mut new = old.clone();
        for item in &extra { new.insert(item); }
        let delta = FilterDelta::between(&old, &new).unwrap();
        let mut replica = old.clone();
        delta.apply(&mut replica).unwrap();
        prop_assert_eq!(replica, new);
    }

    /// Counting filters: inserting then removing every item restores
    /// definite absence for items inserted exactly once, as long as no
    /// counter saturates.
    #[test]
    fn counting_roundtrip(items in proptest::collection::hash_set("[a-z]{1,16}", 0..100)) {
        let mut f = CountingBloomFilter::new(16_384, 5, 3);
        for item in &items { f.insert(item); }
        prop_assume!(f.max_counter() < u8::MAX);
        for item in &items {
            f.remove(item).unwrap();
        }
        prop_assert!(f.is_empty());
        prop_assert_eq!(f.ones(), 0);
    }

    /// Serialization roundtrips exactly.
    #[test]
    fn serialization_roundtrip(items in arb_items(), seed in any::<u64>()) {
        let mut f = BloomFilter::new(2048, 3, seed);
        for item in &items { f.insert(item); }
        let decoded = BloomFilter::from_bytes(&f.to_bytes()).unwrap();
        prop_assert_eq!(f, decoded);
    }

    /// Arbitrary byte strings never panic the decoder.
    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = BloomFilter::from_bytes(&bytes);
    }

    /// Filter arrays: an inserted file's home is always among the
    /// candidates (no false negatives at array level).
    #[test]
    fn array_home_is_always_candidate(
        items in proptest::collection::vec(("[a-z]{1,12}", 0u16..8), 1..100),
    ) {
        let mut array: BloomFilterArray<u16> = (0u16..8)
            .map(|id| (id, BloomFilter::new(8192, 5, 77)))
            .collect();
        for (item, home) in &items {
            array.get_mut(*home).unwrap().insert(item);
        }
        for (item, home) in &items {
            let hit = array.query(item);
            prop_assert!(
                hit.candidates().contains(home),
                "home {home} missing from {hit:?} for {item}"
            );
        }
    }

    /// LRU array: the most recent `capacity` distinct items are always
    /// resident and their true home is among the candidates.
    #[test]
    fn lru_retains_recent(
        accesses in proptest::collection::vec((0u32..64, 0u16..4), 1..300),
        cap in 1usize..32,
    ) {
        let mut lru = LruBloomArray::new(cap, 8192, 5, 13);
        let mut last_home = std::collections::HashMap::new();
        for (file, home) in &accesses {
            lru.record(file, *home);
            last_home.insert(*file, *home);
        }
        prop_assert!(lru.len() <= cap);
        // Determine the `cap` most recently used distinct files.
        let mut seen = std::collections::HashSet::new();
        let mut recent = Vec::new();
        for (file, _) in accesses.iter().rev() {
            if seen.insert(*file) {
                recent.push(*file);
                if recent.len() == cap { break; }
            }
        }
        for file in recent {
            let hit = lru.query(&file);
            let home = last_home[&file];
            prop_assert!(
                hit.candidates().contains(&home),
                "recent file {file} lost its home {home}: {hit:?}"
            );
        }
    }

    /// Eq. (1) stays a probability for all sensible parameters.
    #[test]
    fn eq1_is_probability(theta in 0usize..500, bpi in 0.5f64..64.0) {
        let p = analysis::segment_false_hit(theta, bpi);
        prop_assert!((0.0..=1.0).contains(&p), "theta={theta} bpi={bpi} p={p}");
    }

    /// The standard false-positive formula is monotone: more items in the
    /// same geometry can only raise the false rate.
    #[test]
    fn fpp_monotone_in_items(m in 64usize..100_000, n in 0usize..10_000, k in 1u32..12) {
        let f_small = analysis::standard_fpp(m, n, k);
        let f_large = analysis::standard_fpp(m, n + 100, k);
        prop_assert!(f_large >= f_small);
    }

    /// Counting filters match a flat saturating-counter oracle after every
    /// step of an insert/remove/clear sequence on tiny filters hammered far
    /// past saturation (255).
    #[test]
    fn counting_matches_oracle_past_saturation(
        bits in 1usize..16,
        hashes in 1u32..4,
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u16..1000, 0u32..48), 0..2000),
    ) {
        check_counting_oracle((bits, hashes, seed), &ops, 1, 150)?;
    }

    /// The same oracle on wider filters with clear- and remove-heavy
    /// churn, where most counters stay in the bit planes.
    #[test]
    fn counting_matches_oracle_under_churn(
        bits in 16usize..2048,
        hashes in 1u32..8,
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u16..1000, 0u32..160), 0..300),
    ) {
        check_counting_oracle((bits, hashes, seed), &ops, 20, 400)?;
    }

    /// Hash-once invariant: for any item, seed, and geometry, the probe
    /// sequence derived from a precomputed [`Fingerprint`] is identical to
    /// the direct `probe_indices` walk, and the `(h1, h2)` pair matches
    /// `index_pair`. This is what lets one digest serve every filter of a
    /// query.
    #[test]
    fn fingerprint_probes_equal_probe_indices(
        item in "[a-z/]{1,32}",
        seed in any::<u64>(),
        m in 1usize..20_000,
        k in 1u32..16,
    ) {
        let fp = Fingerprint::of(item.as_str());
        prop_assert_eq!(fp.pair(seed), hash::index_pair(item.as_str(), seed));
        let derived: Vec<usize> = fp.probes(seed, m, k).collect();
        let direct: Vec<usize> = hash::probe_indices(item.as_str(), seed, m, k).collect();
        prop_assert_eq!(derived, direct);
    }

    /// The fingerprint-accepting filter variants answer exactly like the
    /// item-hashing ones.
    #[test]
    fn fingerprint_variants_match_item_variants(
        items in arb_items(),
        probes in arb_items(),
        seed in any::<u64>(),
    ) {
        let mut by_item = BloomFilter::new(8192, 5, seed);
        let mut by_fp = BloomFilter::new(8192, 5, seed);
        for item in &items {
            by_item.insert(item);
            by_fp.insert_fp(&Fingerprint::of(item.as_str()));
        }
        prop_assert_eq!(&by_item, &by_fp);
        for probe in items.iter().chain(&probes) {
            let fp = Fingerprint::of(probe.as_str());
            prop_assert_eq!(by_item.contains(probe), by_item.contains_fp(&fp));
        }
    }

    /// A bit-sliced [`SharedShapeArray`] answers (`None`/`Unique`/
    /// `Multiple`, including candidate sets) exactly like a plain
    /// [`BloomFilterArray`] built from the same inserts.
    #[test]
    fn shared_shape_array_matches_plain_array(
        inserts in proptest::collection::vec(("[a-z]{1,12}", 0u16..70), 0..300),
        probes in proptest::collection::vec("[a-z]{1,12}", 0..60),
        seed in any::<u64>(),
        homes in 1u16..70,
    ) {
        let shape = ghba_bloom::FilterShape { bits: 8192, hashes: 5, seed };
        let mut plain: BloomFilterArray<u16> = (0..homes)
            .map(|id| (id, BloomFilter::new(shape.bits, shape.hashes, shape.seed)))
            .collect();
        let mut sliced = SharedShapeArray::new(shape);
        for id in 0..homes {
            sliced.push(id).unwrap();
        }
        for (item, home) in &inserts {
            let home = home % homes;
            plain.get_mut(home).unwrap().insert(item);
            sliced.insert(home, item).unwrap();
        }
        for probe in inserts.iter().map(|(item, _)| item).chain(&probes) {
            let fp = Fingerprint::of(probe.as_str());
            let expected = plain.query(probe);
            prop_assert_eq!(&sliced.query(probe), &expected, "item {}", probe);
            prop_assert_eq!(&sliced.query_fp(&fp), &expected, "fp of {}", probe);
            prop_assert_eq!(&plain.query_fp(&fp), &expected, "plain fp of {}", probe);
        }
    }

    /// Masked shared-shape queries agree with a plain array restricted to
    /// the same subset of filters.
    #[test]
    fn masked_query_matches_subset_array(
        inserts in proptest::collection::vec(("[a-z]{1,10}", 0u16..16), 0..150),
        subset in proptest::collection::vec(0u16..16, 0..16),
        probe in "[a-z]{1,10}",
    ) {
        let shape = ghba_bloom::FilterShape { bits: 4096, hashes: 4, seed: 3 };
        let mut sliced = SharedShapeArray::new(shape);
        let mut filters: Vec<BloomFilter> = (0..16)
            .map(|_| BloomFilter::new(shape.bits, shape.hashes, shape.seed))
            .collect();
        for id in 0u16..16 {
            sliced.push(id).unwrap();
        }
        for (item, home) in &inserts {
            filters[usize::from(*home)].insert(item);
            sliced.insert(*home, item).unwrap();
        }
        let mut unique_subset = subset.clone();
        unique_subset.sort_unstable();
        unique_subset.dedup();
        let restricted: BloomFilterArray<u16> = unique_subset
            .iter()
            .map(|&id| (id, filters[usize::from(id)].clone()))
            .collect();
        let fp = Fingerprint::of(probe.as_str());
        let expected = restricted.query(&probe);
        let mask = sliced.subset_mask(unique_subset.iter().copied());
        prop_assert_eq!(mask.len(), unique_subset.len());
        prop_assert_eq!(sliced.query_fp_masked(&fp, &mask), expected);
    }

    /// The PR-2 acceptance property: a [`ProbeBatch`] of B fingerprints
    /// returns bit-identical `Hit`s to B sequential `query_fp` /
    /// `query_fp_among` calls — across masks, pushes, and removals.
    #[test]
    fn probe_batch_matches_sequential(
        inserts in proptest::collection::vec(("[a-z]{1,12}", 0u16..70), 0..250),
        removals in proptest::collection::vec(0u16..70, 0..8),
        probes in proptest::collection::vec(("[a-z]{1,12}", proptest::collection::vec(0u16..70, 0..6)), 1..24),
        seed in any::<u64>(),
        homes in 1u16..70,
    ) {
        let shape = ghba_bloom::FilterShape { bits: 8192, hashes: 5, seed };
        let mut sliced = SharedShapeArray::new(shape);
        for id in 0..homes {
            sliced.push(id).unwrap();
        }
        for (item, home) in &inserts {
            sliced.insert(home % homes, item).unwrap();
        }
        for id in &removals {
            sliced.remove(id % homes);
        }
        // Half the probes are existing items, half arbitrary; every other
        // probe is masked to an arbitrary candidate subset (possibly
        // naming removed or never-pushed ids, which masks must ignore).
        let mut batch = ghba_bloom::ProbeBatch::new();
        let mut expected = Vec::new();
        for (i, (item, subset)) in probes.iter().enumerate() {
            let item = inserts.get(i).map_or(item.as_str(), |(it, _)| it.as_str());
            let fp = Fingerprint::of(item);
            if i % 2 == 0 {
                expected.push(sliced.query_fp(&fp));
                batch.push(fp);
            } else {
                expected.push(sliced.query_fp_among(&fp, subset.iter().copied()));
                batch.push_masked(fp, sliced.subset_mask(subset.iter().copied()));
            }
        }
        prop_assert_eq!(sliced.query_batch(&mut batch), expected);
    }

    /// Dedup acceptance: a batch drowning in duplicate fingerprints (the
    /// flash-crowd shape) answers bit-identically to sequential queries —
    /// duplicates are resolved once and fanned out.
    #[test]
    fn probe_batch_dedup_matches_sequential(
        inserts in proptest::collection::vec(("[a-z]{1,10}", 0u16..40), 0..150),
        hot in "[a-z]{1,10}",
        pattern in proptest::collection::vec((0usize..4, 0u16..40), 1..48),
        seed in any::<u64>(),
    ) {
        let shape = ghba_bloom::FilterShape { bits: 4096, hashes: 5, seed };
        let mut sliced = SharedShapeArray::new(shape);
        for id in 0..40u16 {
            sliced.push(id).unwrap();
        }
        for (item, home) in &inserts {
            sliced.insert(*home, item).unwrap();
        }
        // Mostly the hot item (unmasked and under repeated masks), with a
        // sprinkle of distinct items: exercises lane-equal groups with
        // equal masks (fanned out), differing masks (one shared row-AND,
        // masks applied at classification), and the all-distinct fast
        // path in the same suite.
        let mut batch = ghba_bloom::ProbeBatch::new();
        let mut expected = Vec::new();
        for &(kind, id) in &pattern {
            let (item, subset): (&str, Vec<u16>) = match kind {
                0 => (hot.as_str(), vec![]),
                1 => (hot.as_str(), vec![id, id.wrapping_add(1) % 40]),
                2 => (inserts.get(usize::from(id)).map_or("cold", |(it, _)| it.as_str()), vec![]),
                _ => ("absent-item", vec![id]),
            };
            let fp = Fingerprint::of(item);
            if subset.is_empty() {
                expected.push(sliced.query_fp(&fp));
                batch.push(fp);
            } else {
                expected.push(sliced.query_fp_among(&fp, subset.iter().copied()));
                batch.push_masked(fp, sliced.subset_mask(subset.iter().copied()));
            }
        }
        prop_assert_eq!(sliced.query_batch(&mut batch), expected);
    }

    /// Cross-mask dedup at wide stride (the in-kernel-verdict path):
    /// one hot fingerprint queued under many *different* candidate masks
    /// — the shape a flash crowd entering through different servers
    /// produces — answers bit-identically to sequential masked queries.
    #[test]
    fn probe_batch_cross_mask_dedup_matches_sequential(
        inserts in proptest::collection::vec(("[a-z]{1,10}", 0u16..130), 0..200),
        hot in "[a-z]{1,10}",
        hot_homes in proptest::collection::vec(0u16..130, 0..4),
        subsets in proptest::collection::vec(proptest::collection::vec(0u16..140, 0..12), 2..24),
        seed in any::<u64>(),
    ) {
        // 130 slots ⇒ stride 3: the wide-stride kernel with in-kernel
        // classification runs, and mixed-mask groups must bypass its
        // (unmasked) verdict for their masked members.
        let shape = ghba_bloom::FilterShape { bits: 4096, hashes: 5, seed };
        let mut sliced = SharedShapeArray::new(shape);
        for id in 0..130u16 {
            sliced.push(id).unwrap();
        }
        for (item, home) in &inserts {
            sliced.insert(*home, item).unwrap();
        }
        for home in &hot_homes {
            sliced.insert(*home, &hot).unwrap();
        }
        let fp = Fingerprint::of(&hot);
        let mut batch = ghba_bloom::ProbeBatch::new();
        let mut expected = Vec::new();
        for (i, subset) in subsets.iter().enumerate() {
            // Interleave unmasked duplicates so groups mix None with
            // Some masks too (subsets may name never-pushed ids ≥ 130,
            // which masks ignore).
            if i % 3 == 2 {
                expected.push(sliced.query_fp(&fp));
                batch.push(fp);
            } else {
                expected.push(sliced.query_fp_among(&fp, subset.iter().copied()));
                batch.push_masked(fp, sliced.subset_mask(subset.iter().copied()));
            }
        }
        prop_assert_eq!(sliced.query_batch(&mut batch), expected);
    }

    /// Bulk loading via the 64×64 block transpose is bit-identical to
    /// pushing the same filters one slot at a time.
    #[test]
    fn from_filters_transpose_matches_push_filter(
        per_filter in proptest::collection::vec(proptest::collection::vec("[a-z]{1,10}", 0..20), 0..150),
        probes in proptest::collection::vec("[a-z]{1,10}", 0..30),
        seed in any::<u64>(),
    ) {
        let shape = ghba_bloom::FilterShape { bits: 4096, hashes: 5, seed };
        let filters: Vec<(u16, BloomFilter)> = per_filter
            .iter()
            .enumerate()
            .map(|(id, items)| {
                let mut f = BloomFilter::new(shape.bits, shape.hashes, shape.seed);
                for item in items {
                    f.insert(item);
                }
                (id as u16, f)
            })
            .collect();
        let bulk = SharedShapeArray::from_filters(filters.clone()).unwrap();
        let mut pushed = SharedShapeArray::with_capacity(shape, filters.len());
        for (id, filter) in &filters {
            pushed.push_filter(*id, filter).unwrap();
        }
        prop_assert_eq!(bulk.len(), pushed.len());
        for (id, filter) in &filters {
            let extracted = bulk.extract(*id);
            prop_assert_eq!(extracted.as_ref(), Some(filter));
        }
        for probe in probes.iter().chain(per_filter.iter().flatten()) {
            let fp = Fingerprint::of(probe.as_str());
            prop_assert_eq!(bulk.query_fp(&fp), pushed.query_fp(&fp), "probe {}", probe);
        }
    }

    /// `insert_delta` is the sparse twin of an extract/insert/diff round
    /// trip: against the oracle `FilterDelta::between(extract(id),
    /// extract(id) + inserts)` it yields the same changed words in the
    /// same order, the same `new_items` and wire size — on slabs of at
    /// least 65 slots (stride 2), recycled slots, duplicate fingerprints
    /// (a four-letter alphabet repeats often), bits already set in the
    /// column, and empty insert lists. A 1000-bit shape also covers the
    /// partial tail word.
    #[test]
    fn insert_delta_matches_between_oracle(
        homes in 65u16..140,
        retire in proptest::collection::vec(0u16..140, 0..8),
        others in proptest::collection::vec(("[a-d]{1,3}", 0u16..140), 0..150),
        already in proptest::collection::vec("[a-d]{1,3}", 0..30),
        inserts in proptest::collection::vec("[a-d]{1,3}", 0..40),
        pick in 0u16..140,
        on_recycled in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let shape = ghba_bloom::FilterShape { bits: 1000, hashes: 4, seed };
        let mut slab = SharedShapeArray::new(shape);
        for id in 0..homes {
            slab.push(id).unwrap();
        }
        // Retired ids' slots are tombstoned and reused by fresh ids.
        let mut recycled = Vec::new();
        for (n, &id) in retire.iter().enumerate() {
            if slab.remove(id % homes) {
                let fresh = 1000 + n as u16;
                slab.push(fresh).unwrap();
                recycled.push(fresh);
            }
        }
        let ids: Vec<u16> = slab.ids().collect();
        for (item, home) in &others {
            slab.insert(ids[usize::from(*home) % ids.len()], item).unwrap();
        }
        let target = match recycled.last() {
            Some(&id) if on_recycled => id,
            _ => ids[usize::from(pick) % ids.len()],
        };
        for item in &already {
            slab.insert(target, item).unwrap();
        }
        let fps: Vec<Fingerprint> = inserts.iter().map(|item| Fingerprint::of(item.as_str())).collect();
        let old = slab.extract(target).unwrap();
        let mut new = old.clone();
        for fp in &fps {
            new.insert_fp(fp);
        }
        let oracle = FilterDelta::between(&old, &new).unwrap();
        let sparse = slab.insert_delta(target, &fps).unwrap();
        prop_assert_eq!(sparse.changes(), oracle.changes());
        prop_assert!(sparse.changes().iter().all(|c| c.cleared == 0), "inserts only set bits");
        prop_assert_eq!(sparse.new_items(), oracle.new_items());
        prop_assert_eq!(sparse.wire_bytes(), oracle.wire_bytes());
        prop_assert_eq!(&sparse, &oracle);
        prop_assert_eq!(slab.apply_delta(target, &sparse), Ok(sparse.changed_bits()));
        prop_assert_eq!(slab.extract(target), Some(new));
    }

    /// A delta that both sets and clears bits (counting-filter removes
    /// produce the clears) rewrites exactly the target column: after
    /// `apply_delta(between(old, new))` the column extracts as `new`,
    /// every other column is bit-for-bit untouched, one row is written
    /// per flipped bit, and a second application — on the slab or
    /// through `FilterDelta::apply` — changes nothing. Slabs of 1-63
    /// slots (stride 1) and 65-139 slots (stride 2).
    #[test]
    fn apply_delta_sets_and_clears_only_the_target_column(
        wide in any::<bool>(),
        size in 0u16..75,
        columns in proptest::collection::vec(("[a-d]{1,3}", 0u16..140), 0..150),
        base in proptest::collection::vec("[a-d]{1,3}", 0..40),
        removed in proptest::collection::vec(0usize..40, 0..20),
        added in proptest::collection::vec("[a-d]{1,3}", 0..20),
        pick in 0u16..140,
        seed in any::<u64>(),
    ) {
        let homes = if wide { 65 + size } else { 1 + size % 63 };
        let (bits, hashes) = (1000usize, 4u32);
        let shape = ghba_bloom::FilterShape { bits, hashes, seed };
        let mut slab = SharedShapeArray::new(shape);
        for id in 0..homes {
            slab.push(id).unwrap();
        }
        for (item, home) in &columns {
            slab.insert(home % homes, item).unwrap();
        }
        let mut counting = CountingBloomFilter::new(bits, hashes, seed);
        for item in &base {
            counting.insert(item);
        }
        let old = counting.to_bloom_filter();
        for &n in &removed {
            if let Some(item) = base.get(n) {
                let _ = counting.remove(item);
            }
        }
        for item in &added {
            counting.insert(item);
        }
        let new = counting.to_bloom_filter();
        let target = pick % homes;
        slab.replace_filter(target, &old).unwrap();
        let before: Vec<Option<BloomFilter>> = (0..homes).map(|id| slab.extract(id)).collect();

        let delta = FilterDelta::between(&old, &new).unwrap();
        prop_assert!(delta.changes().iter().all(|c| c.set & c.cleared == 0));
        prop_assert_eq!(slab.apply_delta(target, &delta), Ok(delta.changed_bits()));
        prop_assert_eq!(slab.extract(target), Some(new.clone()));
        slab.apply_delta(target, &delta).unwrap();
        prop_assert_eq!(slab.extract(target), Some(new.clone()));
        for id in (0..homes).filter(|&id| id != target) {
            prop_assert_eq!(slab.extract(id), before[usize::from(id)].clone(), "column {}", id);
        }
        let mut replica = old.clone();
        delta.apply(&mut replica).unwrap();
        delta.apply(&mut replica).unwrap();
        prop_assert_eq!(replica, new);
    }

    /// `ProbeBatch::derive_rows_into` yields exactly the per-fingerprint
    /// probe rows of `Fingerprint::probes`, for any shape.
    #[test]
    fn derive_rows_match_fingerprint_probes(
        items in proptest::collection::vec("[a-z/]{1,16}", 1..24),
        bits in 64usize..100_000,
        hashes in 1u32..12,
        seed in any::<u64>(),
    ) {
        let shape = ghba_bloom::FilterShape { bits, hashes, seed };
        let mut batch = ghba_bloom::ProbeBatch::new();
        let mut expected: Vec<u32> = Vec::new();
        for item in &items {
            let fp = Fingerprint::of(item.as_str());
            batch.push(fp);
            fp.probe_rows_into(seed, bits, hashes, &mut expected);
        }
        let mut rows = Vec::new();
        batch.derive_rows_into(shape, &mut rows);
        prop_assert_eq!(rows, expected);
    }

    /// Hit classification is consistent with candidate count.
    #[test]
    fn hit_classification(ids in proptest::collection::vec(any::<u16>(), 0..10)) {
        let mut uniq = ids.clone();
        uniq.sort_unstable();
        uniq.dedup();
        let hit = match uniq.len() {
            0 => Hit::None,
            1 => Hit::Unique(uniq[0]),
            _ => Hit::Multiple(uniq.clone()),
        };
        prop_assert_eq!(hit.candidates().len(), uniq.len());
        prop_assert_eq!(hit.is_unique(), uniq.len() == 1);
    }
}
