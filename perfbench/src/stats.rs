//! Exact order statistics over retained raw samples.
//!
//! Every latency the benchmark reports is computed here from the full
//! sample vector — no histogram buckets — and is printed beside its
//! sample count.

/// Raw samples of one latency series, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            ns: Vec::with_capacity(n),
            sorted: true,
        }
    }

    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn push_duration(&mut self, d: std::time::Duration) {
        self.push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Nearest-rank percentile: the smallest sample with at least `p`
    /// percent of all samples at or below it. `None` when empty.
    pub fn percentile_ns(&mut self, p: f64) -> Option<u64> {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        nearest_rank(&self.ns, p)
    }

    /// Samples strictly above the `p`-th percentile — the count the
    /// report prints so a reader can judge how many samples a tail
    /// percentile rests on.
    pub fn beyond(&mut self, p: f64) -> usize {
        match self.percentile_ns(p) {
            Some(v) => self.ns.iter().filter(|&&x| x > v).count(),
            None => 0,
        }
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn nearest_rank(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of an unsorted set of reals (mean of the middle pair for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_hand_built_inputs() {
        let sorted = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(nearest_rank(&sorted, 50.0), Some(50));
        assert_eq!(nearest_rank(&sorted, 90.0), Some(90));
        assert_eq!(nearest_rank(&sorted, 91.0), Some(100));
        assert_eq!(nearest_rank(&sorted, 99.0), Some(100));
        assert_eq!(nearest_rank(&sorted, 0.0), Some(10));
        assert_eq!(nearest_rank(&sorted, 100.0), Some(100));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&[7], 99.0), Some(7));
    }

    #[test]
    fn percentiles_are_exact_not_bucket_edges() {
        // A power-of-two histogram reports 2^k - 1 ns for both of these;
        // the retained samples give the values themselves.
        let mut s = Samples::default();
        for ns in [300_000u64, 310_000, 320_000, 330_000, 600_000] {
            s.push(ns);
        }
        assert_eq!(s.percentile_ns(50.0), Some(320_000));
        assert_eq!(s.percentile_ns(80.0), Some(330_000));
        assert_eq!(s.percentile_ns(99.0), Some(600_000));
        assert_eq!(s.beyond(50.0), 2);
        assert_eq!(s.beyond(99.0), 0);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn unsorted_pushes_are_sorted_before_ranking() {
        let mut s = Samples::default();
        for ns in [5u64, 1, 4, 2, 3] {
            s.push(ns);
        }
        assert_eq!(s.percentile_ns(40.0), Some(2));
        s.push(0);
        assert_eq!(s.percentile_ns(1.0), Some(0));
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
