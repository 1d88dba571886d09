//! The benchmark's own statistics: nearest-rank percentiles with a tail
//! guard, and request tallies.

/// Nearest-rank percentile of `sorted` at `per_mille`/1000: the smallest
/// sample with at least that share of the samples at or below it.
pub fn percentile(sorted: &[f64], per_mille: usize) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), per_mille) - 1])
}

/// The 1-based nearest rank of the `per_mille` percentile among `n`.
fn rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `per_mille` percentile.
pub fn beyond(n: usize, per_mille: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, per_mille)
    }
}

/// The percentile, reported only when at least `min_tail` samples lie
/// beyond it; a thinner tail would make it a single outlier's value.
pub fn tail_percentile(sorted: &[f64], per_mille: usize, min_tail: usize) -> Option<f64> {
    if beyond(sorted.len(), per_mille) < min_tail {
        return None;
    }
    percentile(sorted, per_mille)
}

/// A sorted copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median of unsorted values (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 500).unwrap_or(f64::NAN)
}

/// What happened to the requests of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    /// Answered with an `ok` = 0 refusal frame.
    pub refused: u64,
    /// Failed outright: transport error or a malformed answer.
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.refused += other.refused;
        self.failed += other.failed;
    }

    /// Requests that did not get an answer.
    pub fn not_ok(&self) -> u64 {
        self.refused + self.failed
    }

    /// Failed plus refused requests over attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.not_ok() as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), Some(500.0));
        assert_eq!(percentile(&v, 990), Some(990.0));
        assert_eq!(percentile(&[3.0], 990), Some(3.0));
        assert_eq!(percentile(&[], 500), None);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 500), Some(2.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(beyond(1000, 990), 10);
        assert_eq!(tail_percentile(&v, 990, 10), Some(989.0));
        assert_eq!(beyond(1001, 990), 10, "rank ceil(990.99) = 991");
        assert_eq!(beyond(999, 990), 9, "rank ceil(989.01) = 990: 1 000 samples is the floor");
        assert_eq!(tail_percentile(&v[..999], 990, 10), None);
        assert_eq!(tail_percentile(&v[..500], 990, 10), None);
    }

    #[test]
    fn refusals_count_as_failures() {
        let mut t = Tally { attempted: 100, refused: 3, failed: 0 };
        assert_eq!(t.failed_frac(), 0.03);
        t.add(Tally { attempted: 100, refused: 0, failed: 1 });
        assert_eq!(t.not_ok(), 4);
        assert_eq!(t.failed_frac(), 0.02);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }
}
