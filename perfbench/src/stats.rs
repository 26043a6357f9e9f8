//! Percentiles within a run and spread across runs.
//!
//! The mean ± 95% CI comes from `knn_bench::Stats`, the repository's
//! shared harness type; this module adds what a latency benchmark needs on
//! top of it: nearest-rank percentiles that refuse to report a tail they
//! have too few samples for, and the median/quartile spread across runs
//! (computed exactly like Python's `statistics.quantiles(values, n=4)`).

use knn_bench::Stats;

/// A percentile is only reported when at least this many samples lie
/// beyond it (so p99 needs ≥ 1000 samples).
pub const MIN_BEYOND: usize = 10;

/// One run's sorted latency samples.
pub struct Percentiles {
    sorted: Vec<f64>,
}

impl Percentiles {
    /// Sorts `samples` (any unit).
    pub fn new(mut samples: Vec<f64>) -> Percentiles {
        samples.sort_by(f64::total_cmp);
        Percentiles { sorted: samples }
    }

    /// Sample count.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Samples strictly beyond the nearest-rank `q` quantile.
    fn beyond(&self, q: f64) -> usize {
        let n = self.sorted.len();
        n - Self::rank(n, q)
    }

    /// 1-based nearest rank of quantile `q` among `n` samples.
    fn rank(n: usize, q: f64) -> usize {
        ((q * n as f64).ceil() as usize).clamp(1, n)
    }

    /// The nearest-rank `q` quantile, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        (n > 0 && self.beyond(q) >= MIN_BEYOND).then(|| self.sorted[Self::rank(n, q) - 1])
    }

    /// The highest of p99.9 / p99 / p95 / p90 / p50 that has at least
    /// [`MIN_BEYOND`] samples beyond it, as `(q, value)`.
    pub fn highest_supported(&self) -> Option<(f64, f64)> {
        [0.999, 0.99, 0.95, 0.9, 0.5].into_iter().find_map(|q| self.quantile(q).map(|v| (q, v)))
    }

    /// Arithmetic mean (0 for no samples).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }
}

/// Median, quartiles and mean ± CI of one metric across runs.
#[derive(Clone, Copy, Debug)]
pub struct Spread {
    /// Mean and 95% CI (the shared harness type).
    pub stats: Stats,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    /// Spread of `values` (at least two).
    pub fn new(values: &[f64]) -> Spread {
        assert!(values.len() >= 2, "a spread needs at least two runs");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles(&sorted);
        Spread { stats: Stats::from_samples(values), median, q1, q3 }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn iqr_frac(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Python's `statistics.quantiles(data, n=4)` (the default "exclusive"
/// method) over already-sorted data: `[q1, median, q3]`.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let ld = sorted.len() as i64;
    let m = ld + 1;
    let n = 4i64;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        *slot = (sorted[(j - 1) as usize] * (n - delta) as f64 + sorted[j as usize] * delta as f64)
            / n as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        let p = Percentiles::new((1..=999).map(f64::from).collect());
        assert_eq!(p.quantile(0.99), None);
        assert_eq!(p.quantile(0.5), Some(500.0));
        let (q, _) = p.highest_supported().unwrap();
        assert_eq!(q, 0.95);
    }

    #[test]
    fn p99_with_exactly_ten_beyond() {
        let p = Percentiles::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(p.quantile(0.99), Some(990.0));
        assert_eq!(p.highest_supported(), Some((0.99, 990.0)));
        assert_eq!(p.count(), 1000);
    }

    #[test]
    fn tiny_samples_support_nothing() {
        let p = Percentiles::new(vec![3.0; 15]);
        assert_eq!(p.highest_supported(), None);
        assert_eq!(Percentiles::new(Vec::new()).quantile(0.5), None);
        assert_eq!(Percentiles::new(vec![2.0, 4.0]).mean(), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = Spread::new(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([7, 1, 3, 5], n=4) == [1.5, 4.0, 6.5]
        let s = Spread::new(&[7.0, 1.0, 3.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 6.5));
        assert!((s.iqr_frac() - 1.25).abs() < 1e-12);
        assert_eq!(s.stats.n, 4);
    }
}
