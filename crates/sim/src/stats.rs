//! Streaming statistics collected during simulations.

use std::fmt;

/// Streaming summary statistics (count, mean, min, max, standard deviation)
/// using Welford's online algorithm.
///
/// ```
/// use vfpga_sim::Summary;
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), Some(1.0));
/// assert_eq!(s.max(), Some(4.0));
/// assert_eq!(Summary::new().min(), None);
/// ```
#[derive(Debug, Clone)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Default for Summary {
    /// Identical to [`Summary::new`]. A derived `Default` would zero the
    /// `min`/`max` sentinels, making a defaulted summary report
    /// `min() == Some(0.0)` after recording only positive samples.
    fn default() -> Self {
        Summary::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; zero if empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation; `None` if nothing was recorded, so an empty
    /// simulation run still yields a well-formed report.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` if nothing was recorded.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sample standard deviation; zero with fewer than two observations.
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.mean = (n1 * self.mean + n2 * other.mean) / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            write!(f, "n=0")
        } else {
            write!(
                f,
                "n={} mean={:.4} min={:.4} max={:.4} sd={:.4}",
                self.count,
                self.mean,
                self.min,
                self.max,
                self.stddev()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample stddev of this classic dataset is sqrt(32/7).
        assert!((s.stddev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_merge_matches_single_pass() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37).collect();
        let mut whole = Summary::new();
        for &x in &data {
            whole.record(x);
        }
        let mut left = Summary::new();
        let mut right = Summary::new();
        for &x in &data[..33] {
            left.record(x);
        }
        for &x in &data[33..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.stddev() - whole.stddev()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn default_keeps_infinity_sentinels() {
        // Regression: the derived Default zeroed min/max, so a defaulted
        // summary clamped min to 0.0 for all-positive samples (and max to
        // 0.0 for all-negative ones).
        let mut s = Summary::default();
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        s.record(3.0);
        s.record(5.0);
        assert_eq!(s.min(), Some(3.0));
        assert_eq!(s.max(), Some(5.0));
        let mut neg = Summary::default();
        neg.record(-2.0);
        assert_eq!(neg.max(), Some(-2.0));
    }

    #[test]
    fn summary_merge_with_empty() {
        let mut a = Summary::new();
        a.record(1.0);
        let b = Summary::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = Summary::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.min(), Some(1.0));
    }
}
