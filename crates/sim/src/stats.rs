//! Streaming statistics for experiment probes.
//!
//! * [`Welford`] — numerically stable mean/variance,
//! * [`jain_fairness_index`] — the fairness metric of Fig. 9.
//!
//! Latency distributions are `sprayer_obs::Histogram`s, recorded by the
//! runtimes' latency probes.

use serde::{Deserialize, Serialize};

/// Welford's online algorithm for mean and variance.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Jain's fairness index over per-flow throughputs (Fig. 9).
///
/// `(Σx)² / (n · Σx²)`: 1.0 when all shares are equal, `1/n` in the worst
/// case. Empty input and all-zero input return 1.0 (vacuously fair).
pub fn jain_fairness_index(shares: &[f64]) -> f64 {
    if shares.is_empty() {
        return 1.0;
    }
    let sum: f64 = shares.iter().sum();
    let sum_sq: f64 = shares.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (shares.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_closed_form() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &data {
            w.add(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4.0; sample variance is 4.0 * 8/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        w.add(3.5);
        assert_eq!(w.mean(), 3.5);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn jain_index_extremes() {
        assert_eq!(jain_fairness_index(&[]), 1.0);
        assert_eq!(jain_fairness_index(&[5.0, 5.0, 5.0, 5.0]), 1.0);
        let idx = jain_fairness_index(&[1.0, 0.0, 0.0, 0.0]);
        assert!((idx - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_index_known_value() {
        // Classic example: shares 1,2,3 -> 36 / (3*14) = 6/7.
        let idx = jain_fairness_index(&[1.0, 2.0, 3.0]);
        assert!((idx - 6.0 / 7.0).abs() < 1e-12);
    }
}
