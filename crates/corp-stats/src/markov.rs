//! Discrete-time Markov-chain predictor.
//!
//! CloudScale (the PRESS-based baseline in the paper) falls back to a
//! "multi-step Markov prediction" when no periodic signature is found in the
//! resource-usage history. The chain discretizes the value range into `k`
//! equal-width bins, learns a transition matrix from the observed bin
//! sequence, and forecasts by pushing the current state distribution through
//! the matrix `h` times, returning the expected bin midpoint.

use serde::{Deserialize, Serialize};

/// A first-order discrete-time Markov chain over `k` equal-width value bins.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MarkovChain {
    bins: usize,
    lo: f64,
    hi: f64,
    /// Row-major transition counts; row = from-bin, col = to-bin.
    counts: Vec<f64>,
    last_bin: Option<usize>,
}

impl MarkovChain {
    /// Creates a chain over the value range `[lo, hi]` split into `bins`
    /// equal-width states.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(bins: usize, lo: f64, hi: f64) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(hi > lo, "range must be non-empty: [{lo}, {hi}]");
        MarkovChain {
            bins,
            lo,
            hi,
            counts: vec![0.0; bins * bins],
            last_bin: None,
        }
    }

    /// Number of states (bins).
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Maps a value to its bin, clamping out-of-range values to the edges.
    pub fn bin_of(&self, x: f64) -> usize {
        let width = (self.hi - self.lo) / self.bins as f64;
        let idx = ((x - self.lo) / width).floor();
        (idx.max(0.0) as usize).min(self.bins - 1)
    }

    /// Midpoint value represented by bin `b`.
    pub fn midpoint(&self, b: usize) -> f64 {
        let width = (self.hi - self.lo) / self.bins as f64;
        self.lo + (b as f64 + 0.5) * width
    }

    /// Folds one observation, updating the transition count from the
    /// previously observed bin.
    pub fn observe(&mut self, x: f64) {
        let b = self.bin_of(x);
        if let Some(prev) = self.last_bin {
            self.counts[prev * self.bins + b] += 1.0;
        }
        self.last_bin = Some(b);
    }

    /// Folds a whole slice of observations.
    pub fn observe_all(&mut self, xs: &[f64]) {
        for &x in xs {
            self.observe(x);
        }
    }

    /// Transition probability from bin `i` to bin `j` (Laplace-smoothed so
    /// unseen rows are uniform rather than degenerate).
    pub fn transition_prob(&self, i: usize, j: usize) -> f64 {
        let row = &self.counts[i * self.bins..(i + 1) * self.bins];
        let total: f64 = row.iter().sum();
        (row[j] + 1.0) / (total + self.bins as f64)
    }

    /// Predicts the expected value `h >= 1` steps ahead by evolving the
    /// current state distribution through the transition matrix.
    ///
    /// Returns `None` before any observation.
    pub fn forecast(&self, h: usize) -> Option<f64> {
        let start = self.last_bin?;
        let k = self.bins;
        let mut dist = vec![0.0; k];
        dist[start] = 1.0;
        let mut next = vec![0.0; k];
        for _ in 0..h.max(1) {
            next.iter_mut().for_each(|v| *v = 0.0);
            for (i, &p) in dist.iter().enumerate() {
                if p == 0.0 {
                    continue;
                }
                for j in 0..k {
                    next[j] += p * self.transition_prob(i, j);
                }
            }
            std::mem::swap(&mut dist, &mut next);
        }
        Some(
            dist.iter()
                .enumerate()
                .map(|(b, &p)| p * self.midpoint(b))
                .sum(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_mapping_covers_range() {
        let mc = MarkovChain::new(4, 0.0, 8.0);
        assert_eq!(mc.bin_of(0.0), 0);
        assert_eq!(mc.bin_of(1.9), 0);
        assert_eq!(mc.bin_of(2.0), 1);
        assert_eq!(mc.bin_of(7.9), 3);
        assert_eq!(mc.bin_of(8.0), 3, "upper edge clamps into last bin");
        assert_eq!(mc.bin_of(-5.0), 0, "below range clamps to first bin");
        assert_eq!(mc.bin_of(99.0), 3, "above range clamps to last bin");
    }

    #[test]
    fn midpoints_are_centered() {
        let mc = MarkovChain::new(4, 0.0, 8.0);
        assert_eq!(mc.midpoint(0), 1.0);
        assert_eq!(mc.midpoint(3), 7.0);
    }

    #[test]
    fn rows_are_stochastic_after_smoothing() {
        let mut mc = MarkovChain::new(3, 0.0, 3.0);
        mc.observe_all(&[0.5, 1.5, 2.5, 0.5, 1.5]);
        for i in 0..3 {
            let sum: f64 = (0..3).map(|j| mc.transition_prob(i, j)).sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn learns_deterministic_cycle() {
        // 0 -> 1 -> 2 -> 0 -> ... observed many times.
        let mut mc = MarkovChain::new(3, 0.0, 3.0);
        for _ in 0..50 {
            mc.observe_all(&[0.5, 1.5, 2.5]);
        }
        // Last observation was bin 2, so the next most-likely bin is 0.
        let f = mc.forecast(1).unwrap();
        assert!(
            (f - 0.5).abs() < 0.5,
            "forecast {f} should be near bin-0 midpoint"
        );
    }

    #[test]
    fn multistep_forecast_follows_cycle() {
        let mut mc = MarkovChain::new(3, 0.0, 3.0);
        for _ in 0..100 {
            mc.observe_all(&[0.5, 1.5, 2.5]);
        }
        // From bin 2: one step -> bin 0 (mid 0.5), two steps -> bin 1 (1.5).
        let f2 = mc.forecast(2).unwrap();
        assert!((f2 - 1.5).abs() < 0.6, "two-step forecast {f2}");
    }

    #[test]
    fn forecast_none_without_observations() {
        let mc = MarkovChain::new(3, 0.0, 1.0);
        assert_eq!(mc.forecast(1), None);
    }

    #[test]
    fn stationary_forecast_for_constant_series() {
        let mut mc = MarkovChain::new(5, 0.0, 10.0);
        for _ in 0..100 {
            mc.observe(5.0);
        }
        let f = mc.forecast(3).unwrap();
        // Bin of 5.0 in [0,10) with 5 bins is bin 2, midpoint 5.0. Smoothing
        // pulls slightly toward the global mean but should stay close.
        assert!((f - 5.0).abs() < 1.0, "forecast {f}");
    }

    #[test]
    #[should_panic]
    fn rejects_empty_range() {
        MarkovChain::new(3, 1.0, 1.0);
    }
}
