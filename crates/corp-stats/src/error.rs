//! Prediction-error bookkeeping (paper Eqs. 20-21).
//!
//! CORP computes, for each prediction window, the per-slot error
//! `delta_{t+tau} = u_{t+tau} - u_hat_{t+L}` (Eq. 20) and keeps a sliding
//! window of recent errors. Two quantities are derived from that window:
//!
//! * the estimated standard deviation `sigma_hat` of prediction errors,
//!   which scales the confidence interval of Eq. 18; and
//! * the empirical probability `Pr(0 <= delta < eps)` that the prediction
//!   under-estimates by less than the tolerance `eps`, which gates
//!   *probabilistic resource preemption*: the unused resource is "unlocked"
//!   for reallocation only when that probability reaches `P_th` (Eq. 21).

use crate::descriptive::Summary;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Fixed-capacity sliding window of prediction errors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorWindow {
    capacity: usize,
    errors: VecDeque<f64>,
}

impl ErrorWindow {
    /// Creates a window holding at most `capacity` recent errors.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "error window needs capacity >= 1");
        ErrorWindow {
            capacity,
            errors: VecDeque::with_capacity(capacity),
        }
    }

    /// Records one error sample, evicting the oldest if full.
    pub fn push(&mut self, delta: f64) {
        if self.errors.len() == self.capacity {
            self.errors.pop_front();
        }
        self.errors.push_back(delta);
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.errors.len()
    }

    /// Whether the window holds no samples yet.
    pub fn is_empty(&self) -> bool {
        self.errors.is_empty()
    }

    /// Estimated standard deviation `sigma_hat` of the stored errors
    /// (0.0 with fewer than two samples, i.e. maximally optimistic until
    /// evidence of error accumulates).
    pub fn sigma_hat(&self) -> f64 {
        let (a, b) = self.errors.as_slices();
        let mut s = Summary::of(a);
        s.extend(b);
        s.stddev()
    }

    /// Empirical `Pr(0 <= delta < eps)` over the stored samples — the
    /// left-hand side of the preemption condition, paper Eq. 21.
    ///
    /// Returns 0.0 when no samples exist: with zero evidence the gate stays
    /// closed, matching the paper's conservative posture.
    pub fn prob_within(&self, eps: f64) -> f64 {
        if self.errors.is_empty() {
            return 0.0;
        }
        let hits = self.errors.iter().filter(|&&d| d >= 0.0 && d < eps).count();
        hits as f64 / self.errors.len() as f64
    }

    /// Empirical `Pr(|delta| < eps)` — the symmetric variant of the Eq. 21
    /// band. The literal `[0, eps)` band cannot reach high thresholds once
    /// Eq. 19's confidence-interval subtraction deliberately biases errors
    /// positive (the bias shifts `delta`'s mean to `sigma_hat * z`, placing
    /// a `1 - eta` tail below zero *by design*), so reproductions gate on
    /// the symmetric band instead; see DESIGN.md.
    pub fn prob_abs_within(&self, eps: f64) -> f64 {
        if self.errors.is_empty() {
            return 0.0;
        }
        let hits = self.errors.iter().filter(|&&d| d.abs() < eps).count();
        hits as f64 / self.errors.len() as f64
    }

    /// Iterates over stored errors from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.errors.iter().copied()
    }
}

/// Tracks prediction errors for one (job, resource-type) stream and answers
/// the two questions CORP asks of it: "how wide should the confidence
/// interval be" and "may this prediction's unused resource be unlocked".
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictionErrorTracker {
    window: ErrorWindow,
    /// Pre-specified prediction-error tolerance `eps` of Eq. 21.
    pub tolerance: f64,
    /// Probability threshold `P_th` of Eq. 21 (Table II default: 0.95).
    pub threshold: f64,
}

impl PredictionErrorTracker {
    /// Creates a tracker with an error window of `capacity` samples, error
    /// tolerance `eps`, and unlock threshold `p_th`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`, `eps <= 0`, or `p_th` is outside `[0, 1]`.
    pub fn new(capacity: usize, eps: f64, p_th: f64) -> Self {
        assert!(eps > 0.0, "tolerance must be positive, got {eps}");
        assert!(
            (0.0..=1.0).contains(&p_th),
            "P_th must be in [0,1], got {p_th}"
        );
        PredictionErrorTracker {
            window: ErrorWindow::new(capacity),
            tolerance: eps,
            threshold: p_th,
        }
    }

    /// Records one slot's error `actual - predicted` (paper Eq. 20).
    pub fn record(&mut self, actual: f64, predicted: f64) {
        self.window.push(actual - predicted);
    }

    /// Estimated standard deviation of recent errors (`sigma_hat`, Eq. 18).
    pub fn sigma_hat(&self) -> f64 {
        self.window.sigma_hat()
    }

    /// The preemption gate of paper Eq. 21 on the symmetric band: true iff
    /// `Pr(|delta| < eps) >= P_th` over the recent error window. The band
    /// is symmetric because predictions carry the Eq. 19 conservatism
    /// bias (see [`ErrorWindow::prob_abs_within`]).
    pub fn unlocked_symmetric(&self) -> bool {
        self.window.prob_abs_within(self.tolerance) >= self.threshold
    }

    /// Empirical probability that `|delta| < eps`.
    pub fn prob_abs_within_tolerance(&self) -> f64 {
        self.window.prob_abs_within(self.tolerance)
    }

    /// Empirical probability that errors fall in `[0, eps)`.
    pub fn prob_within_tolerance(&self) -> f64 {
        self.window.prob_within(self.tolerance)
    }

    /// Number of error samples currently in the window.
    pub fn samples(&self) -> usize {
        self.window.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_evicts_oldest() {
        let mut w = ErrorWindow::new(3);
        for d in [1.0, 2.0, 3.0, 4.0] {
            w.push(d);
        }
        assert_eq!(w.len(), 3);
        let collected: Vec<f64> = w.iter().collect();
        assert_eq!(collected, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn sigma_hat_zero_until_two_samples() {
        let mut w = ErrorWindow::new(8);
        assert_eq!(w.sigma_hat(), 0.0);
        w.push(5.0);
        assert_eq!(w.sigma_hat(), 0.0);
        w.push(7.0);
        assert!(w.sigma_hat() > 0.0);
    }

    #[test]
    fn sigma_hat_matches_population_stddev() {
        let mut w = ErrorWindow::new(8);
        for d in [1.0, 2.0, 3.0, 4.0] {
            w.push(d);
        }
        assert!((w.sigma_hat() - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn prob_within_counts_half_open_interval() {
        let mut w = ErrorWindow::new(8);
        for d in [-0.5, 0.0, 0.4, 0.5, 1.0] {
            w.push(d);
        }
        // eps = 0.5: qualifying errors are 0.0 and 0.4 -> 2/5.
        assert!((w.prob_within(0.5) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn prob_within_empty_window_is_zero() {
        let w = ErrorWindow::new(4);
        assert_eq!(w.prob_within(1.0), 0.0);
    }

    #[test]
    fn tracker_unlocks_when_errors_are_small_nonnegative() {
        let mut t = PredictionErrorTracker::new(16, 0.5, 0.95);
        assert!(!t.unlocked_symmetric(), "no evidence -> locked");
        for _ in 0..16 {
            t.record(10.0, 9.9); // delta = +0.1, inside [0, 0.5)
        }
        assert!(t.unlocked_symmetric());
    }

    #[test]
    fn tracker_stays_locked_on_overestimation() {
        // Over-estimation (delta < 0) means the predictor promised more
        // unused resource than existed: dangerous to unlock.
        let mut t = PredictionErrorTracker::new(16, 0.5, 0.95);
        for _ in 0..16 {
            t.record(9.0, 10.0); // delta = -1.0
        }
        assert!(!t.unlocked_symmetric());
        assert_eq!(t.prob_within_tolerance(), 0.0);
    }

    #[test]
    fn tracker_threshold_is_inclusive() {
        let mut t = PredictionErrorTracker::new(4, 1.0, 0.75);
        t.record(1.1, 1.0); // +0.1 inside
        t.record(1.2, 1.0); // +0.2 inside
        t.record(1.3, 1.0); // +0.3 inside
        t.record(0.0, 1.0); // -1.0 outside
        assert_eq!(t.prob_within_tolerance(), 0.75);
        assert!(
            t.unlocked_symmetric(),
            "Eq. 21 uses >=, so exactly P_th unlocks"
        );
    }

    #[test]
    #[should_panic]
    fn tracker_rejects_nonpositive_tolerance() {
        PredictionErrorTracker::new(8, 0.0, 0.9);
    }
}
