//! Probabilistic resource preemption (paper Eq. 21).
//!
//! Predicted unused resource may be reallocated to new jobs only when the
//! recent prediction-error evidence says under-estimation stays within the
//! tolerance: `Pr(0 <= delta_{t+L} < eps) >= P_th`. [`PreemptionGate`]
//! wraps one `PredictionErrorTracker` per resource type and answers, per
//! resource, whether predicted-unused amounts are currently "unlocked".

use corp_stats::PredictionErrorTracker;
use corp_trace::NUM_RESOURCES;

/// Per-resource preemption gates.
#[derive(Debug, Clone)]
pub struct PreemptionGate {
    trackers: Vec<PredictionErrorTracker>,
}

impl PreemptionGate {
    /// Creates gates with window `capacity`, tolerance `eps`, and threshold
    /// `p_th` for every resource type.
    pub(crate) fn new(capacity: usize, eps: f64, p_th: f64) -> Self {
        Self::with_tolerances(capacity, &[eps; NUM_RESOURCES], p_th)
    }

    /// Creates gates with per-resource tolerances (resource types live on
    /// different scales: cores vs. GB vs. hundreds of GB).
    pub(crate) fn with_tolerances(capacity: usize, eps: &[f64; NUM_RESOURCES], p_th: f64) -> Self {
        PreemptionGate {
            trackers: eps
                .iter()
                .map(|&e| PredictionErrorTracker::new(capacity, e, p_th))
                .collect(),
        }
    }

    /// Records one resolved prediction for `resource`. Non-finite samples
    /// are ignored: one NaN in the window would wedge `sigma_hat` (and
    /// with it every subsequent gate decision) at NaN.
    pub(crate) fn record(&mut self, resource: usize, actual_unused: f64, predicted_unused: f64) {
        if !actual_unused.is_finite() || !predicted_unused.is_finite() {
            return;
        }
        self.trackers[resource].record(actual_unused, predicted_unused);
    }

    /// Whether `resource`'s predicted unused amounts may be reallocated:
    /// Eq. 21 with the symmetric tolerance band `|delta| < eps` (the
    /// variant compatible with Eq. 19's deliberate conservatism bias; see
    /// DESIGN.md).
    pub(crate) fn unlocked(&self, resource: usize) -> bool {
        self.trackers[resource].unlocked_symmetric()
    }

    /// Estimated prediction-error standard deviation for `resource`
    /// (`sigma_hat` of Eq. 18).
    pub(crate) fn sigma_hat(&self, resource: usize) -> f64 {
        self.trackers[resource].sigma_hat()
    }

    /// Number of recorded samples for `resource`.
    pub fn samples(&self, resource: usize) -> usize {
        self.trackers[resource].samples()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_locked_everywhere() {
        let g = PreemptionGate::new(16, 0.5, 0.95);
        for r in 0..NUM_RESOURCES {
            assert!(!g.unlocked(r), "no evidence -> locked");
        }
    }

    #[test]
    fn unlocks_per_resource_independently() {
        let mut g = PreemptionGate::new(8, 0.5, 0.9);
        for _ in 0..8 {
            g.record(0, 5.0, 4.9); // CPU: small under-estimation, good
            g.record(1, 3.0, 4.0); // MEM: over-estimation, bad
        }
        assert!(g.unlocked(0));
        assert!(!g.unlocked(1));
        assert!(!g.unlocked(2), "storage saw no evidence");
    }

    #[test]
    fn sigma_hat_reflects_error_spread() {
        let mut g = PreemptionGate::new(16, 1.0, 0.9);
        for (a, p) in [(5.0, 5.0), (6.0, 5.0), (4.0, 5.0), (7.0, 5.0)] {
            g.record(0, a, p);
        }
        assert!(g.sigma_hat(0) > 0.0);
        assert_eq!(g.sigma_hat(1), 0.0);
    }

    #[test]
    fn relocks_after_bad_streak() {
        let mut g = PreemptionGate::new(8, 0.5, 0.9);
        for _ in 0..8 {
            g.record(0, 5.0, 4.9);
        }
        assert!(g.unlocked(0));
        for _ in 0..8 {
            g.record(0, 3.0, 5.0); // over-estimation floods the window
        }
        assert!(!g.unlocked(0));
    }
}
