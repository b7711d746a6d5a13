//! Metric accumulation: utilization/wastage (paper Eqs. 1-4), SLO
//! violations, prediction accuracy (Fig. 6), and allocation overhead
//! (Figs. 10/14).

use crate::resources::{ResourceVector, RESOURCE_WEIGHTS};
use corp_trace::NUM_RESOURCES;
use serde::{Deserialize, Serialize};

/// One slot's aggregate allocated/demanded totals over all running jobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilizationSample {
    /// Slot index.
    pub slot: u64,
    /// `sum_i r_ij,t` per resource.
    pub allocated: ResourceVector,
    /// `sum_i d_ij,t` per resource (capped at allocation for the
    /// utilization ratio, mirroring the paper's `r = r_unused + d`
    /// accounting where demand beyond allocation is unserved).
    pub demanded: ResourceVector,
}

impl UtilizationSample {
    /// Per-resource utilization `U_j,t` (Eq. 1); 1.0 for resources with no
    /// allocation this slot (nothing allocated, nothing wasted).
    pub fn utilization(&self) -> [f64; NUM_RESOURCES] {
        let mut out = [1.0; NUM_RESOURCES];
        for (k, o) in out.iter_mut().enumerate() {
            if self.allocated[k] > 0.0 {
                *o = (self.demanded[k] / self.allocated[k]).min(1.0);
            }
        }
        out
    }

    /// Overall weighted utilization `U_a,t` (Eq. 2).
    pub fn overall_utilization(&self) -> f64 {
        let num = self.demanded.min(&self.allocated).weighted_total();
        let den = self.allocated.weighted_total();
        if den > 0.0 {
            (num / den).min(1.0)
        } else {
            1.0
        }
    }

    /// Per-resource wastage `w_j,t` (Eq. 3) — the complement of Eq. 1.
    pub fn wastage(&self) -> [f64; NUM_RESOURCES] {
        let u = self.utilization();
        let mut out = [0.0; NUM_RESOURCES];
        for k in 0..NUM_RESOURCES {
            out[k] = 1.0 - u[k];
        }
        out
    }

    /// Overall weighted wastage `w_a,t` (Eq. 4).
    pub fn overall_wastage(&self) -> f64 {
        1.0 - self.overall_utilization()
    }
}

/// A resolved prediction and its error `delta = actual - predicted`
/// (paper Eq. 20 orientation: positive = under-estimation of unused).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictionOutcome {
    /// VM concerned.
    pub vm: usize,
    /// Resource index.
    pub resource: usize,
    /// Slot the prediction targeted.
    pub target_slot: u64,
    /// Predicted unused amount.
    pub predicted: f64,
    /// Actual unused amount at the target slot.
    pub actual: f64,
}

impl PredictionOutcome {
    /// The signed prediction error `delta`.
    pub fn delta(&self) -> f64 {
        self.actual - self.predicted
    }

    /// Whether the prediction counts as *correct* under the paper's
    /// criterion: error within `[0, eps)` — conservative (no
    /// over-estimation) and tight.
    pub fn correct(&self, eps: f64) -> bool {
        let d = self.delta();
        d >= 0.0 && d < eps
    }
}

/// Accumulates all run-level metrics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MetricsCollector {
    /// Per-slot utilization samples.
    pub samples: Vec<UtilizationSample>,
    /// Predictions resolved so far, per resource.
    pub resolved_predictions: [usize; NUM_RESOURCES],
    /// Of those, the ones scored outside their correctness band.
    pub wrong_predictions: [usize; NUM_RESOURCES],
    /// Completed job count.
    pub completed: usize,
    /// Completed jobs that violated their SLO.
    pub violated: usize,
    /// Jobs rejected on arrival (can never fit any VM).
    pub rejected: usize,
    /// Accumulated provisioning overhead in microseconds (measured decision
    /// time + modeled communication).
    pub overhead_us: f64,
    /// Per-job response times in slots, completion-ordered.
    pub response_slots: Vec<u64>,
}

impl MetricsCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one slot's totals.
    pub fn record_slot(&mut self, sample: UtilizationSample) {
        self.samples.push(sample);
    }

    /// Records a completion.
    pub fn record_completion(&mut self, response_slots: u64, violated: bool) {
        self.completed += 1;
        self.response_slots.push(response_slots);
        if violated {
            self.violated += 1;
        }
    }

    /// Records an arrival-time rejection. Rejected jobs count as SLO
    /// violations — the user never got service.
    pub fn record_rejection(&mut self) {
        self.rejected += 1;
    }

    /// Aggregate per-resource utilization over the whole run:
    /// `sum_t sum_i d / sum_t sum_i r` (time-aggregated Eq. 1).
    pub fn aggregate_utilization(&self) -> [f64; NUM_RESOURCES] {
        let mut alloc = [0.0; NUM_RESOURCES];
        let mut dem = [0.0; NUM_RESOURCES];
        for s in &self.samples {
            for k in 0..NUM_RESOURCES {
                alloc[k] += s.allocated[k];
                dem[k] += s.demanded[k].min(s.allocated[k]);
            }
        }
        let mut out = [0.0; NUM_RESOURCES];
        for k in 0..NUM_RESOURCES {
            out[k] = if alloc[k] > 0.0 {
                dem[k] / alloc[k]
            } else {
                1.0
            };
        }
        out
    }

    /// Aggregate overall utilization with the paper's weights
    /// (time-aggregated Eq. 2).
    pub fn aggregate_overall_utilization(&self) -> f64 {
        let u = self.aggregate_utilization();
        let mut alloc_w = [0.0; NUM_RESOURCES];
        for s in &self.samples {
            for k in 0..NUM_RESOURCES {
                alloc_w[k] += s.allocated[k] * RESOURCE_WEIGHTS[k];
            }
        }
        let den: f64 = alloc_w.iter().sum();
        if den <= 0.0 {
            return 1.0;
        }
        (0..NUM_RESOURCES).map(|k| u[k] * alloc_w[k]).sum::<f64>() / den
    }

    /// SLO violation rate over all submitted jobs that reached a terminal
    /// state (completed or rejected).
    pub fn slo_violation_rate(&self) -> f64 {
        let total = self.completed + self.rejected;
        if total == 0 {
            return 0.0;
        }
        (self.violated + self.rejected) as f64 / total as f64
    }

    /// Scores one resolved prediction against its resource's tolerance
    /// `eps` (see [`PredictionOutcome::correct`]).
    pub fn record_prediction(&mut self, outcome: &PredictionOutcome, eps: f64) {
        self.resolved_predictions[outcome.resource] += 1;
        if !outcome.correct(eps) {
            self.wrong_predictions[outcome.resource] += 1;
        }
    }

    /// Number of predictions resolved, all resources together.
    pub fn predictions_resolved(&self) -> usize {
        self.resolved_predictions.iter().sum()
    }

    /// Prediction error rate: fraction of resolved predictions *not*
    /// falling in `[0, eps)` (Fig. 6; lower is better).
    pub fn prediction_error_rate(&self) -> f64 {
        let resolved = self.predictions_resolved();
        if resolved == 0 {
            return 0.0;
        }
        self.wrong_predictions.iter().sum::<usize>() as f64 / resolved as f64
    }

    /// Total allocation overhead in milliseconds (Figs. 10/14).
    pub fn overhead_ms(&self) -> f64 {
        self.overhead_us / 1000.0
    }

    /// Mean response time in slots over completed jobs.
    pub fn mean_response_slots(&self) -> f64 {
        if self.response_slots.is_empty() {
            return 0.0;
        }
        self.response_slots.iter().sum::<u64>() as f64 / self.response_slots.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(alloc: [f64; 3], dem: [f64; 3]) -> UtilizationSample {
        UtilizationSample {
            slot: 0,
            allocated: ResourceVector::new(alloc),
            demanded: ResourceVector::new(dem),
        }
    }

    #[test]
    fn utilization_matches_eq1() {
        let s = sample([10.0, 4.0, 2.0], [5.0, 4.0, 0.0]);
        let u = s.utilization();
        assert_eq!(u[0], 0.5);
        assert_eq!(u[1], 1.0);
        assert_eq!(u[2], 0.0);
    }

    #[test]
    fn utilization_caps_at_one_under_overcommit() {
        let s = sample([2.0, 2.0, 2.0], [4.0, 2.0, 1.0]);
        assert_eq!(
            s.utilization()[0],
            1.0,
            "demand beyond allocation is unserved"
        );
    }

    #[test]
    fn zero_allocation_counts_as_fully_utilized() {
        let s = sample([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]);
        assert_eq!(s.utilization(), [1.0, 1.0, 1.0]);
        assert_eq!(s.overall_utilization(), 1.0);
    }

    #[test]
    fn overall_utilization_uses_weights() {
        // CPU fully used, MEM idle, no storage: weights 0.4/0.4 ->
        // (1*0.4*10 + 0*0.4*10) / (0.4*10 + 0.4*10) = 0.5
        let s = sample([10.0, 10.0, 0.0], [10.0, 0.0, 0.0]);
        assert!((s.overall_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn wastage_is_complement() {
        let s = sample([10.0, 4.0, 2.0], [5.0, 4.0, 0.0]);
        let w = s.wastage();
        let u = s.utilization();
        for k in 0..3 {
            assert!((w[k] + u[k] - 1.0).abs() < 1e-12);
        }
        assert!((s.overall_wastage() + s.overall_utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prediction_correctness_band() {
        let mk = |pred: f64, act: f64| PredictionOutcome {
            vm: 0,
            resource: 0,
            target_slot: 0,
            predicted: pred,
            actual: act,
        };
        assert!(mk(5.0, 5.0).correct(0.5), "exact prediction is correct");
        assert!(
            mk(5.0, 5.4).correct(0.5),
            "small under-estimation is correct"
        );
        assert!(
            !mk(5.0, 5.5).correct(0.5),
            "error == eps is incorrect (half-open)"
        );
        assert!(
            !mk(5.0, 4.9).correct(0.5),
            "over-estimation is always incorrect"
        );
    }

    #[test]
    fn aggregate_utilization_pools_over_slots() {
        let mut m = MetricsCollector::new();
        m.record_slot(sample([10.0, 10.0, 10.0], [5.0, 10.0, 0.0]));
        m.record_slot(sample([10.0, 0.0, 10.0], [10.0, 0.0, 10.0]));
        let u = m.aggregate_utilization();
        assert!((u[0] - 15.0 / 20.0).abs() < 1e-12);
        assert!((u[1] - 1.0).abs() < 1e-12);
        assert!((u[2] - 10.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn slo_rate_counts_rejections_as_violations() {
        let mut m = MetricsCollector::new();
        m.record_completion(5, false);
        m.record_completion(20, true);
        m.record_rejection();
        assert!((m.slo_violation_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn slo_rate_empty_is_zero() {
        assert_eq!(MetricsCollector::new().slo_violation_rate(), 0.0);
    }

    #[test]
    fn prediction_error_rate_counts_misses() {
        let mut m = MetricsCollector::new();
        assert_eq!(m.prediction_error_rate(), 0.0, "nothing resolved yet");
        // Resource 0 at eps 0.5: two correct, two wrong; resource 2 at
        // eps 5.0 would accept the same 4.0-off miss.
        let outcomes = [(0, 5.0, 5.1), (0, 5.0, 5.2), (0, 5.0, 4.0), (0, 5.0, 9.0)];
        for (resource, predicted, actual) in outcomes.into_iter().chain([(2, 5.0, 9.0)]) {
            let outcome = PredictionOutcome {
                vm: 0,
                resource,
                target_slot: 0,
                predicted,
                actual,
            };
            m.record_prediction(&outcome, if resource == 0 { 0.5 } else { 5.0 });
        }
        assert_eq!(m.resolved_predictions, [4, 0, 1]);
        assert_eq!(m.wrong_predictions, [2, 0, 0]);
        assert_eq!(m.predictions_resolved(), 5);
        assert!((m.prediction_error_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn mean_response_time() {
        let mut m = MetricsCollector::new();
        m.record_completion(4, false);
        m.record_completion(8, false);
        assert!((m.mean_response_slots() - 6.0).abs() < 1e-12);
    }
}
