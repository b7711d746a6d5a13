//! Metric accumulation: utilization/wastage (paper Eqs. 1-4), SLO
//! violations, prediction accuracy (Fig. 6), and allocation overhead
//! (Figs. 10/14).

use crate::resources::{ResourceVector, RESOURCE_WEIGHTS};
use corp_trace::NUM_RESOURCES;

/// One slot's aggregate allocated/demanded totals over all running jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    #[cfg(test)]
    pub(crate) fn wastage(&self) -> [f64; NUM_RESOURCES] {
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

/// Accumulates all run-level metrics as running totals: its size does not
/// grow with slots or jobs. Each total adds its terms in slot (or
/// completion) order, the order a fold over every sample would.
#[derive(Debug, Clone, Default)]
pub struct MetricsCollector {
    /// `sum_t sum_i r_ij,t` per resource.
    pub allocated: [f64; NUM_RESOURCES],
    /// `sum_t min(sum_i d_ij,t, sum_i r_ij,t)` per resource: demand up to
    /// allocation, as the utilization ratio counts it.
    pub served: [f64; NUM_RESOURCES],
    /// `sum_t w_j sum_i r_ij,t` per resource, `w_j` the resource weight.
    pub weighted_allocated: [f64; NUM_RESOURCES],
    /// (Prediction, resource) pairs resolved so far.
    pub resolved_predictions: usize,
    /// Of those, the ones scored outside their correctness band.
    pub wrong_predictions: usize,
    /// Completed job count.
    pub completed: usize,
    /// Completed jobs that violated their SLO.
    pub violated: usize,
    /// Jobs rejected on arrival (can never fit any VM).
    pub rejected: usize,
    /// Accumulated provisioning overhead in microseconds (measured decision
    /// time + modeled communication).
    pub overhead_us: f64,
    /// Response times of the completed jobs, in slots, summed.
    pub response_slots_total: u64,
}

impl MetricsCollector {
    /// Creates an empty collector.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records one slot's totals.
    pub(crate) fn record_slot(&mut self, sample: UtilizationSample) {
        for (k, weight) in RESOURCE_WEIGHTS.iter().enumerate() {
            self.allocated[k] += sample.allocated[k];
            self.served[k] += sample.demanded[k].min(sample.allocated[k]);
            self.weighted_allocated[k] += sample.allocated[k] * weight;
        }
    }

    /// Records a completion.
    pub(crate) fn record_completion(&mut self, response_slots: u64, violated: bool) {
        self.completed += 1;
        self.response_slots_total += response_slots;
        if violated {
            self.violated += 1;
        }
    }

    /// Records an arrival-time rejection. Rejected jobs count as SLO
    /// violations — the user never got service.
    pub(crate) fn record_rejection(&mut self) {
        self.rejected += 1;
    }

    /// Aggregate per-resource utilization over the whole run:
    /// `sum_t sum_i d / sum_t sum_i r` (time-aggregated Eq. 1).
    pub(crate) fn aggregate_utilization(&self) -> [f64; NUM_RESOURCES] {
        std::array::from_fn(|k| {
            if self.allocated[k] > 0.0 {
                self.served[k] / self.allocated[k]
            } else {
                1.0
            }
        })
    }

    /// Aggregate overall utilization with the paper's weights
    /// (time-aggregated Eq. 2).
    pub(crate) fn aggregate_overall_utilization(&self) -> f64 {
        let u = self.aggregate_utilization();
        let alloc_w = &self.weighted_allocated;
        let den: f64 = alloc_w.iter().sum();
        if den <= 0.0 {
            return 1.0;
        }
        (0..NUM_RESOURCES).map(|k| u[k] * alloc_w[k]).sum::<f64>() / den
    }

    /// SLO violation rate over all submitted jobs that reached a terminal
    /// state (completed or rejected).
    #[cfg(test)]
    pub(crate) fn slo_violation_rate(&self) -> f64 {
        let total = self.completed + self.rejected;
        if total == 0 {
            return 0.0;
        }
        (self.violated + self.rejected) as f64 / total as f64
    }

    /// Scores one resolved prediction, resource by resource, under the
    /// paper's criterion: the error `actual - predicted` (Eq. 20
    /// orientation, positive = under-estimated unused) is correct within
    /// `[0, eps)` — conservative (no over-estimation) and tight. A NaN
    /// error is outside every band.
    pub(crate) fn record_prediction(
        &mut self,
        predicted: &ResourceVector,
        actual: &ResourceVector,
        eps: &ResourceVector,
    ) {
        for k in 0..NUM_RESOURCES {
            let delta = actual[k] - predicted[k];
            self.resolved_predictions += 1;
            if !(delta >= 0.0 && delta < eps[k]) {
                self.wrong_predictions += 1;
            }
        }
    }

    /// Prediction error rate: fraction of resolved predictions *not*
    /// falling in `[0, eps)` (Fig. 6; lower is better).
    pub(crate) fn prediction_error_rate(&self) -> f64 {
        if self.resolved_predictions == 0 {
            return 0.0;
        }
        self.wrong_predictions as f64 / self.resolved_predictions as f64
    }

    /// Total allocation overhead in milliseconds (Figs. 10/14).
    pub(crate) fn overhead_ms(&self) -> f64 {
        self.overhead_us / 1000.0
    }

    /// Mean response time in slots over completed jobs.
    pub(crate) fn mean_response_slots(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.response_slots_total as f64 / self.completed as f64
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

    /// Scores one prediction of `predicted` against `actual` with
    /// tolerance `eps` on a fresh collector: the (resolved, wrong) counts.
    fn score(predicted: [f64; 3], actual: [f64; 3], eps: [f64; 3]) -> (usize, usize) {
        let mut m = MetricsCollector::new();
        m.record_prediction(&predicted.into(), &actual.into(), &eps.into());
        (m.resolved_predictions, m.wrong_predictions)
    }

    #[test]
    fn prediction_correctness_band() {
        let eps = [0.5, 5.0, 1.0];
        // Exact, a small under-estimation, and the band's closed lower
        // edge (error 0) are correct on every resource.
        assert_eq!(score([5.0, 5.0, 0.0], [5.0, 9.9, 0.0], eps), (3, 0));
        // Error == eps is out (half-open); just below it is in.
        assert_eq!(score([5.0, 5.0, 1.0], [5.5, 9.9, 1.999], eps), (3, 1));
        // Any over-estimation is out, however small.
        assert_eq!(score([5.0, 5.0, 1.0], [4.9, 5.0, 1.0 - 1e-12], eps), (3, 2));
        // NaN on either side is out; so are infinite errors either way
        // (+inf is past every eps, -inf below zero), and an infinite
        // prediction against an infinite actual (inf - inf is NaN).
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        assert_eq!(score([nan, 0.0, 1.0], [1.0, nan, 1.0], eps), (3, 2));
        assert_eq!(score([0.0, inf, inf], [inf, 1.0, inf], eps), (3, 3));
        assert_eq!(score([-inf, 0.0, 0.0], [0.0, -inf, 0.0], eps), (3, 2));
        // Negative amounts score by their difference alone.
        assert_eq!(score([-2.0, -1.0, -1.0], [-1.8, -1.0, -3.0], eps), (3, 1));
    }

    #[test]
    fn prediction_error_rate_counts_misses() {
        let mut m = MetricsCollector::new();
        assert_eq!(m.prediction_error_rate(), 0.0, "nothing resolved yet");
        let eps = ResourceVector::new([0.5, 0.5, 5.0]);
        // Resource 0 misses once (over-estimated), resource 1 once (4.0 off
        // is past its 0.5); resource 2's 5.0 eps accepts the same 4.0.
        m.record_prediction(&[5.0; 3].into(), &[5.1, 9.0, 9.0].into(), &eps);
        m.record_prediction(&[5.0; 3].into(), &[4.0, 5.2, 5.0].into(), &eps);
        assert_eq!((m.resolved_predictions, m.wrong_predictions), (6, 2));
        assert!((m.prediction_error_rate() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn mean_response_time() {
        let mut m = MetricsCollector::new();
        m.record_completion(4, false);
        m.record_completion(8, false);
        assert!((m.mean_response_slots() - 6.0).abs() < 1e-12);
    }
}
