//! The RCCR baseline forecaster.
//!
//! Per the paper's Section IV implementation notes: "For RCCR, we first
//! used a time series forecasting technique, i.e., Exponential Smoothing
//! (ETS), to predict the amount of unused resource of VMs. Then we
//! calculated confidence intervals and chose the lower bound of the
//! confidence interval as the predicted value for a time window".

use super::entry;
use crate::pipeline::VmPredictorCore;
use corp_sim::ResourceVector;
use corp_stats::{z_for_confidence, ErrorWindow, SimpleExp};
use corp_trace::NUM_RESOURCES;

/// Exponential-smoothing VM-unused forecaster with CI lower bound.
#[derive(Debug)]
pub struct RccrPredictor {
    alpha: f64,
    /// `z_{theta/2}` of the confidence level.
    z: f64,
    /// Per VM id; a VM never observed has no level.
    smoothers: Vec<[SimpleExp; NUM_RESOURCES]>,
    errors: [ErrorWindow; NUM_RESOURCES],
    /// `sigma_hat` of each error window, refreshed by
    /// [`settle`](Self::settle) for the windows an outcome changed.
    sigma: [f64; NUM_RESOURCES],
    stale: [bool; NUM_RESOURCES],
}

impl RccrPredictor {
    /// Creates a forecaster with smoothing factor `alpha` and confidence
    /// level `confidence` in `(0, 1)`.
    pub fn new(alpha: f64, confidence: f64) -> Self {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0,1)"
        );
        RccrPredictor {
            alpha,
            z: z_for_confidence(confidence),
            smoothers: Vec::new(),
            errors: std::array::from_fn(|_| ErrorWindow::new(64)),
            sigma: [0.0; NUM_RESOURCES],
            stale: [false; NUM_RESOURCES],
        }
    }

    /// The raw SES forecast without the CI adjustment (tests/diagnostics).
    #[cfg(test)]
    fn predict_raw(&self, vm: usize) -> Option<ResourceVector> {
        let smoothers = self.smoothers.get(vm)?;
        let mut out = ResourceVector::ZERO;
        for k in 0..NUM_RESOURCES {
            out[k] = smoothers[k].forecast(1)?.max(0.0);
        }
        Some(out)
    }
}

impl VmPredictorCore for RccrPredictor {
    /// Folds one slot's observed unused totals for `vm`.
    fn observe(&mut self, vm: usize, unused: &ResourceVector) {
        let alpha = self.alpha;
        let fresh = || std::array::from_fn(|_| SimpleExp::new(alpha));
        for (k, s) in entry(&mut self.smoothers, vm, fresh).iter_mut().enumerate() {
            s.observe(unused[k]);
        }
    }

    /// Records a resolved prediction outcome to calibrate `sigma_hat`,
    /// which [`settle`](Self::settle) refreshes before the next forecast.
    fn record_outcome(&mut self, resource: usize, actual: f64, predicted: f64) {
        self.errors[resource].push(actual - predicted);
        self.stale[resource] = true;
    }

    /// Recomputes `sigma_hat` of every error window an outcome changed
    /// since the last call: once per window, however many outcomes it
    /// resolved.
    fn settle(&mut self) {
        for k in 0..NUM_RESOURCES {
            if std::mem::take(&mut self.stale[k]) {
                self.sigma[k] = self.errors[k].sigma_hat();
            }
        }
    }

    /// Predicts `vm`'s unused vector one window ahead: SES forecast minus
    /// the CI half-width `sigma_hat * z_{theta/2}` (the lower bound, to be
    /// conservative in reclaiming), clamped non-negative. `None` before any
    /// observation for the VM.
    fn predict(&self, vm: usize) -> Option<ResourceVector> {
        debug_assert!(!self.stale.contains(&true), "predict before settle");
        let smoothers = self.smoothers.get(vm)?;
        let mut out = ResourceVector::ZERO;
        for k in 0..NUM_RESOURCES {
            let level = smoothers[k].forecast(1)?;
            out[k] = (level - self.sigma[k] * self.z).max(0.0);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::reference_stream::{bits, observation, outcome, ASKED, OBSERVED};
    use std::collections::HashMap;

    /// The forecaster before the per-VM table: a map of smoothers, `z` and
    /// `sigma_hat` recomputed at every prediction.
    struct Reference {
        confidence: f64,
        smoothers: HashMap<usize, [SimpleExp; NUM_RESOURCES]>,
        errors: [ErrorWindow; NUM_RESOURCES],
    }

    impl Reference {
        fn predict(&self, vm: usize) -> Option<ResourceVector> {
            let smoothers = self.smoothers.get(&vm)?;
            let z = z_for_confidence(self.confidence);
            let mut out = ResourceVector::ZERO;
            for k in 0..NUM_RESOURCES {
                let level = smoothers[k].forecast(1)?;
                let sigma = self.errors[k].sigma_hat();
                out[k] = (level - sigma * z).max(0.0);
            }
            Some(out)
        }
    }

    #[test]
    fn table_equals_the_hashmap_reference_bit_for_bit() {
        let mut fast = RccrPredictor::new(0.3, 0.9);
        let mut slow = Reference {
            confidence: 0.9,
            smoothers: HashMap::new(),
            errors: std::array::from_fn(|_| ErrorWindow::new(64)),
        };
        for round in 0..200 {
            for vm in OBSERVED {
                let u = observation(vm, round);
                fast.observe(vm, &u);
                let smoothers = slow
                    .smoothers
                    .entry(vm)
                    .or_insert_with(|| std::array::from_fn(|_| SimpleExp::new(0.3)));
                for (k, s) in smoothers.iter_mut().enumerate() {
                    s.observe(u[k]);
                }
            }
            if round % 3 == 0 {
                for k in 0..NUM_RESOURCES {
                    let (actual, predicted) = outcome(k, round);
                    fast.record_outcome(k, actual, predicted);
                    slow.errors[k].push(actual - predicted);
                }
                fast.settle();
            }
            for vm in ASKED {
                let want = slow.predict(vm);
                assert_eq!(bits(fast.predict(vm)), bits(want), "vm {vm} round {round}");
                assert_eq!(want.is_some(), OBSERVED.contains(&vm));
            }
        }
    }

    #[test]
    fn several_outcomes_between_forecasts_equal_the_per_outcome_refresh() {
        // `per_outcome` settles after every outcome, as sigma_hat was once
        // refreshed; `fast` settles once per forecast, after 0 to 4
        // outcomes per resource.
        let mut fast = RccrPredictor::new(0.3, 0.9);
        let mut per_outcome = RccrPredictor::new(0.3, 0.9);
        for round in 0..120 {
            for vm in OBSERVED {
                let u = observation(vm, round);
                fast.observe(vm, &u);
                per_outcome.observe(vm, &u);
            }
            for k in 0..NUM_RESOURCES {
                for i in 0..(round + k) % 5 {
                    let (actual, predicted) = outcome(k, 5 * round + i);
                    fast.record_outcome(k, actual, predicted);
                    per_outcome.record_outcome(k, actual, predicted);
                    per_outcome.settle();
                }
            }
            fast.settle();
            for vm in ASKED {
                let want = per_outcome.predict(vm);
                assert_eq!(bits(fast.predict(vm)), bits(want), "vm {vm} round {round}");
            }
        }
    }

    #[test]
    fn no_prediction_before_observation() {
        let p = RccrPredictor::new(0.3, 0.9);
        assert!(p.predict(0).is_none());
    }

    #[test]
    fn tracks_constant_unused_level() {
        let mut p = RccrPredictor::new(0.5, 0.9);
        for _ in 0..32 {
            p.observe(3, &ResourceVector::new([4.0, 2.0, 1.0]));
        }
        let f = p.predict(3).unwrap();
        // No recorded errors -> sigma 0 -> forecast equals level.
        assert!((f[0] - 4.0).abs() < 1e-9);
        assert!((f[1] - 2.0).abs() < 1e-9);
        assert!((f[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn confidence_lower_bound_reduces_prediction() {
        let mut p = RccrPredictor::new(0.5, 0.9);
        for _ in 0..16 {
            p.observe(0, &ResourceVector::splat(10.0));
        }
        // Feed noisy outcomes so sigma_hat > 0.
        for (a, pr) in [(10.0, 9.0), (8.0, 9.0), (11.0, 9.0), (7.0, 9.0)] {
            p.record_outcome(0, a, pr);
        }
        p.settle();
        let raw = p.predict_raw(0).unwrap();
        let lb = p.predict(0).unwrap();
        assert!(lb[0] < raw[0], "lower bound must shave the forecast");
        assert!(lb[0] >= 0.0);
    }

    #[test]
    fn per_vm_state_is_independent() {
        let mut p = RccrPredictor::new(0.5, 0.9);
        p.observe(0, &ResourceVector::splat(1.0));
        p.observe(1, &ResourceVector::splat(9.0));
        assert!((p.predict_raw(0).unwrap()[0] - 1.0).abs() < 1e-9);
        assert!((p.predict_raw(1).unwrap()[0] - 9.0).abs() < 1e-9);
    }

    #[test]
    fn higher_confidence_is_more_conservative() {
        let build = |eta: f64| {
            let mut p = RccrPredictor::new(0.5, eta);
            for _ in 0..8 {
                p.observe(0, &ResourceVector::splat(10.0));
            }
            for (a, pr) in [(10.0, 9.0), (8.0, 9.0), (11.0, 9.0), (7.0, 9.0)] {
                p.record_outcome(0, a, pr);
            }
            p.settle();
            p.predict(0).unwrap()[0]
        };
        assert!(build(0.95) < build(0.5), "Fig. 9's mechanism");
    }

    #[test]
    #[should_panic]
    fn rejects_invalid_confidence() {
        RccrPredictor::new(0.3, 1.0);
    }
}
