//! The CloudScale baseline forecaster.
//!
//! CloudScale builds on PRESS (Gong et al.): look for a repeating
//! *signature* in the usage history via the FFT; if a dominant period
//! exists, predict the value one period back; otherwise fall back to a
//! discrete-time Markov-chain forecast. On top of the raw prediction,
//! CloudScale applies *adaptive padding* based on recent burstiness and
//! recent prediction errors. For unused-resource prediction the padding is
//! subtracted (claiming less than predicted protects the SLO the same way
//! padding demand upward does). Unlike CORP and RCCR, there is no
//! confidence-level machinery — the paper calls this out as the reason
//! CloudScale's error rate sits above both.

use super::{entry, VmWindow};
use crate::pipeline::VmPredictorCore;
use corp_sim::ResourceVector;
use corp_stats::{dominant_period, ErrorWindow, MarkovChain};
use corp_trace::NUM_RESOURCES;
use std::cell::RefCell;

/// Length of per-(VM, resource) history kept for signature detection.
const HISTORY_CAP: usize = 128;
/// Dominance threshold for accepting an FFT signature.
const SIGNATURE_STRENGTH: f64 = 0.35;
/// Markov chain bins.
const BINS: usize = 8;

/// Per-thread forecast state: one resource's series, copied out of a VM's
/// window oldest first, and the Markov chain refit to it.
struct ForecastScratch {
    series: Vec<f64>,
    chain: MarkovChain,
}

thread_local! {
    static SCRATCH: RefCell<ForecastScratch> = RefCell::new(ForecastScratch {
        series: Vec::with_capacity(HISTORY_CAP),
        chain: MarkovChain::new(BINS, 0.0, 1.0),
    });
}

/// PRESS-style signature + Markov forecaster with adaptive padding.
#[derive(Debug)]
pub struct CloudScalePredictor {
    /// Per VM id; empty for a VM never observed.
    histories: Vec<VmWindow<HISTORY_CAP>>,
    errors: [ErrorWindow; NUM_RESOURCES],
    /// Adaptive pad per resource, refreshed by [`settle`](Self::settle)
    /// for the windows an outcome changed.
    pads: [f64; NUM_RESOURCES],
    stale: [bool; NUM_RESOURCES],
    /// Multiplier on the adaptive pad (1.0 = CloudScale default; lower
    /// values make reclaiming more aggressive — the knob experiments sweep
    /// to trade SLO violations for utilization, paper Fig. 8).
    pad_scale: f64,
}

impl Default for CloudScalePredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl CloudScalePredictor {
    /// Creates an empty forecaster.
    pub(crate) fn new() -> Self {
        Self::with_padding_scale(1.0)
    }

    /// Creates a forecaster with a scaled adaptive pad.
    ///
    /// # Panics
    ///
    /// Panics if `pad_scale` is negative.
    pub fn with_padding_scale(pad_scale: f64) -> Self {
        assert!(pad_scale >= 0.0, "pad scale must be non-negative");
        CloudScalePredictor {
            histories: Vec::new(),
            errors: std::array::from_fn(|_| ErrorWindow::new(64)),
            pads: [0.0; NUM_RESOURCES],
            stale: [false; NUM_RESOURCES],
            pad_scale,
        }
    }

    /// Signature-first raw forecast of the next value of `h`, its Markov
    /// fallback refitting `chain`.
    fn raw_forecast(h: &[f64], chain: &mut MarkovChain) -> f64 {
        if let Some(period) = dominant_period(h, SIGNATURE_STRENGTH) {
            if period <= h.len() {
                // Signature-driven: repeat the value one period ago.
                return h[h.len() - period];
            }
        }
        // Markov fallback over the observed value range.
        let lo = h.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = h.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if hi <= lo || !(hi - lo).is_finite() {
            return h[h.len() - 1]; // constant series
        }
        chain.refit(lo, hi, h);
        chain.forecast(1).unwrap_or(h[h.len() - 1])
    }
}

impl VmPredictorCore for CloudScalePredictor {
    /// Folds one slot's observed unused totals for `vm`.
    fn observe(&mut self, vm: usize, unused: &ResourceVector) {
        entry(&mut self.histories, vm, VmWindow::default).push(*unused);
    }

    /// Records a resolved prediction outcome; [`settle`](Self::settle)
    /// refreshes the resource's pad before the next forecast.
    fn record_outcome(&mut self, resource: usize, actual: f64, predicted: f64) {
        self.errors[resource].push(actual - predicted);
        self.stale[resource] = true;
    }

    /// Refreshes the adaptive pad of every resource an outcome changed
    /// since the last call: the magnitude of the worst recent
    /// over-estimation (predicted more unused than existed), which is the
    /// burst signal CloudScale reacts to. Zero with no evidence.
    fn settle(&mut self) {
        for k in 0..NUM_RESOURCES {
            if std::mem::take(&mut self.stale[k]) {
                let worst = self.errors[k]
                    .iter()
                    .filter(|d| *d < 0.0)
                    .fold(0.0f64, |acc, d| acc.max(-d));
                self.pads[k] = self.pad_scale * worst;
            }
        }
    }

    /// Predicts `vm`'s unused vector one window ahead. `None` before any
    /// observation for the VM.
    fn predict(&self, vm: usize) -> Option<ResourceVector> {
        debug_assert!(!self.stale.contains(&true), "predict before settle");
        let history = self.histories.get(vm).filter(|h| h.len() > 0)?;
        let mut out = ResourceVector::ZERO;
        SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            for k in 0..NUM_RESOURCES {
                s.series.clear();
                s.series.extend(history.iter().map(|u| u[k]));
                let raw = Self::raw_forecast(&s.series, &mut s.chain);
                out[k] = (raw - self.pads[k]).max(0.0);
            }
        });
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::reference_stream::{bits, observation, outcome, ASKED, OBSERVED};
    use std::collections::HashMap;

    /// The forecaster before the per-VM windows: a map of shifted `Vec`s,
    /// the pad folded at every prediction, a fresh chain per fallback.
    struct Reference {
        histories: HashMap<usize, [Vec<f64>; NUM_RESOURCES]>,
        errors: [ErrorWindow; NUM_RESOURCES],
        pad_scale: f64,
    }

    impl Reference {
        fn observe(&mut self, vm: usize, unused: &ResourceVector) {
            let entry = self
                .histories
                .entry(vm)
                .or_insert_with(|| std::array::from_fn(|_| Vec::new()));
            for (k, h) in entry.iter_mut().enumerate() {
                if h.len() == HISTORY_CAP {
                    h.remove(0);
                }
                h.push(unused[k]);
            }
        }

        fn predict(&self, vm: usize) -> Option<ResourceVector> {
            let histories = self.histories.get(&vm)?;
            let mut out = ResourceVector::ZERO;
            for k in 0..NUM_RESOURCES {
                let h = &histories[k];
                let pad = self.pad_scale
                    * self.errors[k]
                        .iter()
                        .filter(|d| *d < 0.0)
                        .fold(0.0f64, |acc, d| acc.max(-d));
                let raw = match dominant_period(h, SIGNATURE_STRENGTH) {
                    Some(period) => h[h.len() - period],
                    None => {
                        let lo = h.iter().cloned().fold(f64::INFINITY, f64::min);
                        let hi = h.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                        if hi <= lo || !(hi - lo).is_finite() {
                            h[h.len() - 1]
                        } else {
                            let mut mc = MarkovChain::new(BINS, lo, hi);
                            mc.observe_all(h);
                            mc.forecast(1).unwrap_or(h[h.len() - 1])
                        }
                    }
                };
                out[k] = (raw - pad).max(0.0);
            }
            Some(out)
        }
    }

    #[test]
    fn windows_equal_the_hashmap_reference_bit_for_bit() {
        let mut fast = CloudScalePredictor::with_padding_scale(0.75);
        let mut slow = Reference {
            histories: HashMap::new(),
            errors: std::array::from_fn(|_| ErrorWindow::new(64)),
            pad_scale: 0.75,
        };
        for round in 0..2 * HISTORY_CAP + 40 {
            for vm in OBSERVED {
                let u = observation(vm, round);
                fast.observe(vm, &u);
                slow.observe(vm, &u);
            }
            for k in 0..NUM_RESOURCES {
                let (actual, predicted) = outcome(k, round);
                fast.record_outcome(k, actual, predicted);
                slow.errors[k].push(actual - predicted);
            }
            fast.settle();
            if round % 9 == 0 || round + 1 == 2 * HISTORY_CAP {
                for vm in ASKED {
                    let want = slow.predict(vm);
                    assert_eq!(bits(fast.predict(vm)), bits(want), "vm {vm} round {round}");
                    assert_eq!(want.is_some(), OBSERVED.contains(&vm));
                }
            }
        }
    }

    #[test]
    fn several_outcomes_between_forecasts_equal_the_per_outcome_refresh() {
        // `per_outcome` settles after every outcome, as the pad was once
        // refreshed; `fast` settles once per forecast, after 0 to 4
        // outcomes per resource.
        let mut fast = CloudScalePredictor::with_padding_scale(0.75);
        let mut per_outcome = CloudScalePredictor::with_padding_scale(0.75);
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
        assert!(CloudScalePredictor::new().predict(0).is_none());
    }

    #[test]
    fn signature_detected_on_periodic_unused() {
        let mut p = CloudScalePredictor::new();
        // Period-8 sawtooth.
        for t in 0..96 {
            let v = (t % 8) as f64;
            p.observe(0, &ResourceVector::new([v, 0.0, 0.0]));
        }
        let f = p.predict(0).unwrap();
        // Last observed index t=95 -> t%8==7; next is 0.
        assert!(
            f[0] < 2.0,
            "signature should predict the cycle restart, got {}",
            f[0]
        );
    }

    #[test]
    fn constant_series_predicts_itself() {
        let mut p = CloudScalePredictor::new();
        for _ in 0..32 {
            p.observe(1, &ResourceVector::splat(5.0));
        }
        let f = p.predict(1).unwrap();
        for k in 0..3 {
            assert!((f[k] - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn padding_subtracts_recent_overestimation() {
        let mut p = CloudScalePredictor::new();
        for _ in 0..16 {
            p.observe(0, &ResourceVector::splat(10.0));
        }
        let before = p.predict(0).unwrap()[0];
        p.record_outcome(0, 7.0, 10.0); // over-estimated by 3
        p.settle();
        let after = p.predict(0).unwrap()[0];
        assert!(
            (before - after - 3.0).abs() < 1e-9,
            "pad should equal worst overestimate"
        );
    }

    #[test]
    fn padding_ignores_underestimation() {
        let mut p = CloudScalePredictor::new();
        for _ in 0..16 {
            p.observe(0, &ResourceVector::splat(10.0));
        }
        p.record_outcome(0, 12.0, 10.0); // under-estimated: no pad needed
        p.settle();
        let f = p.predict(0).unwrap();
        assert!((f[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn prediction_is_never_negative() {
        let mut p = CloudScalePredictor::new();
        for _ in 0..8 {
            p.observe(0, &ResourceVector::splat(0.5));
        }
        p.record_outcome(0, 0.0, 50.0); // massive overestimate -> huge pad
        p.settle();
        let f = p.predict(0).unwrap();
        assert!(f.is_nonnegative());
    }

    #[test]
    fn markov_fallback_on_aperiodic_series() {
        let mut p = CloudScalePredictor::new();
        // Deterministic pseudo-noise.
        let mut x: u64 = 99;
        for _ in 0..64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = (x >> 11) as f64 / (1u64 << 53) as f64 * 10.0;
            p.observe(0, &ResourceVector::new([v, 1.0, 1.0]));
        }
        let f = p.predict(0).unwrap();
        assert!(
            f[0] >= 0.0 && f[0] <= 10.0,
            "fallback stays in observed range"
        );
    }
}
