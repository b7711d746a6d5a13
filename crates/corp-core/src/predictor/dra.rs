//! The DRA baseline estimator.
//!
//! DRA (Shanmuganathan et al., SIGMETRICS'13) gives customers bulk capacity
//! and redistributes it among their VMs by *shares* and *demand*. Its
//! demand estimation is "the run-time software to periodically estimate the
//! amount of unused resource of VMs based on the historical resource usage
//! data" — a plain recent-mean estimator with, as the paper stresses, no
//! fluctuation handling, no confidence levels, and no error correction.
//! That makes it the weakest predictor of the four (Fig. 6's top curve).

use super::{entry, VmWindow};
use crate::pipeline::VmPredictorCore;
use corp_sim::ResourceVector;
use corp_trace::NUM_RESOURCES;

/// Length of the recent-mean window.
const WINDOW: usize = 32;

/// Plain recent-mean unused estimator with 4:2:1 share bookkeeping.
#[derive(Debug, Default)]
pub struct DraPredictor {
    /// Per VM id; empty for a VM never observed.
    histories: Vec<VmWindow<WINDOW>>,
}

/// Share classes of DRA's VMs ("a mix of high, medium and low shares that
/// correspond to a ratio of 4:2:1").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShareClass {
    /// Share weight 4.
    High,
    /// Share weight 2.
    Medium,
    /// Share weight 1.
    Low,
}

impl ShareClass {
    /// The share weight.
    pub(crate) fn weight(self) -> f64 {
        match self {
            ShareClass::High => 4.0,
            ShareClass::Medium => 2.0,
            ShareClass::Low => 1.0,
        }
    }

    /// Statically assigns the class of VM `id` so the fleet has the paper's
    /// high/medium/low mix.
    pub(crate) fn of_vm(id: usize) -> Self {
        match id % 3 {
            0 => ShareClass::High,
            1 => ShareClass::Medium,
            _ => ShareClass::Low,
        }
    }
}

impl DraPredictor {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl VmPredictorCore for DraPredictor {
    /// Folds one slot's observed unused totals for `vm`.
    fn observe(&mut self, vm: usize, unused: &ResourceVector) {
        entry(&mut self.histories, vm, VmWindow::default).push(*unused);
    }

    /// Predicts `vm`'s unused vector as the plain mean of the recent
    /// window. `None` before any observation.
    fn predict(&self, vm: usize) -> Option<ResourceVector> {
        let history = self.histories.get(vm).filter(|h| h.len() > 0)?;
        let mut out = ResourceVector::ZERO;
        for k in 0..NUM_RESOURCES {
            let sum: f64 = history.iter().map(|u| u[k]).sum();
            out[k] = (sum / history.len() as f64).max(0.0);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::reference_stream::{bits, observation, ASKED, OBSERVED};
    use std::collections::HashMap;

    /// The estimator before the per-VM windows: a map of shifted `Vec`s.
    #[derive(Default)]
    struct Reference {
        histories: HashMap<usize, [Vec<f64>; NUM_RESOURCES]>,
    }

    impl Reference {
        fn observe(&mut self, vm: usize, unused: &ResourceVector) {
            let entry = self
                .histories
                .entry(vm)
                .or_insert_with(|| std::array::from_fn(|_| Vec::new()));
            for (k, h) in entry.iter_mut().enumerate() {
                if h.len() == WINDOW {
                    h.remove(0);
                }
                h.push(unused[k]);
            }
        }

        fn predict(&self, vm: usize) -> Option<ResourceVector> {
            let histories = self.histories.get(&vm)?;
            let mut out = ResourceVector::ZERO;
            for k in 0..NUM_RESOURCES {
                out[k] = corp_stats::mean(&histories[k]).max(0.0);
            }
            Some(out)
        }
    }

    #[test]
    fn windows_equal_the_hashmap_reference_bit_for_bit() {
        let (mut fast, mut slow) = (DraPredictor::new(), Reference::default());
        for round in 0..3 * WINDOW + 5 {
            for vm in OBSERVED {
                let u = observation(vm, round);
                fast.observe(vm, &u);
                slow.observe(vm, &u);
            }
            for vm in ASKED {
                let want = slow.predict(vm);
                assert_eq!(bits(fast.predict(vm)), bits(want), "vm {vm} round {round}");
                assert_eq!(want.is_some(), OBSERVED.contains(&vm));
            }
        }
    }

    #[test]
    fn share_mix_covers_all_classes_in_ratio() {
        let mut counts = [0usize; 3];
        for id in 0..300 {
            match ShareClass::of_vm(id) {
                ShareClass::High => counts[0] += 1,
                ShareClass::Medium => counts[1] += 1,
                ShareClass::Low => counts[2] += 1,
            }
        }
        assert_eq!(counts, [100, 100, 100]);
        assert_eq!(ShareClass::High.weight(), 4.0);
        assert_eq!(ShareClass::Medium.weight(), 2.0);
        assert_eq!(ShareClass::Low.weight(), 1.0);
    }

    #[test]
    fn mean_estimator_is_exact_on_constants() {
        let mut p = DraPredictor::new();
        for _ in 0..10 {
            p.observe(0, &ResourceVector::splat(4.0));
        }
        let f = p.predict(0).unwrap();
        assert!((f[0] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mean_lags_behind_level_shifts() {
        // The weakness the paper exploits: after a regime change the plain
        // mean still reflects the old level.
        let mut p = DraPredictor::new();
        for _ in 0..16 {
            p.observe(0, &ResourceVector::splat(10.0));
        }
        for _ in 0..4 {
            p.observe(0, &ResourceVector::splat(0.0));
        }
        let f = p.predict(0).unwrap();
        assert!(f[0] > 5.0, "the mean must lag: {}", f[0]);
    }

    #[test]
    fn no_prediction_without_observation() {
        assert!(DraPredictor::new().predict(3).is_none());
    }

    #[test]
    fn window_is_bounded() {
        let mut p = DraPredictor::new();
        for i in 0..100 {
            p.observe(0, &ResourceVector::splat(i as f64));
        }
        // Mean of the last WINDOW values (68..=99) = 83.5.
        let f = p.predict(0).unwrap();
        assert!((f[0] - 83.5).abs() < 1e-9);
    }
}
