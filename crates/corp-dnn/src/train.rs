//! Epoch-based training with held-out validation convergence.
//!
//! Section III-A: "the training continues for multiple training epochs,
//! processing the training data set each time, until the validation set
//! error converges to a low value." [`Trainer`] implements exactly that
//! protocol: shuffle, run SGD over the training split each epoch, evaluate
//! on the validation split, and stop when the relative improvement stays
//! below a tolerance for `patience` consecutive epochs (or a hard epoch cap
//! is reached).

use crate::network::Network;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Training hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Learning rate `mu` of paper Eq. 8.
    pub learning_rate: f64,
    /// Classical momentum factor (0.0 = paper's plain SGD).
    pub momentum: f64,
    /// Maximum number of epochs.
    pub max_epochs: usize,
    /// Fraction of the dataset held out for validation, in `(0, 1)`.
    pub validation_fraction: f64,
    /// Relative validation-MSE improvement below which an epoch counts as
    /// "converged".
    pub tolerance: f64,
    /// Number of consecutive converged epochs required to stop.
    pub patience: usize,
    /// Shuffle seed (training is deterministic per seed).
    pub seed: u64,
    /// Run the pre-optimization per-sample kernels
    /// ([`Network::train_on_reference`]) instead of the fused ones. The two
    /// are bit-identical; this switch exists so the determinism suite can
    /// A/B them end-to-end.
    pub reference_kernels: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            learning_rate: 0.05,
            momentum: 0.5,
            max_epochs: 200,
            validation_fraction: 0.2,
            tolerance: 1e-4,
            patience: 5,
            seed: 0x5EED,
            reference_kernels: false,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainReport {
    /// Number of epochs actually executed.
    pub epochs_run: usize,
    /// Validation MSE after the final epoch.
    pub final_validation_mse: f64,
    /// Validation MSE after each epoch (for convergence plots/tests).
    pub validation_history: Vec<f64>,
    /// True if stopping was triggered by convergence rather than the epoch
    /// cap.
    pub converged: bool,
}

/// Orchestrates epochs of SGD with validation-based early stopping.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

/// What [`Trainer::split`] hands back: the RNG mid-stream (so per-epoch
/// shuffles continue the same sequence), the training-set order, and the
/// held-out validation inputs and targets.
type Split = (StdRng, Vec<usize>, Vec<Vec<f64>>, Vec<Vec<f64>>);

impl Trainer {
    /// Creates a trainer.
    ///
    /// # Panics
    ///
    /// Panics if the validation fraction is outside `(0, 1)`, the learning
    /// rate is not positive, or patience is zero.
    pub fn new(config: TrainConfig) -> Self {
        assert!(
            config.validation_fraction > 0.0 && config.validation_fraction < 1.0,
            "validation fraction must be in (0,1)"
        );
        assert!(config.learning_rate > 0.0, "learning rate must be positive");
        assert!(config.patience > 0, "patience must be at least 1");
        Trainer { config }
    }

    /// Trains `net` on `(inputs, targets)` and returns a report.
    ///
    /// The last `validation_fraction` of the (shuffled once) dataset forms
    /// the held-out split; the rest is visited in a fresh shuffled order
    /// every epoch.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty, lengths mismatch, or the dataset is
    /// too small to produce both splits.
    pub fn train(
        &self,
        net: &mut Network,
        inputs: &[Vec<f64>],
        targets: &[Vec<f64>],
    ) -> TrainReport {
        let (mut rng, mut train_order, val_inputs, val_targets) = self.split(inputs, targets);
        let mut stop = Convergence::new(self.config.tolerance, self.config.patience);

        for _epoch in 0..self.config.max_epochs {
            train_order.shuffle(&mut rng);
            for &i in &train_order {
                if self.config.reference_kernels {
                    net.train_on_reference(
                        &inputs[i],
                        &targets[i],
                        self.config.learning_rate,
                        self.config.momentum,
                    );
                } else {
                    net.train_on(
                        &inputs[i],
                        &targets[i],
                        self.config.learning_rate,
                        self.config.momentum,
                    );
                }
            }
            let val_mse = net.mse(&val_inputs, &val_targets);
            if stop.record(val_mse) {
                break;
            }
        }
        stop.into_report()
    }

    /// Shuffles once, carves off the validation split, and returns the RNG
    /// mid-stream so per-epoch shuffles continue the same sequence.
    fn split(&self, inputs: &[Vec<f64>], targets: &[Vec<f64>]) -> Split {
        assert_eq!(inputs.len(), targets.len(), "dataset length mismatch");
        assert!(!inputs.is_empty(), "cannot train on an empty dataset");

        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        order.shuffle(&mut rng);

        let val_len = ((inputs.len() as f64) * self.config.validation_fraction).round() as usize;
        let val_len = val_len.clamp(1, inputs.len().saturating_sub(1).max(1));
        let (train_idx, val_idx) = order.split_at(inputs.len() - val_len);
        assert!(
            !train_idx.is_empty(),
            "dataset too small for the validation split"
        );

        let val_inputs: Vec<Vec<f64>> = val_idx.iter().map(|&i| inputs[i].clone()).collect();
        let val_targets: Vec<Vec<f64>> = val_idx.iter().map(|&i| targets[i].clone()).collect();
        (rng, train_idx.to_vec(), val_inputs, val_targets)
    }
}

/// The validation-convergence state machine (relative-improvement
/// tolerance with patience).
struct Convergence {
    tolerance: f64,
    patience: usize,
    history: Vec<f64>,
    best: f64,
    calm_epochs: usize,
    converged: bool,
}

impl Convergence {
    fn new(tolerance: f64, patience: usize) -> Self {
        Convergence {
            tolerance,
            patience,
            history: Vec::new(),
            best: f64::INFINITY,
            calm_epochs: 0,
            converged: false,
        }
    }

    /// Records one epoch's validation MSE; returns true when training
    /// should stop.
    fn record(&mut self, val_mse: f64) -> bool {
        self.history.push(val_mse);
        let improvement = if self.best.is_finite() && self.best > 0.0 {
            (self.best - val_mse) / self.best
        } else if self.best.is_infinite() {
            1.0
        } else {
            0.0
        };
        if val_mse < self.best {
            self.best = val_mse;
        }
        if improvement < self.tolerance {
            self.calm_epochs += 1;
            if self.calm_epochs >= self.patience {
                self.converged = true;
                return true;
            }
        } else {
            self.calm_epochs = 0;
        }
        false
    }

    fn into_report(self) -> TrainReport {
        TrainReport {
            epochs_run: self.history.len(),
            final_validation_mse: *self.history.last().expect("at least one epoch runs"),
            validation_history: self.history,
            converged: self.converged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;

    fn toy_dataset(n: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let inputs: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i as f64 / n as f64), ((i * 7 % n) as f64 / n as f64)])
            .collect();
        let targets: Vec<Vec<f64>> = inputs
            .iter()
            .map(|x| vec![0.7 * x[0] + 0.2 * x[1]])
            .collect();
        (inputs, targets)
    }

    #[test]
    fn training_converges_on_learnable_task() {
        let (inputs, targets) = toy_dataset(80);
        let mut net = Network::new(&[2, 10, 1], Activation::Sigmoid, Activation::Identity, 2);
        let trainer = Trainer::new(TrainConfig {
            max_epochs: 300,
            ..TrainConfig::default()
        });
        let report = trainer.train(&mut net, &inputs, &targets);
        assert!(
            report.final_validation_mse < 0.01,
            "validation MSE too high: {}",
            report.final_validation_mse
        );
    }

    #[test]
    fn early_stopping_halts_before_cap_on_trivial_task() {
        // A constant-target task converges almost immediately.
        let inputs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
        let targets: Vec<Vec<f64>> = vec![vec![0.0]; 40];
        let mut net = Network::new(&[1, 4, 1], Activation::Sigmoid, Activation::Identity, 3);
        let trainer = Trainer::new(TrainConfig {
            max_epochs: 500,
            patience: 3,
            tolerance: 1e-3,
            ..TrainConfig::default()
        });
        let report = trainer.train(&mut net, &inputs, &targets);
        assert!(report.converged);
        assert!(report.epochs_run < 500);
    }

    #[test]
    fn report_history_matches_epochs() {
        let (inputs, targets) = toy_dataset(30);
        let mut net = Network::new(&[2, 4, 1], Activation::Sigmoid, Activation::Identity, 4);
        let trainer = Trainer::new(TrainConfig {
            max_epochs: 10,
            patience: 100,
            ..TrainConfig::default()
        });
        let report = trainer.train(&mut net, &inputs, &targets);
        assert_eq!(report.epochs_run, report.validation_history.len());
        assert_eq!(
            report.epochs_run, 10,
            "patience 100 cannot trigger in 10 epochs"
        );
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (inputs, targets) = toy_dataset(40);
        let run = |seed| {
            let mut net = Network::new(&[2, 6, 1], Activation::Sigmoid, Activation::Identity, 5);
            let trainer = Trainer::new(TrainConfig {
                seed,
                max_epochs: 20,
                patience: 50,
                ..TrainConfig::default()
            });
            trainer
                .train(&mut net, &inputs, &targets)
                .final_validation_mse
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn reference_kernels_reproduce_fused_training_bit_for_bit() {
        let (inputs, targets) = toy_dataset(50);
        let run = |reference_kernels| {
            let mut net = Network::new(&[2, 8, 1], Activation::Sigmoid, Activation::Identity, 6);
            let trainer = Trainer::new(TrainConfig {
                reference_kernels,
                max_epochs: 15,
                patience: 50,
                ..TrainConfig::default()
            });
            let report = trainer.train(&mut net, &inputs, &targets);
            (
                report
                    .validation_history
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                net.layer_weights(0).as_slice().to_vec(),
            )
        };
        let (fused_hist, fused_w) = run(false);
        let (ref_hist, ref_w) = run(true);
        assert_eq!(fused_hist, ref_hist);
        assert_eq!(fused_w, ref_w);
    }

    #[test]
    #[should_panic]
    fn empty_dataset_rejected() {
        let mut net = Network::new(&[2, 3, 1], Activation::Sigmoid, Activation::Identity, 1);
        Trainer::new(TrainConfig::default()).train(&mut net, &[], &[]);
    }

    #[test]
    #[should_panic]
    fn bad_validation_fraction_rejected() {
        Trainer::new(TrainConfig {
            validation_fraction: 1.5,
            ..TrainConfig::default()
        });
    }
}
