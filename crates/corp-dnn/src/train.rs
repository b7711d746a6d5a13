//! Epoch-based training with held-out validation convergence.
//!
//! Section III-A: "the training continues for multiple training epochs,
//! processing the training data set each time, until the validation set
//! error converges to a low value." [`Trainer`] implements exactly that
//! protocol: shuffle, run SGD over the training split each epoch, evaluate
//! on the validation split, and stop when the relative improvement stays
//! below `TOLERANCE` for `PATIENCE` consecutive epochs (or a hard epoch
//! cap is reached).

use crate::network::Network;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Learning rate `mu` of paper Eq. 8.
pub(crate) const LEARNING_RATE: f64 = 0.05;
/// Classical momentum factor. Eq. 8 is plain SGD (momentum 0); 0.5 is a
/// departure that steadies training on the noisy unused-resource series.
pub(crate) const MOMENTUM: f64 = 0.5;
/// Share of the dataset held out for validation.
const VALIDATION_FRACTION: f64 = 0.2;
/// Relative validation-MSE improvement below which an epoch counts as
/// calm.
const TOLERANCE: f64 = 1e-4;
/// Consecutive calm epochs that stop training.
const PATIENCE: usize = 5;

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Maximum number of epochs.
    pub max_epochs: usize,
    /// Shuffle seed (training is deterministic per seed).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            max_epochs: 200,
            seed: 0x5EED,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
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
    /// Panics if the epoch cap is zero.
    pub(crate) fn new(config: TrainConfig) -> Self {
        assert!(config.max_epochs > 0, "max_epochs must be at least 1");
        Trainer { config }
    }

    /// Trains `net` on `(inputs, targets)` and returns a report.
    ///
    /// The last fifth of the (shuffled once) dataset forms
    /// the held-out split; the rest is visited in a fresh shuffled order
    /// every epoch.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty, lengths mismatch, or the dataset is
    /// too small to produce both splits.
    pub(crate) fn train(
        &self,
        net: &mut Network,
        inputs: &[Vec<f64>],
        targets: &[Vec<f64>],
    ) -> TrainReport {
        let (mut rng, mut train_order, val_inputs, val_targets) = self.split(inputs, targets);
        let mut stop = Convergence::default();

        for _epoch in 0..self.config.max_epochs {
            train_order.shuffle(&mut rng);
            for &i in &train_order {
                net.train_on(&inputs[i], &targets[i], LEARNING_RATE, MOMENTUM);
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

        let val_len = ((inputs.len() as f64) * VALIDATION_FRACTION).round() as usize;
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

/// The validation-convergence state machine ([`TOLERANCE`] with
/// [`PATIENCE`]).
struct Convergence {
    history: Vec<f64>,
    best: f64,
    calm_epochs: usize,
    converged: bool,
}

impl Default for Convergence {
    fn default() -> Self {
        Convergence {
            history: Vec::new(),
            best: f64::INFINITY,
            calm_epochs: 0,
            converged: false,
        }
    }
}

impl Convergence {
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
        if improvement < TOLERANCE {
            self.calm_epochs += 1;
            if self.calm_epochs >= PATIENCE {
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
            // `Trainer::new` asserts `max_epochs >= 1`, so an epoch ran.
            final_validation_mse: self.history.last().copied().unwrap_or(f64::NAN),
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
            ..TrainConfig::default()
        });
        let report = trainer.train(&mut net, &inputs, &targets);
        assert_eq!(report.epochs_run, report.validation_history.len());
        assert!(report.epochs_run <= 10);
    }

    #[test]
    fn convergence_waits_out_its_patience() {
        // Halving the error is progress; a change under TOLERANCE is calm,
        // and so is a worse epoch. PATIENCE calm epochs in a row stop
        // training, and progress in between starts the count over.
        let mut stop = Convergence::default();
        let mut mse = 1.0;
        for _ in 0..3 {
            mse /= 2.0;
            assert!(!stop.record(mse));
        }
        for _ in 1..PATIENCE {
            assert!(!stop.record(mse * (1.0 - TOLERANCE / 2.0)));
        }
        mse /= 2.0;
        assert!(!stop.record(mse), "progress resets the calm count");
        for _ in 1..PATIENCE {
            assert!(!stop.record(mse * 2.0));
        }
        assert!(stop.record(mse), "the PATIENCE-th calm epoch stops");
        let report = stop.into_report();
        assert!(report.converged);
        assert_eq!(report.epochs_run, 4 + 2 * PATIENCE - 1);
        assert_eq!(report.final_validation_mse, mse);
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (inputs, targets) = toy_dataset(40);
        let run = |seed| {
            let mut net = Network::new(&[2, 6, 1], Activation::Sigmoid, Activation::Identity, 5);
            let trainer = Trainer::new(TrainConfig {
                seed,
                max_epochs: 20,
            });
            trainer
                .train(&mut net, &inputs, &targets)
                .final_validation_mse
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    #[should_panic]
    fn empty_dataset_rejected() {
        let mut net = Network::new(&[2, 3, 1], Activation::Sigmoid, Activation::Identity, 1);
        Trainer::new(TrainConfig::default()).train(&mut net, &[], &[]);
    }

    #[test]
    #[should_panic(expected = "max_epochs")]
    fn zero_epoch_cap_rejected() {
        Trainer::new(TrainConfig {
            max_epochs: 0,
            ..TrainConfig::default()
        });
    }
}
