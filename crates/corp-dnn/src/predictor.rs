//! Sliding-window unused-resource regressor.
//!
//! This is the deep-learning predictor of Section III-A.1.a: "Each input
//! data contains CPU utilization of a job at each slot in last `Delta`
//! slots. ... To predict the unused resource of a job at time `t + L`, we
//! input CPU utilization of a job at each slot in last `Delta` slots to the
//! DNN, and the output is the amount of unused CPU resource of the job."
//!
//! One [`UnusedResourcePredictor`] is trained per resource type. Every
//! training example (and every query) is normalized by its *own* window
//! maximum, making the learned mapping scale-invariant: a 0.5-core job and
//! a 60 GB job share one model of "how unused-resource levels evolve",
//! which is what lets a single network serve a heterogeneous job
//! population. Predictions are mapped back to resource units and clamped
//! non-negative (negative unused resource is meaningless).

use crate::matrix::Matrix;
use crate::network::{LaneScratch, Network, Scratch};
use crate::train::{TrainConfig, TrainReport, Trainer};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Reusable buffers for [`UnusedResourcePredictor::predict_with`]: the
/// assembled input window plus the network's activation scratch. One per
/// worker thread lets a fleet of threads query a shared predictor with zero
/// steady-state allocation.
#[derive(Debug, Clone, Default)]
pub struct PredictScratch {
    window: Vec<f64>,
    input: Vec<f64>,
    net: Scratch,
}

impl PredictScratch {
    /// An empty scratch; sized lazily on first use.
    pub fn new() -> Self {
        PredictScratch::default()
    }
}

/// Reusable buffers for [`UnusedResourcePredictor::predict_batch_with`]:
/// one lane's window staging, the feature-major input batch and the
/// network's lane activations. One per worker thread; reshaped, not
/// reallocated, when the lane count changes.
#[derive(Debug, Clone, Default)]
pub struct PredictBatchScratch {
    window: Vec<f64>,
    input: Option<Matrix>,
    net: LaneScratch,
}

impl PredictBatchScratch {
    /// An empty scratch; sized lazily on first use.
    pub fn new() -> Self {
        PredictBatchScratch::default()
    }
}

/// Configuration for a windowed DNN predictor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WindowPredictorConfig {
    /// Input window length `Delta` (slots of history per example).
    pub window: usize,
    /// Prediction horizon `L` (slots ahead of the window's end).
    pub horizon: usize,
    /// Hidden units per layer (`N_n = 50` in Table II).
    pub units: usize,
    /// Number of hidden layers (`h = 4` in Table II).
    pub hidden_layers: usize,
    /// Training hyper-parameters.
    pub train: TrainConfig,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl Default for WindowPredictorConfig {
    fn default() -> Self {
        WindowPredictorConfig {
            window: 6,
            horizon: 6,
            units: 50,
            hidden_layers: 4,
            train: TrainConfig::default(),
            seed: 0xD11,
        }
    }
}

/// A DNN that predicts the amount of unused resource `horizon` slots ahead
/// from the last `window` slots of usage history.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UnusedResourcePredictor {
    config: WindowPredictorConfig,
    net: Network,
    trained: bool,
    /// Scratch for the owned-access [`predict`](Self::predict) entry point.
    #[serde(skip)]
    scratch: PredictScratch,
}

impl UnusedResourcePredictor {
    /// Creates an untrained predictor.
    ///
    /// # Panics
    ///
    /// Panics if window, horizon, units, or layer count is zero.
    pub fn new(config: WindowPredictorConfig) -> Self {
        assert!(config.window > 0, "window must be positive");
        assert!(config.horizon > 0, "horizon must be positive");
        assert!(config.units > 0, "units must be positive");
        assert!(config.hidden_layers > 0, "need at least one hidden layer");
        let mut sizes = Vec::with_capacity(config.hidden_layers + 2);
        sizes.push(config.window);
        sizes.extend(std::iter::repeat_n(config.units, config.hidden_layers));
        sizes.push(1);
        let net = Network::new(
            &sizes,
            crate::activation::Activation::Sigmoid,
            crate::activation::Activation::Identity,
            config.seed,
        );
        UnusedResourcePredictor {
            config,
            net,
            trained: false,
            scratch: PredictScratch::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &WindowPredictorConfig {
        &self.config
    }

    /// Whether [`fit`](Self::fit) has completed.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Builds the training set from per-job unused-resource histories and
    /// trains the network until validation convergence.
    ///
    /// Each history contributes one example per position where a full
    /// `window` plus `horizon` fits: input = `window` consecutive values,
    /// target = the value `horizon` slots after the window's end.
    ///
    /// Returns `None` if the histories yield no training examples (all too
    /// short); the predictor then stays untrained and
    /// [`predict`](Self::predict) falls back to a persistence forecast.
    pub fn fit(&mut self, histories: &[Vec<f64>]) -> Option<TrainReport> {
        let w = self.config.window;
        let h = self.config.horizon;
        let mut inputs = Vec::new();
        let mut targets = Vec::new();
        for series in histories {
            if series.len() < w + h {
                continue;
            }
            for start in 0..=(series.len() - w - h) {
                let window = &series[start..start + w];
                let scale = Self::window_scale(window);
                inputs.push(window.iter().map(|v| v / scale).collect::<Vec<f64>>());
                targets.push(vec![series[start + w + h - 1] / scale]);
            }
        }
        if inputs.len() < 4 {
            return None;
        }
        let report =
            Trainer::new(self.config.train.clone()).train(&mut self.net, &inputs, &targets);
        self.trained = true;
        Some(report)
    }

    /// Per-example normalization scale: the window maximum, floored so an
    /// all-zero window maps to zero rather than dividing by zero.
    fn window_scale(window: &[f64]) -> f64 {
        window.iter().cloned().fold(0.0f64, f64::max).max(1e-9)
    }

    /// Predicts the unused resource `horizon` slots after the end of
    /// `recent`, which must hold at least `window` values (extra leading
    /// values are ignored; shorter histories are left-padded with their
    /// first value).
    ///
    /// Untrained predictors return a persistence forecast (the last
    /// observed value), which is also the paper-accurate cold-start
    /// behaviour: with no trained model the safest estimate of near-future
    /// unused resource is the present one.
    ///
    /// # Panics
    ///
    /// Panics if `recent` is empty.
    pub fn predict(&mut self, recent: &[f64]) -> f64 {
        let mut scratch = std::mem::take(&mut self.scratch);
        let y = self.predict_with(recent, &mut scratch);
        self.scratch = scratch;
        y
    }

    /// [`predict`](Self::predict) through caller-provided scratch, leaving
    /// the predictor immutable so several threads can share one
    /// `&UnusedResourcePredictor`. Bit-identical to `predict` (same window
    /// assembly, same fused forward kernel).
    ///
    /// # Panics
    ///
    /// Panics if `recent` is empty.
    pub fn predict_with(&self, recent: &[f64], scratch: &mut PredictScratch) -> f64 {
        assert!(!recent.is_empty(), "need at least one recent observation");
        if !self.trained {
            return recent[recent.len() - 1].max(0.0);
        }
        let scale = Self::fill_window(recent, self.config.window, &mut scratch.window);
        scratch.input.clear();
        scratch
            .input
            .extend(scratch.window.iter().map(|v| v / scale));
        let y = self.net.forward_with(&scratch.input, &mut scratch.net)[0] * scale;
        y.max(0.0)
    }

    /// Assembles the query window of a non-empty `recent` series — its last
    /// `w` values, left-padded with the first value when shorter — into
    /// `window` and returns the window's normalization scale.
    fn fill_window(recent: &[f64], w: usize, window: &mut Vec<f64>) -> f64 {
        window.clear();
        if recent.len() >= w {
            window.extend_from_slice(&recent[recent.len() - w..]);
        } else {
            window.extend(std::iter::repeat_n(recent[0], w - recent.len()));
            window.extend_from_slice(recent);
        }
        Self::window_scale(window)
    }

    /// [`predict_with`](Self::predict_with) for many series at once: lane
    /// `b` is the series `flat[lanes[b].clone()]` and its prediction lands
    /// in `out[b]`. Each lane's window is assembled and scaled exactly as
    /// `predict_with` does, straight into one feature-major input batch;
    /// one blocked forward serves every lane, so `out[b]` is bit-identical
    /// to `predict_with` on lane `b` alone, whatever the lane count. The
    /// untrained predictor returns per-lane persistence.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != lanes.len()` or any lane is empty.
    pub fn predict_batch_with(
        &self,
        flat: &[f64],
        lanes: &[Range<usize>],
        out: &mut [f64],
        scratch: &mut PredictBatchScratch,
    ) {
        assert_eq!(out.len(), lanes.len(), "one output per lane");
        let series = |lane: &Range<usize>| {
            let recent = &flat[lane.clone()];
            assert!(!recent.is_empty(), "need at least one recent observation");
            recent
        };
        if !self.trained {
            for (o, lane) in out.iter_mut().zip(lanes) {
                let recent = series(lane);
                *o = recent[recent.len() - 1].max(0.0);
            }
            return;
        }
        if lanes.is_empty() {
            return;
        }
        let (w, n) = (self.config.window, lanes.len());
        let input = scratch.input.get_or_insert_with(|| Matrix::zeros(w, n));
        input.reshape(w, n);
        let x = input.as_mut_slice();
        for (b, (o, lane)) in out.iter_mut().zip(lanes).enumerate() {
            // `out[b]` carries the lane's scale until the forward is done.
            *o = Self::fill_window(series(lane), w, &mut scratch.window);
            for (j, v) in scratch.window.iter().enumerate() {
                x[j * n + b] = v / *o;
            }
        }
        let y = self.net.forward_batch_with(input, &mut scratch.net);
        for (o, &y) in out.iter_mut().zip(y.row(0)) {
            *o = (y * *o).max(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> WindowPredictorConfig {
        WindowPredictorConfig {
            window: 4,
            horizon: 2,
            units: 12,
            hidden_layers: 2,
            train: TrainConfig {
                max_epochs: 150,
                learning_rate: 0.1,
                ..TrainConfig::default()
            },
            seed: 3,
        }
    }

    #[test]
    fn untrained_predictor_uses_persistence() {
        let mut p = UnusedResourcePredictor::new(small_config());
        assert!(!p.is_trained());
        assert_eq!(p.predict(&[1.0, 2.0, 3.0]), 3.0);
    }

    #[test]
    fn fit_returns_none_for_too_short_histories() {
        let mut p = UnusedResourcePredictor::new(small_config());
        // window+horizon = 6; all series shorter.
        assert!(p.fit(&[vec![1.0; 5], vec![2.0; 3]]).is_none());
        assert!(!p.is_trained());
    }

    #[test]
    fn learns_near_constant_unused_resource() {
        let mut p = UnusedResourcePredictor::new(small_config());
        let histories: Vec<Vec<f64>> = (0..8)
            .map(|j| (0..40).map(|t| 10.0 + ((t + j) % 3) as f64 * 0.2).collect())
            .collect();
        let report = p.fit(&histories).expect("enough examples");
        assert!(report.final_validation_mse < 0.05);
        let pred = p.predict(&[10.0, 10.2, 10.0, 10.2]);
        assert!((pred - 10.1).abs() < 1.0, "prediction {pred} far from ~10");
    }

    #[test]
    fn learns_level_dependence() {
        // Two regimes: low-usage jobs (~2 unused) and high-usage (~8). The
        // DNN must map window level to target level — a task persistence
        // handles trivially but which verifies end-to-end fitting.
        let mut p = UnusedResourcePredictor::new(small_config());
        let mut histories = Vec::new();
        for j in 0..6 {
            let level = if j % 2 == 0 { 2.0 } else { 8.0 };
            histories.push((0..30).map(|t| level + (t % 2) as f64 * 0.1).collect());
        }
        p.fit(&histories).unwrap();
        let low = p.predict(&[2.0, 2.1, 2.0, 2.1]);
        let high = p.predict(&[8.0, 8.1, 8.0, 8.1]);
        assert!(
            high > low + 3.0,
            "level separation lost: low={low} high={high}"
        );
    }

    #[test]
    fn prediction_is_nonnegative() {
        let mut p = UnusedResourcePredictor::new(small_config());
        let histories: Vec<Vec<f64>> = (0..6).map(|_| vec![0.01; 30]).collect();
        p.fit(&histories).unwrap();
        assert!(p.predict(&[0.0, 0.0, 0.0, 0.0]) >= 0.0);
    }

    #[test]
    fn short_recent_history_is_padded() {
        let mut p = UnusedResourcePredictor::new(small_config());
        let histories: Vec<Vec<f64>> = (0..6).map(|_| vec![5.0; 30]).collect();
        p.fit(&histories).unwrap();
        let pred = p.predict(&[5.0]);
        assert!((pred - 5.0).abs() < 2.0);
    }

    #[test]
    fn predict_with_shared_scratch_matches_owned_predict() {
        let mut p = UnusedResourcePredictor::new(small_config());
        let histories: Vec<Vec<f64>> = (0..8)
            .map(|j| (0..40).map(|t| 4.0 + ((t + j) % 4) as f64 * 0.3).collect())
            .collect();
        p.fit(&histories).unwrap();
        let mut scratch = PredictScratch::new();
        for recent in [&[4.0, 4.3, 4.6, 4.0][..], &[4.5][..], &[0.0, 9.0][..]] {
            let shared = p.predict_with(recent, &mut scratch);
            let owned = p.predict(recent);
            assert_eq!(shared.to_bits(), owned.to_bits());
        }
    }

    #[test]
    fn paper_table2_architecture_constructs() {
        let p = UnusedResourcePredictor::new(WindowPredictorConfig::default());
        assert_eq!(p.config().units, 50);
        assert_eq!(p.config().hidden_layers, 4);
    }

    #[test]
    #[should_panic]
    fn empty_recent_rejected() {
        let mut p = UnusedResourcePredictor::new(small_config());
        p.predict(&[]);
    }
}
