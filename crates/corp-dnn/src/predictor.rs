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

use crate::matrix::{Matrix, TILE_LANES};
use crate::network::{LaneScratch, Network, OutputBound, Scratch};
use crate::train::{TrainConfig, TrainReport, Trainer};
use std::ops::Range;

/// Buckets of a normalized window's minimum: bucket `b` holds the windows
/// whose every coordinate lies in `[b / MIN_BUCKETS, 1]`, and bucket
/// `MIN_BUCKETS` the constant windows (all coordinates 1), whose output is
/// one known value. A power of two, so a query's bucket index rounds
/// nothing (see [`UnusedResourcePredictor::upper_bound`]).
const MIN_BUCKETS: usize = 16;

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
    /// The lanes that take the forward, in lane order.
    forwarded: Vec<usize>,
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
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
pub struct UnusedResourcePredictor {
    config: WindowPredictorConfig,
    net: Network,
    trained: bool,
    /// After [`fit`](Self::fit), `y_hi[b]` bounds the network's normalized
    /// output over every window in `[b / MIN_BUCKETS, 1]^window`
    /// (`Network::output_bound`), non-increasing in `b`; the last
    /// box is the one point `(1, …, 1)`, and its entry is the output there.
    /// `None` before, or when a box has no finite bound.
    y_hi: Option<[f64; MIN_BUCKETS + 1]>,
    /// After [`fit`](Self::fit), the bounds of the boxes `0..MIN_BUCKETS`,
    /// whose affine parts bound the output at each window.
    boxes: Vec<OutputBound>,
    /// After [`fit`](Self::fit), the network's output at `(1, …, 1)`, the
    /// normalized form of every constant window, from the same forward
    /// every lane takes.
    at_ones: f64,
    /// Scratch for the owned-access [`predict`](Self::predict) entry point.
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
            y_hi: None,
            at_ones: f64::NAN,
            boxes: Vec::new(),
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
        self.at_ones = self.net.forward_with(&vec![1.0; w], &mut Scratch::new())[0];
        self.boxes = (0..MIN_BUCKETS)
            .map_while(|b| self.net.output_bound(b as f64 / MIN_BUCKETS as f64))
            .collect();
        self.y_hi = Self::bucket_bounds(&self.boxes, self.at_ones);
        Some(report)
    }

    /// The constant bound of each minimum bucket's box. Box `b` lies inside
    /// every box before it, so each entry keeps the tightest bound found
    /// so far: in exact arithmetic a sub-box is never looser, and the
    /// running minimum makes that true of the rounded bounds too. The
    /// last box is a point, so its entry is the output there, `at_ones`.
    /// `None` unless every other box has a bound.
    fn bucket_bounds(boxes: &[OutputBound], at_ones: f64) -> Option<[f64; MIN_BUCKETS + 1]> {
        if boxes.len() < MIN_BUCKETS {
            return None;
        }
        let mut y_hi = [at_ones; MIN_BUCKETS + 1];
        let mut tightest = f64::INFINITY;
        for (y, bound) in y_hi.iter_mut().zip(boxes) {
            tightest = tightest.min(bound.hi);
            *y = tightest;
        }
        Some(y_hi)
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

    /// An upper bound on [`predict_with`](Self::predict_with)`(recent)`,
    /// without the forward: `(y * scale).max(0.0)` with `scale` the query
    /// window's normalization scale, `b` the bucket of its normalized
    /// minimum, `floor(MIN_BUCKETS * (min / scale))`, and `y` the smaller
    /// of `y_hi[b]` and box `b`'s affine bound at the normalized window.
    /// Rounded division is monotone, so `min / scale` is exactly the
    /// smallest coordinate the forward sees, and scaling by a power of two
    /// rounds nothing: every coordinate of a window of non-negative values
    /// lies in `[b / MIN_BUCKETS, 1]`, where both bound the network's
    /// output, and `predict_with` maps the output through the same two
    /// non-decreasing steps. `None` when untrained, without a finite
    /// bound, or when the window holds a negative (or NaN) value.
    ///
    /// # Panics
    ///
    /// Panics if `recent` is empty.
    pub fn upper_bound(&self, recent: &[f64]) -> Option<f64> {
        assert!(!recent.is_empty(), "need at least one recent observation");
        let y_hi = self.y_hi.as_ref()?;
        // The query window's values: the last `window` samples, or the
        // whole series when left-padding repeats its first value.
        let w = self.config.window;
        let window = &recent[recent.len().saturating_sub(w)..];
        if !window.iter().all(|&v| v >= 0.0) {
            return None;
        }
        let scale = Self::window_scale(window);
        let min = window.iter().copied().fold(f64::INFINITY, f64::min);
        let bucket = (MIN_BUCKETS as f64 * (min / scale)) as usize;
        let mut y = y_hi[bucket];
        if let Some(bound) = self.boxes.get(bucket) {
            // The forward's input, left-padding included.
            let pad = w - window.len();
            y = y.min(bound.at((0..w).map(|j| window[j.saturating_sub(pad)] / scale)));
        }
        Some((y * scale).max(0.0))
    }

    /// The constant bound over the whole unit box, `y_hi[0]`: no window's
    /// normalized bound in [`upper_bound`](Self::upper_bound) exceeds it.
    /// `None` when [`upper_bound`](Self::upper_bound) has no bound.
    pub fn unit_box_bound(&self) -> Option<f64> {
        self.y_hi.map(|y_hi| y_hi[0])
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
    /// to `predict_with` on lane `b` alone, whatever the lane count. A
    /// constant window normalizes to `(1, …, 1)` and takes the output the
    /// fit kept for that point instead of a forward: the same bits. The
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
        let w = self.config.window;
        let forwarded = &mut scratch.forwarded;
        forwarded.clear();
        for (b, (o, lane)) in out.iter_mut().zip(lanes).enumerate() {
            // Left-padding repeats the series' first value, which the
            // suffix holds: the padded window has the suffix's values.
            let recent = series(lane);
            let window = &recent[recent.len().saturating_sub(w)..];
            let scale = Self::window_scale(window);
            if window.iter().all(|v| v / scale == 1.0) {
                *o = (self.at_ones * scale).max(0.0);
            } else {
                forwarded.push(b);
            }
        }
        let n = forwarded.len();
        if n == 0 {
            return;
        }
        // Zero lanes pad the batch to whole register tiles: a short tile
        // costs as much as a full one, and lanes never mix. One lane
        // stays one (the forward's dot-product path).
        let cols = if n == 1 {
            1
        } else {
            n.next_multiple_of(TILE_LANES)
        };
        let input = scratch.input.get_or_insert_with(|| Matrix::zeros(w, cols));
        input.reshape(w, cols);
        let x = input.as_mut_slice();
        for (c, &b) in forwarded.iter().enumerate() {
            // `out[b]` carries the lane's scale until the forward is done.
            out[b] = Self::fill_window(series(&lanes[b]), w, &mut scratch.window);
            for (j, v) in scratch.window.iter().enumerate() {
                x[j * cols + c] = v / out[b];
            }
        }
        for row in x.chunks_exact_mut(cols) {
            row[n..].fill(0.0);
        }
        let y = self.net.forward_batch_with(input, &mut scratch.net);
        for (&b, &y) in forwarded.iter().zip(y.row(0)) {
            out[b] = (y * out[b]).max(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_config() -> WindowPredictorConfig {
        WindowPredictorConfig {
            window: 4,
            horizon: 2,
            units: 12,
            hidden_layers: 2,
            train: TrainConfig {
                max_epochs: 150,
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

    /// Trains a predictor of `window` inputs and `hidden_layers` x `units`
    /// on noisy series at random levels (seeded by `seed`).
    fn trained(
        window: usize,
        units: usize,
        hidden_layers: usize,
        seed: u64,
    ) -> UnusedResourcePredictor {
        let mut p = UnusedResourcePredictor::new(WindowPredictorConfig {
            window,
            horizon: 3,
            units,
            hidden_layers,
            train: TrainConfig {
                max_epochs: 10,
                ..TrainConfig::default()
            },
            seed,
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let histories: Vec<Vec<f64>> = (0..8)
            .map(|_| {
                let level = rng.gen_range(0.0..20.0);
                (0..30).map(|_| level * rng.gen_range(0.0..=1.0)).collect()
            })
            .collect();
        p.fit(&histories).expect("enough examples");
        p
    }

    /// A window of 6 raw values at `scale` whose normalized minimum is
    /// `m` (exactly, when `scale` is a power of two), with the maximum
    /// `scale` at `max_at`, the minimum at another position (none when
    /// `m` is 1) and the rest uniform between the two.
    fn window_with(m: f64, scale: f64, max_at: usize, rng: &mut StdRng) -> Vec<f64> {
        let min_at = (max_at + 1 + rng.gen_range(0..5usize)) % 6;
        (0..6)
            .map(|t| {
                if t == max_at {
                    scale
                } else if t == min_at {
                    m * scale
                } else {
                    scale * rng.gen_range(m..=1.0)
                }
            })
            .collect()
    }

    /// The bucket `upper_bound` must read for `recent`: the largest `b`
    /// with every normalized coordinate the forward sees at least
    /// `b / MIN_BUCKETS`.
    fn tightest_bucket(recent: &[f64], window: usize) -> usize {
        let mut scratch = Vec::new();
        let scale = UnusedResourcePredictor::fill_window(recent, window, &mut scratch);
        (0..=MIN_BUCKETS)
            .rev()
            .find(|&b| {
                scratch
                    .iter()
                    .all(|v| v / scale >= b as f64 / MIN_BUCKETS as f64)
            })
            .expect("bucket 0 holds every non-negative window")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn trained_predictions_never_exceed_their_upper_bound(
            seed in 0u64..u64::MAX,
            table2 in 0u8..2,
            scale in 1e-3f64..1e3,
            exp in -20i32..20,
        ) {
            let p = if table2 == 1 { trained(6, 50, 4, seed) } else { trained(6, 12, 2, seed) };
            let y_hi = p.y_hi.expect("a trained network has a finite bound");
            // Forward outputs over each bucket's box, its 64 corners and
            // uniform points, against its constant and affine bounds.
            let mut rng = StdRng::seed_from_u64(!seed);
            let mut lanes = LaneScratch::new();
            for (b, &bound) in y_hi.iter().enumerate() {
                let lo = b as f64 / MIN_BUCKETS as f64;
                let x = Matrix::from_fn(6, 128, |r, c| match c {
                    0..64 if (c >> r) & 1 == 1 => 1.0,
                    0..64 => lo,
                    _ => rng.gen_range(lo..=1.0),
                });
                let y = p.net.forward_batch_with(&x, &mut lanes);
                for c in 0..x.cols() {
                    let at = p.boxes.get(b).map_or(bound, |bound| bound.at((0..6).map(|r| x.get(r, c))));
                    prop_assert!(y.get(0, c) <= bound.min(at), "box {} lane {}: {} > {} or {}", b, c, y.get(0, c), bound, at);
                }
            }
            // Raw windows whose normalized minimum lies on each bucket's
            // lower edge (exact at a power-of-two scale) and inside it, the
            // maximum at every position, behind three older samples the
            // window ignores; and every suffix shorter than the window,
            // left-padded by the prediction.
            let mut scratch = PredictScratch::new();
            let mut check = |recent: &[f64]| -> Result<(), TestCaseError> {
                let bound = p.upper_bound(recent).expect("a non-negative window is bounded");
                let bucket = tightest_bucket(recent, 6);
                let got = p.predict_with(recent, &mut scratch);
                prop_assert!(got <= bound, "{:?}: {} > {}", recent, got, bound);
                if bucket == MIN_BUCKETS {
                    prop_assert_eq!(got.to_bits(), bound.to_bits(), "{:?}: a constant window's bound is its prediction", recent);
                }
                let mut window = Vec::new();
                let scale = UnusedResourcePredictor::fill_window(recent, 6, &mut window);
                let y = p.boxes.get(bucket).map_or(y_hi[bucket], |b| y_hi[bucket].min(b.at(window.iter().map(|v| v / scale))));
                prop_assert_eq!(bound.to_bits(), (y * scale).max(0.0).to_bits(), "{:?}: not bucket {}", recent, bucket);
                Ok(())
            };
            for raw_scale in [scale, 2f64.powi(exp)] {
                for b in 0..=MIN_BUCKETS {
                    let edge = b as f64 / MIN_BUCKETS as f64;
                    let inside = if b < MIN_BUCKETS { rng.gen_range(edge..edge + 1.0 / MIN_BUCKETS as f64) } else { 1.0 };
                    for m in [edge, inside] {
                        for max_at in 0..6 {
                            let mut recent = vec![raw_scale * 4.0, -raw_scale, 0.0];
                            recent.extend(window_with(m, raw_scale, max_at, &mut rng));
                            for start in 0..recent.len() {
                                check(&recent[start..])?;
                            }
                        }
                    }
                }
            }
            // All-zero windows (scale 1e-9, no coordinate at 1) and windows
            // below that floor.
            for len in 1..=9 {
                check(&vec![0.0; len])?;
                let tiny: Vec<f64> = (0..len).map(|t| (t % 3) as f64 * 4e-10).collect();
                check(&tiny)?;
            }
        }
    }

    #[test]
    fn upper_bound_needs_training_and_a_non_negative_window() {
        let untrained = UnusedResourcePredictor::new(small_config());
        assert_eq!(untrained.upper_bound(&[1.0, 2.0]), None);
        let p = trained(4, 12, 2, 9);
        assert!(p.upper_bound(&[1.0, 2.0, 3.0, 4.0]).is_some());
        // Only the query window counts: an older negative sample is
        // outside it.
        assert!(p.upper_bound(&[-1.0, 1.0, 2.0, 3.0, 4.0]).is_some());
        assert_eq!(p.upper_bound(&[1.0, -2.0, 3.0]), None);
        assert_eq!(p.upper_bound(&[1.0, f64::NAN, 3.0]), None);
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
