//! The multi-layer network: feed-forward (Eq. 5), back-propagation
//! (Eqs. 6-7), and weight updates (Eq. 8).
//!
//! The network owns per-layer weight matrices and bias vectors plus scratch
//! buffers for activations and error terms, so a forward/backward pass
//! allocates nothing. SGD with optional momentum is implemented directly in
//! [`Network::train_on`]; epoch orchestration and validation-convergence
//! stopping live in [`crate::train`].

use crate::activation::{Activation, BOUND_SLACK};
use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One fully-connected layer.
#[derive(Debug, Clone)]
struct Layer {
    /// `weights[i][j]` = `w_ij(d-1, d)`: connection from neuron `j` in the
    /// lower layer to neuron `i` in this layer.
    weights: Matrix,
    /// Bias term `e_i` per neuron.
    biases: Vec<f64>,
    activation: Activation,
    /// Momentum buffers (same shapes as weights/biases).
    weight_velocity: Matrix,
    bias_velocity: Vec<f64>,
}

/// A feed-forward neural network with dense layers.
///
/// `layers` is never empty ([`Network::new`] asserts it): the activation
/// buffers of the network and of a [`Scratch`] are `depth() + 1`, the last
/// one the output, and a [`LaneScratch`] holds one matrix per weight layer.
#[derive(Debug, Clone)]
pub struct Network {
    layers: Vec<Layer>,
    /// Activations per layer, `activations[0]` is the input copy.
    activations: Vec<Vec<f64>>,
    /// Error terms `E_i(d)` per non-input layer.
    errors: Vec<Vec<f64>>,
}

/// External activation scratch for [`Network::forward_with`], letting many
/// threads evaluate one shared `&Network` concurrently without the network's
/// own internal buffers. Reused across calls, so steady-state inference
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    activations: Vec<Vec<f64>>,
}

impl Scratch {
    /// An empty scratch; sized lazily on first use.
    pub fn new() -> Self {
        Scratch::default()
    }

    fn ensure(&mut self, net: &Network) {
        let fits = self.activations.len() == net.layers.len() + 1
            && self
                .activations
                .iter()
                .zip(
                    std::iter::once(net.input_len())
                        .chain(net.layers.iter().map(|l| l.weights.rows())),
                )
                .all(|(buf, want)| buf.len() == want);
        if fits {
            return;
        }
        self.activations = std::iter::once(net.input_len())
            .chain(net.layers.iter().map(|l| l.weights.rows()))
            .map(|s| vec![0.0; s])
            .collect();
    }
}

/// Activations-only feature-major buffers for
/// [`Network::forward_batch_with`]: one matrix per weight layer, column `b`
/// holding lane `b`. Reshaped, never reallocated, when the
/// lane count changes, so a worker walking full lanes plus one short tail
/// allocates only on its first use.
#[derive(Debug, Clone, Default)]
pub struct LaneScratch {
    acts: Vec<Matrix>,
}

impl LaneScratch {
    /// An empty scratch; sized lazily on first use.
    pub fn new() -> Self {
        LaneScratch::default()
    }

    fn ensure(&mut self, net: &Network, cols: usize) {
        let fits = self.acts.len() == net.layers.len()
            && self
                .acts
                .iter()
                .zip(&net.layers)
                .all(|(m, l)| m.rows() == l.weights.rows());
        if fits {
            for m in &mut self.acts {
                m.reshape_cols(cols);
            }
        } else {
            self.acts = net
                .layers
                .iter()
                .map(|l| Matrix::zeros(l.weights.rows(), cols))
                .collect();
        }
    }
}

/// Eq. 5 over a feature-major batch: `acts[d]` receives layer `d`'s
/// activations, layer 0 reading `input`. Every lane accumulates in the
/// scalar dot-product order (see [`Matrix::matmul_fused_into`]), whose
/// epilogue adds the bias; the activation then runs over each output row
/// (one neuron, every lane) at once. Both are elementwise the operations
/// [`Network::forward_with`] performs, so lane `b` is bit-identical to it
/// on column `b`.
fn forward_layers(layers: &[Layer], input: &Matrix, acts: &mut [Matrix]) {
    for (d, layer) in layers.iter().enumerate() {
        let (lower, upper) = acts.split_at_mut(d);
        let x = lower.last().unwrap_or(input);
        let out = &mut upper[0];
        layer
            .weights
            .matmul_fused_into(x, out, |i, acc| acc + layer.biases[i]);
        for row in out.as_mut_slice().chunks_exact_mut(x.cols()) {
            layer.activation.apply_row(row);
        }
    }
}

/// Eq. 5 for one sample, the path of [`Network::forward`] and
/// [`Network::forward_with`]: `acts[0]` receives `input`, `acts[d + 1]`
/// layer `d`'s activations. Each layer is the interleaved product with the
/// bias in its epilogue, then the activation over the layer's output row.
fn forward_one(layers: &[Layer], input: &[f64], acts: &mut [Vec<f64>]) {
    acts[0].copy_from_slice(input);
    for (d, layer) in layers.iter().enumerate() {
        let (lower, upper) = acts.split_at_mut(d + 1);
        layer
            .weights
            .mul_vec_fused_into(&lower[d], &mut upper[0], |i, acc| acc + layer.biases[i]);
        layer.activation.apply_row(&mut upper[0]);
    }
}

impl Network {
    /// Builds a network with the given layer sizes, e.g. `[12, 50, 50, 50,
    /// 50, 1]` for the paper's 4 hidden layers of 50 units. Hidden layers
    /// use `hidden`, the output layer uses `output`.
    ///
    /// Weights are initialized uniformly in `±1/sqrt(fan_in)` (the classic
    /// recipe for sigmoid nets) from a seeded RNG, so construction is
    /// deterministic.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    pub fn new(sizes: &[usize], hidden: Activation, output: Activation, seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for w in sizes.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let bound = 1.0 / (fan_in as f64).sqrt();
            let weights = Matrix::from_fn(fan_out, fan_in, |_, _| rng.gen_range(-bound..bound));
            let is_output = layers.len() == sizes.len() - 2;
            layers.push(Layer {
                weights,
                biases: vec![0.0; fan_out],
                activation: if is_output { output } else { hidden },
                weight_velocity: Matrix::zeros(fan_out, fan_in),
                bias_velocity: vec![0.0; fan_out],
            });
        }
        let activations = sizes.iter().map(|&s| vec![0.0; s]).collect();
        let errors = sizes[1..].iter().map(|&s| vec![0.0; s]).collect();
        Network {
            layers,
            activations,
            errors,
        }
    }

    /// Input dimension.
    pub(crate) fn input_len(&self) -> usize {
        self.activations[0].len()
    }

    /// Output dimension.
    pub(crate) fn output_len(&self) -> usize {
        self.layers[self.depth() - 1].weights.rows()
    }

    /// Number of weight layers.
    pub(crate) fn depth(&self) -> usize {
        self.layers.len()
    }

    /// An upper bound on output 0 of [`forward_with`](Self::forward_with)
    /// and [`forward_batch_with`](Self::forward_batch_with) for every input
    /// in the box `[0, 1]^input_len`, by interval propagation through every
    /// layer. Each pre-activation interval is `bias + sum_j` of the ends of
    /// `w_ij * [lo_j, hi_j]`, widened by [`BOUND_SLACK`] times the terms'
    /// magnitude plus [`BOUND_SLACK`], which covers both the forward's
    /// rounding and this sum's own; each activation bound is padded the
    /// same way ([`Activation::bounds`]). `None` when a weight, a bias or
    /// the bound is not finite.
    pub(crate) fn output_upper_bound(&self) -> Option<f64> {
        let mut lo = vec![0.0; self.input_len()];
        let mut hi = vec![1.0; self.input_len()];
        for layer in &self.layers {
            let rows = layer.biases.len();
            let (mut next_lo, mut next_hi) = (Vec::with_capacity(rows), Vec::with_capacity(rows));
            for (i, &bias) in layer.biases.iter().enumerate() {
                let (mut z_lo, mut z_hi, mut magnitude) = (bias, bias, bias.abs());
                for ((&w, &l), &h) in layer.weights.row(i).iter().zip(&lo).zip(&hi) {
                    let (a, b) = (w * l, w * h);
                    z_lo += a.min(b);
                    z_hi += a.max(b);
                    magnitude += w.abs() * l.abs().max(h.abs());
                }
                if !magnitude.is_finite() {
                    return None;
                }
                let slack = BOUND_SLACK * magnitude + BOUND_SLACK;
                let (a_lo, a_hi) = layer.activation.bounds(z_lo - slack, z_hi + slack);
                next_lo.push(a_lo);
                next_hi.push(a_hi);
            }
            lo = next_lo;
            hi = next_hi;
        }
        Some(hi[0]).filter(|y| y.is_finite())
    }

    /// Feed-forward evaluation (paper Eq. 5). Returns the output slice.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` does not match the input layer.
    pub fn forward(&mut self, input: &[f64]) -> &[f64] {
        assert_eq!(input.len(), self.input_len(), "input length mismatch");
        forward_one(&self.layers, input, &mut self.activations);
        &self.activations[self.depth()]
    }

    /// Feed-forward evaluation through caller-provided scratch, leaving the
    /// network immutable so many threads can share one `&Network`.
    /// Bit-identical to [`forward`](Self::forward): both run the same
    /// loop.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` does not match the input layer.
    pub fn forward_with<'s>(&self, input: &[f64], scratch: &'s mut Scratch) -> &'s [f64] {
        scratch.ensure(self);
        assert_eq!(input.len(), self.input_len(), "input length mismatch");
        forward_one(&self.layers, input, &mut scratch.activations);
        &scratch.activations[self.depth()]
    }

    /// Inference over a feature-major batch (`input` is `input_len x lanes`,
    /// column `b` = lane `b`) through caller-provided scratch. Returns the
    /// `output_len x lanes` output batch. Lane `b` is bit-identical to
    /// [`forward_with`](Self::forward_with) on column `b`, whatever the
    /// lane count: the blocked kernel vectorises *across* lanes and keeps
    /// each lane's left-to-right add chain.
    ///
    /// # Panics
    ///
    /// Panics if `input.rows()` does not match the input layer.
    pub fn forward_batch_with<'s>(
        &self,
        input: &Matrix,
        scratch: &'s mut LaneScratch,
    ) -> &'s Matrix {
        assert_eq!(input.rows(), self.input_len(), "input length mismatch");
        scratch.ensure(self, input.cols());
        forward_layers(&self.layers, input, &mut scratch.acts);
        &scratch.acts[self.depth() - 1]
    }

    /// One stochastic training step on a single example: forward pass,
    /// back-propagation of error terms (Eqs. 6-7), and weight update
    /// (Eq. 8) with learning rate `mu` and momentum factor `momentum`
    /// (0.0 recovers the paper's plain update).
    ///
    /// Returns the example's squared error before the update.
    ///
    /// # Panics
    ///
    /// Panics if input/target lengths mismatch the architecture.
    pub fn train_on(&mut self, input: &[f64], target: &[f64], mu: f64, momentum: f64) -> f64 {
        assert_eq!(target.len(), self.output_len(), "target length mismatch");
        self.forward(input);

        // Output-layer error terms: E_i = (t_i - g_i) * F'(g_i)  (Eq. 6).
        let out_idx = self.layers.len() - 1;
        let mut sq_err = 0.0;
        {
            let g_out = &self.activations[out_idx + 1];
            let act = self.layers[out_idx].activation;
            for ((e, &g), &t) in self.errors[out_idx].iter_mut().zip(g_out).zip(target) {
                let diff = t - g;
                sq_err += diff * diff;
                *e = diff * act.derivative_from_output(g);
            }
        }

        // Hidden-layer error terms: E_i(d) = (sum_j E_j(d+1) w_ji) F'(g_i)
        // (Eq. 7), computed top-down.
        for d in (0..out_idx).rev() {
            let (lower_errs, upper_errs) = self.errors.split_at_mut(d + 1);
            let e_cur = &mut lower_errs[d];
            let e_up = &upper_errs[0];
            self.layers[d + 1]
                .weights
                .mul_vec_transposed_into(e_up, e_cur);
            let act = self.layers[d].activation;
            for (e, &g) in e_cur.iter_mut().zip(&self.activations[d + 1]) {
                *e *= act.derivative_from_output(g);
            }
        }

        // Weight updates: dw_ij = mu * E_i(d) * g_j(d-1)  (Eq. 8), with an
        // optional classical-momentum velocity term. The fused step is
        // bit-identical to the scale/add_outer/add_assign sequence it
        // replaces (see `Matrix::momentum_step`).
        for (d, layer) in self.layers.iter_mut().enumerate() {
            let errs = &self.errors[d];
            let g_prev = &self.activations[d];
            if momentum > 0.0 {
                layer
                    .weights
                    .momentum_step(&mut layer.weight_velocity, errs, g_prev, momentum, mu);
                for ((b, v), e) in layer
                    .biases
                    .iter_mut()
                    .zip(&mut layer.bias_velocity)
                    .zip(errs)
                {
                    *v = momentum * *v + mu * e;
                    *b += *v;
                }
            } else {
                layer.weights.add_outer_scaled(errs, g_prev, mu);
                for (b, e) in layer.biases.iter_mut().zip(errs) {
                    *b += mu * e;
                }
            }
        }
        sq_err
    }

    /// Mean squared error of the network over a dataset, without updating
    /// weights.
    pub(crate) fn mse(&mut self, inputs: &[Vec<f64>], targets: &[Vec<f64>]) -> f64 {
        assert_eq!(inputs.len(), targets.len(), "dataset length mismatch");
        if inputs.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for (x, t) in inputs.iter().zip(targets) {
            let y = self.forward(x);
            total += y.iter().zip(t).map(|(a, b)| (a - b) * (a - b)).sum::<f64>();
        }
        total / inputs.len() as f64
    }

    /// Access to a layer's weight matrix (tests, gradient checks).
    #[cfg(test)]
    pub(crate) fn layer_weights(&self, d: usize) -> &Matrix {
        &self.layers[d].weights
    }

    /// Mutable access to a layer's weight matrix (gradient checks perturb
    /// single weights).
    #[cfg(test)]
    pub(crate) fn layer_weights_mut(&mut self, d: usize) -> &mut Matrix {
        &mut self.layers[d].weights
    }

    /// Access to a layer's bias vector (tests).
    #[cfg(test)]
    pub(crate) fn layer_biases(&self, d: usize) -> &[f64] {
        &self.layers[d].biases
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pre-optimization per-sample training step, kept verbatim
    /// (unfused forward, three-pass momentum update) as the reference the
    /// fused [`Network::train_on`] is held to bit for bit.
    fn train_on_reference(
        net: &mut Network,
        input: &[f64],
        target: &[f64],
        mu: f64,
        momentum: f64,
    ) -> f64 {
        assert_eq!(target.len(), net.output_len(), "target length mismatch");
        assert_eq!(input.len(), net.input_len(), "input length mismatch");
        net.activations[0].copy_from_slice(input);
        for (d, layer) in net.layers.iter().enumerate() {
            let (lower, upper) = net.activations.split_at_mut(d + 1);
            let g_cur = &mut upper[0];
            layer.weights.mul_vec_into(&lower[d], g_cur);
            for (g, b) in g_cur.iter_mut().zip(&layer.biases) {
                *g = layer.activation.apply(*g + b);
            }
        }

        let out_idx = net.layers.len() - 1;
        let mut sq_err = 0.0;
        {
            let g_out = &net.activations[out_idx + 1];
            let act = net.layers[out_idx].activation;
            for ((e, &g), &t) in net.errors[out_idx].iter_mut().zip(g_out).zip(target) {
                let diff = t - g;
                sq_err += diff * diff;
                *e = diff * act.derivative_from_output(g);
            }
        }

        for d in (0..out_idx).rev() {
            let (lower_errs, upper_errs) = net.errors.split_at_mut(d + 1);
            let e_cur = &mut lower_errs[d];
            let e_up = &upper_errs[0];
            net.layers[d + 1]
                .weights
                .mul_vec_transposed_into(e_up, e_cur);
            let act = net.layers[d].activation;
            for (e, &g) in e_cur.iter_mut().zip(&net.activations[d + 1]) {
                *e *= act.derivative_from_output(g);
            }
        }

        for (d, layer) in net.layers.iter_mut().enumerate() {
            let errs = &net.errors[d];
            let g_prev = &net.activations[d];
            if momentum > 0.0 {
                layer.weight_velocity.scale(momentum);
                layer.weight_velocity.add_outer_scaled(errs, g_prev, mu);
                layer.weights.add_assign(&layer.weight_velocity);
                for ((b, v), e) in layer
                    .biases
                    .iter_mut()
                    .zip(&mut layer.bias_velocity)
                    .zip(errs)
                {
                    *v = momentum * *v + mu * e;
                    *b += *v;
                }
            } else {
                layer.weights.add_outer_scaled(errs, g_prev, mu);
                for (b, e) in layer.biases.iter_mut().zip(errs) {
                    *b += mu * e;
                }
            }
        }
        sq_err
    }

    #[test]
    fn forward_output_has_right_shape() {
        let mut net = Network::new(&[3, 5, 2], Activation::Sigmoid, Activation::Identity, 1);
        let out = net.forward(&[0.1, 0.2, 0.3]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn construction_is_deterministic_per_seed() {
        let a = Network::new(&[3, 4, 1], Activation::Sigmoid, Activation::Identity, 7);
        let b = Network::new(&[3, 4, 1], Activation::Sigmoid, Activation::Identity, 7);
        assert_eq!(a.layer_weights(0).as_slice(), b.layer_weights(0).as_slice());
    }

    #[test]
    fn sigmoid_hidden_activations_bounded() {
        let mut net = Network::new(&[2, 8, 1], Activation::Sigmoid, Activation::Sigmoid, 3);
        let out = net.forward(&[100.0, -100.0]);
        assert!(out[0] > 0.0 && out[0] < 1.0);
    }

    #[test]
    fn training_reduces_error_on_linear_task() {
        // y = 0.5*x0 - 0.25*x1 is learnable by a tiny net.
        let mut net = Network::new(&[2, 8, 1], Activation::Sigmoid, Activation::Identity, 5);
        let data: Vec<(Vec<f64>, Vec<f64>)> = (0..50)
            .map(|i| {
                let x0 = (i % 10) as f64 / 10.0;
                let x1 = (i / 10) as f64 / 5.0;
                (vec![x0, x1], vec![0.5 * x0 - 0.25 * x1])
            })
            .collect();
        let inputs: Vec<Vec<f64>> = data.iter().map(|d| d.0.clone()).collect();
        let targets: Vec<Vec<f64>> = data.iter().map(|d| d.1.clone()).collect();
        let before = net.mse(&inputs, &targets);
        for _ in 0..200 {
            for (x, t) in inputs.iter().zip(&targets) {
                net.train_on(x, t, 0.1, 0.0);
            }
        }
        let after = net.mse(&inputs, &targets);
        assert!(after < before * 0.2, "MSE {before} -> {after} insufficient");
    }

    #[test]
    fn momentum_training_also_converges() {
        let mut net = Network::new(&[1, 6, 1], Activation::Sigmoid, Activation::Identity, 9);
        let inputs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 20.0]).collect();
        let targets: Vec<Vec<f64>> = inputs.iter().map(|x| vec![x[0] * x[0]]).collect();
        for _ in 0..300 {
            for (x, t) in inputs.iter().zip(&targets) {
                net.train_on(x, t, 0.05, 0.9);
            }
        }
        assert!(net.mse(&inputs, &targets) < 0.01);
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        // The definitive Eq. 6-8 correctness test: analytic gradient (via a
        // mu=1 update direction) must match numeric d(loss)/d(w).
        let net = Network::new(&[3, 4, 2], Activation::Sigmoid, Activation::Identity, 11);
        let x = [0.3, -0.6, 0.9];
        let t = [0.2, -0.1];
        let loss = |n: &mut Network| {
            let y = n.forward(&x);
            y.iter()
                .zip(&t)
                .map(|(a, b)| 0.5 * (a - b) * (a - b))
                .sum::<f64>()
        };
        // Analytic gradient: train_on applies dw = mu * E * g with
        // E = (t-y)F', which is exactly -d(loss)/dw, so compare the weight
        // delta (at mu=1) to the negative numeric gradient.
        for layer in 0..2 {
            for r in 0..net.layer_weights(layer).rows() {
                for c in 0..net.layer_weights(layer).cols() {
                    let eps = 1e-6;
                    let mut probe = net.clone();
                    *probe.layer_weights_mut(layer).get_mut(r, c) += eps;
                    let lp = loss(&mut probe);
                    let mut probe2 = net.clone();
                    *probe2.layer_weights_mut(layer).get_mut(r, c) -= eps;
                    let lm = loss(&mut probe2);
                    let numeric = (lp - lm) / (2.0 * eps);

                    let mut trained = net.clone();
                    let w_before = trained.layer_weights(layer).get(r, c);
                    trained.train_on(&x, &t, 1.0, 0.0);
                    let analytic = trained.layer_weights(layer).get(r, c) - w_before;

                    assert!(
                        (analytic + numeric).abs() < 1e-4,
                        "layer {layer} w[{r}][{c}]: update {analytic} vs -grad {}",
                        -numeric
                    );
                }
            }
        }
    }

    fn toy_dataset(n: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let inputs: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i % 10) as f64 / 10.0, (i / 10) as f64 / 5.0])
            .collect();
        let targets: Vec<Vec<f64>> = inputs
            .iter()
            .map(|x| vec![0.5 * x[0] - 0.25 * x[1]])
            .collect();
        (inputs, targets)
    }

    /// Window-6 examples of a wavy unused series, each target 6 slots past
    /// its window's end and both scaled by the window's maximum: the
    /// dataset `UnusedResourcePredictor::fit` builds.
    fn window_dataset(series_len: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let (window, horizon) = (6, 6);
        let series: Vec<f64> = (0..series_len)
            .map(|t| 0.4 + 0.3 * (t as f64 * 0.7).sin() + 0.05 * ((t * 7) % 5) as f64)
            .collect();
        (0..=series_len - window - horizon)
            .map(|start| {
                let recent = &series[start..start + window];
                let scale = recent.iter().cloned().fold(0.0f64, f64::max).max(1e-9);
                let target = series[start + window + horizon - 1] / scale;
                (recent.iter().map(|v| v / scale).collect(), vec![target])
            })
            .unzip()
    }

    #[test]
    fn fused_train_on_is_bit_identical_to_reference_kernels() {
        // A toy shape, then the two CORP ships — Table II's 4x50 and
        // `CorpConfig::fast()`'s 2x12 on a 6-slot window with a 6-slot
        // horizon — at the trainer's learning rate and momentum 0.5.
        use crate::train::{LEARNING_RATE, MOMENTUM};
        let toy = toy_dataset(30);
        let windows = window_dataset(60);
        let cases: [(&[usize], _, f64); 3] = [
            (&[2, 8, 4, 1], &toy, 0.1),
            (&[6, 50, 50, 50, 50, 1], &windows, LEARNING_RATE),
            (&[6, 12, 12, 1], &windows, LEARNING_RATE),
        ];
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (sizes, (inputs, targets), mu) in cases {
            let mut fused = Network::new(sizes, Activation::Sigmoid, Activation::Identity, 13);
            let mut reference = fused.clone();
            for _ in 0..5 {
                for (x, t) in inputs.iter().zip(targets) {
                    let a = fused.train_on(x, t, mu, MOMENTUM);
                    let b = train_on_reference(&mut reference, x, t, mu, MOMENTUM);
                    assert_eq!(a.to_bits(), b.to_bits(), "{sizes:?}: loss diverged");
                }
            }
            for d in 0..fused.depth() {
                assert_eq!(
                    bits(fused.layer_weights(d).as_slice()),
                    bits(reference.layer_weights(d).as_slice()),
                    "{sizes:?}: layer {d} weights diverged"
                );
                assert_eq!(
                    bits(fused.layer_biases(d)),
                    bits(reference.layer_biases(d)),
                    "{sizes:?}: layer {d} biases diverged"
                );
            }
        }
    }

    #[test]
    fn fused_train_on_matches_reference_without_momentum() {
        let mut fused = Network::new(&[2, 6, 1], Activation::Sigmoid, Activation::Identity, 21);
        let mut reference = fused.clone();
        let (inputs, targets) = toy_dataset(20);
        for (x, t) in inputs.iter().zip(&targets) {
            let a = fused.train_on(x, t, 0.1, 0.0);
            let b = train_on_reference(&mut reference, x, t, 0.1, 0.0);
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            fused.layer_weights(0).as_slice(),
            reference.layer_weights(0).as_slice()
        );
    }

    #[test]
    fn forward_with_external_scratch_is_bit_identical_to_forward() {
        let mut net = Network::new(&[3, 7, 5, 2], Activation::Sigmoid, Activation::Identity, 17);
        let mut scratch = Scratch::new();
        for i in 0..10 {
            let x = [i as f64 * 0.1, -(i as f64) * 0.05, 0.3];
            let shared = {
                let y = net.forward_with(&x, &mut scratch);
                y.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            let owned: Vec<u64> = net.forward(&x).iter().map(|v| v.to_bits()).collect();
            assert_eq!(shared, owned);
        }
    }

    #[test]
    fn batched_forward_lanes_are_bit_identical_to_forward_with() {
        let net = Network::new(
            &[6, 13, 9, 2],
            Activation::Sigmoid,
            Activation::Identity,
            41,
        );
        let mut lanes = LaneScratch::new();
        let mut single = Scratch::new();
        // One scratch across alternating lane counts: a full lane, the
        // chunk's short tail, a single lane, then full again.
        for n in [64, 28, 1, 64] {
            let x = Matrix::from_fn(6, n, |r, c| ((r * 31 + c * 7 + n) as f64 * 0.11).sin());
            let y = net.forward_batch_with(&x, &mut lanes);
            assert_eq!((y.rows(), y.cols()), (2, n));
            for b in 0..n {
                let col: Vec<f64> = (0..6).map(|k| x.get(k, b)).collect();
                let want = net.forward_with(&col, &mut single);
                for (i, w) in want.iter().enumerate() {
                    assert_eq!(y.get(i, b).to_bits(), w.to_bits(), "n {n} lane {b} out {i}");
                }
            }
        }
    }

    /// A sigmoid network with `Network::new`'s weights and biases drawn
    /// from `±1`, every parameter multiplied by `gain`: at 10 and 100 most
    /// hidden units saturate.
    fn random_network(sizes: &[usize], seed: u64, gain: f64) -> Network {
        let mut net = Network::new(sizes, Activation::Sigmoid, Activation::Identity, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB1A5);
        for layer in &mut net.layers {
            layer.weights.scale(gain);
            for b in &mut layer.biases {
                *b = gain * rng.gen_range(-1.0..1.0);
            }
        }
        net
    }

    /// The 64 corners of `[0, 1]^6` followed by `random` uniform points, as
    /// the columns of a feature-major batch.
    fn unit_box_batch(random: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(6, 64 + random, |r, c| {
            if c < 64 {
                ((c >> r) & 1) as f64
            } else {
                rng.gen_range(0.0..=1.0)
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn no_input_in_the_unit_box_exceeds_the_output_bound(
            seed in 0u64..u64::MAX,
            table2 in 0u8..2,
            gain_exp in 0i32..3,
        ) {
            // Table II's shape and `CorpConfig::fast()`'s.
            let sizes: &[usize] = if table2 == 1 { &[6, 50, 50, 50, 50, 1] } else { &[6, 12, 12, 1] };
            let net = random_network(sizes, seed, 10f64.powi(gain_exp));
            let y_hi = net.output_upper_bound().expect("finite weights have a finite bound");
            let x = unit_box_batch(192, seed);
            let mut lanes = LaneScratch::new();
            let y = net.forward_batch_with(&x, &mut lanes);
            for b in 0..x.cols() {
                prop_assert!(y.get(0, b) <= y_hi, "lane {}: {} > bound {}", b, y.get(0, b), y_hi);
            }
        }
    }

    #[test]
    fn a_non_finite_weight_has_no_bound() {
        let mut net = random_network(&[6, 12, 12, 1], 5, 1.0);
        assert!(net.output_upper_bound().is_some());
        *net.layer_weights_mut(1).get_mut(3, 4) = f64::INFINITY;
        assert_eq!(net.output_upper_bound(), None);
        *net.layer_weights_mut(1).get_mut(3, 4) = f64::NAN;
        assert_eq!(net.output_upper_bound(), None);
    }

    #[test]
    fn mse_of_empty_dataset_is_zero() {
        let mut net = Network::new(&[2, 3, 1], Activation::Sigmoid, Activation::Identity, 1);
        assert_eq!(net.mse(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic]
    fn forward_rejects_wrong_input_len() {
        let mut net = Network::new(&[3, 2, 1], Activation::Sigmoid, Activation::Identity, 1);
        net.forward(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn new_rejects_single_layer() {
        Network::new(&[3], Activation::Sigmoid, Activation::Identity, 1);
    }
}
