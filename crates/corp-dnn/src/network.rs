//! The multi-layer network: feed-forward (Eq. 5), back-propagation
//! (Eqs. 6-7), and weight updates (Eq. 8).
//!
//! The network owns per-layer weight matrices and bias vectors plus scratch
//! buffers for activations and error terms, so a forward/backward pass
//! allocates nothing. SGD with optional momentum is implemented directly in
//! [`Network::train_on`]; epoch orchestration and validation-convergence
//! stopping live in [`crate::train`].

use crate::activation::Activation;
use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One fully-connected layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Network {
    layers: Vec<Layer>,
    /// Activations per layer, `activations[0]` is the input copy.
    #[serde(skip)]
    activations: Vec<Vec<f64>>,
    /// Error terms `E_i(d)` per non-input layer.
    #[serde(skip)]
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
/// scalar dot-product order (see [`Matrix::matmul_fused_into`]), so lane `b`
/// is bit-identical to [`Network::forward_with`] on column `b`.
fn forward_layers(layers: &[Layer], input: &Matrix, acts: &mut [Matrix]) {
    for (d, layer) in layers.iter().enumerate() {
        let (lower, upper) = acts.split_at_mut(d);
        let x = lower.last().unwrap_or(input);
        layer.weights.matmul_fused_into(x, &mut upper[0], |i, acc| {
            layer.activation.apply(acc + layer.biases[i])
        });
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
    pub fn input_len(&self) -> usize {
        self.activations[0].len()
    }

    /// Output dimension.
    pub fn output_len(&self) -> usize {
        self.activations.last().expect("networks have layers").len()
    }

    /// Number of weight layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Re-creates the scratch buffers after deserialization (serde skips
    /// them). Called lazily by the passes; public for completeness.
    pub fn ensure_scratch(&mut self) {
        if self.activations.len() == self.layers.len() + 1 {
            return;
        }
        let mut sizes = Vec::with_capacity(self.layers.len() + 1);
        sizes.push(self.layers[0].weights.cols());
        for l in &self.layers {
            sizes.push(l.weights.rows());
        }
        self.activations = sizes.iter().map(|&s| vec![0.0; s]).collect();
        self.errors = sizes[1..].iter().map(|&s| vec![0.0; s]).collect();
    }

    /// Feed-forward evaluation (paper Eq. 5). Returns the output slice.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` does not match the input layer.
    pub fn forward(&mut self, input: &[f64]) -> &[f64] {
        self.ensure_scratch();
        assert_eq!(input.len(), self.input_len(), "input length mismatch");
        self.activations[0].copy_from_slice(input);
        for (d, layer) in self.layers.iter().enumerate() {
            let (lower, upper) = self.activations.split_at_mut(d + 1);
            layer
                .weights
                .mul_vec_fused_into(&lower[d], &mut upper[0], |i, acc| {
                    layer.activation.apply(acc + layer.biases[i])
                });
        }
        self.activations.last().expect("networks have layers")
    }

    /// Feed-forward evaluation through caller-provided scratch, leaving the
    /// network immutable so many threads can share one `&Network`.
    /// Bit-identical to [`forward`](Self::forward): both run the same fused
    /// kernel in the same accumulation order.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` does not match the input layer.
    pub fn forward_with<'s>(&self, input: &[f64], scratch: &'s mut Scratch) -> &'s [f64] {
        scratch.ensure(self);
        assert_eq!(input.len(), self.input_len(), "input length mismatch");
        scratch.activations[0].copy_from_slice(input);
        for (d, layer) in self.layers.iter().enumerate() {
            let (lower, upper) = scratch.activations.split_at_mut(d + 1);
            layer
                .weights
                .mul_vec_fused_into(&lower[d], &mut upper[0], |i, acc| {
                    layer.activation.apply(acc + layer.biases[i])
                });
        }
        scratch.activations.last().expect("networks have layers")
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
        scratch.acts.last().expect("networks have layers")
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
            let g_out = self.activations.last().expect("layers exist");
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

    /// The pre-optimization per-sample training step, kept verbatim
    /// (unfused forward, three-pass momentum update) as the reference
    /// implementation the determinism suite A/Bs the fused kernels
    /// against. Selected via `TrainConfig::reference_kernels`.
    pub fn train_on_reference(
        &mut self,
        input: &[f64],
        target: &[f64],
        mu: f64,
        momentum: f64,
    ) -> f64 {
        assert_eq!(target.len(), self.output_len(), "target length mismatch");
        self.ensure_scratch();
        assert_eq!(input.len(), self.input_len(), "input length mismatch");
        self.activations[0].copy_from_slice(input);
        for (d, layer) in self.layers.iter().enumerate() {
            let (lower, upper) = self.activations.split_at_mut(d + 1);
            let g_cur = &mut upper[0];
            layer.weights.mul_vec_into(&lower[d], g_cur);
            for (g, b) in g_cur.iter_mut().zip(&layer.biases) {
                *g = layer.activation.apply(*g + b);
            }
        }

        let out_idx = self.layers.len() - 1;
        let mut sq_err = 0.0;
        {
            let g_out = self.activations.last().expect("layers exist");
            let act = self.layers[out_idx].activation;
            for ((e, &g), &t) in self.errors[out_idx].iter_mut().zip(g_out).zip(target) {
                let diff = t - g;
                sq_err += diff * diff;
                *e = diff * act.derivative_from_output(g);
            }
        }

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

        for (d, layer) in self.layers.iter_mut().enumerate() {
            let errs = &self.errors[d];
            let g_prev = &self.activations[d];
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

    /// Mean squared error of the network over a dataset, without updating
    /// weights.
    pub fn mse(&mut self, inputs: &[Vec<f64>], targets: &[Vec<f64>]) -> f64 {
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
    pub fn layer_weights(&self, d: usize) -> &Matrix {
        &self.layers[d].weights
    }

    /// Mutable access to a layer's weight matrix (gradient checks perturb
    /// single weights).
    pub fn layer_weights_mut(&mut self, d: usize) -> &mut Matrix {
        &mut self.layers[d].weights
    }

    /// Access to a layer's bias vector (tests).
    pub fn layer_biases(&self, d: usize) -> &[f64] {
        &self.layers[d].biases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn fused_train_on_is_bit_identical_to_reference_kernels() {
        let mut fused = Network::new(&[2, 8, 4, 1], Activation::Sigmoid, Activation::Identity, 13);
        let mut reference = fused.clone();
        let (inputs, targets) = toy_dataset(30);
        for _ in 0..5 {
            for (x, t) in inputs.iter().zip(&targets) {
                let a = fused.train_on(x, t, 0.1, 0.5);
                let b = reference.train_on_reference(x, t, 0.1, 0.5);
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        for d in 0..fused.depth() {
            let fw = fused.layer_weights(d).as_slice();
            let rw = reference.layer_weights(d).as_slice();
            assert_eq!(
                fw.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                rw.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "layer {d} weights diverged"
            );
            assert_eq!(fused.layer_biases(d), reference.layer_biases(d));
        }
    }

    #[test]
    fn fused_train_on_matches_reference_without_momentum() {
        let mut fused = Network::new(&[2, 6, 1], Activation::Sigmoid, Activation::Identity, 21);
        let mut reference = fused.clone();
        let (inputs, targets) = toy_dataset(20);
        for (x, t) in inputs.iter().zip(&targets) {
            let a = fused.train_on(x, t, 0.1, 0.0);
            let b = reference.train_on_reference(x, t, 0.1, 0.0);
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
