//! Activation functions and their derivatives.
//!
//! The paper uses the sigmoid ("Equ. (5) is a sigmoid function, ... more
//! accurate"), so [`Activation::Sigmoid`] is every hidden layer's function,
//! and [`Activation::Identity`] is used on the output layer of the
//! regression head so predictions are not squashed into `(0, 1)`.
//!
//! Derivatives are expressed in terms of the *activation value* `g` (not
//! the pre-activation), matching the paper's `F'(g_i(d))` notation in
//! Eqs. 6-7 and avoiding a second buffer for pre-activations.
//!
//! The sigmoid's `e^-x` is the crate's port of libm's `exp` (module
//! `exp`): the same bits as `f64::exp` without the call, which lets a whole
//! row of a batched forward run as one branch-free loop.

use crate::exp;

/// Relative and absolute widening of every interval bound
/// ([`Activation::bounds`], `Network::output_upper_bound`): orders of
/// magnitude above the rounding of a forward pass (a 50-term dot product
/// rounds by under 1e-14 of its terms' magnitude), far below anything a
/// prediction resolves.
pub(crate) const BOUND_SLACK: f64 = 1e-9;

/// Supported activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Logistic sigmoid `1 / (1 + e^-x)` — the paper's `F`.
    Sigmoid,
    /// Identity (linear), for regression output layers.
    Identity,
}

impl Activation {
    /// Applies the function to a pre-activation value.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Sigmoid => 1.0 / (1.0 + exp::exp(-x)),
            Activation::Identity => x,
        }
    }

    /// [`apply`](Self::apply) to every element of `row`, bit-identical to
    /// it element by element. A sigmoid row takes two passes: one checks,
    /// without an early exit, that every input is on `exp`'s fast path (in
    /// practice all are), the second evaluates them branch-free — both
    /// vectorise; a row with any input off it goes element by element.
    pub(crate) fn apply_row(self, row: &mut [f64]) {
        match self {
            Activation::Sigmoid => {
                if row.iter().fold(true, |ok, &x| ok & exp::in_range(x)) {
                    for x in row {
                        *x = 1.0 / (1.0 + exp::exp_in_range(-*x));
                    }
                } else {
                    for x in row {
                        *x = self.apply(*x);
                    }
                }
            }
            Activation::Identity => {}
        }
    }

    /// Bounds on the activation of any pre-activation in `[lo, hi]`: the
    /// function is non-decreasing, so the ends map to the ends. A sigmoid
    /// bound is padded by [`BOUND_SLACK`] (relative and absolute) so the
    /// few ulps `apply`'s rounding may move a value cannot cross it.
    pub(crate) fn bounds(self, lo: f64, hi: f64) -> (f64, f64) {
        match self {
            Activation::Sigmoid => {
                let (lo, hi) = (self.apply(lo), self.apply(hi));
                (
                    lo - BOUND_SLACK * (lo.abs() + 1.0),
                    hi + BOUND_SLACK * (hi.abs() + 1.0),
                )
            }
            Activation::Identity => (lo, hi),
        }
    }

    /// Derivative expressed in terms of the activation value `g = F(x)`.
    #[inline]
    pub(crate) fn derivative_from_output(self, g: f64) -> f64 {
        match self {
            Activation::Sigmoid => g * (1.0 - g),
            Activation::Identity => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_midpoint_and_saturation() {
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert!(Activation::Sigmoid.apply(20.0) > 0.999_999);
        assert!(Activation::Sigmoid.apply(-20.0) < 1e-6);
    }

    #[test]
    fn sigmoid_derivative_peaks_at_half() {
        let d = Activation::Sigmoid.derivative_from_output(0.5);
        assert!((d - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_rows_are_bit_identical_to_apply_at_every_width() {
        // Inputs off exp's fast path: zero, tiny, huge, infinite, NaN.
        let off = [0.0, -1e-17, 600.0, -800.0, f64::INFINITY, f64::NAN];
        for width in 1..=130 {
            for mixed in [false, true] {
                let mut row: Vec<f64> = (0..width)
                    .map(|i| ((i * 37 + width) as f64 * 0.61).sin() * 40.0)
                    .collect();
                if mixed {
                    row[width / 2] = off[width % off.len()];
                }
                let want: Vec<u64> = row
                    .iter()
                    .map(|&x| Activation::Sigmoid.apply(x).to_bits())
                    .collect();
                Activation::Sigmoid.apply_row(&mut row);
                let got: Vec<u64> = row.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "width {width}, mixed {mixed}");
            }
        }
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-6;
        for act in [Activation::Sigmoid, Activation::Identity] {
            for &x in &[-2.0, -0.5, 0.1, 1.3, 3.0] {
                let g = act.apply(x);
                let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let analytic = act.derivative_from_output(g);
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "{act:?} at x={x}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }
}
