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

use serde::{Deserialize, Serialize};

/// Supported activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Identity => x,
        }
    }

    /// Derivative expressed in terms of the activation value `g = F(x)`.
    #[inline]
    pub fn derivative_from_output(self, g: f64) -> f64 {
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
