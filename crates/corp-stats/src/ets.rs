//! Exponential-smoothing (ETS) forecasting.
//!
//! The RCCR baseline in the paper "used a time series forecasting technique,
//! i.e., Exponential Smoothing (ETS), to predict the amount of unused
//! resource of VMs" and then took the lower bound of a confidence interval.
//! [`SimpleExp`] is that forecaster: simple exponential smoothing (level
//! only), which suits patternless series. CORP's prediction fallback ladder
//! uses it too. It is incremental: `observe` folds one sample in O(1) and
//! `forecast(h)` extrapolates `h` steps ahead without touching history.

/// Simple exponential smoothing: `level <- alpha * x + (1 - alpha) * level`.
#[derive(Debug, Clone)]
pub struct SimpleExp {
    alpha: f64,
    level: Option<f64>,
}

impl SimpleExp {
    /// Creates a smoother with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0,1], got {alpha}"
        );
        SimpleExp { alpha, level: None }
    }

    /// Folds one observation into the level.
    pub fn observe(&mut self, x: f64) {
        self.level = Some(match self.level {
            None => x,
            Some(l) => self.alpha * x + (1.0 - self.alpha) * l,
        });
    }

    /// Folds a whole slice of observations.
    pub fn observe_all(&mut self, xs: &[f64]) {
        for &x in xs {
            self.observe(x);
        }
    }

    /// Flat forecast `h >= 1` steps ahead (SES forecasts are constant in the
    /// horizon). Returns `None` before the first observation.
    pub fn forecast(&self, _h: usize) -> Option<f64> {
        self.level
    }

    /// Current smoothed level, if any observation has been seen.
    #[cfg(test)]
    pub(crate) fn level(&self) -> Option<f64> {
        self.level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ses_first_observation_sets_level() {
        let mut s = SimpleExp::new(0.3);
        assert_eq!(s.forecast(1), None);
        s.observe(10.0);
        assert_eq!(s.forecast(1), Some(10.0));
        assert_eq!(s.forecast(50), Some(10.0), "SES forecast is horizon-flat");
    }

    #[test]
    fn ses_converges_to_constant_series() {
        let mut s = SimpleExp::new(0.5);
        for _ in 0..64 {
            s.observe(7.0);
        }
        assert!((s.forecast(1).unwrap() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn ses_recursion_matches_definition() {
        let mut s = SimpleExp::new(0.25);
        s.observe(4.0);
        s.observe(8.0);
        // level = 0.25*8 + 0.75*4 = 5.0
        assert!((s.level().unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn ses_rejects_zero_alpha() {
        SimpleExp::new(0.0);
    }
}
