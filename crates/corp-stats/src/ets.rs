//! Exponential-smoothing (ETS) forecasters.
//!
//! The RCCR baseline in the paper "used a time series forecasting technique,
//! i.e., Exponential Smoothing (ETS), to predict the amount of unused
//! resource of VMs" and then took the lower bound of a confidence interval.
//! We provide two members of the family:
//!
//! * [`SimpleExp`] — simple exponential smoothing (level only), the
//!   RCCR forecaster for patternless series.
//! * [`HoltWinters`] — additive seasonal Holt-Winters, which is the variant
//!   that *does* exploit patterns; experiments use it to show why
//!   pattern-based forecasting fails on short-lived jobs.
//!
//! Both smoothers are incremental: `observe` folds one sample in O(1) and
//! `forecast(h)` extrapolates `h` steps ahead without touching history.

use serde::{Deserialize, Serialize};

/// Simple exponential smoothing: `level <- alpha * x + (1 - alpha) * level`.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    pub fn level(&self) -> Option<f64> {
        self.level
    }
}

/// Additive Holt-Winters smoothing with level, trend, and a seasonal cycle
/// of `period` slots.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HoltWinters {
    alpha: f64,
    beta: f64,
    gamma: f64,
    period: usize,
    level: f64,
    trend: f64,
    seasonal: Vec<f64>,
    warmup: Vec<f64>,
    initialized: bool,
    t: usize,
}

impl HoltWinters {
    /// Creates an additive Holt-Winters smoother.
    ///
    /// # Panics
    ///
    /// Panics if any factor is outside `(0, 1]` or `period < 2`.
    pub fn new(alpha: f64, beta: f64, gamma: f64, period: usize) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        assert!(beta > 0.0 && beta <= 1.0, "beta must be in (0,1]");
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0,1]");
        assert!(
            period >= 2,
            "seasonal period must be at least 2, got {period}"
        );
        HoltWinters {
            alpha,
            beta,
            gamma,
            period,
            level: 0.0,
            trend: 0.0,
            seasonal: Vec::new(),
            warmup: Vec::new(),
            initialized: false,
            t: 0,
        }
    }

    /// Folds one observation. The first two full periods are buffered to
    /// initialize the level/trend/seasonal components.
    pub fn observe(&mut self, x: f64) {
        if !self.initialized {
            self.warmup.push(x);
            if self.warmup.len() == 2 * self.period {
                self.initialize();
            }
            return;
        }
        let p = self.period;
        let season = self.seasonal[self.t % p];
        let new_level = self.alpha * (x - season) + (1.0 - self.alpha) * (self.level + self.trend);
        let new_trend = self.beta * (new_level - self.level) + (1.0 - self.beta) * self.trend;
        self.seasonal[self.t % p] = self.gamma * (x - new_level) + (1.0 - self.gamma) * season;
        self.level = new_level;
        self.trend = new_trend;
        self.t += 1;
    }

    fn initialize(&mut self) {
        let p = self.period;
        let first: f64 = self.warmup[..p].iter().sum::<f64>() / p as f64;
        let second: f64 = self.warmup[p..2 * p].iter().sum::<f64>() / p as f64;
        self.level = second;
        self.trend = (second - first) / p as f64;
        self.seasonal = (0..p)
            .map(|i| (self.warmup[i] - first + self.warmup[p + i] - second) / 2.0)
            .collect();
        self.warmup.clear();
        self.initialized = true;
        self.t = 0;
    }

    /// Forecast `h >= 1` steps ahead with the seasonal component folded in.
    /// Returns `None` until two full periods have been observed.
    pub fn forecast(&self, h: usize) -> Option<f64> {
        if !self.initialized {
            return None;
        }
        let p = self.period;
        let season = self.seasonal[(self.t + h - 1) % p];
        Some(self.level + h as f64 * self.trend + season)
    }

    /// Folds a whole slice of observations.
    pub fn observe_all(&mut self, xs: &[f64]) {
        for &x in xs {
            self.observe(x);
        }
    }

    /// Whether the initial two warm-up periods have completed.
    pub fn is_initialized(&self) -> bool {
        self.initialized
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

    #[test]
    fn holt_winters_learns_seasonality() {
        // Period-4 sawtooth on a flat base.
        let pattern = [0.0, 5.0, 10.0, 5.0];
        let mut hw = HoltWinters::new(0.3, 0.1, 0.3, 4);
        for cycle in 0..32 {
            for &v in &pattern {
                let _ = cycle;
                hw.observe(v);
            }
        }
        assert!(hw.is_initialized());
        // Next step is the start of a new cycle -> ~0.0; two steps -> ~5.0.
        let f1 = hw.forecast(1).unwrap();
        let f2 = hw.forecast(2).unwrap();
        let f3 = hw.forecast(3).unwrap();
        assert!((f1 - 0.0).abs() < 1.0, "f1 = {f1}");
        assert!((f2 - 5.0).abs() < 1.0, "f2 = {f2}");
        assert!((f3 - 10.0).abs() < 1.0, "f3 = {f3}");
    }

    #[test]
    fn holt_winters_uninitialized_returns_none() {
        let mut hw = HoltWinters::new(0.3, 0.1, 0.3, 4);
        for v in [1.0, 2.0, 3.0] {
            hw.observe(v);
        }
        assert_eq!(hw.forecast(1), None);
    }

    #[test]
    #[should_panic]
    fn holt_winters_rejects_period_one() {
        HoltWinters::new(0.3, 0.1, 0.3, 1);
    }
}
