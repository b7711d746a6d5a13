//! End-to-end fluctuation prediction and error correction (Eqs. 16-17 and
//! the peak/valley adjustment of Section III-A.1.b).
//!
//! [`FluctuationPredictor`] ties the pieces together:
//!
//! 1. build a [`SpreadQuantizer`] from the unused-resource history and
//!    derive the observation sequence;
//! 2. re-estimate the 3-state OP/NP/UP model with Baum-Welch;
//! 3. Viterbi-decode the best state path `Q*` (Eq. 16);
//! 4. predict the next observation symbol via
//!    `E_{P_{T+1}}(k) = sum_j P(q_{T+1} = S_j | q_T = q_L*) b_j(k)`
//!    (Eq. 17), taking the arg-max symbol;
//! 5. expose the prediction-error correction: if the next symbol is a peak
//!    the DNN estimate is raised by `min(h - m, m - l)`, if a valley it is
//!    lowered by the same amount (`h`/`m`/`l` = highest/average/lowest
//!    unused resource within the recent period — `min` is chosen because
//!    "it is more conservative for ensuring sufficient resource being able
//!    to \[be\] allocated to jobs").

use crate::baum_welch::baum_welch;
use crate::model::Hmm;
use crate::quantize::{FluctuationSymbol, SpreadQuantizer};
use crate::viterbi::{viterbi, viterbi_last_in, LogHmm, ViterbiScratch};

/// Reusable buffers for the scratch-variant prediction entry points
/// ([`FluctuationPredictor::adjust_with`] and friends): the observation
/// sequence and the Viterbi trellis rows, reset-not-reallocated per call.
/// Reuse never changes a result — every buffer is fully rewritten before
/// it is read.
#[derive(Debug, Clone, Default)]
pub struct HmmScratch {
    obs: Vec<usize>,
    viterbi: ViterbiScratch,
}

impl HmmScratch {
    /// An empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        HmmScratch::default()
    }
}

/// Predicts the next fluctuation symbol of an unused-resource series and
/// corrects DNN predictions for imminent peaks/valleys.
#[derive(Debug, Clone)]
pub struct FluctuationPredictor {
    hmm: Hmm,
    /// The logarithms of `hmm`'s parameters, for the scratch-variant
    /// decode. Rebuilt wherever `hmm` is set (`new` and `fit`).
    log_hmm: LogHmm,
    quantizer: Option<SpreadQuantizer>,
    /// Window length (slots) over which each observation's spread is taken;
    /// the paper divides the inter-observation window into `L - 1`
    /// subwindows.
    window_len: usize,
    fitted: bool,
}

impl FluctuationPredictor {
    /// Creates a predictor with the paper's 3-state/3-symbol model and the
    /// given spread-window length.
    ///
    /// # Panics
    ///
    /// Panics if `window_len < 2` (a spread needs two samples).
    pub fn new(window_len: usize) -> Self {
        assert!(window_len >= 2, "spread windows need at least two samples");
        let hmm = Hmm::paper_default();
        FluctuationPredictor {
            log_hmm: LogHmm::new(&hmm),
            hmm,
            quantizer: None,
            window_len,
            fitted: false,
        }
    }

    /// Fits the quantizer thresholds and re-estimates the HMM from an
    /// unused-resource history. Returns the number of Baum-Welch iterations
    /// run, or `None` when the history is too short to produce at least two
    /// observations (the predictor then predicts `Center`, i.e. no
    /// correction — the conservative default).
    pub fn fit(&mut self, history: &[f64]) -> Option<usize> {
        if history.is_empty() {
            return None;
        }
        let quantizer = SpreadQuantizer::from_history(history);
        let obs = quantizer.observations(history, self.window_len);
        if obs.len() < 2 {
            self.quantizer = Some(quantizer);
            return None;
        }
        let report = baum_welch(&mut self.hmm, &obs, 40, 1e-6);
        self.log_hmm = LogHmm::new(&self.hmm);
        self.quantizer = Some(quantizer);
        self.fitted = true;
        Some(report.iterations)
    }

    /// Predicts the next fluctuation symbol from the most recent
    /// unused-resource values (Eqs. 16-17). Falls back to `Center` when the
    /// predictor is unfitted or the recent series yields no observations.
    pub(crate) fn predict_next_symbol(&self, recent: &[f64]) -> FluctuationSymbol {
        let Some(quantizer) = &self.quantizer else {
            return FluctuationSymbol::Center;
        };
        if !self.fitted {
            return FluctuationSymbol::Center;
        }
        let obs = quantizer.observations(recent, self.window_len);
        if obs.is_empty() {
            return FluctuationSymbol::Center;
        }
        // Single best state path (Eq. 16 / Viterbi), last state q_L*: one
        // per observation, and there is at least one.
        let path = viterbi(&self.hmm, &obs);
        let q_last = path.states[obs.len() - 1];
        self.next_symbol_after(q_last)
    }

    /// Eq. 17: the arg-max symbol of the expected next-symbol distribution
    /// from last state `q_last`.
    fn next_symbol_after(&self, q_last: usize) -> FluctuationSymbol {
        let mut best_k = 0;
        let mut best_p = f64::NEG_INFINITY;
        for k in 0..self.hmm.num_symbols {
            let p: f64 = (0..self.hmm.num_states)
                .map(|j| self.hmm.a[q_last][j] * self.hmm.b[j][k])
                .sum();
            if p > best_p {
                best_p = p;
                best_k = k;
            }
        }
        FluctuationSymbol::from_index(best_k)
    }

    /// [`predict_next_symbol`](Self::predict_next_symbol) through
    /// caller-provided scratch: no allocation and no logarithm on the hot
    /// path, bit-identical symbol (same quantization, same Viterbi
    /// recurrence over the stored logarithms, same Eq. 17 arg-max).
    pub(crate) fn predict_next_symbol_with(
        &self,
        recent: &[f64],
        scratch: &mut HmmScratch,
    ) -> FluctuationSymbol {
        let Some(quantizer) = &self.quantizer else {
            return FluctuationSymbol::Center;
        };
        if !self.fitted {
            return FluctuationSymbol::Center;
        }
        quantizer.observations_into(recent, self.window_len, &mut scratch.obs);
        if scratch.obs.is_empty() {
            return FluctuationSymbol::Center;
        }
        let (q_last, _) = viterbi_last_in(&self.log_hmm, &scratch.obs, &mut scratch.viterbi);
        self.next_symbol_after(q_last)
    }

    /// The conservative correction magnitude `min(h - m, m - l)` computed
    /// from the recent period's unused-resource values. Zero for fewer than
    /// two samples.
    pub fn correction_magnitude(recent: &[f64]) -> f64 {
        if recent.len() < 2 {
            return 0.0;
        }
        let h = corp_stats::max(recent);
        let l = corp_stats::min(recent);
        let m = corp_stats::mean(recent);
        (h - m).min(m - l).max(0.0)
    }

    /// Applies the paper's peak/valley correction to a DNN prediction
    /// `u_hat`: `+min(h-m, m-l)` for a predicted peak, `-...` for a valley,
    /// unchanged for center. The corrected value is clamped non-negative.
    pub fn adjust(&self, u_hat: f64, recent: &[f64]) -> f64 {
        Correction {
            symbol: self.predict_next_symbol(recent),
            magnitude: Self::correction_magnitude(recent),
        }
        .apply(u_hat)
    }

    /// [`adjust`](Self::adjust) through caller-provided scratch — the
    /// allocation-free form the persistent prediction runtime calls once
    /// per (job, resource) per window. Bit-identical to `adjust`. It is
    /// [`correction_with`](Self::correction_with) applied to `u_hat`.
    pub fn adjust_with(&self, u_hat: f64, recent: &[f64], scratch: &mut HmmScratch) -> f64 {
        self.correction_with(recent, scratch).apply(u_hat)
    }

    /// The half of [`adjust_with`](Self::adjust_with) that reads only the
    /// series: the forecast symbol and the correction magnitude. Computed
    /// once, it can be applied to several candidate `u_hat`s.
    pub fn correction_with(&self, recent: &[f64], scratch: &mut HmmScratch) -> Correction {
        Correction {
            symbol: self.predict_next_symbol_with(recent, scratch),
            magnitude: Self::correction_magnitude(recent),
        }
    }
}

/// A series' peak/valley correction, ready to apply to a DNN prediction
/// ([`FluctuationPredictor::correction_with`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Correction {
    symbol: FluctuationSymbol,
    magnitude: f64,
}

impl Correction {
    /// `u_hat + magnitude` for a forecast peak, `u_hat - magnitude` for a
    /// valley, `u_hat` for center, clamped non-negative. Non-decreasing in
    /// `u_hat`.
    pub fn apply(self, u_hat: f64) -> f64 {
        let corrected = match self.symbol {
            FluctuationSymbol::Peak => u_hat + self.magnitude,
            FluctuationSymbol::Valley => u_hat - self.magnitude,
            FluctuationSymbol::Center => u_hat,
        };
        corrected.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A history that alternates calm stretches with violent swings, giving
    /// all three symbols decent support.
    fn mixed_history(len: usize) -> Vec<f64> {
        (0..len)
            .map(|t| {
                let phase = (t / 20) % 3;
                match phase {
                    0 => 5.0 + (t % 2) as f64 * 0.1,   // calm -> valley spreads
                    1 => 5.0 + ((t % 4) as f64) * 1.2, // moderate -> center
                    _ => {
                        if t % 2 == 0 {
                            0.5
                        } else {
                            11.0 // violent -> peak spreads
                        }
                    }
                }
            })
            .collect()
    }

    #[test]
    fn fit_succeeds_on_reasonable_history() {
        let mut p = FluctuationPredictor::new(4);
        assert!(p.fit(&mixed_history(240)).is_some());
    }

    #[test]
    fn fit_on_empty_history_returns_none() {
        let mut p = FluctuationPredictor::new(4);
        assert!(p.fit(&[]).is_none());
    }

    #[test]
    fn unfitted_predictor_predicts_center() {
        let p = FluctuationPredictor::new(4);
        assert_eq!(
            p.predict_next_symbol(&[1.0, 2.0, 3.0, 4.0]),
            FluctuationSymbol::Center
        );
    }

    #[test]
    fn calm_recent_series_predicts_valley_side() {
        let mut p = FluctuationPredictor::new(4);
        p.fit(&mixed_history(240)).unwrap();
        // Long calm stretch: spreads near zero -> valley observations; the
        // sticky model should not predict a peak next.
        let calm = vec![5.0; 40];
        let sym = p.predict_next_symbol(&calm);
        assert_ne!(
            sym,
            FluctuationSymbol::Peak,
            "calm series must not forecast a peak"
        );
    }

    #[test]
    fn violent_recent_series_does_not_predict_valley() {
        let mut p = FluctuationPredictor::new(4);
        p.fit(&mixed_history(240)).unwrap();
        let violent: Vec<f64> = (0..40)
            .map(|t| if t % 2 == 0 { 0.5 } else { 11.0 })
            .collect();
        let sym = p.predict_next_symbol(&violent);
        assert_ne!(
            sym,
            FluctuationSymbol::Valley,
            "violent series must not forecast a valley"
        );
    }

    #[test]
    fn correction_magnitude_is_conservative_min() {
        // h = 10, l = 0, m = 2.5 -> min(7.5, 2.5) = 2.5.
        let recent = [0.0, 0.0, 0.0, 10.0];
        let mag = FluctuationPredictor::correction_magnitude(&recent);
        assert!((mag - 2.5).abs() < 1e-12);
    }

    #[test]
    fn correction_magnitude_zero_for_tiny_series() {
        assert_eq!(FluctuationPredictor::correction_magnitude(&[5.0]), 0.0);
        assert_eq!(FluctuationPredictor::correction_magnitude(&[]), 0.0);
    }

    #[test]
    fn adjust_clamps_at_zero() {
        let p = FluctuationPredictor::new(4);
        // Unfitted -> Center -> unchanged, but clamped if negative input.
        assert_eq!(p.adjust(-3.0, &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn adjust_without_fit_is_identity_for_positive_input() {
        let p = FluctuationPredictor::new(4);
        assert_eq!(p.adjust(7.0, &[1.0, 2.0, 3.0]), 7.0);
    }

    #[test]
    #[should_panic]
    fn window_len_one_rejected() {
        FluctuationPredictor::new(1);
    }

    #[test]
    fn scratch_variants_are_bit_identical_to_allocating_ones() {
        let mut p = FluctuationPredictor::new(4);
        p.fit(&mixed_history(240)).unwrap();
        let mut scratch = HmmScratch::new();
        // One reused scratch across many series of different shapes and
        // lengths — including degenerate ones — must reproduce the
        // allocating path exactly.
        let serieses: Vec<Vec<f64>> = vec![
            vec![5.0; 40],
            (0..40)
                .map(|t| if t % 2 == 0 { 0.5 } else { 11.0 })
                .collect(),
            mixed_history(60),
            vec![1.0],
            vec![],
            vec![3.0, 3.1, 2.9, 10.0, 0.0, 5.0, 5.0, 5.0],
        ];
        for recent in &serieses {
            assert_eq!(
                p.predict_next_symbol_with(recent, &mut scratch),
                p.predict_next_symbol(recent),
                "series {recent:?}"
            );
            for u_hat in [0.0, 1.5, 7.0, 100.0] {
                assert_eq!(
                    p.adjust_with(u_hat, recent, &mut scratch).to_bits(),
                    p.adjust(u_hat, recent).to_bits(),
                    "series {recent:?}, u_hat {u_hat}"
                );
            }
        }
        // Unfitted predictors short-circuit identically too.
        let cold = FluctuationPredictor::new(4);
        assert_eq!(
            cold.predict_next_symbol_with(&[1.0, 2.0], &mut scratch),
            cold.predict_next_symbol(&[1.0, 2.0]),
        );
        assert_eq!(cold.adjust_with(7.0, &[1.0, 2.0], &mut scratch), 7.0);
    }
}
