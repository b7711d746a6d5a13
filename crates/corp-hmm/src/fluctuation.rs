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
use crate::viterbi::{viterbi, viterbi_last_in, ViterbiScratch};
use serde::{Deserialize, Serialize};

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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FluctuationPredictor {
    hmm: Hmm,
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
        FluctuationPredictor {
            hmm: Hmm::paper_default(),
            quantizer: None,
            window_len,
            fitted: false,
        }
    }

    /// The underlying model (inspection/tests).
    pub fn hmm(&self) -> &Hmm {
        &self.hmm
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
        self.quantizer = Some(quantizer);
        self.fitted = true;
        Some(report.iterations)
    }

    /// Predicts the next fluctuation symbol from the most recent
    /// unused-resource values (Eqs. 16-17). Falls back to `Center` when the
    /// predictor is unfitted or the recent series yields no observations.
    pub fn predict_next_symbol(&self, recent: &[f64]) -> FluctuationSymbol {
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
        // Single best state path (Eq. 16 / Viterbi), last state q_L*.
        let path = viterbi(&self.hmm, &obs);
        let q_last = *path.states.last().expect("non-empty path");

        // Eq. 17: expected next-symbol distribution.
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
    /// caller-provided scratch: no allocation on the hot path, bit-identical
    /// symbol (same quantization, same Viterbi recurrence, same Eq. 17
    /// arg-max).
    pub fn predict_next_symbol_with(
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
        let (q_last, _) = viterbi_last_in(&self.hmm, &scratch.obs, &mut scratch.viterbi);

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
        let mag = Self::correction_magnitude(recent);
        let corrected = match self.predict_next_symbol(recent) {
            FluctuationSymbol::Peak => u_hat + mag,
            FluctuationSymbol::Valley => u_hat - mag,
            FluctuationSymbol::Center => u_hat,
        };
        corrected.max(0.0)
    }

    /// [`adjust`](Self::adjust) through caller-provided scratch — the
    /// allocation-free form the persistent prediction runtime calls once
    /// per (job, resource) per window. Bit-identical to `adjust`.
    pub fn adjust_with(&self, u_hat: f64, recent: &[f64], scratch: &mut HmmScratch) -> f64 {
        let mag = Self::correction_magnitude(recent);
        let corrected = match self.predict_next_symbol_with(recent, scratch) {
            FluctuationSymbol::Peak => u_hat + mag,
            FluctuationSymbol::Valley => u_hat - mag,
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
