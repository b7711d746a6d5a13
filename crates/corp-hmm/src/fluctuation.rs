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
//!
//! The prediction path ([`FluctuationPredictor::correction`]) does steps
//! 1, 3, 4 and 5 in one pass over the series; the allocating composition
//! of the separate steps ([`FluctuationPredictor::adjust`]) is its
//! reference.

use crate::baum_welch::baum_welch;
use crate::model::Hmm;
use crate::quantize::{FluctuationSymbol, SpreadQuantizer};
use crate::viterbi::{last_state, viterbi, LogHmm3};

/// The scratch argument of [`FluctuationPredictor::adjust_with`]. It holds
/// nothing: the one-pass correction keeps its state in fixed-size arrays.
#[derive(Debug, Clone, Default)]
pub struct HmmScratch;

impl HmmScratch {
    /// The (empty) scratch.
    pub fn new() -> Self {
        HmmScratch
    }
}

/// Predicts the next fluctuation symbol of an unused-resource series and
/// corrects DNN predictions for imminent peaks/valleys.
#[derive(Debug, Clone)]
pub struct FluctuationPredictor {
    hmm: Hmm,
    /// The logarithms of `hmm`'s parameters and the Eq. 17 symbol each
    /// last state forecasts, for the one-pass decode. Rebuilt wherever
    /// `hmm` is set (`new` and `fit`).
    log_hmm: LogHmm3,
    next_symbol: [FluctuationSymbol; 3],
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
        let (log_hmm, next_symbol) = decode_tables(&hmm);
        FluctuationPredictor {
            hmm,
            log_hmm,
            next_symbol,
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
        (self.log_hmm, self.next_symbol) = decode_tables(&self.hmm);
        self.quantizer = Some(quantizer);
        self.fitted = true;
        Some(report.iterations)
    }

    /// Predicts the next fluctuation symbol from the most recent
    /// unused-resource values (Eqs. 16-17). Falls back to `Center` when the
    /// predictor is unfitted or the recent series yields no observations.
    fn predict_next_symbol(&self, recent: &[f64]) -> FluctuationSymbol {
        let Some(quantizer) = self.quantizer.as_ref().filter(|_| self.fitted) else {
            return FluctuationSymbol::Center;
        };
        let obs = quantizer.observations(recent, self.window_len);
        if obs.is_empty() {
            return FluctuationSymbol::Center;
        }
        // Single best state path (Eq. 16 / Viterbi), last state q_L*: one
        // per observation, and there is at least one.
        let path = viterbi(&self.hmm, &obs);
        next_symbol_after(&self.hmm, path.states[obs.len() - 1])
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
    ///
    /// This is the reference composition of the separate steps —
    /// observations, full Viterbi path,
    /// [`correction_magnitude`](Self::correction_magnitude) — and
    /// allocates; [`adjust_with`](Self::adjust_with) is the same number
    /// from one pass.
    pub fn adjust(&self, u_hat: f64, recent: &[f64]) -> f64 {
        Correction {
            symbol: self.predict_next_symbol(recent),
            magnitude: Self::correction_magnitude(recent),
            finite: recent.iter().all(|v| v.is_finite()),
        }
        .apply(u_hat)
    }

    /// [`adjust`](Self::adjust) without allocating: the
    /// [`correction`](Self::correction) of `recent` applied to `u_hat`.
    /// Bit-identical to `adjust`.
    pub fn adjust_with(&self, u_hat: f64, recent: &[f64], _scratch: &mut HmmScratch) -> f64 {
        self.correction(recent).apply(u_hat)
    }

    /// The half of [`adjust_with`](Self::adjust_with) that reads only the
    /// series: the forecast symbol, the correction magnitude and whether
    /// every sample is finite, in one pass over `recent`. Computed once, it
    /// can be applied to several candidate `u_hat`s.
    ///
    /// Each window's spread is classified as its chunk closes and steps the
    /// Viterbi recurrence (the trailing chunk counts when it has two
    /// samples or more), while the same pass gathers `h`, `l` and the sum
    /// for `m`. Every value is bit-identical to the separate steps: the
    /// same chunks, the same recurrence with ties to the lowest state, the
    /// extremes folded as `corp_stats::max` / `min` fold them and the sum
    /// taken in `corp_stats::mean`'s order from its `-0.0`.
    pub fn correction(&self, recent: &[f64]) -> Correction {
        let decode = self.quantizer.as_ref().filter(|_| self.fitted);
        let (mut lo, mut hi, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, -0.0);
        let mut delta: Option<[f64; 3]> = None;
        for chunk in recent.chunks(self.window_len) {
            let (mut c_lo, mut c_hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &x in chunk {
                sum += x;
                c_lo = c_lo.min(x);
                c_hi = c_hi.max(x);
            }
            lo = lo.min(c_lo);
            hi = hi.max(c_hi);
            if let Some(quantizer) = decode.filter(|_| chunk.len() >= 2) {
                let o = quantizer.classify(c_hi - c_lo).index();
                delta = Some(match &delta {
                    None => self.log_hmm.start(o),
                    Some(row) => self.log_hmm.step(row, o),
                });
            }
        }
        // A NaN sample makes the sum NaN, an infinite one an extreme;
        // overflow alone can take the sum to an infinity but never to NaN.
        let finite = !sum.is_nan() && lo > f64::NEG_INFINITY && hi < f64::INFINITY;
        let magnitude = if recent.len() < 2 {
            0.0
        } else {
            // `corp_stats::max` / `min` read 0.0 for an infinite extreme.
            let h = if hi.is_finite() { hi } else { 0.0 };
            let l = if lo.is_finite() { lo } else { 0.0 };
            let m = sum / recent.len() as f64;
            (h - m).min(m - l).max(0.0)
        };
        Correction {
            symbol: delta.map_or(FluctuationSymbol::Center, |row| {
                self.next_symbol[last_state(&row)]
            }),
            magnitude,
            finite,
        }
    }
}

/// Eq. 17: the arg-max symbol of the expected next-symbol distribution
/// from last state `q_last`.
fn next_symbol_after(hmm: &Hmm, q_last: usize) -> FluctuationSymbol {
    let mut best_k = 0;
    let mut best_p = f64::NEG_INFINITY;
    for k in 0..hmm.num_symbols {
        let p: f64 = (0..hmm.num_states)
            .map(|j| hmm.a[q_last][j] * hmm.b[j][k])
            .sum();
        if p > best_p {
            best_p = p;
            best_k = k;
        }
    }
    FluctuationSymbol::from_index(best_k)
}

/// What the one-pass decode reads of `hmm`: its logarithms, and the
/// Eq. 17 symbol each last state forecasts.
fn decode_tables(hmm: &Hmm) -> (LogHmm3, [FluctuationSymbol; 3]) {
    (
        LogHmm3::new(hmm),
        std::array::from_fn(|q| next_symbol_after(hmm, q)),
    )
}

/// A series' peak/valley correction, ready to apply to a DNN prediction
/// ([`FluctuationPredictor::correction`]), and whether the series it was
/// read from is entirely finite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Correction {
    symbol: FluctuationSymbol,
    magnitude: f64,
    finite: bool,
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

    /// Whether every sample of the series was finite (no NaN, no
    /// infinity); an empty series is.
    pub fn series_finite(self) -> bool {
        self.finite
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        // Series of different shapes and lengths — including degenerate
        // ones — must reproduce the allocating path exactly.
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
                p.correction(recent).symbol,
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
            cold.correction(&[1.0, 2.0]).symbol,
            cold.predict_next_symbol(&[1.0, 2.0]),
        );
        assert_eq!(cold.adjust_with(7.0, &[1.0, 2.0], &mut scratch), 7.0);
    }

    /// The oracle composition of the separate steps: observations, the
    /// full Viterbi path, the magnitude from `corp_stats`, and an
    /// `all(is_finite)` scan.
    fn oracle(p: &FluctuationPredictor, recent: &[f64]) -> Correction {
        Correction {
            symbol: p.predict_next_symbol(recent),
            magnitude: FluctuationPredictor::correction_magnitude(recent),
            finite: recent.iter().all(|v| v.is_finite()),
        }
    }

    /// A sample drawn by `kind`: ordinary values most of the time, then
    /// signed zeros, values near `f64::MAX`, NaN and infinities.
    fn sample(kind: u8, x: f64) -> f64 {
        match kind {
            0..=9 => x,
            10 => 0.0,
            11 => -0.0,
            12 => f64::MAX * (0.5 + x / 200.0),
            13 => -f64::MAX * (0.5 + x / 200.0),
            14 => f64::NAN,
            15 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        }
    }

    proptest! {
        #[test]
        fn fused_pass_equals_the_oracle_composition(
            window_len in 2usize..6,
            history in prop::collection::vec(0.0f64..100.0, 0..120),
            specials in 0u8..17,
            draws in prop::collection::vec((0u8..17, 0.0f64..100.0), 0..41),
            constant in prop::collection::vec(-0.0f64..1.0, 1..3),
        ) {
            // Fitted (or, for a short history, quantized but unfitted)
            // and never-fitted predictors.
            let mut fitted = FluctuationPredictor::new(window_len);
            let _ = fitted.fit(&history);
            let cold = FluctuationPredictor::new(window_len);
            // Specials only once `specials` allows them, so the shrinker
            // can reach an ordinary series.
            let series: Vec<f64> = draws
                .iter()
                .map(|&(kind, x)| sample(if kind < specials { kind } else { 0 }, x))
                .collect();
            let flat = vec![constant[0]; draws.len()];
            let signed_zeros: Vec<f64> = draws
                .iter()
                .map(|&(kind, _)| if kind % 2 == 0 { 0.0 } else { -0.0 })
                .collect();
            for p in [&fitted, &cold] {
                for s in [&series, &flat, &signed_zeros] {
                    // Every prefix covers every trailing-chunk length.
                    for n in 0..=s.len() {
                        let (fused, want) = (p.correction(&s[..n]), oracle(p, &s[..n]));
                        prop_assert_eq!(fused.symbol, want.symbol, "symbol of {:?}", &s[..n]);
                        prop_assert_eq!(
                            fused.magnitude.to_bits(),
                            want.magnitude.to_bits(),
                            "magnitude of {:?}",
                            &s[..n]
                        );
                        prop_assert_eq!(fused.finite, want.finite, "flag of {:?}", &s[..n]);
                    }
                }
            }
        }
    }
}
