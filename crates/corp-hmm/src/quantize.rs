//! Peak/center/valley observation-symbol quantizer.
//!
//! Section III-A.1.b builds the HMM observation sequence from the unused-
//! resource history: with `min`, `m` (mean), and `max` of the historical
//! unused resource, the range splits at `min + (m - min)/2` and
//! `m + (max - m)/2`; the spread `Delta_j` of each inter-observation window
//! is mapped to a symbol. The paper's operational rule is
//!
//! * `Delta_j` in the lowest band  -> **valley** (little fluctuation),
//! * middle band                    -> **center**,
//! * highest band                   -> **peak** (strong fluctuation).
//!
//! (The prose sentence naming the subintervals lists them in the opposite
//! order, but the per-`Delta_j` classification rule — which is what the
//! algorithm executes — is the one above, and we follow it.)

use corp_trace::fluctuation_spreads;

/// HMM observation symbols for unused-resource fluctuations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FluctuationSymbol {
    /// Strong fluctuation: unused resource is spiking.
    Peak,
    /// Moderate fluctuation.
    Center,
    /// Weak fluctuation: unused resource is flat/dipping.
    Valley,
}

impl FluctuationSymbol {
    /// All symbols, in alphabet order.
    pub const ALL: [FluctuationSymbol; 3] = [
        FluctuationSymbol::Peak,
        FluctuationSymbol::Center,
        FluctuationSymbol::Valley,
    ];

    /// Alphabet index (`M = 3` in Table II).
    #[inline]
    pub(crate) fn index(self) -> usize {
        match self {
            FluctuationSymbol::Peak => 0,
            FluctuationSymbol::Center => 1,
            FluctuationSymbol::Valley => 2,
        }
    }

    /// Symbol for an alphabet index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 3`.
    #[inline]
    pub(crate) fn from_index(i: usize) -> Self {
        Self::ALL[i]
    }
}

/// Maps window spreads `Delta_j` to [`FluctuationSymbol`]s using thresholds
/// derived from a historical unused-resource series.
#[derive(Debug, Clone, PartialEq)]
pub struct SpreadQuantizer {
    /// Lower threshold `min + (m - min)/2`.
    pub low: f64,
    /// Upper threshold `m + (max - m)/2`.
    pub high: f64,
    /// Historical minimum (`min_cpu` in the paper's CPU example).
    pub hist_min: f64,
    /// Historical mean (`m_cpu`).
    pub hist_mean: f64,
    /// Historical maximum (`max_cpu`).
    pub hist_max: f64,
}

impl SpreadQuantizer {
    /// Builds the quantizer from a historical unused-resource series.
    ///
    /// # Panics
    ///
    /// Panics if `history` is empty.
    pub fn from_history(history: &[f64]) -> Self {
        assert!(!history.is_empty(), "cannot quantize without history");
        let hist_min = corp_stats::min(history);
        let hist_max = corp_stats::max(history);
        let hist_mean = corp_stats::mean(history);
        SpreadQuantizer {
            low: hist_min + 0.5 * (hist_mean - hist_min),
            high: hist_mean + 0.5 * (hist_max - hist_mean),
            hist_min,
            hist_mean,
            hist_max,
        }
    }

    /// Classifies one window spread.
    pub fn classify(&self, delta: f64) -> FluctuationSymbol {
        if delta <= self.low {
            FluctuationSymbol::Valley
        } else if delta < self.high {
            FluctuationSymbol::Center
        } else {
            FluctuationSymbol::Peak
        }
    }

    /// Builds the full observation sequence from a series: splits it into
    /// windows of `window_len` slots (the paper's `L - 1` subwindow
    /// construction between consecutive observation times), computes each
    /// window's spread, and classifies it.
    pub(crate) fn observations(&self, series: &[f64], window_len: usize) -> Vec<usize> {
        fluctuation_spreads(series, window_len)
            .into_iter()
            .map(|d| self.classify(d).index())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_index_round_trip() {
        for s in FluctuationSymbol::ALL {
            assert_eq!(FluctuationSymbol::from_index(s.index()), s);
        }
    }

    #[test]
    fn thresholds_follow_paper_formulas() {
        // history: min=0, mean=4, max=10 -> low = 2, high = 7.
        let q = SpreadQuantizer::from_history(&[0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 4.0, 0.0, 6.0, 0.0]);
        // mean of that series is 4.0
        assert!((q.hist_mean - 4.0).abs() < 1e-12);
        assert!((q.low - 2.0).abs() < 1e-12);
        assert!((q.high - 7.0).abs() < 1e-12);
    }

    #[test]
    fn classification_bands() {
        let q = SpreadQuantizer {
            low: 2.0,
            high: 7.0,
            hist_min: 0.0,
            hist_mean: 4.0,
            hist_max: 10.0,
        };
        assert_eq!(q.classify(0.0), FluctuationSymbol::Valley);
        assert_eq!(
            q.classify(2.0),
            FluctuationSymbol::Valley,
            "low edge inclusive"
        );
        assert_eq!(q.classify(3.0), FluctuationSymbol::Center);
        assert_eq!(
            q.classify(7.0),
            FluctuationSymbol::Peak,
            "high edge is peak"
        );
        assert_eq!(q.classify(100.0), FluctuationSymbol::Peak);
    }

    #[test]
    fn observations_reflect_local_spreads() {
        let q = SpreadQuantizer {
            low: 1.0,
            high: 5.0,
            hist_min: 0.0,
            hist_mean: 2.0,
            hist_max: 8.0,
        };
        // Windows of 2: spreads are |a-b|.
        let series = [0.0, 0.5, 0.0, 3.0, 0.0, 8.0];
        let obs = q.observations(&series, 2);
        assert_eq!(
            obs,
            vec![
                FluctuationSymbol::Valley.index(),
                FluctuationSymbol::Center.index(),
                FluctuationSymbol::Peak.index(),
            ]
        );
    }

    #[test]
    fn constant_history_classifies_everything_as_valley() {
        let q = SpreadQuantizer::from_history(&[5.0; 10]);
        assert_eq!(q.classify(0.0), FluctuationSymbol::Valley);
    }

    #[test]
    #[should_panic]
    fn empty_history_rejected() {
        SpreadQuantizer::from_history(&[]);
    }
}
