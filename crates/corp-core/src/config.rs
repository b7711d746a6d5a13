//! CORP configuration — the knobs of Table II plus the engineering
//! parameters the paper leaves implicit.

use corp_dnn::{TrainConfig, WindowPredictorConfig};

/// All tunables of the CORP provisioner. Defaults reproduce Table II.
#[derive(Debug, Clone)]
pub struct CorpConfig {
    /// Prediction window `L` in slots: predictions are refreshed every `L`
    /// slots for the window `(t, t+L]`. The paper uses a 1-minute window on
    /// a 10-second trace, i.e. 6 slots.
    pub window_slots: usize,
    /// Hidden layers `h` in the DNN (Table II: 4).
    pub dnn_layers: usize,
    /// Units per hidden layer `N_n` (Table II: 50).
    pub dnn_units: usize,
    /// Confidence level `eta` (Table II: 50%-90%; default 90%).
    pub confidence_level: f64,
    /// Probability threshold `P_th` of Eq. 21 (Table II: 0.95).
    pub prob_threshold: f64,
    /// Minimum completed-job histories per resource before the DNN trains;
    /// until then CORP predicts by persistence (cold start).
    pub min_training_histories: usize,
    /// Spread-window length for the HMM observation symbols.
    pub hmm_window: usize,
    /// Whether the HMM peak/valley correction is applied (ablation knob).
    pub use_hmm_correction: bool,
    /// Whether the confidence-interval lower bound is applied (ablation
    /// knob).
    pub use_confidence_interval: bool,
    /// Whether complementary job packing is performed (ablation knob).
    pub use_packing: bool,
    /// Whether placement uses the Eq. 22 volume best-fit (`true`) or a
    /// random fitting VM (`false`, ablation knob).
    pub use_volume_placement: bool,
    /// Fraction of a job's *requested* resources that reclaim may never
    /// touch: the safety floor `r >= floor * requested` keeps a throttled
    /// job progressing even when the predictor is badly wrong.
    pub reclaim_floor: f64,
    /// DNN training hyper-parameters.
    pub train: TrainConfig,
    /// RNG seed for any randomized decision (kept for reproducibility).
    pub seed: u64,
    /// Pins the width of the prediction fan-out and of pretraining's fits.
    /// `None` (default) uses the `CORP_THREADS` environment override or the
    /// host's available parallelism; `Some(1)` runs everything on the
    /// calling thread. Results are written by task index and width only
    /// shapes chunking, so reports are byte-identical at any width.
    pub prediction_pool_width: Option<usize>,
}

impl Default for CorpConfig {
    fn default() -> Self {
        CorpConfig {
            window_slots: 6,
            dnn_layers: 4,
            dnn_units: 50,
            confidence_level: 0.90,
            prob_threshold: 0.95,
            min_training_histories: 12,
            hmm_window: 3,
            use_hmm_correction: true,
            use_confidence_interval: true,
            use_packing: true,
            use_volume_placement: true,
            reclaim_floor: 0.3,
            train: TrainConfig {
                max_epochs: 60,
                ..TrainConfig::default()
            },
            seed: 0xC0 & 0xFF | 0xC000, // deterministic, arbitrary
            prediction_pool_width: None,
        }
    }
}

/// DNN input window `Delta` in slots: the DNN reads a job's last six
/// unused samples, one window `L` of history.
const INPUT_SLOTS: usize = 6;

impl CorpConfig {
    /// The DNN predictor configuration implied by this config.
    pub fn dnn_config(&self) -> WindowPredictorConfig {
        WindowPredictorConfig {
            window: INPUT_SLOTS,
            horizon: self.window_slots,
            units: self.dnn_units,
            hidden_layers: self.dnn_layers,
            train: self.train.clone(),
            seed: self.seed,
        }
    }

    /// A cheaper configuration for tests and quick examples: smaller
    /// network, fewer epochs — same pipeline.
    pub fn fast() -> Self {
        CorpConfig {
            dnn_units: 12,
            dnn_layers: 2,
            min_training_histories: 6,
            train: TrainConfig {
                max_epochs: 25,
                ..TrainConfig::default()
            },
            ..CorpConfig::default()
        }
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters.
    pub fn validate(&self) {
        assert!(self.window_slots > 0, "window must be positive");
        assert!(
            self.confidence_level > 0.0 && self.confidence_level < 1.0,
            "confidence level must be in (0,1)"
        );
        assert!(
            (0.0..=1.0).contains(&self.prob_threshold),
            "P_th must be in [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.reclaim_floor),
            "reclaim floor must be in [0,1]"
        );
        assert!(
            self.prediction_pool_width != Some(0),
            "prediction pool width must be at least 1"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_two() {
        let c = CorpConfig::default();
        assert_eq!(c.dnn_layers, 4, "Table II: h = 4");
        assert_eq!(c.dnn_units, 50, "Table II: N_n = 50");
        assert!(
            (c.prob_threshold - 0.95).abs() < 1e-12,
            "Table II: P_th = 0.95"
        );
        assert!(
            (0.5..=0.9).contains(&c.confidence_level),
            "Table II: eta in 50%-90%"
        );
        c.validate();
    }

    #[test]
    fn window_is_one_minute_of_ten_second_slots() {
        let c = CorpConfig::default();
        assert_eq!(c.window_slots, 6);
    }

    #[test]
    fn dnn_config_propagates_architecture() {
        let c = CorpConfig::default();
        let d = c.dnn_config();
        assert_eq!(d.units, 50);
        assert_eq!(d.hidden_layers, 4);
        assert_eq!(d.window, INPUT_SLOTS);
        assert_eq!(d.horizon, c.window_slots);
    }

    #[test]
    fn fast_config_is_valid() {
        CorpConfig::fast().validate();
    }

    #[test]
    #[should_panic]
    fn invalid_confidence_rejected() {
        CorpConfig {
            confidence_level: 1.0,
            ..CorpConfig::default()
        }
        .validate();
    }
}
