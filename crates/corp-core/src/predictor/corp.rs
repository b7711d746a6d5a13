//! CORP's per-job unused-resource predictor (Section III-A).
//!
//! One DNN and one fluctuation HMM per resource type. The prediction of a
//! job's unused resource for the next window is, per resource `k`:
//!
//! ```text
//! u_hat = DNN_k(job's last Delta slots of unused resource)      (Eq. 5-8)
//! u_hat = u_hat +/- min(h-m, m-l)  if HMM forecasts peak/valley (Eq. 17)
//! u_hat = u_hat - sigma_hat_k * z_{theta/2}                     (Eq. 19)
//! ```
//!
//! and the result is only *usable* for reallocation while the Eq. 21
//! preemption gate for resource `k` is unlocked.
//!
//! Training follows the paper's offline/online split: histories of
//! completed jobs accumulate in a corpus (the analogue of the Google-trace
//! history) and the networks train once enough have arrived; a
//! [`pretrain`](CorpJobPredictor::pretrain) hook lets experiments train on
//! a separate historical workload before the measured run, exactly as the
//! paper does.

use crate::config::CorpConfig;
use crate::preemption::PreemptionGate;
use corp_dnn::{PredictBatchScratch, UnusedResourcePredictor};
use corp_hmm::{FluctuationPredictor, HmmScratch};
use corp_sim::ResourceVector;
use corp_stats::{z_for_confidence, SimpleExp};
use corp_trace::NUM_RESOURCES;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Scale-normalized `sigma_hat` above which the DNN's error window is
/// considered blown up and the pipeline degrades. Healthy errors are
/// fractions of the job's request (O(1) after normalization); a σ this
/// large only arises when poisoned outcomes or a diverged network flood
/// the window.
const SIGMA_BLOWUP: f64 = 10.0;

/// Smoothing factor for the ETS fallback rung (matches the RCCR
/// baseline's smoothing, a deliberately boring estimator).
const FALLBACK_ETS_ALPHA: f64 = 0.5;

/// How often each rung of the prediction fallback ladder fired.
///
/// Rung 0 (the full DNN + HMM + CI pipeline) is the normal path and is
/// not counted; every counter here is a degradation event. In a
/// fault-free run all counters stay zero.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FallbackCounters {
    /// Predictions where the DNN path was rejected (non-finite input
    /// series, blown-up or non-finite `sigma_hat`, or non-finite output).
    pub dnn_rejected: u64,
    /// Rung 1 servings: HMM-corrected persistence on the last finite value.
    pub hmm_last_value: u64,
    /// Rung 2 servings: exponential smoothing over the finite subset.
    pub ets: u64,
    /// Rung 3 servings: no finite evidence at all, predicted 0.0 (claim
    /// nothing).
    pub zero: u64,
    /// Resolved outcomes discarded because actual or predicted was
    /// non-finite (poisoned telemetry kept out of the gate's evidence).
    pub poisoned_outcomes: u64,
    /// Completed-job histories refused by the training corpus for
    /// containing non-finite samples.
    pub poisoned_histories: u64,
}

impl FallbackCounters {
    /// Adds another counter set onto this one — used to merge per-thread
    /// deltas after a parallel prediction fan-out. `u64` additions are
    /// order-independent, so merged totals match the serial path exactly.
    pub fn absorb(&mut self, other: &FallbackCounters) {
        self.dnn_rejected += other.dnn_rejected;
        self.hmm_last_value += other.hmm_last_value;
        self.ets += other.ets;
        self.zero += other.zero;
        self.poisoned_outcomes += other.poisoned_outcomes;
        self.poisoned_histories += other.poisoned_histories;
    }
}

/// One resource's staged lanes: every lane's recent-unused series back to
/// back in one flat buffer, with the lane's Eq. 19 scale going in and its
/// prediction coming out.
#[derive(Debug, Clone, Default)]
struct LaneStage {
    flat: Vec<f64>,
    /// Lane `b`'s series is `flat[lanes[b]]`; an empty range is a job
    /// without history.
    lanes: Vec<Range<usize>>,
    scales: Vec<f64>,
    u_hat: Vec<f64>,
}

impl LaneStage {
    fn clear(&mut self) {
        self.flat.clear();
        self.lanes.clear();
        self.scales.clear();
    }

    fn push(&mut self, series: impl IntoIterator<Item = f64>, scale: f64) {
        let start = self.flat.len();
        self.flat.extend(series);
        self.lanes.push(start..self.flat.len());
        self.scales.push(scale);
    }
}

/// Per-thread scratch for the immutable prediction entry points
/// ([`CorpJobPredictor::predict_jobs_in`] and its one-job form
/// [`predict_job_in`](CorpJobPredictor::predict_job_in)): the lane staging
/// per resource, the DNN's lane buffers, the HMM decode buffers, the
/// fallback ladder's filter buffer, and a local [`FallbackCounters`] delta
/// that the owner merges back via
/// [`CorpJobPredictor::merge_fallbacks`] after joining its threads.
///
/// Every buffer is reset, not reallocated, per use and fully rewritten
/// before it is read, so a scratch that lives across windows (a pool
/// worker's) predicts bit-identically to a fresh one.
#[derive(Debug, Clone, Default)]
pub struct PredictionScratch {
    stage: [LaneStage; NUM_RESOURCES],
    /// Series ranges and DNN outputs of the lanes healthy enough for the
    /// DNN path, in lane order.
    healthy: Vec<Range<usize>>,
    dnn_out: Vec<f64>,
    net: PredictBatchScratch,
    hmm: HmmScratch,
    /// Finite-subset filter buffer for the fallback ladder.
    finite: Vec<f64>,
    /// Fallback-rung increments recorded by predictions through this
    /// scratch.
    pub fallbacks: FallbackCounters,
}

impl PredictionScratch {
    /// An empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        PredictionScratch::default()
    }

    /// Same as [`new`](Self::new): every scratch reuses its buffers, so
    /// the pool runtime's worker-owned scratch needs no flavour of its own.
    pub fn persistent() -> Self {
        PredictionScratch::default()
    }

    /// Resets the scratch to its post-construction observable state:
    /// counters cleared, buffers kept (their contents are fully rewritten
    /// before every read, so predictions after a reset are bit-identical
    /// to predictions through a fresh scratch — pinned by proptest).
    pub fn reset(&mut self) {
        self.fallbacks = FallbackCounters::default();
    }
}

/// The full DNN + HMM + confidence-interval prediction pipeline.
pub struct CorpJobPredictor {
    confidence_z: f64,
    use_hmm: bool,
    use_ci: bool,
    min_histories: usize,
    dnn: Vec<UnusedResourcePredictor>,
    hmm: Vec<FluctuationPredictor>,
    corpus: Vec<Vec<Vec<f64>>>,
    /// Gate and sigma_hat operate on *scale-normalized* errors
    /// (`delta / scale`, where `scale` is the job's requested amount of the
    /// resource): a 60 GB storage job and a 1-core CPU job cannot share an
    /// absolute error distribution, and Eq. 19's subtraction must stay
    /// proportional to the job it corrects.
    gate: PreemptionGate,
    trained: bool,
    fallbacks: FallbackCounters,
    /// Owned scratch backing the `&mut self` prediction entry points.
    scratch: Option<PredictionScratch>,
}

impl std::fmt::Debug for CorpJobPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorpJobPredictor")
            .field("trained", &self.trained)
            .field(
                "corpus_sizes",
                &self.corpus.iter().map(Vec::len).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl CorpJobPredictor {
    /// Builds the pipeline from a [`CorpConfig`].
    pub fn new(config: &CorpConfig) -> Self {
        config.validate();
        let dnn_cfg = config.dnn_config();
        CorpJobPredictor {
            confidence_z: z_for_confidence(config.confidence_level),
            use_hmm: config.use_hmm_correction,
            use_ci: config.use_confidence_interval,
            min_histories: config.min_training_histories,
            dnn: (0..NUM_RESOURCES)
                .map(|k| {
                    let mut c = dnn_cfg.clone();
                    c.seed = c.seed.wrapping_add(k as u64);
                    UnusedResourcePredictor::new(c)
                })
                .collect(),
            hmm: (0..NUM_RESOURCES)
                .map(|_| FluctuationPredictor::new(config.hmm_window.max(2)))
                .collect(),
            corpus: vec![Vec::new(); NUM_RESOURCES],
            gate: PreemptionGate::new(
                config.error_window,
                config.error_tolerance_frac,
                config.prob_threshold,
            ),
            trained: false,
            fallbacks: FallbackCounters::default(),
            scratch: None,
        }
    }

    /// Whether the DNNs have been trained.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Adds one completed job's per-resource unused histories to the
    /// training corpus. Histories carrying non-finite samples (poisoned
    /// telemetry) are refused whole — one NaN in the corpus would spread
    /// through every gradient of the next training pass. Once trained the
    /// corpus is never read again, so histories are screened and counted
    /// but no longer kept.
    pub fn add_history(&mut self, histories: &[Vec<f64>]) {
        for (k, h) in histories.iter().enumerate().take(NUM_RESOURCES) {
            if h.len() < 2 {
                continue;
            }
            if h.iter().any(|v| !v.is_finite()) {
                self.fallbacks.poisoned_histories += 1;
                continue;
            }
            if !self.trained {
                self.corpus[k].push(h.clone());
            }
        }
    }

    /// Trains the DNNs and HMMs if every resource's corpus has reached the
    /// configured minimum (and training has not already happened). Returns
    /// true if training ran.
    pub fn maybe_train(&mut self) -> bool {
        if self.trained {
            return false;
        }
        if self.corpus.iter().any(|c| c.len() < self.min_histories) {
            return false;
        }
        self.train_now();
        true
    }

    /// Trains unconditionally on whatever corpus exists (used by
    /// [`pretrain`](Self::pretrain) and forced-training tests).
    fn train_now(&mut self) {
        for k in 0..NUM_RESOURCES {
            let _ = self.dnn[k].fit(&self.corpus[k]);
            // Pool the corpus into one long series for HMM thresholding and
            // re-estimation — the paper fits the HMM on historical data.
            let pooled: Vec<f64> = self.corpus[k].iter().flatten().copied().collect();
            let _ = self.hmm[k].fit(&pooled);
        }
        self.trained = true;
    }

    /// Offline training on a historical workload (per-resource lists of
    /// per-job unused histories), as the paper trains on the Google trace
    /// before evaluation. Afterwards the Eq. 21 gate is warmed from
    /// historical prediction errors — the paper's Eq. 20: "Based on the
    /// historical data with prediction error samples, we calculate the
    /// prediction error".
    pub fn pretrain(&mut self, histories_per_resource: &[Vec<Vec<f64>>]) {
        for (k, hs) in histories_per_resource
            .iter()
            .enumerate()
            .take(NUM_RESOURCES)
        {
            for h in hs {
                if h.len() >= 2 {
                    self.corpus[k].push(h.clone());
                }
            }
        }
        self.train_now();
        self.warm_gate_from_history();
    }

    /// Replays the trained pipeline over held-out positions of the corpus,
    /// recording each window's prediction error into the gate/CI trackers.
    fn warm_gate_from_history(&mut self) {
        const MAX_SAMPLES_PER_RESOURCE: usize = 200;
        let delta = self.dnn[0].config().window;
        let horizon = self.dnn[0].config().horizon;
        let mut scratch = PredictionScratch::new();
        for k in 0..NUM_RESOURCES {
            let histories = self.corpus[k].clone();
            let mut recorded = 0;
            'outer: for h in &histories {
                if h.len() < delta + horizon {
                    continue;
                }
                // The requested amount is unknown for bare histories; the
                // peak unused level is its close stand-in (requests are
                // per-resource demand peaks).
                let scale = h.iter().cloned().fold(0.0f64, f64::max).max(1e-9);
                let mut i = delta;
                while i + horizon <= h.len() {
                    let predicted = self.predict_resource_in(k, &h[..i], scale, &mut scratch);
                    let actual = h[i..i + horizon].iter().sum::<f64>() / horizon as f64;
                    self.record_outcome_scaled(k, actual, predicted, scale);
                    recorded += 1;
                    if recorded >= MAX_SAMPLES_PER_RESOURCE {
                        break 'outer;
                    }
                    i += horizon;
                }
            }
        }
        self.fallbacks.absorb(&scratch.fallbacks);
    }

    /// Predicts one job's unused resources for the next window from its
    /// recent per-resource unused series. Returns the corrected,
    /// confidence-adjusted vector (paper's `u_hat_{t+L}`), clamped
    /// non-negative.
    ///
    /// Until trained, falls back to persistence per resource (the paper's
    /// cold-start has the Google-trace history, so this path only covers
    /// the first jobs of a cold system).
    pub fn predict_job(
        &mut self,
        recent: &[Vec<f64>],
        requested: &ResourceVector,
    ) -> ResourceVector {
        let mut scratch = self.scratch.take().unwrap_or_default();
        let out = self.predict_job_in(recent, requested, &mut scratch);
        self.fallbacks.absorb(&scratch.fallbacks);
        scratch.fallbacks = FallbackCounters::default();
        self.scratch = Some(scratch);
        out
    }

    /// [`predict_job`](Self::predict_job) through caller-provided scratch,
    /// leaving the predictor immutable so the runtime's threads can fan a fleet's
    /// predictions over one shared `&CorpJobPredictor`. This is the one-lane
    /// case of [`predict_jobs_in`](Self::predict_jobs_in). Values are
    /// bit-identical to the `&mut self` path; fallback-rung increments
    /// accumulate in `scratch.fallbacks` for the owner to merge after the
    /// join ([`merge_fallbacks`](Self::merge_fallbacks)).
    pub fn predict_job_in(
        &self,
        recent: &[Vec<f64>],
        requested: &ResourceVector,
        scratch: &mut PredictionScratch,
    ) -> ResourceVector {
        let mut out = ResourceVector::ZERO;
        for k in 0..NUM_RESOURCES {
            let series: &[f64] = recent.get(k).map(|v| v.as_slice()).unwrap_or(&[]);
            out[k] = self.predict_resource_in(k, series, requested[k].max(1e-9), scratch);
        }
        out
    }

    /// Predicts many jobs at once: each job is its recent unused history
    /// (newest last) and its request, and job `b`'s corrected,
    /// confidence-adjusted vector lands in `out[b]`. Per resource the
    /// jobs' series are gathered into one flat buffer and run as lanes of
    /// one batch, so the DNN does one blocked forward for all of them.
    /// Lanes do not interact: `out[b]` and the `scratch.fallbacks`
    /// increments are bit-identical to calling
    /// [`predict_job_in`](Self::predict_job_in) job by job, however the
    /// jobs are batched.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` and `out` differ in length.
    pub fn predict_jobs_in<'a>(
        &self,
        jobs: impl IntoIterator<Item = (&'a [ResourceVector], &'a ResourceVector)>,
        out: &mut [ResourceVector],
        scratch: &mut PredictionScratch,
    ) {
        scratch.stage.iter_mut().for_each(LaneStage::clear);
        for (recent, requested) in jobs {
            for (k, stage) in scratch.stage.iter_mut().enumerate() {
                stage.push(recent.iter().map(|u| u[k]), requested[k].max(1e-9));
            }
        }
        assert_eq!(
            scratch.stage[0].lanes.len(),
            out.len(),
            "one output per job"
        );
        for k in 0..NUM_RESOURCES {
            self.predict_staged(k, scratch);
            for (o, &u_hat) in out.iter_mut().zip(&scratch.stage[k].u_hat) {
                o[k] = u_hat;
            }
        }
    }

    /// Merges a thread's fallback-counter delta back into the predictor's
    /// own counters.
    pub fn merge_fallbacks(&mut self, delta: &FallbackCounters) {
        self.fallbacks.absorb(delta);
    }

    /// One resource's pipeline for one series: a single staged lane.
    fn predict_resource_in(
        &self,
        k: usize,
        series: &[f64],
        scale: f64,
        scratch: &mut PredictionScratch,
    ) -> f64 {
        let stage = &mut scratch.stage[k];
        stage.clear();
        stage.push(series.iter().copied(), scale);
        self.predict_staged(k, scratch);
        scratch.stage[k].u_hat[0]
    }

    /// Resource `k`'s full pipeline over the lanes staged in
    /// `scratch.stage[k]`: DNN -> HMM correction -> CI lower bound (with
    /// sigma_hat rescaled to the job's size), clamped non-negative. A lane
    /// without history predicts 0.0.
    ///
    /// The DNN path is served only to lanes that are healthy: finite
    /// input series, finite and non-blown-up `sigma_hat`, finite output.
    /// The healthy lanes share one batched DNN forward; every other step
    /// runs lane by lane. An unhealthy lane degrades down the fallback
    /// ladder ([`fallback_estimate`](Self::fallback_estimate)) instead of
    /// emitting a poisoned number.
    fn predict_staged(&self, k: usize, scratch: &mut PredictionScratch) {
        let PredictionScratch {
            stage,
            healthy,
            dnn_out,
            net,
            hmm,
            finite,
            fallbacks,
        } = scratch;
        let LaneStage {
            flat,
            lanes,
            scales,
            u_hat,
        } = &mut stage[k];
        let sigma = self.gate.sigma_hat(k);
        let sigma_ok = sigma.is_finite() && sigma <= SIGMA_BLOWUP;

        // Step 1: DNN prediction (persistence fallback if untrained), one
        // forward for every healthy lane.
        healthy.clear();
        healthy.extend(
            lanes
                .iter()
                .filter(|lane| {
                    let series = &flat[(*lane).clone()];
                    sigma_ok && !series.is_empty() && series.iter().all(|v| v.is_finite())
                })
                .cloned(),
        );
        dnn_out.clear();
        dnn_out.resize(healthy.len(), 0.0);
        self.dnn[k].predict_batch_with(flat, healthy, dnn_out, net);

        // Non-empty lanes start at distinct offsets, so a lane was served
        // by the DNN iff its range is the next healthy one.
        let mut served = healthy.iter().zip(dnn_out.iter()).peekable();
        u_hat.clear();
        for (lane, &scale) in lanes.iter().zip(scales.iter()) {
            let series = &flat[lane.clone()];
            if series.is_empty() {
                u_hat.push(0.0);
                continue;
            }
            if let Some((_, &dnn)) = served.next_if(|(h, _)| *h == lane) {
                let mut u = dnn;
                // Step 2: HMM peak/valley correction.
                if self.use_hmm {
                    u = self.hmm[k].adjust_with(u, series, hmm);
                }
                // Step 3: confidence-interval lower bound (Eq. 19), on the
                // job's own scale.
                if self.use_ci {
                    u -= sigma * self.confidence_z * scale;
                }
                if u.is_finite() {
                    u_hat.push(u.max(0.0));
                    continue;
                }
            }
            fallbacks.dnn_rejected += 1;
            u_hat.push(self.fallback_estimate(k, series, hmm, finite, fallbacks));
        }
    }

    /// Degraded prediction rungs, used when the DNN path is rejected:
    ///
    /// 1. HMM-corrected persistence on the last finite sample — keeps the
    ///    paper's fluctuation correction even while the DNN is sick;
    /// 2. exponential smoothing over the finite subset of the series;
    /// 3. 0.0 — with no finite evidence, claim no unused resource (the
    ///    conservative end: nothing is reclaimed on a blind prediction).
    fn fallback_estimate(
        &self,
        k: usize,
        series: &[f64],
        hmm: &mut HmmScratch,
        finite: &mut Vec<f64>,
        fallbacks: &mut FallbackCounters,
    ) -> f64 {
        finite.clear();
        finite.extend(series.iter().copied().filter(|v| v.is_finite()));
        if let Some(&last) = finite.last() {
            let adjusted = if self.use_hmm {
                self.hmm[k].adjust_with(last, finite, hmm)
            } else {
                last
            };
            if adjusted.is_finite() {
                fallbacks.hmm_last_value += 1;
                return adjusted.max(0.0);
            }
            let mut ets = SimpleExp::new(FALLBACK_ETS_ALPHA);
            ets.observe_all(finite);
            if let Some(forecast) = ets.forecast(1).filter(|f| f.is_finite()) {
                fallbacks.ets += 1;
                return forecast.max(0.0);
            }
        }
        fallbacks.zero += 1;
        0.0
    }

    /// Records a resolved prediction for resource `k` (drives both
    /// `sigma_hat` and the Eq. 21 gate). `scale` is the requested amount of
    /// the resource for the job the prediction concerned; errors are
    /// normalized by it before entering the evidence window. Non-finite
    /// outcomes (poisoned telemetry) are discarded — one NaN in the
    /// evidence window would wedge `sigma_hat` at NaN and lock the gate
    /// forever.
    pub fn record_outcome_scaled(
        &mut self,
        resource: usize,
        actual: f64,
        predicted: f64,
        scale: f64,
    ) {
        if !actual.is_finite() || !predicted.is_finite() || !scale.is_finite() {
            self.fallbacks.poisoned_outcomes += 1;
            return;
        }
        let s = scale.max(1e-9);
        self.gate.record(resource, actual / s, predicted / s);
    }

    /// Whether resource `k`'s predictions are currently unlocked for
    /// reallocation (Eq. 21).
    pub fn unlocked(&self, resource: usize) -> bool {
        self.gate.unlocked(resource)
    }

    /// The preemption gate (diagnostics).
    pub fn gate(&self) -> &PreemptionGate {
        &self.gate
    }

    /// How often each degraded prediction rung fired (all zero in a
    /// fault-free run).
    pub fn fallbacks(&self) -> &FallbackCounters {
        &self.fallbacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_predictor() -> CorpJobPredictor {
        CorpJobPredictor::new(&CorpConfig::fast())
    }

    fn synthetic_histories(n: usize, level: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|j| {
                (0..30)
                    .map(|t| level + ((t + j) % 3) as f64 * 0.3)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn untrained_predictor_uses_persistence() {
        let mut p = fast_predictor();
        assert!(!p.is_trained());
        let recent = vec![vec![4.0, 4.0, 4.0], vec![2.0, 2.0], vec![1.0]];
        let out = p.predict_job(&recent, &ResourceVector::new([10.0, 10.0, 10.0]));
        assert!((out[0] - 4.0).abs() < 1e-9);
        assert!((out[1] - 2.0).abs() < 1e-9);
        assert!((out[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn maybe_train_waits_for_minimum_corpus() {
        let mut p = fast_predictor();
        for _ in 0..3 {
            let h = synthetic_histories(1, 5.0).remove(0);
            p.add_history(&[h.clone(), h.clone(), h]);
        }
        assert!(!p.maybe_train(), "3 < min_training_histories");
        for _ in 0..10 {
            let h = synthetic_histories(1, 5.0).remove(0);
            p.add_history(&[h.clone(), h.clone(), h]);
        }
        assert!(p.maybe_train());
        assert!(p.is_trained());
        assert!(!p.maybe_train(), "training happens once");
        // Nothing reads the corpus again: later histories are screened
        // for poison and counted, not kept.
        let kept = p.corpus[1].len();
        p.add_history(&[vec![1.0, f64::NAN], vec![1.0, 1.0], vec![1.0, 1.0]]);
        assert_eq!(p.corpus[1].len(), kept);
        assert_eq!(p.fallbacks().poisoned_histories, 1);
    }

    #[test]
    fn pretrain_enables_dnn_predictions() {
        let mut p = fast_predictor();
        let hs = synthetic_histories(10, 6.0);
        p.pretrain(&[hs.clone(), hs.clone(), hs]);
        assert!(p.is_trained());
        let recent = vec![vec![6.0; 8], vec![6.0; 8], vec![6.0; 8]];
        let out = p.predict_job(&recent, &ResourceVector::new([10.0, 10.0, 10.0]));
        for k in 0..NUM_RESOURCES {
            assert!(out[k] >= 0.0 && out[k] < 12.0, "resource {k}: {}", out[k]);
        }
    }

    #[test]
    fn confidence_interval_lowers_prediction_after_errors() {
        let mut p = fast_predictor();
        let hs = synthetic_histories(10, 6.0);
        p.pretrain(&[hs.clone(), hs.clone(), hs]);
        let recent = vec![vec![6.0; 8], vec![6.0; 8], vec![6.0; 8]];
        let before = p.predict_job(&recent, &ResourceVector::new([10.0, 10.0, 10.0]));
        // Noisy outcomes raise sigma_hat.
        for (a, pr) in [(6.0, 4.0), (2.0, 4.0), (7.0, 4.0), (1.0, 4.0)] {
            p.record_outcome_scaled(0, a, pr, 10.0);
        }
        let after = p.predict_job(&recent, &ResourceVector::new([10.0, 10.0, 10.0]));
        assert!(
            after[0] < before[0],
            "CI must shave: {} -> {}",
            before[0],
            after[0]
        );
        assert!(
            (after[1] - before[1]).abs() < 1e-9,
            "other resources untouched"
        );
    }

    #[test]
    fn ablation_flags_disable_stages() {
        let mut cfg = CorpConfig::fast();
        cfg.use_confidence_interval = false;
        cfg.use_hmm_correction = false;
        let mut p = CorpJobPredictor::new(&cfg);
        let recent = vec![vec![5.0, 5.0], vec![5.0], vec![5.0]];
        // Untrained persistence with all corrections off = exactly 5.0 even
        // after noisy outcomes.
        for (a, pr) in [(9.0, 4.0), (0.0, 4.0)] {
            p.record_outcome_scaled(0, a, pr, 10.0);
        }
        let out = p.predict_job(&recent, &ResourceVector::new([10.0, 10.0, 10.0]));
        assert!((out[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn gate_unlocks_only_with_good_evidence() {
        let mut p = fast_predictor();
        assert!(!p.unlocked(0));
        for _ in 0..70 {
            p.record_outcome_scaled(0, 5.05, 5.0, 10.0);
        }
        assert!(p.unlocked(0));
        assert!(!p.unlocked(1));
    }

    #[test]
    fn empty_recent_series_predicts_zero() {
        let mut p = fast_predictor();
        let out = p.predict_job(
            &[vec![], vec![], vec![]],
            &ResourceVector::new([10.0, 10.0, 10.0]),
        );
        assert_eq!(out, ResourceVector::ZERO);
    }

    #[test]
    fn nan_series_degrades_to_a_finite_fallback() {
        let mut p = fast_predictor();
        let recent = vec![vec![4.0, f64::NAN], vec![f64::NAN], vec![2.0, 2.0]];
        let out = p.predict_job(&recent, &ResourceVector::new([10.0, 10.0, 10.0]));
        for k in 0..NUM_RESOURCES {
            assert!(out[k].is_finite(), "resource {k}: {}", out[k]);
            assert!(out[k] >= 0.0);
        }
        let f = p.fallbacks();
        assert_eq!(f.dnn_rejected, 2, "resources 0 and 1 were poisoned");
        // Resource 0 still has a finite sample to persist from; resource 1
        // has nothing and predicts zero (claims no unused resource).
        assert_eq!(f.hmm_last_value, 1, "{f:?}");
        assert_eq!(f.zero, 1, "{f:?}");
        assert!((out[1] - 0.0).abs() < 1e-12);
        // Resource 2 took the normal path: exact persistence.
        assert!((out[2] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sigma_blowup_degrades_instead_of_an_absurd_ci() {
        let mut p = fast_predictor();
        // Wild finite outcomes blow the normalized error window far past
        // any sane spread.
        for i in 0..20 {
            let (a, pr) = if i % 2 == 0 { (1e6, 0.0) } else { (0.0, 1e6) };
            p.record_outcome_scaled(0, a, pr, 1.0);
        }
        let recent = vec![vec![4.0, 4.0], vec![4.0, 4.0], vec![4.0, 4.0]];
        let out = p.predict_job(&recent, &ResourceVector::new([10.0, 10.0, 10.0]));
        assert!(out[0].is_finite());
        assert!(p.fallbacks().dnn_rejected >= 1, "{:?}", p.fallbacks());
        // The unpoisoned resources still take the exact normal path.
        assert!((out[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn poisoned_outcomes_are_kept_out_of_the_gate() {
        let mut p = fast_predictor();
        p.record_outcome_scaled(0, f64::NAN, 5.0, 10.0);
        p.record_outcome_scaled(0, 5.0, f64::INFINITY, 10.0);
        assert_eq!(p.fallbacks().poisoned_outcomes, 2);
        assert_eq!(p.gate().samples(0), 0, "no NaN entered the window");
        // Clean evidence afterwards still unlocks the gate: the poison did
        // not wedge sigma_hat.
        for _ in 0..70 {
            p.record_outcome_scaled(0, 5.05, 5.0, 10.0);
        }
        assert!(p.unlocked(0));
    }

    #[test]
    fn poisoned_histories_are_refused_by_the_corpus() {
        let mut p = fast_predictor();
        let bad = vec![1.0, f64::NAN, 1.0];
        let good = vec![1.0, 1.0, 1.0];
        p.add_history(&[bad, good.clone(), good]);
        assert_eq!(p.fallbacks().poisoned_histories, 1);
        // Only the finite histories were admitted.
        assert_eq!(p.corpus[0].len(), 0);
        assert_eq!(p.corpus[1].len(), 1);
    }

    #[test]
    fn predictions_never_negative() {
        let mut p = fast_predictor();
        for _ in 0..70 {
            p.record_outcome_scaled(0, 0.0, 100.0, 10.0); // huge sigma
        }
        let out = p.predict_job(
            &[vec![0.1, 0.1], vec![0.1], vec![0.1]],
            &ResourceVector::new([10.0, 10.0, 10.0]),
        );
        assert!(out.is_nonnegative());
    }
}
