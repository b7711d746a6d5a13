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
use crate::pipeline::{configured_pool_width, WorkerPool};
use crate::preemption::PreemptionGate;
use corp_dnn::{PredictBatchScratch, UnusedResourcePredictor};
use corp_hmm::{Correction, FluctuationPredictor};
use corp_sim::ResourceVector;
use corp_stats::{z_for_confidence, SimpleExp};
use corp_trace::NUM_RESOURCES;
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

/// Prediction-error tolerance `eps` of Eq. 21. Errors enter the gate
/// normalized by the job's requested amount, so this is a fraction of the
/// request.
const ERROR_TOLERANCE_FRAC: f64 = 0.75;

/// Resolved prediction errors per resource in the sliding window behind
/// `sigma_hat` and the Eq. 21 gate.
const ERROR_WINDOW: usize = 64;

/// How often each rung of the prediction fallback ladder fired.
///
/// Rung 0 (the full DNN + HMM + CI pipeline) is the normal path and is
/// not counted; every counter here is a degradation event. In a
/// fault-free run all counters stay zero.
#[derive(Debug, Clone, Default, PartialEq)]
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
    pub(crate) fn absorb(&mut self, other: &FallbackCounters) {
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

/// Per-thread scratch for the prediction entry points
/// ([`CorpJobPredictor::predict_jobs_in`] and its one-job form
/// [`predict_job_in`](CorpJobPredictor::predict_job_in)): the lane staging
/// per resource, the DNN's lane buffers, the fallback ladder's filter
/// buffer, and a local [`FallbackCounters`] delta that the owner merges
/// back via `CorpJobPredictor::merge_fallbacks` after joining its threads.
///
/// Every buffer is reset, not reallocated, per use and fully rewritten
/// before it is read, so a scratch that lives across windows (a fan-out
/// participant's) predicts bit-identically to a fresh one.
#[derive(Debug, Clone, Default)]
pub struct PredictionScratch {
    stage: [LaneStage; NUM_RESOURCES],
    /// Series ranges and DNN outputs of the lanes that need the DNN's
    /// forward, in lane order, and each one's lane index and HMM
    /// correction.
    healthy: Vec<Range<usize>>,
    dnn_out: Vec<f64>,
    waiting: Vec<(usize, Option<Correction>)>,
    net: PredictBatchScratch,
    /// Finite-subset filter buffer for the fallback ladder.
    finite: Vec<f64>,
    /// Fallback-rung increments recorded by predictions through this
    /// scratch.
    pub fallbacks: FallbackCounters,
    /// Lanes whose zero the bound proved without a forward.
    #[cfg(test)]
    proven: u64,
}

impl PredictionScratch {
    /// An empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        PredictionScratch::default()
    }

    /// Same as [`new`](Self::new): every scratch reuses its buffers, so
    /// the scratch a stage keeps per fan-out participant needs no flavour
    /// of its own.
    pub fn persistent() -> Self {
        PredictionScratch::default()
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
    /// [`CorpConfig::prediction_pool_width`]: the participants of
    /// [`train_now`](Self::train_now)'s fan-out.
    pool_width: Option<usize>,
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
            gate: PreemptionGate::new(ERROR_WINDOW, ERROR_TOLERANCE_FRAC, config.prob_threshold),
            trained: false,
            fallbacks: FallbackCounters::default(),
            pool_width: config.prediction_pool_width,
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
    /// [`pretrain`](Self::pretrain) and forced-training tests). The six
    /// fits — per resource the DNN, and the HMM on the corpus pooled into
    /// one long series (the paper fits the HMM on historical data) — share
    /// nothing, so they fan over a worker pool of the configured width,
    /// the long DNN fits first for the HMM fits to fill in behind. A fit's
    /// bits do not depend on who runs it. The forecast's serial cutoff
    /// does not apply: each fit is milliseconds.
    fn train_now(&mut self) {
        type Fit<'a> = Box<dyn FnOnce() + Send + 'a>;
        let corpus = &self.corpus;
        let dnn_fits = self.dnn.iter_mut().zip(corpus).map(|(dnn, histories)| {
            Box::new(move || {
                let _ = dnn.fit(histories);
            }) as Fit<'_>
        });
        let hmm_fits = self.hmm.iter_mut().zip(corpus).map(|(hmm, histories)| {
            Box::new(move || {
                let _ = hmm.fit(&histories.concat());
            }) as Fit<'_>
        });
        let mut fits: Vec<Option<Fit<'_>>> = dnn_fits.chain(hmm_fits).map(Some).collect();
        let tasks = vec![(); fits.len()];
        let width = self.pool_width.unwrap_or_else(configured_pool_width);
        WorkerPool::new().run_chunks(
            &tasks,
            &mut fits,
            1,
            &mut vec![(); width.min(tasks.len())],
            &|_: &[()], fits: &mut [Option<Fit<'_>>], _: &mut ()| {
                fits.iter_mut()
                    .filter_map(Option::take)
                    .for_each(|fit| fit());
            },
        );
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
    ///
    /// The predictor stays immutable, so the runtime's threads can fan a
    /// fleet's predictions over one shared `&CorpJobPredictor`. This is the
    /// one-lane case of [`predict_jobs_in`](Self::predict_jobs_in).
    /// Fallback-rung increments accumulate in `scratch.fallbacks` for the
    /// owner to merge after the join
    /// (`merge_fallbacks`).
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
    /// one batch, so the DNN does one blocked forward for all of them that
    /// its output bound does not settle.
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
    pub(crate) fn merge_fallbacks(&mut self, delta: &FallbackCounters) {
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
    /// An unhealthy lane degrades down the fallback ladder
    /// ([`fallback_estimate`](Self::fallback_estimate)) instead of
    /// emitting a poisoned number.
    ///
    /// A healthy lane first runs its own steps on the DNN's upper bound
    /// ([`UnusedResourcePredictor::upper_bound`]) in place of the DNN's
    /// output. Every step is non-decreasing in that value, so when the
    /// bound's result is finite and negative the real one is too, and the
    /// clamp returns exactly 0.0 either way: the lane gets 0.0 without a
    /// forward. The rest share one batched DNN forward.
    fn predict_staged(&self, k: usize, scratch: &mut PredictionScratch) {
        let PredictionScratch {
            stage,
            healthy,
            dnn_out,
            waiting,
            net,
            finite,
            fallbacks,
            #[cfg(test)]
            proven,
        } = scratch;
        let LaneStage {
            flat,
            lanes,
            scales,
            u_hat,
        } = &mut stage[k];
        let sigma = self.gate.sigma_hat(k);
        let sigma_ok = sigma.is_finite() && sigma <= SIGMA_BLOWUP;
        // Steps 2 and 3 on a DNN prediction `u`: the HMM peak/valley
        // correction and the confidence-interval lower bound (Eq. 19), on
        // the job's own scale.
        let finish = |u: f64, correction: Option<Correction>, scale: f64| {
            let u = correction.map_or(u, |c| c.apply(u));
            if self.use_ci {
                u - sigma * self.confidence_z * scale
            } else {
                u
            }
        };

        healthy.clear();
        waiting.clear();
        u_hat.clear();
        for (b, (lane, &scale)) in lanes.iter().zip(scales.iter()).enumerate() {
            let series = &flat[lane.clone()];
            if series.is_empty() {
                u_hat.push(0.0);
                continue;
            }
            // One pass reads the HMM correction and whether every sample
            // is finite; the ablation without the correction reads only
            // the flag from it.
            let read = self.hmm[k].correction(series);
            if !sigma_ok || !read.series_finite() {
                fallbacks.dnn_rejected += 1;
                u_hat.push(self.fallback_estimate(k, series, finite, fallbacks));
                continue;
            }
            let correction = self.use_hmm.then_some(read);
            if self.use_ci {
                if let Some(bound) = self.dnn[k].upper_bound(series) {
                    let u = finish(bound, correction, scale);
                    if u < 0.0 && u.is_finite() {
                        #[cfg(test)]
                        {
                            *proven += 1;
                        }
                        u_hat.push(0.0);
                        continue;
                    }
                }
            }
            // Filled in after the forward.
            u_hat.push(0.0);
            healthy.push(lane.clone());
            waiting.push((b, correction));
        }

        // Step 1: DNN prediction (persistence fallback if untrained), one
        // forward for every lane still waiting.
        dnn_out.clear();
        dnn_out.resize(healthy.len(), 0.0);
        self.dnn[k].predict_batch_with(flat, healthy, dnn_out, net);
        for (&(b, correction), &dnn) in waiting.iter().zip(dnn_out.iter()) {
            let u = finish(dnn, correction, scales[b]);
            u_hat[b] = if u.is_finite() {
                u.max(0.0)
            } else {
                fallbacks.dnn_rejected += 1;
                let series = &flat[lanes[b].clone()];
                self.fallback_estimate(k, series, finite, fallbacks)
            };
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
        finite: &mut Vec<f64>,
        fallbacks: &mut FallbackCounters,
    ) -> f64 {
        finite.clear();
        finite.extend(series.iter().copied().filter(|v| v.is_finite()));
        if let Some(&last) = finite.last() {
            let adjusted = if self.use_hmm {
                self.hmm[k].correction(finite).apply(last)
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
    use corp_dnn::PredictScratch;
    use proptest::prelude::*;

    fn fast_predictor() -> CorpJobPredictor {
        CorpJobPredictor::new(&CorpConfig::fast())
    }

    /// The shortcut-free reference for one job: per resource,
    /// `predict_with`, then `adjust` (the HMM's separate passes), then the
    /// CI, the clamp and the fallback ladder, one series at a time — no
    /// bound, no lanes, no one-pass HMM read. Fallback increments land in
    /// `scratch.fallbacks`.
    fn predict_job_reference(
        p: &CorpJobPredictor,
        recent: &[Vec<f64>],
        requested: &ResourceVector,
        scratch: &mut PredictionScratch,
    ) -> ResourceVector {
        let mut net = PredictScratch::new();
        let mut out = ResourceVector::ZERO;
        for k in 0..NUM_RESOURCES {
            let series: &[f64] = recent.get(k).map_or(&[], Vec::as_slice);
            if series.is_empty() {
                continue;
            }
            let sigma = p.gate.sigma_hat(k);
            let healthy =
                sigma.is_finite() && sigma <= SIGMA_BLOWUP && series.iter().all(|v| v.is_finite());
            let dnn_path = healthy.then(|| {
                let mut u = p.dnn[k].predict_with(series, &mut net);
                if p.use_hmm {
                    u = p.hmm[k].adjust(u, series);
                }
                if p.use_ci {
                    u -= sigma * p.confidence_z * requested[k].max(1e-9);
                }
                u
            });
            out[k] = match dnn_path.filter(|u| u.is_finite()) {
                Some(u) => u.max(0.0),
                None => {
                    scratch.fallbacks.dnn_rejected += 1;
                    p.fallback_estimate(k, series, &mut scratch.finite, &mut scratch.fallbacks)
                }
            };
        }
        out
    }

    type Job = (Vec<ResourceVector>, ResourceVector);

    /// A pretrained predictor whose `sigma_hat` recorded outcomes drive
    /// into `(0, SIGMA_BLOWUP)` on every resource: normalized errors of
    /// `±spread`.
    fn calibrated(cfg: CorpConfig, spread: f64) -> CorpJobPredictor {
        let mut p = CorpJobPredictor::new(&cfg);
        let hs: Vec<Vec<f64>> = (0..10)
            .map(|j| (0..30).map(|t| 6.0 + ((t + j) % 3) as f64 * 0.3).collect())
            .collect();
        p.pretrain(&[hs.clone(), hs.clone(), hs]);
        for k in 0..NUM_RESOURCES {
            for i in 0..ERROR_WINDOW {
                let error = if i % 2 == 0 { spread } else { -spread };
                p.record_outcome_scaled(k, 10.0 * (0.5 + error), 5.0, 10.0);
            }
            let sigma = p.gate.sigma_hat(k);
            assert!(sigma > 0.0 && sigma < SIGMA_BLOWUP, "sigma_hat {sigma}");
        }
        p
    }

    /// Reference and lane-batched predictions of `jobs` (lanes of
    /// `width`), each with the fallback counters it left, and the number
    /// of lanes the bound proved zero.
    fn both_paths(
        p: &CorpJobPredictor,
        jobs: &[Job],
        width: usize,
    ) -> ([Vec<[u64; NUM_RESOURCES]>; 2], [FallbackCounters; 2], u64) {
        let mut reference = PredictionScratch::new();
        let want: Vec<ResourceVector> = jobs
            .iter()
            .map(|(recent, requested)| {
                let series: Vec<Vec<f64>> = (0..NUM_RESOURCES)
                    .map(|k| recent.iter().map(|u| u[k]).collect())
                    .collect();
                predict_job_reference(p, &series, requested, &mut reference)
            })
            .collect();
        let mut lanes = PredictionScratch::new();
        let mut got = vec![ResourceVector::ZERO; jobs.len()];
        for (chunk, out) in jobs.chunks(width).zip(got.chunks_mut(width)) {
            p.predict_jobs_in(
                chunk
                    .iter()
                    .map(|(recent, requested)| (recent.as_slice(), requested)),
                out,
                &mut lanes,
            );
        }
        let bits = |out: &[ResourceVector]| {
            out.iter()
                .map(|u| std::array::from_fn(|k| u[k].to_bits()))
                .collect()
        };
        (
            [bits(&want), bits(&got)],
            [reference.fallbacks, lanes.fallbacks],
            lanes.proven,
        )
    }

    /// One sample: mostly a non-negative level up to `high`, sometimes
    /// negative, a signed zero, near `f64::MAX`, NaN or infinite.
    fn sample(high: f64) -> impl Strategy<Value = f64> {
        (0u8..60, 0.0f64..1.0).prop_map(move |(kind, v)| match kind {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => f64::MAX * v,
            4 | 5 => -high * v,
            6 | 7 => 0.0,
            8 => -0.0,
            _ => high * v,
        })
    }

    /// A job: 0..31 slots of history (empty and one-sample included, and
    /// every trailing-chunk length of the HMM's windows), samples up to
    /// `high`, and its request.
    fn job(high: f64) -> impl Strategy<Value = Job> {
        (
            prop::collection::vec((sample(high), sample(high), sample(high)), 0..31),
            (0.5f64..30.0, 0.5f64..30.0, 0.5f64..30.0),
        )
            .prop_map(|(recent, (a, b, c))| {
                (
                    recent
                        .into_iter()
                        .map(|(x, y, z)| ResourceVector::new([x, y, z]))
                        .collect(),
                    ResourceVector::new([a, b, c]),
                )
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn lane_batched_forecast_equals_the_shortcut_free_reference(
            jobs in prop::collection::vec(job(8.0), 1..90),
            spread in 0.05f64..0.6,
            ablation in 0u8..3,
            width in 1usize..70,
        ) {
            let mut cfg = CorpConfig::fast();
            cfg.use_hmm_correction = ablation != 1;
            cfg.use_confidence_interval = ablation != 2;
            let p = calibrated(cfg, spread);
            let ([want, got], [want_counters, counters], _) = both_paths(&p, &jobs, width);
            prop_assert_eq!(got, want);
            prop_assert_eq!(counters, want_counters);
        }
    }

    #[test]
    fn the_bound_proves_a_quarter_of_the_lanes_and_moves_no_bit() {
        // Unused levels from none to most of the request, as on a saturated
        // fleet, with the CI's margin at a realistic sigma_hat.
        let jobs: Vec<Job> = (0..400)
            .map(|j| {
                let level = |k: usize| ((j * 7 + k * 13) % 17) as f64;
                let recent = (0..1 + j % 11)
                    .map(|t| {
                        ResourceVector::new(std::array::from_fn(|k| {
                            level(k) * (1.0 + ((t + k) % 3) as f64 * 0.1)
                        }))
                    })
                    .collect();
                (recent, ResourceVector::new([20.0, 30.0, 25.0]))
            })
            .collect();
        let p = calibrated(CorpConfig::fast(), 0.3);
        let ([want, got], [want_counters, counters], proven) = both_paths(&p, &jobs, 64);
        let mismatched = want.iter().zip(&got).filter(|(a, b)| a != b).count();
        assert_eq!(mismatched, 0, "{mismatched} of {} jobs differ", jobs.len());
        let lanes = (jobs.len() * NUM_RESOURCES) as u64;
        assert!(
            proven * 4 >= lanes,
            "proof fired on {proven} of {lanes} lanes"
        );
        assert!(
            proven < lanes,
            "every lane proven: the forward went untested"
        );
        assert_eq!(counters, want_counters);
    }

    #[test]
    fn bucketed_bounds_prove_a_strict_superset_of_the_unit_box_bound() {
        // Windows whose normalized minimum spreads over every bucket, from
        // none to most of the request, one to ten slots long.
        let jobs: Vec<Job> = (0..300)
            .map(|j| {
                let level = |k: usize| ((j * 5 + k * 11) % 13) as f64 * 2.0;
                let recent = (0..1 + j % 10)
                    .map(|t| {
                        ResourceVector::new(std::array::from_fn(|k| {
                            level(k) * (1.0 - ((t * 7 + j + k) % 17) as f64 / 16.0).max(0.0)
                        }))
                    })
                    .collect();
                (recent, ResourceVector::new([20.0, 30.0, 25.0]))
            })
            .collect();
        let p = calibrated(CorpConfig::fast(), 0.3);
        let ([want, got], [want_counters, counters], _) = both_paths(&p, &jobs, 64);
        assert_eq!(got, want);
        assert_eq!(counters, want_counters);
        // Per lane: whether the pipeline proved it zero, and whether the
        // one unit-box bound would have, scaled by the query window's
        // maximum and put through Eq. 19's steps as the reference does.
        let mut scratch = PredictionScratch::new();
        let (mut bucketed, mut unit_box) = (0, 0);
        for (recent, requested) in &jobs {
            for k in 0..NUM_RESOURCES {
                let series: Vec<f64> = recent.iter().map(|u| u[k]).collect();
                let scale = requested[k].max(1e-9);
                let before = scratch.proven;
                p.predict_resource_in(k, &series, scale, &mut scratch);
                let proven = scratch.proven > before;
                let delta = p.dnn[k].config().window;
                let window = &series[series.len().saturating_sub(delta)..];
                let max = window.iter().copied().fold(0.0, f64::max).max(1e-9);
                let single = p.dnn[k].unit_box_bound().is_some_and(|y_hi| {
                    let u = p.hmm[k].adjust((y_hi * max).max(0.0), &series)
                        - p.gate.sigma_hat(k) * p.confidence_z * scale;
                    u < 0.0 && u.is_finite()
                });
                assert!(
                    proven || !single,
                    "{series:?}: the unit box proves it, its bucket does not"
                );
                bucketed += u64::from(proven);
                unit_box += u64::from(single);
            }
        }
        assert!(
            bucketed > unit_box,
            "buckets proved {bucketed} lanes, the unit box {unit_box}"
        );
    }

    /// One job through `predict_job_in`, its fallback increments merged
    /// into the predictor's counters.
    fn predict(
        p: &mut CorpJobPredictor,
        recent: &[Vec<f64>],
        requested: &ResourceVector,
    ) -> ResourceVector {
        let mut scratch = PredictionScratch::new();
        let out = p.predict_job_in(recent, requested, &mut scratch);
        p.merge_fallbacks(&scratch.fallbacks);
        out
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
        let out = predict(&mut p, &recent, &ResourceVector::new([10.0, 10.0, 10.0]));
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
        let out = predict(&mut p, &recent, &ResourceVector::new([10.0, 10.0, 10.0]));
        for k in 0..NUM_RESOURCES {
            assert!(out[k] >= 0.0 && out[k] < 12.0, "resource {k}: {}", out[k]);
        }
    }

    /// Per-resource corpora that differ by resource in level and period,
    /// so a fit stored in another resource's slot shows.
    fn distinct_corpora() -> Vec<Vec<Vec<f64>>> {
        (0..NUM_RESOURCES)
            .map(|k| {
                (0..12)
                    .map(|j| {
                        (0..30)
                            .map(|t| 2.0 + 3.0 * k as f64 + ((t * (k + 2) + j) % 5) as f64 * 0.4)
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// Unused series the trained pipeline is probed on.
    fn probes() -> Vec<Vec<f64>> {
        (0..6)
            .map(|i| {
                (0..9)
                    .map(|t| 1.0 + ((t * 3 + i) % 7) as f64 * 0.9)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn pretraining_gives_the_same_predictor_at_widths_1_2_and_3() {
        let corpora = distinct_corpora();
        let read = |width: usize| {
            let mut p = CorpJobPredictor::new(&CorpConfig {
                prediction_pool_width: Some(width),
                ..CorpConfig::fast()
            });
            p.pretrain(&corpora);
            let y_hi: Vec<_> = p
                .dnn
                .iter()
                .map(|d| d.upper_bound(&[1.0]).map(f64::to_bits))
                .collect();
            let sigma: Vec<_> = (0..NUM_RESOURCES)
                .map(|k| p.gate.sigma_hat(k).to_bits())
                .collect();
            let mut scratch = PredictionScratch::new();
            let predictions: Vec<[u64; NUM_RESOURCES]> = probes()
                .into_iter()
                .map(|probe| {
                    let recent = vec![probe; NUM_RESOURCES];
                    let u = p.predict_job_in(&recent, &ResourceVector::splat(12.0), &mut scratch);
                    std::array::from_fn(|k| u[k].to_bits())
                })
                .collect();
            p.merge_fallbacks(&scratch.fallbacks);
            (y_hi, sigma, predictions, p.fallbacks().clone())
        };
        let serial = read(1);
        assert_eq!(read(2), serial, "width 2");
        assert_eq!(read(3), serial, "width 3");
    }

    #[test]
    fn each_resource_fits_its_own_corpus() {
        // Resource k's DNN and HMM, fitted alone on corpus k as the
        // serial loop fitted them, against the fanned-out pretraining.
        let cfg = CorpConfig::fast();
        let corpora = distinct_corpora();
        let mut p = CorpJobPredictor::new(&cfg);
        p.pretrain(&corpora);
        let mut net = PredictScratch::new();
        for (k, corpus) in corpora.iter().enumerate() {
            let mut dnn_cfg = cfg.dnn_config();
            dnn_cfg.seed = dnn_cfg.seed.wrapping_add(k as u64);
            let mut dnn = UnusedResourcePredictor::new(dnn_cfg);
            dnn.fit(corpus);
            let mut hmm = FluctuationPredictor::new(cfg.hmm_window.max(2));
            hmm.fit(&corpus.iter().flatten().copied().collect::<Vec<_>>());
            for probe in probes() {
                let (want, got) = (
                    dnn.predict_with(&probe, &mut net),
                    p.dnn[k].predict_with(&probe, &mut net),
                );
                assert_eq!(got.to_bits(), want.to_bits(), "resource {k}: DNN");
                assert_eq!(
                    p.hmm[k].correction(&probe),
                    hmm.correction(&probe),
                    "resource {k}: HMM"
                );
            }
        }
    }

    #[test]
    fn confidence_interval_lowers_prediction_after_errors() {
        let mut p = fast_predictor();
        let hs = synthetic_histories(10, 6.0);
        p.pretrain(&[hs.clone(), hs.clone(), hs]);
        let recent = vec![vec![6.0; 8], vec![6.0; 8], vec![6.0; 8]];
        let before = predict(&mut p, &recent, &ResourceVector::new([10.0, 10.0, 10.0]));
        // Noisy outcomes raise sigma_hat.
        for (a, pr) in [(6.0, 4.0), (2.0, 4.0), (7.0, 4.0), (1.0, 4.0)] {
            p.record_outcome_scaled(0, a, pr, 10.0);
        }
        let after = predict(&mut p, &recent, &ResourceVector::new([10.0, 10.0, 10.0]));
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
        let out = predict(&mut p, &recent, &ResourceVector::new([10.0, 10.0, 10.0]));
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
        let out = predict(
            &mut p,
            &[vec![], vec![], vec![]],
            &ResourceVector::new([10.0, 10.0, 10.0]),
        );
        assert_eq!(out, ResourceVector::ZERO);
    }

    #[test]
    fn nan_series_degrades_to_a_finite_fallback() {
        let mut p = fast_predictor();
        let recent = vec![vec![4.0, f64::NAN], vec![f64::NAN], vec![2.0, 2.0]];
        let out = predict(&mut p, &recent, &ResourceVector::new([10.0, 10.0, 10.0]));
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
        let out = predict(&mut p, &recent, &ResourceVector::new([10.0, 10.0, 10.0]));
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
        let out = predict(
            &mut p,
            &[vec![0.1, 0.1], vec![0.1], vec![0.1]],
            &ResourceVector::new([10.0, 10.0, 10.0]),
        );
        assert!(out.is_nonnegative());
    }
}
