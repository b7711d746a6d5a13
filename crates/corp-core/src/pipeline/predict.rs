//! The prediction stage: forecast unused resources, score past forecasts.
//!
//! [`UsagePredictor`] is the pipeline's first stage. Each slot it *ingests*
//! fresh telemetry (resolving matured predictions against observed
//! outcomes, paper Eq. 20) and, at window boundaries, produces a
//! [`WindowForecast`] of unused resources for the reallocation gate to act
//! on. Two granularities exist:
//!
//! * [`CorpUsagePredictor`] — per-job DNN + HMM + CI (Eqs. 5–19) behind
//!   the Eq. 21 preemption gate, fanned through the persistent
//!   [`PredictRuntime`] and run in lanes of jobs, one batched DNN forward
//!   per lane.
//! * [`VmWindowPredictor`] — the baselines' per-VM forecasters
//!   (exponential smoothing, FFT/Markov, run-time mean) behind one shared
//!   observe/resolve loop, with [`FiniteGuard`] decorating the raw
//!   [`VmPredictorCore`] so poisoned (non-finite) telemetry is dropped
//!   before it can wedge a smoother.

use crate::config::CorpConfig;
use crate::pipeline::pool::PredictRuntime;
use crate::predictor::{CorpJobPredictor, PredictionScratch};
use corp_sim::{ResourceVector, RunningJobView, SlotContext};
use corp_trace::NUM_RESOURCES;
use std::collections::HashMap;

/// A prediction awaiting outcome resolution: at slot `made_at` the pipeline
/// predicted `predicted` unused resources for the window
/// `(made_at, made_at + window]` of the entity identified by `key` — a job
/// id for job-granular schemes (CORP), a VM id for VM-granular ones.
#[derive(Debug, Clone)]
pub struct PendingOutcome {
    /// Job id (CORP) or VM id (baselines) the prediction concerns.
    pub key: u64,
    /// Slot the prediction was made.
    pub made_at: u64,
    /// Predicted unused vector.
    pub predicted: ResourceVector,
}

/// One window's forecast, at the granularity native to the scheme.
#[derive(Debug, Clone)]
pub enum WindowForecast {
    /// One predicted-unused vector per (vm, job) task, in fleet scan order
    /// over the owned jobs with a non-empty unused history — CORP's
    /// granularity.
    PerJob(Vec<ResourceVector>),
    /// One optional predicted-unused vector per VM position (`None` for
    /// VMs running no owned job, or cold predictors) — the baselines'
    /// granularity.
    PerVm(Vec<Option<ResourceVector>>),
}

/// Stage 1 of the provisioning pipeline: unused-resource prediction.
///
/// `ingest` runs every slot (telemetry in, matured predictions scored);
/// `forecast` runs only at window boundaries and feeds the
/// [`ReallocationGate`](crate::pipeline::ReallocationGate). `unlocked`
/// exposes the Eq. 21 preemption-gate verdict per resource (always open
/// for ungated schemes).
pub trait UsagePredictor {
    /// Absorbs one slot of telemetry: resolves matured entries of
    /// `outcomes` against observed unused levels (paper Eq. 20) and feeds
    /// the newest observations to the underlying forecaster.
    fn ingest(&mut self, ctx: &SlotContext<'_>, window: u64, outcomes: &mut Vec<PendingOutcome>);

    /// Produces the forecast for the window starting at `ctx.slot`.
    fn forecast(&mut self, ctx: &SlotContext<'_>) -> WindowForecast;

    /// Whether the Eq. 21 preemption gate permits reclaiming `resource`.
    /// Ungated schemes are always open.
    fn unlocked(&self, resource: usize) -> bool {
        let _ = resource;
        true
    }

    /// Folds a completed job's unused history into the training corpus.
    /// Default: ignore (only learning predictors care).
    fn absorb_completion(&mut self, job: u64, unused_history: &[Vec<f64>]) {
        let _ = (job, unused_history);
    }
}

/// Resolves window predictions whose horizon has elapsed: the prediction
/// made at `made_at` for the window `(made_at, made_at + window]` is scored
/// at `made_at + window` against the *mean* unused level the VM exhibited
/// over that window (paper Eq. 20 collects one error sample per slot of the
/// window; the mean is their aggregate and is robust to single-slot
/// bursts).
fn resolve_window_outcomes(
    pending: &mut Vec<PendingOutcome>,
    ctx: &SlotContext<'_>,
    window: u64,
    mut record: impl FnMut(usize, f64, f64),
) {
    pending.retain(|outcome| {
        let due = outcome.made_at + window;
        if ctx.slot < due {
            return true;
        }
        if ctx.slot == due {
            if let Some(v) = ctx.vms.get(outcome.key as usize) {
                let h = &v.unused_history;
                let n = (window as usize).min(h.len());
                if n > 0 {
                    let mut mean = ResourceVector::ZERO;
                    for u in &h[h.len() - n..] {
                        mean += *u;
                    }
                    mean = mean.scaled(1.0 / n as f64);
                    for k in 0..NUM_RESOURCES {
                        // Poisoned telemetry in the window makes the mean
                        // non-finite; discard rather than feed the error
                        // trackers a NaN they can never recover from.
                        if mean[k].is_finite() && outcome.predicted[k].is_finite() {
                            record(k, mean[k], outcome.predicted[k]);
                        }
                    }
                }
            }
        }
        false
    });
}

// ---------------------------------------------------------------------------
// CORP: per-job DNN + HMM + CI
// ---------------------------------------------------------------------------

/// Jobs per batched DNN forward in [`CorpUsagePredictor::forecast`]. Wide
/// enough that the blocked matmul vectorises across lanes and amortises
/// its weight loads: on the benchmark's `corp-steady-1k` (seed 11, three
/// alternated runs each) 8 / 32 / 64 / 128 lanes gave 183-198 / 220-246 /
/// 231-244 / 235-248 slots/s. 64 and 128 tie within the run-to-run
/// spread and 64 needs half the lane buffers. It is also the grain the
/// pooled runtime hands work out in: a thread claims one lane at a time,
/// so the last one to finish a window idles for at most a lane's work.
/// Results do not depend on it.
const FORECAST_LANES: usize = 64;

/// CORP's prediction stage: the per-job DNN forecast with HMM fluctuation
/// correction and confidence-interval margin (Eqs. 5–19), fanned across
/// the persistent prediction runtime at window boundaries. Outcome keys
/// are job ids; matured predictions are scored against the job's own mean
/// unused level, keeping `sigma_hat` on the scale of individual
/// predictions — a VM-aggregate error would overwhelm the per-job
/// confidence interval.
pub struct CorpUsagePredictor {
    predictor: CorpJobPredictor,
    runtime: PredictRuntime,
    /// Reused per-window (vm, job) task list — cleared, never dropped.
    tasks: Vec<(usize, usize)>,
}

impl CorpUsagePredictor {
    /// Builds the stage from a validated CORP configuration.
    pub fn new(config: &CorpConfig) -> Self {
        CorpUsagePredictor {
            predictor: CorpJobPredictor::new(config),
            runtime: PredictRuntime::new(config.prediction_pool_width),
            tasks: Vec::new(),
        }
    }

    /// Offline-trains the predictor on a historical workload (paper: the
    /// Google-trace history). `histories_per_resource[k]` holds per-job
    /// unused series for resource `k`. Training also warms the Eq. 21 gate
    /// from historical prediction errors.
    pub fn pretrain(&mut self, histories_per_resource: &[Vec<Vec<f64>>]) {
        self.predictor.pretrain(histories_per_resource);
    }

    /// The underlying predictor (diagnostics).
    pub fn inner(&self) -> &CorpJobPredictor {
        &self.predictor
    }
}

impl UsagePredictor for CorpUsagePredictor {
    fn ingest(&mut self, ctx: &SlotContext<'_>, window: u64, outcomes: &mut Vec<PendingOutcome>) {
        // Resolve matured per-job predictions against the job's own mean
        // unused level over the predicted window (paper Eq. 20). Outcomes
        // mature only on window boundaries, so the job-id index over the
        // whole fleet is built lazily: on the (window - 1) out of window
        // slots where nothing is due, retain() below would keep every
        // entry and the map would never be probed.
        if !outcomes.iter().any(|o| ctx.slot >= o.made_at + window) {
            self.predictor.maybe_train();
            return;
        }
        let mut job_views: HashMap<u64, &RunningJobView> = HashMap::new();
        for vm in ctx.vms {
            for job in ctx.owned_jobs(vm) {
                job_views.insert(job.id, job);
            }
        }
        let predictor = &mut self.predictor;
        outcomes.retain(|outcome| {
            let due = outcome.made_at + window;
            if ctx.slot < due {
                return true;
            }
            if ctx.slot == due {
                if let Some(job) = job_views.get(&outcome.key) {
                    let h = &job.recent_unused;
                    let n = (window as usize).min(h.len());
                    if n > 0 {
                        let mut mean = ResourceVector::ZERO;
                        for u in &h[h.len() - n..] {
                            mean += *u;
                        }
                        mean = mean.scaled(1.0 / n as f64);
                        for k in 0..NUM_RESOURCES {
                            predictor.record_outcome_scaled(
                                k,
                                mean[k],
                                outcome.predicted[k],
                                job.requested[k],
                            );
                        }
                    }
                }
            }
            false
        });
        self.predictor.maybe_train();
    }

    fn forecast(&mut self, ctx: &SlotContext<'_>) -> WindowForecast {
        // Flatten the fleet's prediction work into (vm, job) tasks and fan
        // them through the prediction runtime — the width policy counts
        // jobs. The runtime hands the threads one lane of FORECAST_LANES
        // jobs at a time; a lane goes through the thread's own scratch
        // against the shared immutable predictor: one batched DNN forward
        // per resource per lane, everything else job by job. Lanes do not
        // interact and results land by task index, so the forecast — and
        // everything downstream — is bit-identical to the serial one-job
        // path regardless of thread count, lane width or which thread took
        // which lane; fallback-counter deltas merge after the join (u64
        // adds, order-independent). The scratch persists across windows
        // (reset-not-reallocate).
        let predictor = &self.predictor;
        let runtime = &mut self.runtime;
        let tasks = &mut self.tasks;
        tasks.clear();
        tasks.extend(ctx.vms.iter().enumerate().flat_map(|(vi, vm)| {
            // `ji` indexes the VM's whole job list (a shard reads the
            // engine's views in place); only owned jobs become tasks, in
            // view order.
            vm.jobs
                .iter()
                .enumerate()
                .filter(|(_, job)| ctx.share.owns(job.id) && !job.recent_unused.is_empty())
                .map(move |(ji, _)| (vi, ji))
        }));
        let (u_hats, deltas) = runtime.fan_out(
            tasks.as_slice(),
            FORECAST_LANES,
            ResourceVector::ZERO,
            PredictionScratch::new,
            |chunk: &[(usize, usize)], out: &mut [ResourceVector], scratch| {
                for (lane, u_hats) in chunk
                    .chunks(FORECAST_LANES)
                    .zip(out.chunks_mut(FORECAST_LANES))
                {
                    let jobs = lane.iter().map(|&(vi, ji)| {
                        let job = &ctx.vms[vi].jobs[ji];
                        (job.recent_unused.as_slice(), &job.requested)
                    });
                    predictor.predict_jobs_in(jobs, u_hats, scratch);
                }
            },
            |scratch| std::mem::take(&mut scratch.fallbacks),
        );
        for delta in &deltas {
            self.predictor.merge_fallbacks(delta);
        }
        WindowForecast::PerJob(u_hats)
    }

    fn unlocked(&self, resource: usize) -> bool {
        self.predictor.unlocked(resource)
    }

    fn absorb_completion(&mut self, _job: u64, unused_history: &[Vec<f64>]) {
        self.predictor.add_history(unused_history);
    }
}

// ---------------------------------------------------------------------------
// Baselines: per-VM cores behind one window loop
// ---------------------------------------------------------------------------

/// The minimal contract a per-VM forecaster (RCCR's smoother, CloudScale's
/// FFT/Markov, DRA's run-time mean) must satisfy to plug into
/// [`VmWindowPredictor`]. `record_outcome` defaults to a no-op for cores
/// that keep no error statistics (DRA).
pub trait VmPredictorCore: Send + Sync {
    /// Feeds one observed unused vector for `vm`.
    fn observe(&mut self, vm: usize, unused: &ResourceVector);

    /// Scores a matured prediction for error tracking. Default: ignore.
    fn record_outcome(&mut self, resource: usize, actual: f64, predicted: f64) {
        let _ = (resource, actual, predicted);
    }

    /// The forecast for `vm`, or `None` while cold.
    fn predict(&self, vm: usize) -> Option<ResourceVector>;
}

impl VmPredictorCore for crate::predictor::RccrPredictor {
    fn observe(&mut self, vm: usize, unused: &ResourceVector) {
        crate::predictor::RccrPredictor::observe(self, vm, unused);
    }
    fn record_outcome(&mut self, resource: usize, actual: f64, predicted: f64) {
        crate::predictor::RccrPredictor::record_outcome(self, resource, actual, predicted);
    }
    fn predict(&self, vm: usize) -> Option<ResourceVector> {
        crate::predictor::RccrPredictor::predict(self, vm)
    }
}

impl VmPredictorCore for crate::predictor::CloudScalePredictor {
    fn observe(&mut self, vm: usize, unused: &ResourceVector) {
        crate::predictor::CloudScalePredictor::observe(self, vm, unused);
    }
    fn record_outcome(&mut self, resource: usize, actual: f64, predicted: f64) {
        crate::predictor::CloudScalePredictor::record_outcome(self, resource, actual, predicted);
    }
    fn predict(&self, vm: usize) -> Option<ResourceVector> {
        crate::predictor::CloudScalePredictor::predict(self, vm)
    }
}

impl VmPredictorCore for crate::predictor::DraPredictor {
    fn observe(&mut self, vm: usize, unused: &ResourceVector) {
        crate::predictor::DraPredictor::observe(self, vm, unused);
    }
    fn predict(&self, vm: usize) -> Option<ResourceVector> {
        crate::predictor::DraPredictor::predict(self, vm)
    }
}

/// Decorator dropping non-finite observations before they reach the core —
/// the fault-tolerance hook poisoned telemetry (see `corp-faults`) is
/// filtered through: a smoother that absorbed a NaN could never flush it,
/// so the guard holds the previous state instead and counts the drop.
pub struct FiniteGuard<P> {
    inner: P,
    dropped: u64,
}

impl<P> FiniteGuard<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        FiniteGuard { inner, dropped: 0 }
    }

    /// Observations discarded for carrying non-finite components.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl<P: VmPredictorCore> VmPredictorCore for FiniteGuard<P> {
    fn observe(&mut self, vm: usize, unused: &ResourceVector) {
        if unused.is_finite() {
            self.inner.observe(vm, unused);
        } else {
            self.dropped += 1;
        }
    }
    fn record_outcome(&mut self, resource: usize, actual: f64, predicted: f64) {
        self.inner.record_outcome(resource, actual, predicted);
    }
    fn predict(&self, vm: usize) -> Option<ResourceVector> {
        self.inner.predict(vm)
    }
}

/// The baselines' prediction stage: one shared resolve/observe/forecast
/// window loop over any [`VmPredictorCore`]. Outcome keys are VM ids;
/// forecasts fan out per VM through the stage's [`PredictRuntime`].
pub struct VmWindowPredictor<P> {
    core: P,
    runtime: PredictRuntime,
}

impl<P> VmWindowPredictor<P> {
    /// Builds the stage around `core` at the default fan-out width.
    pub fn new(core: P) -> Self {
        VmWindowPredictor {
            core,
            runtime: PredictRuntime::new(None),
        }
    }

    /// Builds the stage with the fan-out pinned to width 1 (schemes whose
    /// per-VM forecast is too cheap to be worth a thread, e.g. DRA's
    /// running mean).
    pub fn serial(core: P) -> Self {
        VmWindowPredictor {
            core,
            runtime: PredictRuntime::new(Some(1)),
        }
    }

    /// The prediction runtime (the width pin).
    pub fn runtime_mut(&mut self) -> &mut PredictRuntime {
        &mut self.runtime
    }

    /// The underlying forecaster core (diagnostics).
    pub fn core(&self) -> &P {
        &self.core
    }
}

impl<P: VmPredictorCore> UsagePredictor for VmWindowPredictor<P> {
    fn ingest(&mut self, ctx: &SlotContext<'_>, window: u64, outcomes: &mut Vec<PendingOutcome>) {
        let core = &mut self.core;
        resolve_window_outcomes(outcomes, ctx, window, |k, actual, predicted| {
            core.record_outcome(k, actual, predicted);
        });
        // Feed the newest observation per VM; the FiniteGuard decorator
        // (when present) drops poisoned samples here.
        for vm in ctx.vms {
            if let Some(u) = vm.unused_history.last() {
                core.observe(vm.id, u);
            }
        }
    }

    fn forecast(&mut self, ctx: &SlotContext<'_>) -> WindowForecast {
        let core = &self.core;
        let runtime = &mut self.runtime;
        WindowForecast::PerVm(runtime.fan_out_vms(ctx, |vm| core.predict(vm.id)))
    }
}

// ---------------------------------------------------------------------------
// No-op (reservation-based schemes)
// ---------------------------------------------------------------------------

/// A predictor that never predicts — the stage configuration of pure
/// reservation-based schemes (static peak), which place at full request
/// and never reclaim.
#[derive(Debug, Default)]
pub struct NoopUsagePredictor;

impl UsagePredictor for NoopUsagePredictor {
    fn ingest(
        &mut self,
        _ctx: &SlotContext<'_>,
        _window: u64,
        _outcomes: &mut Vec<PendingOutcome>,
    ) {
    }

    fn forecast(&mut self, _ctx: &SlotContext<'_>) -> WindowForecast {
        WindowForecast::PerVm(Vec::new())
    }
}
