//! Benchmark-owned decorators: every per-layer number is a span timed here,
//! around a call into a layer's public function. The program itself is
//! not touched, and a decorator never changes what it forwards — the
//! traced and untraced runs must serialize the same report, which the
//! benchmark checks.

use corp_core::pipeline::{PendingOutcome, WindowForecast};
use corp_core::UsagePredictor;
use corp_core::{Claim, JobEntity, JobPacker, PackableJob, PlacementBackend, ReallocationGate};
use corp_sim::{
    ControlPlaneStats, JobCompletion, JobId, ProvisionPlan, Provisioner, ResourceVector,
    SlotContext,
};
use corp_trace::{JobSpec, NUM_RESOURCES};
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A statistic shared between a decorator and the reader of the ledger.
/// It publishes no other data, so `Relaxed` is enough.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Seconds, for a counter that holds nanoseconds.
    pub fn secs(&self) -> f64 {
        self.get() as f64 / 1e9
    }

    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(start.elapsed().as_nanos() as u64);
        out
    }
}

/// Inputs copied out of a traced run once it is in steady state, for the
/// kernel timings: what the predictor, the packer and the volume index are
/// really called with.
#[derive(Default)]
pub struct Captures {
    /// `(per-resource recent-unused series, requested)` of running jobs.
    pub jobs: Vec<(Vec<Vec<f64>>, ResourceVector)>,
    /// One slot's free pools, as the placement backend saw them.
    pub pools: Vec<ResourceVector>,
    /// One slot's pending set, as the packer saw it.
    pub pending: Vec<PackableJob>,
    /// The fleet's `C'` reference vector.
    pub reference: ResourceVector,
}

/// How many job series the kernel timings loop over.
pub const CAPTURE_JOBS: usize = 1000;

/// Spans and counts of the pipeline stages and the job source, summed
/// over one run.
#[derive(Default)]
pub struct Ledger {
    pub ingest_ns: Counter,
    pub forecast_ns: Counter,
    pub forecast_calls: Counter,
    pub tasks: Counter,
    pub absorb_ns: Counter,
    pub gate_ns: Counter,
    pub adjustments: Counter,
    pub pack_ns: Counter,
    pub jobs_in: Counter,
    pub entities_out: Counter,
    pub paired_jobs: Counter,
    pub begin_slot_ns: Counter,
    pub choose_ns: Counter,
    pub debit_ns: Counter,
    pub attempts: Counter,
    pub placed: Counter,
    pub source_ns: Counter,
    pub source_jobs: Counter,
    /// The slot from which this run copies kernel inputs into `captures`
    /// (the fleet should be saturated by then); `None` copies nothing.
    capture_from: Option<u64>,
    warm: AtomicBool,
    pub captures: Mutex<Captures>,
}

impl Ledger {
    pub fn new(capture_from: Option<u64>) -> Arc<Self> {
        Arc::new(Ledger {
            capture_from,
            ..Ledger::default()
        })
    }

    /// The capture buffer, when this run captures and is warm.
    fn capturing(&self) -> Option<std::sync::MutexGuard<'_, Captures>> {
        self.warm.load(Relaxed).then(|| {
            self.captures
                .lock()
                .expect("no decorator panics holding it")
        })
    }
}

/// One pipeline stage (or the job source) with its calls timed into the
/// ledger.
pub struct Timed<S> {
    pub inner: S,
    ledger: Arc<Ledger>,
}

impl<S> Timed<S> {
    pub fn new(inner: S, ledger: &Arc<Ledger>) -> Self {
        Timed {
            inner,
            ledger: Arc::clone(ledger),
        }
    }
}

impl<U: UsagePredictor> UsagePredictor for Timed<U> {
    fn ingest(&mut self, ctx: &SlotContext<'_>, window: u64, outcomes: &mut Vec<PendingOutcome>) {
        self.ledger
            .ingest_ns
            .time(|| self.inner.ingest(ctx, window, outcomes));
    }

    fn forecast(&mut self, ctx: &SlotContext<'_>) -> WindowForecast {
        let forecast = self.ledger.forecast_ns.time(|| self.inner.forecast(ctx));
        self.ledger.forecast_calls.add(1);
        self.ledger.tasks.add(match &forecast {
            WindowForecast::PerJob(v) => v.len() as u64,
            WindowForecast::PerVm(v) => v.iter().flatten().count() as u64,
        });
        let due = self
            .ledger
            .capture_from
            .is_some_and(|from| ctx.slot >= from);
        if due && !self.ledger.warm.load(Relaxed) {
            let mut cap = self.ledger.captures.lock().expect("see capturing()");
            cap.reference = ctx.max_vm_capacity;
            cap.jobs = ctx
                .vms
                .iter()
                .flat_map(|vm| &vm.jobs)
                .filter(|job| !job.recent_unused.is_empty())
                .take(CAPTURE_JOBS)
                .map(|job| {
                    let series = (0..NUM_RESOURCES)
                        .map(|k| job.recent_unused.iter().map(|u| u[k]).collect())
                        .collect();
                    (series, job.requested)
                })
                .collect();
            self.ledger.warm.store(true, Relaxed);
        }
        forecast
    }

    fn unlocked(&self, resource: usize) -> bool {
        self.inner.unlocked(resource)
    }

    fn absorb_completion(&mut self, job: u64, unused_history: &[Vec<f64>]) {
        self.ledger
            .absorb_ns
            .time(|| self.inner.absorb_completion(job, unused_history));
    }
}

impl<G: ReallocationGate> ReallocationGate for Timed<G> {
    fn reallocate(
        &mut self,
        ctx: &SlotContext<'_>,
        forecast: &WindowForecast,
        unlocked: &[bool; NUM_RESOURCES],
        window: u64,
        pools: &mut [ResourceVector],
        outcomes: &mut Vec<PendingOutcome>,
        plan: &mut ProvisionPlan,
    ) {
        let before = plan.adjustments.len();
        self.ledger.gate_ns.time(|| {
            self.inner
                .reallocate(ctx, forecast, unlocked, window, pools, outcomes, plan)
        });
        self.ledger
            .adjustments
            .add((plan.adjustments.len() - before) as u64);
    }
}

impl<K: JobPacker> JobPacker for Timed<K> {
    fn pack(&self, jobs: &[PackableJob], reference: &ResourceVector) -> Vec<JobEntity> {
        let entities = self
            .ledger
            .pack_ns
            .time(|| self.inner.pack(jobs, reference));
        self.ledger.jobs_in.add(jobs.len() as u64);
        self.ledger.entities_out.add(entities.len() as u64);
        self.ledger.paired_jobs.add(
            entities
                .iter()
                .filter(|e| e.jobs.len() > 1)
                .map(|e| e.jobs.len() as u64)
                .sum(),
        );
        if jobs.len() >= 100 {
            if let Some(mut cap) = self.ledger.capturing() {
                if cap.pending.is_empty() {
                    cap.pending = jobs.to_vec();
                }
            }
        }
        entities
    }
}

impl<B: PlacementBackend> PlacementBackend for Timed<B> {
    fn begin_slot(&mut self, pools: &[ResourceVector], reference: &ResourceVector) {
        self.ledger
            .begin_slot_ns
            .time(|| self.inner.begin_slot(pools, reference));
        if let Some(mut cap) = self.ledger.capturing() {
            if cap.pools.is_empty() {
                cap.pools = pools.to_vec();
            }
        }
    }

    fn choose(
        &mut self,
        pools: &[ResourceVector],
        fit: &ResourceVector,
        hint: Option<usize>,
        reference: &ResourceVector,
        rng: &mut StdRng,
    ) -> Claim {
        let claim = self
            .ledger
            .choose_ns
            .time(|| self.inner.choose(pools, fit, hint, reference, rng));
        self.ledger.attempts.add(1);
        self.ledger.placed.add(claim.vm.is_some() as u64);
        claim
    }

    fn debit(&mut self, vm: usize, pool_after: &ResourceVector, reference: &ResourceVector) {
        self.ledger
            .debit_ns
            .time(|| self.inner.debit(vm, pool_after, reference));
    }
}

impl<I: Iterator<Item = JobSpec>> Iterator for Timed<I> {
    type Item = JobSpec;

    fn next(&mut self) -> Option<JobSpec> {
        let spec = self.ledger.source_ns.time(|| self.inner.next());
        self.ledger.source_jobs.add(spec.is_some() as u64);
        spec
    }
}

/// What a [`Probe`] saw of one provisioner over a run.
#[derive(Default)]
pub struct ProbeStats {
    /// `(slot, nanoseconds)` of every `provision` call, in call order.
    pub decisions: Vec<(u64, u64)>,
    /// `wait_hist[w]` = jobs placed `w` slots after they arrived.
    pub wait_hist: Vec<u64>,
    /// Time inside the completion notifications.
    pub absorb_ns: u64,
    /// `provision` calls made while a brownout level above 0 was set.
    pub degraded_calls: u64,
}

impl ProbeStats {
    pub fn provision_secs(&self) -> f64 {
        self.decisions.iter().map(|&(_, ns)| ns).sum::<u64>() as f64 / 1e9
    }
}

/// A whole provisioner with one `Instant` pair around each `provision`
/// call. The outermost probe is part of every run, traced or not (it
/// gives `decision_ms_p95` and the placement waits); traced runs put one
/// more around each shard's inner pipeline.
pub struct Probe<P: ?Sized = dyn Provisioner + Send> {
    inner: Box<P>,
    stats: Arc<Mutex<ProbeStats>>,
    track_waits: bool,
    level: u8,
    arrivals: HashMap<JobId, u64>,
}

impl<P: ?Sized> Probe<P> {
    /// The outermost probe: also records how long each placed job waited.
    pub fn outermost(inner: Box<P>) -> (Self, Arc<Mutex<ProbeStats>>) {
        Self::build(inner, true)
    }

    /// A probe around one shard's inner pipeline.
    pub fn shard(inner: Box<P>) -> (Self, Arc<Mutex<ProbeStats>>) {
        Self::build(inner, false)
    }

    fn build(inner: Box<P>, track_waits: bool) -> (Self, Arc<Mutex<ProbeStats>>) {
        let stats = Arc::new(Mutex::new(ProbeStats::default()));
        let probe = Probe {
            inner,
            stats: Arc::clone(&stats),
            track_waits,
            level: 0,
            arrivals: HashMap::new(),
        };
        (probe, stats)
    }

    /// The wrapped provisioner, for checks that need its concrete state.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Provisioner + ?Sized> Provisioner for Probe<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn provision(&mut self, ctx: &SlotContext<'_>) -> ProvisionPlan {
        let start = Instant::now();
        let plan = self.inner.provision(ctx);
        let ns = start.elapsed().as_nanos() as u64;
        let mut stats = self.stats.lock().expect("probe never panics holding it");
        stats.decisions.push((ctx.slot, ns));
        stats.degraded_calls += (self.level > 0) as u64;
        if self.track_waits && !plan.placements.is_empty() {
            self.arrivals.clear();
            self.arrivals
                .extend(ctx.pending.iter().map(|p| (p.id, p.arrival_slot)));
            for placement in &plan.placements {
                if let Some(&arrived) = self.arrivals.get(&placement.job) {
                    let wait = ctx.slot.saturating_sub(arrived) as usize;
                    if stats.wait_hist.len() <= wait {
                        stats.wait_hist.resize(wait + 1, 0);
                    }
                    stats.wait_hist[wait] += 1;
                }
            }
        }
        plan
    }

    fn on_job_completed(&mut self, job: JobId, unused_history: &[Vec<f64>]) {
        self.inner.on_job_completed(job, unused_history);
    }

    fn on_jobs_completed(&mut self, completed: &[JobCompletion]) {
        let start = Instant::now();
        self.inner.on_jobs_completed(completed);
        let ns = start.elapsed().as_nanos() as u64;
        self.stats.lock().expect("see provision").absorb_ns += ns;
    }

    fn control_plane_stats(&self) -> Option<ControlPlaneStats> {
        self.inner.control_plane_stats()
    }

    fn set_service_level(&mut self, level: u8) {
        self.level = level;
        self.inner.set_service_level(level);
    }

    fn full_view_period(&self) -> u64 {
        self.inner.full_view_period()
    }
}
