//! The five workloads: how each builds its inputs from the seed, drives
//! the program through its public drivers, checks the outcome and turns
//! what it saw into metrics. One call of [`run`] is one repetition.
//!
//! Load is closed loop everywhere: every driver (`Simulation`,
//! `StreamingSimulation`, `ServeDaemon`) feeds the next slot only when the
//! provisioner has answered the previous one. The provisioner seeds are
//! constants; the benchmark seed only shapes the inputs (job stream, storm
//! plan), so the program receives generated jobs and nothing else.

use crate::clock::{RunClock, RunTime};
use crate::kernels;
use crate::spec::Layers;
use crate::stats;
use crate::timed::{Ledger, Probe, ProbeStats, Timed};
use corp_bench::{historical_histories, Environment};
use corp_cluster::{ShardConfig, ShardedProvisioner};
use corp_core::pipeline::{
    BaselineReclaimGate, CorpReclaimGate, CorpUsagePredictor, DirectBackend, FiniteGuard,
    RecordOnlyGate, VmWindowPredictor,
};
use corp_core::{
    AdmissionPolicy, CloudScalePredictor, CloudScaleProvisioner, CorpConfig, CorpProvisioner,
    DraPredictor, DraProvisioner, Packing, ProvisioningPipeline, RccrPredictor, RccrProvisioner,
    VmSelector,
};
use corp_faults::{StormPlan, StormWindow};
use corp_serve::{
    BackpressurePolicy, BrownoutConfig, DeadlineConfig, ReplaySpeed, ServeConfig, ServeDaemon,
};
use corp_sim::{
    Cluster, EnvironmentProfile, Provisioner, Simulation, SimulationOptions, SimulationReport,
    StaticPeakProvisioner, StreamingSimulation,
};
use corp_trace::{JobSource, JobSpec, SyntheticSource, WorkloadConfig, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Arrivals per slot of the 1k-VM job stream: with 12–30-slot jobs this
/// keeps about 3 000 jobs running on 1 024 VMs — steady saturation.
const ARRIVALS_PER_SLOT: f64 = 150.0;
/// Seed of every provisioner's own random stream (`SchemeParams::default`).
const SCHEME_SEED: u64 = 7;
/// Confidence level of the RCCR baseline (`SchemeParams::default`).
const RCCR_CONFIDENCE: f64 = 0.9;

/// Jobs per repetition, by workload. The four 1k-VM workloads draw from
/// the same stream (`S1k`) and differ only in how many slots of it they
/// take: each count is what makes one run last a little over 3 s on the
/// 2-core host, so no metric rests on a sub-second timing and six
/// repetitions fit in one 22 s measurement.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub corp_steady: usize,
    pub baselines: usize,
    pub soak: usize,
    pub sharded: usize,
    pub serve_storm: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        corp_steady: 46_000,
        baselines: 54_000,
        soak: 160_000,
        sharded: 84_000,
        serve_storm: 66_000,
    };

    /// A twentieth of the job counts: checks names, schema and
    /// correctness; its timings are not comparable.
    pub const QUICK: Sizes = Sizes {
        corp_steady: Sizes::FULL.corp_steady / 20,
        baselines: Sizes::FULL.baselines / 20,
        soak: Sizes::FULL.soak / 20,
        sharded: Sizes::FULL.sharded / 20,
        serve_storm: Sizes::FULL.serve_storm / 20,
    };
}

/// Slots over which `jobs` jobs of the 1k stream arrive.
fn horizon_1k(jobs: usize) -> f64 {
    jobs as f64 / ARRIVALS_PER_SLOT
}

/// The window boundary from which the 1k fleet counts as saturated: a
/// third into the stream, 60 slots (two of the longest jobs) at most.
fn warm_slot(jobs: usize) -> u64 {
    ((horizon_1k(jobs) / 3.0) as u64).clamp(6, 60) / 6 * 6
}

/// What a traced repetition adds.
#[derive(Debug, Clone, Copy)]
pub struct Trace {
    /// Also run the kernel timings (and, on `sharded-2-1k`, the unsharded
    /// reference run) after the traced run.
    pub kernels: bool,
}

/// Everything one repetition measured.
pub struct Rep {
    pub setup_s: f64,
    /// Run time, summed over the repetition's driver runs.
    pub run: RunTime,
    pub slots: u64,
    pub offered: u64,
    pub completed: u64,
    /// Jobs the engine rejected or left unfinished, plus plan actions it
    /// dropped as invalid: operations that failed. Jobs the admission
    /// queue refused or expired are its designed answer to overload; they
    /// lower `completed_share` and are not counted here.
    pub failed: u64,
    pub utilization: f64,
    pub slo_violation_rate: f64,
    /// p95 over slots of one outermost `provision` call, in milliseconds.
    pub decision_ms_p95: f64,
    /// Mean over placed jobs of placement slot − arrival slot.
    pub placement_wait_mean_slots: f64,
    /// FNV-1a of the serialized report(s): what must not change between
    /// repetitions, nor between a traced and an untraced run.
    pub digest: String,
    /// Per-layer metrics (traced repetitions only).
    pub layers: Layers,
}

/// Runs one repetition of `workload`.
pub fn run(workload: &str, seed: u64, sizes: Sizes, trace: Option<Trace>) -> Result<Rep, String> {
    match workload {
        "corp-steady-1k" => corp_steady(seed, sizes.corp_steady, trace),
        "baselines-1k" => baselines(seed, sizes.baselines, trace),
        "soak-50k" => soak(seed, sizes.soak, trace),
        "sharded-2-1k" => sharded(seed, sizes.sharded, trace),
        "serve-storm-1k" => serve_storm(seed, sizes.serve_storm, trace),
        other => Err(format!("unknown workload `{other}`")),
    }
}

// ---------------------------------------------------------------------------
// Common inputs
// ---------------------------------------------------------------------------

/// `F1k`: 256 Palmetto PMs, 1 024 VMs.
fn fleet_1k() -> Cluster {
    Cluster::from_profile(EnvironmentProfile::palmetto_cluster().with_num_pms(256))
}

/// `S1k`: 2–5 minute jobs at 1.5× demand, arriving at a steady
/// [`ARRIVALS_PER_SLOT`].
fn stream_1k(jobs: usize) -> WorkloadConfig {
    WorkloadConfig {
        num_jobs: jobs,
        mean_interarrival_slots: 1.0 / ARRIVALS_PER_SLOT,
        min_duration_secs: 120.0,
        max_duration_secs: 300.0,
        demand_scale: 1.5,
        ..WorkloadConfig::default()
    }
}

fn untimed_options() -> SimulationOptions {
    SimulationOptions {
        measure_decision_time: false,
        ..SimulationOptions::default()
    }
}

/// The training corpus every CORP pipeline bootstraps from.
pub fn histories() -> Vec<Vec<Vec<f64>>> {
    historical_histories(Environment::Cluster, 40)
}

// ---------------------------------------------------------------------------
// Scheme construction: plain for untraced runs, and composed stage by stage
// from timed decorators — exactly as `corp_core::scheduler` composes each
// scheme — for traced ones.
// ---------------------------------------------------------------------------

type Boxed = Box<dyn Provisioner + Send>;

fn corp(config: CorpConfig, ledger: Option<&Arc<Ledger>>) -> Boxed {
    let histories = histories();
    let Some(ledger) = ledger else {
        let mut corp = CorpProvisioner::new(config);
        corp.pretrain(&histories);
        return Box::new(corp);
    };
    config.validate();
    let selector = if config.use_volume_placement {
        VmSelector::Volume
    } else {
        VmSelector::Random
    };
    let packing = if config.use_packing {
        Packing::Complementary
    } else {
        Packing::Passthrough
    };
    let mut pipeline = ProvisioningPipeline::compose(
        "CORP",
        config.window_slots as u64,
        config.seed,
        Timed::new(CorpUsagePredictor::new(&config), ledger),
        Timed::new(
            CorpReclaimGate::new(config.window_slots, config.reclaim_floor),
            ledger,
        ),
        Timed::new(packing, ledger),
        Timed::new(DirectBackend::new(selector), ledger),
        AdmissionPolicy::FullRequest,
    );
    pipeline.stage_predictor_mut().inner.pretrain(&histories);
    Box::new(pipeline)
}

/// The baselines' window (`corp_core::scheduler::BASELINE_WINDOW_SLOTS`).
const BASELINE_WINDOW_SLOTS: u64 = 6;

fn rccr(ledger: Option<&Arc<Ledger>>) -> Boxed {
    let Some(ledger) = ledger else {
        return Box::new(RccrProvisioner::new(RCCR_CONFIDENCE, SCHEME_SEED));
    };
    Box::new(ProvisioningPipeline::compose(
        "RCCR",
        BASELINE_WINDOW_SLOTS,
        SCHEME_SEED,
        Timed::new(
            VmWindowPredictor::new(FiniteGuard::new(RccrPredictor::new(0.5, RCCR_CONFIDENCE))),
            ledger,
        ),
        Timed::new(BaselineReclaimGate, ledger),
        Timed::new(Packing::Passthrough, ledger),
        Timed::new(DirectBackend::new(VmSelector::Random), ledger),
        AdmissionPolicy::FullRequest,
    ))
}

fn cloudscale(ledger: Option<&Arc<Ledger>>) -> Boxed {
    let Some(ledger) = ledger else {
        return Box::new(CloudScaleProvisioner::new(SCHEME_SEED));
    };
    Box::new(ProvisioningPipeline::compose(
        "CloudScale",
        BASELINE_WINDOW_SLOTS,
        SCHEME_SEED,
        Timed::new(
            VmWindowPredictor::new(FiniteGuard::new(CloudScalePredictor::with_padding_scale(
                1.0,
            ))),
            ledger,
        ),
        Timed::new(BaselineReclaimGate, ledger),
        Timed::new(Packing::Passthrough, ledger),
        Timed::new(DirectBackend::new(VmSelector::Random), ledger),
        AdmissionPolicy::FullRequest,
    ))
}

fn dra(ledger: Option<&Arc<Ledger>>) -> Boxed {
    let Some(ledger) = ledger else {
        return Box::new(DraProvisioner::new(SCHEME_SEED));
    };
    Box::new(ProvisioningPipeline::compose(
        "DRA",
        BASELINE_WINDOW_SLOTS,
        SCHEME_SEED,
        Timed::new(
            VmWindowPredictor::serial(FiniteGuard::new(DraPredictor::new())),
            ledger,
        ),
        Timed::new(RecordOnlyGate, ledger),
        Timed::new(Packing::Passthrough, ledger),
        Timed::new(DirectBackend::new(VmSelector::ShareWeighted), ledger),
        AdmissionPolicy::Overcommit(1.0),
    ))
}

// ---------------------------------------------------------------------------
// Shared plumbing
// ---------------------------------------------------------------------------

/// Set-up lasts 1 to 130 ms here, too short to time once: every
/// repetition builds its inputs at least [`MIN_SETUPS`] times and for at
/// least [`MIN_SETUP_SECS`], and reports the median. For the shortest
/// set-up (`soak-50k`, some hundred builds) that is the time with a warm
/// allocator: the first build alone takes 7 ms, most of it page faults.
const MIN_SETUPS: usize = 3;
const MIN_SETUP_SECS: f64 = 0.25;

/// Builds the inputs repeatedly (dropping each before the next, outside
/// the build's own clock) and returns the median build time, net of the
/// steal over all the builds, and the last build.
fn timed_setup<T>(mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let clock = RunClock::start();
    let built = loop {
        let start = Instant::now();
        let built = build();
        times.push(start.elapsed().as_secs_f64());
        if times.len() >= MIN_SETUPS && times.iter().sum::<f64>() >= MIN_SETUP_SECS {
            break built;
        }
    };
    let all = clock.stop();
    (stats::median(&mut times) * all.net_s() / all.wall_s, built)
}

/// A lazily generated job stream, behind the timed iterator when traced.
type Source = Box<dyn Iterator<Item = JobSpec>>;

fn source(jobs: impl Iterator<Item = JobSpec> + 'static, ledger: Option<&Arc<Ledger>>) -> Source {
    match ledger {
        Some(ledger) => Box::new(Timed::new(jobs, ledger)),
        None => Box::new(jobs),
    }
}

/// FNV-1a, 64 bit, of a serialized report.
fn digest(serialized: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in serialized.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn take(stats: &Arc<Mutex<ProbeStats>>) -> ProbeStats {
    std::mem::take(&mut *stats.lock().expect("probe never panics holding it"))
}

/// One driver run, seen from outside.
struct Part {
    /// Jobs offered to the driver.
    offered: usize,
    /// Of them, refused or expired by an admission queue before the engine.
    refused: u64,
    report: SimulationReport,
    /// The whole report as the driver serializes it, for the digest.
    serialized: String,
    stats: ProbeStats,
    run: RunTime,
    arena_slots: usize,
}

/// Runs `specs` through the batch driver under `provisioner`.
fn run_batch(cluster: Cluster, specs: Vec<JobSpec>, provisioner: Boxed) -> Part {
    let offered = specs.len();
    let mut sim = Simulation::new(cluster, specs, untimed_options());
    let (mut probe, stats) = Probe::outermost(provisioner);
    let clock = RunClock::start();
    let report = sim.run(&mut probe);
    let run = clock.stop();
    Part::batch(offered, report, take(&stats), run, sim.jobs().len())
}

impl Part {
    /// A run of a batch driver: nothing stands between the jobs and the
    /// engine, and the engine's report is the whole report.
    fn batch(
        offered: usize,
        report: SimulationReport,
        stats: ProbeStats,
        run: RunTime,
        arena_slots: usize,
    ) -> Part {
        Part {
            offered,
            refused: 0,
            serialized: serde::json::to_string(&report),
            report,
            stats,
            run,
            arena_slots,
        }
    }
}

/// The batch workloads must drain cleanly: every offered job reaches a
/// terminal state in the engine and none is left over.
fn check_batch(report: &SimulationReport, offered: usize) -> Result<(), String> {
    let accounted = report.completed + report.rejected + report.unfinished;
    if report.num_jobs != offered || accounted != offered {
        return Err(format!(
            "{}: job conservation violated: offered {offered}, engine saw {}, \
             completed {} + rejected {} + unfinished {}",
            report.provisioner,
            report.num_jobs,
            report.completed,
            report.rejected,
            report.unfinished
        ));
    }
    if report.unfinished != 0 || report.invalid_actions != 0 {
        return Err(format!(
            "{}: {} jobs unfinished, {} invalid plan actions (both must be 0)",
            report.provisioner, report.unfinished, report.invalid_actions
        ));
    }
    Ok(())
}

/// Stage spans and counts of a traced run, by the per-layer metric names.
fn stage_layers(ledger: &Ledger, layers: &mut Layers) -> f64 {
    let mut put = |name: &str, value: f64| layers.put(name, value);
    let tasks = ledger.tasks.get() as f64;
    let jobs_in = ledger.jobs_in.get() as f64;
    let attempts = ledger.attempts.get() as f64;
    put("predict.ingest_s", ledger.ingest_ns.secs());
    put("predict.forecast_s", ledger.forecast_ns.secs());
    put("predict.forecast_calls", ledger.forecast_calls.get() as f64);
    put("predict.tasks", tasks);
    put(
        "predict.us_per_task",
        ledger.forecast_ns.secs() * 1e6 / tasks.max(1.0),
    );
    put("predict.absorb_s", ledger.absorb_ns.secs());
    put("gate.reallocate_s", ledger.gate_ns.secs());
    put("gate.adjustments", ledger.adjustments.get() as f64);
    put("pack.pack_s", ledger.pack_ns.secs());
    put("pack.jobs_in", jobs_in);
    put("pack.entities_out", ledger.entities_out.get() as f64);
    put(
        "pack.paired_ratio",
        ledger.paired_jobs.get() as f64 / jobs_in.max(1.0),
    );
    put("place.begin_slot_s", ledger.begin_slot_ns.secs());
    put("place.choose_s", ledger.choose_ns.secs());
    put("place.debit_s", ledger.debit_ns.secs());
    put("place.attempts", attempts);
    put(
        "place.placed_ratio",
        ledger.placed.get() as f64 / attempts.max(1.0),
    );
    put("trace.next_s", ledger.source_ns.secs());
    put("trace.jobs", ledger.source_jobs.get() as f64);
    put(
        "trace.us_per_job",
        ledger.source_ns.secs() * 1e6 / (ledger.source_jobs.get() as f64).max(1.0),
    );
    // Everything the pipeline driver called: what is left of its span is
    // its own.
    ledger.ingest_ns.secs()
        + ledger.forecast_ns.secs()
        + ledger.gate_ns.secs()
        + ledger.pack_ns.secs()
        + ledger.begin_slot_ns.secs()
        + ledger.choose_ns.secs()
        + ledger.debit_ns.secs()
}

/// The accumulated outcome of one repetition's driver runs (three for
/// `baselines-1k`, one elsewhere).
#[derive(Default)]
struct Tally {
    run: RunTime,
    slots: u64,
    offered: u64,
    completed: u64,
    refused: u64,
    failed: u64,
    utilization_x_jobs: f64,
    slo_x_jobs: f64,
    /// Milliseconds of every outermost `provision` call, ascending, one
    /// list per driver run.
    decisions_ms: Vec<Vec<f64>>,
    wait_hist: Vec<u64>,
    serialized: String,
    provision_s: f64,
    absorb_s: f64,
    arena_slots: usize,
    invalid_actions: usize,
}

impl Tally {
    fn add(&mut self, part: &Part) {
        let Part {
            report, stats, run, ..
        } = part;
        let jobs = report.num_jobs as f64;
        self.offered += part.offered as u64;
        self.refused += part.refused;
        self.serialized.push_str(&part.serialized);
        self.run += *run;
        self.slots += report.slots_run;
        self.completed += report.completed as u64;
        self.failed += (report.rejected + report.unfinished + report.invalid_actions) as u64;
        self.utilization_x_jobs += report.overall_utilization * jobs;
        self.slo_x_jobs += report.slo_violation_rate * jobs;
        // One call is too short to read its own steal (ticks are 10 ms),
        // so every call is charged the run's share: less than the
        // window-boundary slots, which keep every vCPU busy, really lost.
        let net = run.net_s() / run.wall_s;
        let mut ms: Vec<f64> = stats
            .decisions
            .iter()
            .map(|&(_, ns)| ns as f64 / 1e6 * net)
            .collect();
        ms.sort_by(f64::total_cmp);
        self.decisions_ms.push(ms);
        if self.wait_hist.len() < stats.wait_hist.len() {
            self.wait_hist.resize(stats.wait_hist.len(), 0);
        }
        for (total, n) in self.wait_hist.iter_mut().zip(&stats.wait_hist) {
            *total += n;
        }
        self.provision_s += stats.provision_secs();
        self.absorb_s += stats.absorb_ns as f64 / 1e9;
        self.arena_slots = self.arena_slots.max(part.arena_slots);
        self.invalid_actions += report.invalid_actions;
    }

    /// The `q` quantile over slots of one `provision` call. The three
    /// schemes of `baselines-1k` each have their own: pooled, the quantile
    /// would sit on the step between two schemes' window-boundary slots
    /// and jump with the slightest noise, so it is their mean.
    fn decision_ms(&self, q: f64) -> f64 {
        let runs = self.decisions_ms.len().max(1) as f64;
        self.decisions_ms
            .iter()
            .map(|ms| stats::quantile_sorted(ms, q))
            .sum::<f64>()
            / runs
    }

    /// Engine, pipeline-driver and (when traced) stage metrics.
    fn layers(&self, ledger: Option<&Ledger>) -> Layers {
        let mut layers = Layers::default();
        let Some(ledger) = ledger else {
            return layers;
        };
        let stage_s = stage_layers(ledger, &mut layers);
        let mut put = |name: &str, value: f64| layers.put(name, value);
        // Spans are wall time, so a layer's self time is too.
        let engine_s = self.run.wall_s - self.provision_s - self.absorb_s - ledger.source_ns.secs();
        put("host.steal_ratio", self.run.stolen_s / self.run.wall_s);
        put("engine.self_s", engine_s);
        put("engine.slots", self.slots as f64);
        put(
            "engine.us_per_slot",
            engine_s * 1e6 / (self.slots as f64).max(1.0),
        );
        put("engine.arena_slots", self.arena_slots as f64);
        put("engine.invalid_actions", self.invalid_actions as f64);
        put("pipeline.provision_s", self.provision_s);
        put("pipeline.self_s", self.provision_s - stage_s);
        put("pipeline.decision_ms_p50", self.decision_ms(0.50));
        put("pipeline.decision_ms_p99", self.decision_ms(0.99));
        put(
            "pipeline.placement_wait_p99_slots",
            stats::histogram_quantile(&self.wait_hist, 0.99),
        );
        layers
    }

    fn finish(self, setup_s: f64, layers: Layers) -> Rep {
        let jobs = (self.offered - self.refused).max(1) as f64;
        Rep {
            setup_s,
            run: self.run,
            slots: self.slots,
            offered: self.offered,
            completed: self.completed,
            failed: self.failed,
            utilization: self.utilization_x_jobs / jobs,
            slo_violation_rate: self.slo_x_jobs / jobs,
            decision_ms_p95: self.decision_ms(0.95),
            placement_wait_mean_slots: stats::histogram_mean(&self.wait_hist),
            digest: digest(&self.serialized),
            layers,
        }
    }
}

// ---------------------------------------------------------------------------
// corp-steady-1k
// ---------------------------------------------------------------------------

fn corp_steady(seed: u64, jobs: usize, trace: Option<Trace>) -> Result<Rep, String> {
    let ledger = trace.map(|t| Ledger::new(t.kernels.then(|| warm_slot(jobs))));
    let (setup_s, (cluster, specs, provisioner)) = timed_setup(|| {
        let specs = WorkloadGenerator::new(stream_1k(jobs), seed).generate();
        let provisioner = corp(CorpConfig::default(), ledger.as_ref());
        (fleet_1k(), specs, provisioner)
    });

    let part = run_batch(cluster, specs, provisioner);
    check_batch(&part.report, jobs)?;
    let mut tally = Tally::default();
    tally.add(&part);
    let mut layers = tally.layers(ledger.as_deref());
    if let (Some(ledger), Some(Trace { kernels: true })) = (&ledger, trace) {
        let captures = ledger.captures.lock().expect("run is over");
        kernels::predict_pack_place(&captures, &mut layers)?;
    }
    Ok(tally.finish(setup_s, layers))
}

// ---------------------------------------------------------------------------
// baselines-1k
// ---------------------------------------------------------------------------

fn baselines(seed: u64, jobs: usize, trace: Option<Trace>) -> Result<Rep, String> {
    let ledger = trace.map(|_| Ledger::new(None));
    let (setup_s, schemes) = timed_setup(|| {
        let specs = WorkloadGenerator::new(stream_1k(jobs), seed).generate();
        let schemes: [(&str, Cluster, Vec<JobSpec>, Boxed); 3] = [
            ("rccr", fleet_1k(), specs.clone(), rccr(ledger.as_ref())),
            (
                "cloudscale",
                fleet_1k(),
                specs.clone(),
                cloudscale(ledger.as_ref()),
            ),
            ("dra", fleet_1k(), specs, dra(ledger.as_ref())),
        ];
        schemes
    });

    let mut tally = Tally::default();
    let mut per_scheme = Layers::default();
    for (name, cluster, specs, provisioner) in schemes {
        let part = run_batch(cluster, specs, provisioner);
        check_batch(&part.report, jobs)?;
        tally.add(&part);
        let report = &part.report;
        per_scheme.put(&format!("{name}.run_s"), part.run.net_s());
        per_scheme.put(
            &format!("{name}.overall_utilization"),
            report.overall_utilization,
        );
        per_scheme.put(
            &format!("{name}.slo_violation_rate"),
            report.slo_violation_rate,
        );
    }
    let mut layers = tally.layers(ledger.as_deref());
    if trace.is_some() {
        layers.0.extend(per_scheme.0);
    }
    Ok(tally.finish(setup_s, layers))
}

// ---------------------------------------------------------------------------
// soak-50k
// ---------------------------------------------------------------------------

/// VMs of the soak fleet (12 500 Palmetto PMs).
const SOAK_VMS: usize = 50_000;

/// The soak's job shape and arrival rate, as `corp_bench::scale`: steady
/// concurrency of an eighth of the fleet.
fn soak_config(jobs: usize) -> WorkloadConfig {
    let base = WorkloadConfig {
        num_jobs: jobs,
        min_duration_secs: 120.0,
        max_duration_secs: 300.0,
        demand_scale: 1.5,
        ..WorkloadConfig::default()
    };
    let mean_duration_slots =
        (base.min_duration_secs + base.max_duration_secs) / 2.0 / base.slot_seconds;
    WorkloadConfig {
        mean_interarrival_slots: mean_duration_slots / (SOAK_VMS as f64 / 8.0),
        ..base
    }
}

fn soak(seed: u64, jobs: usize, trace: Option<Trace>) -> Result<Rep, String> {
    let ledger = trace.map(|_| Ledger::new(None));
    let (setup_s, mut sim) = timed_setup(|| {
        let profile = EnvironmentProfile::palmetto_cluster();
        let pms = SOAK_VMS.div_ceil(profile.vms_per_pm.max(1));
        let cluster = Cluster::from_profile(profile.with_num_pms(pms));
        let stream = SyntheticSource::with_total(soak_config(jobs), seed, jobs).into_specs();
        let options = SimulationOptions {
            reclaim_completed: true,
            ..untimed_options()
        };
        StreamingSimulation::new(cluster, source(stream, ledger.as_ref()), options)
    });

    let (mut probe, stats) = Probe::outermost(Box::new(StaticPeakProvisioner) as Boxed);
    let clock = RunClock::start();
    let report = sim.run(&mut probe);
    let run = clock.stop();
    if sim.submitted() != jobs {
        return Err(format!(
            "soak: stream truncated, {} of {jobs} jobs submitted",
            sim.submitted()
        ));
    }
    check_batch(&report, jobs)?;
    let arena_slots = sim.engine().store().capacity();
    let part = Part::batch(jobs, report, take(&stats), run, arena_slots);
    let mut tally = Tally::default();
    tally.add(&part);
    let layers = tally.layers(ledger.as_deref());
    Ok(tally.finish(setup_s, layers))
}

// ---------------------------------------------------------------------------
// sharded-2-1k
// ---------------------------------------------------------------------------

const SHARDS: usize = 2;

fn sharded(seed: u64, jobs: usize, trace: Option<Trace>) -> Result<Rep, String> {
    let (setup_s, (cluster, specs, coordinator, shard_stats)) = timed_setup(|| {
        let specs = WorkloadGenerator::new(stream_1k(jobs), seed).generate();
        let mut shard_stats = Vec::new();
        let inners: Vec<Boxed> = corp_core::corp_fleet(&CorpConfig::fast(), &histories(), SHARDS)
            .into_iter()
            .map(|inner| {
                if trace.is_none() {
                    return inner;
                }
                let (probe, stats) = Probe::shard(inner);
                shard_stats.push(stats);
                Box::new(probe) as Boxed
            })
            .collect();
        let coordinator = ShardedProvisioner::new("CORP", inners, ShardConfig::default());
        (fleet_1k(), specs, coordinator, shard_stats)
    });

    let mut sim = Simulation::new(cluster, specs, untimed_options());
    let (mut probe, stats) = Probe::outermost(Box::new(coordinator));
    let clock = RunClock::start();
    let report = sim.run(&mut probe);
    let run = clock.stop();
    check_batch(&report, jobs)?;
    let coordinator = probe.inner();
    if !coordinator.errors().is_empty() {
        return Err(format!(
            "sharded: coordinator recorded errors: {:?}",
            coordinator.errors()
        ));
    }
    if !coordinator
        .store()
        .is_some_and(|s| s.holds_invariants(1e-9))
    {
        return Err("sharded: placement store invariants violated".to_string());
    }
    let part = Part::batch(jobs, report, take(&stats), run, sim.jobs().len());
    let mut tally = Tally::default();
    tally.add(&part);
    let Some(trace) = trace else {
        return Ok(tally.finish(setup_s, Layers::default()));
    };

    // The shards' pipelines come ready-made from `corp_fleet`, so there
    // are no stage spans: an empty ledger.
    let mut layers = tally.layers(Some(&Ledger::default()));
    let mut put = |name: &str, value: f64| layers.put(name, value);
    // Shards run in parallel: a slot's proposals are ready when the
    // slowest shard is, so the critical path sums each slot's maximum.
    let mut busy_ns: u64 = 0;
    let mut slowest: BTreeMap<u64, u64> = BTreeMap::new();
    for stats in &shard_stats {
        for &(slot, ns) in &take(stats).decisions {
            busy_ns += ns;
            let max = slowest.entry(slot).or_default();
            *max = (*max).max(ns);
        }
    }
    let critical_s = slowest.values().sum::<u64>() as f64 / 1e9;
    put("coordinator.provision_s", tally.provision_s);
    put("shard.busy_sum_s", busy_ns as f64 / 1e9);
    put("shard.critical_path_s", critical_s);
    put("coordinator.self_s", tally.provision_s - critical_s);
    let cp = part
        .report
        .control_plane
        .as_ref()
        .ok_or("sharded: report carries no control-plane stats")?;
    put("coordinator.conflicts", cp.conflicts as f64);
    put("coordinator.retries", cp.retries as f64);
    put("coordinator.aborts", cp.aborts as f64);
    put("store.reservations", cp.reservations as f64);
    put(
        "store.fast_path_ratio",
        cp.fast_path_hits as f64 / (cp.commits as f64).max(1.0),
    );
    put("store.stripe_conflicts", cp.stripe_conflicts as f64);
    put("store.fallback_rounds", cp.fallback_rounds as f64);
    if trace.kernels {
        // The same pipeline without the control plane, for the ratio
        // ROADMAP item 2 is judged on.
        let specs = WorkloadGenerator::new(stream_1k(jobs), seed).generate();
        let reference = run_batch(fleet_1k(), specs, corp(CorpConfig::fast(), None));
        check_batch(&reference.report, jobs)?;
        put(
            "coordinator.unsharded_provision_s",
            reference.stats.provision_secs(),
        );
        kernels::store(&fleet_1k(), &mut layers);
    }
    Ok(tally.finish(setup_s, layers))
}

// ---------------------------------------------------------------------------
// serve-storm-1k
// ---------------------------------------------------------------------------

fn storm_serve_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 256,
        policy: BackpressurePolicy::Block,
        speed: ReplaySpeed::Infinite,
        deadlines: DeadlineConfig::uniform(30_000_000),
        brownout: Some(BrownoutConfig {
            high_depth: 240,
            low_depth: 180,
            latency_high_micros: 60_000_000,
            recovery_ticks: 3,
        }),
        ..ServeConfig::default()
    }
}

/// Slots between the starts of two storm windows, their length and their
/// arrival-time compression.
const STORM_EVERY: u64 = 50;
const STORM_LEN: u64 = 12;
const STORM_FACTOR: u64 = 4;

/// One storm window in every [`STORM_EVERY`] slots of the horizon; the
/// seed says where in its stretch each one starts. `StormPlan::generate`
/// draws a varying number of windows of varying length, so a quarter more
/// or less of the stream would be storm from one seed to the next, and
/// with it every outcome of the run; here the seed moves the storms and
/// the share of the stream they compress stays the same.
fn storm_plan(seed: u64, horizon_slots: u64) -> StormPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let windows = (0..horizon_slots / STORM_EVERY)
        .map(|stretch| StormWindow {
            start: stretch * STORM_EVERY + rng.gen_range(0..STORM_EVERY - STORM_LEN),
            len: STORM_LEN,
            factor: STORM_FACTOR,
        })
        .collect();
    StormPlan { windows }
}

fn serve_storm(seed: u64, jobs: usize, trace: Option<Trace>) -> Result<Rep, String> {
    let ledger = trace.map(|_| Ledger::new(None));
    let (setup_s, (mut daemon, stream, provisioner)) = timed_setup(|| {
        let storm = storm_plan(seed, horizon_1k(jobs) as u64);
        let stream = SyntheticSource::new(stream_1k(jobs), seed)
            .into_specs()
            .map(move |mut job| {
                job.arrival_slot = storm.compress(job.arrival_slot);
                job
            });
        let daemon = ServeDaemon::new(fleet_1k(), untimed_options(), storm_serve_config());
        let provisioner = corp(CorpConfig::default(), ledger.as_ref());
        (daemon, source(stream, ledger.as_ref()), provisioner)
    });

    let (mut probe, stats) = Probe::outermost(provisioner);
    let clock = RunClock::start();
    let outcome = daemon.run(&mut probe, stream);
    let run = clock.stop();
    let report = outcome.report;
    let sim = &report.sim;
    let queue = &report.queue;
    let refused = queue.shed + queue.rejected + queue.expired;
    let accounted = (sim.completed + sim.rejected + sim.unfinished) as u64 + refused;
    if accounted != jobs as u64 {
        return Err(format!(
            "serve-storm: job conservation violated: offered {jobs}, accounted {accounted}"
        ));
    }
    let part = Part {
        offered: jobs,
        refused,
        report: sim.clone(),
        serialized: serde::json::to_string(&report),
        stats: take(&stats),
        run,
        arena_slots: daemon.jobs().len(),
    };
    let mut tally = Tally::default();
    tally.add(&part);
    let mut layers = tally.layers(ledger.as_deref());
    if let (Some(trace), Some(ledger)) = (trace, &ledger) {
        let mut put = |name: &str, value: f64| layers.put(name, value);
        put(
            "daemon.engine_self_s",
            run.wall_s - tally.provision_s - tally.absorb_s - ledger.source_ns.secs(),
        );
        put("daemon.events", report.events_processed as f64);
        put("daemon.ticks", report.ticks as f64);
        put("admission.admitted", queue.admitted as f64);
        put("admission.blocked", queue.blocked as f64);
        put("admission.rejected", queue.rejected as f64);
        put("admission.expired", queue.expired as f64);
        put("admission.shed", queue.shed as f64);
        put("admission.high_water", queue.high_water as f64);
        put("brownout.escalations", report.brownout.escalations as f64);
        put("brownout.degraded_ticks", part.stats.degraded_calls as f64);
        let slo = &report.slo;
        let late = slo.deadline_misses + slo.expired;
        put(
            "slo.deadline_miss_ratio",
            late as f64 / ((slo.deadline_hits + late) as f64).max(1.0),
        );
        if trace.kernels {
            kernels::serve(seed, &mut layers);
        }
    }
    Ok(tally.finish(setup_s, layers))
}
