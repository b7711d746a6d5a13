//! Experiment environments and scheme construction.
//!
//! Two environments mirror the paper's two testbeds. Machine counts and
//! capacities follow Section IV; the cluster's PM count is scaled down
//! (8 SL230-class servers instead of 50) so the paper's 50-300 job range
//! spans light-to-heavy load on the simulator — the contention regime in
//! which the paper's utilization and SLO orderings are measured (a 200-VM
//! fleet under 300 sub-VM jobs never contends, which would flatten every
//! curve; see EXPERIMENTS.md).

use corp_cluster::{CoordinatorPhases, ProvisionerFactory, ShardConfig, ShardedProvisioner};
use corp_core::{
    shard_seed, CloudScaleProvisioner, CorpConfig, CorpProvisioner, DraProvisioner, RccrProvisioner,
};
use corp_faults::{generate, ControlFaultPlan, FaultConfig, FaultSchedule};
use corp_sim::{Cluster, EnvironmentProfile, Provisioner, Simulation, SimulationOptions};
use corp_trace::{JobSpec, WorkloadConfig, WorkloadGenerator};
use std::sync::Arc;

/// Which testbed an experiment models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Environment {
    /// The Palmetto-cluster testbed (SL230-class servers, 4 VMs each).
    Cluster,
    /// The Amazon EC2 testbed (30 ML110 G5 nodes, one VM per node).
    Ec2,
}

impl Environment {
    /// Display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Environment::Cluster => "cluster",
            Environment::Ec2 => "ec2",
        }
    }

    /// Builds the VM fleet for this environment.
    pub fn cluster(self) -> Cluster {
        match self {
            Environment::Cluster => {
                Cluster::from_profile(EnvironmentProfile::palmetto_cluster().with_num_pms(8))
            }
            Environment::Ec2 => Cluster::from_profile(EnvironmentProfile::amazon_ec2()),
        }
    }

    /// Slots over which each experiment's whole job population arrives —
    /// the paper varies the number of jobs over a fixed trace interval, so
    /// more jobs means a proportionally higher arrival rate (and heavier
    /// load), which is what spreads the 50-300 job range from light to
    /// saturating.
    pub const ARRIVAL_WINDOW_SLOTS: f64 = 45.0;

    /// Workload configuration for this environment: EC2's 2-core / 4 GB
    /// nodes host proportionally smaller jobs.
    pub(crate) fn workload_config(self, num_jobs: usize) -> WorkloadConfig {
        WorkloadConfig {
            num_jobs,
            mean_interarrival_slots: Self::ARRIVAL_WINDOW_SLOTS / num_jobs.max(1) as f64,
            demand_scale: match self {
                Environment::Cluster => 1.5,
                // Sized so 300 jobs saturate the 30 small nodes, mirroring
                // the cluster environment's load range.
                Environment::Ec2 => 0.45,
            },
            ..WorkloadConfig::default()
        }
    }

    /// Generates the measured workload.
    pub fn workload(self, num_jobs: usize, seed: u64) -> Vec<JobSpec> {
        WorkloadGenerator::new(self.workload_config(num_jobs), seed).generate()
    }
}

/// Seed used for the historical (training) workload; disjoint from every
/// measured-run seed.
pub const HISTORY_SEED: u64 = 0xC0B9;

/// The four compared provisioning schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// The paper's contribution.
    Corp,
    /// Exponential-smoothing opportunistic baseline.
    Rccr,
    /// PRESS-based elastic-scaling baseline.
    CloudScale,
    /// Share/demand capacity-redistribution baseline.
    Dra,
}

/// All schemes in the paper's presentation order.
pub const ALL_SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Corp,
    SchemeKind::Rccr,
    SchemeKind::CloudScale,
    SchemeKind::Dra,
];

impl SchemeKind {
    /// Display name matching the paper.
    pub(crate) fn name(self) -> &'static str {
        match self {
            SchemeKind::Corp => "CORP",
            SchemeKind::Rccr => "RCCR",
            SchemeKind::CloudScale => "CloudScale",
            SchemeKind::Dra => "DRA",
        }
    }
}

/// Extracts per-resource unused-series training data from a historical
/// workload (the stand-in for the paper's Google-trace history).
pub fn historical_histories(env: Environment, num_jobs: usize) -> Vec<Vec<Vec<f64>>> {
    let jobs = env.workload(num_jobs, HISTORY_SEED);
    (0..corp_trace::NUM_RESOURCES)
        .map(|k| {
            jobs.iter()
                .map(|j| (0..j.duration_slots).map(|s| j.unused_at(s, k)).collect())
                .collect()
        })
        .collect()
}

/// Knobs that vary across experiment sweeps.
#[derive(Debug, Clone)]
pub struct SchemeParams {
    /// Confidence level `eta` for CORP and RCCR.
    pub confidence: f64,
    /// Probability threshold `P_th` for CORP's Eq. 21 gate.
    pub prob_threshold: f64,
    /// Pad scale for CloudScale / overcommit for DRA (the Fig. 8
    /// aggressiveness knob; 1.0 = each scheme's default posture).
    pub aggressiveness: f64,
    /// Use the cheaper DNN (tests) instead of the paper's 4x50
    /// architecture.
    pub fast_dnn: bool,
    /// Train CORP's DNNs through the per-sample reference kernels instead
    /// of the fused ones (bit-identical outputs; the reference the
    /// determinism suite compares the fused path against).
    pub reference_dnn: bool,
    /// Pins the prediction fan-out width for CORP, RCCR, and CloudScale
    /// (`None` = the `CORP_THREADS` / hardware default, `Some(1)` = every
    /// forecast serially on the calling thread). Width only shapes
    /// chunking — reports are byte-identical at any width.
    pub pool_width: Option<usize>,
    /// RNG seed for randomized placement.
    pub seed: u64,
}

impl Default for SchemeParams {
    fn default() -> Self {
        SchemeParams {
            confidence: 0.9,
            prob_threshold: 0.95,
            aggressiveness: 1.0,
            fast_dnn: false,
            reference_dnn: false,
            pool_width: None,
            seed: 7,
        }
    }
}

/// CORP's configuration for one experiment cell: Table II (or the cheap
/// DNN) with the swept knobs of `params` applied.
fn corp_config(params: &SchemeParams) -> CorpConfig {
    let mut config = if params.fast_dnn {
        CorpConfig::fast()
    } else {
        CorpConfig::default()
    };
    config.confidence_level = params.confidence;
    config.prob_threshold = params.prob_threshold;
    config.seed = params.seed;
    config.train.reference_kernels = params.reference_dnn;
    config.prediction_pool_width = params.pool_width;
    config
}

/// Builds (and for CORP, pretrains) a provisioner.
pub fn build_provisioner(
    scheme: SchemeKind,
    env: Environment,
    params: &SchemeParams,
) -> Box<dyn Provisioner + Send> {
    provisioner_from(scheme, params, &pretraining_corpus(scheme, env))
}

/// What CORP pretrains on; the baselines learn online only.
fn pretraining_corpus(scheme: SchemeKind, env: Environment) -> Vec<Vec<Vec<f64>>> {
    match scheme {
        SchemeKind::Corp => historical_histories(env, 40),
        _ => Vec::new(),
    }
}

/// [`build_provisioner`] over an already computed pretraining corpus.
fn provisioner_from(
    scheme: SchemeKind,
    params: &SchemeParams,
    corpus: &[Vec<Vec<f64>>],
) -> Box<dyn Provisioner + Send> {
    match scheme {
        SchemeKind::Corp => {
            let mut corp = CorpProvisioner::new(corp_config(params));
            corp.pretrain(corpus);
            Box::new(corp)
        }
        SchemeKind::Rccr => {
            let mut rccr = RccrProvisioner::new(params.confidence, params.seed);
            rccr.set_prediction_pool_width(params.pool_width);
            Box::new(rccr)
        }
        SchemeKind::CloudScale => {
            let mut cs =
                CloudScaleProvisioner::with_padding_scale(params.seed, params.aggressiveness);
            cs.set_prediction_pool_width(params.pool_width);
            Box::new(cs)
        }
        SchemeKind::Dra => Box::new(DraProvisioner::with_overcommit(
            params.seed,
            params.aggressiveness.clamp(0.05, 1.0),
        )),
    }
}

/// Builds a sharded control plane: `shards` independent copies of `scheme`
/// behind a [`ShardedProvisioner`] coordinator. Each shard is what
/// [`build_provisioner`] builds from `params` at the shard's decorrelated
/// seed (shard 0 keeps `params.seed`, so one shard reproduces the
/// monolithic scheduler exactly); CORP's shards share one pretraining
/// corpus. Each shard is built from a factory, so the supervisor rebuilds a
/// shard that dies — whether `fault_plan`'s control-plane chaos killed it
/// or it panicked.
pub fn build_sharded_provisioner(
    scheme: SchemeKind,
    env: Environment,
    params: &SchemeParams,
    shards: usize,
    fault_plan: Option<ControlFaultPlan>,
) -> ShardedProvisioner {
    let corpus = Arc::new(pretraining_corpus(scheme, env));
    let factories = (0..shards)
        .map(|shard| {
            let params = SchemeParams {
                seed: shard_seed(params.seed, shard),
                ..params.clone()
            };
            let corpus = Arc::clone(&corpus);
            Box::new(move || provisioner_from(scheme, &params, &corpus)) as ProvisionerFactory
        })
        .collect();
    ShardedProvisioner::with_factories(scheme.name(), factories, ShardConfig { fault_plan })
}

/// The engine one (environment, #jobs, seed) cell runs on — the same fleet
/// and the same arrivals whichever scheme provisions it.
fn cell_simulation(env: Environment, num_jobs: usize, seed: u64, measure_time: bool) -> Simulation {
    Simulation::new(
        env.cluster(),
        env.workload(num_jobs, seed.wrapping_add(num_jobs as u64)),
        SimulationOptions {
            measure_decision_time: measure_time,
            ..Default::default()
        },
    )
}

/// Runs one cell under a deterministic fault schedule: `fault_config`'s
/// engine-side timeline (VM crashes, stragglers, view poisoning) drives
/// the simulation while its control-plane plan (worker kills, message
/// drops/delays) drives the `shards`-way coordinator. The same
/// `fault_config` yields the same schedule for every scheme, so schemes
/// are compared under identical chaos.
pub fn run_cell_faulty(
    env: Environment,
    scheme: SchemeKind,
    num_jobs: usize,
    params: &SchemeParams,
    shards: usize,
    fault_config: &FaultConfig,
) -> corp_sim::SimulationReport {
    let schedule: FaultSchedule = generate(fault_config, env.cluster().vms.len(), shards);
    let mut provisioner =
        build_sharded_provisioner(scheme, env, params, shards, Some(schedule.control));
    cell_simulation(env, num_jobs, params.seed, false)
        .with_fault_timeline(schedule.timeline)
        .run(&mut provisioner)
}

/// Runs one (environment, scheme, #jobs) cell through a `shards`-way
/// control plane. Returns the report, the simulation loop's wall-clock
/// seconds and the coordinator's phase split
/// ([`ShardedProvisioner::phase_times`]) — kept out of the report so
/// reports stay byte-deterministic while throughput (placements committed
/// / second) and where the coordinator spends it stay measurable.
pub fn run_cell_sharded(
    env: Environment,
    scheme: SchemeKind,
    num_jobs: usize,
    params: &SchemeParams,
    shards: usize,
    measure_time: bool,
) -> (corp_sim::SimulationReport, f64, CoordinatorPhases) {
    let mut provisioner = build_sharded_provisioner(scheme, env, params, shards, None);
    let mut sim = cell_simulation(env, num_jobs, params.seed, measure_time);
    let started = std::time::Instant::now();
    let report = sim.run(&mut provisioner);
    let wall = started.elapsed().as_secs_f64();
    (report, wall, provisioner.phase_times())
}

/// Runs one (environment, scheme, #jobs) cell and returns the report.
pub fn run_cell(
    env: Environment,
    scheme: SchemeKind,
    num_jobs: usize,
    params: &SchemeParams,
    measure_time: bool,
) -> corp_sim::SimulationReport {
    let mut provisioner = build_provisioner(scheme, env, params);
    cell_simulation(env, num_jobs, params.seed, measure_time).run(provisioner.as_mut())
}

/// Scalar metrics of one cell averaged over several workload seeds — the
/// SLO-rate and error-rate figures are small-count statistics, so single
/// runs are noisy the same way single testbed runs are.
#[derive(Debug, Clone, Copy)]
pub struct AveragedCell {
    /// Mean overall utilization.
    pub overall_utilization: f64,
    /// Mean per-resource utilization.
    pub utilization: [f64; corp_trace::NUM_RESOURCES],
    /// Mean SLO violation rate.
    pub slo_violation_rate: f64,
    /// Mean prediction-error rate.
    pub prediction_error_rate: f64,
    /// Mean overhead in milliseconds.
    pub overhead_ms: f64,
}

/// Runs one cell over `seeds` distinct workloads and averages the scalar
/// metrics. Each seed builds a fresh provisioner, so no state leaks
/// between repetitions.
pub fn run_cell_averaged(
    env: Environment,
    scheme: SchemeKind,
    num_jobs: usize,
    params: &SchemeParams,
    measure_time: bool,
    seeds: &[u64],
) -> AveragedCell {
    assert!(!seeds.is_empty(), "need at least one seed");
    let mut acc = AveragedCell {
        overall_utilization: 0.0,
        utilization: [0.0; corp_trace::NUM_RESOURCES],
        slo_violation_rate: 0.0,
        prediction_error_rate: 0.0,
        overhead_ms: 0.0,
    };
    for &seed in seeds {
        let mut p = params.clone();
        p.seed = seed;
        let r = run_cell(env, scheme, num_jobs, &p, measure_time);
        acc.overall_utilization += r.overall_utilization;
        for k in 0..corp_trace::NUM_RESOURCES {
            acc.utilization[k] += r.utilization[k];
        }
        acc.slo_violation_rate += r.slo_violation_rate;
        acc.prediction_error_rate += r.prediction_error_rate;
        acc.overhead_ms += r.overhead_ms;
    }
    let n = seeds.len() as f64;
    acc.overall_utilization /= n;
    for k in 0..corp_trace::NUM_RESOURCES {
        acc.utilization[k] /= n;
    }
    acc.slo_violation_rate /= n;
    acc.prediction_error_rate /= n;
    acc.overhead_ms /= n;
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn environments_build_expected_fleets() {
        assert_eq!(Environment::Cluster.cluster().vms.len(), 32);
        assert_eq!(Environment::Ec2.cluster().vms.len(), 30);
    }

    #[test]
    fn ec2_jobs_fit_ec2_nodes() {
        let cap = Environment::Ec2.cluster().max_vm_capacity();
        for j in Environment::Ec2.workload(100, 3) {
            assert!(
                corp_sim::ResourceVector::new(j.requested).fits_within(&cap),
                "job {:?} exceeds EC2 node capacity",
                j.requested
            );
        }
    }

    #[test]
    fn historical_histories_cover_all_resources() {
        let h = historical_histories(Environment::Cluster, 10);
        assert_eq!(h.len(), 3);
        assert!(h.iter().all(|per_job| per_job.len() == 10));
    }

    #[test]
    fn scheme_names_match_paper() {
        let names: Vec<&str> = ALL_SCHEMES.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["CORP", "RCCR", "CloudScale", "DRA"]);
    }

    #[test]
    fn run_cell_completes_for_every_scheme() {
        let params = SchemeParams {
            fast_dnn: true,
            ..Default::default()
        };
        for scheme in ALL_SCHEMES {
            let report = run_cell(Environment::Cluster, scheme, 30, &params, false);
            assert_eq!(report.num_jobs, 30, "{scheme:?}");
            assert_eq!(report.invalid_actions, 0, "{scheme:?}: {report:?}");
        }
    }
}
