//! The *cooperative* provisioner — CORP plus a pattern-based partner for
//! long-lived jobs.
//!
//! Section I: "This method can cooperate with other methods for long-lived
//! jobs for resource allocation in cloud systems"; the conclusion lists
//! mixed short/long workloads as future work. [`CooperativeProvisioner`]
//! implements that cooperation:
//!
//! * **short-lived jobs** go through the full CORP pipeline (per-job DNN +
//!   HMM + CI + gate);
//! * **long-lived jobs** — whose usage *does* have patterns — are handled
//!   by a seasonal Holt-Winters forecaster per job and resource, the
//!   pattern-exploiting approach of the RCCR lineage;
//! * placement uses CORP's complementary packing and Eq. 22 volume
//!   best-fit for everything.
//!
//! Jobs are classified at admission by their SLO horizon: an SLO threshold
//! above [`CooperativeProvisioner::LONG_LIVED_SLO_SLOTS`] marks a service
//! job (submission metadata in real systems; the SLO is its observable
//! proxy here).

use crate::config::CorpConfig;
use crate::packing::{pack_complementary, JobEntity, PackableJob};
use crate::placement::most_matched_vm;
use crate::predictor::CorpJobPredictor;
use corp_sim::{Placement, ProvisionPlan, Provisioner, ResourceVector, SlotContext};
use corp_stats::HoltWinters;
use corp_trace::NUM_RESOURCES;
use std::collections::{HashMap, HashSet};

/// Safety margin kept above the Holt-Winters demand forecast for
/// long-lived jobs, as a fraction of the request.
const LONG_LIVED_MARGIN: f64 = 0.08;

/// CORP cooperating with a seasonal forecaster for long-lived jobs.
pub struct CooperativeProvisioner {
    config: CorpConfig,
    predictor: CorpJobPredictor,
    /// Per (job, resource) seasonal smoothers for long-lived jobs.
    seasonal: HashMap<u64, Vec<HoltWinters>>,
    /// Ids classified as long-lived at admission.
    long_lived: HashSet<u64>,
    /// Number of slots already folded into each long-lived job's smoother.
    observed_len: HashMap<u64, usize>,
    /// Seasonal period assumed for service jobs, in slots.
    season_slots: usize,
}

impl CooperativeProvisioner {
    /// SLO horizon (slots) above which an arriving job is treated as
    /// long-lived: longer than the short-lived world's 5-minute timeout
    /// with slack.
    pub const LONG_LIVED_SLO_SLOTS: usize = 60;

    /// Creates a cooperative provisioner; `season_slots` is the assumed
    /// usage-cycle length of service jobs.
    pub fn new(config: CorpConfig, season_slots: usize) -> Self {
        config.validate();
        assert!(
            season_slots >= 2,
            "seasonal period must be at least 2 slots"
        );
        let predictor = CorpJobPredictor::new(&config);
        CooperativeProvisioner {
            config,
            predictor,
            seasonal: HashMap::new(),
            long_lived: HashSet::new(),
            observed_len: HashMap::new(),
            season_slots,
        }
    }

    /// Offline-trains the short-lived pipeline (see
    /// [`CorpProvisioner::pretrain`](crate::CorpProvisioner::pretrain)).
    pub fn pretrain(&mut self, histories_per_resource: &[Vec<Vec<f64>>]) {
        self.predictor.pretrain(histories_per_resource);
    }

    /// Number of jobs currently classified long-lived (diagnostics).
    pub fn long_lived_count(&self) -> usize {
        self.long_lived.len()
    }

    /// Folds a long-lived job's newest demand observations into its
    /// seasonal smoothers.
    fn observe_long_lived(&mut self, job: &corp_sim::RunningJobView) {
        let season = self.season_slots;
        let smoothers = self.seasonal.entry(job.id).or_insert_with(|| {
            (0..NUM_RESOURCES)
                .map(|_| HoltWinters::new(0.3, 0.05, 0.3, season))
                .collect()
        });
        let seen = self.observed_len.entry(job.id).or_insert(0);
        // The view holds a capped tail; feed only genuinely new samples.
        let total = job.recent_demand.len();
        let new_from = (*seen).min(total);
        for d in &job.recent_demand[new_from..] {
            for (k, s) in smoothers.iter_mut().enumerate() {
                s.observe(d[k]);
            }
        }
        *seen = total.max(*seen + (total - new_from));
    }

    /// Target allocation for a long-lived job over the next window: the
    /// seasonal forecast of demand (max over the window's steps) plus a
    /// fixed margin.
    fn long_lived_target(&self, job: &corp_sim::RunningJobView) -> Option<ResourceVector> {
        let smoothers = self.seasonal.get(&job.id)?;
        let mut target = ResourceVector::ZERO;
        for k in 0..NUM_RESOURCES {
            if !smoothers[k].is_initialized() {
                return None;
            }
            let mut peak: f64 = 0.0;
            for h in 1..=self.config.window_slots {
                if let Some(f) = smoothers[k].forecast(h) {
                    peak = peak.max(f);
                }
            }
            target[k] = (peak + LONG_LIVED_MARGIN * job.requested[k])
                .min(job.requested[k])
                .max(0.1 * job.requested[k]);
        }
        Some(target)
    }
}

impl Provisioner for CooperativeProvisioner {
    fn name(&self) -> &str {
        "CORP-coop"
    }

    fn provision(&mut self, ctx: &SlotContext<'_>) -> ProvisionPlan {
        let mut plan = ProvisionPlan::default();
        self.predictor.maybe_train();

        // Classify arrivals by SLO horizon.
        for p in ctx.pending {
            if p.slo_slots > Self::LONG_LIVED_SLO_SLOTS {
                self.long_lived.insert(p.id);
            }
        }

        // Keep seasonal models current for running long-lived jobs.
        let long_jobs: Vec<&corp_sim::RunningJobView> = ctx
            .vms
            .iter()
            .flat_map(|v| ctx.owned_jobs(v))
            .filter(|j| self.long_lived.contains(&j.id))
            .collect();
        for job in &long_jobs {
            self.observe_long_lived(job);
        }

        let window = self.config.window_slots as u64;
        let mut pools: Vec<ResourceVector> = ctx.vms.iter().map(|v| v.free).collect();

        if ctx.slot % window == 0 {
            for vm in ctx.vms {
                for job in ctx.owned_jobs(vm) {
                    if job.recent_unused.is_empty() {
                        continue;
                    }
                    let new_alloc = if self.long_lived.contains(&job.id) {
                        // Pattern-based partner: follow the seasonal
                        // forecast.
                        match self.long_lived_target(job) {
                            Some(t) => t,
                            None => continue, // warming up: hold at request
                        }
                    } else {
                        // CORP pipeline for short-lived jobs.
                        let series: Vec<Vec<f64>> = (0..NUM_RESOURCES)
                            .map(|k| job.recent_unused.iter().map(|u| u[k]).collect())
                            .collect();
                        let u_hat = self.predictor.predict_job(&series, &job.requested);
                        let window_len = self.config.window_slots.min(job.recent_demand.len());
                        let mut recent_mean = ResourceVector::ZERO;
                        for d in &job.recent_demand[job.recent_demand.len() - window_len..] {
                            recent_mean += *d;
                        }
                        if window_len > 0 {
                            recent_mean = recent_mean.scaled(1.0 / window_len as f64);
                        }
                        let mut alloc = job.allocation;
                        for k in 0..NUM_RESOURCES {
                            let floor = (self.config.reclaim_floor * job.requested[k])
                                .max(recent_mean[k] * 1.05)
                                .min(job.requested[k]);
                            alloc[k] = if self.predictor.unlocked(k) {
                                (job.allocation[k] - u_hat[k])
                                    .max(floor)
                                    .min(job.requested[k])
                            } else {
                                job.allocation[k].max(floor).min(job.requested[k])
                            };
                        }
                        alloc
                    };
                    // Clamp growth into current headroom; apply.
                    let mut clamped = new_alloc;
                    for k in 0..NUM_RESOURCES {
                        let grow = clamped[k] - job.allocation[k];
                        if grow > pools[vm.id][k] {
                            clamped[k] = job.allocation[k] + pools[vm.id][k].max(0.0);
                        }
                    }
                    if clamped != job.allocation {
                        pools[vm.id] += job.allocation.saturating_sub(&clamped);
                        pools[vm.id] =
                            pools[vm.id].saturating_sub(&clamped.saturating_sub(&job.allocation));
                        plan.adjustments.push((job.id, clamped));
                    }
                }
            }
        }

        // Placement: CORP packing + Eq. 22 best-fit for every entity.
        let requested: HashMap<u64, ResourceVector> =
            ctx.pending.iter().map(|p| (p.id, p.requested)).collect();
        let packable: Vec<PackableJob> = ctx
            .pending
            .iter()
            .map(|p| PackableJob {
                id: p.id,
                demand: p.requested,
            })
            .collect();
        let entities: Vec<JobEntity> = if self.config.use_packing {
            pack_complementary(&packable, &ctx.max_vm_capacity)
        } else {
            packable
                .iter()
                .map(|p| JobEntity {
                    jobs: vec![p.id],
                    total_demand: p.demand,
                })
                .collect()
        };
        for entity in &entities {
            let Some(vm) = most_matched_vm(&pools, &entity.total_demand, &ctx.max_vm_capacity)
            else {
                continue;
            };
            pools[vm] -= entity.total_demand;
            pools[vm] = pools[vm].clamp_nonnegative();
            for &job in &entity.jobs {
                plan.placements.push(Placement {
                    job,
                    vm,
                    allocation: requested[&job],
                });
            }
        }
        plan
    }

    fn on_job_completed(&mut self, job: u64, unused_history: &[Vec<f64>]) {
        if self.long_lived.remove(&job) {
            self.seasonal.remove(&job);
            self.observed_len.remove(&job);
        } else {
            self.predictor.add_history(unused_history);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corp_sim::{Cluster, EnvironmentProfile, Simulation, SimulationOptions};
    use corp_trace::{LongLivedConfig, LongLivedGenerator, WorkloadConfig, WorkloadGenerator};

    fn mixed_workload(seed: u64) -> Vec<corp_trace::JobSpec> {
        let mut jobs = WorkloadGenerator::new(
            WorkloadConfig {
                num_jobs: 50,
                ..WorkloadConfig::default()
            },
            seed,
        )
        .generate();
        let long = LongLivedGenerator::new(
            LongLivedConfig {
                num_jobs: 6,
                min_duration_slots: 120,
                max_duration_slots: 240,
                ..Default::default()
            },
            seed + 1,
            1_000_000,
        )
        .generate();
        jobs.extend(long);
        jobs.sort_by_key(|j| j.arrival_slot);
        jobs
    }

    fn run_coop(seed: u64) -> (corp_sim::SimulationReport, usize) {
        let mut coop = CooperativeProvisioner::new(CorpConfig::fast(), 30);
        let cluster = Cluster::from_profile(EnvironmentProfile::palmetto_cluster());
        let mut sim = Simulation::new(
            cluster,
            mixed_workload(seed),
            SimulationOptions {
                measure_decision_time: false,
                ..Default::default()
            },
        );
        let report = sim.run(&mut coop);
        (report, coop.long_lived_count())
    }

    #[test]
    fn completes_mixed_workload_without_invalid_actions() {
        let (report, _) = run_coop(3);
        assert_eq!(
            report.completed + report.unfinished + report.rejected,
            56,
            "{report:?}"
        );
        assert_eq!(report.invalid_actions, 0, "{report:?}");
        assert!(report.completed >= 50, "{report:?}");
    }

    #[test]
    fn classifies_long_lived_jobs_by_slo_horizon() {
        let mut coop = CooperativeProvisioner::new(CorpConfig::fast(), 30);
        let cluster = Cluster::from_profile(EnvironmentProfile::palmetto_cluster());
        let mut sim = Simulation::new(
            cluster,
            mixed_workload(5),
            SimulationOptions {
                measure_decision_time: false,
                max_slots: 40,
                ..Default::default()
            },
        );
        let _ = sim.run(&mut coop);
        // All 6 long jobs should have been classified while running.
        assert_eq!(coop.long_lived_count(), 6);
    }

    #[test]
    fn reclaims_from_long_lived_jobs_once_patterns_are_learned() {
        // A mixed run must beat pure reservation on utilization: the
        // seasonal forecaster reclaims the off-peak slack of service jobs.
        let (report, _) = run_coop(7);
        let mut peak = corp_sim::StaticPeakProvisioner;
        let cluster = Cluster::from_profile(EnvironmentProfile::palmetto_cluster());
        let mut sim = Simulation::new(
            cluster,
            mixed_workload(7),
            SimulationOptions {
                measure_decision_time: false,
                ..Default::default()
            },
        );
        let peak_report = sim.run(&mut peak);
        assert!(
            report.overall_utilization > peak_report.overall_utilization + 0.02,
            "coop {} vs peak {}",
            report.overall_utilization,
            peak_report.overall_utilization
        );
    }

    #[test]
    #[should_panic]
    fn rejects_degenerate_season() {
        CooperativeProvisioner::new(CorpConfig::fast(), 1);
    }
}
