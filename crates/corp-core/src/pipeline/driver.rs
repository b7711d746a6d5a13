//! The single slot-loop driver composing the four pipeline stages.

use crate::packing::{JobEntity, PackableJob};
use crate::pipeline::backend::{AdmissionPolicy, PlacementBackend};
use crate::pipeline::gate::ReallocationGate;
use crate::pipeline::pack::JobPacker;
use crate::pipeline::predict::{PendingOutcome, UsagePredictor};
use corp_sim::{Placement, ProvisionPlan, Provisioner, ResourceVector, SlotContext};
use corp_trace::NUM_RESOURCES;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// One provisioning pipeline: a [`UsagePredictor`], a
/// [`ReallocationGate`], a [`JobPacker`], and a [`PlacementBackend`]
/// composed behind the engine's [`Provisioner`] interface.
///
/// Every slot the driver runs the same four steps:
///
/// 1. **Ingest** — the predictor absorbs telemetry and resolves matured
///    predictions (paper Eq. 20).
/// 2. **Forecast + reallocate** (window boundaries only) — the predictor
///    forecasts the coming window; the gate rewrites running jobs'
///    allocations against the free pools and registers prediction records.
/// 3. **Pack** — pending jobs become placement entities.
/// 4. **Place** — the backend chooses a VM per entity under the admission
///    policy; unplaceable pairs fall back to individual placement (the
///    paper's split rule).
///
/// The four paper schemes are pure stage configurations of this one
/// driver (see [`crate::CorpProvisioner`] and the baselines' aliases).
pub struct ProvisioningPipeline<U, G, K, B> {
    name: String,
    window_slots: u64,
    predictor: U,
    gate: G,
    packer: K,
    backend: B,
    admission: AdmissionPolicy,
    rng: StdRng,
    outcomes: Vec<PendingOutcome>,
    /// Brownout posture (see [`Provisioner::set_service_level`]): at `1`
    /// and above the reallocation gate and the forecast feeding it are
    /// skipped.
    service_level: u8,
    // Per-slot working buffers, cleared and refilled every slot instead of
    // reallocated (the driver runs once per slot for the whole fleet, so
    // these amortize to zero allocation at steady state).
    pools_buf: Vec<ResourceVector>,
    requested_buf: HashMap<u64, ResourceVector>,
    packable_buf: Vec<PackableJob>,
}

impl<U, G, K, B> ProvisioningPipeline<U, G, K, B> {
    /// Composes a pipeline from its four stages.
    ///
    /// # Panics
    ///
    /// Panics if `window_slots` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn compose(
        name: impl Into<String>,
        window_slots: u64,
        seed: u64,
        predictor: U,
        gate: G,
        packer: K,
        backend: B,
        admission: AdmissionPolicy,
    ) -> Self {
        assert!(window_slots > 0, "window must be positive");
        ProvisioningPipeline {
            name: name.into(),
            window_slots,
            predictor,
            gate,
            packer,
            backend,
            admission,
            rng: StdRng::seed_from_u64(seed),
            outcomes: Vec::new(),
            service_level: 0,
            pools_buf: Vec::new(),
            requested_buf: HashMap::new(),
            packable_buf: Vec::new(),
        }
    }

    /// The prediction stage (diagnostics and scheme-specific knobs).
    pub(crate) fn stage_predictor(&self) -> &U {
        &self.predictor
    }

    /// Mutable access to the prediction stage.
    pub fn stage_predictor_mut(&mut self) -> &mut U {
        &mut self.predictor
    }
}

/// Places one entity: fit-check and VM choice through the backend, then
/// debit the pool and emit one placement per member job.
#[allow(clippy::too_many_arguments)]
fn place_entity<B: PlacementBackend>(
    backend: &mut B,
    admission: AdmissionPolicy,
    ctx: &SlotContext<'_>,
    pools: &mut [ResourceVector],
    entity: &JobEntity,
    requested: &HashMap<u64, ResourceVector>,
    rng: &mut StdRng,
    plan: &mut ProvisionPlan,
) -> bool {
    let fit = admission.fit_demand(&entity.total_demand);
    let claim = backend.choose(pools, &fit, None, &ctx.max_vm_capacity, rng);
    let Some(vm) = claim.vm else { return false };
    let debit = match admission {
        AdmissionPolicy::FullRequest => entity.total_demand,
        // Overbooked admission grants only what is actually free; the
        // packer is passthrough under every overcommitting scheme, so the
        // entity is a single job and `debit` is exactly its grant.
        AdmissionPolicy::Overcommit(_) => entity.total_demand.min(&pools[vm]).clamp_nonnegative(),
    };
    pools[vm] -= debit;
    pools[vm] = pools[vm].clamp_nonnegative();
    backend.debit(vm, &pools[vm], &ctx.max_vm_capacity);
    for &job in &entity.jobs {
        let allocation = match admission {
            AdmissionPolicy::FullRequest => requested[&job],
            AdmissionPolicy::Overcommit(_) => debit,
        };
        plan.placements.push(Placement {
            job,
            vm,
            allocation,
        });
    }
    true
}

impl<U, G, K, B> Provisioner for ProvisioningPipeline<U, G, K, B>
where
    U: UsagePredictor,
    G: ReallocationGate,
    K: JobPacker,
    B: PlacementBackend,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn provision(&mut self, ctx: &SlotContext<'_>) -> ProvisionPlan {
        let mut plan = ProvisionPlan::default();
        self.predictor
            .ingest(ctx, self.window_slots, &mut self.outcomes);

        let pools = &mut self.pools_buf;
        pools.clear();
        pools.extend(ctx.vms.iter().map(|v| v.free));

        // Brownout level 1 and up skips reallocation, and with it the
        // forecast: a forecast writes nothing a later slot reads (CORP's
        // scratch is per window, the baselines predict through `&self`).
        // Ingest above keeps maturing previously registered outcomes.
        if ctx.slot % self.window_slots == 0 && self.service_level == 0 {
            let forecast = self.predictor.forecast(ctx);
            // Snapshot the Eq. 21 verdict once: gate state only changes
            // when outcomes resolve (during ingest), never mid-window.
            let unlocked: [bool; NUM_RESOURCES] =
                std::array::from_fn(|k| self.predictor.unlocked(k));
            self.gate.reallocate(
                ctx,
                &forecast,
                &unlocked,
                self.window_slots,
                pools,
                &mut self.outcomes,
                &mut plan,
            );
        }

        // Placement: pack, then choose/debit per entity.
        let requested = &mut self.requested_buf;
        requested.clear();
        requested.extend(ctx.pending.iter().map(|p| (p.id, p.requested)));
        let packable = &mut self.packable_buf;
        packable.clear();
        packable.extend(ctx.pending.iter().map(|p| PackableJob {
            id: p.id,
            demand: p.requested,
        }));
        let entities = self.packer.pack(packable, &ctx.max_vm_capacity);
        if entities.is_empty() {
            return plan;
        }
        // Only a slot with something to place pays for backend setup
        // (volume-index construction) — hot-path critical.
        self.backend.begin_slot(pools, &ctx.max_vm_capacity);
        for entity in &entities {
            if place_entity(
                &mut self.backend,
                self.admission,
                ctx,
                pools,
                entity,
                requested,
                &mut self.rng,
                &mut plan,
            ) {
                continue;
            }
            // Paper fallback: a pair that fits nowhere is split and its
            // members placed individually where possible.
            if entity.jobs.len() > 1 {
                for &job in &entity.jobs {
                    let single = JobEntity {
                        jobs: vec![job],
                        total_demand: requested[&job],
                    };
                    place_entity(
                        &mut self.backend,
                        self.admission,
                        ctx,
                        pools,
                        &single,
                        requested,
                        &mut self.rng,
                        &mut plan,
                    );
                }
            }
        }
        plan
    }

    fn on_job_completed(&mut self, job: u64, unused_history: &[Vec<f64>]) {
        self.predictor.absorb_completion(job, unused_history);
    }

    fn set_service_level(&mut self, level: u8) {
        self.service_level = level;
    }

    /// Deep view histories are only consumed on window boundaries: the
    /// forecast/reallocation stages run under `slot % window_slots == 0`,
    /// and prediction outcomes (made on a boundary, due one window later)
    /// mature on boundaries too. Off-boundary slots touch only the newest
    /// sample of each history, so the engine may skip the deep tail copies.
    fn full_view_period(&self) -> u64 {
        self.window_slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::backend::{DirectBackend, VmSelector};
    use crate::pipeline::gate::BaselineReclaimGate;
    use crate::pipeline::pack::Packing;
    use crate::pipeline::predict::WindowForecast;
    use corp_sim::{Cluster, EnvironmentProfile, Simulation, SimulationOptions};
    use corp_trace::{WorkloadConfig, WorkloadGenerator};

    /// A predictor that forecasts nothing and counts how often it is asked.
    #[derive(Default)]
    struct CountingPredictor {
        forecasts: usize,
    }

    impl UsagePredictor for CountingPredictor {
        fn ingest(&mut self, _: &SlotContext<'_>, _: u64, _: &mut Vec<PendingOutcome>) {}

        fn forecast(&mut self, ctx: &SlotContext<'_>) -> WindowForecast {
            self.forecasts += 1;
            WindowForecast::PerVm(vec![None; ctx.vms.len()])
        }
    }

    /// Forecast calls over a 40-job run at brownout `level`.
    fn forecasts_at(level: u8) -> usize {
        let mut pipeline = ProvisioningPipeline::compose(
            "counting",
            6,
            1,
            CountingPredictor::default(),
            BaselineReclaimGate,
            Packing::Passthrough,
            DirectBackend::new(VmSelector::Random),
            AdmissionPolicy::FullRequest,
        );
        pipeline.set_service_level(level);
        let jobs = WorkloadGenerator::new(
            WorkloadConfig {
                num_jobs: 40,
                ..WorkloadConfig::default()
            },
            3,
        )
        .generate();
        let cluster = Cluster::from_profile(EnvironmentProfile::palmetto_cluster());
        Simulation::new(cluster, jobs, SimulationOptions::default()).run(&mut pipeline);
        pipeline.stage_predictor().forecasts
    }

    #[test]
    fn brownout_levels_one_and_up_never_forecast() {
        assert!(forecasts_at(0) > 0, "full service forecasts every window");
        for level in 1..=3 {
            assert_eq!(forecasts_at(level), 0, "level {level}");
        }
    }
}
