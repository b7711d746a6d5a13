//! The four provisioners — CORP and the RCCR / CloudScale / DRA baselines
//! — expressed as stage configurations of the [`crate::pipeline`] driver.
//!
//! All four drive a `corp-sim` simulation through the same
//! [`Provisioner`](corp_sim::Provisioner) interface and differ exactly
//! where the paper says they do:
//!
//! | scheme      | prediction                        | error handling        | placement              | packing |
//! |-------------|-----------------------------------|-----------------------|------------------------|---------|
//! | CORP        | per-job DNN                       | HMM + CI + Eq. 21 gate| Eq. 22 volume best-fit | yes     |
//! | RCCR        | per-VM exponential smoothing      | CI lower bound        | random fitting VM      | no      |
//! | CloudScale  | per-VM FFT signature / Markov     | adaptive padding      | random fitting VM      | no      |
//! | DRA         | per-VM recent mean ("run-time")   | none                  | share-weighted random  | no      |
//!
//! Each scheme is a `ProvisioningPipeline<predictor, gate, packer,
//! backend>` type alias plus a constructor wiring the stages; the slot
//! loop itself lives once in [`crate::pipeline::ProvisioningPipeline`].
//!
//! ## Reclaim/restore mechanics
//!
//! Every `L` slots (the prediction window) each scheme re-derives running
//! jobs' allocations. Opportunistic schemes (CORP, RCCR, CloudScale)
//! subtract their predicted-unused estimate from current allocations —
//! freeing capacity for new arrivals — and restore allocations when
//! observed demand presses against them (all real systems scale up on
//! pressure; what separates the schemes is how often bad predictions let
//! jobs get squeezed first). DRA never reclaims opportunistically: it
//! redistributes entitlements by share class (4:2:1) scaled by a lagging
//! mean-demand estimate.

use crate::config::CorpConfig;
use crate::pipeline::{
    AdmissionPolicy, BaselineReclaimGate, CorpReclaimGate, CorpUsagePredictor, DirectBackend,
    FiniteGuard, NoopGate, NoopUsagePredictor, Packing, ProvisioningPipeline, RecordOnlyGate,
    VmSelector, VmWindowPredictor,
};
use crate::predictor::{CloudScalePredictor, CorpJobPredictor, DraPredictor, RccrPredictor};

/// The window length (in slots) every baseline uses, matching the paper's
/// 1-minute window on a 10-second trace.
const BASELINE_WINDOW_SLOTS: u64 = 6;

// ---------------------------------------------------------------------------
// CORP
// ---------------------------------------------------------------------------

/// The paper's scheme: per-job DNN prediction + HMM correction + CI lower
/// bound + Eq. 21 gated reclaim + complementary packing + Eq. 22 placement.
pub type CorpProvisioner =
    ProvisioningPipeline<CorpUsagePredictor, CorpReclaimGate, Packing, DirectBackend>;

impl CorpProvisioner {
    /// Creates a CORP provisioner.
    pub fn new(config: CorpConfig) -> Self {
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
        Self::compose(
            "CORP",
            config.window_slots as u64,
            config.seed,
            CorpUsagePredictor::new(&config),
            CorpReclaimGate::new(config.window_slots, config.reclaim_floor),
            packing,
            DirectBackend::new(selector),
            AdmissionPolicy::FullRequest,
        )
    }

    /// Offline-trains the predictor on a historical workload (paper: the
    /// Google-trace history). `histories_per_resource[k]` holds per-job
    /// unused series for resource `k`. Training also warms the Eq. 21 gate
    /// from historical prediction errors.
    pub fn pretrain(&mut self, histories_per_resource: &[Vec<Vec<f64>>]) {
        self.stage_predictor_mut().pretrain(histories_per_resource);
    }

    /// The underlying predictor (diagnostics).
    pub fn predictor(&self) -> &CorpJobPredictor {
        self.stage_predictor().inner()
    }
}

// ---------------------------------------------------------------------------
// RCCR
// ---------------------------------------------------------------------------

/// The RCCR baseline: VM-level exponential-smoothing prediction with a
/// confidence-interval lower bound, proportional reclaim, random placement,
/// no packing.
pub type RccrProvisioner = ProvisioningPipeline<
    VmWindowPredictor<FiniteGuard<RccrPredictor>>,
    BaselineReclaimGate,
    Packing,
    DirectBackend,
>;

impl RccrProvisioner {
    /// Creates an RCCR provisioner with the given confidence level.
    pub fn new(confidence: f64, seed: u64) -> Self {
        Self::compose(
            "RCCR",
            BASELINE_WINDOW_SLOTS,
            seed,
            VmWindowPredictor::new(FiniteGuard::new(RccrPredictor::new(0.5, confidence))),
            BaselineReclaimGate,
            Packing::Passthrough,
            DirectBackend::new(VmSelector::Random),
            AdmissionPolicy::FullRequest,
        )
    }

    /// Pins the prediction fan-out width (`None` restores the default,
    /// `Some(1)` is serial).
    pub fn set_prediction_pool_width(&mut self, width: Option<usize>) {
        self.stage_predictor_mut().runtime_mut().set_width(width);
    }
}

// ---------------------------------------------------------------------------
// CloudScale
// ---------------------------------------------------------------------------

/// The CloudScale baseline: VM-level PRESS prediction (FFT signature with
/// Markov fallback) plus adaptive padding, proportional reclaim, random
/// placement, no packing, no confidence levels.
pub type CloudScaleProvisioner = ProvisioningPipeline<
    VmWindowPredictor<FiniteGuard<CloudScalePredictor>>,
    BaselineReclaimGate,
    Packing,
    DirectBackend,
>;

impl CloudScaleProvisioner {
    /// Creates a CloudScale provisioner.
    pub fn new(seed: u64) -> Self {
        Self::with_padding_scale(seed, 1.0)
    }

    /// Creates a CloudScale provisioner with a scaled adaptive pad (the
    /// aggressiveness knob swept by the Fig. 8 experiment).
    pub fn with_padding_scale(seed: u64, pad_scale: f64) -> Self {
        Self::compose(
            "CloudScale",
            BASELINE_WINDOW_SLOTS,
            seed,
            VmWindowPredictor::new(FiniteGuard::new(CloudScalePredictor::with_padding_scale(
                pad_scale,
            ))),
            BaselineReclaimGate,
            Packing::Passthrough,
            DirectBackend::new(VmSelector::Random),
            AdmissionPolicy::FullRequest,
        )
    }

    /// Pins the prediction fan-out width (`None` restores the default,
    /// `Some(1)` is serial).
    pub fn set_prediction_pool_width(&mut self, width: Option<usize>) {
        self.stage_predictor_mut().runtime_mut().set_width(width);
    }
}

// ---------------------------------------------------------------------------
// DRA
// ---------------------------------------------------------------------------

/// The DRA baseline: demand-based allocation of bulk capacity with 4:2:1
/// share weights. Jobs are granted their full request (DRA does not give
/// the VMs more than what they demand, and the demand a customer
/// states *is* the request) and placement prefers high-share VMs
/// (share-weighted random among fitting VMs). Crucially, DRA has no
/// mechanism for reallocating allocated-but-unused resources — under load
/// it simply runs out of capacity and queues arrivals, which is both its
/// low-utilization and its high-SLO-violation story in the paper.
pub type DraProvisioner = ProvisioningPipeline<
    VmWindowPredictor<FiniteGuard<DraPredictor>>,
    RecordOnlyGate,
    Packing,
    DirectBackend,
>;

impl DraProvisioner {
    /// Creates a DRA provisioner with strict reservations.
    pub fn new(seed: u64) -> Self {
        Self::with_overcommit(seed, 1.0)
    }

    /// Creates a DRA provisioner with an admission overcommit factor in
    /// `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `overcommit` is outside `(0, 1]`.
    pub fn with_overcommit(seed: u64, overcommit: f64) -> Self {
        assert!(
            overcommit > 0.0 && overcommit <= 1.0,
            "overcommit must be in (0,1]"
        );
        Self::compose(
            "DRA",
            BASELINE_WINDOW_SLOTS,
            seed,
            // The run-time mean is too cheap to be worth a thread; pin
            // width 1 (the forecast is positional either way).
            VmWindowPredictor::serial(FiniteGuard::new(DraPredictor::new())),
            RecordOnlyGate,
            Packing::Passthrough,
            DirectBackend::new(VmSelector::ShareWeighted),
            AdmissionPolicy::Overcommit(overcommit),
        )
    }
}

// ---------------------------------------------------------------------------
// Static peak (the trivial fifth scheme)
// ---------------------------------------------------------------------------

/// Reservation-based first-fit as a pipeline configuration: no prediction,
/// no reclaim, no packing, full-request first-fit placement — the same
/// decisions as [`corp_sim::StaticPeakProvisioner`], proving the plug-in
/// path: a fifth scheme is a stage wiring, not a fifth copy of the slot
/// loop.
pub type StaticPeakPipeline =
    ProvisioningPipeline<NoopUsagePredictor, NoopGate, Packing, DirectBackend>;

impl StaticPeakPipeline {
    /// Creates the static-peak pipeline configuration.
    pub fn static_peak() -> Self {
        Self::compose(
            "static-peak",
            1,
            0,
            NoopUsagePredictor,
            NoopGate,
            Packing::Passthrough,
            DirectBackend::new(VmSelector::FirstFit),
            AdmissionPolicy::FullRequest,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corp_sim::{Cluster, EnvironmentProfile, Provisioner, Simulation, SimulationOptions};
    use corp_trace::{WorkloadConfig, WorkloadGenerator};

    fn workload(n: usize, seed: u64) -> Vec<corp_trace::JobSpec> {
        WorkloadGenerator::new(
            WorkloadConfig {
                num_jobs: n,
                ..WorkloadConfig::default()
            },
            seed,
        )
        .generate()
    }

    fn run(provisioner: &mut dyn Provisioner, n: usize, seed: u64) -> corp_sim::SimulationReport {
        let cluster = Cluster::from_profile(EnvironmentProfile::palmetto_cluster());
        let mut sim = Simulation::new(
            cluster,
            workload(n, seed),
            SimulationOptions {
                measure_decision_time: false,
                ..Default::default()
            },
        );
        sim.run(provisioner)
    }

    /// A small fleet where capacity binds: the regime in which the paper's
    /// utilization/SLO orderings emerge.
    fn contended_cluster() -> Cluster {
        Cluster::from_profile(EnvironmentProfile::palmetto_cluster().with_num_pms(8))
    }

    fn run_contended(
        provisioner: &mut dyn Provisioner,
        n: usize,
        seed: u64,
    ) -> corp_sim::SimulationReport {
        let mut sim = Simulation::new(
            contended_cluster(),
            workload(n, seed),
            SimulationOptions {
                measure_decision_time: false,
                ..Default::default()
            },
        );
        sim.run(provisioner)
    }

    /// CORP pretrained on a disjoint historical workload, as the paper
    /// trains on the Google-trace history before evaluating.
    fn pretrained_corp(cfg: CorpConfig) -> CorpProvisioner {
        let mut corp = CorpProvisioner::new(cfg);
        let hist = workload(40, 0x1157);
        let histories: Vec<Vec<Vec<f64>>> = (0..3)
            .map(|k| {
                hist.iter()
                    .map(|j| (0..j.duration_slots).map(|s| j.unused_at(s, k)).collect())
                    .collect()
            })
            .collect();
        corp.pretrain(&histories);
        corp
    }

    #[test]
    fn corp_completes_workload_with_valid_actions() {
        let mut corp = CorpProvisioner::new(CorpConfig::fast());
        let report = run(&mut corp, 60, 1);
        assert_eq!(report.completed + report.unfinished, 60, "{report:?}");
        assert_eq!(report.invalid_actions, 0, "{report:?}");
        assert!(
            report.completed >= 55,
            "most jobs must complete: {report:?}"
        );
    }

    #[test]
    fn corp_beats_static_peak_utilization() {
        let mut corp = pretrained_corp(CorpConfig::fast());
        let corp_report = run_contended(&mut corp, 120, 2);
        let mut peak = corp_sim::StaticPeakProvisioner;
        let peak_report = run_contended(&mut peak, 120, 2);
        assert!(
            corp_report.overall_utilization > peak_report.overall_utilization,
            "CORP {} vs static peak {}",
            corp_report.overall_utilization,
            peak_report.overall_utilization
        );
    }

    #[test]
    fn corp_registers_predictions() {
        let mut corp = CorpProvisioner::new(CorpConfig::fast());
        let report = run(&mut corp, 40, 3);
        assert!(report.predictions_resolved > 0, "{report:?}");
    }

    #[test]
    fn rccr_runs_and_reclaims() {
        let mut rccr = RccrProvisioner::new(0.9, 7);
        let report = run(&mut rccr, 60, 4);
        assert_eq!(report.invalid_actions, 0, "{report:?}");
        assert!(report.completed >= 55, "{report:?}");
        assert!(report.predictions_resolved > 0);
    }

    #[test]
    fn cloudscale_runs_and_reclaims() {
        let mut cs = CloudScaleProvisioner::new(7);
        let report = run(&mut cs, 60, 5);
        assert_eq!(report.invalid_actions, 0, "{report:?}");
        assert!(report.completed >= 55, "{report:?}");
        assert!(report.predictions_resolved > 0);
    }

    #[test]
    fn dra_runs_without_opportunistic_reuse() {
        let mut dra = DraProvisioner::new(7);
        let report = run(&mut dra, 60, 6);
        assert_eq!(report.invalid_actions, 0, "{report:?}");
        assert!(report.completed + report.unfinished == 60, "{report:?}");
    }

    #[test]
    fn opportunistic_schemes_beat_dra_utilization() {
        let mut corp = pretrained_corp(CorpConfig::fast());
        let mut rccr = RccrProvisioner::new(0.9, 7);
        let mut dra = DraProvisioner::new(7);
        let u_corp = run_contended(&mut corp, 120, 8).overall_utilization;
        let u_rccr = run_contended(&mut rccr, 120, 8).overall_utilization;
        let u_dra = run_contended(&mut dra, 120, 8).overall_utilization;
        assert!(u_corp > u_dra, "CORP {u_corp} vs DRA {u_dra}");
        assert!(u_rccr > u_dra, "RCCR {u_rccr} vs DRA {u_dra}");
    }

    #[test]
    fn corp_packing_ablation_changes_nothing_structural() {
        let mut cfg = CorpConfig::fast();
        cfg.use_packing = false;
        cfg.use_volume_placement = false;
        let mut corp = CorpProvisioner::new(cfg);
        let report = run(&mut corp, 50, 9);
        assert_eq!(report.completed + report.unfinished, 50);
        assert_eq!(report.invalid_actions, 0);
    }

    #[test]
    fn corp_pretrain_marks_predictor_trained() {
        let mut corp = CorpProvisioner::new(CorpConfig::fast());
        let histories: Vec<Vec<f64>> = (0..10)
            .map(|j| (0..30).map(|t| 3.0 + ((t + j) % 4) as f64 * 0.2).collect())
            .collect();
        corp.pretrain(&[histories.clone(), histories.clone(), histories]);
        assert!(corp.predictor().is_trained());
    }

    #[test]
    fn provisioner_names_match_paper() {
        assert_eq!(CorpProvisioner::new(CorpConfig::fast()).name(), "CORP");
        assert_eq!(RccrProvisioner::new(0.9, 1).name(), "RCCR");
        assert_eq!(CloudScaleProvisioner::new(1).name(), "CloudScale");
        assert_eq!(DraProvisioner::new(1).name(), "DRA");
    }

    #[test]
    fn static_peak_pipeline_matches_the_reference_provisioner() {
        // The pipeline wiring of the trivial fifth scheme reproduces the
        // hand-written StaticPeakProvisioner decision for decision.
        let mut pipeline = StaticPeakPipeline::static_peak();
        let mut reference = corp_sim::StaticPeakProvisioner;
        assert_eq!(pipeline.name(), reference.name());
        let a = run_contended(&mut pipeline, 120, 11);
        let b = run_contended(&mut reference, 120, 11);
        assert_eq!(serde::json::to_string(&a), serde::json::to_string(&b));
    }
}
