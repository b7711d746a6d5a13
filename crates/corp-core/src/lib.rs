//! # CORP — Cooperative Opportunistic Resource Provisioning
//!
//! A faithful implementation of *"CORP: Cooperative Opportunistic Resource
//! Provisioning for Short-Lived Jobs in Cloud Systems"* (Liu, Shen, Chen —
//! IEEE CLUSTER 2016), together with the three baselines the paper compares
//! against.
//!
//! ## The CORP pipeline (Section III)
//!
//! 1. **Predict** each job's temporarily-unused resource with a deep neural
//!    network over the job's last `Delta` slots of usage
//!    ([`CorpJobPredictor`], built on `corp-dnn`).
//! 2. **Correct for fluctuations** with a 3-state HMM that forecasts
//!    whether the unused amount is entering a peak or valley and shifts the
//!    estimate by the conservative `min(h-m, m-l)` magnitude (`corp-hmm`).
//! 3. **Be conservative**: subtract the confidence-interval half-width
//!    `sigma_hat * z_{theta/2}` (Eq. 19) so under-estimation protects SLOs.
//! 4. **Gate preemption** probabilistically: reclaimed ("unlocked")
//!    resources require `Pr(0 <= delta < eps) >= P_th` over the recent
//!    prediction-error window (Eq. 21, [`PreemptionGate`]).
//! 5. **Pack complementary jobs** whose dominant resources differ,
//!    maximizing the demand-deviation score `DV` ([`pack_complementary`]).
//! 6. **Place** each job entity on the fitting VM with the smallest unused
//!    resource volume (Eq. 22, [`most_matched_vm`]).
//!
//! ## Baselines (Section IV)
//!
//! * [`RccrPredictor`] / [`RccrProvisioner`] — exponential-smoothing
//!   forecast of VM unused resources with confidence-interval lower bound;
//!   random fitting VM; no packing.
//! * [`CloudScalePredictor`] / [`CloudScaleProvisioner`] — PRESS-style
//!   FFT-signature + Markov-chain prediction with burst-based adaptive
//!   padding; random fitting VM; no packing.
//! * [`DraPredictor`] / [`DraProvisioner`] — share/demand equitable
//!   capacity redistribution (shares mixed 4:2:1); never reallocates unused
//!   resources.
//!
//! All four implement [`corp_sim::Provisioner`], so any of them can drive a
//! `corp-sim` simulation; the `corp-bench` crate builds every figure of the
//! paper's evaluation on top of that.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod fleet;
mod packing;
pub mod pipeline;
mod placement;
mod predictor;
mod preemption;
mod scheduler;

pub use config::CorpConfig;
pub use fleet::{corp_fleet, shard_seed};
pub use packing::{pack_complementary, JobEntity, PackableJob};
pub use pipeline::{
    AdmissionPolicy, Claim, JobPacker, Packing, PlacementBackend, ProvisioningPipeline,
    ReallocationGate, UsagePredictor, VmSelector,
};
pub use placement::{most_matched_vm, VolumeIndex};
pub use predictor::{
    CloudScalePredictor, CorpJobPredictor, DraPredictor, FallbackCounters, PredictionScratch,
    RccrPredictor,
};
pub use preemption::PreemptionGate;
pub use scheduler::{CloudScaleProvisioner, CorpProvisioner, DraProvisioner, RccrProvisioner};
